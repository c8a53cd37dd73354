"""UPDATE/DELETE through the SELECT access-path chooser.

UPDATE and DELETE find their targets with the planner's equality seek /
index range / compiled full scan. These tests pin that the path is
chosen, that BETWEEN bounds an index range, and — differentially — that
an indexed statement leaves exactly the state, trigger firings and
errors of the same statement forced onto the full scan.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database
from repro.errors import ConstraintError
from repro.exec.operators import IndexRange, IndexSeek, TableScan
from repro.tpch import QUERIES, QUERY_PARAMETERS, audit_expression_sql

_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def physical_plan(db: Database, sql: str):
    return db._optimizer.compile(db.plan_query(sql))


def find_nodes(plan, node_type):
    return [node for node in plan.walk() if isinstance(node, node_type)]


def build(rows, unique_v: bool = False) -> Database:
    """``t(id PK, k, v)`` with an ordered index on ``k``, plus a history
    table filled by AFTER UPDATE / AFTER DELETE row triggers."""
    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT)")
    db.execute("CREATE INDEX t_k ON t (k)")
    if unique_v:
        db.execute("CREATE UNIQUE INDEX t_v ON t (v)")
    db.execute(
        "CREATE TABLE history (event VARCHAR, old_id INT, new_id INT, "
        "old_k INT, new_k INT)"
    )
    db.execute(
        "CREATE TRIGGER on_update ON t AFTER UPDATE AS INSERT INTO history "
        "VALUES ('update', old.id, new.id, old.k, new.k)"
    )
    db.execute(
        "CREATE TRIGGER on_delete ON t AFTER DELETE AS INSERT INTO history "
        "VALUES ('delete', old.id, NULL, old.k, NULL)"
    )
    for row_id, k, v in rows:
        k_sql = "NULL" if k is None else str(k)
        db.execute(f"INSERT INTO t VALUES ({row_id}, {k_sql}, {v})")
    return db


def state(db: Database) -> tuple:
    """Rows by rid, every secondary index's buckets, and the history."""
    table = db.catalog.table("t")
    indexes = {
        name: {key: set(rids) for key, rids in index._buckets.items()}
        for name, index in table.secondary_indexes().items()
    }
    return (
        sorted(table.rows_with_rids()),
        indexes,
        db.execute("SELECT * FROM history").rows,
    )


def run(db: Database, sql: str):
    """Rowcount of ``sql``, or the type of the error it raised."""
    try:
        return db.execute(sql).rowcount
    except ConstraintError as error:
        return type(error)


class TestAccessPathChoice:
    @pytest.fixture
    def spied(self, monkeypatch):
        calls: list[str] = []
        for operator in (TableScan, IndexSeek, IndexRange):
            original = operator.rid_rows

            def spy(self, context, _original=original):
                calls.append(type(self).__name__)
                return _original(self, context)

            monkeypatch.setattr(operator, "rid_rows", spy)
        return calls

    def test_point_update_seeks(self, spied):
        db = build([(i, i, i) for i in range(1, 50)])
        assert db.execute("UPDATE t SET v = 0 WHERE id = :id",
                          {"id": 7}).rowcount == 1
        assert spied == ["IndexSeek"]

    def test_between_delete_uses_index_range(self, spied):
        db = build([(i, i, i) for i in range(1, 200)])
        db.execute("ANALYZE")
        assert db.execute(
            "DELETE FROM t WHERE k BETWEEN 10 AND 14"
        ).rowcount == 5
        assert spied == ["IndexRange"]

    def test_non_sargable_predicate_scans(self, spied):
        db = build([(i, i, i) for i in range(1, 20)])
        assert db.execute(
            "DELETE FROM t WHERE k = 3 OR v = 4"
        ).rowcount == 2
        assert spied == ["TableScan"]

    def test_dml_plans_on_stale_statistics(self, monkeypatch):
        db = build([(i, i, i) for i in range(1, 200)])
        db.execute("ANALYZE")
        db.execute("INSERT INTO t VALUES (500, 500, 500)")
        gathered = []
        original = db.catalog.statistics

        def counting(name, stale_ok=False):
            if not stale_ok:
                gathered.append(name)
            return original(name, stale_ok=stale_ok)

        monkeypatch.setattr(db.catalog, "statistics", counting)
        db.execute("DELETE FROM t WHERE k BETWEEN 10 AND 12")
        assert gathered == []


class TestBetweenRange:
    @pytest.fixture
    def ranged(self, db):
        db.execute("CREATE TABLE r (id INT PRIMARY KEY, k INT)")
        db.execute("CREATE INDEX r_k ON r (k)")
        db.execute(
            "INSERT INTO r VALUES "
            + ", ".join(f"({i}, {i % 100})" for i in range(1, 401))
        )
        db.execute("ANALYZE")
        return db

    def test_narrow_between_plans_index_range(self, ranged):
        plan = physical_plan(
            ranged, "SELECT id FROM r WHERE k BETWEEN 10 AND 12"
        )
        assert find_nodes(plan, IndexRange)

    def test_wide_between_scans(self, ranged):
        plan = physical_plan(
            ranged, "SELECT id FROM r WHERE k BETWEEN 10 AND 90"
        )
        assert not find_nodes(plan, IndexRange)

    def test_not_between_is_not_a_range(self, ranged):
        plan = physical_plan(
            ranged, "SELECT id FROM r WHERE k NOT BETWEEN 10 AND 12"
        )
        assert not find_nodes(plan, IndexRange)

    def test_between_matches_scan(self, ranged):
        indexed = ranged.execute(
            "SELECT id FROM r WHERE k BETWEEN 10 AND 12 ORDER BY id"
        )
        scanned = ranged.execute(
            "SELECT id FROM r WHERE k + 0 BETWEEN 10 AND 12 ORDER BY id"
        )
        assert indexed.rows == scanned.rows
        assert len(indexed.rows) == 12

    def test_null_bound_matches_nothing(self, ranged):
        assert ranged.execute(
            "DELETE FROM r WHERE k >= :low AND k <= 5", {"low": None}
        ).rowcount == 0
        assert ranged.execute(
            "SELECT COUNT(*) FROM r WHERE k BETWEEN NULL AND 5"
        ).scalar() == 0


class TestTpchBetween:
    @staticmethod
    def orders_ranges(db: Database, sql: str) -> list:
        for name, value in QUERY_PARAMETERS["Q8"].items():
            sql = sql.replace(f":{name}", repr(value))
        return [
            node for node in find_nodes(physical_plan(db, sql), IndexRange)
            if node.table.schema.name == "orders"
        ]

    def test_q8_two_year_range_still_scans(self, tpch_db):
        # ~32 % of orders: above the index-range threshold
        assert not self.orders_ranges(tpch_db, QUERIES["Q8"])
        count = ("SELECT COUNT(*) FROM orders WHERE o_orderdate "
                 "BETWEEN DATE '1995-01-01' AND DATE '{}'")
        assert not self.orders_ranges(tpch_db, count.format("1996-12-31"))
        assert self.orders_ranges(tpch_db, count.format("1995-01-20"))

    def test_narrow_orderkey_between_keeps_accessed(self):
        from repro.tpch import load_tpch

        db = Database()
        load_tpch(db, scale_factor=0.002)
        db.execute(audit_expression_sql("building", "BUILDING"))
        db.execute("ANALYZE")
        low, high = 100, 400
        query = (
            "SELECT o_orderkey, c_custkey FROM orders, customer "
            "WHERE o_custkey = c_custkey AND o_orderkey BETWEEN {} AND {} "
            "ORDER BY o_orderkey"
        )
        indexed_sql = query.format(low, high)
        assert find_nodes(physical_plan(db, indexed_sql), IndexRange)
        indexed = db.execute(indexed_sql)
        scanned = db.execute(
            query.replace("o_orderkey BETWEEN", "o_orderkey + 0 BETWEEN")
            .format(low, high)
        )
        assert indexed.rows == scanned.rows
        assert indexed.accessed == scanned.accessed
        assert indexed.accessed["building"]


# ---------------------------------------------------------------------------
# differential: indexed DML vs the same DML forced onto the full scan

keys = st.one_of(st.none(), st.integers(min_value=0, max_value=12))
#: ``(id, k, v)`` rows with unique ids and v's, inserted in list order:
#: ids are a permutation, so heap (rid) order differs from id order
table_rows = st.lists(
    st.tuples(keys, st.integers(min_value=0, max_value=30)),
    min_size=0, max_size=25, unique_by=lambda row: row[1],
).flatmap(lambda rows: st.permutations(range(1, len(rows) + 1)).map(
    lambda ids: [(i, k, v) for i, (k, v) in zip(ids, rows)]
))
small = st.integers(min_value=-1, max_value=13)

#: WHERE templates; ``{k}`` / ``{id}`` are column references that the
#: reference run wraps in ``+ 0`` so no index can serve them
predicates = st.one_of(
    st.builds("{{k}} = {}".format, small),
    st.builds("{{k}} BETWEEN {} AND {}".format, small, small),
    st.builds("{{k}} > {} AND {{k}} <= {}".format, small, small),
    st.builds("{{id}} BETWEEN {} AND {}".format, small, small),
    st.builds("{{id}} = {}".format, small),
    st.builds("{{k}} = {} OR v = {}".format, small, small),
    st.builds("{{k}} >= {} AND v < {}".format, small, small),
    st.just("{k} = NULL"),
    st.just("{k} IS NULL"),
)
ACTIONS = [
    "DELETE FROM t WHERE {where}",
    "UPDATE t SET v = v + 1 WHERE {where}",
    "UPDATE t SET k = k + 3 WHERE {where}",
    "UPDATE t SET id = id + 10 WHERE {where}",
    "UPDATE t SET id = id + 1 WHERE {where}",
    "UPDATE t SET v = 7 WHERE {where}",
]
actions = st.sampled_from(ACTIONS)


#: a fixed table whose heap order matches neither id nor k order, with
#: duplicate and NULL keys
FIXED_ROWS = [
    (7, 5, 1), (2, 3, 2), (11, 4, 3), (4, 9, 4), (1, None, 5), (6, 3, 6),
    (9, 8, 7), (3, 7, 8), (12, 6, 9), (5, 0, 10), (10, None, 11),
    (8, 12, 12), (14, 4, 13), (13, 1, 14),
]
FIXED_PREDICATES = [
    "{k} = 3", "{k} = 4", "{k} BETWEEN 3 AND 5", "{k} BETWEEN 5 AND 3",
    "{k} > 6 AND {k} <= 9", "{k} >= 4 AND v < 9", "{id} BETWEEN 3 AND 8",
    "{id} = 11", "{k} = 3 OR v = 12", "{k} = NULL", "{k} IS NULL",
    "{k} BETWEEN NULL AND 5", "{k} IN (SELECT v FROM t WHERE v < 6)",
    "{id} >= 4 AND {k} < (SELECT MAX(v) FROM t WHERE v < 9)",
]


def both(template: str, where: str) -> tuple[str, str]:
    indexed = template.format(where=where.format(k="k", id="id"))
    scanned = template.format(
        where=where.format(k="(k + 0)", id="(id + 0)")
    )
    return indexed, scanned


class TestIndexedMatchesFullScan:
    @_SETTINGS
    @given(rows=table_rows, template=actions, where=predicates,
           unique_v=st.booleans())
    def test_autocommit(self, rows, template, where, unique_v):
        indexed_sql, scanned_sql = both(template, where)
        indexed, scanned = build(rows, unique_v), build(rows, unique_v)
        assert run(indexed, indexed_sql) == run(scanned, scanned_sql)
        assert state(indexed) == state(scanned)

    @_SETTINGS
    @given(rows=table_rows, template=actions, where=predicates)
    def test_explicit_transaction_rollback(self, rows, template, where):
        indexed_sql, scanned_sql = both(template, where)
        indexed, scanned = build(rows), build(rows)
        before = state(indexed)[:2]
        for db, sql in ((indexed, indexed_sql), (scanned, scanned_sql)):
            db.execute("BEGIN")
            run(db, sql)
            db.execute("ROLLBACK")
        assert state(indexed) == state(scanned)
        assert state(indexed)[:2] == before

    @pytest.mark.parametrize("where", FIXED_PREDICATES)
    @pytest.mark.parametrize("template", ACTIONS)
    def test_fixed_table(self, template, where):
        indexed_sql, scanned_sql = both(template, where)
        for unique_v in (False, True):
            indexed = build(FIXED_ROWS, unique_v)
            scanned = build(FIXED_ROWS, unique_v)
            assert run(indexed, indexed_sql) == run(scanned, scanned_sql)
            assert state(indexed) == state(scanned)

    def test_key_moving_update(self):
        rows = [(i, i, i) for i in range(1, 21)]
        indexed, scanned = build(rows), build(rows)
        indexed_sql, scanned_sql = both(
            "UPDATE t SET id = id + 10 WHERE {where}",
            "{id} BETWEEN 15 AND 20",
        )
        assert run(indexed, indexed_sql) == run(scanned, scanned_sql) == 6
        assert state(indexed) == state(scanned)

    def test_mid_statement_violation_rolls_back_statement(self):
        rows = [(i, i, i) for i in range(1, 21)]
        indexed, scanned = build(rows), build(rows)
        before = state(indexed)
        # id 5 -> 15 collides with the existing row 15 part-way through
        indexed_sql, scanned_sql = both(
            "UPDATE t SET id = id + 10 WHERE {where}",
            "{id} BETWEEN 3 AND 8",
        )
        assert run(indexed, indexed_sql) is ConstraintError
        assert run(scanned, scanned_sql) is ConstraintError
        assert state(indexed) == state(scanned) == before

    def test_unique_violation_rolls_back_statement(self):
        rows = [(i, i, i) for i in range(1, 11)]
        indexed, scanned = build(rows, True), build(rows, True)
        before = state(indexed)
        indexed_sql, scanned_sql = both(
            "UPDATE t SET v = 5 WHERE {where}", "{k} BETWEEN 1 AND 3"
        )
        assert run(indexed, indexed_sql) is ConstraintError
        assert run(scanned, scanned_sql) is ConstraintError
        assert state(indexed) == state(scanned) == before
