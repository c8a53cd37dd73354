"""SELECT-trigger actions compiled once per trigger.

A trigger's ``accessed`` relation is one reusable transient table,
refilled per firing, and the body's SELECT plans are cached with it
under the plan-cache tags. The audit log must be exactly what compiling
the body afresh on every firing produces — across trigger, audit and
table DDL, in async mode, through ``recover()`` and through intents a
replica forwards — with ``sql_text()`` / ``user_id()`` per firing.
"""

from __future__ import annotations

import pytest

from repro import Database
from repro.catalog.schema import Column, TableSchema
from repro.datatypes import type_from_name
from repro.errors import TriggerError
from repro.replication import ReplicaDatabase
from repro.storage.table import Table

SCHEMA = """
CREATE TABLE patients (pid INT PRIMARY KEY, name VARCHAR, risk INT);
CREATE TABLE wards (pid INT, ward VARCHAR);
CREATE TABLE log (uid VARCHAR, pid INT, sqltext VARCHAR);
CREATE AUDIT EXPRESSION risky AS SELECT * FROM patients WHERE risk >= 80
    FOR SENSITIVE TABLE patients, PARTITION BY pid;
"""
LOG_ACCESS = (
    "CREATE TRIGGER log_access ON ACCESS TO risky AS "
    "INSERT INTO log SELECT user_id(), pid, sql_text() FROM accessed"
)
LOG_WARD = (
    "CREATE TRIGGER log_access ON ACCESS TO risky AS "
    "INSERT INTO log SELECT user_id(), a.pid, w.ward FROM accessed a, "
    "wards w WHERE a.pid = w.pid"
)
READS = [
    ("alice", "SELECT name FROM patients WHERE pid = 1"),
    ("bob", "SELECT name FROM patients WHERE risk >= 50"),
    ("alice", "SELECT name FROM patients WHERE pid = 2"),
    ("carol", "SELECT COUNT(*) FROM patients WHERE risk > 85"),
    ("bob", "SELECT name FROM patients WHERE pid = 4"),
]

#: (DDL run between two rounds of READS) — each one must invalidate
CHANGES = [
    # trigger DDL: same name, different body
    ["DROP TRIGGER log_access", LOG_WARD],
    # table DDL on a table the cached body scans
    ["DROP TABLE wards", "CREATE TABLE wards (pid INT, ward VARCHAR)",
     "INSERT INTO wards VALUES (1, 'east'), (3, 'west'), (5, 'north')"],
    # audit DDL: the sensitive set changes under the same name
    ["DROP TRIGGER log_access", "DROP AUDIT EXPRESSION risky",
     "CREATE AUDIT EXPRESSION risky AS SELECT * FROM patients "
     "WHERE risk >= 60 FOR SENSITIVE TABLE patients, PARTITION BY pid",
     LOG_ACCESS],
    # the log table itself is dropped and re-created
    ["DROP TABLE log",
     "CREATE TABLE log (uid VARCHAR, pid INT, sqltext VARCHAR)"],
]


class _Forgetful(dict):
    """An action store that never keeps an entry: every firing compiles
    its body afresh (the reference the cache is compared against)."""

    def __setitem__(self, key, value) -> None:
        pass


def make(fresh: bool = False, replicate: bool = False,
         seed_log: int = 0, **kwargs) -> Database:
    """The clinic; ``seed_log`` pre-fills the log so the rows a test adds
    cross no power-of-two statistics bucket (which would rightly
    recompile the action)."""
    db = Database(user_id="admin", **kwargs)
    db.replicate_statements = replicate
    db.execute_script(SCHEMA)
    db.execute(
        "INSERT INTO patients VALUES (1, 'Ann', 90), (2, 'Ben', 40), "
        "(3, 'Cat', 85), (4, 'Dan', 70), (5, 'Eve', 95)"
    )
    db.execute("INSERT INTO wards VALUES (1, 'north'), (3, 'south')")
    for pid in range(seed_log):
        db.execute(f"INSERT INTO log VALUES ('seed', {pid}, 'seed')")
    db.execute(LOG_ACCESS)
    if fresh:
        db.trigger_manager._actions = _Forgetful()
    return db


def read_round(db: Database) -> None:
    for user, sql in READS:
        with db.session.override(sql, user):
            db.execute(sql)
    db.drain_triggers()


def scripted_log(db: Database) -> list[tuple]:
    """Run READS before and after each DDL change; return the log."""
    logs: list[tuple] = []
    read_round(db)
    for change in CHANGES:
        for sql in change:
            if sql.startswith("DROP TABLE log"):
                logs += db.execute("SELECT * FROM log").rows
            db.execute(sql)
        read_round(db)
    return logs + db.execute("SELECT * FROM log").rows


def count_compiles(monkeypatch, db: Database) -> list:
    """Records each SELECT compiled with no plan-cache key: the trigger
    actions' sources (top-level SELECTs are keyed by their text)."""
    compiled = []
    original = db.compile_select

    def counting(statement, scope_columns=None, sql_key=None):
        if sql_key is None:
            compiled.append(statement)
        return original(statement, scope_columns, sql_key)

    monkeypatch.setattr(db, "compile_select", counting)
    return compiled


class TestCompiledOnce:
    def test_body_compiles_once_across_firings(self, monkeypatch):
        db = make(seed_log=64)
        compiled = count_compiles(monkeypatch, db)
        read_round(db)
        read_round(db)
        assert len(compiled) == 1
        # per round: pid 1, then pids 1, 3, 5, then pids 1, 5
        assert len(db.execute("SELECT * FROM log")) == 64 + 2 * 6

    def test_firing_keeps_the_statistics_epoch(self):
        db = make(seed_log=64)
        read_round(db)
        epoch = db.catalog.refresh_stats_version()
        read_round(db)
        assert db.catalog.refresh_stats_version() == epoch
        assert not db.catalog.has_table("accessed")

    def test_per_firing_attribution(self):
        db = make()
        read_round(db)
        read_round(db)
        expected = []
        for user, sql in READS:
            result = make().execute(sql)
            for pid in sorted(result.accessed.get("risky", ())):
                expected.append((user, pid, sql))
        assert db.execute("SELECT * FROM log").rows == expected * 2

    def test_user_table_named_accessed_still_refused(self):
        db = make()
        read_round(db)  # the action is compiled and cached
        db.execute("CREATE TABLE accessed (x INT)")
        with pytest.raises(TriggerError):
            db.execute("SELECT name FROM patients WHERE pid = 1")

    def test_drop_trigger_forgets_its_action(self):
        db = make()
        read_round(db)
        assert "log_access" in db.trigger_manager._actions
        db.execute("DROP TRIGGER log_access")
        assert "log_access" not in db.trigger_manager._actions


class TestMatchesFreshCompilation:
    def test_ddl_invalidates(self, monkeypatch):
        cached = make(seed_log=64)
        compiled = count_compiles(monkeypatch, cached)
        expected = scripted_log(make(fresh=True, seed_log=64))
        assert scripted_log(cached) == expected
        # recompiled per DDL change (and per statistics epoch the
        # re-created log crosses), not per firing
        firings = len(expected) - 64
        assert 1 + len(CHANGES) <= len(compiled) < firings / 2
        # the ward join saw the re-created wards table
        assert ("bob", 5, "north") in expected

    def test_async_pipeline(self):
        cached, fresh = make(), make(fresh=True)
        for db in (cached, fresh):
            db.trigger_mode = "async"
        try:
            assert scripted_log(cached) == scripted_log(fresh)
        finally:
            cached.close()
            fresh.close()

    def test_recover_replay(self, tmp_path):
        writer = make(journal_path=tmp_path / "journal")
        read_round(writer)
        read_round(writer)
        written = writer.execute("SELECT * FROM log").rows
        writer.close()
        replayed = []
        for fresh in (False, True):
            db = make(fresh=fresh)
            db.recover(tmp_path / "journal")
            replayed.append(db.execute("SELECT * FROM log").rows)
        assert replayed[0] == replayed[1] == written

    def test_replica_forwarded_intents(self, tmp_path):
        single = make()
        read_round(single)
        read_round(single)
        logs = []
        for fresh in (False, True):
            path = tmp_path / f"journal-{fresh}"
            primary = make(fresh=fresh, journal_path=path, replicate=True)
            replica = ReplicaDatabase.from_journal(path, primary=primary)
            try:
                assert replica.wait_for(primary.replication_token(),
                                        timeout=5.0)
                for user, sql in READS * 2:
                    replica.execute(sql, user_id=user)
                primary.drain_triggers()
                logs.append(primary.execute("SELECT * FROM log").rows)
            finally:
                replica.close()
                primary.close()
        assert logs[0] == logs[1] == single.execute("SELECT * FROM log").rows


class TestTransientRelations:
    def test_transient_table_keeps_the_epoch(self):
        db = Database()
        epoch = db.catalog.refresh_stats_version()
        schema = TableSchema(
            name="accessed", columns=(Column("id", type_from_name("INT")),)
        )
        table = Table(schema)
        table.bulk_load([(1,), (2,), (3,)])
        db.catalog.add_table(table, transient=True)
        assert db.catalog.refresh_stats_version() == epoch
        assert db.catalog.table("accessed") is table
        assert list(db.catalog.tables()) == []
        db.catalog.drop_table("accessed", transient=True)
        assert db.catalog.refresh_stats_version() == epoch
        assert not db.catalog.has_table("accessed")

    def test_firing_does_not_invalidate_cached_plans(self):
        db = make()
        plain = "SELECT name FROM patients WHERE pid = 2"
        db.execute(plain)
        read_round(db)
        hits = db.plan_cache.stats()["hits"]
        db.execute(plain)
        assert db.plan_cache.stats()["hits"] == hits + 1
