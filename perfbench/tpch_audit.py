"""``tpch_audit``: the paper's TPC-H audit workload (§V), in process.

TPC-H at SF 0.01 is loaded through :mod:`repro.tpch`; the audit
expression is the BUILDING market segment with an armed logging trigger.
Each round runs Q3/5/7/8/10/18/22 and the §V-A micro join in a seeded
order, each query audited and unaudited (``audit_enabled = False``) back
to back on the same data. The write load is TPC-H's refresh pair: before the
queries, RF1 inserts SF × 1500 new orders (15) with 1–7 line items each,
as literal INSERTs; after them, RF2 deletes those rows again, so every
round starts from the same population.

As with TPC-H's own generator, the base population is fixed for the
scale factor; the run's seed drives the refresh rows and the order of the
queries in each round. Per-seed base data would make the offline
auditor's work (the candidates Q22 re-runs) differ from run to run.

The unaudited queries carry a trailing SQL comment, so their plans are
cached under their own text: both sides run from a warm plan cache, as
the 8 statement texts fit in it. The audit log starts with an archive of
earlier disclosures and is trimmed back to it after every round, so its
row count stays inside one power-of-two bucket: the engine's statistics
epoch (a plan-cache tag) does not move, and no round recompiles.
"""

from __future__ import annotations

import datetime
import random
import time

import common
import tracing

SCALE_FACTOR = 0.01
AUDIT_NAME = "audit_customer"
MICRO = "micro"
QUERY_NAMES = ("Q3", "Q5", "Q7", "Q8", "Q10", "Q18", "Q22", MICRO)

#: §V-A micro join: a fixed balance cut and ~40 % of orders by date
MICRO_PARAMETERS = {
    "acctbal": 2500.0,
    "orderdate": datetime.date(1995, 12, 1),
}

#: rounds over which the offline auditor's timing samples are spread (a
#: 12 s window runs about 10; samples left over are taken at its end)
OFFLINE_GAPS = 8

#: generator seed of the base population
DATA_SEED = 42

#: TPC-H RF1 inserts SF × 1500 orders, each with 1–7 line items
REFRESH_ORDERS = round(1500 * SCALE_FACTOR)
REFRESH_MAX_LINES = 7
#: first key of refresh orders (above every generated order key)
REFRESH_ORDERKEY = 10_000_000

#: the session's user, whose log rows each round adds and then trims
USER = "tpch"
LOG_SQL = "CREATE TABLE log (uid VARCHAR, custkey INT, sqltext VARCHAR)"
#: 2 archived rows per customer (3,000): one round adds ~450 log rows,
#: so the log stays within 2,048..4,095 rows
ARCHIVE_SQL = (
    "INSERT INTO log SELECT 'archive', c_custkey, 'archived disclosure' "
    "FROM customer"
)
ARCHIVE_COPIES = 2
TRIGGER_SQL = (
    f"CREATE TRIGGER log_access ON ACCESS TO {AUDIT_NAME} AS "
    "INSERT INTO log SELECT user_id(), c_custkey, sql_text() FROM accessed"
)
LOG_COUNT = "SELECT COUNT(*) FROM log"
LOG_TRIM = f"DELETE FROM log WHERE uid = '{USER}'"
BASELINE_SUFFIX = "\n-- unaudited baseline"

#: write types, for the per-type latency summary
RF1_ORDER, RF1_LINE, RF2_ORDERS, RF2_LINES = (
    "rf1_order", "rf1_lineitem", "rf2_orders", "rf2_lineitem"
)


def queries() -> list[tuple[str, str, dict]]:
    from repro.tpch import MICRO_BENCHMARK_QUERY, QUERIES, QUERY_PARAMETERS

    return [
        (name, MICRO_BENCHMARK_QUERY, MICRO_PARAMETERS) if name == MICRO
        else (name, QUERIES[name], QUERY_PARAMETERS[name])
        for name in QUERY_NAMES
    ]


def build():
    from repro import Database
    from repro.tpch import audit_expression_sql, load_tpch

    database = Database(user_id=USER)
    load_tpch(database, SCALE_FACTOR, seed=DATA_SEED)
    database.execute(audit_expression_sql(AUDIT_NAME, "BUILDING"))
    database.execute(LOG_SQL)
    for _ in range(ARCHIVE_COPIES):
        database.execute(ARCHIVE_SQL)
    database.execute(TRIGGER_SQL)
    return database


def refresh_pairs(seed: int):
    """Endless stream of TPC-H refresh pairs ``(rf1, rf2)``.

    ``rf1`` lists ``(write type, literal INSERT)`` for SF × 1500 new
    orders with 1–7 line items each; as in ``dbgen``, their customers are
    ones that may hold orders (key not divisible by 3). ``rf2`` deletes
    the same orders and line items again, one DELETE per table over the
    round's key range.
    """
    generator = random.Random(f"{seed}:refresh")
    customers = round(150_000 * SCALE_FACTOR)
    parts = round(200_000 * SCALE_FACTOR)
    suppliers = round(10_000 * SCALE_FACTOR)
    orderkey = REFRESH_ORDERKEY
    start = datetime.date(1992, 1, 1)
    while True:
        first = orderkey + 1
        rf1 = []
        for _ in range(REFRESH_ORDERS):
            orderkey += 1
            customer = generator.randrange(1, customers + 1)
            while customer % 3 == 0:
                customer = generator.randrange(1, customers + 1)
            day = start + datetime.timedelta(days=generator.randrange(2400))
            rf1.append((RF1_ORDER, (
                f"INSERT INTO orders VALUES ({orderkey}, {customer}, 'O', "
                f"{generator.randrange(1000, 400000)}.00, DATE '{day}', "
                f"'3-MEDIUM', 'Clerk#000000{generator.randrange(100, 999)}', "
                f"0, 'refresh order {orderkey}')"
            )))
            for line in range(1, generator.randint(1, REFRESH_MAX_LINES) + 1):
                ship = day + datetime.timedelta(days=generator.randrange(1, 122))
                commit = day + datetime.timedelta(days=generator.randrange(30, 91))
                receipt = ship + datetime.timedelta(days=generator.randrange(1, 31))
                rf1.append((RF1_LINE, (
                    f"INSERT INTO lineitem VALUES ({orderkey}, "
                    f"{generator.randrange(1, parts + 1)}, "
                    f"{generator.randrange(1, suppliers + 1)}, {line}, "
                    f"{generator.randrange(1, 51)}.00, "
                    f"{generator.randrange(900, 100000)}.00, 0.0{generator.randrange(10)}, "
                    f"0.0{generator.randrange(9)}, 'N', 'O', DATE '{ship}', "
                    f"DATE '{commit}', DATE '{receipt}', 'NONE', 'TRUCK', "
                    f"'refresh line {orderkey}/{line}')"
                )))
        rf2 = [
            (RF2_LINES, "DELETE FROM lineitem WHERE l_orderkey "
                        f"BETWEEN {first} AND {orderkey}"),
            (RF2_ORDERS, "DELETE FROM orders WHERE o_orderkey "
                         f"BETWEEN {first} AND {orderkey}"),
        ]
        yield rf1, rf2


def query_pairs(database, gate, workload, section):
    """Run each query audited and unaudited back to back.

    Pairing per query, rather than per pass of 8 queries, keeps both
    halves of each pair within a few hundred milliseconds, so a change in
    the machine's speed moves both alike. The side that goes first
    alternates from query to query. Unaudited texts carry
    ``BASELINE_SUFFIX``. ``section(on)`` wraps each execution (tracing
    is on for audited ones only). Returns ``(name, audited result,
    seconds)`` and ``(name, unaudited result, seconds)`` lists, ``None``
    for a failed statement.
    """
    runs: dict[bool, list] = {True: [], False: []}
    for position, (name, sql, parameters) in enumerate(workload):
        for audit in (True, False) if position % 2 else (False, True):
            database.audit_enabled = audit
            try:
                with section(audit):
                    start = time.perf_counter()
                    result = gate.execute(
                        database,
                        sql if audit else sql + BASELINE_SUFFIX, parameters,
                    )
                    elapsed = time.perf_counter() - start
            finally:
                database.audit_enabled = True
            runs[audit].append((name, result, elapsed))
    return runs[True], runs[False]


def write_pass(database, gate, statements, latencies):
    """Run refresh statements, appending ``(write type, seconds)`` of
    each to ``latencies``."""
    for kind, sql in statements:
        start = time.perf_counter()
        if gate.execute(database, sql) is not None:
            latencies.append((kind, time.perf_counter() - start))


def log_count(database, gate):
    result = gate.execute(database, LOG_COUNT)
    return None if result is None else result.scalar()


def verification_round(database, gate, workload):
    results = [
        gate.execute(database, sql, parameters)
        for _name, sql, parameters in workload
    ]
    round_ = [
        (name, sql, parameters,
         set(result.accessed.get(AUDIT_NAME, ())))
        for (name, sql, parameters), result in zip(workload, results)
        if result is not None
    ]
    seen = [
        None if result is None
        else (result.rows, common.accessed_key(result.accessed))
        for result in results
    ]
    log_rows = database.execute("SELECT * FROM log").rows
    return round_, common.digest((seen, log_rows))


def _rows_key(result):
    return sorted(result.rows, key=repr)


def type_medians_ms(latencies: dict[str, list[float]]) -> list[float]:
    """Median latency of each statement type, ascending, in ms (``[0]``
    when every statement failed, which the gate counts)."""
    return sorted(
        common.median(v) * 1e3 for v in latencies.values()
    ) or [0.0]


def run(seed: int, seconds: float, traced: bool) -> int:
    gate = common.Gate()
    tracer = tracing.Tracer()
    yardstick = common.Yardstick()
    workload = queries()
    database, round_, setups = common.set_up(
        build,
        lambda database: verification_round(database, gate, workload),
        gate, tracer if traced else None, yardstick,
    )
    offline_clock = common.OfflineClock(database, AUDIT_NAME, gate,
                                        yardstick)
    checked = common.verify_offline(offline_clock, round_,
                                    exact=frozenset({MICRO}))
    # a round ends on the base population (RF2 undoes RF1), so samples
    # taken between rounds time the same audit as the check
    offline_clock.plan(round_, gaps=OFFLINE_GAPS)

    refreshes = refresh_pairs(seed)
    order = random.Random(f"{seed}:order")
    reads: dict[str, list[float]] = {}
    writes: dict[str, list[float]] = {}
    segments = common.Segments()
    cache: dict = {}
    window_start = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - window_start < seconds:
        kind = common.TRACED if traced and index % 2 else common.AUDITED
        rf1, rf2 = next(refreshes)
        gate.execute(database, LOG_TRIM)
        yardstick.mark()
        round_writes: list[tuple[str, float]] = []
        write_pass(database, gate, rf1, round_writes)
        log_before = log_count(database, gate)
        # only the audited queries are traced: per-op layer figures are
        # per audited query
        audited, plain = query_pairs(
            database, gate, order.sample(workload, len(workload)),
            lambda audit: tracing.section(
                tracer, database.plan_cache, cache,
                on=audit and kind == common.TRACED,
            ),
        )
        log_after = log_count(database, gate)
        disclosed = sum(
            len(ids) for _, result, _ in audited if result is not None
            for ids in result.accessed.values()
        )
        if log_before is not None and log_after is not None:
            gate.check(
                log_after - log_before == disclosed,
                f"round {index}: log grew {log_after - log_before}, "
                f"ACCESSED held {disclosed}",
            )
        write_pass(database, gate, rf2, round_writes)
        factor = yardstick.mark()
        for runs, segment in ((audited, kind), (plain, common.BASELINE)):
            segments.add(segment, sum(r is not None for _, r, _ in runs),
                         sum(elapsed for _, _, elapsed in runs), factor)
        if kind == common.AUDITED:
            for write, elapsed in round_writes:
                writes.setdefault(write, []).append(elapsed / factor)
        paused = time.perf_counter()
        offline_clock.sample()
        window_start += time.perf_counter() - paused
        for (name, with_audit, elapsed), (_, without, _) in zip(
            audited, plain
        ):
            if kind == common.AUDITED and with_audit is not None:
                reads.setdefault(name, []).append(elapsed / factor)
            if with_audit is not None and without is not None:
                gate.check(
                    _rows_key(with_audit) == _rows_key(without),
                    f"round {index} {name}: audited rows differ from "
                    "unaudited",
                )
        index += 1

    offline = common.offline_figures(offline_clock, checked, len(round_))
    if traced:
        tracer.dump(common.RUN_DIR / "tpch_audit.spans.json")
        metrics = tracing.layer_metrics(tracer.spans, tracer.totals, {
            **offline, **tracing.cache_inputs(cache),
            "tracing_overhead_frac": segments.tracing_overhead(),
        })
    else:
        metrics = common.end_to_end(
            setups, segments, common.peak_rss_mb(), offline,
            [latency for by_type in reads.values() for latency in by_type],
            [latency for by_type in writes.values() for latency in by_type],
        )
        # The 8 query types form 8 clusters of a few dozen samples: the
        # median of all samples would jump between the 4th and 5th
        # cluster, and their p99 is the single worst run of the slowest
        # query. So the typical read is the median of the per-type
        # medians, and the tail is the slowest type's median. Writes have
        # hundreds of INSERT samples, a true median; their tail is the
        # two RF2 DELETEs a round, the slower of which sets write_p99_ms.
        reads_ms = type_medians_ms(reads)
        metrics["read_p50_ms"] = (common.median(reads_ms), "ms")
        metrics["read_p99_ms"] = (reads_ms[-1], "ms")
        metrics["write_p99_ms"] = (type_medians_ms(writes)[-1], "ms")
    return common.emit(gate, metrics, yardstick)
