"""``adhoc_inproc``: distinct literal SQL against one in-process session.

Every statement text is new, so the plan cache (128 entries) misses and
parse, bind, rewrite, audit placement and compile do most of the work.
Reads keep the 60/30/10 split of point reads, ``patients ⋈ visits`` for
one pid and short pid-range counts; 8 % of statements are literal
``INSERT INTO visits``, the INSERT share of ``oltp_wire``, so that write
latency is measured here too.
"""

from __future__ import annotations

import time

import clinic
import common
import tracing

POINT, JOIN, RANGE, INSERT = "point", "join", "range", "insert"

#: (kind, statements per deck of 50): 8 % INSERTs, and the 46 reads
#: split as near 60/30/10 as whole statements allow
MIX = ((POINT, 28), (JOIN, 14), (RANGE, 4), (INSERT, 4))

VERIFY_POINTS, VERIFY_JOINS, VERIFY_RANGES = 8, 6, 2


def point_sql(pid: int) -> str:
    return f"SELECT pid, name, risk FROM patients WHERE pid = {pid}"


def join_sql(pid: int) -> str:
    return (
        "SELECT p.pid, p.risk, v.day, v.cost FROM patients p, visits v "
        f"WHERE p.pid = v.pid AND p.pid = {pid}"
    )


def range_sql(low: int, width: int) -> str:
    return (
        "SELECT COUNT(*) FROM patients "
        f"WHERE pid BETWEEN {low} AND {low + width}"
    )


def statements(seed: int):
    """Endless stream of ``(kind, sql, pid, deck_end)``.

    Kinds are dealt from shuffled decks of 50, so every deck holds the
    exact mix (segments end on a deck boundary). A deck's INSERTs arrive
    as one burst at a random place among its reads, as a session that
    records a few visits and goes back to querying. Each INSERT makes the
    next join's compile re-gather the statistics of all 60,000 visits
    (~50 ms); as one burst, a deck pays that once, and compiling its 46
    distinct reads stays the larger share of the work. Pids are dealt per
    kind from shuffled decks of all 20,000, so no text repeats until a
    kind has used every pid.
    """
    generator = clinic.rng(seed, "adhoc")
    deck: list[str] = []
    pids: dict[str, list[int]] = {}
    vid = clinic.ADHOC_VISITS
    while True:
        if not deck:
            deck = [kind for kind, share in MIX if kind != INSERT
                    for _ in range(share)]
            generator.shuffle(deck)
            burst = generator.randrange(len(deck) + 1)
            deck[burst:burst] = [INSERT] * dict(MIX)[INSERT]
        kind = deck.pop()
        deck_end = not deck
        if not pids.get(kind):
            pids[kind] = generator.sample(
                range(1, clinic.PATIENTS + 1), clinic.PATIENTS
            )
        pid = pids[kind].pop()
        if kind == POINT:
            yield kind, point_sql(pid), pid, deck_end
        elif kind == JOIN:
            yield kind, join_sql(pid), pid, deck_end
        elif kind == RANGE:
            yield kind, range_sql(pid, generator.randrange(5, 40)), pid, deck_end
        else:
            vid += 1
            yield kind, (
                f"INSERT INTO visits VALUES ({vid}, {pid}, "
                f"{generator.randrange(365)}, {generator.randrange(10, 500)})"
            ), pid, deck_end


def build(seed: int):
    from repro import Database

    database = Database(user_id="adhoc")
    for sql in clinic.load_sql(seed, visits=True):
        database.execute(sql)
    for sql in clinic.ARM_SQL:
        database.execute(sql)
    return database


def verification_round(database, seed: int, gate: common.Gate):
    """Fixed audited statements on the fresh database; returns the round
    for the offline check and a digest of rows, ACCESSED and log rows."""
    texts = [
        point_sql(pid)
        for pid in clinic.verification_pids(seed, VERIFY_POINTS)
    ] + [
        join_sql(pid)
        for pid in clinic.verification_pids(seed, VERIFY_JOINS, "verify-joins")
    ] + [
        range_sql(pid, 25)
        for pid in clinic.verification_pids(seed, VERIFY_RANGES, "verify-ranges")
    ]
    round_, seen = [], []
    for index, sql in enumerate(texts):
        gate.attempted += 1
        result = database.execute(sql)
        accessed = set(result.accessed.get(clinic.AUDIT_NAME, ()))
        round_.append((f"verify[{index}]", sql, None, accessed))
        seen.append((result.rows, common.accessed_key(result.accessed)))
    log_rows = database.execute("SELECT * FROM log").rows
    return round_, common.digest((seen, log_rows))


def run(seed: int, seconds: float, traced: bool) -> int:
    gate = common.Gate()
    tracer = tracing.Tracer()
    yardstick = common.Yardstick()
    database, round_, setups = common.set_up(
        lambda: build(seed),
        lambda database: verification_round(database, seed, gate),
        gate, tracer if traced else None, yardstick,
    )
    offline_clock = common.OfflineClock(database, clinic.AUDIT_NAME, gate,
                                        yardstick)
    checked = common.verify_offline(offline_clock, round_)

    stream = statements(seed)
    kinds = common.segment_kinds(traced)
    # the window's INSERTs only add visits, which changes the truth of no
    # verification statement: later samples time the same audit
    offline_clock.plan(round_, gaps=len(kinds))
    segment_s = seconds / len(kinds)
    reads: list[float] = []
    writes: list[float] = []
    segments = common.Segments()
    accessed_total = 0
    log_before = database.execute(clinic.LOG_COUNT).scalar()
    cache: dict = {}
    for kind in kinds:
        database.audit_enabled = kind != common.BASELINE
        clock = time.perf_counter
        segment_reads: list[float] = []
        segment_writes: list[float] = []
        yardstick.mark()
        with tracing.section(tracer, database.plan_cache, cache,
                             on=kind == common.TRACED):
            segment_start = clock()
            deadline = segment_start + segment_s
            done = 0
            while True:
                op, sql, pid, deck_end = next(stream)
                gate.attempted += 1
                start = clock()
                try:
                    result = database.execute(sql)
                except Exception as error:  # noqa: BLE001 — counted
                    gate.check(False,
                               f"{sql}: {type(error).__name__}: {error}")
                    if deck_end and clock() >= deadline:
                        break
                    continue
                finished = clock()
                done += 1
                # INSERTs run no audit code (audit instruments reads), so
                # the baseline segments' INSERTs time the same path and
                # double the samples under write_p99_ms
                if op == INSERT and kind != common.TRACED:
                    segment_writes.append(finished - start)
                elif op != INSERT and kind == common.AUDITED:
                    segment_reads.append(finished - start)
                if kind != common.BASELINE:
                    accessed_total += sum(
                        len(ids) for ids in result.accessed.values()
                    )
                    if op == POINT:
                        gate.check(clinic.check_point_read(pid, result),
                                   f"{sql}: ACCESSED does not match risk")
                if deck_end and finished >= deadline:
                    break
            elapsed = clock() - segment_start
        factor = yardstick.mark()
        segments.add(kind, done, elapsed, factor)
        reads.extend(latency / factor for latency in segment_reads)
        writes.extend(latency / factor for latency in segment_writes)
        offline_clock.sample()
    database.audit_enabled = True
    log_after = database.execute(clinic.LOG_COUNT).scalar()
    gate.check(
        log_after - log_before == accessed_total,
        f"lost firings: log grew {log_after - log_before}, "
        f"ACCESSED held {accessed_total}",
    )

    offline = common.offline_figures(offline_clock, checked, len(round_))
    if traced:
        tracer.dump(common.RUN_DIR / "adhoc_inproc.spans.json")
        metrics = tracing.layer_metrics(tracer.spans, tracer.totals, {
            **offline, **tracing.cache_inputs(cache),
            "tracing_overhead_frac": segments.tracing_overhead(),
        })
    else:
        metrics = common.end_to_end(
            setups, segments, common.peak_rss_mb(), offline, reads, writes
        )
    return common.emit(gate, metrics, yardstick)
