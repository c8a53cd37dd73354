"""Shared helpers: run directory, timing statistics, digests, the result."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import pathlib
import resource
import statistics
import sys
import time

import tracing

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: scratch files of a run (journal, spans), inside the checkout
RUN_DIR = ROOT / ".perfbench_run"

#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: timed offline-auditor runs of each verification statement: one in the
#: correctness check, the rest spread over the measured window
OFFLINE_SAMPLES = 3

#: audited and unaudited segments alternate this many times per run
SEGMENT_PAIRS = 8

#: the yardstick loop's time on the 2-vCPU container in a calm spell; a
#: reading is the loop's current time over this
YARDSTICK_REFERENCE_S = 3.5e-3

#: timed loops per yardstick reading (their median is the reading)
YARDSTICK_REPEATS = 3

_YARDSTICK_TABLE = {key: key for key in range(512)}


def _yardstick_loop() -> None:
    total = 0
    for step in range(40_000):
        total += _YARDSTICK_TABLE[step & 511] * 3


class Yardstick:
    """How much slower than its calm speed the machine runs now.

    The benchmark shares a few cores of a host whose other tenants slow
    it down by up to ~2x for minutes at a time, so a raw time says as
    much about the host's load as about the engine. A reading times a
    fixed pure-Python loop (integer arithmetic and small-dict lookups;
    no engine code) and divides by ``YARDSTICK_REFERENCE_S``. Readings
    are taken just before and after each timed interval, while the
    engine is idle; the interval's *factor* is the geometric mean of its
    two readings, and the benchmark reports time divided by the factor:
    seconds at the machine's calm speed.
    """

    def __init__(self) -> None:
        self.last = self.read()
        self.factors: list[float] = []

    @staticmethod
    def read() -> float:
        times = []
        for _ in range(YARDSTICK_REPEATS):
            start = time.perf_counter()
            _yardstick_loop()
            times.append(time.perf_counter() - start)
        return median(times) / YARDSTICK_REFERENCE_S

    def mark(self) -> float:
        """Take a reading; return the factor of the interval since the
        previous mark."""
        previous, self.last = self.last, self.read()
        factor = math.sqrt(previous * self.last)
        self.factors.append(factor)
        return factor

    def slowdown(self) -> float:
        """Median factor of the run's intervals (for the report)."""
        return median(self.factors)


AUDITED, BASELINE, TRACED = "audited", "baseline", "traced"


def segment_kinds(traced: bool) -> list[str]:
    """Order of the measured segments of one run.

    Audited and unaudited (baseline) segments alternate so that drift
    hits both alike. A traced run spends every other audited segment
    traced: the untraced ones give the overhead of tracing.
    """
    if traced:
        return [AUDITED, BASELINE, TRACED, BASELINE] * (SEGMENT_PAIRS // 2)
    return [AUDITED, BASELINE] * SEGMENT_PAIRS


class Segments:
    """Work completed per measured segment, recorded in pairs.

    Each audited (or traced) segment is followed by its unaudited
    baseline partner. The audit overhead is the median over pairs of the
    ratio within a pair, so drift common to both halves cancels and one
    disturbed pair moves it little.
    """

    def __init__(self) -> None:
        self.items: list[tuple[str, int, float]] = []
        self.factors: list[float] = []

    def add(self, kind: str, ops: int, seconds: float,
            factor: float) -> None:
        """Record a segment and the :class:`Yardstick` factor of its
        interval."""
        self.items.append((kind, ops, seconds))
        self.factors.append(factor)

    def rate(self, kind: str) -> float:
        """Median over segments of ``kind`` of operations per second at
        the machine's calm speed, so that a slow spell within a run moves
        it little (0 when none completed; such failures are counted by
        the gate)."""
        rates = [count * factor / seconds
                 for (name, count, seconds), factor
                 in zip(self.items, self.factors)
                 if name == kind and count]
        return median(rates) if rates else 0.0

    def tracing_overhead(self) -> float:
        """Untraced over traced audited rate, minus one."""
        traced = self.rate(TRACED)
        return self.rate(AUDITED) / traced - 1.0 if traced else 0.0

    def overhead(self) -> float:
        """Median over pairs of baseline rate / audited rate (pairs in
        which a side completed nothing are left out)."""
        pairs = zip(self.items[::2], self.items[1::2])
        ratios = [
            (base_ops / base_s) / (ops / seconds)
            for (kind, ops, seconds), (_, base_ops, base_s) in pairs
            if kind == AUDITED and ops and base_ops
        ]
        return median(ratios) if ratios else 0.0


def require_source() -> None:
    """Put the engine on the import path, or stop with exit code 2."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"engine source not found under {SOURCE}", file=sys.stderr)
        raise SystemExit(2)
    if str(SOURCE) not in sys.path:
        sys.path.insert(0, str(SOURCE))


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile; 0 for an empty sample (every statement
    of that type failed, which the gate counts)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(value) -> str:
    """Stable fingerprint of results, ACCESSED sets and audit-log rows."""
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


def accessed_key(accessed: dict) -> tuple:
    return tuple(
        (name, tuple(sorted(ids, key=repr)))
        for name, ids in sorted(accessed.items())
    )


def directory_bytes(path: pathlib.Path) -> int:
    if not path.is_dir():
        return 0
    return sum(entry.stat().st_size for entry in os.scandir(path)
               if entry.is_file())


class Gate:
    """Correctness bookkeeping: attempted and failed statements, and
    every violated check (each counts as a failure)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failed += 1
            if len(self.violations) < 20:
                self.violations.append(message)

    def execute(self, target, sql: str, parameters=None):
        """Run one statement, outside a timed loop, on a database or a
        connection; a failure is counted and returns ``None``."""
        self.attempted += 1
        try:
            return target.execute(sql, parameters)
        except Exception as error:  # noqa: BLE001 — counted
            self.check(False, f"{sql[:80]}: {type(error).__name__}: {error}")
            return None


def set_up(build, verification_round, gate: "Gate",
           tracer: tracing.Tracer | None, yardstick: Yardstick):
    """Set the workload up ``SETUP_REPEATS`` times; keep the last.

    Each set-up runs the verification round on the fresh database; its
    digests must all agree. With a tracer, the last set-up is traced, so
    the check is the traced-versus-untraced differential. Returns the
    database, its verification round and the set-up times (at the
    machine's calm speed).
    """
    setups, digests = [], []
    database = round_ = None
    for repeat in range(SETUP_REPEATS):
        database = None
        gc.collect()
        traced = tracer is not None and repeat == SETUP_REPEATS - 1
        if traced:
            tracing.install(tracer)
        yardstick.mark()
        start = time.perf_counter()
        database = build()
        elapsed = time.perf_counter() - start
        setups.append(elapsed / yardstick.mark())
        if traced:
            tracer.active = True
        round_, fingerprint = verification_round(database)
        if traced:
            tracer.active = False
            tracer.reset()
        digests.append(fingerprint)
    gate.check(
        len(set(digests)) == 1,
        "verification round differs between set-ups "
        + ("(traced vs untraced)" if tracer else "(same seed)"),
    )
    return database, round_, setups


def end_to_end(setups, segments: Segments, rss_mb: float, offline: dict,
               reads: list[float], writes: list[float]) -> dict:
    """The end-to-end metrics of one run."""
    metrics = {
        "setup_s": (median(setups), "s"),
        "ops_per_s": (segments.rate(AUDITED), "1/s"),
        "rss_mb": (rss_mb, "MiB"),
        "audit_overhead_x": (segments.overhead(), "x"),
        "offline_verify_s": (offline["offline_verify_s"], "s"),
    }
    metrics.update(latency_metrics(reads, writes))
    return metrics


class OfflineClock:
    """Times the offline auditor on the verification round's statements.

    One second of auditing is a short sample of a machine whose speed
    drifts over seconds. So :func:`verify_offline` times each statement
    once, and :meth:`sample` times a few more between measured segments,
    until each has ``OFFLINE_SAMPLES``; their spread over the run matches
    that of the other metrics. Each batch of audits is timed inside
    :meth:`measured`, which scales its times to the machine's calm
    speed. ``offline_verify_s`` is the sum over the round's statements of
    each one's median time.
    """

    def __init__(self, database, audit_name: str, gate: Gate,
                 yardstick: Yardstick) -> None:
        self.database = database
        self.audit_name = audit_name
        self.gate = gate
        self.yardstick = yardstick
        self.times: dict[str, list[float]] = {}
        self.batch: list[tuple[str, float]] = []
        self.pending: list[tuple[str, str, object]] = []
        self.per_gap = 0

    @contextlib.contextmanager
    def measured(self):
        """Time the audits made inside at the machine's calm speed."""
        self.yardstick.mark()
        self.batch = []
        try:
            yield
        finally:
            factor = self.yardstick.mark()
            for label, seconds in self.batch:
                self.times.setdefault(label, []).append(seconds / factor)
            self.batch = []

    def audit(self, label: str, sql: str, parameters):
        """Offline truth of one statement (``None`` on failure, which is
        counted), timed into the current batch."""
        start = time.perf_counter()
        try:
            truth = self.database.offline_audit(sql, self.audit_name,
                                                parameters)
        except Exception as error:  # noqa: BLE001 — counted
            self.gate.check(False, f"{label}: offline audit "
                                   f"{type(error).__name__}: {error}")
            return None
        self.batch.append((label, time.perf_counter() - start))
        return truth

    def plan(self, round_, gaps: int) -> None:
        """Queue the remaining samples, to be taken over ``gaps`` calls
        of :meth:`sample`."""
        self.pending = [
            (label, sql, parameters)
            for _ in range(OFFLINE_SAMPLES - 1)
            for label, sql, parameters, _accessed in round_
        ]
        self.per_gap = math.ceil(len(self.pending) / max(1, gaps))

    def sample(self, count: int | None = None) -> None:
        """Take the next ``count`` samples (a gap's share by default)."""
        count = self.per_gap if count is None else count
        taken, self.pending = self.pending[:count], self.pending[count:]
        if not taken:
            return
        with self.measured():
            for label, sql, parameters in taken:
                self.audit(label, sql, parameters)

    def seconds(self) -> float:
        """Seconds per round, after taking any samples still pending."""
        self.sample(len(self.pending))
        return sum(median(v) for v in self.times.values())


def verify_offline(clock: OfflineClock, round_, exact: frozenset = frozenset()
                   ) -> dict:
    """Check a verification round against the offline auditor.

    ``round_`` holds ``(label, sql, parameters, accessed_ids)`` per
    audited statement. The ground truth (Definition 2.3) of each must
    hold no ID outside ACCESSED (no false negatives, Claim 3.6);
    statements labelled in ``exact`` must also have no false positives
    (Thm. 3.7). Returns the auditor's figures; the time is left to
    ``clock``.
    """
    auditor = clock.database.offline_auditor
    gate = clock.gate
    false_positive = accessed_total = deletion_runs = lineage = 0
    audits = []
    with clock.measured():
        for label, sql, parameters, _accessed in round_:
            truth = clock.audit(label, sql, parameters)
            audits.append((truth, auditor.last_deletion_runs,
                           auditor.last_mode))
    for (label, _sql, _parameters, accessed), (truth, runs, mode) in zip(
        round_, audits
    ):
        if truth is None:
            continue
        deletion_runs += runs
        lineage += mode == "lineage"
        gate.check(truth <= accessed,
                   f"{label}: false negatives {sorted(truth - accessed)[:5]}")
        if label in exact:
            gate.check(truth == accessed,
                       f"{label}: false positives under HCN")
        false_positive += len(accessed - truth)
        accessed_total += len(accessed)
    count = max(1, len(round_))
    return {
        "offline_deletion_runs": deletion_runs / count,
        "offline_lineage_share": lineage / count,
        "fp_ratio": false_positive / accessed_total if accessed_total else 0.0,
        "verified_accessed_ids": float(accessed_total),
    }


def offline_figures(clock: OfflineClock, checked: dict, count: int) -> dict:
    """The check's figures plus ``offline_verify_s`` and ``offline_ms``."""
    verify_s = clock.seconds()
    return {**checked, "offline_verify_s": verify_s,
            "offline_ms": verify_s * 1e3 / max(1, count)}


def latency_metrics(reads: list[float], writes: list[float]) -> dict:
    """Median and p99 per operation type, in milliseconds."""
    return {
        "read_p50_ms": (percentile(reads, 0.50) * 1e3, "ms"),
        "read_p99_ms": (percentile(reads, 0.99) * 1e3, "ms"),
        "write_p50_ms": (percentile(writes, 0.50) * 1e3, "ms"),
        "write_p99_ms": (percentile(writes, 0.99) * 1e3, "ms"),
    }


def emit(gate: Gate, metrics: dict, yardstick: Yardstick) -> int:
    """Print the readable report, then the result line; returns the exit
    code (1 when a correctness check failed)."""
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:<45} {value:>14.6g} {unit}")
    print(f"{'machine_slowdown':<45} {yardstick.slowdown():>14.6g} x")
    attempted = max(1, gate.attempted)
    print(f"{'failed_frac':<45} {gate.failed / attempted:>14.6g} ratio")
    for message in gate.violations:
        print(f"violation: {message}")
    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1
