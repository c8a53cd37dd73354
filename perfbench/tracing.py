"""Spans and counters recorded from outside the engine.

:func:`install` wraps the public entry points of each layer (statement
execution, parse, plan build, rewrite, audit placement, compile, trigger
firing, engine locks, journal appends and fsyncs, storage scans used by
DML, block summary rebuilds) so that, while :attr:`Tracer.active` is set,
each call records a span ``(id, parent, request, name, start, end)``.
Spans of one statement share the id of its ``db.execute`` span. Nothing
in the engine is edited: the wrappers replace class and module
attributes of the running process only.

While inactive, each wrapper costs one attribute check per call.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import itertools
import json
import threading
import time

EXECUTE = "db.execute"
PARSE = "sql.parse"
BUILD = "plan.build"
REWRITE = "optimizer.rewrite"
COMPILE = "optimizer.compile"
PLACEMENT = "audit.placement"
FIRE = "triggers.fire"
READ_LOCK = "lock.read"
WRITE_LOCK = "lock.write"
APPEND = "journal.append"
FSYNC = "journal.fsync"

#: stages that compile a statement (trigger bodies included)
COMPILE_STAGES = (BUILD, REWRITE, COMPILE)

#: ExecutionContext counters summed per statement
CONTEXT_COUNTERS = (
    "audit_probe_count",
    "blocks_scanned",
    "blocks_zone_skipped",
    "audit_blocks_skipped",
)


class _Request:
    __slots__ = ("verb", "contexts", "examined")

    def __init__(self, verb: str) -> None:
        self.verb = verb
        self.contexts: list = []
        self.examined = 0


class Tracer:
    """In-memory span and counter store; records only while active."""

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple] = []
        self.totals: collections.Counter = collections.Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        self.spans = []
        self.totals = collections.Counter()

    def call(self, name: str, function, args, kwargs):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        span_id = next(self._ids)
        if stack:
            parent, request = stack[-1], local.request
        else:
            parent, request = None, span_id
            local.request = span_id
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, request, name, start, end))

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.totals[name] += amount

    # -- per-statement bookkeeping ----------------------------------------

    def current_request(self) -> _Request | None:
        return getattr(self._local, "statement", None)

    def execute(self, original, database, sql, parameters):
        if getattr(self._local, "statement", None) is not None:
            return self.call(EXECUTE, original, (database, sql, parameters), {})
        words = sql.split(None, 1)
        request = _Request(words[0].upper() if words else "")
        self._local.statement = request
        try:
            result = self.call(
                EXECUTE, original, (database, sql, parameters), {}
            )
        finally:
            self._local.statement = None
        totals = collections.Counter()
        totals["ops"] = 1
        totals["rows_out"] = len(result.rows)
        totals["accessed_ids"] = sum(
            len(ids) for ids in result.accessed.values()
        )
        for context in request.contexts:
            for counter in CONTEXT_COUNTERS:
                totals[counter] += getattr(context, counter)
        if request.verb in ("UPDATE", "DELETE"):
            totals["dml_rows_examined"] += request.examined
            totals["dml_rows_changed"] += result.rowcount
        with self._lock:
            self.totals.update(totals)
        return result

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        """Write spans and totals as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"spans": self.spans, "totals": dict(self.totals)}, handle
            )


@contextlib.contextmanager
def section(tracer: Tracer, plan_cache, cache_totals: dict, on: bool = True):
    """Record spans, and plan-cache counter deltas, inside the block."""
    if not on:
        yield
        return
    before = plan_cache.stats()
    tracer.active = True
    try:
        yield
    finally:
        tracer.active = False
        after = plan_cache.stats()
        for key in ("hits", "misses", "invalidations"):
            cache_totals[key] = (
                cache_totals.get(key, 0) + after[key] - before[key]
            )


def load(path) -> tuple[list[tuple], collections.Counter]:
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    return (
        [tuple(span) for span in document["spans"]],
        collections.Counter(document["totals"]),
    )


def _spanned(tracer: Tracer, name: str, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return original(*args, **kwargs)
        return tracer.call(name, original, args, kwargs)

    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points for ``tracer``."""
    import repro.database
    from repro.audit.manager import AuditManager
    from repro.concurrency.locks import ReadWriteLock
    from repro.database import Database
    from repro.durability.journal import AuditJournal
    from repro.optimizer.optimizer import Optimizer
    from repro.plan.builder import PlanBuilder
    from repro.storage.blocks import Block
    from repro.storage.table import Table
    from repro.triggers.manager import TriggerManager

    for owner, attribute, name in (
        (repro.database, "parse_statement", PARSE),
        (PlanBuilder, "build_select", BUILD),
        (Optimizer, "optimize_logical", REWRITE),
        (Optimizer, "compile", COMPILE),
        (AuditManager, "instrument", PLACEMENT),
        (TriggerManager, "fire_select_triggers", FIRE),
        (ReadWriteLock, "acquire_read", READ_LOCK),
        (ReadWriteLock, "acquire_write", WRITE_LOCK),
        (AuditJournal, "append", APPEND),
        (AuditJournal, "_fsync", FSYNC),
    ):
        setattr(owner, attribute,
                _spanned(tracer, name, getattr(owner, attribute)))

    execute = Database.execute

    @functools.wraps(execute)
    def traced_execute(self, sql, parameters=None):
        if not tracer.active:
            return execute(self, sql, parameters)
        return tracer.execute(execute, self, sql, parameters)

    make_context = Database.make_context

    @functools.wraps(make_context)
    def traced_make_context(self, *args, **kwargs):
        context = make_context(self, *args, **kwargs)
        request = tracer.current_request() if tracer.active else None
        if request is not None:
            request.contexts.append(context)
        return context

    rows_with_rids = Table.rows_with_rids

    @functools.wraps(rows_with_rids)
    def traced_rows_with_rids(self):
        request = tracer.current_request() if tracer.active else None
        if request is None or request.verb not in ("UPDATE", "DELETE"):
            return rows_with_rids(self)
        rows = list(rows_with_rids(self))
        request.examined += len(rows)
        return iter(rows)

    rebuild_summary = Block.rebuild_summary

    @functools.wraps(rebuild_summary)
    def traced_rebuild_summary(self, *args, **kwargs):
        if tracer.active:
            tracer.count("summary_rebuilds")
        return rebuild_summary(self, *args, **kwargs)

    Database.execute = traced_execute
    Database.make_context = traced_make_context
    Table.rows_with_rids = traced_rows_with_rids
    Block.rebuild_summary = traced_rebuild_summary


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _span_sums(spans: list[tuple]) -> dict[str, float]:
    """Milliseconds and counts per stage, computed from the span tree.

    A stage's time counts only its outermost spans (a span nested in a
    span of the same stage is already inside it). Statement-compile
    stages count only spans outside trigger firings; the ones inside a
    firing are the trigger body's compile time.
    """
    by_id = {span[0]: span for span in spans}
    child_ns: collections.Counter = collections.Counter()
    for span in spans:
        if span[1] is not None:
            child_ns[span[1]] += span[5] - span[4]
    ancestors: dict[int, frozenset] = {}
    for span in sorted(spans):
        parent = span[1]
        if parent is None or parent not in by_id:
            ancestors[span[0]] = frozenset()
        else:
            ancestors[span[0]] = ancestors[parent] | {by_id[parent][3]}
    sums: collections.Counter = collections.Counter()
    for span_id, _parent, _request, name, start, end in spans:
        above = ancestors[span_id]
        duration = end - start
        if name == EXECUTE:
            sums["exec_self_ns"] += duration - child_ns[span_id]
        if name in above:
            continue
        sums[f"{name}.count"] += 1
        under_fire = FIRE in above
        if name in COMPILE_STAGES:
            if under_fire:
                if not above.intersection(COMPILE_STAGES):
                    sums["body_compile_ns"] += duration
                continue
            if name == REWRITE:
                duration -= child_ns[span_id]
        elif name == PLACEMENT and under_fire:
            continue
        sums[f"{name}.ns"] += duration
    return {key: float(value) for key, value in sums.items()}


def cache_inputs(cache: dict) -> dict:
    """Plan-cache inputs of :func:`layer_metrics` from counter deltas."""
    hits = cache.get("hits", 0)
    return {
        "plancache_hits": hits,
        "plancache_lookups": hits + cache.get("misses", 0),
        "plancache_invalidations": cache.get("invalidations", 0),
    }


def layer_metrics(spans, totals, extra: dict[str, float]) -> dict:
    """The per-layer metrics, normalised per traced statement.

    ``extra`` carries what the spans cannot show: wire time, plan-cache,
    admission and journal-byte deltas, the offline verification figures
    and the tracing overhead. A missing entry is a layer the workload
    does not exercise, and reads 0.
    """
    extra = collections.defaultdict(float, extra)
    sums = _span_sums(spans)
    ops = max(1, totals.get("ops", 0))

    def per_op_ms(key: str) -> float:
        return sums.get(key, 0.0) / 1e6 / ops

    def per_op(value: float) -> float:
        return value / ops

    fire_ms = per_op_ms(f"{FIRE}.ns")
    body_ms = sums.get("body_compile_ns", 0.0) / 1e6 / ops
    rows_out = totals.get("rows_out", 0)
    probes = totals.get("audit_probe_count", 0)
    changed = totals.get("dml_rows_changed", 0)
    firings = sums.get(f"{FIRE}.count", 0.0)
    lookups = extra["plancache_lookups"]
    values = {
        "trace.ops": (float(ops), "count"),
        "server.wire_ms": (extra["wire_ms"], "ms/op"),
        "server.admission_waits": (extra["admission_waits"], "count"),
        "server.admission_shed": (extra["admission_shed"], "count"),
        "concurrency.read_lock_wait_ms": (
            per_op_ms(f"{READ_LOCK}.ns"), "ms/op"),
        "concurrency.write_lock_wait_ms": (
            per_op_ms(f"{WRITE_LOCK}.ns"), "ms/op"),
        "plancache.lookups": (float(lookups), "count"),
        "plancache.hit_ratio": (
            extra["plancache_hits"] / lookups if lookups else 0.0, "ratio"),
        "plancache.invalidations": (extra["plancache_invalidations"], "count"),
        "sql.parse_ms": (per_op_ms(f"{PARSE}.ns"), "ms/op"),
        "plan.build_ms": (per_op_ms(f"{BUILD}.ns"), "ms/op"),
        "optimizer.rewrite_ms": (per_op_ms(f"{REWRITE}.ns"), "ms/op"),
        "optimizer.compile_ms": (per_op_ms(f"{COMPILE}.ns"), "ms/op"),
        "audit.placement_ms": (per_op_ms(f"{PLACEMENT}.ns"), "ms/op"),
        "triggers.firings": (per_op(firings), "count/op"),
        "triggers.fire_ms": (fire_ms, "ms/op"),
        "triggers.body_compile_ms": (body_ms, "ms/op"),
        "triggers.body_compile_share": (
            body_ms / fire_ms if fire_ms else 0.0, "ratio"),
        "exec.self_ms": (sums.get("exec_self_ns", 0.0) / 1e6 / ops, "ms/op"),
        "exec.rows_out": (per_op(rows_out), "rows/op"),
        "audit.probes": (per_op(probes), "count/op"),
        "audit.probes_per_row_out": (
            probes / rows_out if rows_out else 0.0, "ratio"),
        "audit.accessed_ids": (per_op(totals.get("accessed_ids", 0)),
                               "count/op"),
        "audit.fp_ratio": (extra["fp_ratio"], "ratio"),
        "audit.verified_accessed_ids": (
            extra["verified_accessed_ids"], "count"),
        "audit.offline_ms": (extra["offline_ms"], "ms/query"),
        "audit.offline_deletion_runs": (
            extra["offline_deletion_runs"], "count/query"),
        "audit.offline_lineage_share": (
            extra["offline_lineage_share"], "ratio"),
        "storage.blocks_scanned": (
            per_op(totals.get("blocks_scanned", 0)), "count/op"),
        "storage.blocks_zone_skipped": (
            per_op(totals.get("blocks_zone_skipped", 0)), "count/op"),
        "storage.audit_blocks_skipped": (
            per_op(totals.get("audit_blocks_skipped", 0)), "count/op"),
        "storage.summary_rebuilds": (
            per_op(totals.get("summary_rebuilds", 0)), "count/op"),
        "storage.dml_rows_changed": (float(changed), "count"),
        "storage.dml_rows_examined_per_row_changed": (
            totals.get("dml_rows_examined", 0) / changed if changed else 0.0,
            "ratio"),
        "durability.appends": (
            per_op(sums.get(f"{APPEND}.count", 0.0)), "count/op"),
        "durability.append_ms": (per_op_ms(f"{APPEND}.ns"), "ms/op"),
        "durability.flushes": (
            per_op(sums.get(f"{FSYNC}.count", 0.0)), "count/op"),
        "durability.flush_ms": (per_op_ms(f"{FSYNC}.ns"), "ms/op"),
        "durability.bytes_per_firing": (
            extra["journal_bytes"] / firings if firings else 0.0,
            "bytes/firing"),
        "tracing.overhead_frac": (extra["tracing_overhead_frac"], "ratio"),
    }
    return values
