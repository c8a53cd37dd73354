"""Server process of the ``oltp_wire`` workload.

Builds the clinic database through SQL (20,000 patients, the armed
logging trigger, an audit journal with ``fsync=batch``), serves it on the
default threaded front end, and talks to the ``oltp_wire`` client through
standard output:

* ``setup`` — the database is built and the server is listening;
* ``ready {json}`` — after the verification round (fixed audited point
  reads): the port and the round's digest;
* ``trace on`` / ``trace off`` — acknowledges SIGUSR1 / SIGUSR2, which
  start and stop span recording (``--trace 1`` only);
* ``sampled`` — acknowledges SIGHUP, sent after each audited segment,
  after timing the offline auditor on a few verification statements;
* ``stopped {json}`` — after SIGTERM and the audited graceful shutdown:
  with ``--verify``, the figures of the verification round run again on
  the final data and checked against the offline auditor (before the
  shutdown), its time per round from those and the SIGHUP samples; peak RSS,
  audit-trail health, uncommitted journal intents, and (traced) the file
  holding the spans.

Usage: ``python3 perfbench/launcher.py --seed N --journal DIR
[--verify] [--trace 0|1] [--spans FILE]``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys
import threading

import clinic
import common
import tracing

VERIFY_READS = 16


class _CountingCondition(threading.Condition):
    """Counts the waits of the admission controller's waiting room."""

    def __init__(self) -> None:
        super().__init__()
        self.waits = 0

    def wait(self, timeout=None):
        self.waits += 1
        return super().wait(timeout)


def build(seed: int, journal: str):
    from repro import Database

    database = Database(user_id="server")
    for sql in clinic.load_sql(seed, visits=False):
        database.execute(sql)
    for sql in clinic.ARM_SQL:
        database.execute(sql)
    database.attach_journal(journal, fsync="batch")
    return database


def verification_round(database, seed: int, gate: common.Gate):
    round_, seen = [], []
    for pid in clinic.verification_pids(seed, VERIFY_READS):
        gate.attempted += 1
        parameters = {"pid": pid}
        with database.session.override(clinic.POINT_READ, "verifier"):
            result = database.execute(clinic.POINT_READ, parameters)
        gate.check(clinic.check_point_read(pid, result),
                   f"verify pid {pid}: ACCESSED does not match risk")
        accessed = set(result.accessed.get(clinic.AUDIT_NAME, ()))
        round_.append((f"verify pid {pid}", clinic.POINT_READ, parameters,
                       accessed))
        seen.append((result.rows, common.accessed_key(result.accessed)))
    log_rows = database.execute("SELECT * FROM log").rows
    return round_, common.digest((seen, log_rows)), len(log_rows)


def main() -> int:
    parser = argparse.ArgumentParser(prog="perfbench/launcher.py")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--journal", required=True)
    parser.add_argument("--verify", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    arguments = parser.parse_args()
    common.require_source()
    from repro.durability.recovery import uncommitted_intents
    from repro.server.server import Server

    tracer = tracing.Tracer()
    if arguments.trace:
        tracing.install(tracer)
    database = build(arguments.seed, arguments.journal)
    server = Server(database, port=0)
    admission_condition = _CountingCondition()
    server.admission._condition = admission_condition
    server.start()
    print("setup", flush=True)

    gate = common.Gate()
    tracer.active = bool(arguments.trace)
    round_, fingerprint, log_rows = verification_round(
        database, arguments.seed, gate
    )
    tracer.active = False
    tracer.reset()
    offline: dict = {}
    offline_clock = common.OfflineClock(database, clinic.AUDIT_NAME, gate,
                                        common.Yardstick())
    if arguments.verify:
        # one SIGHUP follows each audited segment (the audit expression
        # is dropped during baseline segments)
        offline_clock.plan(round_, gaps=common.SEGMENT_PAIRS)
    journal_path = pathlib.Path(arguments.journal)
    traced = {"plancache_hits": 0, "plancache_lookups": 0,
              "plancache_invalidations": 0, "journal_bytes": 0,
              "admission_waits": 0, "admission_shed": 0}
    marks: dict = {}

    def snapshot() -> dict:
        cache = database.plan_cache.stats()
        return {
            "plancache_hits": cache["hits"],
            "plancache_lookups": cache["hits"] + cache["misses"],
            "plancache_invalidations": cache["invalidations"],
            "journal_bytes": common.directory_bytes(journal_path),
            "admission_waits": admission_condition.waits,
            "admission_shed": server.admission.stats()["shed_total"],
        }

    def trace_on(signum, frame):  # noqa: ARG001 — signal signature
        marks.update(snapshot())
        tracer.active = True
        print("trace on", flush=True)

    def trace_off(signum, frame):  # noqa: ARG001 — signal signature
        tracer.active = False
        for key, value in snapshot().items():
            traced[key] += value - marks[key]
        print("trace off", flush=True)

    def sample(signum, frame):  # noqa: ARG001 — signal signature
        offline_clock.sample()
        print("sampled", flush=True)

    def finish() -> None:
        try:
            checked = {}
            if arguments.verify:
                final_round, _, _ = verification_round(
                    database, arguments.seed, gate
                )
                checked = common.verify_offline(offline_clock, final_round)
        except Exception as error:  # noqa: BLE001 — counted
            gate.check(False, f"final verification: "
                              f"{type(error).__name__}: {error}")
        finally:
            offline.update(common.offline_figures(
                offline_clock, checked, len(round_)
            ))
            server.shutdown()

    def stop(signum, frame):  # noqa: ARG001 — signal signature
        threading.Thread(target=finish, daemon=True).start()

    signal.signal(signal.SIGUSR1, trace_on)
    signal.signal(signal.SIGUSR2, trace_off)
    signal.signal(signal.SIGHUP, sample)
    signal.signal(signal.SIGTERM, stop)
    print("ready " + json.dumps({
        "port": server.port,
        "digest": fingerprint,
        "log_rows": log_rows,
        "attempted": gate.attempted,
        "violations": gate.violations,
    }), flush=True)
    attempted_at_ready = gate.attempted
    violations_at_ready = len(gate.violations)
    server.serve_forever()

    report = {
        "offline": offline,
        "attempted": gate.attempted - attempted_at_ready,
        "violations": gate.violations[violations_at_ready:],
        "rss_mb": common.peak_rss_mb(),
        "health": database.audit_trail_health(),
        "uncommitted_intents": len(uncommitted_intents(journal_path)),
        "traced": traced,
        "spans": None,
    }
    if arguments.trace and arguments.spans:
        tracer.dump(arguments.spans)
        report["spans"] = arguments.spans
    print("stopped " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
