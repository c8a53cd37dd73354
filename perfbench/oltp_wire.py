"""``oltp_wire``: the serving path, over TCP to a separate server process.

Two connections, each a closed loop, send 90 % parameterized point reads
by uniform pid, 8 % ``INSERT INTO visits`` and 2 % ``UPDATE patients SET
risk = :r WHERE pid = :pid`` (moving patients into and out of the
sensitive set). The server runs the default threaded front end with the
armed AFTER trigger (sync mode) and a journal with ``fsync=batch``.

Unaudited baseline segments run with the trigger and audit expression
dropped (generated DDL sent over the wire), and re-armed afterwards.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import threading
import time

import clinic
import common
import tracing

CONNECTIONS = 2
READ, INSERT, UPDATE = "read", "insert", "update"

#: (kind, share of a deck of 50 statements)
MIX = ((READ, 45), (INSERT, 4), (UPDATE, 1))

#: seconds a launcher may take to answer before the run is abandoned
LAUNCH_TIMEOUT_S = 120.0


def statements(seed: int, connection: int):
    """Endless ``(kind, sql, parameters, deck_end)`` stream of one
    connection; kinds are dealt from shuffled decks of 50, and segments
    end on a deck boundary, so each holds the exact mix."""
    generator = clinic.rng(seed, f"conn{connection}")
    deck: list[str] = []
    vid = connection
    while True:
        if not deck:
            deck = [kind for kind, share in MIX for _ in range(share)]
            generator.shuffle(deck)
        kind = deck.pop()
        deck_end = not deck
        pid = generator.randrange(1, clinic.PATIENTS + 1)
        if kind == READ:
            yield kind, clinic.POINT_READ, {"pid": pid}, deck_end
        elif kind == INSERT:
            vid += CONNECTIONS
            yield kind, clinic.VISIT_INSERT, {
                "vid": vid, "pid": pid, "day": generator.randrange(365),
                "cost": generator.randrange(10, 500),
            }, deck_end
        else:
            yield kind, clinic.RISK_UPDATE, {
                "r": generator.randrange(clinic.RISK_LIMIT), "pid": pid,
            }, deck_end


class Launcher:
    """One server process and the lines it prints."""

    def __init__(self, seed: int, repeat: int, verify: bool,
                 traced: bool) -> None:
        self.journal = common.RUN_DIR / f"journal-{repeat}"
        shutil.rmtree(self.journal, ignore_errors=True)
        self.spans = common.RUN_DIR / "oltp_wire.spans.json"
        command = [
            sys.executable, str(common.ROOT / "perfbench" / "launcher.py"),
            "--seed", str(seed), "--journal", str(self.journal),
            "--trace", "1" if traced else "0", "--spans", str(self.spans),
        ]
        if verify:
            command.append("--verify")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=common.ROOT
        )

    def expect(self, prefix: str) -> str:
        """Next stdout line, which must start with ``prefix``."""
        line = self.process.stdout.readline()
        if not line.startswith(prefix):
            raise RuntimeError(
                f"launcher said {line!r}, expected {prefix!r}"
            )
        return line[len(prefix):].strip()

    def signal(self, number: int, answer: str) -> None:
        self.process.send_signal(number)
        self.expect(answer)

    def stop(self) -> dict:
        self.process.send_signal(signal.SIGTERM)
        report = json.loads(self.expect("stopped"))
        self.process.wait(timeout=LAUNCH_TIMEOUT_S)
        return report

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self.process.stdout.close()
        shutil.rmtree(self.journal, ignore_errors=True)


def _drive(connection, stream, deadline: float, tally: dict) -> None:
    """Closed loop on one connection until the first deck boundary
    after ``deadline``. A failed statement is counted, never raised."""
    clock = time.perf_counter
    audited = tally["kind"] != common.BASELINE
    try:
        while True:
            kind, sql, parameters, deck_end = next(stream)
            tally["attempted"] += 1
            start = clock()
            try:
                result = connection.execute(sql, parameters)
            except Exception as error:  # noqa: BLE001 — counted
                tally["failed"].append(
                    f"{sql}: {type(error).__name__}: {error}"
                )
                if deck_end and clock() >= deadline:
                    return
                continue
            finished = clock()
            tally["done"] += 1
            tally["busy"] += finished - start
            if audited:
                if kind == READ:
                    tally["reads"].append(finished - start)
                    tally["disclosed"] += sum(
                        len(ids) for ids in result.accessed.values()
                    )
                    if not clinic.check_point_read(parameters["pid"], result):
                        tally["failed"].append(
                            f"pid {parameters['pid']}: ACCESSED does not "
                            "match risk"
                        )
                else:
                    tally["writes"].append(finished - start)
            if deck_end and finished >= deadline:
                return
    finally:
        tally["elapsed"] = clock() - tally["start"]


def run(seed: int, seconds: float, traced: bool) -> int:
    from repro.server import Connection

    gate = common.Gate()
    yardstick = common.Yardstick()
    setups, digests = [], []
    launcher = None
    ready: dict = {}
    try:
        for repeat in range(common.SETUP_REPEATS):
            last = repeat == common.SETUP_REPEATS - 1
            yardstick.mark()
            launcher = Launcher(seed, repeat, verify=last,
                                traced=traced and last)
            launcher.expect("setup")
            elapsed = time.perf_counter() - launcher.started
            ready = json.loads(launcher.expect("ready"))
            # the server idles once ready: read the machine then
            setups.append(elapsed / yardstick.mark())
            digests.append(ready["digest"])
            gate.attempted += ready["attempted"]
            for message in ready["violations"]:
                gate.check(False, message)
            if not last:
                launcher.stop()
                launcher.kill()
        gate.check(
            len(set(digests)) == 1,
            "verification round differs between set-ups "
            + ("(traced vs untraced)" if traced else "(same seed)"),
        )

        connections = [
            Connection("127.0.0.1", ready["port"], user_id=f"clinician{c}")
            for c in range(CONNECTIONS)
        ]
        streams = [statements(seed, c) for c in range(CONNECTIONS)]
        kinds = common.segment_kinds(traced)
        segment_s = seconds / len(kinds)
        segments = common.Segments()
        reads: list[float] = []
        writes: list[float] = []
        traced_busy = 0.0
        traced_done = 0
        disclosed = 0
        armed = True
        for kind in kinds:
            if (kind == common.BASELINE) == armed:
                for sql in (clinic.DISARM_SQL if armed else clinic.ARM_SQL):
                    gate.execute(connections[0], sql)
                armed = not armed
            if kind == common.TRACED:
                launcher.signal(signal.SIGUSR1, "trace on")
            tallies = [
                {"kind": kind, "attempted": 0, "done": 0, "busy": 0.0,
                 "failed": [], "reads": [], "writes": [], "disclosed": 0}
                for _ in connections
            ]
            yardstick.mark()
            start = time.perf_counter()
            for tally in tallies:
                tally["start"] = start
            threads = [
                threading.Thread(
                    target=_drive,
                    args=(connection, stream, start + segment_s, tally),
                )
                for connection, stream, tally in zip(
                    connections, streams, tallies
                )
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            factor = yardstick.mark()
            # each connection stops at its own deck boundary: add up
            # per-connection rates so none counts the other's tail
            done = sum(tally["done"] for tally in tallies)
            rate = sum(tally["done"] / tally["elapsed"] for tally in tallies)
            segments.add(kind, done, done / rate if done else
                         max(tally["elapsed"] for tally in tallies), factor)
            if kind == common.TRACED:
                launcher.signal(signal.SIGUSR2, "trace off")
            if kind != common.BASELINE:
                launcher.signal(signal.SIGHUP, "sampled")
            for tally in tallies:
                gate.attempted += tally["attempted"]
                for message in tally["failed"]:
                    gate.check(False, message)
                disclosed += tally["disclosed"]
                if kind == common.AUDITED:
                    reads.extend(latency / factor
                                 for latency in tally["reads"])
                    writes.extend(latency / factor
                                  for latency in tally["writes"])
                elif kind == common.TRACED:
                    traced_busy += tally["busy"]
                    traced_done += tally["done"]
        if not armed:
            for sql in clinic.ARM_SQL:
                gate.execute(connections[0], sql)
        counted = gate.execute(connections[0], clinic.LOG_COUNT)
        if counted is not None:
            log_rows = counted.scalar()
            gate.check(
                log_rows - ready["log_rows"] == disclosed,
                f"lost firings: log grew {log_rows - ready['log_rows']}, "
                f"ACCESSED held {disclosed}",
            )
        for connection in connections:
            connection.close()
        report = launcher.stop()
    finally:
        if launcher is not None:
            launcher.kill()

    gate.attempted += report["attempted"]
    for message in report["violations"]:
        gate.check(False, message)
    gate.check(not any(report["health"].values()),
               f"audit trail damaged: {report['health']}")
    gate.check(report["uncommitted_intents"] == 0,
               f"{report['uncommitted_intents']} uncommitted intents")

    offline = report["offline"]
    if traced:
        spans, totals = tracing.load(report["spans"])
        execute_ms = sum(
            (end - start) / 1e6
            for _id, parent, _request, name, start, end in spans
            if name == tracing.EXECUTE and parent is None
        )
        metrics = tracing.layer_metrics(spans, totals, {
            **offline, **report["traced"],
            "wire_ms": (traced_busy * 1e3 - execute_ms) / max(1, traced_done),
            "tracing_overhead_frac": segments.tracing_overhead(),
        })
    else:
        metrics = common.end_to_end(
            setups, segments, report["rss_mb"], offline, reads, writes
        )
    return common.emit(gate, metrics, yardstick)
