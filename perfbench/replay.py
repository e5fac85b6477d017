"""The ``trace-replay`` workload: four CLI commands over one trace file.

A seeded synthetic JSONL trace (see :func:`inputs.synthetic_trace`)
goes through ``bps analyze``, ``bps watch`` (per-record, the
default), ``bps watch --chunk-size 8192`` and ``bps diagnose
--servers 8``, each the way its command runs: read the file, then
compute, with the command's default settings.  No simulator runs
here, so simulator changes should leave this workload alone while
trace decoding, streaming ingest, window closing and attribution
changes move it.  Passes of the four commands repeat until the run's
time is up; ``wall_s`` is the mean pass time in reference seconds
(see :mod:`speed`).

Oracles: the streamed cumulative BPS of every watch and of diagnose
equals ``analyze``'s bit for bit, and the top suspect names the
planted stalled server.
"""

from __future__ import annotations

import subprocess
import sys
import time
from statistics import fmean, median

from harness import (
    OUT_DIR, ROOT, Checks, Tracer, peak_rss_mb, rounds,
)
import inputs
from speed import SpeedMeter, medians

from repro.core.metrics import compute_metrics
from repro.diagnose import diagnose_trace, stripe_server_of
from repro.live import BpsAnomalyDetector, watch_trace
from repro.trace_io import read_trace

#: Small enough that a run holds several passes, so every metric is a
#: mean over passes rather than one pass's reading.
N_RECORDS = 25_000
CHUNK_SIZE = 8192
SETUP_REPEATS = 3
#: The CLI's defaults for watch/diagnose.
BINS = 20
DROP_FACTOR = 3.0
BASELINE_HISTORY = 8
BLOCK_SIZE = 512

COMMANDS = ("analyze", "watch", "watch_chunked", "diagnose")


def _detector() -> BpsAnomalyDetector:
    return BpsAnomalyDetector(drop_factor=DROP_FACTOR,
                              history=BASELINE_HISTORY)


def _compute(command: str, trace, on_window):
    """The compute half of one command; returns its settled metrics
    and, for diagnose, the diagnosis."""
    if command == "analyze":
        first, last = trace.span()
        return compute_metrics(trace, exec_time=last - first,
                               block_size=BLOCK_SIZE), None
    if command == "diagnose":
        diagnosis = diagnose_trace(
            trace, bins=BINS, block_size=BLOCK_SIZE, detector=_detector(),
            server_of=stripe_server_of(inputs.TRACE_SERVERS,
                                       inputs.STRIPE))
        return diagnosis.result.metrics, diagnosis
    result = watch_trace(
        trace, bins=BINS, block_size=BLOCK_SIZE,
        chunk_size=CHUNK_SIZE if command == "watch_chunked" else None,
        sink_errors="warn", detector=_detector(), on_window=on_window)
    return result.metrics, result


def check_command(checks: Checks, command: str, n_read: int, bps: float,
                  reference: float, suspect, stall) -> None:
    """The oracles for one command's output."""
    checks.check(n_read == N_RECORDS,
                 f"{command}: read {n_read} of {N_RECORDS} records")
    if command != "analyze":
        checks.check(bps == reference,
                     f"{command}: BPS {bps!r} != analyze {reference!r}")
    if command == "diagnose":
        named = None if suspect is None else (suspect.kind, suspect.target)
        checks.check(named == ("server-stall", stall.server_key),
                     f"diagnose: top suspect {named}, planted "
                     f"server-stall {stall.server_key}")


def replay_pass(path, stall, checks: Checks,
                tracer: Tracer | None = None) -> dict:
    """Run the four commands once; returns per-command timings."""
    out = {"read": {}, "compute": {}, "total": {}, "windows": 0,
           "suspects": 0}
    reference = None
    parent = None
    rows = []

    def on_window(event) -> None:
        # Stands in for the CLI's table renderer: one row per event.
        rows.append(event["type"])
        if tracer is not None:
            now = time.perf_counter()
            tracer.add(f"on_{event['type']}", now, now, parent)

    start = time.perf_counter()
    for command in COMMANDS:
        t0 = time.perf_counter()
        trace = read_trace(str(path))
        t1 = time.perf_counter()
        if tracer is not None:
            top = tracer.add(command, t0, t0)
            tracer.add("read_trace", t0, t1, top)
            parent = tracer.add("compute", t1, t1, top)
        metrics, detail = _compute(command, trace, on_window)
        t2 = time.perf_counter()
        if tracer is not None:
            tracer.spans[top].end = tracer.spans[parent].end = t2
        out["read"][command] = t1 - t0
        out["compute"][command] = t2 - t1
        out["total"][command] = t2 - t0
        if command == "analyze":
            reference = metrics.bps
        suspect = None
        if command == "watch":
            out["windows"] = len(detail.windows)
        if command == "diagnose":
            suspect = detail.top_suspect
            out["suspects"] = len(detail.suspects)
        check_command(checks, command, len(trace), metrics.bps, reference,
                      suspect, stall)
    out["wall"] = sum(out["total"].values())
    out["span"] = (start, time.perf_counter())
    return out


def cold_start() -> tuple[float, float]:
    """A fresh interpreter importing what the four commands use.
    Returns its start and end times."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import repro.cli, repro.live, repro.diagnose")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                   check=True, cwd=ROOT)
    return t0, time.perf_counter()


def run(seed: int, seconds: float, traced: bool, checks: Checks) -> dict:
    path = OUT_DIR / "replay-trace.jsonl"
    try:
        with SpeedMeter(OUT_DIR / "trace-replay-speed.txt") as meter:
            # Set-up: writing the trace, then (median of several) a
            # cold start of the modules the commands import.
            t0 = time.perf_counter()
            stall = inputs.synthetic_trace(seed, N_RECORDS, path)
            write = meter.timed(t0, time.perf_counter())
            starts = [meter.timed(*cold_start())
                      for _ in range(0 if traced else SETUP_REPEATS)]
            passes = []
            for _ in rounds(seconds, traced):
                passes.append(replay_pass(path, stall, checks))
                passes[-1]["ref_wall"] = meter.reference_seconds(
                    passes[-1]["wall"], *passes[-1]["span"])
            sample_ms = meter.mean_sample_ms()

        cold, cold_ref = medians(starts)
        metrics = {
            "setup_s": write[1] + cold_ref,
            "wall_s": fmean(p["ref_wall"] for p in passes),
            "raw": {"setup_s": write[0] + cold,
                    "wall_s": fmean(p["wall"] for p in passes),
                    "sample_ms": sample_ms},
        }
        if traced:
            metrics.update(_traced(path, stall, seed, passes[0], checks))
    finally:
        path.unlink(missing_ok=True)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def _traced(path, stall, seed, plain, checks) -> dict:
    tracer = Tracer()
    spanned = replay_pass(path, stall, checks, tracer)
    tracer.write(OUT_DIR / f"trace-replay-seed{seed}-spans.json")
    compute, total = plain["compute"], plain["total"]
    return {
        "replay.analyze_rec_per_s": N_RECORDS / total["analyze"],
        "replay.watch_rec_per_s": N_RECORDS / total["watch"],
        "replay.watch_chunked_rec_per_s":
            N_RECORDS / total["watch_chunked"],
        "replay.diagnose_rec_per_s": N_RECORDS / total["diagnose"],
        "trace_io.decode_rec_per_s":
            N_RECORDS / median(list(plain["read"].values())),
        "live.ingest_rec_per_s": N_RECORDS / compute["watch"],
        "live.chunked_ingest_rec_per_s":
            N_RECORDS / compute["watch_chunked"],
        "live.windows": plain["windows"],
        "core.metrics_ms": 1e3 * compute["analyze"],
        "diagnose.overhead_ratio":
            compute["diagnose"] / compute["watch"] - 1.0,
        "diagnose.suspects": plain["suspects"],
        "trace.overhead_s": spanned["wall"] - plain["wall"],
        "trace.spans": len(tracer.spans),
    }
