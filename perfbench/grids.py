"""The two simulator workloads: ``paper-grid`` and ``write-fault-grid``.

Both run their sweeps through :func:`repro.experiments.run_sweep` on
the fork backend with two workers, exactly as ``bps sweep`` does.  The
sweeps run round-robin until the run's time is up, each timed with its
CC analysis; ``wall_s`` is the sum of each sweep's mean time, in
reference seconds (see :mod:`speed`): one whole grid.

- ``paper-grid`` is the paper's evaluation (Sets 1-4: set1, set2-hdd,
  set2-ssd, set3-pure, set3-ior, set4) at scale 1.0 with 5
  repetitions, 205 cells: every simulator layer on healthy read I/O.
- ``write-fault-grid`` is the set6 fault-severity ladder (timed crash
  windows, middleware retries with backoff timers, failover, device
  retries) next to an IOzone write record-size ladder under a
  write-through and a write-back page cache smaller than the file,
  100 cells: the same layers on the write and recovery paths, so a
  change that speeds reads but slows these shows here.

Each cell runs inside :class:`CellProbe`, which times the public
``run_workload`` call and logs a digest of the cell's exact trace
columns and execution time.  The logs feed the correctness oracles
(committed manifest at the default seed; fork == serial for any seed;
every run of a sweep identical) and, in the traced run, the per-layer
numbers.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import subprocess
import sys
import time
from statistics import fmean, median

import numpy as np

from harness import (
    OUT_DIR, ROOT, WORKERS, Checks, Tracer, peak_rss_mb, percentile,
    rounds, self_time_by_layer,
)
import inputs
from speed import SpeedMeter, medians

from repro.experiments import set1, set2, set3, set4, set6
from repro.experiments.runner import ExperimentScale, SweepSpec, run_sweep
from repro.system import SystemConfig
from repro.util.units import KiB, MiB, format_size
from repro.workloads.base import run_workload
from repro.workloads.iozone import IOzoneWorkload

MANIFEST = ROOT / "perfbench" / "manifest.json"
DEFAULT_SEED = 0
SCALE_FACTOR = 1.0
REPETITIONS = 5

#: Write ladder: 8 MiB files through a 4 MiB page cache, so write-back
#: has to evict dirty pages instead of absorbing the whole file.
WRITE_FILE = 8 * MiB
WRITE_CACHE_PAGES = 1024
WRITE_RECORDS = (4 * KiB, 8 * KiB, 16 * KiB, 32 * KiB, 64 * KiB,
                 128 * KiB, 256 * KiB)

#: Cells the untraced run re-runs serially to check the fork pass.
SERIAL_SAMPLE_PER_SWEEP = 1
SETUP_REPEATS = 3

#: Simulator layers whose cProfile self-time share the traced run reports.
SIM_LAYERS = ("sim", "devices", "net", "pfs", "fs", "faults",
              "middleware")


def write_ladder(policy: str, scale: ExperimentScale) -> SweepSpec:
    """IOzone ``op="write"`` record-size ladder under one cache policy."""
    config = SystemConfig(kind="local", device_spec="sata-hdd-7200",
                          cache_policy=policy,
                          cache_pages=WRITE_CACHE_PAGES, jitter_sigma=0.08)
    file_size = scale.size(WRITE_FILE, granule=max(WRITE_RECORDS))
    points = []
    for record in WRITE_RECORDS:
        def make(_record=record) -> IOzoneWorkload:
            return IOzoneWorkload(file_size=file_size, record_size=_record,
                                  op="write")
        points.append((format_size(record), make, config))
    return SweepSpec(knob=f"record size (write, {policy})", points=points)


#: A write-back cache absorbs every write and evicts asynchronously, so
#: the application sees constant IOPS and zero file-system bandwidth on
#: that ladder and their CC is undefined; its CC analysis covers BPS.
WRITE_BACK_CC = ("BPS",)

#: workload -> (sweep name, spec builder, CC metrics or None for all).
SWEEPS = {
    "paper-grid": (
        ("set1", set1.build_sweep, None),
        ("set2-hdd", lambda scale: set2.build_sweep("hdd", scale), None),
        ("set2-ssd", lambda scale: set2.build_sweep("ssd", scale), None),
        ("set3-pure", set3.build_pure_sweep, None),
        ("set3-ior", set3.build_ior_sweep, None),
        ("set4", set4.build_sweep, None),
    ),
    "write-fault-grid": (
        ("set6", set6.build_sweep, None),
        ("write-through",
         lambda scale: write_ladder("write-through", scale), None),
        ("write-back",
         lambda scale: write_ladder("write-back", scale), WRITE_BACK_CC),
    ),
}


def scale_for(seed: int) -> ExperimentScale:
    return ExperimentScale(factor=SCALE_FACTOR, repetitions=REPETITIONS,
                           base_seed=inputs.grid_base_seed(seed))


def build_sweeps(workload: str, scale: ExperimentScale) -> list:
    """``(name, spec, cc_metrics)`` for every sweep of ``workload``."""
    return [(name, build(scale), cc_metrics)
            for name, build, cc_metrics in SWEEPS[workload]]


def trace_digest(measurement) -> str:
    """Digest of a cell's exact trace columns and execution time."""
    payload = json.dumps([measurement.trace.to_columns(),
                          measurement.exec_time], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


class CellProbe:
    """The workload a probed sweep hands to ``run_sweep`` for one cell.

    ``run`` calls the public ``run_workload`` on the real workload and
    appends one JSON line about the cell to ``log_path`` (append mode,
    one write per cell, so fork workers can share the file).  With
    ``hook`` the ``on_system`` callback also splits build/setup from
    the run and keeps the engine for its event count.
    """

    def __init__(self, sweep: str, point: int, make, log_path, hook: bool):
        self.sweep, self.point, self.make = sweep, point, make
        self.log_path, self.hook = log_path, hook

    def run(self, config: SystemConfig):
        marks = {}

        def on_system(system) -> None:
            marks["t_sys"] = time.perf_counter()
            marks["engine"] = system.engine

        t0 = time.perf_counter()
        measurement = run_workload(self.make(), config,
                                   on_system=on_system if self.hook
                                   else None)
        t1 = time.perf_counter()
        extras = measurement.extras
        row = {
            "key": f"{self.sweep}/{self.point}/{config.seed}",
            "sweep": self.sweep, "point": self.point, "seed": config.seed,
            "t0": t0, "t1": t1, "t_sys": marks.get("t_sys"),
            "digest": trace_digest(measurement),
            "records": len(measurement.trace),
            "fs_bytes": measurement.fs_bytes,
            "retries": extras.get("retry", {}).get("retries", 0),
            "pfs_requests": sum(s.get("requests_handled", 0)
                                for s in extras.get("servers", ())),
            # The kernel's scheduled-event sequence number; a kernel
            # without one reads 0, which ``_traced`` counts as failed.
            "events": getattr(marks.get("engine"), "_seq", 0),
        }
        row["t_out"] = time.perf_counter()
        with open(self.log_path, "a") as handle:
            handle.write(json.dumps(row) + "\n")
        return measurement


def probed(name: str, spec: SweepSpec, log_path, hook: bool) -> SweepSpec:
    points = []
    for index, (label, make, config) in enumerate(spec.points):
        def probe(_index=index, _make=make) -> CellProbe:
            return CellProbe(name, _index, _make, log_path, hook)
        points.append((label, probe, config))
    return SweepSpec(knob=spec.knob, points=points)


def read_rows(log_path) -> list[dict]:
    with open(log_path) as handle:
        return [json.loads(line) for line in handle]


def cc_digest(analysis, metrics) -> dict:
    """The CC table as exact float reprs (NaN-safe equality)."""
    table = analysis.correlations() if metrics is None \
        else analysis.correlations(metrics)
    return {metric: repr(result.cc) for metric, result in table.items()}


def sweep_run(name: str, spec: SweepSpec, cc_metrics, scale, *,
              parallel: bool, log_path, hook: bool, checks: Checks) -> dict:
    """Run one sweep; returns its wall time, CC table and cell rows.

    The timed region is ``run_sweep`` plus the sweep's CC analysis.
    """
    log_path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    analysis = run_sweep(probed(name, spec, log_path, hook), scale,
                         parallel=parallel, workers=WORKERS, backend="fork")
    t_cells = time.perf_counter()
    cc = cc_digest(analysis, cc_metrics)
    t1 = time.perf_counter()
    report = analysis.supervision
    checks.check(not (report.crashes or report.timeouts
                      or report.job_errors or report.serial_fallback),
                 f"{name}: supervision {report.summary()}")
    rows = read_rows(log_path)
    expected = len(spec.points) * scale.repetitions
    checks.check(len(rows) == expected,
                 f"{name}: {len(rows)} cells logged, expected {expected}")
    return {"name": name, "wall": t1 - t0, "span": (t0, t1), "cc": cc,
            "rows": rows, "marks": (name, t0, t_cells, t1)}


def as_pass(runs) -> dict:
    """One run of every sweep, combined like a whole grid pass."""
    rows = [row for run in runs for row in run["rows"]]
    return {"wall": sum(run["wall"] for run in runs),
            "cc": {run["name"]: run["cc"] for run in runs}, "rows": rows}


def grid_pass(sweeps, scale, *, parallel: bool, log_path, hook: bool,
              checks: Checks, tracer: Tracer | None = None) -> dict:
    """Run every sweep once; returns the summed wall time, CC tables
    and cell rows."""
    runs = [sweep_run(name, spec, cc_metrics, scale, parallel=parallel,
                      log_path=log_path, hook=hook, checks=checks)
            for name, spec, cc_metrics in sweeps]
    result = as_pass(runs)
    if tracer is not None:
        _grid_spans(tracer, [run["marks"] for run in runs], result["rows"])
    return result


def _grid_spans(tracer: Tracer, tails, rows) -> None:
    """sweep -> cell -> (build_setup, run); sweep -> compute_metrics, cc.

    ``run_sweep`` computes every cell's metrics after its last cell
    returns, so the span from the last cell's log write to
    ``run_sweep`` returning is the sweep's ``compute_metrics`` time.
    """
    for name, t0, t_cells, t1 in tails:
        sweep = tracer.add(f"sweep:{name}", t0, t1)
        mine = [r for r in rows if r["sweep"] == name]
        for row in mine:
            cell = tracer.add("cell", row["t0"], row["t1"], sweep)
            if row["t_sys"] is not None:
                tracer.add("build_setup", row["t0"], row["t_sys"], cell)
                tracer.add("run", row["t_sys"], row["t1"], cell)
        last = max((r["t_out"] for r in mine), default=t0)
        tracer.add("compute_metrics", last, t_cells, sweep)
        tracer.add("cc_analysis", t_cells, t1, sweep)


def digests(rows) -> dict:
    return {row["key"]: row["digest"] for row in rows}


def check_digests(rows, reference: dict, checks: Checks, what: str) -> None:
    """One check per cell of ``rows`` found in ``reference``."""
    for row in rows:
        want = reference.get(row["key"])
        if want is not None:
            checks.check(row["digest"] == want,
                         f"{row['key']}: digest {row['digest']} != "
                         f"{what} {want}")


def check_cc(cc: dict, reference: dict, checks: Checks, what: str) -> None:
    for sweep, table in reference.items():
        checks.check(cc.get(sweep) == table,
                     f"{sweep}: CC table differs from {what}")


def load_manifest(workload: str, seed: int):
    """The committed digests for ``workload``, if ``seed`` is pinned."""
    if seed != DEFAULT_SEED or not MANIFEST.exists():
        return None
    with open(MANIFEST) as handle:
        return json.load(handle).get(workload)


def serial_sample(sweeps, rows, seed: int, checks: Checks) -> None:
    """Re-run a seeded sample of cells in-process and compare digests."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    log_path = OUT_DIR / "grid-sample.jsonl"
    log_path.unlink(missing_ok=True)
    for name, spec, _cc_metrics in sweeps:
        mine = [row for row in rows if row["sweep"] == name]
        picks = rng.choice(len(mine), size=SERIAL_SAMPLE_PER_SWEEP,
                           replace=False)
        for pick in picks:
            row = mine[int(pick)]
            _label, make, config = spec.points[row["point"]]
            CellProbe(name, row["point"], make, log_path, False).run(
                config.with_seed(row["seed"]))
    check_digests(read_rows(log_path), digests(rows), checks, "fork pass")


def cold_start(workload: str, seed: int) -> tuple[float, float]:
    """One program cold start: a fresh interpreter importing the sweep
    modules and building this workload's specs (what ``bps sweep``
    pays before its first cell).  Returns its start and end times."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import grids; grids.build_sweeps(sys.argv[3], "
            "grids.scale_for(int(sys.argv[4])))")
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"),
                    str(ROOT / "src"), workload, str(seed)],
                   check=True, cwd=ROOT)
    return t0, time.perf_counter()


def check_first_run(run: dict, manifest, checks: Checks) -> None:
    """A sweep's first run against the committed manifest, if pinned."""
    if manifest is None:
        return
    name = run["name"]
    pinned = {key: digest for key, digest in manifest["cells"].items()
              if key.split("/")[0] == name}
    checks.check(digests(run["rows"]).keys() == pinned.keys(),
                 f"{name}: cells differ from the manifest's")
    check_digests(run["rows"], pinned, checks, "manifest")
    check_cc({name: run["cc"]}, {name: manifest["cc"][name]}, checks,
             "manifest")


def run(workload: str, seed: int, seconds: float, traced: bool,
        checks: Checks) -> dict:
    scale = scale_for(seed)
    manifest = load_manifest(workload, seed)
    log_path = OUT_DIR / f"{workload}-cells.jsonl"
    with SpeedMeter(OUT_DIR / f"{workload}-speed.txt") as meter:
        starts = [meter.timed(*cold_start(workload, seed))
                  for _ in range(0 if traced else SETUP_REPEATS)]
        sweeps = build_sweeps(workload, scale)
        # The sweeps run round-robin until the time is up, at least once
        # each (exactly once in the traced run), so a run measures for
        # ``seconds`` give or take half a sweep rather than a whole grid.
        runs = {name: [] for name, _spec, _cc in sweeps}
        for unit in rounds(seconds, traced, minimum=len(sweeps)):
            name, spec, cc_metrics = sweeps[unit % len(sweeps)]
            result = sweep_run(name, spec, cc_metrics, scale, parallel=True,
                               log_path=log_path, hook=False, checks=checks)
            result["ref_wall"] = meter.reference_seconds(result["wall"],
                                                         *result["span"])
            done = runs[name]
            if done:
                check_digests(result["rows"], digests(done[0]["rows"]),
                              checks, "first run")
                check_cc({name: result["cc"]}, {name: done[0]["cc"]},
                         checks, "first run")
            else:
                check_first_run(result, manifest, checks)
            done.append(result)
        sample_ms = meter.mean_sample_ms()

    # One whole grid: the sum of each sweep's mean time.
    def grid_s(key: str) -> float:
        return sum(fmean(run[key] for run in done) for done in runs.values())

    setup, setup_ref = medians(starts)
    metrics = {
        "setup_s": setup_ref,
        "wall_s": grid_s("ref_wall"),
        "raw": {"setup_s": setup, "wall_s": grid_s("wall"),
                "sample_ms": sample_ms},
    }
    first = as_pass([done[0] for done in runs.values()])
    if traced:
        metrics.update(_traced(workload, sweeps, scale, seed, first,
                               log_path, checks))
    else:
        serial_sample(sweeps, first["rows"], seed, checks)
    metrics["peak_rss_mb"] = max(peak_rss_mb(), peak_rss_mb(children=True))
    return metrics


def _traced(workload, sweeps, scale, seed, fork_pass, log_path,
            checks) -> dict:
    """Per-layer numbers: a hooked fork pass (tracing overhead), a
    hooked serial pass (spans, counts, fork == serial oracle) and a
    cProfile'd serial pass over one repetition (self time by layer)."""
    hooked = grid_pass(sweeps, scale, parallel=True, log_path=log_path,
                       hook=True, checks=checks)
    fork_digests = digests(fork_pass["rows"])
    check_digests(hooked["rows"], fork_digests, checks, "fork pass")
    tracer = Tracer()
    serial = grid_pass(sweeps, scale, parallel=False, log_path=log_path,
                       hook=True, checks=checks, tracer=tracer)
    check_digests(serial["rows"], fork_digests, checks, "fork pass")
    check_cc(serial["cc"], fork_pass["cc"], checks, "fork pass")
    tracer.write(OUT_DIR / f"{workload}-seed{seed}-spans.json")

    one_rep = ExperimentScale(factor=scale.factor, repetitions=1,
                              base_seed=scale.base_seed)
    profiler = cProfile.Profile()
    profiler.enable()
    for _name, spec, _cc_metrics in sweeps:
        run_sweep(spec, one_rep, parallel=False, backend="fork")
    profiler.disable()
    prof_path = OUT_DIR / f"{workload}-seed{seed}-serial.prof"
    profiler.dump_stats(str(prof_path))
    by_layer, _by_module, total = self_time_by_layer(prof_path)

    rows = serial["rows"]
    cells = tracer.durations("cell")
    runs = tracer.durations("run")
    events = sum(r["events"] for r in rows)
    records = sum(r["records"] for r in rows)
    checks.check(events > 0, "the engine's event counter read 0")
    fork_wall = fork_pass["wall"]
    metrics = {
        "sim.events": events,
        "sim.events_per_record": events / records,
        "sim.events_per_s": events / sum(runs),
        "system.build_setup_ms_p50":
            1e3 * median(tracer.durations("build_setup")),
        "sim.run_ms_p50": 1e3 * median(runs),
        "workloads.cell_ms_p50": 1e3 * percentile(cells, 50),
        "workloads.cell_ms_p90": 1e3 * percentile(cells, 90),
        "core.metrics_ms": 1e3 * sum(tracer.durations("compute_metrics")),
        "experiments.cc_ms": 1e3 * sum(tracer.durations("cc_analysis")),
        "exec.parallel_efficiency": sum(cells) / (WORKERS * fork_wall),
        "exec.overhead_s": fork_wall - sum(cells) / WORKERS,
        "pfs.requests": sum(r["pfs_requests"] for r in rows),
        "fs.bytes_moved": sum(r["fs_bytes"] for r in rows),
        "middleware.retries": sum(r["retries"] for r in rows),
        "middleware.trace_records": records,
        "trace.overhead_s": hooked["wall"] - fork_wall,
        "trace.spans": len(tracer.spans),
    }
    for layer in SIM_LAYERS:
        metrics[f"{layer}.self_share"] = by_layer.get(layer, 0.0) / total
    return metrics


def write_manifest() -> None:
    """Regenerate ``manifest.json`` from serial passes at ``DEFAULT_SEED``.

    Only for a deliberate change of the simulator's outputs; say why
    the digests moved when committing the new file.
    """
    OUT_DIR.mkdir(exist_ok=True)
    manifest = {}
    scale = scale_for(DEFAULT_SEED)
    for workload in SWEEPS:
        result = grid_pass(build_sweeps(workload, scale), scale,
                           parallel=False,
                           log_path=OUT_DIR / "manifest-cells.jsonl",
                           hook=False, checks=Checks())
        manifest[workload] = {
            "cells": digests(result["rows"]),
            "cc": result["cc"],
        }
    with open(MANIFEST, "w") as handle:
        json.dump(manifest, handle, indent=1, sort_keys=True)
        handle.write("\n")
