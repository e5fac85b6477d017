"""Perf bench: the discrete-event kernel's event rate.

Two figures, each in simulator events per second of wall time (an
event is one scheduled callback; ``Engine._seq`` counts them):

1. **Pure kernel** — a synthetic program that exercises only
   ``repro.sim``: worker processes that spawn and join a child process
   which sleeps on a timeout, take a contended two-slot
   :class:`~repro.sim.resources.Resource`, hold it for a timeout and
   yield a zero-delay timeout.  Every kernel path the stack leans on
   (ready queue, timed heap, process resume, waitable fire, grant
   queue) and nothing else.
2. **set3-pure cell** — one cell of the paper's Set 3 pure-concurrency
   sweep (8 IOzone processes over the PVFS-like stack), run through
   the public ``run_workload``: the kernel under the real device, net,
   pfs, fs and middleware layers.  Its trace records per second are
   reported beside its events per second: since the layers run inline
   in one process per I/O, each event carries more layer work, so the
   cell's event rate can fall while its record rate rises.

Each figure is the best of a few repetitions (the bench box is a shared
VM whose speed swings; the best run is the least disturbed one), and
each repetition must schedule the same number of events, since the
kernel is deterministic.  Figures land in
``benchmarks/output/perf_sim_kernel.{txt,json}``; the JSON carries the
rates *and* the floors, and CI's kernel perf gate re-checks them from
there.

Set ``REPRO_BENCH_SMOKE=1`` for the CI-sized variant.
"""

from __future__ import annotations

import os
import time

from repro.experiments.runner import ExperimentScale
from repro.experiments.set3 import build_pure_sweep
from repro.sim.engine import Engine
from repro.sim.resources import Resource
from repro.util.tables import TextTable
from repro.workloads.base import run_workload

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "").strip() not in ("", "0")

#: Pure-kernel program size: (worker processes, rounds per worker).
KERNEL_SHAPE = (32, 60) if SMOKE else (64, 250)
#: Data-size scale of the set3-pure cell (1.0 = the paper grid's cell).
CELL_SCALE = 0.25 if SMOKE else 1.0
REPEATS = 3 if SMOKE else 5
SEED = 20130520
#: Absolute floors (events/second), about 0.6x the typical rates
#: measured on a 2-vCPU Xeon VM (Python 3.11), which swing by ~15% with
#: the VM's load: ~410-480k kernel and ~235-300k cell in either mode
#: (the heap-only kernel before the ready queue read ~205k and
#: ~150-160k back to back with them).  Running the layers inline cut
#: the full cell's events by 31% (26,641 -> 18,449), so each event does
#: more work: back to back its event rate read 337k against 363k before,
#: while its record rate rose from 7.0k to 9.4k records/s.  The floors
#: catch a kernel that got a multiple slower, not a few percent.
FLOORS = ({"kernel_eps": 270_000.0, "cell_eps": 140_000.0} if SMOKE
          else {"kernel_eps": 290_000.0, "cell_eps": 150_000.0})


def kernel_program(engine: Engine, workers: int, rounds: int) -> None:
    """Spawn the pure-kernel workers on ``engine`` (run it afterwards)."""
    disk = Resource(engine, capacity=2, name="disk")

    def child(eng, delay):
        yield eng.timeout(delay)
        return delay

    def worker(eng, index):
        for r in range(rounds):
            yield eng.spawn(child(eng, 0.001 * (1 + (index + r) % 3)))
            yield disk.acquire()
            try:
                yield eng.timeout(0.0005)
            finally:
                disk.release()
            yield eng.timeout(0.0)

    for index in range(workers):
        engine.spawn(worker(engine, index))


def time_kernel() -> tuple[int, float]:
    engine = Engine()
    kernel_program(engine, *KERNEL_SHAPE)
    t0 = time.perf_counter()
    engine.run()
    return engine._seq, time.perf_counter() - t0


def time_cell() -> tuple[int, float, int]:
    """Events, seconds from the built system to the measurement, records.

    The clock starts in ``on_system`` (after system build and file
    setup), so the figure is the simulated run plus the trace's metrics.
    """
    spec = build_pure_sweep(ExperimentScale(factor=CELL_SCALE,
                                            repetitions=1))
    _label, make, config = spec.points[-1]
    built = {}

    def on_system(system) -> None:
        built["engine"] = system.engine
        built["t0"] = time.perf_counter()

    measurement = run_workload(make(), config.with_seed(SEED),
                               on_system=on_system)
    elapsed = time.perf_counter() - built["t0"]
    return built["engine"]._seq, elapsed, len(measurement.trace)


def best_of(measure) -> tuple:
    """Fastest of ``REPEATS`` runs; every run must see the same events."""
    runs = [measure() for _ in range(REPEATS)]
    assert len({run[0] for run in runs}) == 1, (
        f"event counts differ between identical runs: {runs}")
    return min(runs, key=lambda run: run[1])


def test_sim_kernel_event_rate(artifact, artifact_json):
    kernel_events, kernel_s = best_of(time_kernel)
    cell_events, cell_s, cell_records = best_of(time_cell)
    headline = {
        "kernel_events": kernel_events,
        "kernel_s": kernel_s,
        "kernel_eps": kernel_events / kernel_s,
        "cell_events": cell_events,
        "cell_records": cell_records,
        "cell_s": cell_s,
        "cell_eps": cell_events / cell_s,
        "cell_rec_per_s": cell_records / cell_s,
    }
    table = TextTable(["program", "events", "best of", "seconds",
                       "events/s", "records/s", "floor (events/s)"])
    table.add_row([f"pure kernel {KERNEL_SHAPE[0]}x{KERNEL_SHAPE[1]}",
                   kernel_events, REPEATS, f"{kernel_s:.3f}",
                   f"{headline['kernel_eps']:,.0f}", "-",
                   f"{FLOORS['kernel_eps']:,.0f}"])
    table.add_row([f"set3-pure cell (8 procs, scale {CELL_SCALE})",
                   cell_events, REPEATS, f"{cell_s:.3f}",
                   f"{headline['cell_eps']:,.0f}",
                   f"{headline['cell_rec_per_s']:,.0f}",
                   f"{FLOORS['cell_eps']:,.0f}"])
    artifact("perf_sim_kernel",
             f"Simulator kernel event rate "
             f"({'smoke' if SMOKE else 'full'} mode)\n" + table.render())
    artifact_json("perf_sim_kernel", {
        "mode": "smoke" if SMOKE else "full",
        "headline": headline,
        "floors": FLOORS,
    })
    for key, floor in FLOORS.items():
        assert headline[key] >= floor, (
            f"{key} {headline[key]:,.0f} events/s is below the floor "
            f"{floor:,.0f}")
