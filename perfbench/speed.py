"""The machine's speed, sampled throughout a run: times in reference seconds.

On the 2-vCPU development VM (Intel Xeon, shared host) each vCPU
flips between two speeds about 2x apart every few seconds (contention
on the host, whatever runs on the other vCPU), and the share of time
it spends slow drifts over minutes.  A fixed pure-Python kernel timed
on its own reads either about 12 ms or about 23 ms and little in
between, so ten runs of the same code read up to 1.5x apart, whatever
statistic a run takes of its samples, and longer runs do not average
the drift away.

So while a workload runs, a sampler process of the benchmark's own
times a ~1 ms slice of that kernel every 50 ms, alternating between
the vCPUs (about 2% of one vCPU).  :meth:`SpeedMeter.reference_seconds`
scales a measured time by ``REFERENCE_SAMPLE_S`` over the mean sample
time while it was measured: the time it would have taken with the
machine in its fast state.  The kernel is not the program's code, so a
change to the program moves the measured time and not the samples,
and shows in full.

Run as a script, this module is the sampler:
``python3 speed.py SAMPLES_PATH PARENT_PID``.
"""

from __future__ import annotations

import gc
import heapq
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median

#: Kernel steps per sample: about 1 ms with the machine in its fast state.
SAMPLE_STEPS = 1000
#: Pause between samples.
SAMPLE_EVERY_S = 0.05
#: Sample time on the development VM (Python 3.11) in its fast state.
REFERENCE_SAMPLE_S = 0.0011
START_TIMEOUT_S = 30.0


class _Event:
    __slots__ = ("time", "owner")

    def __init__(self, when: float, owner: int) -> None:
        self.time = when
        self.owner = owner


def kernel(steps: int) -> float:
    """A fixed slice of the kind of work the program does: generator
    processes driven off a heap of timed events, one small object per
    event, a dict update and float arithmetic per step."""

    def process(owner: int):
        now = 0.0
        while True:
            now += (owner * 7919 + now) % 3.0 + 0.5
            yield _Event(now, owner)

    procs = [process(owner) for owner in range(16)]
    heap = [(next(p).time, i, i) for i, p in enumerate(procs)]
    heapq.heapify(heap)
    busy: dict[int, float] = {}
    seq = len(heap)
    for _ in range(steps):
        when, _seq, owner = heapq.heappop(heap)
        busy[owner] = busy.get(owner, 0.0) + when * 0.5
        event = next(procs[owner])
        heapq.heappush(heap, (event.time, seq, event.owner))
        seq += 1
    return sum(busy.values())


def sample(path: Path, parent: int) -> None:
    """Append ``start duration`` lines to ``path`` until ``parent``
    is gone; the garbage collector is off so samples time the kernel
    alone."""
    gc.disable()
    cpus = sorted(os.sched_getaffinity(0))
    with open(path, "w") as out:
        turn = 0
        while os.getppid() == parent:
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            turn += 1
            t0 = time.perf_counter()
            kernel(SAMPLE_STEPS)
            out.write(f"{t0!r} {time.perf_counter() - t0!r}\n")
            out.flush()
            time.sleep(SAMPLE_EVERY_S)


def medians(timed: list[tuple[float, float]]) -> tuple[float, float]:
    """Median measured and median reference time of ``(measured,
    reference)`` pairs, as :meth:`SpeedMeter.timed` gives them; zeros
    when there are none (the traced run times no set-up)."""
    if not timed:
        return 0.0, 0.0
    return (median(measured for measured, _ref in timed),
            median(ref for _measured, ref in timed))


class SpeedMeter:
    """Runs the sampler for the life of a ``with`` block."""

    def __init__(self, path: Path) -> None:
        self.path = path
        path.unlink(missing_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(path), str(os.getpid())])
        try:
            self._samples_after(time.perf_counter())
        except BaseException:
            self.stop()
            raise

    def __enter__(self) -> SpeedMeter:
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()

    def stop(self) -> None:
        self.proc.terminate()
        self.proc.wait()

    def _samples_after(self, end: float) -> list[tuple[float, float]]:
        """Every ``(start, duration)`` sample so far, once one has
        started after ``end``."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            samples = []
            if self.path.exists():
                for line in self.path.read_text().splitlines(True):
                    if line.endswith("\n"):
                        start, took = line.split()
                        samples.append((float(start), float(took)))
            if samples and samples[-1][0] > end:
                return samples
            if self.proc.poll() is not None:
                raise RuntimeError(f"speed sampler exited "
                                   f"{self.proc.returncode}")
            if time.monotonic() > deadline:
                raise RuntimeError("speed sampler wrote no sample")
            time.sleep(SAMPLE_EVERY_S / 2)

    def reference_seconds(self, measured: float, start: float,
                          end: float) -> float:
        """``measured`` (taken between ``start`` and ``end``) scaled by
        the machine's mean speed over that interval; a unit too short
        to hold a sample takes the sample nearest its middle."""
        samples = self._samples_after(end)
        inside = [took for at, took in samples if start <= at <= end]
        if not inside:
            middle = (start + end) / 2
            inside = [min(samples, key=lambda s: abs(s[0] - middle))[1]]
        return measured * REFERENCE_SAMPLE_S / fmean(inside)

    def timed(self, start: float, end: float) -> tuple[float, float]:
        """The interval's length, measured and in reference seconds."""
        return end - start, self.reference_seconds(end - start, start, end)

    def mean_sample_ms(self) -> float:
        """Mean sample time so far (ms): how slow the run found the
        machine, against ``REFERENCE_SAMPLE_S``."""
        return 1e3 * fmean(took for _at, took in
                           self._samples_after(float("-inf")))


if __name__ == "__main__":
    sample(Path(sys.argv[1]), int(sys.argv[2]))
