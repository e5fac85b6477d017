"""Shared machinery: result accounting, spans, profiles, process stats.

Everything here measures the program from outside: wall clocks around
calls into public functions, ``resource``/``/proc`` counters, and
cProfile self times summed by ``repro`` subpackage.
"""

from __future__ import annotations

import json
import os
import pstats
import re
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
#: Scratch outputs of a run (trace files, spans, profiles); gitignored.
OUT_DIR = ROOT / ".perfbench-out"

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: Worker processes or connections a workload may use (2-core box).
WORKERS = 2


def rounds(seconds: float, traced: bool, minimum: int = 1):
    """Yield unit numbers 0, 1, ... while the measuring time lasts.

    The first ``minimum`` units always run; a further one starts only
    while more than half a mean unit's time is left, so a run measures
    for ``seconds`` give or take half a unit however fast the machine
    happens to be.  The traced run makes just the ``minimum``.
    Workloads report the *mean* of their per-unit figures: a mean
    follows the share of the run the machine spent in each of its
    speed phases smoothly, where a median flips between the phases'
    values.
    """
    start = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        if done < minimum:
            continue
        elapsed = time.perf_counter() - start
        if traced or elapsed + 0.5 * elapsed / done >= seconds:
            return


def load_spec() -> dict:
    with open(SPEC_PATH) as handle:
        return json.load(handle)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] (needs >= 1 value)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


@dataclass
class Checks:
    """Output checks: each one is an attempted operation.

    A failed check is counted, with its reason kept for stderr, and the
    run carries on, so one bad output shows up in ``failed`` instead
    of aborting the measurement.
    """

    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(reason)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    ident: int

    def as_dict(self) -> dict:
        return {"id": self.ident, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent}


class Tracer:
    """In-memory span recorder; written out once, when the run ends.

    Spans are recorded around the benchmark's own calls into the
    program (or reconstructed from timestamps the benchmark took around
    those calls in a worker), never from inside ``src/``.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None) -> int:
        ident = len(self.spans)
        self.spans.append(Span(name, start, end, parent, ident))
        return ident

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump([s.as_dict() for s in self.spans], handle)


def _repro_parts(filename: str) -> tuple[str, ...] | None:
    """Path parts below ``src/repro`` of a profiled function's file."""
    parts = Path(filename).parts
    for index in range(len(parts) - 1, 1, -1):
        if parts[index - 2:index] == ("src", "repro"):
            return parts[index:]
    return None


def self_time_by_layer(profile_path: Path) -> tuple[dict, dict, float]:
    """cProfile ``tottime`` summed per repro subpackage and per module.

    Returns ``(by_layer, by_module, total)`` keyed like ``"sim"`` and
    ``"serve.protocol"``; ``total`` covers every profiled function (the
    interpreter's builtins included), so a layer's share is its self
    time over everything the process did.
    """
    stats = pstats.Stats(str(profile_path))
    by_layer: dict[str, float] = {}
    by_module: dict[str, float] = {}
    total = 0.0
    for (filename, _line, _func), row in stats.stats.items():
        tottime = row[2]
        total += tottime
        parts = _repro_parts(filename)
        if parts is None:
            continue
        layer = parts[0] if len(parts) > 1 else "repro"
        module = ".".join(parts).removesuffix(".py")
        by_layer[layer] = by_layer.get(layer, 0.0) + tottime
        by_module[module] = by_module.get(module, 0.0) + tottime
    return by_layer, by_module, total


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set (MiB) of this process, or max over reaped
    children when ``children`` is set (Linux reports KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def proc_cpu_seconds(pid: int) -> float:
    """utime + stime of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def proc_peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set, MiB) of a live process."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
