"""Seeded input generators: the only place a workload's inputs come from.

Every generator takes the benchmark's ``--seed`` and nothing else that
varies, so the same seed gives byte-identical inputs on every machine.
The program under test only ever sees what these functions produce:
a sweep base seed, a JSONL trace file, and pre-encoded wire lines.

Why each input looks the way it does:

- ``grid_base_seed`` shifts every grid cell's simulation seed.  Seed 0
  maps onto the repository's own default base seed (20130520), so the
  committed digest manifest pins exactly what ``bps sweep`` prints
  out of the box.
- ``synthetic_trace`` writes a striped, multi-process trace with one
  planted server stall.  Striped offsets give ``bps diagnose
  --servers 8`` real server keys; the stall gives the anomaly
  detector one window to flag and the attributor one server to name,
  so the replay exercises every stage of the streaming pipeline.
- ``serve_lines`` pre-encodes seq-numbered, CRC-checked record lines
  with the daemon's own wire encoder, so the load generator only
  slices and writes bytes while it is being timed.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np

from repro.core.records import IORecord
from repro.serve import protocol

#: The repository's default sweep base seed (``ExperimentScale``).
REPO_BASE_SEED = 20130520

TRACE_PIDS = 8
TRACE_SERVERS = 8
STRIPE = 64 * 1024
TRACE_BINS = 20


def _rng(seed: int, tag: str) -> np.random.Generator:
    """An independent stream per (seed, input kind)."""
    salt = zlib.crc32(tag.encode())
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def grid_base_seed(seed: int) -> int:
    """Sweep base seed; per-cell seeds are derived from it by the runner."""
    return REPO_BASE_SEED + 1_000_003 * seed


@dataclass(frozen=True)
class PlantedStall:
    """Where ``synthetic_trace`` put its stall (the oracle's answer)."""

    server: int
    start: float
    end: float

    @property
    def server_key(self) -> str:
        return f"server{self.server}"


def synthetic_trace(seed: int, n_records: int, path) -> PlantedStall:
    """Write a JSONL trace of ``n_records`` records to ``path``.

    ``TRACE_PIDS`` processes each issue back-to-back requests of
    16/32/64 KiB at stripe-aligned offsets spread over
    ``TRACE_SERVERS`` servers (64 KiB stripes), with lognormal service
    times around 1 ms.  During one stall interval (2.5 windows
    placed at 55-70% of the span) every request that lands on
    the stalled server hangs until the stall ends and then fails after
    two retries; each process therefore parks on the stalled server
    within a few requests and the window's BPS collapses.
    """
    rng = _rng(seed, "trace")
    per_pid = -(-n_records // TRACE_PIDS)
    mean_step = 0.00105
    span = per_pid * mean_step
    stall_server = int(rng.integers(TRACE_SERVERS))
    stall_start = span * float(rng.uniform(0.55, 0.70))
    stall_end = stall_start + 2.5 * span / TRACE_BINS
    rows = []
    for pid in range(TRACE_PIDS):
        durations = rng.lognormal(np.log(0.001), 0.3, per_pid)
        gaps = rng.exponential(0.00005, per_pid)
        stripes = rng.integers(0, 4096, per_pid)
        sizes = rng.choice((16384, 32768, 65536), per_pid)
        t = 0.0
        for i in range(per_pid):
            start = t + float(gaps[i])
            stripe = int(stripes[i])
            end = start + float(durations[i])
            success, retries = True, 0
            if stripe % TRACE_SERVERS == stall_server \
                    and stall_start <= start < stall_end:
                end = stall_end + float(durations[i])
                success, retries = False, 2
            rows.append((start, pid, int(sizes[i]), end, stripe * STRIPE,
                         success, retries, "read" if i % 4 else "write"))
            t = end
    rows.sort()
    del rows[n_records:]
    with open(path, "w") as handle:
        for start, pid, nbytes, end, offset, success, retries, op in rows:
            handle.write(json.dumps({
                "pid": pid, "op": op, "nbytes": nbytes, "start": start,
                "end": end, "file": "/data/striped", "offset": offset,
                "success": success, "retries": retries}) + "\n")
    return PlantedStall(stall_server, stall_start, stall_end)


@dataclass
class ServeLoad:
    """Pre-encoded serve ingest: one wire line per record, plus the
    records themselves so the batch oracle never parses the lines."""

    lines: list
    records: list


def serve_lines(seed: int, n_records: int) -> ServeLoad:
    """``n_records`` seq-numbered, checksummed record lines, encoded by
    the daemon's own ``protocol.record_line``.

    Trace time advances 0.5 ms per record with 8 interleaved pids, so
    the daemon's one-second windows close steadily as the stream
    flows and its reorder heap stays small.
    """
    rng = _rng(seed, "serve")
    pids = rng.integers(0, 8, n_records)
    sizes = rng.choice((4096, 8192, 65536), n_records)
    durations = rng.lognormal(np.log(0.002), 0.4, n_records)
    ops = rng.random(n_records) < 0.7
    records = []
    for seq in range(n_records):
        start = seq * 0.0005
        records.append(IORecord(
            pid=int(pids[seq]), op="read" if ops[seq] else "write",
            nbytes=int(sizes[seq]), start=start,
            end=start + float(durations[seq])))
    lines = [protocol.record_line(record, seq=seq, checksum=True)
             for seq, record in enumerate(records)]
    return ServeLoad(lines=lines, records=records)
