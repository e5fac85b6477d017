"""Per-window causal trace graphs — the evidence base for attribution.

A :class:`TraceGraph` folds completed I/O records into one bucket per
metric window, keyed by the **directly-follows chain** of the request
path: ``pid -> op -> server``.  Each edge carries the counters the
attributor diffs against its baseline (operations, blocks, response
time, retries, failures), and each bucket additionally keeps the
record intervals *clipped to the window* per server, so a window's
per-server clipped-union occupancy — who owned the window's active
time — is computable at close.

Two properties are load-bearing:

- **window-of-start bucketing** — a record belongs wholly to the
  window containing its *start* (its interval clipped to that window's
  bounds for occupancy).  Every accumulation is exact and commutative
  (integer counts, maxima, clipped-interval sets, and response-time
  sums rounded once with :func:`math.fsum` when the window settles), so
  the closed bucket is bit-identical however the records arrived and
  however they were cut into chunks: the live tap, the per-record
  replay and the chunked replay build identical graphs, which is what
  makes streaming and offline attribution agree suspect-for-suspect;
- **bounded memory** — the attributor pops each bucket as its window
  closes, so a long-running stream holds O(open windows) of graph
  state, never O(run).

The ``server`` vertex comes from a caller-supplied key function
(``server_of``), normally a :class:`StripeServerKey` (the stripe-layout
mapping the live tap and ``bps diagnose --servers`` use); without one
every record lands on ``"?"`` and server-level attribution degrades
gracefully to pid/op signals.  A key function with a ``column(chunk)``
method is evaluated on the chunk's columns instead of row by row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.intervals import union_time
from repro.core.records import IORecord
from repro.errors import ReproError


class DiagnoseError(ReproError):
    """Invalid diagnose configuration or use."""


@dataclass(frozen=True)
class GraphEdge:
    """One ``pid -> op -> server`` chain of a closed window."""

    pid: int
    op: str
    server: str
    ops: int
    blocks: int
    dur_sum: float
    retries: int
    failures: int


@dataclass(frozen=True)
class WindowGraph:
    """The settled graph of one closed window."""

    index: int
    edges: tuple[GraphEdge, ...]
    #: server -> union of the window-clipped record intervals (the
    #: share of the window's active time this server owned).
    occupancy: dict
    #: server -> latest (unclipped) completion time of any record that
    #: *started* here — how far this window's requests reached into the
    #: future.  The attributor's lookback uses it to tell "server went
    #: idle" from "server's requests are still in flight".
    max_end: dict = field(default_factory=dict)
    #: pid -> latest (unclipped) completion time, same contract.
    pid_max_end: dict = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return sum(e.ops for e in self.edges)

    @property
    def failures(self) -> int:
        return sum(e.failures for e in self.edges)

    @property
    def retries(self) -> int:
        return sum(e.retries for e in self.edges)

    @property
    def dur_sum(self) -> float:
        return sum(e.dur_sum for e in self.edges)

    def by_server(self) -> dict:
        """server -> [ops, dur_sum, retries, failures] over its edges."""
        out: dict = {}
        for e in self.edges:
            row = out.setdefault(e.server, [0, 0.0, 0, 0])
            row[0] += e.ops
            row[1] += e.dur_sum
            row[2] += e.retries
            row[3] += e.failures
        return out

    def by_pid(self) -> dict:
        """pid -> [ops, dur_sum, retries, failures] over its edges."""
        out: dict = {}
        for e in self.edges:
            row = out.setdefault(e.pid, [0, 0.0, 0, 0])
            row[0] += e.ops
            row[1] += e.dur_sum
            row[2] += e.retries
            row[3] += e.failures
        return out


def _group_max(codes: np.ndarray, values: np.ndarray, keys) -> dict:
    """key -> max of ``values`` over the rows whose code indexes it."""
    out = np.full(len(keys), -np.inf)
    np.maximum.at(out, codes, values)
    return dict(zip(keys, out.tolist()))


class StripeServerKey:
    """Record -> server name under a striped layout.

    The server holding a record's first byte claims the record (cheap
    and stable for requests spanning several stripes); unknown offsets
    (< 0) land on ``"?"``.
    """

    def __init__(self, names, stripe_size: int) -> None:
        self.names = tuple(names)
        self.stripe_size = stripe_size
        self._table = np.array(self.names + ("?",), dtype=object)

    def __call__(self, record: IORecord) -> str:
        if record.offset < 0:
            return "?"
        return self.names[(record.offset // self.stripe_size)
                          % len(self.names)]

    def column(self, chunk) -> np.ndarray:
        """Every row's key at once (an object array)."""
        offset = chunk.offset
        return self._table[np.where(
            offset < 0, len(self.names),
            (offset // self.stripe_size) % len(self.names))]


class TraceGraph:
    """Incrementally maintained per-window dependency graph."""

    def __init__(self, *, window: float, origin: float | None = None,
                 server_of: Callable[[IORecord], str] | None = None,
                 block_size: int = 512) -> None:
        if not (window > 0) or math.isnan(window):
            raise DiagnoseError(f"window width must be > 0, got {window}")
        if block_size <= 0:
            raise DiagnoseError(f"bad block size {block_size}")
        self.window = float(window)
        self.origin = origin
        self.block_size = block_size
        self.server_of = server_of
        #: window index -> the rows starting there, as one tuple of
        #: column slices per chunk (pid, op, server, blocks, duration,
        #: retries, failed, start, clipped end, end); aggregated only
        #: when the window settles.
        self._buckets: dict[int, list] = {}

    # -- feed --------------------------------------------------------------

    def add_chunk(self, chunk) -> None:
        """Fold a columnar :class:`~repro.live.chunk.RecordChunk` in,
        each row into its start window's bucket.

        The window index must match
        :meth:`repro.live.stream.MetricStream._index_of` bit-for-bit
        (``floor((start - origin) / window)``) or a record could land in
        a different bucket than the window it is judged under.
        """
        n = len(chunk)
        if n == 0:
            return
        if self.origin is None:
            self.origin = float(chunk.start[0])
        start, end = chunk.start, chunk.end
        index = np.floor((start - self.origin) / self.window).astype(
            np.int64)
        servers = (np.full(n, "?", dtype=object) if self.server_of is None
                   else chunk.keys(self.server_of))
        clip = np.minimum(self.origin + (index + 1) * self.window, end)
        order = np.argsort(index, kind="stable")
        columns = [column[order] for column in (
            chunk.pid, chunk.op, servers,
            -(-chunk.nbytes // self.block_size), end - start,
            chunk.retries, ~chunk.success, start, clip, end)]
        index = index[order]
        heads = np.flatnonzero(np.r_[True, index[1:] != index[:-1]])
        bounds = np.append(heads, n).tolist()
        for i, lo, hi in zip(index[heads].tolist(), bounds, bounds[1:]):
            self._buckets.setdefault(i, []).append(
                tuple(column[lo:hi] for column in columns))

    # -- close -------------------------------------------------------------

    def window_graph(self, index: int) -> WindowGraph:
        """The settled graph of window ``index`` (empty if untouched).

        Every figure is an exact function of the bucket's row *set* —
        integer counts, maxima, clipped-interval unions, and
        response-time sums correctly rounded by :func:`math.fsum` — so
        it is bit-identical however the rows arrived or were chunked.
        """
        parts = self._buckets.get(index)
        if not parts:
            return WindowGraph(index=index, edges=(), occupancy={},
                               max_end={}, pid_max_end={})
        (pid, op, server, blocks, duration, retries, failed, start, clip,
         end) = (np.concatenate(column) for column in zip(*parts))
        pids, pid_code = np.unique(pid, return_inverse=True)
        ops, op_code = np.unique(op, return_inverse=True)
        servers, srv_code = np.unique(server, return_inverse=True)
        pids, ops, servers = pids.tolist(), ops.tolist(), servers.tolist()
        # One edge per (pid, op, server); codes ascend in that order.
        _codes, heads, inv = np.unique(
            (pid_code * len(ops) + op_code) * len(servers) + srv_code,
            return_index=True, return_inverse=True)
        counts = np.bincount(inv)
        bounds = np.concatenate(([0], np.cumsum(counts))).tolist()
        durations = duration[np.argsort(inv, kind="stable")].tolist()
        edges = tuple(
            GraphEdge(pid=pids[p], op=ops[o], server=servers[s], ops=n,
                      blocks=int(b), dur_sum=math.fsum(durations[lo:hi]),
                      retries=int(r), failures=int(f))
            for p, o, s, n, b, r, f, lo, hi in zip(
                pid_code[heads].tolist(), op_code[heads].tolist(),
                srv_code[heads].tolist(), counts.tolist(),
                np.bincount(inv, weights=blocks).tolist(),
                np.bincount(inv, weights=retries).tolist(),
                np.bincount(inv, weights=failed).tolist(),
                bounds, bounds[1:]))
        intervals = np.column_stack((start, clip))
        occupied = clip > start
        occupancy = {}
        for k, name in enumerate(servers):
            mine = occupied & (srv_code == k)
            if np.any(mine):
                occupancy[name] = union_time(intervals[mine])
        return WindowGraph(
            index=index, edges=edges, occupancy=occupancy,
            max_end=_group_max(srv_code, end, servers),
            pid_max_end=_group_max(pid_code, end, pids))

    def pop_window(self, index: int) -> WindowGraph:
        """Settle window ``index`` and release its bucket (the
        streaming close path — keeps graph memory O(open windows))."""
        graph = self.window_graph(index)
        self._buckets.pop(index, None)
        return graph

    @property
    def open_windows(self) -> int:
        """Buckets currently held (diagnostic)."""
        return len(self._buckets)
