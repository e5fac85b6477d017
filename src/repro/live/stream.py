"""The live metric pipeline: windowed + cumulative BPS while records arrive.

:class:`MetricStream` consumes completed I/O records — one at a time
(:meth:`MetricStream.ingest`, from the tracing-middleware tap or a
trace replay) or as columnar chunks (:meth:`MetricStream.push_chunk`) —
and maintains, online:

- **cumulative** metrics — B, N, bytes, and the streaming union time,
  so BPS/IOPS/bandwidth are exact at any moment and the *final*
  cumulative BPS is bit-identical to the batch
  :func:`~repro.core.metrics.compute_metrics` (see
  :mod:`repro.live.union` for the proof sketch; ARPT streams as
  running-sum/count and agrees to float-accumulation precision);
- a **windowed series** — fixed event-time windows of width ``window``;
  each record's blocks/bytes are spread over the windows it overlaps in
  proportion to overlap (the :func:`~repro.core.timeline.binned_bps`
  convention), and each window's I/O time is the union of the record
  intervals *clipped* to the window, so window BPS is blocks over
  *active* time and per-window I/O times sum exactly to the cumulative
  union time;
- **per-group breakdowns** — cumulative B/T/BPS keyed by pid and op out
  of the box, plus any caller-supplied grouping (the live tap adds a
  per-server key on parallel file systems).

Both entry points feed the union directly; everything else is updated
by one columnar fold (:meth:`MetricStream._fold`).  ``ingest`` buffers
its rows and folds them before any window closes, before any read of
stream state, and when the buffer fills, so the buffer is never seen.

Windows close when the watermark passes their right edge; closing emits
a ``window`` event to every attached sink and feeds the anomaly
detector.  A late record that lands in a window below the emission
pointer is folded into the stored stats (cumulative figures stay
exact) and counted in :attr:`MetricStream.late_window_updates`; a
closed-window event already emitted is *provisional* in that case, and
:meth:`finalize` returns the corrected series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

import numpy as np

from repro.core.intervals import merge_intervals, union_time
from repro.core.metrics import MetricSet
from repro.core.records import IORecord
from repro.errors import LiveStreamError
from repro.live.chunk import RecordChunk
from repro.live.sinks import apply_sink_policy
from repro.live.union import StreamingUnion
from repro.util.units import BLOCK_SIZE

#: Rows :meth:`MetricStream.ingest` buffers before folding them.
_ROW_BUFFER = 256


@dataclass(frozen=True)
class WindowStats:
    """One closed event-time window of the stream."""

    index: int
    start: float
    end: float
    #: Records *starting* in this window.
    ops: int
    #: Block/byte mass landing in the window (overlap-proportional).
    blocks: float
    bytes: float
    #: Union of record intervals clipped to the window (active time).
    io_time: float
    #: blocks / io_time (0.0 for an idle window).
    bps: float
    iops: float
    bandwidth: float
    #: Mean response time of records starting in the window (0.0 if none).
    arpt: float

    def as_event(self) -> dict:
        """The sink-facing representation."""
        return {
            "type": "window", "index": self.index,
            "t0": self.start, "t1": self.end, "ops": self.ops,
            "blocks": self.blocks, "bytes": self.bytes,
            "io_time": self.io_time, "bps": self.bps,
            "iops": self.iops, "bandwidth": self.bandwidth,
            "arpt": self.arpt,
        }


@dataclass(frozen=True)
class GroupStats:
    """Cumulative share of one group (one pid, one op, one server...)."""

    key: str
    ops: int
    blocks: int
    bytes: int
    io_time: float
    bps: float


@dataclass(frozen=True)
class LiveSnapshot:
    """Cumulative state of the stream at one instant."""

    time: float
    ops: int
    blocks: int
    bytes: int
    io_time: float
    bps: float
    iops: float
    bandwidth: float
    arpt: float
    windows_closed: int
    late_records: int

    def as_event(self) -> dict:
        return {"type": "snapshot", **self.__dict__}


@dataclass(frozen=True)
class LiveResult:
    """Everything :meth:`MetricStream.finalize` settles."""

    metrics: MetricSet
    windows: tuple[WindowStats, ...]
    anomalies: tuple
    breakdowns: dict[str, tuple[GroupStats, ...]]
    late_records: int
    late_window_updates: int


class _WindowAgg:
    """One window's raw material, one array per fold.  Every figure is
    derived order-independently (a union, exactly rounded sums), so how
    rows were batched into folds never changes a window's stats."""

    __slots__ = ("ops", "masses", "durations", "interval_arrays")

    def __init__(self) -> None:
        self.ops = 0
        #: (k, 2) arrays of (blocks, bytes) overlap shares.
        self.masses: list[np.ndarray] = []
        #: Response times of the rows starting in this window.
        self.durations: list[np.ndarray] = []
        #: Clipped (k, 2) intervals.
        self.interval_arrays: list[np.ndarray] = []

    def combined_intervals(self) -> np.ndarray | None:
        """Every clipped interval of this window as one (n, 2) array."""
        parts = self.interval_arrays
        if not parts:
            return None
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def totals(self) -> tuple[float, float, float]:
        """(blocks, bytes, duration sum), each correctly rounded."""
        blocks = nbytes = dur_sum = 0.0
        if self.masses:
            blocks, nbytes = (math.fsum(column) for column in
                              np.concatenate(self.masses).T.tolist())
        if self.durations:
            dur_sum = math.fsum(np.concatenate(self.durations).tolist())
        return blocks, nbytes, dur_sum


class _GroupAgg:
    __slots__ = ("ops", "blocks", "bytes", "union")

    def __init__(self) -> None:
        self.ops = 0
        self.blocks = 0
        self.bytes = 0
        self.union = StreamingUnion()


class MetricStream:
    """Online BPS/IOPS/bandwidth/ARPT over a stream of I/O records."""

    def __init__(
        self,
        *,
        window: float,
        block_size: int = BLOCK_SIZE,
        origin: float | None = None,
        max_pending: int = 4096,
        watermark_lag: float = 0.0,
        late_policy: str = "merge",
        sinks: Iterable = (),
        sink_errors: str | None = None,
        sink_max_failures: int = 5,
        detector=None,
        attributor=None,
        group_by: dict[str, Callable[[IORecord], str]] | None = None,
    ) -> None:
        if not (window > 0) or math.isnan(window):
            raise LiveStreamError(f"window width must be > 0, got {window}")
        if block_size <= 0:
            raise LiveStreamError(f"bad block size {block_size}")
        if attributor is not None and attributor.window != float(window):
            raise LiveStreamError(
                f"attributor window {attributor.window} != stream "
                f"window {window}")
        self.window = float(window)
        self.block_size = block_size
        self.origin = origin
        self.attributor = attributor
        if attributor is not None and attributor.graph.origin is None:
            # Sync the graph's window grid now if the anchor is known;
            # otherwise the first fold pins both to the first row's start.
            attributor.graph.origin = origin
        # sink_errors None/'raise' keeps sinks transparent; 'warn' /
        # 'disable' wrap them fail-safe (repro.live.sinks.FailSafeSink)
        # so a dying sink cannot corrupt the metric stream.
        self.sinks = apply_sink_policy(sinks, sink_errors,
                                       sink_max_failures)
        self.detector = detector
        # ``max_pending`` is the explicit memory bound on the reorder
        # heap.  When the heap would exceed it, the watermark is
        # *forced* forward past the oldest pending start — a documented
        # degradation: cumulative metrics stay exact (the insertion
        # path is order-independent), but records arriving under the
        # forced watermark count as late and their windows are only
        # corrected at finalize.  Trips are counted in
        # :attr:`forced_watermarks`.
        self._union = StreamingUnion(reorder_capacity=max_pending,
                                     watermark_lag=watermark_lag,
                                     late_policy=late_policy)
        #: Rows ingest() has not folded yet, their lowest start and
        #: its window.
        self._rows: list[IORecord] = []
        self._rows_start = math.inf
        self._rows_index: int | None = None
        # Cumulative counters.
        self._ops = 0
        self._blocks = 0
        self._bytes = 0
        self._dur_sum = 0.0
        self._failed = 0
        self._retries = 0
        self._first_start = math.inf
        self._last_end = -math.inf
        # Windowed state.  The emission pointer stays None until the
        # first closure, then advances monotonically: any record landing
        # below it is by construction late (its start is under the
        # watermark), so closed windows are never re-emitted.
        self._windows: dict[int, _WindowAgg] = {}
        self._next_emit: int | None = None
        self._min_index: int | None = None
        self._max_index: int | None = None
        #: Highest window index any record *started* in — windows past
        #: it hold only spillover from earlier starts, so their silence
        #: is end-of-trace, not a stall (see :meth:`_observe`).
        self._last_start_index: int | None = None
        self._late_window_updates = 0
        #: Emitted windows later corrected by late records; re-judged
        #: against the detector baseline at finalize so a flag earned
        #: by the corrected stats still reaches the sinks.
        self._dirty: set[int] = set()
        #: window index -> the rolling baseline it was judged against
        #: when first observed (the finalize re-judgement must use the
        #: same baseline, not the end-of-run one).
        self._judged_baselines: dict[int, float] = {}
        # Breakdowns.
        keyed: dict[str, Callable[[IORecord], str]] = {
            "pid": lambda r: str(r.pid),
            "op": lambda r: r.op,
        }
        keyed.update(group_by or {})
        self._group_keys = keyed
        #: Names whose row-level key fn was caller-supplied: the fold
        #: may not substitute its builtin columnar pid/op keys.
        self._custom_groups = set(group_by or {})
        self._groups: dict[str, dict[str, _GroupAgg]] = {
            name: {} for name in self._group_keys
        }
        self.anomalies: list = []
        self._finalized = False

    # -- ingest ------------------------------------------------------------

    def ingest(self, record: IORecord) -> None:
        """Fold one completed I/O record into the stream.

        The union (watermark, reorder heap, lateness) takes the record
        at once; the rest of the update waits in the row buffer.
        """
        if self._finalized:
            raise LiveStreamError("ingest() after finalize()")
        if self.origin is None:
            self.origin = record.start
        self._union.add(record.start, record.end)
        self._rows.append(record)
        if record.start < self._rows_start:
            self._rows_start = record.start
            self._rows_index = self._index_of(record.start)
        if len(self._rows) >= _ROW_BUFFER:
            self._flush()
        self._close_settled_windows()

    def push_chunk(self, chunk) -> None:
        """Fold one columnar :class:`~repro.live.chunk.RecordChunk` in.

        Equivalent to calling :meth:`ingest` on every row in row order,
        except that lateness is chunk-granular and the cumulative ARPT
        sum may re-associate (see :mod:`repro.live.chunk`).

        The chunk is trusted: validation happens in
        :meth:`RecordChunk.build` / :meth:`RecordChunk.from_columns`.
        """
        if self._finalized:
            raise LiveStreamError("push_chunk() after finalize()")
        if len(chunk) == 0:
            return
        self._flush()
        if self.origin is None:
            self.origin = float(chunk.start[0])
        self._union.add_batch(chunk.intervals())
        self._fold(chunk)
        self._close_settled_windows()

    def advance_watermark(self, to: float) -> None:
        """Externally promise no future record starts below ``to``."""
        self._union.advance_watermark(to)
        self._close_settled_windows()

    def _flush(self) -> None:
        """Fold the rows :meth:`ingest` buffered as one chunk."""
        if self._rows:
            rows = self._rows
            self._rows = []
            self._rows_start = math.inf
            self._rows_index = None
            self._fold(RecordChunk.from_records(rows))

    def _fold(self, chunk) -> None:
        """The one window/group/counter/graph update (not the union)."""
        if self.attributor is not None:
            if self.attributor.graph.origin is None:
                self.attributor.graph.origin = self.origin
            self.attributor.add_chunk(chunk)
        blocks = -(-chunk.nbytes // self.block_size)
        duration = chunk.end - chunk.start
        self._ops += len(chunk)
        self._blocks += int(blocks.sum())
        self._bytes += int(chunk.nbytes.sum())
        self._dur_sum += float(duration.sum())
        self._failed += int(np.count_nonzero(~chunk.success))
        self._retries += int(chunk.retries.sum())
        first_start = float(chunk.start.min())
        last_end = float(chunk.end.max())
        if first_start < self._first_start:
            self._first_start = first_start
        if last_end > self._last_end:
            self._last_end = last_end
        self._spread_chunk_groups(chunk, blocks)
        self._spread_chunk_windows(chunk, blocks, duration)

    # -- windows -----------------------------------------------------------

    def _index_of(self, t: float) -> int:
        return int(math.floor((t - self.origin) / self.window))

    def _window_bounds(self, index: int) -> tuple[float, float]:
        return (self.origin + index * self.window,
                self.origin + (index + 1) * self.window)

    def _spread_chunk_windows(self, chunk, blocks: np.ndarray,
                              duration: np.ndarray) -> None:
        """Spread a chunk's ops/mass/clipped intervals over its windows.

        Expands each record into its (record, window) overlap pairs with
        a repeat/arange trick, computes clip bounds and overlap
        fractions elementwise (clipped endpoints are selected, never
        computed, so window unions are exact), then hands each window
        its slice of the pairs; :meth:`_WindowAgg.totals` sums them
        exactly.  A row landing in a window below the emission pointer
        counts as a late window update and marks the window dirty,
        whether or not that window was ever emitted.
        """
        origin = self.origin
        window = self.window
        start, end = chunk.start, chunk.end
        n = start.shape[0]
        first = np.floor((start - origin) / window).astype(np.int64)
        last = np.floor((end - origin) / window).astype(np.int64)
        # A record ending exactly on a window edge contributes nothing
        # to that window: clip to [start, end).
        edge = (last > first) & (end == origin + last * window)
        last = last - edge
        zero = duration == 0.0
        last = np.where(zero, first, last)

        counts = last - first + 1
        total = int(counts.sum())
        rec_of = np.repeat(np.arange(n), counts)
        offsets = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts)
        widx = first[rec_of] + offsets
        w0 = origin + widx * window
        w1 = origin + (widx + 1) * window
        lo = np.maximum(start[rec_of], w0)
        hi = np.minimum(end[rec_of], w1)
        dur_pairs = duration[rec_of]
        frac = np.divide(np.maximum(hi - lo, 0.0), dur_pairs,
                         out=np.zeros(total), where=dur_pairs > 0.0)
        is_first = offsets == 0
        # Zero-duration records put their whole mass in the start window.
        contrib = np.where(zero[rec_of], 1.0, frac)

        if self._next_emit is not None:
            relevant = is_first | (hi > lo)
            late_pairs = relevant & (widx < self._next_emit)
            self._late_window_updates += int(np.count_nonzero(late_pairs))
            if np.any(late_pairs):
                self._dirty.update(
                    int(i) for i in np.unique(widx[late_pairs]))

        # Hand each window its slice of the pairs (stable sort: record
        # order within a window).
        order = np.argsort(widx, kind="stable")
        owner = widx[order]
        heads = np.flatnonzero(np.r_[True, owner[1:] != owner[:-1]])
        bounds = np.append(heads, total).tolist()
        masses = np.column_stack((blocks[rec_of] * contrib,
                                  chunk.nbytes[rec_of] * contrib))[order]
        starts_here = is_first[order]
        durations = dur_pairs[order]
        clipped = np.column_stack((lo, hi))[order]
        timed = (hi > lo)[order]
        windows = self._windows
        for index, a, b in zip(owner[heads].tolist(), bounds, bounds[1:]):
            agg = windows.get(index)
            if agg is None:
                agg = windows[index] = _WindowAgg()
            first_here = starts_here[a:b]
            agg.ops += int(np.count_nonzero(first_here))
            agg.masses.append(masses[a:b])
            agg.durations.append(durations[a:b][first_here])
            part = clipped[a:b][timed[a:b]]
            if len(part):
                agg.interval_arrays.append(part)

        fmin = int(first.min())
        fmax = int(first.max())
        lmax = int(last.max())
        if self._min_index is None or fmin < self._min_index:
            self._min_index = fmin
        if self._max_index is None or lmax > self._max_index:
            self._max_index = lmax
        if self._last_start_index is None or \
                fmax > self._last_start_index:
            self._last_start_index = fmax

    def _chunk_groups(self, name: str, chunk) -> tuple[list[str], np.ndarray]:
        """(labels, per-row inverse) of group ``name`` over a chunk."""
        if name == "pid" and name not in self._custom_groups:
            uniq, inv = np.unique(chunk.pid, return_inverse=True)
            return [str(int(v)) for v in uniq], inv
        if name == "op" and name not in self._custom_groups:
            uniq, inv = np.unique(np.asarray(chunk.op),
                                  return_inverse=True)
            return [str(v) for v in uniq], inv
        # Caller-supplied ``group_by`` keys are row-level: evaluated on
        # the rows (the buffered records themselves when the chunk came
        # from ingest, so fields the chunk drops — ``file`` — are still
        # there) unless the key offers a columnar form.
        uniq, inv = np.unique(chunk.keys(self._group_keys[name]),
                              return_inverse=True)
        return [str(v) for v in uniq], inv

    def _spread_chunk_groups(self, chunk, blocks: np.ndarray) -> None:
        intervals = chunk.intervals()
        nbytes = chunk.nbytes
        for name in self._group_keys:
            labels, inv = self._chunk_groups(name, chunk)
            groups = self._groups[name]
            nuniq = len(labels)
            ops_counts = np.bincount(inv, minlength=nuniq)
            # float64 sums of int64 are exact below 2**53 — far beyond
            # any real chunk's block/byte totals.
            blocks_sums = np.bincount(inv, weights=blocks,
                                      minlength=nuniq)
            bytes_sums = np.bincount(inv, weights=nbytes,
                                     minlength=nuniq)
            for g, key in enumerate(labels):
                agg = groups.get(key)
                if agg is None:
                    agg = groups[key] = _GroupAgg()
                agg.ops += int(ops_counts[g])
                agg.blocks += int(blocks_sums[g])
                agg.bytes += int(bytes_sums[g])
                agg.union.add_batch(
                    intervals if nuniq == 1 else intervals[inv == g])

    def _close_settled_windows(self) -> None:
        """Emit every window the watermark has passed, folding the row
        buffer first whenever a close is due.  The emission pointer
        starts at the lowest window seen, buffered rows included
        (``_min_index`` only covers folded ones)."""
        watermark = self._union.watermark
        if watermark == -math.inf:
            return
        if self._next_emit is None:
            lowest = [i for i in (self._min_index, self._rows_index)
                      if i is not None]
            if not lowest:
                return
            self._next_emit = min(lowest)
        if watermark != math.inf and \
                self._next_emit >= self._index_of(watermark):
            return
        self._flush()
        settled = (self._max_index + 1 if watermark == math.inf
                   else self._index_of(watermark))
        while self._next_emit < settled and \
                self._next_emit <= self._max_index:
            index = self._next_emit
            self._next_emit = index + 1
            stats = self._window_stats(index)
            self._emit(stats.as_event())
            self._observe(stats)

    def _window_stats(self, index: int) -> WindowStats:
        w0, w1 = self._window_bounds(index)
        agg = self._windows.get(index) or _WindowAgg()
        blocks, nbytes, dur_sum = agg.totals()
        combined = agg.combined_intervals()
        io_time = union_time(combined) if combined is not None else 0.0
        if io_time > 0.0:
            bps = blocks / io_time
            iops = agg.ops / io_time
            bandwidth = nbytes / io_time
        else:
            bps = iops = bandwidth = 0.0
        arpt = dur_sum / agg.ops if agg.ops else 0.0
        return WindowStats(index=index, start=w0, end=w1, ops=agg.ops,
                           blocks=blocks, bytes=nbytes,
                           io_time=io_time, bps=bps, iops=iops,
                           bandwidth=bandwidth, arpt=arpt)

    def _observe(self, stats: WindowStats) -> None:
        if self.detector is None and self.attributor is None:
            return
        if stats.ops == 0 and (self._last_start_index is None
                               or stats.index > self._last_start_index):
            # No request has *started* here or since: the run is
            # winding down (only spillover from earlier starts lands
            # past this point), so the quiet is end-of-trace, not a
            # stall worth flagging.  A mid-outage window always has a
            # later start on record by the time its watermark passes.
            return
        anomaly = None
        if self.detector is not None:
            # Remember the baseline this window is judged against, so
            # a late-record correction at finalize is re-judged on the
            # SAME footing (the end-of-run baseline may have drifted —
            # e.g. been inflated by a fail-fast storm — and would
            # otherwise flag healthy early windows retroactively).
            if len(self.detector._baseline) >= self.detector.min_history:
                self._judged_baselines[stats.index] = \
                    self.detector.baseline
            anomaly = self.detector.observe(stats)
        if self.attributor is not None:
            # The attributor follows the detector's verdict: healthy
            # windows feed its rolling baseline, flagged ones are
            # diffed and the evidence rides on the anomaly itself.
            suspects = self.attributor.observe_window(stats, anomaly)
            if anomaly is not None and suspects:
                anomaly = replace(anomaly, suspects=suspects)
        if anomaly is not None:
            self.anomalies.append(anomaly)
            self._emit(anomaly.as_event())

    def _reassess_dirty_windows(self) -> None:
        """Re-judge emitted windows that late records corrected.

        The detector observed those windows' *provisional* stats; the
        corrected stats can cross the drop threshold the provisional
        ones did not.  ``assess`` applies the flag rule without
        re-learning, so the baseline is not double-counted; windows the
        provisional pass already flagged are skipped.  Runs at
        finalize, before the ``final`` event, so the flag reaches the
        sinks before they close.  (The attributor's bucket for such a
        window is long pruned — corrected flags carry no suspects.)
        """
        if self.detector is None or not self._dirty:
            return
        flagged = {a.window_index for a in self.anomalies}
        for index in sorted(self._dirty):
            if index in flagged:
                continue
            baseline = self._judged_baselines.get(index)
            if baseline is None:
                continue  # window was never judged (warm-up / skipped)
            anomaly = self.detector.assess(self._window_stats(index),
                                           baseline=baseline)
            if anomaly is not None:
                self.anomalies.append(anomaly)
                self._emit(anomaly.as_event())

    def _emit(self, event: dict) -> None:
        for sink in self.sinks:
            sink.emit(event)

    # -- queries (each read of folded state folds the buffer first) ------

    @property
    def ops(self) -> int:
        self._flush()
        return self._ops

    @property
    def blocks(self) -> int:
        self._flush()
        return self._blocks

    @property
    def nbytes(self) -> int:
        self._flush()
        return self._bytes

    @property
    def late_window_updates(self) -> int:
        self._flush()
        return self._late_window_updates

    @property
    def _dirty_windows(self) -> set[int]:
        self._flush()
        return self._dirty

    @property
    def late_records(self) -> int:
        return self._union.late_records

    @property
    def watermark(self) -> float:
        """The union's settled-start watermark (-inf before data)."""
        return self._union.watermark

    @property
    def pending_records(self) -> int:
        """Intervals currently held in the bounded reorder heap."""
        return self._union.pending_records

    @property
    def max_pending(self) -> int:
        """The reorder heap's explicit memory bound."""
        return self._union.reorder_capacity

    @property
    def forced_watermarks(self) -> int:
        """Times the heap bound forced the watermark forward."""
        return self._union.forced_watermarks

    def union_io_time(self) -> float:
        """Streaming union time of everything ingested so far."""
        return self._union.union_time()

    def snapshot(self, *, emit: bool = False) -> LiveSnapshot:
        """Exact cumulative metrics at this instant."""
        self._flush()
        t = self._union.union_time()
        snap = LiveSnapshot(
            time=self._last_end if self._ops else 0.0,
            ops=self._ops, blocks=self._blocks, bytes=self._bytes,
            io_time=t,
            bps=self._blocks / t if t > 0 else 0.0,
            iops=self._ops / t if t > 0 else 0.0,
            bandwidth=self._bytes / t if t > 0 else 0.0,
            arpt=self._dur_sum / self._ops if self._ops else 0.0,
            windows_closed=(0 if self._next_emit is None
                            else self._next_emit - self._min_index),
            late_records=self.late_records,
        )
        if emit:
            self._emit(snap.as_event())
        return snap

    def breakdown(self, name: str) -> tuple[GroupStats, ...]:
        """Cumulative per-group stats ('pid', 'op', or a custom group)."""
        self._flush()
        try:
            groups = self._groups[name]
        except KeyError:
            known = ", ".join(sorted(self._groups))
            raise LiveStreamError(
                f"unknown group {name!r}; known: {known}") from None
        out = []
        for key in sorted(groups):
            agg = groups[key]
            t = agg.union.union_time()
            out.append(GroupStats(
                key=key, ops=agg.ops, blocks=agg.blocks, bytes=agg.bytes,
                io_time=t, bps=agg.blocks / t if t > 0 else 0.0))
        return tuple(out)

    # -- shard export ------------------------------------------------------

    def partial_state(self, *, compact: bool = False) -> dict:
        """Everything a shard must hand over for an exact global merge.

        Interval unions over disjoint segment lists merge associatively,
        so per-window interval sets and the cumulative union are
        exported as *canonical segments*: the parent re-merges the
        shards' segment lists and lands on the same canonical union —
        hence the same bit-exact union times — as a single stream fed
        every record.  Integer totals add exactly; float masses add to
        re-association precision.  The dict is picklable (NumPy arrays
        and scalars only) and doubles as the shard respawn snapshot
        consumed by :meth:`restore_state`.
        """
        self._flush()
        windows = {}
        for index, agg in self._windows.items():
            combined = agg.combined_intervals()
            segments = (np.empty((0, 2)) if combined is None
                        else merge_intervals(combined))
            blocks, nbytes, dur_sum = agg.totals()
            if compact:
                # Replace the accumulated clip lists with their merged
                # segments (union-of-unions: no information lost) and
                # the mass arrays with their sums, so repeated
                # snapshots stay O(open windows), not O(run).
                agg.interval_arrays = (
                    [segments] if len(segments) else [])
                agg.masses = [np.array([[blocks, nbytes]])]
                agg.durations = [np.array([dur_sum])]
            windows[int(index)] = {
                "ops": agg.ops, "blocks": blocks,
                "bytes": nbytes, "dur_sum": dur_sum,
                "segments": segments,
            }
        groups = {}
        for name, keyed in self._groups.items():
            groups[name] = {
                key: {"ops": agg.ops, "blocks": agg.blocks,
                      "bytes": agg.bytes,
                      "segments": agg.union.segments()}
                for key, agg in keyed.items()
            }
        return {
            "origin": self.origin,
            "ops": self._ops, "blocks": self._blocks,
            "bytes": self._bytes, "dur_sum": self._dur_sum,
            "failed": self._failed, "retries": self._retries,
            "first_start": self._first_start,
            "last_end": self._last_end,
            "union_segments": self._union.segments(),
            "union_watermark": self._union.watermark,
            "late_records": self.late_records,
            "late_window_updates": self._late_window_updates,
            "forced_watermarks": self.forced_watermarks,
            "min_index": self._min_index,
            "max_index": self._max_index,
            "last_start_index": self._last_start_index,
            "next_emit": self._next_emit,
            "dirty_windows": sorted(self._dirty),
            "judged_baselines": sorted(self._judged_baselines.items()),
        } | {"windows": windows, "groups": groups}

    def restore_state(self, state: dict) -> None:
        """Rebuild from a :meth:`partial_state` snapshot (shard respawn).

        Only valid on a freshly constructed stream.  Segments re-enter
        through the same canonical-union insertion the live path uses,
        so a restored shard is indistinguishable from one that never
        died — the crash test replays the buffered chunks afterwards and
        asserts the merged result is still bit-identical to batch.
        """
        if self._finalized or self.ops:
            raise LiveStreamError("restore_state() on a used stream")
        self.origin = state["origin"]
        self._ops = state["ops"]
        self._blocks = state["blocks"]
        self._bytes = state["bytes"]
        self._dur_sum = state["dur_sum"]
        self._failed = state["failed"]
        self._retries = state["retries"]
        self._first_start = state["first_start"]
        self._last_end = state["last_end"]
        segments = state["union_segments"]
        if len(segments):
            self._union.add_batch(segments)
        self._union.advance_watermark(state["union_watermark"])
        self._union.records_seen = state["ops"]
        self._union.late_records = state["late_records"]
        self._union.forced_watermarks = state["forced_watermarks"]
        self._late_window_updates = state["late_window_updates"]
        self._min_index = state["min_index"]
        self._max_index = state["max_index"]
        self._last_start_index = state.get("last_start_index")
        self._next_emit = state["next_emit"]
        self._dirty = set(state.get("dirty_windows", ()))
        self._judged_baselines = {
            int(index): value
            for index, value in state.get("judged_baselines", ())}
        for index, win in state["windows"].items():
            agg = _WindowAgg()
            agg.ops = win["ops"]
            agg.masses = [np.array([[win["blocks"], win["bytes"]]])]
            agg.durations = [np.array([win["dur_sum"]])]
            if len(win["segments"]):
                agg.interval_arrays.append(
                    np.asarray(win["segments"], dtype=float))
            self._windows[int(index)] = agg
        for name, keyed in state["groups"].items():
            groups = self._groups.setdefault(name, {})
            for key, grp in keyed.items():
                agg = _GroupAgg()
                agg.ops = grp["ops"]
                agg.blocks = grp["blocks"]
                agg.bytes = grp["bytes"]
                if len(grp["segments"]):
                    agg.union.add_batch(grp["segments"])
                groups[key] = agg

    # -- settle ------------------------------------------------------------

    def finalize(self, *, exec_time: float | None = None,
                 label: str = "live") -> LiveResult:
        """Close every window, emit the final event, settle the result.

        ``exec_time`` defaults to the stream's wall span (first start to
        last end) — the same default ``bps analyze`` applies to recorded
        traces.  The returned window series is exact even when closed
        windows received late updates: stats are recomputed from the
        stored aggregates.
        """
        if self._finalized:
            raise LiveStreamError("finalize() called twice")
        self._flush()
        if self._ops == 0:
            raise LiveStreamError("finalize() on an empty stream")
        t = self._union.finalize()
        self._close_settled_windows()
        self._reassess_dirty_windows()
        self._finalized = True
        if t <= 0.0:
            raise LiveStreamError(
                "live metrics undefined: union I/O time is zero")
        span = self._last_end - self._first_start
        exec_time = span if exec_time is None else exec_time
        if exec_time <= 0.0:
            # Degenerate zero-span traces: fall back to the trace's own
            # active time so the MetricSet invariant (exec_time > 0)
            # holds — mirrors what `bps analyze --exec-time` would need.
            exec_time = t
        windows = tuple(self._window_stats(i)
                        for i in range(self._min_index,
                                       self._max_index + 1))
        metrics = MetricSet(
            iops=self._ops / t,
            bandwidth=self._bytes / t,
            arpt=self._dur_sum / self._ops,
            bps=self._blocks / t,
            exec_time=exec_time,
            union_io_time=t,
            app_ops=self._ops,
            app_bytes=self._bytes,
            app_blocks=self._blocks,
            fs_bytes=self._bytes,
            block_size=self.block_size,
            label=label,
            extras={
                "failed_records": self._failed,
                "total_retries": self._retries,
                "late_records": self.late_records,
                "late_window_updates": self._late_window_updates,
                "forced_watermarks": self.forced_watermarks,
            },
        )
        result = LiveResult(
            metrics=metrics,
            windows=windows,
            anomalies=tuple(self.anomalies),
            breakdowns={name: self.breakdown(name)
                        for name in self._groups},
            late_records=self.late_records,
            late_window_updates=self._late_window_updates,
        )
        self._emit({
            "type": "final", "ops": self._ops, "blocks": self._blocks,
            "bytes": self._bytes, "io_time": t, "bps": metrics.bps,
            "iops": metrics.iops, "bandwidth": metrics.bandwidth,
            "arpt": metrics.arpt, "exec_time": exec_time,
            "windows": len(windows), "anomalies": len(self.anomalies),
            "late_records": self.late_records,
        })
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
        return result
