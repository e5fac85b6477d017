"""Property suite: chunked ingest == per-record ingest == batch.

The vectorised path's acceptance property, pinned under Hypothesis:
however a delivery sequence is cut into chunks — including chunk
boundaries landing mid-window, adversarial watermark lag, a reorder
heap squeezed down to a few slots, or the chunks fanned out over 1..3
shard processes — the settled result agrees with per-record ingest and
with the batch pipeline:

- **exactly** (``==``) for everything integer-or-union-derived:
  cumulative ops/blocks/bytes, union I/O time, BPS, IOPS, bandwidth,
  per-window ops and io_time, and every per-group breakdown figure;
- to float re-association for the per-window block/byte masses and the
  ARPT duration sum (the documented deviation in
  :mod:`repro.live.chunk` — a window's mass spanning a chunk boundary
  accumulates in a different grouping).
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.metrics import compute_metrics
from repro.core.records import IORecord, TraceCollection
from repro.live import (
    MemorySink,
    MetricStream,
    RecordChunk,
    ShardedMetricStream,
)

finite_start = st.floats(min_value=0.0, max_value=100.0,
                         allow_nan=False, allow_infinity=False)
length = st.floats(min_value=0.0, max_value=25.0, allow_nan=False)


@st.composite
def record_lists(draw, max_size=30):
    n = draw(st.integers(min_value=1, max_value=max_size))
    out = []
    for k in range(n):
        start = draw(finite_start)
        # At least one record must have positive duration — a trace
        # whose union time is zero has no defined metrics (both paths
        # raise identically; not the property under test).
        dur = draw(length) if k else draw(
            st.floats(min_value=0.01, max_value=25.0, allow_nan=False))
        out.append(IORecord(
            pid=draw(st.integers(min_value=0, max_value=3)),
            op=draw(st.sampled_from(["read", "write"])),
            nbytes=draw(st.integers(min_value=0, max_value=10_000)),
            start=start,
            end=start + dur,
            offset=0,
            success=draw(st.booleans()),
            retries=draw(st.integers(min_value=0, max_value=2))))
    return out


@st.composite
def deliveries(draw, max_size=30):
    """(records in delivery order, chunk cut points, window width)."""
    records = draw(record_lists(max_size=max_size))
    n = len(records)
    cuts = draw(st.lists(st.integers(min_value=1, max_value=max(1, n)),
                         max_size=5))
    window = draw(st.floats(min_value=0.5, max_value=40.0,
                            allow_nan=False))
    return records, sorted({0, n, *[c for c in cuts if c < n]}), window


def _chunks(records, cuts):
    for lo, hi in zip(cuts, cuts[1:]):
        if hi > lo:
            yield RecordChunk.from_records(records[lo:hi])


def _per_record(records, window, **kwargs):
    stream = MetricStream(window=window, **kwargs)
    for record in records:
        stream.ingest(record)
    return stream.finalize()


def _chunked(records, cuts, window, **kwargs):
    stream = MetricStream(window=window, **kwargs)
    for chunk in _chunks(records, cuts):
        stream.push_chunk(chunk)
    return stream.finalize()


def _assert_equivalent(a, b):
    """a == b: exact for ints/unions/rates, isclose for float masses."""
    ma, mb = a.metrics, b.metrics
    assert ma.app_ops == mb.app_ops
    assert ma.app_blocks == mb.app_blocks
    assert ma.app_bytes == mb.app_bytes
    assert ma.union_io_time == mb.union_io_time
    assert ma.bps == mb.bps
    assert ma.iops == mb.iops
    assert ma.bandwidth == mb.bandwidth
    assert math.isclose(ma.arpt, mb.arpt, rel_tol=1e-9, abs_tol=1e-12)
    assert ma.extras["failed_records"] == mb.extras["failed_records"]
    assert ma.extras["total_retries"] == mb.extras["total_retries"]
    assert len(a.windows) == len(b.windows)
    for wa, wb in zip(a.windows, b.windows):
        assert wa.index == wb.index
        assert wa.ops == wb.ops
        assert wa.io_time == wb.io_time  # clipped union: exact
        assert math.isclose(wa.blocks, wb.blocks,
                            rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(wa.bytes, wb.bytes,
                            rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(wa.arpt, wb.arpt,
                            rel_tol=1e-9, abs_tol=1e-12)
    assert set(a.breakdowns) == set(b.breakdowns)
    for name in a.breakdowns:
        ga = {g.key: g for g in a.breakdowns[name]}
        gb = {g.key: g for g in b.breakdowns[name]}
        assert ga.keys() == gb.keys()
        for key in ga:
            assert ga[key].ops == gb[key].ops
            assert ga[key].blocks == gb[key].blocks
            assert ga[key].bytes == gb[key].bytes
            assert ga[key].io_time == gb[key].io_time
            assert ga[key].bps == gb[key].bps


def _batch(records, result, block_size=512):
    trace = TraceCollection(records)
    return compute_metrics(trace, exec_time=result.metrics.exec_time,
                           block_size=block_size)


class TestChunkedEqualsPerRecord:
    @given(case=deliveries())
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_chunk_boundaries(self, case):
        records, cuts, window = case
        ref = _per_record(records, window)
        out = _chunked(records, cuts, window)
        _assert_equivalent(out, ref)

    @given(case=deliveries(),
           lag=st.floats(min_value=0.0, max_value=100.0,
                         allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_adversarial_watermark_lag(self, case, lag):
        records, cuts, window = case
        ref = _per_record(records, window, watermark_lag=lag)
        out = _chunked(records, cuts, window, watermark_lag=lag)
        _assert_equivalent(out, ref)

    @given(case=deliveries(),
           capacity=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_tiny_reorder_heap(self, case, capacity):
        """Forced watermarks degrade lateness, never cumulative truth."""
        records, cuts, window = case
        out = _chunked(records, cuts, window, max_pending=capacity)
        batch = _batch(records, out)
        assert out.metrics.bps == batch.bps
        assert out.metrics.union_io_time == batch.union_io_time

    @given(case=deliveries())
    @settings(max_examples=60, deadline=None)
    def test_chunked_equals_batch(self, case):
        records, cuts, window = case
        out = _chunked(records, cuts, window)
        batch = _batch(records, out)
        assert out.metrics.bps == batch.bps
        assert out.metrics.iops == batch.iops
        assert out.metrics.bandwidth == batch.bandwidth
        assert out.metrics.union_io_time == batch.union_io_time
        assert out.metrics.app_blocks == batch.app_blocks
        # Per-window io_time re-sums to the cumulative union exactly.
        assert math.isclose(sum(w.io_time for w in out.windows),
                            out.metrics.union_io_time,
                            rel_tol=1e-9, abs_tol=1e-12)


class TestShardedEqualsBatch:
    @given(case=deliveries(max_size=20),
           shards=st.integers(min_value=1, max_value=3),
           partition=st.sampled_from(["hash", "time"]))
    @settings(max_examples=10, deadline=None)
    def test_any_shard_count(self, case, shards, partition):
        records, cuts, window = case
        stream = ShardedMetricStream(window=window, shards=shards,
                                     partition=partition, sync_every=2)
        for chunk in _chunks(records, cuts):
            stream.push_chunk(chunk)
        out = stream.finalize()
        ref = _chunked(records, cuts, window)
        _assert_equivalent(out, ref)
        batch = _batch(records, out)
        assert out.metrics.bps == batch.bps
        assert out.metrics.union_io_time == batch.union_io_time


@st.composite
def in_order_streams(draw):
    """(records in completion order, window width): up to 600 rows, so
    the per-record row buffer fills as well as folding at closes."""
    n = draw(st.integers(min_value=1, max_value=600))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = rng.uniform(0.0, 100.0, n)
    duration = rng.exponential(draw(st.floats(0.01, 10.0)), n)
    duration[rng.random(n) < 0.1] = 0.0
    duration[0] = max(duration[0], 0.01)
    records = [IORecord(pid=int(p), op="read", nbytes=int(b),
                        start=float(s), end=float(s + d))
               for p, b, s, d in zip(rng.integers(0, 4, n),
                                     rng.integers(0, 10_000, n),
                                     start, duration)]
    records.sort(key=lambda r: (r.end, r.start))
    window = draw(st.floats(min_value=0.5, max_value=40.0,
                            allow_nan=False))
    return records, window


class TestFlushBeforeClose:
    @given(case=in_order_streams(),
           slack=st.floats(min_value=0.0, max_value=20.0))
    @settings(max_examples=60, deadline=None)
    def test_provisional_windows_are_final(self, case, slack):
        """With a lag covering the longest request no record is late,
        so every window event emitted during ingest already holds every
        row of its window — a buffered row that missed its window's
        close would show here as a provisional/final mismatch."""
        records, window = case
        lag = max(r.duration for r in records) + slack
        sink = MemorySink()
        stream = MetricStream(window=window, watermark_lag=lag,
                              sinks=[sink])
        for record in records:
            stream.ingest(record)
            stream.advance_watermark(record.end - lag)
        provisional = list(sink.of_type("window"))
        final = {w.index: w for w in stream.finalize().windows}
        assert stream.late_records == 0
        for event in provisional:
            settled = final[event["index"]]
            assert event["ops"] == settled.ops
            assert event["io_time"] == settled.io_time
