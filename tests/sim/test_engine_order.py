"""The ``(time, seq)`` order contract, checked against a heap-only kernel.

The engine keeps zero-delay callbacks in a same-instant ready queue and
merges it with the timed heap.  These tests run random programs on the
engine and on :class:`HeapOnlyEngine` — the plain heap loop where every
callback, zero-delay or not, is a heap entry ordered by ``(time, seq)`` —
and require the same callbacks in the same order at the same clock.
"""

from __future__ import annotations

import heapq
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.sim.engine import Engine


class HeapOnlyEngine(Engine):
    """Reference kernel: one heap of ``(time, seq, callback, args)``.

    It replaces the engine's queue writers and readers and keeps
    everything else (waitables, processes and resources schedule through
    the writers), so the same programs run on both kernels.
    """

    def _schedule(self, delay, callback, args):
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"invalid delay: {delay}")
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq,
                                    callback, args))

    def _schedule_now(self, callback, args):
        self._schedule(0.0, callback, args)

    def run(self, until=math.inf, *, detect_deadlock=True):
        while self.step(until):
            pass

    def step(self, until=math.inf):
        if not self._heap:
            return False
        when, _seq, callback, args = self._heap[0]
        if when > until:
            self.now = max(self.now, until)
            return False
        heapq.heappop(self._heap)
        self.now = when
        callback(*args)
        return True

    @property
    def pending_events(self):
        return len(self._heap)


# Delays with ties (equal sums), tiny ones (distinct from 0 only near
# t=0) and -0.0, which must behave exactly like 0.
DELAYS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 2.0, 1e-300])
# At 2**53 the float spacing is 2.0, so every delay above rounds to
# `now`: the heap then holds entries due at `now` that interleave by seq
# with the ready queue.
STARTS = st.sampled_from([0.0, 2.0 ** 53])
UNTILS = st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0, 5.0])


def _node(children):
    return st.one_of(
        st.tuples(st.sampled_from(["later", "at", "timeout"]), DELAYS,
                  children),
        st.tuples(st.sampled_from(["soon", "fired", "kill"]), st.none(),
                  children),
        st.tuples(st.just("proc"),
                  st.lists(st.one_of(DELAYS, st.none()),
                           max_size=3).map(tuple),
                  children),
    )


NODES = st.recursive(
    _node(st.just(())),
    lambda inner: _node(st.lists(inner, max_size=3).map(tuple)),
    max_leaves=20,
)
PROGRAMS = st.lists(NODES, min_size=1, max_size=5)
RUN_CALLS = st.lists(
    st.one_of(st.tuples(st.just("step"), st.just(math.inf)),
              st.tuples(st.sampled_from(["step", "run"]), UNTILS)),
    max_size=8,
)


class _Interpreter:
    """Schedules a program's nodes; every callback logs ``(label, now)``."""

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.log: list[tuple] = []
        self.labels = itertools.count()
        self.procs: list = []

    def schedule(self, node) -> None:
        kind, param, children = node
        label = next(self.labels)
        eng = self.engine

        def fire(*_args):
            self.log.append((label, eng.now))
            for child in children:
                self.schedule(child)

        if kind == "later":
            eng.call_later(param, fire)
        elif kind == "at":
            eng.call_at(eng.now + param, fire)
        elif kind == "soon":
            eng.call_soon(fire)
        elif kind == "timeout":
            eng.timeout(param).subscribe(fire)
        elif kind == "fired":
            done = eng.completion()
            done.trigger(label)
            done.subscribe(fire)  # already fired: runs via the queue
        elif kind == "kill":
            if self.procs:
                self.procs[-1].kill()
            eng.call_soon(fire)
        else:
            proc = eng.spawn(self._proc(label, param))
            self.procs.append(proc)
            proc.subscribe(fire)

    def _proc(self, label, steps):
        eng = self.engine
        for delay in steps:
            if delay is None:
                done = eng.completion()
                done.trigger(None)
                yield done  # an already-fired waitable
            else:
                yield eng.timeout(delay)
            self.log.append((label, "resume", eng.now))


def _execute(engine: Engine, start: float, program, run_calls):
    engine.now = start
    interp = _Interpreter(engine)
    for node in program:
        interp.schedule(node)
    states = [(engine.now, engine.pending_events)]
    for action, until in run_calls:
        if action == "step":
            ran = engine.step(start + until)
        else:
            engine.run(start + until)
            ran = None
        states.append((ran, engine.now, len(interp.log),
                       engine.pending_events))
    engine.run()
    states.append((engine.now, engine.pending_events, engine._seq))
    return interp.log, states


class TestOrderContract:
    @settings(max_examples=300, deadline=None)
    @given(start=STARTS, program=PROGRAMS, run_calls=RUN_CALLS)
    def test_same_order_as_heap_only_kernel(self, start, program, run_calls):
        expected = _execute(HeapOnlyEngine(), start, program, run_calls)
        assert _execute(Engine(), start, program, run_calls) == expected

    def test_heap_entry_due_now_runs_before_later_ready_entry(self):
        # Both callbacks are due at t=1: `a` from the heap (scheduled at
        # t=0), `b` from the ready queue (scheduled at t=1 by `first`).
        for engine in (Engine(), HeapOnlyEngine()):
            order = []

            def first(eng=engine, order=order):
                order.append("first")
                eng.call_soon(order.append, "b")

            engine.call_later(1.0, first)
            engine.call_later(1.0, order.append, "a")
            engine.run()
            assert order == ["first", "a", "b"]

    def test_delay_rounding_to_now_keeps_seq_order(self):
        engine = Engine()
        engine.now = 2.0 ** 53
        order = []
        engine.call_later(1.0, order.append, "rounded")  # now + 1 == now
        engine.call_soon(order.append, "soon")
        engine.call_later(0.5, order.append, "rounded-again")
        engine.run()
        assert order == ["rounded", "soon", "rounded-again"]
        assert engine.now == 2.0 ** 53

    def test_pending_events_counts_both_queues(self, engine):
        engine.call_later(1.0, lambda: None)
        engine.call_soon(lambda: None)
        engine.timeout(0.0)
        assert engine.pending_events == 3
        assert engine.step()
        assert engine.pending_events == 2
        engine.run()
        assert engine.pending_events == 0
        assert engine._seq == 3


BAD_DELAYS = [-1.0, -1e-300, float("nan"), -math.inf]


class TestDelayValidation:
    @pytest.mark.parametrize("delay", BAD_DELAYS)
    def test_call_later_rejects(self, engine, delay):
        with pytest.raises(SimulationError) as info:
            engine.call_later(delay, lambda: None)
        assert "\n" not in str(info.value)
        assert engine.pending_events == 0 and engine._seq == 0

    @pytest.mark.parametrize("delay", BAD_DELAYS)
    def test_timeout_rejects(self, engine, delay):
        with pytest.raises(SimulationError) as info:
            engine.timeout(delay)
        assert "\n" not in str(info.value)
        assert engine.pending_events == 0 and engine._seq == 0

    @pytest.mark.parametrize("when", [-1.0, float("nan"), -math.inf])
    def test_call_at_rejects(self, engine, when):
        engine.now = 1.0
        with pytest.raises(SimulationError) as info:
            engine.call_at(when, lambda: None)
        assert "\n" not in str(info.value)
        assert engine.pending_events == 0 and engine._seq == 0

    def test_negative_zero_is_zero(self, engine):
        order = []
        engine.call_later(1.0, order.append, "timed")
        engine.call_later(-0.0, order.append, "later-0")
        engine.timeout(-0.0).subscribe(lambda _t: order.append("timeout-0"))
        engine.call_soon(order.append, "soon")
        engine.run()
        assert order == ["later-0", "soon", "timeout-0", "timed"]
