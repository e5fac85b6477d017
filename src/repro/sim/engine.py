"""The event loop: a time-ordered heap plus a same-instant ready queue.

Determinism contract: every callback runs in ``(time, seq)`` order, where
``seq`` is the order in which it was scheduled.  Two events scheduled for
the same simulated time therefore run in the order they were scheduled.
This makes every simulation replayable bit-for-bit from its seed, which
the experiment harness relies on (the paper averages 5 runs; we vary only
the seed between repetitions).

Zero-delay callbacks (``call_soon``, waitables firing, process starts) are
the bulk of all events.  They go to a FIFO ``deque`` instead of the heap;
every entry there is due at ``now`` and the queue is in ``seq`` order.
The run loop merges the two queues by the contract: a heap entry runs
first only when it is due at ``now`` (it cannot be due earlier) with a
smaller ``seq`` than the ready queue's head.  That covers events timed
earlier to land exactly on ``now`` and positive delays that round to
``now`` at a large clock value.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from typing import Any, Callable, Generator

from repro.errors import DeadlockError, SimulationError
from repro.sim.events import Completion, Timeout, AllOf, AnyOf
from repro.sim.process import Process

_heappush = heapq.heappush
_heappop = heapq.heappop


class Engine:
    """Discrete-event simulation kernel.

    ``_seq`` counts every callback ever scheduled (both queues), so it is
    also the number of events a finished run executed.

    >>> eng = Engine()
    >>> def proc(eng):
    ...     yield eng.timeout(1.5)
    ...     return eng.now
    >>> p = eng.spawn(proc(eng))
    >>> eng.run()
    >>> p.result()
    1.5
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], tuple]] = []
        self._ready: deque[tuple[int, Callable[..., None], tuple]] = deque()
        self._seq: int = 0
        self._live_processes: int = 0
        self._spawned: int = 0
        self._running = False

    # -- scheduling --------------------------------------------------------

    def call_later(self, delay: float, callback: Callable[..., None],
                   *args: Any) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        self._schedule(delay, callback, args)

    def call_at(self, when: float, callback: Callable[..., None],
                *args: Any) -> None:
        """Run ``callback(*args)`` at absolute simulated time ``when``."""
        if when < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {when} < now={self.now}"
            )
        self._schedule(when - self.now, callback, args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at the current time, after queued work."""
        self._schedule_now(callback, args)

    # The two methods below are the only writers of the queues (the
    # waitables, processes and resources of this package call them with
    # a ready-made ``args`` tuple); ``run`` and ``step`` the only readers.

    def _schedule(self, delay: float, callback: Callable[..., None],
                  args: tuple) -> None:
        if delay > 0:
            self._seq += 1
            _heappush(self._heap, (self.now + delay, self._seq,
                                   callback, args))
        elif delay == 0:  # -0.0 included; NaN and negatives are not
            self._seq += 1
            self._ready.append((self._seq, callback, args))
        else:
            raise SimulationError(f"invalid delay: {delay}")

    def _schedule_now(self, callback: Callable[..., None],
                      args: tuple) -> None:
        self._seq += 1
        self._ready.append((self._seq, callback, args))

    # -- waitable factories -------------------------------------------------

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """A waitable that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def completion(self) -> Completion:
        """A fresh one-shot promise bound to this engine."""
        return Completion(self)

    def all_of(self, children) -> AllOf:
        """Waitable that fires when all children fire."""
        return AllOf(self, children)

    def any_of(self, children) -> AnyOf:
        """Waitable that fires when the first child fires."""
        return AnyOf(self, children)

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a new process from a generator; returns the Process."""
        return Process(self, generator, name)

    # -- execution ----------------------------------------------------------

    def run(self, until: float = math.inf, *,
            detect_deadlock: bool = True) -> None:
        """Run events until both queues drain or ``until`` is reached.

        With ``detect_deadlock`` (default), raises :class:`DeadlockError`
        if the queues drain while spawned processes are still suspended —
        that means somebody waits on a completion nobody will trigger.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        heap = self._heap
        ready = self._ready
        popleft = ready.popleft
        try:
            if ready and self.now > until:
                # Ready entries are due at `now`; every later event is due
                # no earlier, so nothing may run.  Once running, `now`
                # only advances to heap times <= until.
                return
            while True:
                if ready:
                    now = self.now
                    if heap and heap[0][0] <= now \
                            and heap[0] < (now, ready[0][0]):
                        when, _seq, callback, args = _heappop(heap)
                        if when < now:  # pragma: no cover - heap invariant
                            raise SimulationError("time went backwards")
                    else:
                        _seq, callback, args = popleft()
                elif heap:
                    when, _seq, callback, args = heap[0]
                    if when > until:
                        # Clamp monotonically: a second run() with a
                        # smaller `until` must not move time backwards.
                        if until > self.now:
                            self.now = until
                        return
                    _heappop(heap)
                    if when < self.now:  # pragma: no cover - heap invariant
                        raise SimulationError("time went backwards")
                    self.now = when
                else:
                    break
                callback(*args)
            if detect_deadlock and self._live_processes > 0:
                raise DeadlockError(
                    f"event queue drained with {self._live_processes} "
                    f"process(es) still waiting at t={self.now}"
                )
        finally:
            self._running = False

    def step(self, until: float = math.inf) -> bool:
        """Run exactly one event; returns False if none are queued.

        Shares :meth:`run`'s invariants: an event timestamped before the
        current time raises :class:`SimulationError` (time never goes
        backwards — important after a ``run(until=...)`` advanced the
        clock), an event beyond ``until`` is left queued (the clock is
        clamped forward to ``until``, never back), and calling it from a
        callback that :meth:`run` or :meth:`step` is executing raises
        :class:`SimulationError` instead of nesting the next event inside
        the current one.
        """
        if self._running:
            raise SimulationError(
                "engine is already running (re-entrant step)")
        heap = self._heap
        ready = self._ready
        if ready and not (heap and heap[0][0] <= self.now
                          and heap[0] < (self.now, ready[0][0])):
            if self.now > until:
                return False
            _seq, callback, args = ready.popleft()
        elif heap:
            when, _seq, callback, args = heap[0]
            if when > until:
                if until > self.now:
                    self.now = until
                return False
            _heappop(heap)
            if when < self.now:
                raise SimulationError(
                    f"time went backwards: event at {when} < now={self.now}"
                )
            self.now = when
        else:
            return False
        self._running = True
        try:
            callback(*args)
        finally:
            self._running = False
        return True

    @property
    def pending_events(self) -> int:
        """Number of events currently queued (heap and ready queue)."""
        return len(self._heap) + len(self._ready)

    @property
    def live_processes(self) -> int:
        """Number of spawned processes that have not finished."""
        return self._live_processes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Engine now={self.now:.9g} pending={self.pending_events} "
            f"live={self._live_processes}>"
        )
