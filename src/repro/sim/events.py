"""Waitable primitives for the simulation engine.

A *waitable* is anything a process generator may ``yield``: it exposes
:meth:`Waitable.subscribe`, and the engine resumes the process when the
waitable fires.  Concrete waitables:

- :class:`Completion` — a one-shot promise, triggered exactly once with a
  value (or an exception, which is re-raised inside the waiting process).
- :class:`Timeout` — fires after a fixed simulated delay.
- :class:`AllOf` / :class:`AnyOf` — combinators over other waitables.

Processes themselves are waitables (see :mod:`repro.sim.process`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Engine

Callback = Callable[["Waitable"], None]


class Waitable:
    """Base class: something a process can wait on.

    Subclasses must arrange for :meth:`_fire` to be called exactly once.
    """

    __slots__ = ("engine", "_callbacks", "_fired", "value", "exception")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self._callbacks: list[Callback] | None = []
        self._fired = False
        self.value: Any = None
        self.exception: BaseException | None = None

    @property
    def fired(self) -> bool:
        """True once the waitable has produced its result."""
        return self._fired

    def subscribe(self, callback: Callback) -> None:
        """Register ``callback(self)`` to run when the waitable fires.

        Subscribing to an already-fired waitable schedules the callback
        immediately (at the current simulated time), preserving run-order
        determinism.
        """
        if self._fired:
            self.engine.call_soon(callback, self)
        else:
            assert self._callbacks is not None
            self._callbacks.append(callback)

    def _fire(self, value: Any = None,
              exception: BaseException | None = None) -> None:
        if self._fired:
            raise SimulationError(f"{self!r} fired twice")
        self._fired = True
        self.value = value
        self.exception = exception
        callbacks, self._callbacks = self._callbacks, None
        if callbacks:
            schedule_now = self.engine._schedule_now
            args = (self,)
            for cb in callbacks:
                schedule_now(cb, args)

    def result(self) -> Any:
        """The fired value; raises the stored exception if one was set."""
        if not self._fired:
            raise SimulationError(f"{self!r} has not fired yet")
        if self.exception is not None:
            raise self.exception
        return self.value


class Completion(Waitable):
    """A one-shot promise another process (or callback) triggers.

    >>> done = Completion(engine)
    >>> # producer side:   done.trigger(payload)
    >>> # consumer side:   payload = yield done
    """

    __slots__ = ()

    def trigger(self, value: Any = None) -> None:
        """Fire successfully with ``value``."""
        self._fire(value=value)

    def fail(self, exception: BaseException) -> None:
        """Fire with an exception; waiters see it re-raised."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"not an exception: {exception!r}")
        self._fire(exception=exception)


class Grant(Completion):
    """A :class:`Completion` a resource hands out from ``acquire()``.

    It remembers when it was requested, so the resource can charge the
    queueing delay to ``total_wait_time`` when the grant fires.
    """

    __slots__ = ("requested_at",)

    def __init__(self, engine: "Engine", requested_at: float) -> None:
        self.engine = engine
        self._callbacks = []
        self._fired = False
        self.value = None
        self.exception = None
        self.requested_at = requested_at


class Timeout(Waitable):
    """Fires ``delay`` simulated seconds after construction."""

    __slots__ = ("delay",)

    def __init__(self, engine: "Engine", delay: float,
                 value: Any = None) -> None:
        # Fields inlined (no ``Waitable.__init__`` call): a timeout is
        # created for every simulated service time.
        self.engine = engine
        self._callbacks = []
        self._fired = False
        self.value = None
        self.exception = None
        self.delay = delay
        engine._schedule(delay, Waitable._fire, (self, value))


class AllOf(Waitable):
    """Fires when every child has fired; value = list of child values.

    If any child fails, the combinator fails with the *first* child
    exception (in child order) once all children have fired.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, engine: "Engine",
                 children: Sequence[Waitable]) -> None:
        super().__init__(engine)
        self._children = list(children)
        self._pending = len(self._children)
        if self._pending == 0:
            engine.call_soon(self._fire, [])
        else:
            for child in self._children:
                child.subscribe(self._on_child)

    def _on_child(self, _child: Waitable) -> None:
        self._pending -= 1
        if self._pending == 0:
            for child in self._children:
                if child.exception is not None:
                    self._fire(exception=child.exception)
                    return
            self._fire(value=[c.value for c in self._children])


class AnyOf(Waitable):
    """Fires when the first child fires; value = (index, child value)."""

    __slots__ = ("_children", "_done")

    def __init__(self, engine: "Engine",
                 children: Sequence[Waitable]) -> None:
        super().__init__(engine)
        self._children = list(children)
        if not self._children:
            raise SimulationError("AnyOf needs at least one child")
        self._done = False
        on_child = self._on_child
        for child in self._children:
            child.subscribe(on_child)

    def _on_child(self, child: Waitable) -> None:
        if self._done:
            return
        self._done = True
        if child.exception is not None:
            self._fire(exception=child.exception)
            return
        # The first handler to run belongs to the child's first position
        # (a child listed twice subscribed there first).
        for index, candidate in enumerate(self._children):
            if candidate is child:
                self._fire(value=(index, child.value))
                return
