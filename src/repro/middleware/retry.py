"""Retry policy for graceful degradation at the middleware layer.

The paper's B counts "all successful accesses, non-successful ones, and
all concurrent ones" (section III.A) — BPS is *designed* to stay
meaningful when the I/O system misbehaves.  This module supplies the
machinery that makes applications survive such misbehaviour instead of
erroring out: a declarative :class:`RetryPolicy` (bounded retries,
exponential backoff with optional jitter, a per-operation timeout) and
the :func:`execute_attempts` driver that ``posix.py``/``mpiio.py``
``yield from`` around each mount operation.

Every attempt — first issue, retries, timed-out tries — is reported
back to the caller so it can emit one trace record per attempt; the
recovery traffic therefore lands in B and in the union-time denominator
exactly as the paper prescribes for non-successful accesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MiddlewareError
from repro.sim.engine import Engine
from repro.util.rng import RngStream


@dataclass(frozen=True)
class RetryPolicy:
    """How the middleware reacts to a failed or stalled operation.

    Parameters
    ----------
    max_retries:
        Re-issues after the first failed attempt (0 = fail immediately,
        but still degrade gracefully: the caller receives an
        unsuccessful result, no exception).
    backoff_base_s / backoff_factor:
        Attempt ``k`` (0-based) failing schedules the next attempt after
        ``backoff_base_s * backoff_factor**k`` seconds — classic
        exponential backoff.
    backoff_jitter:
        Fraction of the delay drawn uniformly from ``[0, jitter)`` and
        *added*, decorrelating retry storms.  Requires the caller to
        supply an :class:`RngStream` so jittered runs stay seeded.
    timeout_s:
        Per-attempt deadline raced against the mount operation via the
        engine's :class:`~repro.sim.events.AnyOf`.  ``None`` disables
        the race.  A timed-out attempt counts as failed; its late result
        is discarded (the device traffic still happened and still shows
        up in device/fs counters).
    failover:
        Permission for the PFS layer to redirect failed per-server parts
        to replica servers (see ``pfs/pvfs.py``); local mounts ignore it.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.002
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.0
    timeout_s: float | None = None
    failover: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise MiddlewareError(f"negative max_retries {self.max_retries}")
        if self.backoff_base_s < 0:
            raise MiddlewareError(
                f"negative backoff base {self.backoff_base_s}")
        if self.backoff_factor < 1.0:
            raise MiddlewareError(
                f"backoff factor must be >= 1, got {self.backoff_factor}")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise MiddlewareError(
                f"backoff jitter must be in [0, 1), got "
                f"{self.backoff_jitter}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise MiddlewareError(f"non-positive timeout {self.timeout_s}")

    def backoff_delay(self, attempt: int,
                      rng: RngStream | None = None) -> float:
        """Delay before re-issuing after failed attempt ``attempt``."""
        if attempt < 0:
            raise MiddlewareError(f"negative attempt index {attempt}")
        delay = self.backoff_base_s * self.backoff_factor ** attempt
        if self.backoff_jitter > 0.0:
            if rng is None:
                raise MiddlewareError(
                    "jittered backoff needs an RngStream (seeded runs "
                    "must not fall back to ad-hoc randomness)")
            delay *= 1.0 + rng.uniform(0.0, self.backoff_jitter)
        return delay


@dataclass
class RetryStats:
    """Middleware-wide recovery tallies (one instance per run/system)."""

    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    giveups: int = 0

    def as_dict(self) -> dict:
        return {"attempts": self.attempts, "retries": self.retries,
                "timeouts": self.timeouts, "giveups": self.giveups}


@dataclass(frozen=True)
class AttemptOutcome:
    """One attempt of one middleware operation, as observed by tracing."""

    start: float
    end: float
    result: object | None   # the mount's FSResult; None if timed out
    timed_out: bool = False

    @property
    def success(self) -> bool:
        return self.result is not None and getattr(
            self.result, "success", False)


def execute_attempts(engine: Engine, issue, policy: RetryPolicy | None,
                     *, rng: RngStream | None = None,
                     stats: RetryStats | None = None,
                     first_start: float | None = None):
    """(generator) Drive one operation through the retry state machine.

    ``issue()`` must return a fresh generator for one attempt of the
    underlying mount operation (a mount's ``_read_gen``/``_write_gen``).
    Without a deadline the attempt runs inline (``yield from``); with
    ``policy.timeout_s`` it is spawned, so it can race the timer and
    run on, discarded, after losing.  Yields from inside a middleware
    process; the StopIteration value is the list of
    :class:`AttemptOutcome` (never empty, last entry is the final
    attempt).  With ``policy=None`` this degenerates to a single
    awaited attempt — zero behavioural difference from pre-retry code.

    ``first_start`` backdates the first outcome's start (middleware
    counts its library overhead, paid before calling this, as part of
    attempt 0 — matching how un-retried calls were always recorded).
    """
    outcomes: list[AttemptOutcome] = []
    attempt = 0
    while True:
        start = engine.now if (attempt or first_start is None) \
            else first_start
        timed_out = False
        if policy is not None and policy.timeout_s is not None:
            index, value = yield engine.any_of(
                [engine.spawn(issue()), engine.timeout(policy.timeout_s)])
            result = value if index == 0 else None
            timed_out = index == 1
        else:
            result = yield from issue()
        outcomes.append(AttemptOutcome(start, engine.now, result,
                                       timed_out))
        if stats is not None:
            stats.attempts += 1
            if timed_out:
                stats.timeouts += 1
        ok = outcomes[-1].success
        if ok or policy is None or attempt >= policy.max_retries:
            if not ok and stats is not None:
                stats.giveups += 1
            return outcomes
        delay = policy.backoff_delay(attempt, rng)
        if delay > 0:
            yield engine.timeout(delay)
        if stats is not None:
            stats.retries += 1
        attempt += 1
