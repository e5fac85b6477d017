"""Common block-device machinery: request/result types, queueing, faults.

A device is a resource (its channels) plus a service-time model supplied
by subclasses.  Requests go through :meth:`BlockDevice.submit`, which
returns a completion firing with a :class:`DeviceResult`.  Two queueing
disciplines are available: FIFO (default) and an elevator (C-LOOK-style)
order keyed on the request offset — an ablation target in DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DeviceError, DeviceFault
from repro.sim.engine import Engine
from repro.sim.events import Completion
from repro.sim.monitor import UtilizationTracker
from repro.sim.resources import PriorityResource, Resource
from repro.util.rng import RngStream

#: Operation tags used across the whole stack.
READ = "read"
WRITE = "write"

_VALID_OPS = frozenset((READ, WRITE))


@dataclass(frozen=True)
class DeviceRequest:
    """One block-level access: ``op`` on ``nbytes`` at byte ``offset``."""

    op: str
    offset: int
    nbytes: int

    def __post_init__(self) -> None:
        if self.op not in _VALID_OPS:
            raise DeviceError(f"unknown op {self.op!r}")
        if self.offset < 0:
            raise DeviceError(f"negative offset {self.offset}")
        if self.nbytes <= 0:
            raise DeviceError(f"non-positive size {self.nbytes}")

    @property
    def end(self) -> int:
        """One past the last byte touched."""
        return self.offset + self.nbytes


@dataclass(frozen=True)
class DeviceResult:
    """Outcome of a device access.

    ``success`` is False when a fault was injected; the paper's B counts
    such accesses anyway (section III.A), so callers must not silently
    drop failed results from traces.
    """

    request: DeviceRequest
    start: float
    end: float
    success: bool = True
    error: str = ""

    @property
    def latency(self) -> float:
        """Wall time the access spent in the device (including queueing)."""
        return self.end - self.start


@dataclass
class DeviceStats:
    """Cumulative counters kept by every device."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    faults: int = 0
    total_service_time: float = 0.0

    @property
    def ops(self) -> int:
        """Total completed operations (successful or faulted)."""
        return self.reads + self.writes

    @property
    def bytes_moved(self) -> int:
        """Total bytes transferred in either direction."""
        return self.bytes_read + self.bytes_written


class FaultInjector:
    """Bernoulli fault injection for failure-path testing.

    With probability ``probability`` a request fails after consuming
    ``time_fraction`` of its nominal service time (a partially-performed
    access, e.g. a medium error mid-transfer).

    ``per_bytes`` switches to a per-byte failure model: ``probability``
    then applies independently to each ``per_bytes``-sized granule of a
    request, so larger transfers fail more often (media errors scale
    with the data touched, not with the request count).

    The stream must be an :class:`~repro.util.rng.RngStream` from the
    run's seeded hierarchy — ad-hoc randomness would break the
    bit-reproducibility the parallel sweep runner relies on.  The
    probability is mutable after construction (via :meth:`set_probability`)
    so fault plans can open and close fault windows on a live device.
    """

    def __init__(self, rng: RngStream, probability: float,
                 time_fraction: float = 0.5,
                 per_bytes: int = 0) -> None:
        if not isinstance(rng, RngStream):
            raise DeviceError(
                f"FaultInjector needs an RngStream from the seeded "
                f"hierarchy, got {type(rng).__name__}"
            )
        if not 0.0 < time_fraction <= 1.0:
            raise DeviceError(f"time_fraction out of range: {time_fraction}")
        if per_bytes < 0:
            raise DeviceError(f"negative per_bytes: {per_bytes}")
        self.rng = rng
        self.probability = probability
        self.set_probability(probability)  # range check
        self.time_fraction = time_fraction
        self.per_bytes = per_bytes

    def set_probability(self, probability: float) -> None:
        """Change the fault rate (fault-plan windows use this)."""
        if not 0.0 <= probability <= 1.0:
            raise DeviceError(f"probability out of range: {probability}")
        self.probability = probability

    def request_probability(self, nbytes: int = 0) -> float:
        """Effective failure probability for one request."""
        if self.per_bytes <= 0 or nbytes <= 0:
            return self.probability
        granules = -(-nbytes // self.per_bytes)  # ceil
        return 1.0 - (1.0 - self.probability) ** granules

    def should_fail(self, nbytes: int = 0) -> bool:
        """Draw once: does the next request fail?

        The draw is taken even at probability 0 so that opening a fault
        window mid-run does not shift the RNG stream of later requests —
        a faulted run stays bit-comparable to its fault-free twin.
        """
        return self.rng.uniform() < self.request_probability(nbytes)


class BlockDevice:
    """Abstract block device; subclasses implement ``service_time``.

    Parameters
    ----------
    engine:
        The simulation engine.
    name:
        Human-readable identifier (appears in traces and stats).
    capacity_bytes:
        Addressable size; out-of-range requests raise.
    channels:
        Number of concurrently-serviced requests (1 = single actuator).
    scheduler:
        ``"fifo"`` or ``"elevator"`` (offset-ordered service).
    rng:
        Stream for service-time jitter; None disables jitter.
    jitter_sigma:
        Log-normal sigma for multiplicative service-time noise.
    fault_injector:
        Optional :class:`FaultInjector`.
    """

    def __init__(
        self,
        engine: Engine,
        name: str,
        capacity_bytes: int,
        *,
        channels: int = 1,
        scheduler: str = "fifo",
        rng: RngStream | None = None,
        jitter_sigma: float = 0.0,
        fault_injector: FaultInjector | None = None,
    ) -> None:
        if capacity_bytes <= 0:
            raise DeviceError(f"capacity must be positive: {capacity_bytes}")
        if scheduler not in ("fifo", "elevator"):
            raise DeviceError(f"unknown scheduler {scheduler!r}")
        self.engine = engine
        self.name = name
        self.capacity_bytes = capacity_bytes
        self.scheduler = scheduler
        if scheduler == "elevator":
            self._resource: Resource = PriorityResource(
                engine, capacity=channels, name=f"{name}.chan")
        else:
            self._resource = Resource(
                engine, capacity=channels, name=f"{name}.chan")
        self.channels = channels
        self.rng = rng
        self.jitter_sigma = jitter_sigma
        self.fault_injector = fault_injector
        #: Multiplicative service-time degradation (>= 1.0).  Fault
        #: plans raise this during a degradation window (worn media,
        #: thermal throttling, a rebuilding array) and restore it after.
        self.degrade = 1.0
        self.stats = DeviceStats()
        self.utilization = UtilizationTracker(engine, name=f"{name}.util")

    # -- subclass interface ---------------------------------------------------

    def service_time(self, request: DeviceRequest) -> float:
        """Nominal service time for ``request`` (no queueing, no jitter)."""
        raise NotImplementedError

    def _note_serviced(self, request: DeviceRequest) -> None:
        """Hook for subclasses to update positional state (head position)."""

    # -- public API -------------------------------------------------------------

    def submit(self, request: DeviceRequest) -> Completion:
        """Queue ``request``; returns a completion firing with DeviceResult."""
        done = self.engine.completion()
        self.engine.spawn(self._serve_gen(request, done))
        return done

    def access(self, op: str, offset: int, nbytes: int) -> Completion:
        """Convenience wrapper building the request inline."""
        return self.submit(DeviceRequest(op, offset, nbytes))

    # -- internals ------------------------------------------------------------

    def _acquire_grant(self, request: DeviceRequest):
        if isinstance(self._resource, PriorityResource):
            # Elevator: serve in ascending offset order among waiters.
            return self._resource.acquire(priority=float(request.offset))
        return self._resource.acquire()

    def _serve_gen(self, request: DeviceRequest,
                   done: Completion | None = None):
        """Check ``request`` and return the generator that serves it.

        A caller waiting on this one access runs it inline with
        ``result = yield from device._serve_gen(request)``;
        :meth:`submit` spawns it with ``done``, which fires before the
        channel is released.
        """
        if request.end > self.capacity_bytes:
            raise DeviceError(
                f"{self.name}: request [{request.offset}, {request.end}) "
                f"exceeds capacity {self.capacity_bytes}"
            )
        return self._serve(request, done)

    def _serve(self, request: DeviceRequest, done: Completion | None):
        start = self.engine.now
        grant = self._acquire_grant(request)
        yield grant
        self.utilization.busy()
        try:
            nominal = self.service_time(request)
            if self.degrade != 1.0:
                nominal *= self.degrade
            if self.rng is not None and self.jitter_sigma > 0.0:
                nominal *= self.rng.lognormal_factor(self.jitter_sigma)
            failed = (self.fault_injector is not None
                      and self.fault_injector.should_fail(request.nbytes))
            if failed:
                nominal *= self.fault_injector.time_fraction
            yield self.engine.timeout(nominal)
            self._note_serviced(request)
            self.stats.total_service_time += nominal
            if request.op == READ:
                self.stats.reads += 1
                if not failed:
                    self.stats.bytes_read += request.nbytes
            else:
                self.stats.writes += 1
                if not failed:
                    self.stats.bytes_written += request.nbytes
            if failed:
                self.stats.faults += 1
                result = DeviceResult(
                    request, start, self.engine.now, success=False,
                    error=f"injected fault on {self.name}")
            else:
                result = DeviceResult(request, start, self.engine.now)
            if done is not None:
                done.trigger(result)
        except BaseException as exc:
            # A spawned request hands the error to its waiter instead of
            # leaving it waiting forever.
            if done is not None:
                done.fail(exc)
            raise
        finally:
            self.utilization.idle()
            self._resource.release()
        return result

    @property
    def queue_length(self) -> int:
        """Requests waiting for a channel right now."""
        return self._resource.queue_length

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}>"
