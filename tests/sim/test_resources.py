"""Resources: capacity, FIFO/priority queueing, token buckets."""

import pytest

from repro.errors import SimulationError
from repro.sim.resources import PriorityResource, Resource, TokenBucket


def hold(engine, resource, duration, log, tag, priority=None):
    """A process that acquires, holds, and releases a resource."""
    if priority is None:
        grant = resource.acquire()
    else:
        grant = resource.acquire(priority=priority)
    yield grant
    log.append((engine.now, tag, "in"))
    try:
        yield engine.timeout(duration)
    finally:
        resource.release()
    log.append((engine.now, tag, "out"))


class TestResource:
    def test_capacity_limits_concurrency(self, engine):
        resource = Resource(engine, capacity=2)
        log = []
        for i in range(4):
            engine.spawn(hold(engine, resource, 1.0, log, i))
        engine.run()
        entries = [(t, tag) for t, tag, what in log if what == "in"]
        assert entries == [(0.0, 0), (0.0, 1), (1.0, 2), (1.0, 3)]

    def test_fifo_order(self, engine):
        resource = Resource(engine, capacity=1)
        log = []
        for i in range(3):
            engine.spawn(hold(engine, resource, 1.0, log, i))
        engine.run()
        order = [tag for _t, tag, what in log if what == "in"]
        assert order == [0, 1, 2]

    def test_release_without_acquire_raises(self, engine):
        resource = Resource(engine)
        with pytest.raises(SimulationError):
            resource.release()

    def test_zero_capacity_rejected(self, engine):
        with pytest.raises(SimulationError):
            Resource(engine, capacity=0)

    def test_queue_length_and_in_use(self, engine):
        resource = Resource(engine, capacity=1)
        log = []
        engine.spawn(hold(engine, resource, 2.0, log, "a"))
        engine.spawn(hold(engine, resource, 1.0, log, "b"))
        engine.run(until=1.0)
        assert resource.in_use == 1
        assert resource.queue_length == 1
        engine.run()
        assert resource.in_use == 0

    def test_wait_time_accounting(self, engine):
        resource = Resource(engine, capacity=1)
        log = []
        engine.spawn(hold(engine, resource, 2.0, log, "first"))
        engine.spawn(hold(engine, resource, 1.0, log, "second"))
        engine.run()
        assert resource.total_wait_time == pytest.approx(2.0)
        assert resource.total_acquisitions == 2


def arrive_and_hold(engine, resource, arrive, duration, log, tag,
                    priority=None):
    yield engine.timeout(arrive)
    yield from hold(engine, resource, duration, log, tag, priority)


class TestWaitTimeExact:
    """``total_wait_time`` charged from each grant's own request time.

    All times are exact binary fractions, so the sums compare with ``==``.
    """

    def test_contended_fifo(self, engine):
        resource = Resource(engine, capacity=1)
        log = []
        for tag, arrive, duration in (("a", 0.0, 1.0), ("b", 0.25, 0.5),
                                      ("c", 0.5, 0.25)):
            engine.spawn(arrive_and_hold(engine, resource, arrive,
                                         duration, log, tag))
        engine.run()
        # a: 0; b: requested 0.25, granted 1.0; c: 0.5 -> 1.5.
        assert resource.total_wait_time == 0.75 + 1.0
        assert resource.total_acquisitions == 3
        assert resource.queue_length == 0 and resource.in_use == 0

    def test_priority_order(self, engine):
        resource = PriorityResource(engine, capacity=1)
        log = []
        for tag, arrive, duration, prio in (("a", 0.0, 1.0, 0.0),
                                            ("b", 0.25, 0.5, 5.0),
                                            ("c", 0.5, 0.25, 1.0)):
            engine.spawn(arrive_and_hold(engine, resource, arrive,
                                         duration, log, tag, prio))
        engine.run()
        order = [tag for _t, tag, what in log if what == "in"]
        assert order == ["a", "c", "b"]
        # c: requested 0.5, granted 1.0; b: requested 0.25, granted 1.25.
        assert resource.total_wait_time == 0.5 + 1.0
        assert resource.total_acquisitions == 3


class TestPriorityResource:
    def test_lower_priority_served_first(self, engine):
        resource = PriorityResource(engine, capacity=1)
        log = []
        # The first holder occupies the resource; the rest queue with
        # priorities and must come out in priority order.
        engine.spawn(hold(engine, resource, 1.0, log, "holder",
                          priority=0.0))
        for tag, priority in (("high", 5.0), ("low", 1.0), ("mid", 3.0)):
            engine.spawn(hold(engine, resource, 1.0, log, tag,
                              priority=priority))
        engine.run()
        order = [tag for _t, tag, what in log if what == "in"]
        assert order == ["holder", "low", "mid", "high"]

    def test_equal_priority_is_fifo(self, engine):
        resource = PriorityResource(engine, capacity=1)
        log = []
        engine.spawn(hold(engine, resource, 1.0, log, "holder",
                          priority=0.0))
        for i in range(3):
            engine.spawn(hold(engine, resource, 0.5, log, i, priority=7.0))
        engine.run()
        order = [tag for _t, tag, what in log if what == "in"]
        assert order == ["holder", 0, 1, 2]

    def test_release_without_acquire_raises(self, engine):
        with pytest.raises(SimulationError):
            PriorityResource(engine).release()


class TestTokenBucket:
    def test_burst_available_immediately(self, engine):
        bucket = TokenBucket(engine, rate=10.0, burst=100.0)
        taken = bucket.take(50.0)
        engine.run()
        assert taken.fired

    def test_rate_limits_over_time(self, engine):
        bucket = TokenBucket(engine, rate=10.0, burst=10.0)
        times = []

        def consumer(eng):
            for _ in range(3):
                yield bucket.take(10.0)
                times.append(eng.now)

        engine.spawn(consumer(engine))
        engine.run()
        # First take drains the burst; each further 10 tokens needs 1s.
        assert times == pytest.approx([0.0, 1.0, 2.0])

    def test_fifo_among_takers(self, engine):
        bucket = TokenBucket(engine, rate=10.0, burst=10.0)
        order = []

        def taker(eng, tag, amount):
            yield bucket.take(amount)
            order.append(tag)

        engine.spawn(taker(engine, "big", 10.0))
        engine.spawn(taker(engine, "small", 1.0))
        engine.run()
        assert order == ["big", "small"]

    def test_take_beyond_burst_rejected(self, engine):
        bucket = TokenBucket(engine, rate=1.0, burst=5.0)
        with pytest.raises(SimulationError):
            bucket.take(6.0)

    def test_non_positive_take_rejected(self, engine):
        bucket = TokenBucket(engine, rate=1.0, burst=5.0)
        with pytest.raises(SimulationError):
            bucket.take(0.0)

    def test_bad_construction_rejected(self, engine):
        with pytest.raises(SimulationError):
            TokenBucket(engine, rate=0.0, burst=1.0)
        with pytest.raises(SimulationError):
            TokenBucket(engine, rate=1.0, burst=0.0)

    def test_available_refills(self, engine):
        bucket = TokenBucket(engine, rate=10.0, burst=20.0)
        bucket.take(20.0)
        engine.run()
        assert bucket.available == pytest.approx(0.0)
        engine.call_later(1.0, lambda: None)
        engine.run()
        assert bucket.available == pytest.approx(10.0)
