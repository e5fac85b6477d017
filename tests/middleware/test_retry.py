"""Retry policy: backoff schedules, timeout races, giveups — exact times."""

from dataclasses import dataclass

import pytest

from repro.errors import MiddlewareError
from repro.middleware.retry import (
    AttemptOutcome,
    RetryPolicy,
    RetryStats,
    execute_attempts,
)
from repro.util.rng import RngStream


@dataclass
class FakeResult:
    success: bool = True


def failing_issuer(engine, fail_times, attempt_cost_s=0.01):
    """issue() that fails the first ``fail_times`` attempts.

    Like a mount's ``_read_gen``, each call returns a fresh generator
    for one attempt.
    """
    count = {"n": 0}

    def issue():
        count["n"] += 1
        ok = count["n"] > fail_times
        return (yield engine.timeout(attempt_cost_s, FakeResult(success=ok)))
    return issue


def drive(engine, issue, policy, **kwargs):
    holder = {}

    def proc():
        holder["outcomes"] = yield from execute_attempts(
            engine, issue, policy, **kwargs)
    process = engine.spawn(proc(), name="retry-driver")
    engine.run()
    process.result()
    return holder["outcomes"]


class TestRetryPolicyValidation:
    def test_rejects_negative_retries(self):
        with pytest.raises(MiddlewareError):
            RetryPolicy(max_retries=-1)

    def test_rejects_backoff_factor_below_one(self):
        with pytest.raises(MiddlewareError):
            RetryPolicy(backoff_factor=0.5)

    def test_rejects_jitter_of_one(self):
        with pytest.raises(MiddlewareError):
            RetryPolicy(backoff_jitter=1.0)

    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(MiddlewareError):
            RetryPolicy(timeout_s=0.0)

    def test_backoff_delay_schedule(self):
        policy = RetryPolicy(backoff_base_s=0.002, backoff_factor=2.0)
        assert [policy.backoff_delay(k) for k in range(4)] == \
            pytest.approx([0.002, 0.004, 0.008, 0.016])

    def test_jittered_backoff_needs_rng(self):
        policy = RetryPolicy(backoff_jitter=0.5)
        with pytest.raises(MiddlewareError, match="RngStream"):
            policy.backoff_delay(0)

    def test_jittered_backoff_bounded(self):
        policy = RetryPolicy(backoff_base_s=0.01, backoff_factor=1.0,
                             backoff_jitter=0.5)
        rng = RngStream.from_seed(3)
        delays = [policy.backoff_delay(0, rng) for _ in range(64)]
        assert all(0.01 <= d < 0.015 for d in delays)
        assert len(set(delays)) > 1


class TestExecuteAttempts:
    def test_success_first_try_single_outcome(self, engine):
        policy = RetryPolicy(max_retries=3)
        stats = RetryStats()
        outcomes = drive(engine, failing_issuer(engine, 0), policy,
                         stats=stats)
        assert len(outcomes) == 1
        assert outcomes[0].success
        assert stats.as_dict() == {"attempts": 1, "retries": 0,
                                   "timeouts": 0, "giveups": 0}

    def test_backoff_schedule_exact_timestamps(self, engine):
        # attempt 0: [0, 0.01]; backoff 0.002 -> attempt 1: [0.012, 0.022];
        # backoff 0.004 -> attempt 2: [0.026, 0.036] succeeds.
        policy = RetryPolicy(max_retries=3, backoff_base_s=0.002,
                             backoff_factor=2.0)
        outcomes = drive(engine, failing_issuer(engine, 2), policy)
        assert [(o.start, o.end) for o in outcomes] == [
            (pytest.approx(0.0), pytest.approx(0.010)),
            (pytest.approx(0.012), pytest.approx(0.022)),
            (pytest.approx(0.026), pytest.approx(0.036)),
        ]
        assert [o.success for o in outcomes] == [False, False, True]
        assert engine.now == pytest.approx(0.036)

    def test_first_start_backdates_attempt_zero(self, engine):
        policy = RetryPolicy(max_retries=0)

        def proc():
            yield engine.timeout(0.005)  # library overhead, pre-paid
            outcomes = yield from execute_attempts(
                engine, failing_issuer(engine, 0), policy,
                first_start=0.0)
            return outcomes
        process = engine.spawn(proc(), name="backdate")
        engine.run()
        outcomes = process.result()
        assert outcomes[0].start == pytest.approx(0.0)
        assert outcomes[0].end == pytest.approx(0.015)

    def test_giveup_after_budget(self, engine):
        policy = RetryPolicy(max_retries=2, backoff_base_s=0.001)
        stats = RetryStats()
        outcomes = drive(engine, failing_issuer(engine, 99), policy,
                         stats=stats)
        assert len(outcomes) == 3
        assert not outcomes[-1].success
        assert stats.as_dict() == {"attempts": 3, "retries": 2,
                                   "timeouts": 0, "giveups": 1}

    def test_timeout_race_cuts_attempt_short(self, engine):
        policy = RetryPolicy(max_retries=1, backoff_base_s=0.001,
                             timeout_s=0.004)
        stats = RetryStats()
        # Each attempt takes 0.01 > timeout 0.004: both time out.
        outcomes = drive(engine, failing_issuer(engine, 0, 0.01), policy,
                         stats=stats)
        assert [o.timed_out for o in outcomes] == [True, True]
        assert all(o.result is None for o in outcomes)
        assert outcomes[0].end == pytest.approx(0.004)
        assert outcomes[1].start == pytest.approx(0.005)
        assert outcomes[1].end == pytest.approx(0.009)
        assert stats.timeouts == 2 and stats.giveups == 1

    def test_fast_attempt_beats_timeout(self, engine):
        policy = RetryPolicy(max_retries=1, timeout_s=0.1)
        outcomes = drive(engine, failing_issuer(engine, 0, 0.01), policy)
        assert len(outcomes) == 1
        assert outcomes[0].success and not outcomes[0].timed_out

    def test_no_policy_is_single_attempt(self, engine):
        stats = RetryStats()
        outcomes = drive(engine, failing_issuer(engine, 99), None,
                         stats=stats)
        assert len(outcomes) == 1
        assert not outcomes[0].success
        assert engine.now == pytest.approx(0.01)
        assert stats.attempts == 1 and stats.retries == 0

    def test_jittered_schedule_is_seeded(self):
        from repro.sim.engine import Engine
        policy = RetryPolicy(max_retries=2, backoff_base_s=0.002,
                             backoff_jitter=0.3)

        def timestamps(seed):
            engine = Engine()
            outcomes = drive(engine, failing_issuer(engine, 99), policy,
                             rng=RngStream.from_seed(seed))
            return [(o.start, o.end) for o in outcomes]
        assert timestamps(5) == timestamps(5)
        assert timestamps(5) != timestamps(6)


class TestAttemptOutcome:
    def test_timed_out_attempt_is_not_success(self):
        outcome = AttemptOutcome(0.0, 1.0, None, timed_out=True)
        assert not outcome.success

    def test_failed_result_is_not_success(self):
        outcome = AttemptOutcome(0.0, 1.0, FakeResult(success=False))
        assert not outcome.success
