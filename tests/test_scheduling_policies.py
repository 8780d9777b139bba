"""Scheduling policies: fairness and deadline behaviour of service rounds.

Policies choose *which* active sessions propose each round — never *what*
they propose — so these tests pin the scheduling behaviour on deterministic
workloads (single-chain SA sessions propose exactly one configuration per
round, giving measurement-level granularity) and re-assert bit-identity
under every policy.
"""

import pytest

from repro.conv import ConvParams
from repro.gpusim import V100
from repro.service import (
    EarliestDeadlinePolicy,
    FairSharePolicy,
    SchedulingPolicy,
    TuningRequest,
    TuningService,
    TuningWorkerPool,
    UniformPolicy,
    make_policy,
)

SMALL = ConvParams.square(8, 16, 32, kernel=3, stride=1, padding=1)


def _sa_request(budget, seed, deadline=None):
    """A deterministic one-measurement-per-round session (no patience exit)."""
    return TuningRequest(
        SMALL,
        V100,
        max_measurements=budget,
        seed=seed,
        pruned=False,
        tuner="simulated_annealing",
        deadline=deadline,
    )


def _measured(service, future):
    """Measurements taken so far by the run answering ``future``."""
    run = service._runs.get(future.request)
    if run is None:
        return None  # already finalised
    return run.session.result.num_measurements


class TestPolicyRegistry:
    def test_default_is_uniform(self):
        assert isinstance(TuningService().policy, UniformPolicy)

    def test_names_resolve(self):
        assert isinstance(make_policy("uniform"), UniformPolicy)
        assert isinstance(make_policy("fair_share"), FairSharePolicy)
        assert isinstance(make_policy("edf"), EarliestDeadlinePolicy)
        policy = FairSharePolicy()
        assert make_policy(policy) is policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy("lottery")
        with pytest.raises(ValueError):
            TuningService(policy="lottery")

    def test_describe(self):
        assert "fair_share" in FairSharePolicy().describe()


class TestFairShare:
    def test_budget_proportional_progress(self):
        # Budgets 40 vs 10: under fair share the big request is scheduled 4x
        # as often, so when the small one completes the big one has made
        # ~proportional progress instead of the uniform policy's equal split.
        service = TuningService(policy="fair_share")
        big = service.submit(_sa_request(budget=40, seed=1))
        small = service.submit(_sa_request(budget=10, seed=2))
        while not small.done():
            service.step()
        # Proportional progress means both land within a round of finishing
        # together — the big run is either already done (40 measurements) or
        # nearly so, never at the uniform policy's ~10.
        big_measured = (
            big.result().num_measurements if big.done() else _measured(service, big)
        )
        assert big_measured >= 30
        service.drain()
        assert big.result().num_measurements == 40

    def test_uniform_is_not_proportional(self):
        # Control: under uniform rounds both requests progress in lockstep,
        # so the big request is nowhere near proportional when the small one
        # finishes — the contrast proves fair share is doing the work.
        service = TuningService(policy="uniform")
        big = service.submit(_sa_request(budget=40, seed=1))
        small = service.submit(_sa_request(budget=10, seed=2))
        while not small.done():
            service.step()
        assert _measured(service, big) <= 12
        service.drain()

    def test_equal_budgets_round_robin_in_lockstep(self):
        service = TuningService(policy="fair_share")
        a = service.submit(_sa_request(budget=12, seed=1))
        b = service.submit(_sa_request(budget=12, seed=2))
        service.step()  # both at progress 0 -> both propose
        assert _measured(service, a) == _measured(service, b) == 1
        service.drain()
        assert a.result().num_measurements == b.result().num_measurements == 12

    def test_fair_share_preserves_trajectories(self):
        request = _sa_request(budget=16, seed=5)
        reference = request.tune_direct()
        result = TuningService(policy="fair_share").tune([request])[0]
        assert [t.time_seconds for t in result.trials] == [
            t.time_seconds for t in reference.trials
        ]


class TestEarliestDeadlineFirst:
    def test_urgent_request_completes_first(self):
        service = TuningService(policy="edf")
        background = service.submit(_sa_request(budget=16, seed=1))
        urgent = service.submit(_sa_request(budget=16, seed=2, deadline=1.0))
        while not urgent.done():
            service.step()
        # The urgent run monopolised the pipeline: the background session has
        # not measured a single configuration yet.
        assert not background.done()
        assert _measured(service, background) == 0
        service.drain()
        assert background.done()

    def test_deadline_order_among_deadlined_requests(self):
        service = TuningService(policy="edf")
        later = service.submit(_sa_request(budget=12, seed=1, deadline=5.0))
        sooner = service.submit(_sa_request(budget=12, seed=2, deadline=2.0))
        while not sooner.done():
            service.step()
        assert not later.done()
        service.drain()

    def test_no_deadlines_degrades_to_uniform(self):
        service = TuningService(policy="edf")
        a = service.submit(_sa_request(budget=12, seed=1))
        b = service.submit(_sa_request(budget=12, seed=2))
        service.step()
        assert _measured(service, a) == _measured(service, b) == 1
        service.drain()

    def test_deadline_is_not_part_of_the_coalescing_key(self):
        # Urgency is scheduling metadata: identical searches with different
        # deadlines still share one run (the primary's deadline schedules it).
        service = TuningService(policy="edf")
        service.submit(_sa_request(budget=12, seed=1, deadline=1.0))
        service.submit(_sa_request(budget=12, seed=1, deadline=9.0))
        assert service.stats.coalesced == 1
        assert service.stats.tuning_runs == 1
        service.drain()

    def test_edf_preserves_trajectories(self):
        request = _sa_request(budget=16, seed=5, deadline=1.0)
        reference = request.tune_direct()
        result = TuningService(policy="edf").tune([request])[0]
        assert [t.time_seconds for t in result.trials] == [
            t.time_seconds for t in reference.trials
        ]


class TestPolicyRobustness:
    def test_broken_policy_cannot_stall_the_service(self):
        class Hungry(SchedulingPolicy):
            name = "hungry"

            def select(self, runs):
                return []  # a policy bug: selects nobody

        service = TuningService(policy=Hungry())
        results = service.tune([_sa_request(budget=8, seed=1)])
        assert results[0].num_measurements == 8

    def test_policy_returning_foreign_objects_is_ignored(self):
        class Weird(SchedulingPolicy):
            name = "weird"

            def select(self, runs):
                return ["not-a-run"] + list(runs) + list(runs)  # junk + dupes

        service = TuningService(policy=Weird())
        results = service.tune([_sa_request(budget=8, seed=1)])
        assert results[0].num_measurements == 8

    def test_worker_pool_forwards_policy(self):
        pool = TuningWorkerPool(num_workers=2, policy="fair_share")
        assert isinstance(pool.policy, FairSharePolicy)
        workload = [_sa_request(budget=10, seed=1), _sa_request(budget=10, seed=2)]
        reference = TuningService().tune(workload)
        results = pool.tune(workload)
        for a, b in zip(reference, results):
            assert a.best_time == b.best_time

    def test_pool_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            TuningWorkerPool(policy="lottery")


class TestDeadlineExpiredAtSubmit:
    """Regression (daemon PR satellite): an already-passed deadline is a
    typed up-front rejection, never an admit-then-time-out."""

    def _service(self, now):
        from repro.obs import FakeClock, Observability

        clock = FakeClock(now)
        return TuningService(obs=Observability(enabled=True, clock=clock))

    def test_expired_deadline_rejected_up_front(self):
        from repro.service import DeadlineExpired

        service = self._service(now=10.0)
        with pytest.raises(DeadlineExpired, match="already passed"):
            service.submit(_sa_request(budget=4, seed=0, deadline=5.0))
        # Never admitted: no active run, no request accounted, nothing to
        # time out later.
        assert service.num_active == 0
        assert service.stats.requests == 0

    def test_future_deadline_still_admitted(self):
        service = self._service(now=10.0)
        future = service.submit(_sa_request(budget=4, seed=0, deadline=15.0))
        service.drain()
        assert future.result().num_measurements == 4

    def test_null_clock_keeps_legacy_deadline_semantics(self):
        # Without an injected clock the service clock reads 0.0 forever, so
        # positive deadlines remain pure scheduling metadata (the EDF tests
        # above rely on exactly this).
        service = TuningService()
        future = service.submit(_sa_request(budget=4, seed=0, deadline=1.0))
        service.drain()
        assert future.result().num_measurements == 4


class TestCancel:
    def test_cancel_answers_all_futures_with_typed_error(self):
        from repro.service import RequestCancelled, RequestTimeout

        service = TuningService()
        request = _sa_request(budget=50, seed=3)
        primary = service.submit(request)
        duplicate = service.submit(_sa_request(budget=50, seed=3))
        service.step()
        assert service.cancel(request, RequestTimeout("took too long"))
        for future in (primary, duplicate):
            with pytest.raises(RequestTimeout):
                future.result(timeout=0)
        # The run is retired: nothing active, and a re-cancel finds nothing.
        assert service.num_active == 0
        assert not service.cancel(request)
        # Default exception type.
        again = service.submit(_sa_request(budget=50, seed=4))
        assert service.cancel(again.request)
        with pytest.raises(RequestCancelled):
            again.result(timeout=0)

    def test_cancel_accounts_partial_measurements(self):
        service = TuningService()
        request = _sa_request(budget=50, seed=5)
        future = service.submit(request)
        for _ in range(3):
            service.step()
        partial = service._runs[request].measurer.num_measurements
        assert partial > 0
        assert service.cancel(request)
        # The partial work done before the cancel is accounted exactly like a
        # failed run's: the service-side measurement count, no more, no less.
        assert service.stats.measurements == partial
        assert service.stats.completed_runs == 1
