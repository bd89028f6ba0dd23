"""The O(failed) planner and the fused auditor against their slow twins.

Every cell and seed of the ``ci``, ``frontier`` and ``fleet`` campaign
presets runs with the planner twin checking each plan the policy makes
(``per_rank_plan_recovery`` reads every rank's store) and with the
two-pass auditor attached beside the scenario's own.  Plans must be
equal and both auditors must report the same violations, none on these
clean runs and the same ones on planners that lie.
"""

from __future__ import annotations

import pytest

from repro.chaos import CAMPAIGN_PRESETS, RecoveryInvariantAuditor, chaos_grid
from repro.cluster.catalog import get_cluster_spec
from repro.core import policy as policy_module
from repro.core.kernel import SimulatedTrainingSystem
from repro.core.policy import GeminiConfig, GeminiPolicy
from repro.core.recovery import RetrievalSource
from repro.failures import FailureEvent, FailureType, TraceFailureInjector
from repro.training import GPT2_100B
from repro.units import DAY, HOUR
from tests.reference.auditor import TwoPassAuditor
from tests.reference.planner import per_rank_plan_recovery

from .test_auditor import attach_failures, make_liar


@pytest.fixture
def checked_planner(monkeypatch):
    """Check every plan the policies make against the per-rank twin."""
    plans = []
    fast = policy_module.plan_recovery

    def both(placement, stores, persistent, failure_type, failed_ranks):
        plan = fast(placement, stores, persistent, failure_type, failed_ranks)
        twin = per_rank_plan_recovery(
            placement, stores, persistent, failure_type, failed_ranks
        )
        assert plan == twin
        plans.append(plan)
        return plan

    monkeypatch.setattr(policy_module, "plan_recovery", both)
    return plans


def _violations(auditor):
    return [violation.to_dict() for violation in auditor.violations]


@pytest.mark.parametrize("preset", ["ci", "frontier", "fleet"])
def test_campaign_plans_and_audits_match_the_twins(preset, checked_planner):
    audited = 0
    for scenario in chaos_grid(**CAMPAIGN_PRESETS[preset]):
        for seed in scenario.seeds:
            system, auditor = scenario.build_system(seed)[:2]
            twin = TwoPassAuditor(system)
            system.run(scenario.horizon_days * DAY)
            assert _violations(auditor) == _violations(twin) == [], (
                scenario.name,
                seed,
            )
            assert auditor.audited_plans == twin.audited_plans
            audited += auditor.audited_plans
    assert audited > 0
    assert checked_planner  # the CPU-tier policies planned through the fleet


def _lower_rollback(plan):
    if plan.rollback_iteration and plan.rollback_iteration > 1:
        plan.rollback_iteration -= 1


def _flip_tier(plan):
    if plan.from_cpu_memory:
        plan.from_cpu_memory = False


def _read_failed_peer(plan):
    for retrieval in plan.retrievals:
        if retrieval.peer is not None and plan.failed_ranks:
            object.__setattr__(retrieval, "peer", plan.failed_ranks[0])
            return


def _drop_and_duplicate(plan):
    plan.retrievals[1] = plan.retrievals[0]


def _local_for_failed(plan):
    for rank in plan.failed_ranks:
        plan.retrievals[rank] = type(plan.retrievals[rank])(
            rank=rank, source=RetrievalSource.LOCAL_CPU
        )


@pytest.mark.parametrize(
    "tamper",
    [_lower_rollback, _flip_tier, _read_failed_peer, _drop_and_duplicate, _local_for_failed],
)
def test_lying_planners_get_the_same_violations(build_system, tamper):
    system = build_system("gemini")
    make_liar(system.policy, tamper)
    fused = RecoveryInvariantAuditor(system)
    twin = TwoPassAuditor(system)
    attach_failures(system)
    try:
        system.run(4 * HOUR)
    except Exception:  # noqa: BLE001 - a tampered plan may not execute
        pass
    assert fused.violations
    assert _violations(fused) == _violations(twin)


def test_fleet_auditor_reports_a_planted_local_read_mid_list():
    spec = get_cluster_spec("a3mega-fleet1k")
    policy = GeminiPolicy(GeminiConfig(use_agents=False, placement_strategy="topology"))
    system = SimulatedTrainingSystem(
        GPT2_100B,
        spec.primary_instance_type(),
        spec.num_machines,
        policy,
        num_standby=16,
        cluster_spec=spec,
    )
    plans = []
    original = policy.plan_recovery

    def keep(failure_type, failed_ranks):
        plan = original(failure_type, failed_ranks)
        plans.append(plan)
        return plan

    policy.plan_recovery = keep
    auditor = RecoveryInvariantAuditor(system)
    TraceFailureInjector(
        system.sim,
        system.cluster,
        [FailureEvent(1000.0, FailureType.HARDWARE, [3])],
        system.inject_failure,
    )
    system.run(1 * HOUR)
    assert auditor.ok and len(plans) == 1
    plan = plans[0]
    survivor = 517
    assert plan.retrievals[survivor].source is RetrievalSource.LOCAL_CPU
    # The survivor's own replica is lost after planning: its LOCAL_CPU
    # entry now names a store with no complete copy.
    policy.stores[survivor].corrupt_shard(survivor)
    auditor._audit_plan(plan.failure_type, plan.failed_ranks, plan)
    messages = [(v.invariant, v.message) for v in auditor.violations]
    assert (
        "retrieval-sources",
        f"rank {survivor} reads rank {survivor}'s shard from rank {survivor}, "
        "whose store has no complete copy",
    ) in messages
    assert any(invariant == "tier-selection" for invariant, _ in messages)
