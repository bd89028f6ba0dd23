"""Byte pins for replica-corruption runs of the CPU-memory policies.

No golden snapshot or benchmark pin covers replica corruption, so these
digests are the safety net for changes to the checkpoint store and the
recovery planner.  Each case runs a short 16-machine Poisson campaign
with corruption strikes and pins the sha256 of the trace's JSONL form and
of the recovery tuples.  The digests were frozen from the per-slot store
and per-rank planner; a faster store or planner must reproduce them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.chaos import ChaosScenario, ReplicaCorruptionInjector
from repro.sim import RandomStreams
from repro.units import DAY

HORIZON_DAYS = 0.25

#: (policy, how corruption is injected) -> (trace sha256, recoveries
#: sha256, recoveries, persistent/SSD fallbacks, corruption strikes).
PINS = {
    ("gemini", "scenario"): (
        "d12e263831cb6aa922f9ba6f7bda904bfdc48dd50fba2d8d007f9cc9b864d337",
        "1c5d4f79fb0ffb26972039a62bffaed9bdeda377be9b4b5a27bd4437aec0bfdd",
        41, 9, 144,
    ),
    ("checkmate", "scenario"): (
        "f38d942979f7faa0831b940e09fad752df6c1682edf207fd19bd4df408db4eaf",
        "1c5d4f79fb0ffb26972039a62bffaed9bdeda377be9b4b5a27bd4437aec0bfdd",
        41, 9, 144,
    ),
    ("tiercheck", "scenario"): (
        "06451622e22cc377c859653f7c26906147c32e152ea241d414ef6cde95b24cd1",
        "6681fb574f3b741cbab468fcf9fa9e079b405aff72a20262252034e237febdeb",
        50, 8, 147,
    ),
    ("gemini", "set"): (
        "a8957d2c670513ab3307897efcf5b208f5e6df7e9832fb58527b08adec858eff",
        "2e399ce4ba31da58bb5c57e35456fd7980536a8cc1bb82adef96446d58f0e403",
        10, 6, 262,
    ),
    ("checkmate", "set"): (
        "b815c7140b79054ff2eac245dd857bbfb822892700ca36a578a26ab334a198c3",
        "d483efd78698ac52f3d84e66a196ddaf2e5f2e6120c75e13e8c3cd65180b5012",
        10, 3, 261,
    ),
    ("tiercheck", "set"): (
        "ea1a00f835f58205c67e63048ecc419abe7e767777da4a10f5be019b0702fa9f",
        "e9444cb0eb0ff6ca4c50af48504e7e5731131a702bd3222b4cf7eac5c5e2810e",
        10, 5, 251,
    ),
}


def _run(policy: str, injection: str):
    """One seed-0 run; ``scenario`` injects through the campaign's
    ``degradations`` (local scope, coupled software failure), ``set``
    attaches a set-scope injector that only corrupts."""
    extra = {}
    if injection == "scenario":
        extra = dict(degradations=("corruption",), degradation_events_per_day=480.0)
    scenario = ChaosScenario(
        name="corruption-pin",
        policy=policy,
        failure_model="poisson",
        num_machines=16,
        events_per_day=48.0,
        horizon_days=HORIZON_DAYS,
        seeds=(0,),
        **extra,
    )
    system, auditor, _injector, degraders = scenario.build_system(0)
    if injection == "set":
        degraders = [
            ReplicaCorruptionInjector(
                system,
                events_per_day=960.0,
                scope="set",
                couple_failure=False,
                rng=RandomStreams(0),
                horizon=HORIZON_DAYS * DAY,
            )
        ]
    result = system.run(HORIZON_DAYS * DAY)
    return system, auditor, degraders[0], result


@pytest.mark.parametrize("policy, injection", sorted(PINS))
def test_corruption_run_matches_pin(policy, injection):
    system, auditor, corruption, result = _run(policy, injection)
    recoveries = [
        [
            record.failure_time,
            record.failure_type.value,
            list(record.failed_ranks),
            record.rollback_iteration,
            record.source.value,
            record.from_cpu_memory,
            record.resumed_at,
        ]
        for record in result.recoveries
    ]
    fallbacks = sum(1 for record in result.recoveries if not record.from_cpu_memory)
    observed = (
        hashlib.sha256(system.trace.to_jsonl().encode()).hexdigest(),
        hashlib.sha256(json.dumps(recoveries).encode()).hexdigest(),
        len(recoveries),
        fallbacks,
        len(corruption.injected),
    )
    assert observed == PINS[(policy, injection)]
    assert auditor.ok, [violation.to_dict() for violation in auditor.violations]
