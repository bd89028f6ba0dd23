"""The benchmark's three workloads, driven through the public ``repro`` API.

Each workload turns a seed into a list of scenarios (:meth:`scenarios`)
and runs one *pass* over them (:meth:`run_pass`): every scenario once,
back to back, in this process.  A pass returns one :class:`Run` per
simulation run with its host times and the digest of its simulated
output.  Host time is read around the program's calls; nothing here
reads or changes simulated time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import json
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.chaos import CAMPAIGN_PRESETS, ChaosScenario, RecoveryInvariantAuditor
from repro.chaos import chaos_grid, run_campaign
from repro.cluster import P4D_24XLARGE
from repro.core.kernel import SimulatedTrainingSystem
from repro.core.system import GeminiConfig, GeminiSystem
from repro.experiments import Scenario, available_policies
from repro.failures import PoissonFailureInjector
from repro.obs import Observability
from repro.sim import RandomStreams
from repro.training import GPT2_100B
from repro.units import DAY

__all__ = ["WORKLOADS", "Run", "pass_counts", "pass_seconds", "run_failed"]

#: the counts every run reports from its own outputs (no tracing needed).
OUTPUT_COUNTS = (
    "sim.events",
    "core.kernel.iterations",
    "core.kernel.recoveries",
    "trace.records",
    "kvstore.revisions",
    "chaos.auditor.audited_plans",
)


@dataclasses.dataclass
class Run:
    """One simulation run: one policy or campaign cell at one seed."""

    name: str
    machine_days: float
    setup_s: float = 0.0
    run_s: float = 0.0
    digest: str = ""
    counts: Dict[str, int] = dataclasses.field(default_factory=dict)
    violations: int = 0
    error: str = ""


def _value(item: Any) -> Any:
    return getattr(item, "value", item)


def output_summary(system, result, auditor=None) -> Dict[str, Any]:
    """What the digest of one finished run covers, without the system.

    The effective ratio, the final iteration, each recovery's tier and
    times, the output-derived counts and a hash of the full trace.  It is
    taken as soon as the run ends, so no system outlives its run.
    """
    return {
        "effective_ratio": result.effective_ratio,
        "elapsed": result.elapsed,
        "final_iteration": result.final_iteration,
        "recoveries": [
            [
                _value(record.failure_type),
                _value(record.source),
                record.failure_time,
                record.detected_at,
                record.retrieval_done_at,
                record.resumed_at,
                record.rollback_iteration,
            ]
            for record in result.recoveries
        ],
        "counts": {
            "sim.events": system.sim.events_processed,
            "core.kernel.iterations": result.final_iteration,
            "core.kernel.recoveries": len(result.recoveries),
            "trace.records": len(system.trace),
            "kvstore.revisions": getattr(
                getattr(system.policy, "kvstore", None), "revision", 0
            ),
            "chaos.auditor.audited_plans": auditor.audited_plans if auditor else 0,
        },
        "violations": len(auditor.violations) if auditor else 0,
        "trace_sha256": hashlib.sha256(system.trace.to_jsonl().encode()).hexdigest(),
    }


def _finish(run: Run, summary: Dict[str, Any], row=None) -> None:
    """Fill in ``run``'s digest; a campaign cell's digest covers its row.

    Floats serialize with every digit, so any change to a simulated byte
    changes the digest.
    """
    text = json.dumps(dict(summary, row=row), sort_keys=True, separators=(",", ":"))
    run.digest = hashlib.sha256(text.encode()).hexdigest()[:16]
    run.counts = summary["counts"]
    run.violations = summary["violations"]


@contextlib.contextmanager
def observability_on() -> Iterator[None]:
    """Every system built inside gets an enabled ``Observability()``."""
    original = SimulatedTrainingSystem.__init__

    def with_obs(self, *args, **kwargs):
        if kwargs.get("obs") is None:
            kwargs["obs"] = Observability()
        original(self, *args, **kwargs)

    SimulatedTrainingSystem.__init__ = with_obs
    try:
        yield
    finally:
        SimulatedTrainingSystem.__init__ = original


def timed_run(name: str, machine_days: float, build: Callable, duration: float) -> Run:
    """Build, run and summarize one system; none of it outlives the call.

    ``build()`` returns ``(system, auditor or None)``; its host time is
    the run's set-up time, and ``system.run(duration)``'s is its run time.
    """
    run = Run(name, machine_days)
    gc.collect()  # the previous run's garbage is not this run's set-up
    try:
        started = time.perf_counter()
        system, auditor = build()
        built = time.perf_counter()
        result = system.run(duration)
        run.run_s = time.perf_counter() - built
        run.setup_s = built - started
        _finish(run, output_summary(system, result, auditor))
    except Exception as exc:  # a failed run is counted, not fatal
        run.error = f"{type(exc).__name__}: {exc}"
    return run


class PolicyWeek16:
    """Every registered policy, 7 simulated days on 16 machines.

    GPT-2 100B on p4d.24xlarge, 8 failures/day Poisson, fixed-delay
    detection (the ``Scenario`` default), observability off.
    """

    name = "policy_week16"
    obs_default = False

    def scenarios(self, seed: int, scale: float = 1.0) -> List[Scenario]:
        return [
            Scenario(
                name=f"{policy}-week16",
                policy=policy,
                num_machines=16,
                failures_per_day=8.0,
                horizon_days=7.0 * scale,
                seeds=(seed,),
            )
            for policy in available_policies()
        ]

    def run_pass(self, scenarios: List[Scenario], obs: bool) -> List[Run]:
        context = observability_on() if obs else contextlib.nullcontext()
        with context:
            return [
                timed_run(
                    scenario.policy,
                    scenario.num_machines * scenario.horizon_days,
                    lambda: (scenario.build_system(scenario.seeds[0])[0], None),
                    scenario.horizon_days * DAY,
                )
                for scenario in scenarios
            ]


@dataclasses.dataclass(frozen=True)
class AgentsScenario:
    """The public ``GeminiSystem`` path with its defaults (agents on)."""

    seed: int
    num_machines: int = 16
    horizon_days: float = 0.25
    failures_per_day: float = 16.0


class AgentsObs16:
    """Default ``GeminiSystem`` with obs on and the auditor attached."""

    name = "agents_obs16"
    obs_default = True

    def scenarios(self, seed: int, scale: float = 1.0) -> List[AgentsScenario]:
        return [AgentsScenario(seed=seed, horizon_days=0.25 * scale)]

    def run_pass(self, scenarios: List[AgentsScenario], obs: bool) -> List[Run]:
        def build(scenario: AgentsScenario):
            system = GeminiSystem(
                GPT2_100B,
                P4D_24XLARGE,
                scenario.num_machines,
                config=GeminiConfig(seed=scenario.seed),
                obs=Observability() if obs else None,
            )
            auditor = RecoveryInvariantAuditor(system)
            PoissonFailureInjector(
                system.sim,
                system.cluster,
                system.inject_failure,
                daily_rate=scenario.failures_per_day / scenario.num_machines,
                rng=RandomStreams(scenario.seed),
                horizon=scenario.horizon_days * DAY,
            )
            return system, auditor

        return [
            timed_run(
                "gemini-agents",
                scenario.num_machines * scenario.horizon_days,
                lambda: build(scenario),
                scenario.horizon_days * DAY,
            )
            for scenario in scenarios
        ]


class ChaosFleet1k:
    """The ``fleet`` campaign preset through ``run_campaign(workers=1)``.

    Like the preset, every cell runs three seeds; benchmark seed ``s``
    gives them failure seeds ``3s``, ``3s + 1`` and ``3s + 2``.
    """

    name = "chaos_fleet1k"
    obs_default = False

    def scenarios(self, seed: int, scale: float = 1.0) -> List[ChaosScenario]:
        seeds = tuple(3 * seed + offset for offset in range(3))
        return [
            dataclasses.replace(
                cell, seeds=seeds, horizon_days=cell.horizon_days * scale
            )
            for cell in chaos_grid(**CAMPAIGN_PRESETS["fleet"])
        ]

    def run_pass(self, scenarios: List[ChaosScenario], obs: bool) -> List[Run]:
        # The campaign builds and runs its systems itself; ``build_system`` is
        # wrapped for the set-up time and each system's run() for the run
        # time, so the campaign code path stays the one users call.
        built: Dict[tuple, Dict[str, Any]] = {}
        original_build = ChaosScenario.build_system

        def timed_build(scenario, seed):
            gc.collect()  # the previous run's garbage is not this run's set-up
            started = time.perf_counter()
            parts = original_build(scenario, seed)
            entry = built[scenario.name, seed] = {"setup_s": time.perf_counter() - started}
            system, auditor = parts[:2]
            bare_run = system.run

            def timed_run(duration):
                begun = time.perf_counter()
                result = bare_run(duration)
                entry["run_s"] = time.perf_counter() - begun
                entry["summary"] = output_summary(system, result, auditor)
                return result

            system.run = timed_run
            return parts

        runs = {
            (cell.name, seed): Run(f"{cell.name}@{seed}", cell.num_machines * cell.horizon_days)
            for cell in scenarios
            for seed in cell.seeds
        }
        ChaosScenario.build_system = timed_build
        context = observability_on() if obs else contextlib.nullcontext()
        try:
            with context:
                report = run_campaign(scenarios, workers=1)
        except Exception as exc:
            for run in runs.values():
                run.error = f"{type(exc).__name__}: {exc}"
            return list(runs.values())
        finally:
            ChaosScenario.build_system = original_build
        for row in report.rows:
            for seed in row["seeds"]:
                run = runs[row["scenario"], seed]
                entry = built.get((row["scenario"], seed), {})
                if "summary" not in entry:
                    run.error = "campaign row without a completed run"
                    continue
                run.setup_s = entry["setup_s"]
                run.run_s = entry["run_s"]
                _finish(run, entry["summary"], row)
        return list(runs.values())


WORKLOADS = {w.name: w for w in (PolicyWeek16(), AgentsObs16(), ChaosFleet1k())}


def pass_counts(runs: List[Run]) -> Dict[str, int]:
    """Output-derived counts summed over one pass."""
    totals = {name: 0 for name in OUTPUT_COUNTS}
    for run in runs:
        for name, value in run.counts.items():
            totals[name] += value
    return totals


def pass_seconds(runs: List[Run], field: str) -> float:
    return sum(getattr(run, field) for run in runs)


def run_failed(run: Run, pinned: Optional[str], first: Optional[str]) -> str:
    """Why ``run`` fails the output check ("" when it passes)."""
    if run.error:
        return run.error
    if run.violations:
        return f"{run.violations} auditor violation(s)"
    if pinned is not None and run.digest != pinned:
        return f"digest {run.digest} != pinned {pinned}"
    if first is not None and run.digest != first:
        return f"digest {run.digest} differs from this seed's first pass {first}"
    return ""
