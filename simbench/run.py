"""Benchmark of the GEMINI simulator: one workload per invocation.

    python3 simbench/run.py --workload agents_obs16 --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout and imports ``repro`` from its
``src/`` directory.  A run is a closed loop in one process with one
worker: it repeats *passes* over the workload's scenarios (every
scenario once, back to back) until ``--seconds`` have passed, checks the
simulated output of every run, and prints the metrics.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 42, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` cycles an
untraced pass, a traced pass (every public entry point of each ``repro``
package wrapped in a span, see ``tracing.py``) and a pass with
observability flipped, and reports the per-layer metrics; it also writes
the traced pass's spans to ``simbench/out/`` and prints a self-time table
grouped by ``repro`` package.

The exit code is 0 only if every run passed its output check: no
exception, no auditor violation, a digest equal to the pin in
``pins.json`` for this seed (when there is one) and equal across passes,
and per-layer counts that repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DEFAULT_PINS = HERE / "pins.json"
DEFAULT_OUT = HERE / "out"

#: import probes per run; ``setup_s`` uses their median.
IMPORT_PROBES = 5
PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "started = time.perf_counter()\n"
    "import repro.chaos, repro.core.system, repro.experiments, repro.failures, repro.obs\n"
    "print(time.perf_counter() - started)\n"
)

END_TO_END_UNITS = {
    "mdays_per_s": "mday/s",
    "run_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer self-time metric -> span layer (see tracing.ENTRY_POINTS).
SELF_TIME_LAYERS = {
    "sim.self_s": "sim",
    "core.policy.self_s": "core.policy",
    "core.placement.self_s": "core.placement",
    "core.recovery.self_s": "core.recovery",
    "storage.cpu.self_s": "storage.cpu",
    "storage.tiers.self_s": "storage.tiers",
    "cluster.self_s": "cluster",
    "network.fabric.self_s": "network.fabric",
    "kvstore.self_s": "kvstore",
    "trace.self_s": "trace",
    "obs.self_s": "obs",
    "chaos.auditor.self_s": "chaos.auditor",
    "experiments.sweep.self_s": "experiments.sweep",
}

#: exact per-layer work counts, in report order.
COUNT_METRICS = (
    "sim.events",
    "core.policy.calls",
    "core.placement.calls",
    "core.recovery.plans",
    "core.kernel.iterations",
    "core.kernel.recoveries",
    "storage.cpu.writes",
    "storage.cpu.valid_checks",
    "storage.ssd.writes",
    "storage.persistent.puts",
    "cluster.liveness_checks",
    "network.fabric.transfers",
    "kvstore.ops",
    "kvstore.revisions",
    "trace.records",
    "chaos.auditor.audited_plans",
)

RATIO_METRICS = ("obs.overhead_x", "bench.tracing_overhead_x")


def per_layer_units() -> Dict[str, str]:
    units = {name: "count" for name in COUNT_METRICS}
    units.update({name: "s" for name in SELF_TIME_LAYERS})
    units.update({name: "x" for name in RATIO_METRICS})
    return units


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="multiplier on every simulated horizon (pins hold for one scale)",
    )
    parser.add_argument("--pins", type=Path, default=DEFAULT_PINS)
    parser.add_argument("--out-dir", type=Path, default=DEFAULT_OUT)
    return parser.parse_args(argv)


def load_repro() -> None:
    """Put the checkout's ``src/`` first on the path; refuse any other copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"simbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    origin = Path(repro.__file__).resolve()
    if SRC not in origin.parents:
        raise SystemExit(f"simbench: imported repro from {origin}, not {SRC}")


def probe_import_seconds() -> float:
    """Median host seconds a fresh interpreter spends importing ``repro``."""
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", PROBE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def load_pins(path: Path, workload: str, seed: int, scale: float) -> Optional[Dict[str, Any]]:
    """This seed's pins, or None when the file has none for it."""
    if not path.is_file():
        return None
    doc = json.loads(path.read_text())
    if doc.get("scale") != scale:
        return None
    return doc.get("workloads", {}).get(workload, {}).get(str(seed))


def layer_counts(tracer_counts: Dict[str, int], output_counts: Dict[str, int]) -> Dict[str, int]:
    counts = {name: 0 for name in COUNT_METRICS}
    counts.update(tracer_counts)
    counts.update(output_counts)
    # plan_recovery is a policy hook too; its spans are core.recovery's.
    counts["core.policy.calls"] += counts["core.recovery.plans"]
    return {name: counts[name] for name in COUNT_METRICS}


class Checker:
    """The output check over every run of every pass."""

    def __init__(self, pins: Optional[Dict[str, Any]]):
        self.pins = pins
        self.first: Dict[str, str] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.failed_runs = 0
        self.problems: List[str] = []

    def check_pass(self, runs, label: str) -> None:
        from workloads import run_failed

        pinned_runs = self.pins["runs"] if self.pins else {}
        for run in runs:
            self.attempted += 1
            if not run.error:
                self.first.setdefault(run.name, run.digest)
            why = run_failed(run, pinned_runs.get(run.name), self.first.get(run.name))
            if why:
                self.failed_runs += 1
                self.failures.append(f"{label} {run.name}: {why}")

    def check_counts(self, counts: Dict[str, int], reference: Dict[str, int], what: str) -> None:
        for name in COUNT_METRICS:
            if counts.get(name) != reference.get(name):
                self.problems.append(
                    f"{name} = {counts.get(name)} differs from {what} {reference.get(name)}"
                )

    @property
    def correct(self) -> bool:
        return not self.failures and not self.problems

    def report(self, seed: int) -> List[str]:
        if self.pins:
            lines = [f"output check: digests pinned for seed {seed}"]
        else:
            lines = [
                f"output check: seed {seed} has no pinned digest; checking for no "
                "exception, zero auditor violations and equal digests across passes"
            ]
        lines += [f"FAILED {line}" for line in self.failures]
        lines += [f"COUNT MISMATCH {line}" for line in self.problems]
        return lines


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def run_end_to_end(workload, scenarios, seconds: float, checker: Checker, import_s: float):
    from workloads import pass_seconds

    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        runs = workload.run_pass(scenarios, workload.obs_default)
        checker.check_pass(runs, f"pass {len(passes)}")
        passes.append(runs)
        if time.perf_counter() >= deadline:
            break
    good = [[run for run in runs if not run.error] for runs in passes]
    rates = [
        sum(run.machine_days for run in runs) / pass_seconds(runs, "run_s")
        for runs in good
        if runs
    ]
    run_times = [run.run_s for runs in good for run in runs]
    construct = median([pass_seconds(runs, "setup_s") for runs in good])
    metrics = {
        "mdays_per_s": median(rates),
        "run_p50_s": median(run_times),
        "setup_s": import_s + construct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"{len(passes)} passes x {len(passes[0])} runs; mdays_per_s by pass: "
        + " ".join(f"{rate:.4g}" for rate in rates),
        f"run_p50_s over n={len(run_times)} runs",
        f"setup_s = import {import_s:.4f} s + construction {construct:.4f} s per pass",
    ]
    return metrics, notes


def run_traced(workload, scenarios, seconds: float, checker: Checker, out_dir: Path, seed: int):
    from tracing import SPAN_CAP, SpanTracer, instrument
    from workloads import pass_counts, pass_seconds

    def busy(runs) -> float:
        return pass_seconds(runs, "setup_s") + pass_seconds(runs, "run_s")

    bare, traced, obs_on, obs_off = [], [], [], []
    self_times: Dict[str, List[float]] = {}
    # Set by the first cycle, which always runs.
    reference: Dict[str, int] = {}
    first_tracer = SpanTracer()
    deadline = time.perf_counter() + seconds
    cycle = 0
    while True:
        runs = workload.run_pass(scenarios, workload.obs_default)
        checker.check_pass(runs, f"cycle {cycle} untraced")
        bare.append(busy(runs))
        (obs_on if workload.obs_default else obs_off).append(pass_seconds(runs, "run_s"))

        tracer = first_tracer if not cycle else SpanTracer(cap=0)
        with instrument(tracer):
            runs = workload.run_pass(scenarios, workload.obs_default)
        checker.check_pass(runs, f"cycle {cycle} traced")
        traced.append(busy(runs))
        counts = layer_counts(tracer.counts, pass_counts(runs))
        if not cycle:
            reference = counts
        else:
            checker.check_counts(counts, reference, "the first traced pass")
        for layer, spent in tracer.self_s.items():
            self_times.setdefault(layer, []).append(spent)

        runs = workload.run_pass(scenarios, not workload.obs_default)
        checker.check_pass(runs, f"cycle {cycle} obs {'off' if workload.obs_default else 'on'}")
        (obs_off if workload.obs_default else obs_on).append(pass_seconds(runs, "run_s"))
        cycle += 1
        if time.perf_counter() >= deadline:
            break
    if checker.pins:
        checker.check_counts(reference, checker.pins["counts"], "the pinned count")

    metrics: Dict[str, float] = dict(reference)
    for metric, layer in SELF_TIME_LAYERS.items():
        # A layer the workload never enters has no spans: zero, not missing.
        metrics[metric] = median(self_times.get(layer, [0.0]))
    metrics["obs.overhead_x"] = median(obs_on) / median(obs_off)
    metrics["bench.tracing_overhead_x"] = median(traced) / median(bare)

    out_dir.mkdir(parents=True, exist_ok=True)
    spans_path = out_dir / f"spans-{workload.name}-seed{seed}.json"
    resolved = spans_path.resolve()
    shown = resolved.relative_to(ROOT) if ROOT in resolved.parents else resolved
    first_tracer.write(spans_path, workload=workload.name, seed=seed, clock="host perf_counter")

    table = self_time_table(self_times, median(traced))
    if workload.obs_default:
        on, off = "the workload", "the same pass with obs=None"
    else:
        on, off = "the same pass with Observability() on every system", "the workload"
    notes = [
        f"{cycle} cycles of untraced, traced and obs-flipped passes",
        f"obs.overhead_x = run seconds of {on} / {off}",
        "bench.tracing_overhead_x base: the untraced pass (set-up plus run seconds)",
        f"spans: {shown} ({len(first_tracer.spans)} stored, "
        f"{first_tracer.dropped} past the cap of {SPAN_CAP})",
    ]
    return metrics, notes + table


def self_time_table(self_times: Dict[str, List[float]], traced_s: float) -> List[str]:
    """Median per-pass self time by layer, grouped by repro package."""
    by_package: Dict[str, List[str]] = {}
    totals: Dict[str, float] = {}
    for layer in sorted(self_times):
        package = layer.split(".")[0]
        spent = median(self_times[layer])
        totals[package] = totals.get(package, 0.0) + spent
        by_package.setdefault(package, []).append(
            f"    {layer:<22} {spent:10.4f} s"
        )
    lines = [f"self time per traced pass ({traced_s:.4f} s busy), by repro package:"]
    for package in sorted(totals, key=totals.get, reverse=True):
        share = 100.0 * totals[package] / traced_s if traced_s else 0.0
        lines.append(f"  {package:<24} {totals[package]:10.4f} s {share:6.1f}%")
        lines.extend(by_package[package])
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    load_repro()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"simbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(sorted(WORKLOADS))}"
        )
    workload = WORKLOADS[args.workload]
    scenarios = workload.scenarios(args.seed, args.scale)
    checker = Checker(load_pins(args.pins, workload.name, args.seed, args.scale))
    started = time.perf_counter()
    if args.trace:
        metrics, notes = run_traced(
            workload, scenarios, args.seconds, checker, args.out_dir, args.seed
        )
        units = per_layer_units()
    else:
        import_s = probe_import_seconds()
        metrics, notes = run_end_to_end(
            workload, scenarios, args.seconds, checker, import_s
        )
        units = END_TO_END_UNITS
    print(
        f"simbench {workload.name} seed={args.seed} scale={args.scale:g} "
        f"trace={args.trace}: {time.perf_counter() - started:.1f} s, "
        "1 process, 1 worker, closed loop"
    )
    for line in notes + checker.report(args.seed):
        print(line)
    for name, unit in units.items():
        value = metrics[name]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<30} {shown} {unit}")
    # Not a bounded metric: it is 0 whenever the program is right.
    print(
        f"  {'failed_run_frac':<30} {checker.failed_runs / checker.attempted:>16.6g} "
        f"({checker.failed_runs} of {checker.attempted} runs failed the output check)"
    )
    print(
        json.dumps(
            {
                "correct": checker.correct,
                "attempted": checker.attempted,
                "failed": checker.failed_runs,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            },
            sort_keys=True,
        )
    )
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
