"""Regenerate the output pins in ``pins.json``.

    python3 simbench/pin.py --seeds 0-19

For each workload and seed, runs one untraced and one traced pass,
requires them to agree, and records every run's output digest and the
pass's exact per-layer counts.  A change that alters simulated bytes on
purpose regenerates the pins in the same commit, like the goldens.
Existing entries for other seeds or workloads are kept.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List

import run as bench


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 0-15 or 1,4,9")
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--out", default=str(bench.DEFAULT_PINS))
    args = parser.parse_args()

    bench.load_repro()
    from tracing import SpanTracer, instrument
    from workloads import WORKLOADS, pass_counts

    try:
        with open(args.out) as handle:
            doc = json.load(handle)
    except FileNotFoundError:
        doc = {}
    if doc.get("scale", args.scale) != args.scale:
        raise SystemExit(f"{args.out} holds pins for scale {doc['scale']}, not {args.scale}")
    doc["scale"] = args.scale
    pins = doc.setdefault("workloads", {})
    for name in args.workloads or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        for seed in args.seeds:
            scenarios = workload.scenarios(seed, args.scale)
            bare = workload.run_pass(scenarios, workload.obs_default)
            tracer = SpanTracer(cap=0)
            with instrument(tracer):
                traced = workload.run_pass(scenarios, workload.obs_default)
            for one, two in zip(bare, traced):
                if one.error or one.violations or one.digest != two.digest:
                    raise SystemExit(
                        f"{name} seed {seed} {one.name}: cannot pin "
                        f"(error={one.error!r}, violations={one.violations}, "
                        f"digests {one.digest} vs {two.digest})"
                    )
            pins.setdefault(name, {})[str(seed)] = {
                "runs": {run.name: run.digest for run in bare},
                "counts": bench.layer_counts(tracer.counts, pass_counts(traced)),
            }
            print(f"pinned {name} seed {seed}", flush=True)
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
