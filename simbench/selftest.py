"""Self-test of the benchmark; takes about a minute.

    python3 simbench/selftest.py

Runs every workload at a tiny horizon, traced and untraced, and checks
that the last output line names every metric of ``BENCHMARK.json`` with
its unit.  Then pins a tiny run, checks that the pin passes, corrupts one
digest and checks that the run is reported failed with a non-zero exit.
Last, it runs the benchmark in a directory that holds only
``BENCHMARK.json`` and the benchmark's files, which must fail without a
result.  Scratch files go to ``simbench/out/selftest/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = HERE / "out" / "selftest"
SCALE = "0.02"
SEED = "1"


def bench(*args: str, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    done = subprocess.run(
        [sys.executable, str(script), "--seed", SEED, "--seconds", "0.5", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = done.stdout.strip().splitlines()
    return done, lines


def pin_tiny_run(pins: Path) -> None:
    subprocess.run(
        [sys.executable, str(HERE / "pin.py"), "--seeds", SEED, "--scale", SCALE,
         "--workloads", "policy_week16", "--out", str(pins)],
        cwd=ROOT, check=True, capture_output=True, timeout=300,
    )


def result_of(lines):
    return json.loads(lines[-1])


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}", flush=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)

    # policy_week16 is not in BENCHMARK.json (see README.md) but stays runnable.
    for workload in ["policy_week16"] + [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            done, lines = bench(
                "--workload", workload, "--trace", str(trace), "--scale", SCALE,
                "--out-dir", str(SCRATCH),
            )
            check(done.returncode == 0, f"{workload} trace={trace} exits 0")
            result = result_of(lines)
            check(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{workload} trace={trace} prints the result keys",
            )
            check(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{workload} trace={trace} passes its output check",
            )
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            check(units == expected[trace], f"{workload} trace={trace} prints every metric and unit")
            printed = "\n".join(lines[:-1])
            check(
                all(name in printed for name in expected[trace]),
                f"{workload} trace={trace} names every metric in its table",
            )
            check("no pinned digest" in printed, f"{workload} trace={trace} says it has no pin")

    pins = SCRATCH / "pins.json"
    pin_tiny_run(pins)
    done, lines = bench("--workload", "policy_week16", "--scale", SCALE, "--pins", str(pins))
    check(done.returncode == 0 and result_of(lines)["correct"], "a run matching its pin passes")
    check(any("digests pinned" in line for line in lines), "the output says the seed is pinned")

    doc = json.loads(pins.read_text())
    entry = doc["workloads"]["policy_week16"][SEED]
    victim = sorted(entry["runs"])[0]
    entry["runs"][victim] = "0" * 16
    pins.write_text(json.dumps(doc))
    done, lines = bench("--workload", "policy_week16", "--scale", SCALE, "--pins", str(pins))
    result = result_of(lines)
    check(done.returncode != 0, "a wrong pin makes the command exit non-zero")
    check(not result["correct"] and result["failed"] >= 1, "a wrong pin is reported as a failed run")
    check(any(f"FAILED pass 0 {victim}" in line for line in lines), "the failed run is named")

    pin_tiny_run(pins)
    doc = json.loads(pins.read_text())
    doc["workloads"]["policy_week16"][SEED]["counts"]["sim.events"] += 1
    pins.write_text(json.dumps(doc))
    done, lines = bench(
        "--workload", "policy_week16", "--scale", SCALE, "--pins", str(pins), "--trace", "1",
        "--out-dir", str(SCRATCH),
    )
    check(done.returncode != 0 and not result_of(lines)["correct"], "a wrong pinned count fails the traced run")

    bare = SCRATCH / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "simbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done, lines = bench("--workload", "policy_week16", cwd=bare, script=bare / "simbench" / "run.py")
    check(done.returncode != 0, "without the sources the command exits non-zero")
    check(not any(line.startswith("{") for line in lines), "without the sources nothing is printed as a result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
