#!/usr/bin/env python3
"""Builds and runs the serve benchmark.

    python3 perfbench/run.py --workload stab|scan|ingest --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first form builds the `perfbench`
package (a cargo package of its own, built against the repository's
crates) in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`) and runs one workload; the last line of stdout is the
result as one JSON object. `--smoke` runs every workload of
BENCHMARK.json for one second, untraced and traced, and checks that
each run is correct and reports every metric BENCHMARK.json names,
finite and with its unit.

Exits 0 on a correct run, 1 when the build, the run or a check fails,
and 2 on bad usage.
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Builds the benchmark; returns the binary's path or None."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    try:
        # cargo's output goes to stderr: stdout ends with the result line
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"build failed with exit code {done.returncode}", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload} did not finish within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def smoke(binary):
    """Short runs of every workload, untraced and traced, checked
    against the metric lists of BENCHMARK.json."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, out = run_once(binary, w["name"], 1, 1, trace)
            label = f"{w['name']} --trace {trace}"
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{label}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{label}: correct={result['correct']} failed={result['failed']}")
            got = result["metrics"]
            names = {m["name"] for m in listed}
            for extra in sorted(set(got) - names):
                problems.append(f"{label}: {extra} is not listed in BENCHMARK.json")
            for m in listed:
                v = got.get(m["name"])
                if v is None:
                    problems.append(f"{label}: {m['name']} missing")
                elif not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                    problems.append(f"{label}: {m['name']} = {v['value']!r}")
                elif v["unit"] != m["unit"]:
                    problems.append(f"{label}: {m['name']} in {v['unit']}, listed in {m['unit']}")
            print(f"{label}: {len(got)} metrics checked", file=sys.stderr)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    os.chdir(ROOT)
    binary = build()
    if binary is None:
        return 1
    if args.smoke:
        return smoke(binary)
    code, out = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
