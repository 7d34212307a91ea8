#!/usr/bin/env python3
"""Build and run the pipeline benchmark from the root of a checkout.

    python3 pipebench/run.py --workload hotpath|ingest|analyze --seed N \
        --seconds S --trace 0|1
    python3 pipebench/run.py --smoke

The first form builds the benchmark (and the ktrace libraries it links)
into .bench_build/pipebench when needed, then runs one workload; the last
line of stdout is the result object. --smoke is the benchmark's own test:
it runs every workload on tiny inputs, checks that each prints every
metric named in BENCHMARK.json with its unit and passes its correctness
gate, and checks that each gate fires on a deliberately damaged input.
"""

import argparse
import fcntl
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "pipebench")
BINARY = os.path.join(BUILD, "pipebench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the binary up to date. False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"ktrace sources not found under {ROOT}/src")
        return False
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", BUILD, "--target", "pipebench",
                      "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except (OSError, subprocess.TimeoutExpired) as error:
                log(f"build step failed: {error}")
                return False
            if done.returncode != 0:
                log(f"build step failed ({done.returncode}): {' '.join(step)}")
                return False
    return os.access(BINARY, os.X_OK)


def remove_stale_runs():
    """Removes the working directories of runs that were killed."""
    if not os.path.isdir(RUN_DIR):
        return
    for name in os.listdir(RUN_DIR):
        match = re.fullmatch(r"[a-z]+-(\d+)", name)
        if not match:
            continue
        try:
            os.kill(int(match.group(1)), 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(RUN_DIR, name), ignore_errors=True)
        except PermissionError:
            pass


def run_binary(arguments, capture):
    """Runs the benchmark binary from the checkout root."""
    remove_stale_runs()
    return subprocess.run([BINARY] + arguments, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                          stdout=subprocess.PIPE if capture else None,
                          text=True, check=False)


# --- smoke mode --------------------------------------------------------------


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_result(result, expected, label):
    """Problems with one result object against the expected metric units."""
    if result is None:
        return [f"{label}: last stdout line is not a JSON object"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{label}: attempted {result['attempted']!r}")
    if not isinstance(result["failed"], int):
        problems.append(f"{label}: failed {result['failed']!r}")
    metrics = result["metrics"]
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"{label}: missing {missing}, unexpected {extra}")
    for name, unit in expected.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {name} value {value!r}")
        if metric.get("unit") != unit:
            problems.append(f"{label}: {name} unit {metric.get('unit')!r}, want {unit!r}")
    return problems


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        base = ["--workload", workload, "--seed", "1", "--seconds", "1", "--smoke"]
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            label = f"{workload} --trace {trace}"
            done = run_binary(base + ["--trace", trace], capture=True)
            result = last_json(done.stdout)
            found = check_result(result, expected, label)
            if done.returncode != 0:
                found.append(f"{label}: exit code {done.returncode}")
            elif result is not None and (not result["correct"] or result["failed"]):
                found.append(f"{label}: gate failed on undamaged input")
            problems += found
            log(f"{label}: {'ok' if not found else 'FAILED'}")
        label = f"{workload} --damage"
        done = run_binary(base + ["--trace", "0", "--damage"], capture=True)
        result = last_json(done.stdout)
        fired = (done.returncode != 0 and result is not None
                 and result.get("correct") is False and result.get("failed", 0) >= 1)
        if not fired:
            problems.append(f"{label}: the gate did not fire (exit {done.returncode})")
        log(f"{label}: {'gate fired' if fired else 'FAILED'}")
    for problem in problems:
        log(problem)
    print(json.dumps({"smoke": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 2
    if args.smoke:
        return smoke()
    try:
        done = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(args.seconds), "--trace", str(args.trace)],
                          capture=False)
    except subprocess.TimeoutExpired:
        log(f"the benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 3
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
