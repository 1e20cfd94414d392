#!/usr/bin/env python3
"""End-to-end benchmark of the OAQ library (definitions: perfbench/README.md).

    python3 perfbench/run.py --workload analytic-k12 --seed 7 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. The script builds perfbench/ (the harness
plus the library it compiles from src/) into .bench_build with CMake,
runs the harness on one workload, and prints the result JSON as the last
line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 measures the end-to-end metrics (BENCHMARK.json "end_to_end")
with every observer off; --trace 1 is the separate traced process that
reports the per-layer metrics ("per_layer"). --self-check runs every
workload briefly in both modes and checks that each metric named in
BENCHMARK.json is emitted with its unit and that every output check
passes.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
HARNESS = BUILD / "oaq_perfbench"
BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configure once, then (re)build the harness; logs go to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit("error: library sources (src/) not found next to "
                         "perfbench/; run from a full checkout")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=120)
    subprocess.run(["cmake", "--build", str(BUILD), "--target",
                    "oaq_perfbench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, timeout=700)


def git_describe():
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty",
                              "--tags"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_benchmark():
    with open(BENCHMARK) as f:
        return json.load(f)


def run_harness(workload, seed, seconds, trace):
    """Run one harness process; returns (stdout lines, parsed result)."""
    mode = "layers" if trace else "timed"
    cmd = [str(HARNESS), mode, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    with open(DIGESTS) as f:
        pinned = json.load(f).get(workload)
    if pinned:
        cmd += ["--pinned", pinned]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=2 * seconds + 60)
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        raise SystemExit(f"error: harness exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        raise SystemExit(f"error: malformed result line: {lines[-1]}")
    return lines[:-1], result


def peak_rss(workload, seed, processes):
    """peak_rss_mb: median VmHWM of fresh processes that each make one
    jobs=nproc call of the workload and nothing else."""
    values = []
    for _ in range(processes):
        out = subprocess.run([str(HARNESS), "once", "--workload", workload,
                              "--seed", str(seed)], capture_output=True,
                             text=True, check=True, timeout=10).stdout
        fields = dict(line.split(" ", 1) for line in out.splitlines())
        values.append(float(fields["peak_rss_mb"]))
    values.sort()
    return values[len(values) // 2], values


def check_metrics(result, wanted):
    """Every metric named in BENCHMARK.json is emitted with its unit and a
    finite value, and nothing else is. Returns the list of problems."""
    problems = []
    got = result["metrics"]
    for spec in wanted:
        m = got.get(spec["name"])
        if m is None:
            problems.append(f"metric {spec['name']} missing")
        elif m.get("unit") != spec["unit"]:
            problems.append(f"metric {spec['name']} has unit {m.get('unit')}"
                            f", BENCHMARK.json says {spec['unit']}")
        elif not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            problems.append(f"metric {spec['name']} value is not finite")
    extra = set(got) - {spec["name"] for spec in wanted}
    problems += [f"metric {name} not named in BENCHMARK.json"
                 for name in sorted(extra)]
    return problems


def measure(bench, workload, seed, seconds, trace, rss_processes=3):
    """One benchmark run: the report lines and the result, with the check
    that BENCHMARK.json's metrics were all emitted folded into it."""
    lines, result = run_harness(workload, seed, seconds, trace)
    if not trace:
        rss, samples = peak_rss(workload, seed, rss_processes)
        lines.append(f"metric peak_rss_mb = {rss:.6g} MB  [median VmHWM of "
                     f"n={len(samples)} one-call processes: {samples}]")
        result["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    problems = check_metrics(
        result, bench["per_layer"] if trace else bench["end_to_end"])
    lines += [f"check FAILED {p}" for p in problems]
    if problems:
        result["correct"] = False
        result["attempted"] += len(problems)
        result["failed"] += len(problems)
    return lines, result


def run_one(args):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise SystemExit(f"error: unknown workload {args.workload}; "
                         f"choose one of {', '.join(names)}")
    build()
    print(f"git_describe {git_describe()}")
    lines, result = measure(bench, args.workload, args.seed, args.seconds,
                            args.trace)
    print("\n".join(lines))
    print(json.dumps(result, separators=(",", ":")))


def self_check(args):
    bench = load_benchmark()
    build()
    passed = True
    for w in bench["workloads"]:
        for trace in (0, 1):
            lines, result = measure(bench, w["name"], DEFAULT_SEED,
                                    args.seconds, trace, rss_processes=1)
            ok = result["correct"] and result["failed"] == 0
            passed = passed and ok
            print(f"{w['name']:14s} trace {trace}: "
                  f"{len(result['metrics'])} metrics, "
                  f"{result['attempted']} checks, {'ok' if ok else 'FAILED'}")
            for line in lines:
                if "FAILED" in line:
                    print(line)
    print("self-check " + ("passed" if passed else "failed"))
    return 0 if passed else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    if args.self_check:
        if args.seconds is None:
            args.seconds = 2.0
        return self_check(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
