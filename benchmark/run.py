#!/usr/bin/env python3
"""Builds agentnet_bench in Release and runs the benchmark workloads.

    python3 benchmark/run.py [--seed S] [--seconds N] [--trace] [--smoke]
        Runs all five workloads, one process at a time, and prints
        `workload metric value unit` for every metric. Exits non-zero if
        any output check fails.

    python3 benchmark/run.py --workload W --seed S --seconds N --trace 0|1
        Runs one workload. The last line of stdout is one JSON object:
        {"correct", "attempted", "failed", "metrics"}; the metrics are the
        end-to-end set of BENCHMARK.json untraced, the per-layer set traced.

    python3 benchmark/run.py --update-digests
        Rewrites benchmark/expected_digests.json from the default seed.

The metric names, units and bounds live in BENCHMARK.json at the
repository root; benchmark/README.md explains each one.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / "build-bench"
EXE = BUILD_DIR / "agentnet_bench"
DIGESTS = BENCH_DIR / "expected_digests.json"
WORKLOADS = ["mapping_paper", "routing_paper", "traffic_loaded",
             "city_agents", "field_1m"]
DEFAULT_SEED = 2010  # experiments/paper.hpp: the paper's network seed
RUN_TIMEOUT_S = 170


def fail_exit(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail_exit(f"cannot read BENCHMARK.json: {e}")


def check_hermetic():
    """The library reads AGENTNET_* knobs everywhere; an inherited one would
    silently change what is measured."""
    inherited = sorted(k for k in os.environ if k.startswith("AGENTNET_"))
    if inherited:
        fail_exit("refusing to run with inherited environment variables: "
                  + ", ".join(inherited))


def worker_threads():
    return min(len(os.sched_getaffinity(0)), 4)


def build(threads):
    """Configures (once) and builds the Release tree; quiet unless it fails."""
    BUILD_DIR.mkdir(exist_ok=True)
    log = BUILD_DIR / "build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "agentnet_bench", "-j", str(threads)])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              stdin=subprocess.DEVNULL).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail_exit(f"build failed (full log: {log})")


def git_sha():
    """Reads the checkout's HEAD without running git (the benchmark may run
    from an export that is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def filesystem(path):
    r = subprocess.run(["stat", "-f", "-c", "%T", str(path)],
                       capture_output=True, text=True,
                       stdin=subprocess.DEVNULL)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def run_workload(workload, seed, seconds, trace, smoke, threads):
    scratch = BUILD_DIR / "run" / workload
    cmd = [str(EXE), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--threads", str(threads), "--scratch", str(scratch)]
    if trace:
        cmd += ["--artefacts", str(BUILD_DIR / "trace")]
    if smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S, stdin=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        fail_exit(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail_exit(f"{workload} exited with code {r.returncode}")
    try:
        result = json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail_exit(f"{workload} printed no result")
    result["filesystem"] = filesystem(scratch)
    return result


def check_result(result, spec, trace, expected):
    """Schema and digest checks; returns the failure list and the metrics
    in BENCHMARK.json order, each {"value", "unit"}."""
    failures = list(result["failures"])
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in declared})
    if unknown:
        failures.append("schema: undeclared metrics " + ", ".join(unknown))
    metrics = {}
    for m in declared:
        value = got.get(m["name"])
        if value is None and trace:
            value = 0.0  # the layer is bypassed on this workload
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"schema: {m['name']} missing or not finite")
            continue
        if not trace and value <= 0:
            failures.append(f"schema: {m['name']} is not positive")
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
    if expected is not None:
        want = expected.get(result["workload"], {})
        for label, digest in sorted(result["digests"].items()):
            if want.get(label) != digest:
                failures.append(f"{label}: digest {digest} does not match "
                                f"expected {want.get(label)}")
    return failures, metrics


def expected_digests(seed, smoke):
    """Digests pin the default seed at full size; other runs check only
    the invariants."""
    if smoke or seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS.read_text())["workloads"]


def provenance_lines(result, threads):
    return [
        f"# git_sha {git_sha()}",
        f"# cmake_build_type {result['cmake_build_type']}",
        f"# obs_level {result['obs_level']}",
        f"# nproc {len(os.sched_getaffinity(0))}",
        f"# threads {threads}",
        f"# seed {result['seed']} run_seed_base {result['run_seed_base']}",
        f"# snapshot_fs {result['filesystem']}",
    ]


def report(result, metrics, failures, trace):
    w = result["workload"]
    for name, m in metrics.items():
        print(f"{w} {name} {m['value']!r} {m['unit']}")
    for name, (value, unit) in result["info"].items():
        print(f"{w} info.{name} {value!r} {unit}")
    if trace:
        for layer, self_s in sorted(result["self_time"].items()):
            print(f"{w} self_time.{layer} {self_s!r} s")
        print(f"# trace {BUILD_DIR / 'trace' / (w + '.trace.json')}")
    for f in failures:
        print(f"FAIL {w} {f}")


def main():
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=[0, 1])
    p.add_argument("--smoke", action="store_true",
                   help="toy sizes: a quick schema + invariant check")
    p.add_argument("--update-digests", action="store_true")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")

    check_hermetic()
    threads = worker_threads()
    build(threads)

    if args.update_digests:
        results = [run_workload(w, DEFAULT_SEED, 0, False, False, threads)
                   for w in WORKLOADS]
        bad = [f for r in results for f in r["failures"]]
        if bad:
            fail_exit("not writing digests of failing runs: " + "; ".join(bad))
        DIGESTS.write_text(json.dumps(
            {"seed": DEFAULT_SEED,
             "workloads": {r["workload"]: r["digests"] for r in results}},
            indent=2, sort_keys=True) + "\n")
        print(f"wrote {DIGESTS}")
        return 0

    seconds = 0 if args.smoke else args.seconds
    expected = expected_digests(args.seed, args.smoke)
    trace = bool(args.trace)
    workloads = [args.workload] if args.workload else WORKLOADS
    attempted = failed = 0
    metrics = {}
    for i, w in enumerate(workloads):
        result = run_workload(w, args.seed, seconds, trace, args.smoke,
                              threads)
        failures, metrics = check_result(result, spec, trace, expected)
        if i == 0:
            print("\n".join(provenance_lines(result, threads)))
        report(result, metrics, failures, trace)
        attempted += max(1, result["attempted"])
        failed += min(len(failures), max(1, result["attempted"]))

    if args.workload:
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0
    print(f"# {len(workloads)} workloads, {attempted} ops, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
