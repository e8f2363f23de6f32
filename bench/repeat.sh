#!/usr/bin/env bash
# Repeatability check: runs two full sets of the benchmark back to back
# (every workload, RUNS seeds each, tracing off) and prints, per metric x
# workload, the two medians, their relative gap, and each set's spread
# (interquartile range / median, as statistics.quantiles(values, n=4) gives
# it). Fails if any gap exceeds the metric's bound in BENCHMARK.json, or any
# spread other than setup_s's does. The output is markdown; commit it as
# bench/REPEATABILITY.md.
#
#   bench/repeat.sh                 # RUNS=10, RUN_SECONDS from BENCHMARK.json
#   RUNS=4 RUN_SECONDS=4 bench/repeat.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --quiet --manifest-path bench/Cargo.toml
target_dir="${CARGO_TARGET_DIR:-bench/target}"
BENCH_BIN="$target_dir/release/bench" exec python3 - <<'PY'
import json, os, statistics, subprocess, sys

spec = json.load(open("BENCHMARK.json"))
runs = int(os.environ.get("RUNS", "10"))
seconds = os.environ.get("RUN_SECONDS", str(spec["run_seconds"]))
binary = os.environ["BENCH_BIN"]
bounds = {m["name"]: m for m in spec["end_to_end"]}

def one_set(first_seed):
    out = {}
    for w in (w["name"] for w in spec["workloads"]):
        for seed in range(first_seed, first_seed + runs):
            p = subprocess.run(
                [binary, "--workload", w, "--seed", str(seed), "--seconds", seconds, "--trace", "0"],
                capture_output=True, text=True)
            if p.returncode != 0:
                sys.exit(f"{w} seed {seed} failed:\n{p.stdout}\n{p.stderr}")
            result = json.loads(p.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{w} seed {seed}: {result['failed']} operations failed")
            for name, m in result["metrics"].items():
                out.setdefault((w, name), []).append(m["value"])
    return out

def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)

first, second = one_set(1), one_set(1 + runs)
print(f"Two sets of {runs} runs per workload, {seconds} s each, seeds 1-{runs} and {runs + 1}-{2 * runs}.")
print()
print("| workload | metric | median 1 | median 2 | gap (2 vs 1, worse = +) | spread 1 | spread 2 | bound | |")
print("|---|---|---|---|---|---|---|---|---|")
failed = []
for (w, name), a in first.items():
    b = second[(w, name)]
    m1, m2 = statistics.median(a), statistics.median(b)
    worse = (m2 - m1) / m1 if bounds[name]["better"] == "lower" else (m1 - m2) / m1
    s1, s2 = spread(a), spread(b)
    bound = bounds[name]["bound"]
    bad = worse > bound or (name != "setup_s" and max(s1, s2) > bound)
    if bad:
        failed.append(f"{w} {name}")
    print(f"| {w} | {name} | {m1:.4f} | {m2:.4f} | {worse:+.1%} | {s1:.1%} | {s2:.1%} | {bound:.0%} | {'FAIL' if bad else 'ok'} |")
print()
if failed:
    sys.exit("outside the bounds: " + ", ".join(failed))
print("Every gap and every spread is within its bound.")
PY
