#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root. The build goes to .bench_build/perfbench
(configured once, then rebuilt incrementally); build output goes to
stderr. Every run first runs the checker's own tests (hand-broken
schedules it must reject) and stops if they fail. The last line of stdout
is the result JSON of the perfbench program. BENCHMARK.json alone defines
the metric set: this script rejects a metric it does not declare for the
mode or a unit that differs, requires every end-to-end metric, and fills
0 for a per-layer metric the workload does not report.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
JOBS = "4"  # the reference machine's core count


def build():
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no program sources next to the benchmark")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", JOBS, "--target",
                    "perfbench", "perfbench_check_test"],
                   check=True, stdout=sys.stderr)


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    group = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    build()
    # The checker must reject every hand-broken schedule before its verdict
    # on a workload's schedules means anything.
    checked = subprocess.run([os.path.join(BUILD, "perfbench_check_test")],
                             stdout=sys.stderr)
    if checked.returncode != 0:
        sys.exit("perfbench: the checker's tests failed")
    out_dir = os.path.join(BUILD, "run")
    os.makedirs(out_dir, exist_ok=True)
    # Relative to the repository root (the working directory below) so the
    # daemon's socket path stays short.
    proc = subprocess.run(
        [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace),
         "--served", os.path.join(BUILD, "program", "bsa_served"),
         "--out-dir", os.path.relpath(out_dir, ROOT)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        sys.exit(f"perfbench: benchmark program exited with {proc.returncode}")
    result = json.loads(lines[-1])
    want = declared_metrics(args.trace == 1)
    got = result["metrics"]
    extra = sorted(set(got) - set(want))
    units = sorted(k for k in set(got) & set(want) if got[k]["unit"] != want[k])
    missing = sorted(set(want) - set(got))
    if extra or units or (missing and args.trace == 0):
        sys.exit(f"perfbench: metrics differ from BENCHMARK.json: "
                 f"undeclared {extra}, other unit {units}, missing {missing}")
    # A layer the workload does not run reads 0.
    for name in missing:
        got[name] = {"value": 0, "unit": want[name]}
    result["metrics"] = dict(sorted(got.items()))
    print("\n".join(lines[:-1] + [json.dumps(result)]))


if __name__ == "__main__":
    main()
