"""Steadiness report: repeated benchmark runs, their medians and quartiles.

Usage, from the root of a source checkout:

    python3 perfbench/steady.py [--workloads W ...] [--seeds 1-10]
        [--seconds S] [--sets N]

Runs ``run.py`` once per workload and seed (``--trace 0``), ``--sets``
times over, and prints for every workload and end-to-end metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median, beside the metric's bound from
``BENCHMARK.json``. With two or more sets it also prints how far each
later set's median moved from the first, in either direction. The exit code
is 1 when a spread or a move exceeds the metric's bound.
The Python version, ``nproc`` and platform head the report, and the raw
results go to ``.perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)

    print(f"python={platform.python_version()} nproc={os.cpu_count()} platform={platform.platform()}")
    runs = []  # (set, workload, seed, metrics)
    for set_no in range(args.sets):
        for workload in args.workloads:
            for seed in seeds:
                runs.append((set_no, workload, seed, _run(bench, workload, seed, args.seconds)))
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench", "steady.json"), "w") as f:
        json.dump(runs, f)

    failed = False
    for workload in args.workloads:
        medians = {}
        for set_no in range(args.sets):
            for metric in bench["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [r[3][name] for r in runs if r[0] == set_no and r[1] == workload]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median
                medians.setdefault(name, []).append(median)
                flag = "" if spread <= bound / 3 else (" above bound/3" if spread <= bound else " ABOVE BOUND")
                failed |= spread > bound
                print(f"set={set_no + 1} {workload:8s} {name:12s} median={median:.6g} q1={q1:.6g} q3={q3:.6g} "
                      f"spread={spread:.4f} bound={bound}{flag}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first = medians[name][0]
            for set_no, median in enumerate(medians[name][1:], start=2):
                moved = (median - first) / first
                flag = "" if abs(moved) <= bound else " MOVED BY MORE THAN BOUND"
                failed |= abs(moved) > bound
                print(f"set={set_no} vs set=1 {workload:8s} {name:12s} moved_by={moved:+.4f} bound={bound}{flag}")
    return 1 if failed else 0


def _run(bench, workload, seed, seconds):
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    print(f"  {workload} seed={seed}: " + " ".join(
        f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    return {k: v["value"] for k, v in result["metrics"].items()}


if __name__ == "__main__":
    sys.exit(main())
