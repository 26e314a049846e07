"""End-to-end and per-layer benchmark of the ``mvcodes`` command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload {tables,catalog,embed} --seed N \\
        --seconds S --trace {0,1}

The seed makes the workload's input files and job list (see
``workloads.py``); the package sees only those files. A fresh worker
process imports ``mvcodes`` from ``src/`` and replays the job list through
``mvcodes.cli.run`` in a closed loop with one client for S seconds (by
default ``run_seconds`` of ``BENCHMARK.json``), each replay in a child forked
from the worker right after the import, so no replay sees state that an
earlier one left behind. Every
job's output is checked against ``model``, the package-independent
reference, and for the default seed also against ``golden.json``.

Every time is taken at the reference speed of ``gauge.py``: a wall time
divided by the gauge readings around it, so that the shared machine's
changes of speed cancel out. With ``--trace 0`` the last stdout line reports
the end-to-end metrics (``jobs_per_s``, ``job_p50_ms``, ``job_p90_ms``, all
from each job's median over the replays; ``setup_s``, the median import
probe; ``peak_rss_mb``); ``failed_frac`` and the gauge's readings are
printed above it. With ``--trace 1`` the worker alternates untraced and
traced replays, and the last line reports the ``per_layer`` metrics of
``BENCHMARK.json``, computed by ``layers.py``, plus ``trace.overhead_frac``;
traced output must be byte-identical to untraced output.

``--update-golden`` rewrites the workload's entry in ``golden.json`` from
a run with the default seed whose outputs all pass the checks.

The exit code is 0 when every output was right, 1 when something was
wrong or the package could not be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gauge  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
GOLDEN_SEED = 0
WORKER_TIMEOUT_S = 150


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-golden", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mvcodes", "cli.py")):
        sys.exit(f"no mvcodes sources under {SRC}")

    files, jobs = workloads.build(args.workload, args.seed)
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    for name, text in files.items():
        with open(os.path.join(workdir, name), "w") as f:
            f.write(text)
    with open(os.path.join(workdir, "jobs.json"), "w") as f:
        json.dump({"jobs": [[j["id"], j["argv"]] for j in jobs], "seconds": args.seconds,
                   "trace": bool(args.trace)}, f)

    # A fixed hash seed and malloc mmap threshold make memory use and set
    # iteration cost repeat from run to run. The worker and everything it
    # starts inherit this process's CPU: the last one, which usually takes
    # fewer interrupts than CPU 0, and no migrations between CPUs.
    env = dict(os.environ, PYTHONHASHSEED="0", MALLOC_MMAP_THRESHOLD_="131072")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    _run_worker(workdir, env)
    with open(os.path.join(workdir, "result.json")) as f:
        result = json.load(f)

    bad = _failures(args, jobs, files, workdir, result)
    for job_id, reason in sorted(bad.items()):
        print(f"FAILED {job_id} {' '.join(next(j['argv'] for j in jobs if j['id'] == job_id))}: {reason}",
              file=sys.stderr)
    replays = result["replays"]
    attempted = len(jobs) * len(replays)
    failed = len(bad) * len(replays)
    plain = [_scaled(r) for r in replays if not r["traced"]]
    per_job = _per_job(plain)
    p90 = statistics.quantiles(per_job, n=10)[8]
    setup = [gauge.scaled(*probe) for probe in result["setup_probes"]]
    e2e = {
        "jobs_per_s": (len(per_job) / sum(per_job), "1/s"),
        "job_p50_ms": (statistics.median(per_job) * 1e3, "ms"),
        "job_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024, "MB"),
        "failed_frac": (failed / attempted, "ratio"),
    }
    readings = [g for r in replays for g in r["gauges"]]
    wall_p50 = statistics.median(_per_job([r["latencies"] for r in replays if not r["traced"]]))
    print(f"workload={args.workload} seed={args.seed} jobs={len(jobs)} replays={len(replays)} "
          f"untraced_replays={len(plain)} setup_probes={len(setup)}")
    print(f"job latencies (one per job, its median over untraced replays): {len(per_job)}, "
          f"above job_p90_ms: {sum(x > p90 for x in per_job)}")
    print(f"gauge (reference {gauge.REFERENCE_S * 1e3:g} ms): median {statistics.median(readings) * 1e3:.4g} ms, "
          f"range {min(readings) * 1e3:.4g}-{max(readings) * 1e3:.4g} ms over {len(readings)} readings; "
          f"wall-time job_p50_ms {wall_p50 * 1e3:.4g}")
    print(f"python={platform.python_version()} nproc={os.cpu_count()} platform={platform.platform()}")
    for name, (value, unit) in e2e.items():
        print(f"{name} {value:.6g} {unit}")
    if args.trace:
        traced = [_scaled(r) for r in replays if r["traced"]]
        computed = {name: _layer_value([m[name] for m in result["layers"]]) for name in result["layers"][0]}
        computed["trace.overhead_frac"] = 1 - sum(per_job) / sum(_per_job(traced))
        declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
        if set(computed) != set(declared):
            sys.exit(f"layers.py and BENCHMARK.json disagree on: {sorted(set(computed) ^ set(declared))}")
        metrics = {name: (computed[name], unit) for name, unit in declared.items()}
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
        print(f"spans of the last traced replay: {os.path.join(workdir, 'spans.tsv')}")
    else:
        metrics = {m["name"]: e2e[m["name"]] for m in bench["end_to_end"]}
    if args.update_golden:
        _update_golden(args, files, jobs, result, bad)
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if not bad else 1


def _run_worker(workdir, env):
    """Run the worker in a process group of its own, and stop the whole group
    (the worker, its replay children and its import probes) if it overruns."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), workdir, SRC],
                            env=env, start_new_session=True)
    try:
        rc = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rc = "timeout"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if rc != 0:
        sys.exit(f"worker failed: {rc}")


def _scaled(replay):
    """The replay's job latencies at the gauge's reference speed; the gauge
    was read before the first job and after every job."""
    g = replay["gauges"]
    return [gauge.scaled(t, g[i], g[i + 1]) for i, t in enumerate(replay["latencies"])]


def _per_job(replays):
    """Each job's median latency over the replays."""
    return [statistics.median(job) for job in zip(*replays)]


def _layer_value(values):
    """Median over traced replays; a count that every replay repeats stays an int."""
    if all(type(v) is int for v in values) and len(set(values)) == 1:
        return values[0]
    return statistics.median(values)


def _inputs_digest(files, jobs):
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(f"{name}\0{files[name]}\0".encode())
    for job in jobs:
        h.update(json.dumps(job["argv"]).encode())
    return h.hexdigest()


def _failures(args, jobs, files, workdir, result):
    """Job id -> reason, for every job whose output is wrong."""
    bad = {}
    for job in jobs:
        base = os.path.join(workdir, "out", job["id"])
        rc, out, err = (_read(base + suffix) for suffix in (".rc", ".out", ".err"))
        reason = check.check(job, files, None if rc == "None" else int(rc), out, err)
        if reason:
            bad[job["id"]] = reason
    for job_id in result["mismatched"]:
        bad.setdefault(job_id, "a later replay printed different output")
    if args.seed == GOLDEN_SEED and not args.update_golden:
        with open(GOLDEN) as f:
            golden = json.load(f)[args.workload]
        if golden["inputs"] != _inputs_digest(files, jobs):
            return {job["id"]: "generated inputs differ from golden.json" for job in jobs}
        for job_id, digest in golden["outputs"].items():
            if result["digests"].get(job_id, "")[:16] != digest:
                bad.setdefault(job_id, "output digest differs from golden.json")
    return bad


def _read(path):
    with open(path) as f:
        return f.read()


def _update_golden(args, files, jobs, result, bad):
    if args.seed != GOLDEN_SEED or bad:
        sys.exit("golden digests come only from a correct run with the default seed")
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as f:
            golden = json.load(f)
    golden[args.workload] = {
        "inputs": _inputs_digest(files, jobs),
        "outputs": {job_id: d[:16] for job_id, d in sorted(result["digests"].items())},
    }
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    sys.exit(main())
