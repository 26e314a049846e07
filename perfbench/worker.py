"""One benchmark run in a fresh, single-threaded process: a closed loop with
one client that replays a job list through ``mvcodes.cli.run``.

Usage: ``python3 worker.py WORKDIR SRC``. ``WORKDIR/jobs.json`` holds the
jobs, the measuring time and the trace switch; the worker runs from WORKDIR,
imports ``mvcodes`` from SRC only, and writes ``WORKDIR/result.json``.

Every replay runs in a child forked from the worker right after the import,
so each replay starts from the package state a fresh ``mvcodes`` process has:
nothing a replay leaves in memory (a cache, a warmed table) carries into the
next one, and every replay is a first replay. Only the ``run()`` calls are
timed, and the speed gauge (``gauge.py``) is read before the first call and
after each one. The first replay's outputs go to ``WORKDIR/out/`` for checking; every
later replay must reproduce them byte for byte.

Untraced, the worker replays the list as long as another replay is expected
to end within the measuring time. Traced, it alternates untraced and traced
replays, so the two kinds see the same machine load and their ratio gives the
tracing overhead; the tracer is installed in the replay's child only, and
the last traced replay's spans go to ``WORKDIR/spans.tsv``.

Before the first replay and after each one, the worker times a round of
fresh interpreters importing ``mvcodes.cli``, each reading the gauge just
before and after its import.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import pickle
import resource
import subprocess
import sys
import time
import traceback

import gauge

PROBES_PER_ROUND = 3
PROBE = ("import sys, time; sys.path[:0] = sys.argv[1:]; import gauge; g = gauge.read(); "
         "t = time.perf_counter(); import mvcodes.cli; t = time.perf_counter() - t; "
         "print(t, g, gauge.read())")
HERE = os.path.dirname(os.path.abspath(__file__))


def main(workdir, src):
    sys.path.insert(0, src)
    import mvcodes.cli

    if not os.path.abspath(mvcodes.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"mvcodes was imported from {mvcodes.cli.__file__}, not from {src}")

    from layers import SIZES, layer_metrics
    from tracer import Tracer

    os.chdir(workdir)
    with open("jobs.json") as f:
        spec = json.load(f)
    jobs, seconds, traced = spec["jobs"], spec["seconds"], spec["trace"]
    os.makedirs("out", exist_ok=True)
    # Objects that exist now are never collected, so a child's collector does
    # not touch (and copy) every page it shares with the worker.
    gc.freeze()

    def replay(trace, save):
        tracer = Tracer(SIZES) if trace else None
        if tracer:
            tracer.install("mvcodes")
        latencies, gauges, digests = [], [], []
        try:
            gauges.append(gauge.read())
            for job_id, argv in jobs:
                if tracer:
                    tracer.job = job_id
                out, err = io.StringIO(), io.StringIO()
                t0 = time.perf_counter()
                try:
                    rc = mvcodes.cli.run(argv, out, err)
                except Exception:
                    rc = None
                    err.write(traceback.format_exc())
                latencies.append(time.perf_counter() - t0)
                gauges.append(gauge.read())
                stdout, stderr = out.getvalue(), err.getvalue()
                del out, err
                digests.append(_digest(rc, stdout, stderr))
                if save:
                    _save(job_id, rc, stdout, stderr)
                del stdout, stderr
        finally:
            if tracer:
                tracer.uninstall()
        return {"latencies": latencies, "gauges": gauges, "digests": digests, "rss_kb": _peak_rss_kb(),
                "spans": tracer.spans if tracer else None}

    digests, mismatched, replays, layers, setup = {}, set(), [], [], []
    peak_rss_kb = 0
    spans = []
    began = time.perf_counter()
    setup.extend(_setup_round(src))
    while True:
        trace = traced and len(replays) % 2 == 1
        res = _forked(replay, trace, not replays)
        for (job_id, _), digest in zip(jobs, res["digests"]):
            if digests.setdefault(job_id, digest) != digest:
                mismatched.add(job_id)
        replays.append({"traced": trace, "latencies": res["latencies"], "gauges": res["gauges"]})
        if trace:
            g = res["gauges"]
            scale = {job_id: gauge.scaled(1, g[i], g[i + 1]) for i, (job_id, _) in enumerate(jobs)}
            layers.append(layer_metrics(res["spans"], scale))
            spans = res["spans"]
        else:
            peak_rss_kb = max(peak_rss_kb, res["rss_kb"])
        del res
        setup.extend(_setup_round(src))
        # Start another replay only if it is expected to end within the
        # measuring time; a traced run needs one replay of each kind.
        elapsed = time.perf_counter() - began
        if elapsed * (len(replays) + 1) / len(replays) > seconds and (not traced or len(replays) >= 2):
            break
    if spans:
        _write_spans(spans)
    result = {
        "setup_probes": setup,
        "replays": replays,
        "layers": layers,
        "digests": digests,
        "mismatched": sorted(mismatched),
        "peak_rss_kb": peak_rss_kb,
    }
    with open("result.json", "w") as f:
        json.dump(result, f)


def _forked(fn, *args):
    """``fn(*args)`` in a forked child; its picklable result comes back
    through a pipe. The child never returns into the worker's code."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            data = pickle.dumps(fn(*args), protocol=pickle.HIGHEST_PROTOCOL)
            with os.fdopen(write_fd, "wb") as f:
                f.write(data)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        sys.exit(f"the child running {fn.__name__}{args} ended with wait status {status}")
    return pickle.loads(data)


def _setup_round(src):
    """A few fresh interpreters' times to import ``mvcodes.cli``, each with
    the gauge readings taken in that interpreter just before and after."""
    probes = []
    for _ in range(PROBES_PER_ROUND):
        out = subprocess.run([sys.executable, "-c", PROBE, src, HERE], check=True, capture_output=True,
                             text=True, timeout=60).stdout
        probes.append([float(x) for x in out.split()])
    return probes


def _peak_rss_kb():
    """This process's peak RSS. ``ru_maxrss`` would also count the parent's
    RSS at fork, which survives exec; ``VmHWM`` is the new image's alone."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _digest(rc, out, err):
    h = hashlib.sha256(f"{rc}\0".encode())
    h.update(out.encode())
    h.update(b"\0")
    h.update(err.encode())
    return h.hexdigest()


def _save(job_id, rc, out, err):
    base = os.path.join("out", job_id)
    for suffix, text in ((".rc", f"{rc}"), (".out", out), (".err", err)):
        with open(base + suffix, "w") as f:
            f.write(text)


def _write_spans(spans):
    with open("spans.tsv", "w") as f:
        f.write("id\tname\tstart\tend\tparent\tjob\tnote\tsize\n")
        for s in spans:
            f.write("\t".join("" if v is None else str(v) for v in s) + "\n")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
