"""Self-tests of the benchmark. Run from the checkout root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import gauge  # noqa: E402
import layers  # noqa: E402
import model as M  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _run(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [("tables", 1), ("catalog", 0), ("embed", 1)])
def test_smoke_run(workload, trace):
    # One replay (two when traced); seed 0 is also checked against golden.json.
    result = _run("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)
    if trace:
        assert result["metrics"]["cli.jobs"]["value"] == len(workloads.build(workload, 0)[1])


def test_inputs_depend_only_on_seed():
    assert workloads.build("embed", 3) == workloads.build("embed", 3)
    assert workloads.build("tables", 3)[0] != workloads.build("tables", 4)[0]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_job_list_leaves_ten_jobs_above_p90(workload):
    n = len(workloads.build(workload, 0)[1])
    latencies = list(range(n))
    p90 = statistics.quantiles(latencies, n=10)[8]
    assert sum(x > p90 for x in latencies) >= 10


def test_a_forked_call_leaves_no_state_behind():
    seen = []

    def job(x):
        seen.append(x)
        return {"pid": os.getpid(), "seen": list(seen)}

    first, second = worker._forked(job, 1), worker._forked(job, 2)
    assert first["seen"] == [1] and second["seen"] == [2] and seen == []
    assert os.getpid() not in (first["pid"], second["pid"])


def test_self_times_of_a_span_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7].
    spans = [
        (0, "a", 0.0, 10.0, -1, "j", None, None),
        (1, "b", 1.0, 4.0, 0, "j", None, None),
        (2, "c", 5.0, 9.0, 0, "j", None, None),
        (3, "d", 6.0, 7.0, 2, "j", None, None),
    ]
    assert tracer.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_tracer_records_and_restores_every_binding():
    import mvcodes.algebras
    import mvcodes.cli
    import mvcodes.order

    verify = mvcodes.algebras.verify
    init = mvcodes.algebras.CayleyTable.__init__
    t = tracer.Tracer(layers.SIZES)
    t.install("mvcodes")
    try:
        assert mvcodes.cli.verify is mvcodes.algebras.verify is not verify
        code = mvcodes.BlockCode.from_strings(["111", "011", "001"])
        assert mvcodes.attach_wajsberg(code).algebra.k == 3
    finally:
        t.uninstall()
    # mvcodes.convert is the function; the module is only in sys.modules.
    assert mvcodes.cli.verify is mvcodes.algebras.verify is sys.modules["mvcodes.convert"].verify is verify
    assert mvcodes.algebras.CayleyTable.__init__ is init
    assert mvcodes.order.poset_isomorphisms.__name__ == "poset_isomorphisms"
    assert not hasattr(mvcodes.order.poset_isomorphisms, "__wrapped__")
    names = {s[1] for s in t.spans}
    assert {"attach.attach_wajsberg", "order.poset_isomorphisms", "algebras.CayleyTable"} <= names
    metrics = layers.layer_metrics(t.spans)
    assert metrics["attach.accepted"] == 1 and metrics["order.isos_yielded"] == 1
    assert all(s is not None and s[3] >= s[2] for s in t.spans)


def test_every_traced_name_has_its_own_metric():
    import mvcodes.cli  # noqa: F401  (loads every module the tracer wraps)

    t = tracer.Tracer()
    t.install("mvcodes")
    t.uninstall()
    assert t.names and t.names <= set(layers.LISTED)
    assert layers.self_time_metric("algebras.verify_bitset") == "algebras.other_s"
    assert layers.self_time_metric("bitset.verify") == "trace.unlisted_s"
    spans = [(0, "cli.run", 0.0, 4.0, -1, "j", 0, None), (1, "algebras.verify_bitset", 1.0, 2.0, 0, "j", None, None)]
    metrics = layers.layer_metrics(spans)
    assert metrics["cli.self_s"] == 3.0 and metrics["algebras.other_s"] == 1.0 and metrics["algebras.verify_s"] == 0


def test_checker_rejects_wrong_output_and_exit_code():
    files, jobs = workloads.build("tables", 0)
    job = next(j for j in jobs if j["argv"][0] == "code" and j["expect"]["valid"])
    kind, rows, unary, consts = M.parse_algebra(files[job["argv"][1]])
    alg = M.as_wajsberg(kind, rows, unary, consts)
    right = "\n".join(M.code_lines(M.up_masks(alg), len(rows))) + "\n"
    assert check.check(job, files, 0, right, "") is None
    assert "exit code" in check.check(job, files, 2, right, "")
    wrong = ("0" if right[0] == "1" else "1") + right[1:]
    assert "stdout differs" in check.check(job, files, 0, wrong, "")

    files, jobs = workloads.build("embed", 0)
    job = next(j for j in jobs if j["argv"][1].startswith("u"))
    message = f"no embedding found up to order {job['expect']['max_order']}\n"
    assert check.check(job, files, 2, "", message) is None
    assert check.check(job, files, 0, "", message) is not None


def test_checker_rejects_a_witness_that_holds():
    files, jobs = workloads.build("tables", 0)
    job = next(j for j in jobs if j["argv"][0] == "verify" and not j["expect"]["valid"])
    kind = M.parse_algebra(files[job["argv"][1]])[0]
    axiom = {"bck": "bck3", "mv": "double-complement", "wajsberg": "involution"}[kind]
    out = f"invalid: {M.KIND_LABELS[kind]}\nviolated {axiom} witness (0)\n"
    # Either the witness holds, or the report misses the other violations.
    assert check.check(job, files, 2, out, "") is not None


def test_model_matches_package_on_small_inputs():
    from mvcodes import BlockCode, embed_code, enumerate_wajsberg, format_algebra
    from mvcodes.errors import NoEmbeddingFound

    for entry in enumerate_wajsberg(24):
        assert format_algebra(entry.algebra) == M.format_algebra(M.chain_product(entry.factors), "wajsberg")
    for words in (["110", "011"], ["1000", "0100", "0010", "0001"], ["1100", "0110", "0011"]):
        hits = M.embed_hits(words, len(words[0]) + 3, limit=1)
        try:
            found = embed_code(BlockCode.from_strings(words), max_order=len(words[0]) + 3)
        except NoEmbeddingFound:
            found = None
        assert (found is None) == (not hits)
        if hits:
            factors, cols = hits[0]
            assert (found.factors, found.columns) == (factors, tuple(sorted(cols)))


def test_gauge_takes_times_to_the_reference_speed():
    ref = gauge.REFERENCE_S
    assert gauge.scaled(0.02, ref, ref) == pytest.approx(0.02)
    # At half speed the gauge reads twice the reference; the work counts half.
    assert gauge.scaled(0.02, 2 * ref, 2 * ref) == pytest.approx(0.01)
    assert gauge.scaled(0.02, ref, 3 * ref) == pytest.approx(0.01)
    assert 0 < gauge.read() < 1
