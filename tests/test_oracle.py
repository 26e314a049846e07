"""CLI answers against the benchmark's independent model.

``perfbench/model.py`` is a closed-form Łukasiewicz model that imports no
``mvcodes``; ``perfbench/workloads.py`` builds seeded input files and jobs
from it, and ``perfbench/check.py`` re-checks each job's exit code, stdout
and stderr against it. Here every job of one non-golden seed per workload
runs in-process through ``mvcodes.cli.run``, so this is the one check that
shares no code with the paths it checks. Seed 0 is the benchmark's golden
seed; another seed gives other relabellings, corruptions and code cuts.
"""

import io
import traceback
from pathlib import Path

import pytest

from mvcodes import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 7


@pytest.mark.parametrize("workload", ["tables", "catalog", "embed"])
def test_every_job_of_a_seed_passes_the_model_check(workload, monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import check
    import workloads

    assert Path(check.__file__).parent == BENCH and Path(workloads.__file__).parent == BENCH
    files, jobs = workloads.build(workload, SEED)
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    failures = []
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        try:
            rc = cli.run(job["argv"], out, err)
        except Exception:
            # as the benchmark's worker records it: a traceback is an answer check rejects
            rc = None
            err.write(traceback.format_exc())
        reason = check.check(job, files, rc, out.getvalue(), err.getvalue())
        if reason is not None:
            failures.append(f"workload={workload} seed={SEED} job={job['id']} argv={job['argv']}: {reason}")
    assert len(jobs) > 100
    assert failures == []
