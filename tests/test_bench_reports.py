"""Every benchmark job's report against its stored hash.

`perfbench/workloads.build` writes each workload's default-seed inputs and
full job list; each job runs through `cli.main` in this process, and its
exit status and stdout sha256 must equal ``perfbench/expected.json``.  This
is the byte-identity check a benchmark run makes, without timing anything.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from logfiber import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED = json.loads((PERFBENCH / "expected.json").read_text(encoding="utf-8"))


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reports_match_stored_hashes(workload, tmp_path):
    jobs, _ = workloads.build(workload, workloads.DEFAULT_SEED, tmp_path)
    expected = EXPECTED[workload]
    assert sorted(job.id for job in jobs) == sorted(expected)
    for job in jobs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = cli.main(job.argv)
        digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
        assert (status, digest) == (expected[job.id]["status"], expected[job.id]["sha256"]), job.id
