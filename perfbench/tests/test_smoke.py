"""Smoke self-test of the benchmark at reduced size.

    python -m pytest perfbench/tests

Runs every workload once on its small job list, traced and untraced, and
checks that every metric of BENCHMARK.json is printed with its unit, that a
corrupted job output counts as failed, and that the seed changes the
flat-search inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str) -> tuple[list[str], dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_printed_with_unit(workload, trace):
    text, result = bench("--workload", workload, "--small", "--seconds", "0.2", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for metric in wanted:
        assert any(line.split()[:1] == [metric["name"]] and metric["unit"] in line.split()
                   for line in text), metric["name"]
    assert any(line.split()[:1] == ["failed_frac"] for line in text)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_output_counts_as_failed(tmp_path):
    jobs, _ = workloads.build("monodromy", workloads.DEFAULT_SEED, tmp_path, small=True)
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps([job.__dict__ for job in jobs]), encoding="utf-8")
    _, _, result = run.spawn(jobs_file, "run", 0, time.perf_counter() + 60)
    passes = result["passes"]
    attempted, failed, problems, hashes = run.check_passes(jobs, passes, {})
    assert (attempted, failed, problems) == (len(jobs), 0, [])
    expected = {job.id: {"status": 0, "sha256": hashes[job.id]} for job in jobs}
    assert run.check_passes(jobs, passes, expected)[1] == 0

    corrupted = json.loads(json.dumps(passes))
    corrupted[0]["jobs"][1][2] = "0" * 64  # stdout hash of a damaged report
    attempted, failed, problems, _ = run.check_passes(jobs, corrupted, expected)
    assert failed == 1 and "stored hash" in problems[0]
    assert run.check_passes(jobs, corrupted, {})[1] == 0  # nothing stored: only status is held

    crashed = json.loads(json.dumps(passes))
    crashed[0]["jobs"][0][1:] = [None, crashed[0]["jobs"][0][2], 0, "KeyError: 'x'"]
    assert run.check_passes(jobs, crashed, {})[1] == 1


def test_seed_changes_flat_search_inputs(tmp_path):
    def inputs(seed, where):
        jobs, draws = workloads.build("flat-search", seed, tmp_path / where, small=True)
        assert all(stats.accepted and stats.draws >= stats.accepted for stats in draws.values())
        return {job.id: (Path(job.input).read_text(), job.seeded) for job in jobs}

    first, again, other = inputs(1, "a"), inputs(1, "b"), inputs(2, "c")
    assert first == again
    seeded = [job for job, (_, is_seeded) in first.items() if is_seeded]
    assert seeded and all(first[job] != other[job] for job in seeded)
    assert all(first[job] == other[job] for job in first if job not in seeded)
