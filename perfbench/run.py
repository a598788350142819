"""Benchmark of the logfiber certifier over fixed job lists.

    python3 perfbench/run.py --workload lot-scale [--seed 0] [--seconds 24] [--trace 0|1]

Run it from the repository root (it changes to the root itself).  It writes
the workload's inputs, then starts worker processes one at a time (never in
parallel): several that only set up, to time set-up, and one that runs whole
passes over the job list for ``--seconds``.  Every job's exit status and
stdout sha256 are checked against ``expected.json`` (for a seeded input only
at the default seed; other seeds record their hashes in the results file).

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (spawn
until logfiber is imported and every input parsed; median over the set-up
workers), ``wall_s`` (one pass over the jobs; median over the passes),
``max_job_s`` (the slowest job of a pass; median over the passes) and
``peak_rss_mb`` (the worker's peak RSS), and prints ``failed_frac``.
Host speed on a shared machine drifts by up to twofold in phases of seconds
to minutes, so every time is scaled to a fixed host speed with reference
samples taken in the same stretch of time (``hostspeed``): pure-Python
samples taken all through each job for the pass and job times, and for
``setup_s`` the start of a reference interpreter just before and just after
each set-up worker.  The raw times are printed alongside.
With ``--trace 1`` it splits the time between an untraced worker and a
traced one and reports the per-layer metrics of the traced one (medians over
its passes, raw milliseconds) plus the tracing overhead.  The last stdout
line is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the results and the spans of the first traced pass go to ``perfbench/out/``.

``--small`` runs the reduced job lists of the self-test; ``--record`` stores
the default seed's hashes in ``expected.json`` after a deliberate report
change.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from hostspeed import REFERENCE_S, STARTUP_REFERENCE_S, startup_sample
from tracing import COUNTERS, span_names  # names only; wrappers go in the traced worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

SETUP_SAMPLES = 9  # set-up-only workers per run, besides the measuring worker
# A job with this many host-speed samples of its own (100 ms of work) is scaled
# by them; a shorter one by its whole pass's samples.
JOB_SAMPLES = 5
DEADLINE_S = 170  # a run that is not done by then gives no result
# Workers may cache bytecode, as an installed command does, whatever the caller's setting.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "max_job_s": "s",
    "peak_rss_mb": "MB",
}
SETUP_LAYERS = ("setup.import_numpy_ms", "setup.import_logfiber_ms", "setup.parse_inputs_ms")


class BenchError(Exception):
    """The benchmark could not run; it prints no result."""


def layer_metrics() -> dict[str, tuple[str, str]]:
    """name -> (unit, better) of every per-layer metric, in report order."""
    out = {}
    for name in span_names():
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_ms"] = ("ms", "lower")
    out.update(COUNTERS)
    out["cli.output_bytes"] = ("bytes", "lower")
    for name in SETUP_LAYERS:
        out[name] = ("ms", "lower")
    out["trace.untraced_wall_s"] = ("s", "lower")
    out["trace.traced_wall_s"] = ("s", "lower")
    out["trace.overhead_s"] = ("s", "lower")
    return out


def spawn(jobs_file: Path, mode: str, seconds: float, deadline: float,
          spans: Path | None = None) -> tuple[float, dict, dict | None]:
    """Run one worker to completion, killing it at ``deadline`` (a
    perf_counter value): (seconds until READY, READY info, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), str(jobs_file), mode, str(seconds)]
    if spans is not None:
        cmd.append(str(spans))
    start = perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
                          env=WORKER_ENV) as proc:
        try:
            if not select.select([proc.stdout], [], [], max(deadline - perf_counter(), 0))[0]:
                raise subprocess.TimeoutExpired(cmd, DEADLINE_S)
            line = proc.stdout.readline()
            ready = perf_counter() - start
            rest, _ = proc.communicate(timeout=max(deadline - perf_counter(), 0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} worker still running at the {DEADLINE_S} s deadline") from None
    if proc.returncode != 0 or not line.startswith("READY "):
        raise BenchError(f"{mode} worker exited with status {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1]) if mode != "setup" else None
    return ready, json.loads(line[len("READY "):]), result


def expected_for(workload: str, jobs, seed: int, small: bool) -> dict[str, dict]:
    """Stored {status, sha256} per job id that this run can be held to."""
    if small or not EXPECTED.is_file():
        return {}
    import workloads

    stored = json.loads(EXPECTED.read_text(encoding="utf-8")).get(workload, {})
    return {job.id: stored[job.id] for job in jobs
            if job.id in stored and (not job.seeded or seed == workloads.DEFAULT_SEED)}


def check_passes(jobs, passes: list[dict], expected: dict[str, dict]
                 ) -> tuple[int, int, list[str], dict[str, str]]:
    """(attempted, failed, problems, sha256 per job id).  A job run fails on
    an error, an exit status other than the stored one (0 when none is
    stored), a stdout hash other than the stored one, or a stdout that
    differs from the same job's first run in this process."""
    attempted = failed = 0
    problems: list[str] = []
    first: dict[str, str] = {}
    for number, record in enumerate(passes):
        for job, (_, status, sha, _, error) in zip(jobs, record["jobs"], strict=True):
            attempted += 1
            want = expected.get(job.id, {"status": 0})
            first.setdefault(job.id, sha)
            if error:
                reason = error
            elif status != want["status"]:
                reason = f"exit status {status}, expected {want['status']}"
            elif "sha256" in want and sha != want["sha256"]:
                reason = "stdout sha256 differs from the stored hash"
            elif sha != first[job.id]:
                reason = "stdout differs from this job's first run"
            else:
                continue
            failed += 1
            problems.append(f"pass {number}: {job.id}: {reason}")
    return attempted, failed, problems, first


def scaled_jobs(record: dict) -> list[float]:
    """The job times of one pass, scaled to the reference host speed by the
    mean of the reference samples taken during the job, or during the whole
    pass for a job with fewer than JOB_SAMPLES of its own."""
    in_pass = statistics.fmean(record["ref_s"])
    speeds = [statistics.fmean(own) if len(own) >= JOB_SAMPLES else in_pass
              for own in record["job_ref_s"]]
    return [job[0] * REFERENCE_S / speed
            for job, speed in zip(record["jobs"], speeds, strict=True)]


def pass_figures(passes: list[dict]) -> tuple[list[float], list[float]]:
    """Per pass: (host-scaled pass time, host-scaled slowest job time)."""
    scaled = [scaled_jobs(p) for p in passes]
    return [sum(s) for s in scaled], [max(s) for s in scaled]


def describe(values: list[float], what: str) -> str:
    return (f"{what}; {len(values)} samples, min {min(values):.4f},"
            f" median {statistics.median(values):.4f}, max {max(values):.4f}")


def run(args) -> dict:
    import workloads

    deadline = perf_counter() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}{'-small' if args.small else ''}"
    work = OUT / tag
    jobs, draws = workloads.build(args.workload, args.seed, work.relative_to(ROOT) / "inputs",
                                  args.small)
    jobs_file = work / "jobs.json"
    jobs_file.write_text(json.dumps([job.__dict__ for job in jobs], indent=1), encoding="utf-8")
    expected = expected_for(args.workload, jobs, args.seed, args.small)

    ready_times, ready_infos, startups = [], [], [startup_sample(WORKER_ENV)]
    for _ in range(2 if args.small else SETUP_SAMPLES):
        ready, info, _ = spawn(jobs_file, "setup", 0, deadline)
        startups.append(startup_sample(WORKER_ENV))
        ready_times.append(ready)
        ready_infos.append(info)
    setup_scaled = [ready * STARTUP_REFERENCE_S / statistics.fmean(around)
                    for ready, around in zip(ready_times, zip(startups, startups[1:]))]
    workers = {}
    modes = (("run", args.seconds),) if not args.trace else (
        ("run", args.seconds / 2), ("trace", args.seconds / 2))
    spans_file = work / "spans.json"
    for mode, seconds in modes:
        ready, info, result = spawn(jobs_file, mode, seconds, deadline,
                                    spans_file if mode == "trace" else None)
        ready_times.append(ready)
        ready_infos.append(info)
        workers[mode] = result

    attempted = failed = 0
    problems: list[str] = []
    hashes: dict[str, str] = {}
    for mode, result in workers.items():
        a, f, p, h = check_passes(jobs, result["passes"], expected)
        attempted, failed = attempted + a, failed + f
        problems += [f"{mode} worker, {line}" for line in p]
        hashes = hashes or h

    untraced = workers["run"]["passes"]
    wall, slowest = pass_figures(untraced)
    ref_ms = [1e3 * statistics.fmean(p["ref_s"]) for p in untraced]
    if not args.trace:
        rss = workers["run"]["peak_rss_kb"] / 1024
        reported = {
            "setup_s": (statistics.median(setup_scaled),
                        describe(setup_scaled, "median host-scaled set-up")
                        + "; raw " + describe(ready_times[:len(setup_scaled)], "set-up")),
            "wall_s": (statistics.median(wall), describe(wall, "median host-scaled pass")
                       + "; raw " + describe([p["seconds"] for p in untraced], "pass")),
            "max_job_s": (statistics.median(slowest), describe(
                slowest, "median host-scaled slowest job of a pass") + "; raw " + describe(
                [max(job[0] for job in p["jobs"]) for p in untraced], "slowest job")),
            "peak_rss_mb": (rss, "one worker"),
        }
        units = END_TO_END
    else:
        traced = workers["trace"]["passes"]
        layers = {name: [layer[name] for layer in workers["trace"]["layers"]]
                  for name in workers["trace"]["layers"][0]}
        layers["cli.output_bytes"] = [sum(job[3] for job in p["jobs"]) for p in traced]
        for name in SETUP_LAYERS:
            layers[name] = [info[name.split(".", 1)[1]] for info in ready_infos]
        reported = {name: (statistics.median(values), describe(values, "median"))
                    for name, values in layers.items()}
        traced_wall = pass_figures(traced)[0]
        untraced_s, traced_s = statistics.median(wall), statistics.median(traced_wall)
        reported["trace.untraced_wall_s"] = (untraced_s, describe(wall, "median host-scaled pass"))
        reported["trace.traced_wall_s"] = (traced_s, describe(traced_wall,
                                                              "median host-scaled traced pass"))
        reported["trace.overhead_s"] = (traced_s - untraced_s, "traced minus untraced")
        units = {name: unit for name, (unit, _) in layer_metrics().items()}
    metrics = {name: {"value": reported[name][0], "unit": unit} for name, unit in units.items()}

    print(f"workload {args.workload}, seed {args.seed}{' (small)' if args.small else ''}:"
          f" {len(jobs)} jobs, {len(untraced)} untraced passes"
          + (f", {len(workers['trace']['passes'])} traced passes" if args.trace else ""))
    print(f"  host speed: reference sample {REFERENCE_S * 1e3:.2f} ms at the reference speed;"
          f" {describe(ref_ms, 'per-pass mean in ms')}")
    for part, stats in draws.items():
        print(f"  random LOGs ({part}): {stats.draws} draws, {stats.accepted} accepted")
    for name, unit in units.items():
        value, description = reported[name]
        print(f"  {name:48s} {value:14.4f} {unit:6s} {description}")
    print(f"  {'failed_frac':48s} {failed / attempted:14.4f} {'1':6s} {failed} of {attempted} job runs")
    checked = sum(1 for job in jobs if "sha256" in expected.get(job.id, {}))
    print(f"  report hashes: {checked} of {len(jobs)} jobs checked against {EXPECTED.name};"
          f" all recorded in {(work / 'results.json').relative_to(ROOT)}")
    for line in problems[:20]:
        print(f"  FAILED {line}")

    (work / "results.json").write_text(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "small": args.small,
        "trace": args.trace,
        "draws": {part: stats.__dict__ for part, stats in draws.items()},
        "jobs": [{"id": job.id, "argv": job.argv, "seeded": job.seeded,
                  "status": workers["run"]["passes"][0]["jobs"][i][1], "sha256": hashes[job.id]}
                 for i, job in enumerate(jobs)],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "setup_s": ready_times,
        "setup_reference_s": startups,
        "pass_reference_ms": ref_ms,
        "job_seconds": {mode: [[job[0] for job in p["jobs"]] for p in result["passes"]]
                        for mode, result in workers.items()},
    }, indent=1), encoding="utf-8")
    if args.record:
        record(args.workload, jobs, workers["run"]["passes"][0], failed)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def record(workload: str, jobs, first_pass: dict, failed: int) -> None:
    if failed:
        raise BenchError("refusing to record hashes from a run with failed jobs")
    stored = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.is_file() else {}
    stored[workload] = {job.id: {"status": status, "sha256": sha}
                        for job, (_, status, sha, _, _) in zip(jobs, first_pass["jobs"])}
    EXPECTED.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="reduced job lists (self-test)")
    parser.add_argument("--record", action="store_true",
                        help="store this run's report hashes (default seed only)")
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "logfiber" / "cli.py").is_file():
            raise BenchError(f"no logfiber sources under {ROOT / 'src'}")
        os.chdir(ROOT)
        sys.path.insert(0, str(ROOT / "src"))
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.record and (args.small or args.seed != workloads.DEFAULT_SEED):
            raise BenchError("--record needs the default seed and the full job lists")
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
