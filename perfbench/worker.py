"""One benchmark worker process: set up, then run passes over a job list.

    python worker.py JOBS_JSON MODE SECONDS [SPANS_OUT]

MODE is ``setup`` (import and parse, then exit), ``run`` or ``trace``.  The
worker prints ``READY <json>`` once logfiber is imported and every input file
is parsed; the parent times set-up up to that line.  ``run`` and ``trace``
then run whole passes over the jobs while at least half of the next one is
expected to fit in SECONDS (at least one pass), and print one JSON line with
every job's time, exit status, stdout sha256 and error, the host-speed samples
(see ``hostspeed``) taken during each job and each pass, plus the peak RSS.
Job times leave out the time spent sampling.  Only ``trace`` installs the
wrappers of ``tracing``; it writes the spans of its first pass to SPANS_OUT.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import Sampler, reference_sample

ROOT = Path(__file__).resolve().parent.parent


def run_job(cli, argv: list[str], clock) -> list:
    """[seconds, exit status, stdout sha256, stdout bytes, error] of one
    ``cli.main`` call, timed by ``clock``; error is the last traceback line,
    or empty."""
    out, err = io.StringIO(), io.StringIO()
    status, error = None, ""
    start = clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except Exception:  # a traceback is a failed job, never a dead worker
        error = traceback.format_exc().strip().splitlines()[-1]
    except SystemExit as exc:
        error = f"SystemExit({exc.code})"
    elapsed = clock() - start
    if not error and "Traceback" in err.getvalue():
        error = "traceback on stderr"
    data = out.getvalue().encode("utf-8")
    return [elapsed, status, hashlib.sha256(data).hexdigest(), len(data), error]


def main(argv: list[str]) -> int:
    jobs_file, mode, seconds = argv[0], argv[1], float(argv[2])
    t0 = perf_counter()
    import numpy  # noqa: F401  (timed apart: the only third-party import)
    t1 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from logfiber import cli
    from logfiber.complexes import parse_spec
    t2 = perf_counter()
    jobs = json.loads(Path(jobs_file).read_text(encoding="utf-8"))
    for path in sorted({job["input"] for job in jobs}):
        parse_spec(Path(path).read_text(encoding="utf-8"))
    t3 = perf_counter()
    print("READY " + json.dumps({
        "import_numpy_ms": (t1 - t0) * 1e3,
        "import_logfiber_ms": (t2 - t1) * 1e3,
        "parse_inputs_ms": (t3 - t2) * 1e3,
    }), flush=True)
    if mode == "setup":
        return 0

    sampler = Sampler()
    tracer = None
    if mode == "trace":
        from tracing import Tracer, pass_metrics
        tracer = Tracer(sampler.clock)
        tracer.install()
    passes, layers, first_spans = [], [], None
    start = perf_counter()
    sampler.start()
    while True:
        if tracer is not None:
            tracer.reset()
        sampler.take()
        pass_start = sampler.clock()
        results, job_ref = [], []
        for job in jobs:
            if tracer is not None:
                tracer.job = job["id"]
            results.append(run_job(cli, job["argv"], sampler.clock))
            job_ref.append(sampler.take())
        seconds_run = sampler.clock() - pass_start
        ref = [s for samples in job_ref for s in samples] + sampler.take()
        ref.append(reference_sample())  # at least one sample per pass
        passes.append({"seconds": seconds_run, "jobs": results, "ref_s": ref,
                       "job_ref_s": job_ref})
        if tracer is not None:
            layers.append(pass_metrics(tracer.spans, tracer.counts))
            if first_spans is None:
                first_spans = tracer.spans
        elapsed = perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) > seconds:  # not even half a pass fits
            break
    sampler.stop()
    if first_spans is not None:
        Path(argv[3]).write_text(json.dumps(first_spans), encoding="utf-8")
    print(json.dumps({
        "passes": passes,
        "layers": layers,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
