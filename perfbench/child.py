"""One fresh benchmark process.

    python3 perfbench/child.py WORKLOAD SEED MODE [SPANS]

MODE is ``plain`` (import, cold pass, then warm passes for at least
WARM_MIN_S), ``cold`` (import and cold pass only), ``traced`` (cold pass under
the span tracer; SPANS=1 also writes the spans) or ``check`` (untimed: computes
every route's spectrum through the library and checks multiplicities and
cross-route gaps).  The last stdout line is a JSON record.  The package is
imported from ``src`` on PYTHONPATH, which the parent sets.
"""

from __future__ import annotations

import gc
import io
import json
import math
import os
import resource
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import checks
import workloads

WARM_MIN_S = 2.0
SPAN_DIR = ".perfbench"


def run_pass(cli, workload: str, jobs) -> tuple[float, list[dict]]:
    """Wall time of one pass over ``jobs`` and each job's failure, if any."""
    outputs = []
    gc.collect()
    start = perf_counter()
    for name, argv in jobs:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(list(argv))
        except Exception:  # a raising job is a failed job; the pass goes on
            rc = None
            err.write(traceback.format_exc())
        outputs.append((name, rc, out.getvalue(), err.getvalue()))
    wall = perf_counter() - start
    return wall, job_failures(workload, outputs)


def job_failures(workload: str, outputs) -> list[dict]:
    """One failure per (name, exit code, stdout, stderr) that exited non-zero or differs from its reference."""
    failures = []
    for name, rc, out, err in outputs:
        problem = f"exit code {rc}: {err.strip()[-300:]}" if rc != 0 else None
        problem = problem or checks.compare_output(out, checks.reference_text(workload, name))
        if problem:
            failures.append({"job": name, "problem": problem})
    return failures


def route_record(jobs) -> dict:
    """Route spectra of every entropy configuration, checked; with the library versions."""
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {
        "versions": {"numpy": numpy.__version__, "blas": f"{blas['name']} {blas['version']}"},
        "attempted": 0,
        "failures": [],
        "route_gaps": {},
    }
    for key, cfg in checks.route_configs(jobs).items():
        record["attempted"] += 1
        label = "J({},{}) cutoff {} fill {}".format(*key)
        try:
            size, spectra = checks.route_spectra(key, cfg["x0"], cfg["routes"])
            gap, problems = checks.check_routes(size, spectra)
        except Exception:  # a raising route is a failed check
            gap, problems = math.inf, [traceback.format_exc()[-300:]]
        if len(cfg["routes"]) > 1 and math.isfinite(gap):  # an infinite gap is a failure above
            record["route_gaps"][label] = gap
        if problems:
            record["failures"].append({"job": label, "problem": "; ".join(problems)})
    return record


def main(argv) -> int:
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    write_spans = argv[3:] == ["1"]
    jobs = workloads.generate(workload, seed)

    start = perf_counter()
    import johnson_entanglement.cli as cli

    setup = perf_counter() - start
    if mode == "check":
        record = route_record(jobs)
        record["module"] = cli.__file__
        print(json.dumps(record))
        return 0
    record = {"setup_s": setup, "module": cli.__file__}

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cold, failures = run_pass(cli, workload, jobs)
    record.update(cold_s=cold, attempted=len(jobs))
    if tracer is not None:
        tracer.uninstall()
        record["trace"] = tracer.summary()
        if write_spans:
            os.makedirs(SPAN_DIR, exist_ok=True)
            tracer.write_spans(os.path.join(SPAN_DIR, f"spans-{workload}.csv.gz"))
    warm = []
    while mode == "plain" and (not warm or sum(warm) < WARM_MIN_S):
        wall, more = run_pass(cli, workload, jobs)
        warm.append(wall)
        failures += more
        record["attempted"] += len(jobs)
    record["warm_s"] = warm
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["failures"] = failures
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
