"""Benchmark of the johnson_entanglement package, run from a source checkout.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 56 --trace 0

Every sample is a fresh child process (``child.py``) that imports the package
from ``src``, runs the workload's seeded ``je`` job list once with every
in-process cache empty (the cold pass), then repeats it (warm passes).
Children run one at a time, each starting as the last ends, until
``--seconds`` is used up; the reported figures are medians over children.
BLAS is pinned to one thread.

End-to-end metrics (``--trace 0``): ``setup_s`` (package import in a fresh
process), ``cold_s``, ``warm_s`` and ``peak_rss_mb``.  Per-layer metrics
(``--trace 1``) come from children that run the cold pass under the span
tracer, alternating with untraced children whose cold pass gives the tracing
overhead.  Every job's output is checked against the stored reference.  After
the timed children, one untimed child checks the route spectra of every
entropy configuration for multiplicity and cross-route agreement.  Each
failure counts in ``failed``; a negative control checks that corrupted outputs
and failing jobs do.

The last stdout line is the JSON result; a readable table goes to stderr and
the full run record, with the environment, to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import child  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

PACKAGE_DIR = Path("src") / "johnson_entanglement"
RECORD_DIR = Path(".perfbench")
BLAS_THREADS = "1"
CHILD_DEADLINE_S = 170.0  # whole run, so the process exits within 180 s
E2E_UNITS = {"setup_s": "s", "cold_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(workload, seed, mode, deadline, spans=False) -> dict:
    """One child's JSON record, or an error record if it failed or ran past ``deadline``."""
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode] + (["1"] if spans else [])
    start = perf_counter()
    try:
        proc = subprocess.run(
            cmd, env=child_env(), capture_output=True, text=True, timeout=max(0.1, deadline - perf_counter())
        )
    except subprocess.TimeoutExpired:  # subprocess.run kills the child and waits for it
        return {"mode": mode, "elapsed": perf_counter() - start, "error": "child timed out"}
    elapsed = perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"mode": mode, "elapsed": elapsed, "error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"mode": mode, "elapsed": elapsed, "error": f"unreadable child record: {lines[-1][:200]}"}
    record.update(mode=mode, elapsed=elapsed)
    if not record["module"].startswith(str(Path("src").resolve())):
        record["error"] = f"package imported from {record['module']}, not from src"
    return record


def run_children(workload, seed, modes, seconds, start, deadline) -> list[dict]:
    """Timed children one at a time until ``seconds`` is used up, then the untimed checking child."""
    children: list[dict] = []
    longest = 0.0
    while len(children) < len(modes) or perf_counter() - start + longest <= seconds:
        mode = modes[len(children) % len(modes)]
        children.append(run_child(workload, seed, mode, deadline, spans=mode == "traced" and len(children) == 0))
        if "error" in children[-1]:
            return children
        longest = max(longest, children[-1]["elapsed"])
    children.append(run_child(workload, seed, "check", deadline))
    return children


def tally(children, missed) -> dict:
    """``correct``, ``attempted`` and ``failed`` of a run: every failed job, check or child counts."""
    errors = sum("error" in c for c in children)
    failed = errors + sum(len(c["failures"]) for c in children if "error" not in c)
    attempted = errors + sum(c["attempted"] for c in children if "error" not in c)
    return {"correct": failed == 0 and not missed, "attempted": max(1, attempted), "failed": failed}


class CorruptCli:
    """Stands in for the package's ``cli``: each job prints its corrupted reference, exits 1 or raises."""

    def __init__(self, workload, jobs, how):
        self.outputs = {tuple(argv): checks.corrupt(checks.reference_text(workload, name)) for name, argv in jobs}
        self.how = how

    def main(self, argv):
        if self.how == "raise":
            raise RuntimeError("corrupted job")
        print(self.outputs[tuple(argv)], end="")
        return 1 if self.how == "exit" else 0


def negative_control(workload, jobs) -> list[str]:
    """Corrupted outputs and spectra must be caught, and failing jobs must reach ``failed``."""
    missed = checks.negative_control(workload, jobs)
    failures = []
    for how in ("print", "exit", "raise"):
        failures += child.run_pass(CorruptCli(workload, jobs, how), workload, jobs)[1]
    counted = tally([{"attempted": 3 * len(jobs), "failures": failures}], [])
    if counted["correct"] or counted["failed"] != 3 * len(jobs):
        missed.append(f"{3 * len(jobs)} failing jobs tallied as {counted}")
    return missed


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """All children of one run; returns the result line and the run record."""
    start = perf_counter()
    deadline = start + CHILD_DEADLINE_S
    jobs = workloads.generate(workload, seed)
    missed = negative_control(workload, jobs)
    modes = ["traced", "cold"] if trace else ["plain"]
    children = run_children(workload, seed, modes, seconds, start, deadline)
    timed = [c for c in children if "error" not in c and c["mode"] != "check"]
    checked = next((c for c in children if "error" not in c and c["mode"] == "check"), {})
    result = tally(children, missed)
    if trace:
        result["metrics"] = layer_metrics(timed, checked.get("route_gaps", {}))
    elif timed:
        # one warm figure per child, so children that ran more passes weigh no more
        result["metrics"] = {
            "setup_s": statistics.median(c["setup_s"] for c in timed),
            "cold_s": statistics.median(c["cold_s"] for c in timed),
            "warm_s": statistics.median(statistics.median(c["warm_s"]) for c in timed),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in timed),
        }
        result["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in result["metrics"].items()}
    else:
        result["metrics"] = {}
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "jobs": jobs,
        "environment": environment(checked.get("versions", {})),
        "negative_control_missed": missed,
        "route_gaps": checked.get("route_gaps", {}),
        "failures": [f for c in children if "error" not in c for f in c["failures"]][:20],
        "errors": [c["error"] for c in children if "error" in c],
        "children": [{k: v for k, v in c.items() if k != "failures"} for c in children],
        "trace_counts_repeat": len({json.dumps(counts(c)) for c in timed if c["mode"] == "traced"}) <= 1,
        "result": result,
    }
    return result, record


def counts(child) -> dict:
    """The traced child's exact counts, which must repeat between children."""
    t = child["trace"]
    return {"calls": {k: v[0] for k, v in t["stats"].items()}, "n3": t["n3_sum"], "misses": t["cg_misses"]}


def layer_metrics(children, route_gaps) -> dict:
    """Per-layer calls and self time of the traced cold pass, and the trace overhead."""
    traced = [c for c in children if c["mode"] == "traced"]
    untraced = [c for c in children if c["mode"] == "cold"]
    if not traced or not untraced:
        return {}
    first = traced[0]["trace"]
    out = {}
    for name in first["stats"]:
        out[f"{name}.calls"] = (first["stats"][name][0], "count")
        if name in tracer.COUNT_ONLY:
            continue
        self_s = statistics.median(c["trace"]["stats"][name][2] for c in traced)
        out[f"{name}.self_s"] = (self_s, "s")
    hits, misses = first["cg_hits"], first["cg_misses"]
    out[f"{tracer.CACHED}.misses"] = (misses, "count")
    out[f"{tracer.CACHED}.hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    for name, n3 in first["n3_sum"].items():
        out[f"{name}.n3_sum"] = (n3, "count")
    overhead = statistics.median(c["cold_s"] for c in traced) - statistics.median(c["cold_s"] for c in untraced)
    out["trace.overhead_s"] = (overhead, "s")
    out["route_gap"] = (max(route_gaps.values(), default=0.0), "1")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def environment(versions) -> dict:
    src = sorted(PACKAGE_DIR.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src:
        data = path.read_bytes()
        digest.update(path.as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    if Path(".git").exists():  # a plain source tree has no commit to report
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        **versions,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def print_table(workload: str, result: dict, samples: int) -> None:
    fail_ratio = result["failed"] / result["attempted"]
    print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} fail_ratio={fail_ratio:g} timed_children={samples}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.JOBS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE_DIR / "cli.py").is_file():
        print(f"no {PACKAGE_DIR} here: run from the root of a source checkout", file=sys.stderr)
        return 2

    names = sorted(workloads.JOBS) if args.workload == "all" else [args.workload]
    results = {}
    RECORD_DIR.mkdir(exist_ok=True)
    for name in names:
        result, record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        path = RECORD_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print_table(name, result, sum(c.get("mode") != "check" for c in record["children"]))
        for gap_label, gap in record["route_gaps"].items():
            print(f"  route_gap {gap_label}: {gap:.3g}", file=sys.stderr)
        if not record["trace_counts_repeat"]:
            print("  warning: traced children disagree on exact counts", file=sys.stderr)
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
