"""Workload job lists and their seeded generation.

Each workload is a fixed list of ``je`` argv jobs.  A seed permutes the job
order and draws the base vertex ``--x0`` of every ``entropy`` job; base-vertex
relabelling leaves every output unchanged, so one set of reference outputs
serves all seeds.  This module imports only the standard library, so the
child process can load it before timing the package import.
"""

from __future__ import annotations

import random

# figures: the paper's sweeps at n = 30.  Many small T operators, module
#   blocks and eigh calls; little CG work.  Exercises batching of the
#   structured routes, bypasses the CG kernel.
# oracle-check: the verify battery and a 1716-vertex three-route entropy.
#   Dense eigh and projectors dominate.  Many tiny graphs are seen once, so
#   per-graph precomputation shows up here as a cost, and so does the cold
#   work of the CG kernel.
JOBS = {
    "figures": [
        (f"sweep-{fig}", ("sweep", "--figure", fig))
        for fig in ("fig2a", "fig2b", "fig3a", "fig3b", "fig4")
    ],
    "oracle-check": [
        ("verify", ("verify",)),
        (
            "j13-all",
            ("entropy", "--n", "13", "--k", "6", "--cutoff", "2", "--fill-levels", "3", "--route", "all"),
        ),
    ],
}


def option(argv, flag: str) -> str | None:
    """Value following ``flag`` in an argv list, or None when absent."""
    argv = list(argv)
    return argv[argv.index(flag) + 1] if flag in argv else None


def generate(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """The seeded job list: (job name, argv) pairs in run order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for name, argv in JOBS[workload]:
        argv = list(argv)
        if argv[0] == "entropy":
            n, k = int(option(argv, "--n")), int(option(argv, "--k"))
            x0 = sorted(rng.sample(range(1, n + 1), k))
            argv += ["--x0", ",".join(map(str, x0))]
        jobs.append((name, argv))
    rng.shuffle(jobs)
    return jobs
