"""Write the reference output of every benchmark job.

    PYTHONPATH=src python3 perfbench/make_reference.py

Each job runs once with its plain argv (default base vertex) and its stdout
goes to ``perfbench/reference/<workload>/<job>.out``.  The stored files are
the outputs of the package when the benchmark was defined; rewrite them only
for a change that is meant to alter CLI output.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout

from checks import REFERENCE_DIR
from workloads import JOBS


def main() -> int:
    import johnson_entanglement.cli as cli

    for workload, jobs in JOBS.items():
        (REFERENCE_DIR / workload).mkdir(parents=True, exist_ok=True)
        for name, argv in jobs:
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                rc = cli.main(list(argv))
            if rc != 0:
                print(f"{workload}/{name}: exit code {rc}", file=sys.stderr)
                return 1
            (REFERENCE_DIR / workload / f"{name}.out").write_text(out.getvalue())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
