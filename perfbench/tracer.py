"""Span tracer for the package's layers, installed from outside the package.

Each traced function is wrapped once and the wrapper is bound at every module
attribute that holds the original, so ``specfn.cg_column`` and the
``cg_column`` name imported into ``terwilliger`` record into the same span.
``numpy.linalg.eigh`` and ``eigvalsh`` are wrapped as the ``linalg`` layer,
with the computed sum of dim^3 over every (possibly stacked) matrix.
Functions not listed here count toward their traced caller's self time.
"""

from __future__ import annotations

import gzip
import sys
from time import perf_counter

# layer -> public functions traced in that layer
TRACED = {
    "cli": ("main",),
    "specfn": ("cg_column", "clebsch_gordan"),
    "terwilliger": ("enumerate_modules", "level_degeneracy", "module_correlation_block", "assemble_spectrum"),
    "heun": ("build_T", "spectrum_via_heun"),
    "spectral": (
        "energy_table",
        "eigenprojectors_oracle",
        "chopped_correlation_oracle",
        "spectrum_oracle",
        "group_spectrum",
        "clamp_unit_interval",
    ),
    "scheme": ("distances_from", "adjacency_matrix"),
    "entropy": ("von_neumann", "report"),
    "verify": ("run_battery", "spectra_max_diff"),
    "linalg": ("eigh", "eigvalsh"),
}
# Functions that some workload never calls.  Their self time would read 0.0 on
# every run of that workload, so only their call counts are metrics; the self
# times stay in the run record.
COUNT_ONLY = {
    "terwilliger.level_degeneracy",
    "spectral.energy_table",
    "spectral.eigenprojectors_oracle",
    "spectral.chopped_correlation_oracle",
    "spectral.spectrum_oracle",
    "scheme.distances_from",
    "scheme.adjacency_matrix",
    "verify.run_battery",
    "verify.spectra_max_diff",
}
CACHED = "specfn.cg_column"
PACKAGE = "johnson_entanglement"


class Tracer:
    """Per-function calls, total and self time, plus the raw span list."""

    def __init__(self):
        # calls, total_s, self_s per traced function
        self.stats = {f"{layer}.{fn}": [0, 0.0, 0.0] for layer, fns in TRACED.items() for fn in fns}
        self.n3 = {"linalg.eigh": 0, "linalg.eigvalsh": 0}
        self.spans: list[tuple] = []  # (span id, parent id, name, start, end)
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 1
        self._bound: list[tuple] = []  # (module, attribute, original)
        self._cache = None
        self._cache_start = None

    def install(self) -> None:
        import numpy.linalg

        import johnson_entanglement.cli  # noqa: F401  (loads every layer)

        modules = [m for k, m in sys.modules.items() if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for layer, fns in TRACED.items():
            home = numpy.linalg if layer == "linalg" else sys.modules[f"{PACKAGE}.{layer}"]
            targets = [numpy.linalg] if layer == "linalg" else modules
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self._wrap(f"{layer}.{fn}", original)
                for mod in targets:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bound.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
                if f"{layer}.{fn}" == CACHED:
                    self._cache = original
        self._cache_start = self._cache_counts()

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._bound):
            setattr(mod, attr, original)
        self._bound.clear()

    def _cache_counts(self) -> tuple[int, int] | None:
        info = getattr(self._cache, "cache_info", None)
        if info is None:
            return None
        ci = info()
        return ci.hits, ci.misses

    def _wrap(self, name, fn):
        from numpy import shape as array_shape

        stat = self.stats[name]
        stack = self._stack
        spans = self.spans
        n3 = self.n3 if name in self.n3 else None

        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans.append((span, parent, name, start, end))
                if n3 is not None:
                    shape = array_shape(args[0])
                    batch = 1
                    for d in shape[:-2]:
                        batch *= d
                    n3[name] += batch * shape[-1] ** 3

        return traced

    def summary(self) -> dict:
        """Counts and times since install; cache figures from the original lru_cache."""
        calls = self.stats[CACHED][0]
        counts = self._cache_counts()
        if counts is None:  # uncached: every call computes its column
            hits, misses = 0, calls
        else:
            hits = counts[0] - self._cache_start[0]
            misses = counts[1] - self._cache_start[1]
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "n3_sum": dict(self.n3),
            "cg_hits": hits,
            "cg_misses": misses,
            "spans": len(self.spans),
        }

    def write_spans(self, path) -> None:
        """Spans as gzip CSV: id, parent id, name, start and end in seconds."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span,parent,name,start_s,end_s\n")
            for span, parent, name, start, end in self.spans:
                fh.write(f"{span},{parent},{name},{start:.9f},{end:.9f}\n")
