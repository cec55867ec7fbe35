"""Von Neumann entropy of a free-fermion correlation spectrum and report sizes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add

from .scheme import GraphSpec, shell_sizes
from .spectral import CorrelationSpectrum, SubsystemSpec

__all__ = ["EntropyReport", "binary_entropy", "von_neumann", "report"]

LN2 = math.log(2.0)


def binary_entropy(lam: float) -> float:
    """-lam ln lam - (1-lam) ln(1-lam), with the 0 ln 0 = 0 convention."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mode occupation {lam} outside [0, 1]")
    if lam == 0.0 or lam == 1.0:
        return 0.0
    return -(lam * math.log(lam) + (1.0 - lam) * math.log1p(-lam))


def von_neumann(spectrum: CorrelationSpectrum) -> float:
    """Entanglement entropy in nats; each mode contributes at most ln 2.

    The terms are added strictly left to right, so the float does not depend
    on how an interpreter's ``sum`` rounds.
    """
    return reduce(add, (mult * binary_entropy(lam) for lam, mult in spectrum.entries), 0.0)


@dataclass(frozen=True)
class EntropyReport:
    """The entropy, the subsystem's size, its boundary and its cut, and the entropy's ratio to each.

    The cut is every site with a neighbor on the other side of it; only the
    whole graph has none, and its ratio reads 0.
    """

    entropy_nats: float
    subsystem_size: int
    boundary_size: int
    cut_size: int
    ratio_subsystem: float
    ratio_boundary: float
    ratio_cut: float


@lru_cache(maxsize=1024)
def _sizes(spec: GraphSpec, distances: frozenset[int]) -> tuple[int, int, int]:
    """The subsystem's size, boundary and cut, read off the graph's shell sizes."""
    shells, ordered = shell_sizes(spec), sorted(distances)
    if not 0 <= ordered[0] <= ordered[-1] <= spec.k:
        raise ValueError(f"distances {ordered} outside 0..{spec.k}")
    size = sum(shells[i] for i in ordered)
    contiguous = ordered[-1] - ordered[0] + 1 == len(ordered)
    cut_shells = {i for d in ordered for e in (d - 1, d + 1) if 0 <= e <= spec.k and e not in distances for i in (d, e)}
    return size, shells[ordered[-1]] if contiguous else size, sum(shells[i] for i in cut_shells)


def report(spec: GraphSpec, sub: SubsystemSpec, spectrum: CorrelationSpectrum) -> EntropyReport:
    """Entropy plus the area-law ratios S/|SV|, S/|boundary| and S/|cut|.

    For a contiguous distance set the boundary is the outermost shell; for
    scattered shells every site is boundary.  Shell i's sites neighbor shells
    i - 1 and i + 1 only, and all of both, so the cut is the shells on either
    side next to a shell on the other: for a ball 0..N < k, shells N and
    N + 1.  Sizes come from the closed neighborhood-size formula, never from
    enumeration, once per graph and distance set.
    """
    size, boundary, cut = _sizes(spec, sub.distances)
    s = von_neumann(spectrum)
    if s < -1e-12:
        raise ArithmeticError("negative entropy")
    s = max(s, 0.0)
    if s > size * LN2 * (1.0 + 1e-12):
        raise ArithmeticError(f"entropy {s:g} exceeds the {size} ln 2 mode bound")
    return EntropyReport(s, size, boundary, cut, s / size, s / boundary, s / cut if cut else 0.0)
