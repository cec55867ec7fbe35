"""Von Neumann entropy of a free-fermion correlation spectrum and report sizes."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .scheme import GraphSpec, shell_sizes
from .spectral import CorrelationSpectrum, SubsystemSpec, segment_sums

__all__ = ["EntropyReport", "binary_entropy", "entropies", "von_neumann", "figures", "report"]

LN2 = math.log(2.0)


def binary_entropy(lam: float) -> float:
    """-lam ln lam - (1-lam) ln(1-lam), with the 0 ln 0 = 0 convention."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"mode occupation {lam} outside [0, 1]")
    if lam == 0.0 or lam == 1.0:
        return 0.0
    return -(lam * math.log(lam) + (1.0 - lam) * math.log1p(-lam))


def entropies(values, mults, bounds) -> np.ndarray:
    """Entropy in nats of each run ``values[bounds[p]:bounds[p + 1]]``: the sum of mult * h(lam) over its values.

    Each term is bit for bit ``mult * binary_entropy(lam)``, from
    ``math.log`` and ``math.log1p`` of each value with the multiplicity
    (int64 or Python int) rounded to a float once; an exact 0 or 1, or a
    value outside [0, 1], goes through :func:`binary_entropy` itself.  The
    terms are added strictly left to right by :func:`.spectral.segment_sums`,
    so an entropy does not depend on how an interpreter's ``sum`` rounds or
    on which runs share the call.
    """
    lams = values.tolist() if isinstance(values, np.ndarray) else values
    counts = mults.tolist() if isinstance(mults, np.ndarray) else mults
    log, log1p = math.log, math.log1p
    terms = [
        m * (-(lam * log(lam) + (1.0 - lam) * log1p(-lam)) if 0.0 < lam < 1.0 else binary_entropy(lam))
        for lam, m in zip(lams, counts)
    ]
    return segment_sums(np.array(terms, dtype=np.float64), bounds)


def von_neumann(spectrum: CorrelationSpectrum) -> float:
    """Entanglement entropy in nats of one spectrum, its :func:`entropies`; each mode contributes at most ln 2."""
    entries = spectrum.entries
    return float(entropies([lam for lam, _ in entries], [mult for _, mult in entries], (0, len(entries)))[0])


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


def figures(spec: GraphSpec, distances: frozenset[int], s: float) -> tuple:
    """The fields of :class:`EntropyReport`, in order, for entropy ``s`` of the subsystem at ``distances``.

    For a contiguous distance set the boundary is the outermost shell; for
    scattered shells every site is boundary.  Shell i's sites neighbor shells
    i - 1 and i + 1 only, and all of both, so the cut is the shells on either
    side next to a shell on the other: for a ball 0..N < k, shells N and
    N + 1.  Sizes come from the closed neighborhood-size formula, never from
    enumeration, once per graph and distance set.  An entropy below -1e-12
    or above the size's ln 2 mode bound is an ArithmeticError.
    """
    size, boundary, cut = _sizes(spec, distances)
    if s < -1e-12:
        raise ArithmeticError("negative entropy")
    s = max(s, 0.0)
    if s > size * LN2 * (1.0 + 1e-12):
        raise ArithmeticError(f"entropy {s:g} exceeds the {size} ln 2 mode bound")
    return s, size, boundary, cut, s / size, s / boundary, s / cut if cut else 0.0


def report(spec: GraphSpec, sub: SubsystemSpec, spectrum: CorrelationSpectrum) -> EntropyReport:
    """Entropy plus the area-law ratios S/|SV|, S/|boundary| and S/|cut|: the :func:`figures` of its :func:`von_neumann`."""
    return EntropyReport(*figures(spec, sub.distances, von_neumann(spectrum)))
