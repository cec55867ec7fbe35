"""The per-pair merge loop that :func:`johnson_entanglement.spectral.group_spectra`
vectorizes, kept as its reference.

Pairs are sorted by value, then multiplicity; each group is anchored at its
first member, and its representative is the multiplicity-weighted mean summed
in that order, snapped to an exact 0 or 1 within ``tol`` of either endpoint.
"""

from johnson_entanglement.spectral import GROUP_TOL


def group_spectrum_reference(pairs, tol: float = GROUP_TOL) -> tuple[tuple[float, int], ...]:
    """Merge (value, multiplicity) pairs whose values agree within ``tol``, one pair at a time."""

    def _snap(value: float) -> float:
        if abs(value) <= tol:
            return 0.0
        if abs(value - 1.0) <= tol:
            return 1.0
        return value

    items = sorted((float(lam), int(d)) for lam, d in pairs)
    out: list[tuple[float, int]] = []
    anchor = None
    acc = 0.0
    mult = 0
    for lam, d in items:
        if anchor is not None and lam - anchor <= tol:
            acc += lam * d
            mult += d
        else:
            if anchor is not None:
                out.append((_snap(acc / mult), mult))
            anchor = lam
            acc = lam * d
            mult = d
    if anchor is not None:
        out.append((_snap(acc / mult), mult))
    return tuple(out)
