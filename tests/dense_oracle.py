"""Dense-oracle reference for the level-by-level chop under test.

:func:`chopped_correlation_reference` sums every occupied eigenprojector
into the full C(n, k) x C(n, k) correlation projector and chops it once.
:func:`johnson_entanglement.spectral.chopped_correlation_oracle` chops each
projector before adding it; every entry takes the same floating-point
operations, so the two must agree bit for bit.
"""

import numpy as np

from johnson_entanglement.spectral import eigenprojectors_oracle, subsystem_indices


def _symmetrize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.T)


def chopped_correlation_reference(spec, filling, sub, cap=None) -> np.ndarray:
    """The summed ground-state projector restricted to the subsystem rows."""
    projectors = eigenprojectors_oracle(spec, cap)
    dim = spec.vertex_count
    chat = np.zeros((dim, dim))
    for j_x2 in sorted(filling.occupied):
        chat += projectors[j_x2]
    idx = subsystem_indices(spec, sub, cap)
    return _symmetrize(chat[np.ix_(idx, idx)])
