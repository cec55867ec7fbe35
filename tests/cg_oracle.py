"""Clebsch-Gordan references for the column recurrence under test.

* :func:`coupled_states` / :func:`oracle_coefficient`: explicit ladder
  operators on the dense product space, highest-weight seeding and
  Gram-Schmidt down the j ladder.  Shares no code with the package.
* :func:`_dual_hahn_rational`: one dual Hahn value summed term by term as
  the terminating series, the reference for the package's degree
  recurrence, :func:`johnson_entanglement.specfn.dual_hahn_numerators`.
* :func:`numerator_ratios`: the package's integer numerators P_i divided
  by their D_i, the values the series must equal.
* :func:`_hyp2f1_rational`: a terminating 2F1 in exact rationals, the
  closed form behind :func:`exponential_energy_reference`, which
  :func:`johnson_entanglement.spectral.energy_exponential` must equal.
* :func:`seed_coefficient`: the per-entry closed form, a normalized dual
  Hahn series summed in exact rationals with one square root.  It rounds
  the same exact rational as :func:`johnson_entanglement.specfn.cg_column`,
  so the two must agree bit for bit, signed zeros included.
"""

import math
from fractions import Fraction

import numpy as np

from johnson_entanglement.specfn import dual_hahn_numerators


def _dual_hahn_rational(i: int, lam, gamma: int, delta: int, n_max: int) -> Fraction:
    """Exact-rational dual Hahn R_i(lam; gamma, delta, N); lam may be int or Fraction.

    Summed as the terminating series

        sum_r (-i)_r / ((gamma+1)_r (-N)_r r!) prod_{l<r} (l(gamma+delta+1) + l^2 - lam),

    polynomial in the quadratic grid variable lam(x) = x (x + gamma + delta + 1).
    """
    gd1 = gamma + delta + 1
    total = Fraction(1)
    term = Fraction(1)
    for r in range(i):
        term *= Fraction(r - i, (gamma + 1 + r) * (r - n_max) * (r + 1)) * (r * gd1 + r * r - lam)
        total += term
    return total


def numerator_ratios(lam, gamma: int, delta: int, n_max: int) -> list[Fraction]:
    """P_i / D_i of :func:`dual_hahn_numerators` over D_0 = 1, D_(i+1) = a_i D_i, a_i = (gamma+i+1)(N-i), degrees 0..N."""
    ratios, d = [], 1
    for i, p in enumerate(dual_hahn_numerators(lam, gamma, delta, n_max, n_max + 1)):
        ratios.append(Fraction(p, d))
        d *= (gamma + i + 1) * (n_max - i)
    return ratios


def _hyp2f1_rational(a_neg: int, b: int, c: int, z: Fraction) -> Fraction:
    """Exact-rational terminating 2F1 for integer parameters and rational z."""
    if a_neg > 0:
        raise ValueError("first parameter must be a nonpositive integer")
    total = Fraction(1)
    term = Fraction(1)
    for m in range(-a_neg):
        num = (a_neg + m) * (b + m)
        if num == 0:
            break
        den = (c + m) * (m + 1)
        if den == 0:
            raise ZeroDivisionError(f"2F1 pole: (c)_m vanishes at m={m + 1} before termination")
        term *= Fraction(num, den) * z
        total += term
    return total


def exponential_energy_reference(spec, j_x2: int, z: Fraction) -> Fraction:
    """Omega_j for alpha_i = z^i: (1 - z)^(n/2 - j) 2F1(n/2 - k - j, -n/2 + k - j; 1; z), exact."""
    n, k = spec.n, spec.k
    a = (n - 2 * k - j_x2) // 2
    b = -(n - 2 * k + j_x2) // 2
    return (1 - z) ** ((n - j_x2) // 2) * _hyp2f1_rational(a, b, 1, z)


def su2_lowering(j_x2: int) -> tuple[np.ndarray, np.ndarray]:
    """(m values descending, lowering matrix) for a spin-j irrep."""
    m_x2s = np.arange(j_x2, -j_x2 - 2, -2)
    dim = j_x2 + 1
    lower = np.zeros((dim, dim))
    j = j_x2 / 2.0
    for r in range(dim - 1):
        m = m_x2s[r] / 2.0
        lower[r + 1, r] = math.sqrt((j + m) * (j - m + 1.0))
    return m_x2s, lower


def coupled_states(j1_x2: int, j2_x2: int) -> dict[tuple[int, int], np.ndarray]:
    """All |j, m> vectors in the product basis, keyed by doubled (j, m).

    Product basis index (a, b) -> a * (j2_x2 + 1) + b, both factors ordered
    by descending projection.  Signs follow Condon-Shortley: the highest-m1
    component of each |j, j> is positive.
    """
    m1s, low1 = su2_lowering(j1_x2)
    m2s, low2 = su2_lowering(j2_x2)
    d1, d2 = j1_x2 + 1, j2_x2 + 1
    total_lower = np.kron(low1, np.eye(d2)) + np.kron(np.eye(d1), low2)
    m_total = np.add.outer(m1s, m2s).reshape(-1)

    states: dict[tuple[int, int], np.ndarray] = {}
    for j_x2 in range(j1_x2 + j2_x2, abs(j1_x2 - j2_x2) - 2, -2):
        if j_x2 < 0:
            break
        m_x2 = j_x2
        slice_idx = np.nonzero(m_total == m_x2)[0]
        by_m1 = slice_idx[np.argsort(-m1s[slice_idx // d2])]
        if j_x2 == j1_x2 + j2_x2:
            v = np.zeros(d1 * d2)
            v[0] = 1.0
        else:
            higher = [states[(jp, m_x2)] for jp in range(j_x2 + 2, j1_x2 + j2_x2 + 2, 2)]
            v = None
            for seed in by_m1:
                cand = np.zeros(d1 * d2)
                cand[seed] = 1.0
                for h in higher:
                    cand -= (h @ cand) * h
                if np.linalg.norm(cand) > 1e-8:
                    v = cand / np.linalg.norm(cand)
                    break
            if v[by_m1[0]] < 0:
                v = -v
        states[(j_x2, m_x2)] = v
        while m_x2 > -j_x2:
            v = total_lower @ v
            v /= np.linalg.norm(v)
            m_x2 -= 2
            states[(j_x2, m_x2)] = v
    return states


def oracle_coefficient(states, j_x2, m_x2, j1_x2, m1_x2, j2_x2, m2_x2) -> float:
    m1s = np.arange(j1_x2, -j1_x2 - 2, -2)
    m2s = np.arange(j2_x2, -j2_x2 - 2, -2)
    a = int(np.nonzero(m1s == m1_x2)[0][0])
    b = int(np.nonzero(m2s == m2_x2)[0][0])
    return float(states[(j_x2, m_x2)][a * (j2_x2 + 1) + b])


def seed_coefficient(j_x2, m_x2, j1_x2, m1_x2, j2_x2, m2_x2) -> float:
    """<j1 m1, j2 m2 | j m> entry by entry, for admissible doubled labels.

    The degree is i = j1 - m1 and the grid point x = j - |j1 - j2| after the
    flips to m >= 0 and j1 <= j2, each worth the phase (-1)^(j1+j2-j).
    """
    sign = 1
    if m_x2 < 0:
        m_x2, m1_x2, m2_x2 = -m_x2, -m1_x2, -m2_x2
        if ((j1_x2 + j2_x2 - j_x2) // 2) % 2:
            sign = -sign
    if j1_x2 > j2_x2:
        j1_x2, m1_x2, j2_x2, m2_x2 = j2_x2, m2_x2, j1_x2, m1_x2
        if ((j1_x2 + j2_x2 - j_x2) // 2) % 2:
            sign = -sign

    i = (j1_x2 - m1_x2) // 2
    x = (j_x2 + j1_x2 - j2_x2) // 2
    n_max = j1_x2
    gamma = (j2_x2 - j1_x2 + m_x2) // 2
    delta = (j2_x2 - j1_x2 - m_x2) // 2

    # squared normalization as ratios of factorials of nonnegative integers
    f = math.factorial
    w = Fraction(
        f(n_max) ** 2
        * f(gamma + x)
        * (j_x2 + 1)
        * f(gamma + i)
        * f(delta + n_max - i)
        * f(x + gamma + delta),
        f(n_max - x)
        * f(gamma) ** 2
        * f(x)
        * f(x + gamma + delta + 1 + n_max)
        * f(i)
        * f(delta + x)
        * f(n_max - i),
    )
    r = _dual_hahn_rational(i, x * (x + gamma + delta + 1), gamma, delta, n_max)
    magnitude = math.sqrt(w * r * r)
    if r < 0:
        sign = -sign
    if i % 2:
        sign = -sign
    return sign * magnitude
