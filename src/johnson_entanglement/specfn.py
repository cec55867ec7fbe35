"""Special-function kernel: the one exact dual Hahn recurrence and su(2)
Clebsch-Gordan coefficients.

Angular-momentum labels are passed as doubled integers (``j_x2 = 2*j``) so
half-integers, parities and selection rules stay exact.  A Clebsch-Gordan
column is a normalized dual Hahn polynomial in its degree, so
:func:`cg_column` generates it whole from :func:`dual_hahn_numerators` and
the integer ratio of consecutive weights: per entry one correctly rounded
integer division and one square root, exact at any graph size.  ``spectral``
reads the same recurrence at gamma = 0, delta = n - 2k, N = k for the
eigenvalues of every A_i.
"""

from __future__ import annotations

import math

__all__ = [
    "clebsch_gordan",
    "cg_column",
    "dual_hahn_numerators",
]


def dual_hahn_numerators(lam: int, gamma: int, delta: int, n_max: int, length: int) -> list[int]:
    """P_0..P_(length-1), the numerators of the exact dual Hahn R_i(lam; gamma, delta, N) = P_i / D_i.

    Runs the degree recurrence a_i R_(i+1) = (a_i + c_i - lam) R_i - c_i R_(i-1)
    with a_i = (gamma+i+1)(N-i) and c_i = i(delta+N+1-i).  Over D_0 = 1 and
    D_(i+1) = a_i D_i it is P_(i+1) = (a_i + c_i - lam) P_i - c_i a_(i-1) P_(i-1),
    all in integers; R_i is defined for i <= N, and delta may be negative.
    """
    numerators, p_prev, p, a_prev = [1], 0, 1, 0  # P_(i-1), P_i, a_(i-1)
    for i in range(length - 1):
        a, c = (gamma + i + 1) * (n_max - i), i * (delta + n_max + 1 - i)
        p_prev, p = p, (a + c - lam) * p - c * a_prev * p_prev
        numerators.append(p)
        a_prev = a
    return numerators[:length]


def _check_pair(name: str, j_x2: int, m_x2: int) -> None:
    if j_x2 < 0:
        raise ValueError(f"{name}: doubled spin must be nonnegative, got {j_x2}")
    if (j_x2 - m_x2) % 2 != 0:
        raise ValueError(f"{name}: projection parity mismatch (j_x2={j_x2}, m_x2={m_x2})")
    if abs(m_x2) > j_x2:
        raise ValueError(f"{name}: |m| exceeds j (j_x2={j_x2}, m_x2={m_x2})")


def clebsch_gordan(j_x2: int, m_x2: int, j1_x2: int, m1_x2: int, j2_x2: int, m2_x2: int) -> float:
    """su(2) Clebsch-Gordan coefficient <j1 m1, j2 m2 | j m>, doubled labels.

    Malformed (j, m) pairs raise ValueError; m != m1 + m2 and the triangle
    rule return 0.0.  Otherwise the value is the m1 entry of
    :func:`cg_column`.
    """
    _check_pair("(j, m)", j_x2, m_x2)
    _check_pair("(j1, m1)", j1_x2, m1_x2)
    _check_pair("(j2, m2)", j2_x2, m2_x2)
    if m_x2 != m1_x2 + m2_x2:
        return 0.0
    hi = min(j1_x2, m_x2 + j2_x2)
    return cg_column(j_x2, j1_x2, j2_x2, m_x2)[(hi - m1_x2) // 2]


def cg_column(j_x2: int, j1_x2: int, j2_x2: int, m_x2: int) -> tuple[float, ...]:
    """All <j1 m1, j2 (m-m1) | j m> over admissible m1, ordered by descending m1.

    Descending m1 is ascending distance from the base vertex in graph
    applications, so columns drop straight into matrices indexed by
    neighborhood number.  A (j, m) pair with the wrong parity or |m| > j
    raises ValueError; a j outside the triangle gives an all-zero column.

    Signs follow Condon-Shortley: the highest-m1 entry is positive.

    The flips m -> -m and j1 <-> j2, each worth the phase (-1)^(j1+j2-j),
    bring the column to m >= 0 and j1 <= j2.  There the entry of degree
    i = j1 - m1 = 0, 1, ... is (-1)^i sqrt(w_i) R_i(lam; gamma, delta, N), a
    dual Hahn value with N = 2 j1, gamma = j2 - j1 + m, delta = j2 - j1 - m
    and lam = x (x + gamma + delta + 1), x = j + j1 - j2 (spin units).
    :func:`dual_hahn_numerators` gives R_i = P_i / D_i with integer P_i and
    D_(i+1) = a_i D_i > 0, a_i = (gamma+i+1)(N-i), and the weight steps by
    w_(i+1) / w_i = a_i / ((delta+N-i)(i+1)).  The D_i cancel against the
    weight, so each magnitude is sqrt(W_0 P_i^2 / E_i) with integers W_0 and
    E_(i+1) = E_i a_i (delta+N-i)(i+1): one correctly rounded division of
    the exact rational, then one square root.
    """
    if (j1_x2 + j2_x2 - m_x2) % 2:
        raise ValueError(f"total projection m_x2={m_x2} has the wrong parity for ({j1_x2}, {j2_x2})")
    lo = max(-j1_x2, m_x2 - j2_x2)
    hi = min(j1_x2, m_x2 + j2_x2)
    if lo > hi:
        return ()
    _check_pair("(j, m)", j_x2, m_x2)
    length = (hi - lo) // 2 + 1
    if not abs(j1_x2 - j2_x2) <= j_x2 <= j1_x2 + j2_x2:
        return (0.0,) * length

    flips = 0
    if m_x2 < 0:
        m_x2 = -m_x2
        flips += 1
    if j1_x2 > j2_x2:
        j1_x2, j2_x2 = j2_x2, j1_x2
        flips += 1
    negative = flips == 1 and ((j1_x2 + j2_x2 - j_x2) // 2) % 2 == 1

    n_max = j1_x2
    x = (j_x2 + j1_x2 - j2_x2) // 2
    gamma = (j2_x2 - j1_x2 + m_x2) // 2
    delta = (j2_x2 - j1_x2 - m_x2) // 2
    lam = x * (x + gamma + delta + 1)
    # w_0; delta may be negative, but every factorial argument here is a
    # nonnegative integer for an admissible column.
    f = math.factorial
    w_num = f(n_max) * f(gamma + x) * (j_x2 + 1) * f(delta + n_max) * f(x + gamma + delta)
    w_den = f(n_max - x) * f(gamma) * f(x) * f(x + gamma + delta + 1 + n_max) * f(delta + x)

    out = []
    for i, p in enumerate(dual_hahn_numerators(lam, gamma, delta, n_max, length)):
        magnitude = math.sqrt(w_num * p * p / w_den)
        # D_i > 0, so R_i < 0 exactly when P_i < 0; an exact zero keeps the
        # flip and degree phases only.
        out.append(-magnitude if negative ^ (p < 0) ^ (i % 2 == 1) else magnitude)
        w_den *= (gamma + i + 1) * (n_max - i) * (delta + n_max - i) * (i + 1)
    return tuple(reversed(out)) if flips == 1 else tuple(out)
