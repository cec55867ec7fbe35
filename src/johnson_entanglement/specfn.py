"""Special-function kernel: exact dual Hahn sums and su(2) Clebsch-Gordan
coefficients.

Angular-momentum labels are passed as doubled integers (``j_x2 = 2*j``) so
half-integers, parities and selection rules stay exact.  A Clebsch-Gordan
column is a normalized dual Hahn polynomial in its degree, so
:func:`cg_column` generates it whole from the integer three-term degree
recurrence and the integer ratio of consecutive weights.  Each entry is then
one correctly rounded integer division and one square root, with no loss of
precision at any graph size.
"""

from __future__ import annotations

import math
from fractions import Fraction

__all__ = [
    "clebsch_gordan",
    "cg_column",
]


def _dual_hahn_run(degree: int, lam: int, gamma: int, delta: int, n_max: int) -> list[Fraction]:
    """Exact dual Hahn values R_0..R_degree(lam; gamma, delta, N), degree <= N, in one pass.

    Runs the degree recurrence a_i R_(i+1) = (a_i + c_i - lam) R_i - c_i R_(i-1)
    with a_i = (gamma+i+1)(N-i) and c_i = i(delta+N+1-i), the one behind
    :func:`cg_column`.
    """
    out = [Fraction(0), Fraction(1)]  # R_(-1) = 0 starts the recurrence
    for i in range(degree):
        a = (gamma + i + 1) * (n_max - i)
        c = i * (delta + n_max + 1 - i)
        out.append(((a + c - lam) * out[-1] - c * out[-2]) / a)
    return out[1:]


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
    and lam = x (x + gamma + delta + 1), x = j + j1 - j2 (spin units).  With
    a_i = (gamma+i+1)(N-i) and c_i = i(delta+N+1-i), the degree recurrence
    a_i R_(i+1) = (a_i + c_i - lam) R_i - c_i R_(i-1) keeps R_i = P_i / D_i
    with integer P_i and D_(i+1) = a_i D_i > 0, and the weight steps by
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
    p_prev, p, a_prev = 0, 1, 0  # P_(i-1), P_i, a_(i-1)
    for i in range(length):
        magnitude = math.sqrt(w_num * p * p / w_den)
        # D_i > 0, so R_i < 0 exactly when P_i < 0; an exact zero keeps the
        # flip and degree phases only.
        out.append(-magnitude if negative ^ (p < 0) ^ (i % 2 == 1) else magnitude)
        a = (gamma + i + 1) * (n_max - i)
        c = i * (delta + n_max + 1 - i)
        p_prev, p = p, (a + c - lam) * p - c * a_prev * p_prev
        a_prev = a
        w_den *= a * (delta + n_max - i) * (i + 1)
    return tuple(reversed(out)) if flips == 1 else tuple(out)
