import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from johnson_entanglement import terwilliger
from johnson_entanglement.scheme import GraphSpec
from johnson_entanglement.specfn import cg_column, clebsch_gordan

from cg_oracle import (
    _dual_hahn_rational,
    _hyp2f1_rational,
    coupled_states,
    numerator_ratios,
    oracle_coefficient,
    seed_coefficient,
)
from verify_reference import module_admissible_levels


# ----------------------------------------------------------- 2F1

def test_hyp2f1_empty_series():
    assert _hyp2f1_rational(0, 5, 3, Fraction(7, 10)) == 1


def test_hyp2f1_two_terms():
    b, c, z = 2, 3, Fraction(2, 5)
    assert _hyp2f1_rational(-1, b, c, z) == 1 - b * z / c


def test_hyp2f1_three_term_cancellation():
    # 1 - 2 + 1 summed exactly
    assert _hyp2f1_rational(-2, 1, 1, Fraction(1)) == 0


def test_hyp2f1_rejects_positive_a():
    with pytest.raises(ValueError):
        _hyp2f1_rational(1, 1, 1, Fraction(1, 2))


def test_hyp2f1_pole_detected():
    with pytest.raises(ZeroDivisionError):
        _hyp2f1_rational(-3, 1, -1, Fraction(1, 2))


def test_hyp2f1_chu_vandermonde():
    # 2F1(-k, -m; c; 1) = (c+m)_k / (c)_k for nonnegative integers
    k, m, c = 4, 6, 1
    rhs = Fraction(math.prod(range(c + m, c + m + k)), math.prod(range(c, c + k)))
    assert _hyp2f1_rational(-k, -m, c, Fraction(1)) == rhs


# ----------------------------------------------------------- dual Hahn

def test_dual_hahn_degree_zero():
    assert _dual_hahn_rational(0, Fraction(173, 10), 0, 2, 5) == 1


def test_dual_hahn_unit_at_origin():
    for i in range(7):
        assert _dual_hahn_rational(i, 0, 0, 3, 6) == 1


def test_dual_hahn_degree_out_of_range():
    # degree 3 > N = 2 runs into the (-N)_r pole of the series
    with pytest.raises(ZeroDivisionError):
        _dual_hahn_rational(3, 1, 0, 0, 2)


@pytest.mark.parametrize("gamma,delta,n_max", [(0.0, 2.0, 6), (1.5, 0.5, 8), (0.0, 0.0, 10)])
def test_dual_hahn_three_term_recurrence(gamma, delta, n_max):
    # lam R_i = A_i R_{i+1} - (A_i + C_i) R_i + C_i R_{i-1},
    # A_i = (i + gamma + 1)(i - N), C_i = i (i - delta - N - 1); exact, since
    # cg_column builds whole columns from this recurrence
    gamma, delta = Fraction(gamma), Fraction(delta)
    r = lambda i, lam: _dual_hahn_rational(i, lam, gamma, delta, n_max)
    for x in range(n_max + 1):
        lam = x * (x + gamma + delta + 1)
        for i in range(1, n_max):
            a_i = (i + gamma + 1) * (i - n_max)
            c_i = i * (i - delta - n_max - 1)
            assert lam * r(i, lam) == a_i * r(i + 1, lam) - (a_i + c_i) * r(i, lam) + c_i * r(i - 1, lam)


@pytest.mark.parametrize("gamma,delta,n_max", [(0.0, 2.0, 6), (2.0, 1.0, 7)])
def test_dual_hahn_difference_equation(gamma, delta, n_max):
    # -i y(x) = B(x) y(x+1) - (B(x) + D(x)) y(x) + D(x) y(x-1) with
    # B(x) = (x+gamma+1)(x+gamma+delta+1)(N-x) / ((2x+gamma+delta+1)(2x+gamma+delta+2))
    # D(x) = x (x+gamma+delta+N+1)(x+delta) / ((2x+gamma+delta)(2x+gamma+delta+1))
    gamma, delta = Fraction(gamma), Fraction(delta)
    gd = gamma + delta
    y = lambda i, x: _dual_hahn_rational(i, x * (x + gd + 1), gamma, delta, n_max)
    for i in range(n_max + 1):
        for x in range(1, n_max):
            b_x = (x + gamma + 1) * (x + gd + 1) * (n_max - x) / ((2 * x + gd + 1) * (2 * x + gd + 2))
            d_x = x * (x + gd + n_max + 1) * (x + delta) / ((2 * x + gd) * (2 * x + gd + 1))
            assert -i * y(i, x) == b_x * y(i, x + 1) - (b_x + d_x) * y(i, x) + d_x * y(i, x - 1)


def test_dual_hahn_numerators_equal_the_series():
    # every (gamma, delta, N, lam) that cg_column meets up to doubled spins 8, delta < 0 included,
    # and a spread of other integer lam, delta < 0 again among them
    grid = set()
    for j1_x2 in range(9):
        for j2_x2 in range(j1_x2, 9):
            for j_x2 in range(j2_x2 - j1_x2, j1_x2 + j2_x2 + 1, 2):
                for m_x2 in range(j_x2 % 2, j_x2 + 1, 2):
                    x = (j_x2 + j1_x2 - j2_x2) // 2
                    gamma, delta = (j2_x2 - j1_x2 + m_x2) // 2, (j2_x2 - j1_x2 - m_x2) // 2
                    grid.add((gamma, delta, j1_x2, x * (x + gamma + delta + 1)))
    assert sum(delta < 0 for _, delta, _, _ in grid) > 50
    grid |= {
        (gamma, delta, n_max, lam)
        for gamma in range(3) for delta in range(-2, 3) for n_max in range(7) for lam in range(-5, 40, 3)
    }
    for gamma, delta, n_max, lam in sorted(grid):
        series = [_dual_hahn_rational(i, lam, gamma, delta, n_max) for i in range(n_max + 1)]
        assert numerator_ratios(lam, gamma, delta, n_max) == series, (gamma, delta, n_max, lam)


# ----------------------------------------------------------- Clebsch-Gordan

def test_cg_highest_weight_is_one():
    for j1_x2, j2_x2 in [(1, 3), (2, 2), (4, 6), (5, 5)]:
        j_x2 = j1_x2 + j2_x2
        val = clebsch_gordan(j_x2, j_x2, j1_x2, j1_x2, j2_x2, j2_x2)
        assert val == pytest.approx(1.0, abs=1e-14)


def test_cg_singlet_signs():
    up = clebsch_gordan(0, 0, 1, 1, 1, -1)
    down = clebsch_gordan(0, 0, 1, -1, 1, 1)
    assert abs(up) == pytest.approx(1.0 / math.sqrt(2))
    assert up == pytest.approx(-down)


def test_cg_spin_one_pair_singlet():
    val = clebsch_gordan(0, 0, 2, 2, 2, -2)
    assert abs(val) == pytest.approx(1.0 / math.sqrt(3))


def test_cg_selection_rules_return_zero():
    assert clebsch_gordan(2, 0, 1, 1, 1, 1) == 0.0  # m != m1 + m2
    assert clebsch_gordan(6, 0, 1, 1, 1, -1) == 0.0  # triangle violated
    assert clebsch_gordan(1, 1, 2, 0, 2, 2) == 0.0  # coupling parity


def test_cg_malformed_labels_raise():
    with pytest.raises(ValueError):
        clebsch_gordan(2, 1, 2, 0, 2, 2)  # (j, m) parity broken
    with pytest.raises(ValueError):
        clebsch_gordan(2, 4, 2, 0, 2, 2)  # |m| > j
    with pytest.raises(ValueError):
        clebsch_gordan(-2, 0, 2, 0, 2, 0)


def test_cg_matches_ladder_oracle_exhaustively():
    # every coefficient for j1, j2 <= 4, all j, m, m1: value and sign
    for j1_x2 in range(0, 9):
        for j2_x2 in range(0, 9):
            states = coupled_states(j1_x2, j2_x2)
            for (j_x2, m_x2), _ in states.items():
                for m1_x2 in range(-j1_x2, j1_x2 + 2, 2):
                    m2_x2 = m_x2 - m1_x2
                    if abs(m2_x2) > j2_x2:
                        continue
                    got = clebsch_gordan(j_x2, m_x2, j1_x2, m1_x2, j2_x2, m2_x2)
                    want = oracle_coefficient(states, j_x2, m_x2, j1_x2, m1_x2, j2_x2, m2_x2)
                    assert got == pytest.approx(want, abs=1e-10), (
                        j1_x2, j2_x2, j_x2, m_x2, m1_x2,
                    )


def test_cg_columns_orthonormal_and_complete_at_scale():
    # modules of J(30, 15) and a lopsided J(29, 13) case; machine precision
    cases = [(15, 15, 0), (15, 13, 0), (13, 11, 0), (16, 13, 3), (11, 9, 4)]
    for j1_x2, j2_x2, m_x2 in cases:
        j_lo = max(abs(j1_x2 - j2_x2), abs(m_x2))
        cols = [
            cg_column(j_x2, j1_x2, j2_x2, m_x2)
            for j_x2 in range(j_lo, j1_x2 + j2_x2 + 2, 2)
        ]
        g = np.array(cols).T
        dim = g.shape[1]
        assert g.shape[0] == dim
        assert np.max(np.abs(g.T @ g - np.eye(dim))) < 1e-12
        assert np.max(np.abs(g @ g.T - np.eye(dim))) < 1e-12


@given(
    st.integers(0, 6), st.integers(0, 6),
    st.integers(-8, 8), st.integers(-8, 8), st.integers(-20, 20),
)
def test_cg_random_labels_never_break_selection(j1_x2, j2_x2, m1_x2, m2_x2, j_x2):
    if abs(m1_x2) > j1_x2 or (j1_x2 - m1_x2) % 2:
        return
    if abs(m2_x2) > j2_x2 or (j2_x2 - m2_x2) % 2:
        return
    m_x2 = m1_x2 + m2_x2
    if j_x2 < 0 or abs(m_x2) > j_x2 or (j_x2 - m_x2) % 2:
        return
    val = clebsch_gordan(j_x2, m_x2, j1_x2, m1_x2, j2_x2, m2_x2)
    admissible = abs(j1_x2 - j2_x2) <= j_x2 <= j1_x2 + j2_x2 and (j1_x2 + j2_x2 - j_x2) % 2 == 0
    if not admissible:
        assert val == 0.0
    else:
        assert abs(val) <= 1.0 + 1e-12


# ----------------------------------------------------------- CG columns

def _bits(values):
    return [struct.pack("<d", v) for v in values]


def test_cg_column_bit_identical_to_seed_formula():
    # every column with j1, j2 <= 7 and every (j, m) in the triangle
    negative_zeros = 0
    for j1_x2 in range(15):
        for j2_x2 in range(15):
            for m_x2 in range(-(j1_x2 + j2_x2), j1_x2 + j2_x2 + 1, 2):
                hi = min(j1_x2, m_x2 + j2_x2)
                lo = max(-j1_x2, m_x2 - j2_x2)
                for j_x2 in range(max(abs(j1_x2 - j2_x2), abs(m_x2)), j1_x2 + j2_x2 + 1, 2):
                    got = cg_column(j_x2, j1_x2, j2_x2, m_x2)
                    want = [
                        seed_coefficient(j_x2, m_x2, j1_x2, m1_x2, j2_x2, m_x2 - m1_x2)
                        for m1_x2 in range(hi, lo - 2, -2)
                    ]
                    assert _bits(got) == _bits(want), (j_x2, j1_x2, j2_x2, m_x2)
                    negative_zeros += sum(v == 0.0 and math.copysign(1.0, v) < 0 for v in got)
    # the exact-zero sign rule is exercised, not just the magnitudes
    assert negative_zeros > 0


def test_cg_column_edge_semantics():
    with pytest.raises(ValueError):
        cg_column(2, 2, 2, 1)  # m parity does not fit (j1, j2)
    with pytest.raises(ValueError):
        cg_column(3, 2, 2, 2)  # (j, m) parity broken
    with pytest.raises(ValueError):
        cg_column(2, 2, 2, 4)  # |m| > j
    # outside the triangle, above and below: all-zero columns of full length
    assert _bits(cg_column(8, 1, 1, 0)) == _bits((0.0, 0.0))
    assert _bits(cg_column(0, 4, 2, 0)) == _bits((0.0, 0.0, 0.0))


def test_cg_columns_orthonormal_and_complete_at_j100():
    # modules of J(100, 50), summed over every admissible level
    spec = GraphSpec(100, 50)
    labels = {(m.j1_x2, m.j2_x2): m for m in terwilliger.enumerate_modules(spec)}
    for key in [(50, 50), (50, 36), (24, 50), (40, 44), (2, 50)]:
        label = labels[key]
        levels = module_admissible_levels(label, spec)
        g = np.array([cg_column(j_x2, *key, spec.n - 2 * spec.k) for j_x2 in levels]).T
        assert g.shape == (len(levels), len(levels))
        assert np.max(np.abs(g.T @ g - np.eye(len(levels)))) < 1e-12
        assert np.max(np.abs(g @ g.T - np.eye(len(levels)))) < 1e-12
