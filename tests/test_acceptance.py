"""Acceptance battery: one test per release criterion, each printing a
pass/fail line.  Criteria 01, 03, 04, 05, 07 and 08 run the checks of
``johnson_entanglement.verify`` on their own grids; the tolerances live in
those checks.
"""

import math
import time

import pytest

from johnson_entanglement.cli import SWEEPS, main
from johnson_entanglement.heun import heun_spec, spectrum_via_heun
from johnson_entanglement.entropy import von_neumann
from johnson_entanglement.scheme import GraphSpec, default_base_vertex
from johnson_entanglement.spectral import (
    FillingSpec,
    HoppingProfile,
    SubsystemSpec,
    chopped_correlation_oracle,
    energy_exponential,
    energy_table,
    spectrum_oracle,
)
from johnson_entanglement.terwilliger import assemble_spectrum
from johnson_entanglement.verify import (
    check_hahn_algebra,
    check_hahn_polynomial,
    check_heun_commutant,
    check_level_degeneracies,
    check_module_completeness,
    check_purity_duality,
    check_route_agreement,
    graph_sizes,
)

ORACLE_SIZES = ((4, 2), (5, 2), (6, 3), (8, 4), (10, 5))
# (n, k, n_cut, j0_pos)
COMMUTANT_GRID = tuple((n, k, cut, cut) for n, k in ((8, 4), (10, 5)) for cut in (1, 2))


def _announce(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


def test_criterion_01_triple_route_agreement():
    start = time.time()
    result = check_route_agreement(ORACLE_SIZES, None)
    elapsed = time.time() - start
    assert result.passed, result
    assert elapsed < 60.0
    _announce(1, f"three routes agree to {result.worst:.2e} over all cuts of {ORACLE_SIZES} in {elapsed:.1f}s")


def test_criterion_02_worked_value():
    spec = GraphSpec(4, 2)
    filling = FillingSpec(frozenset({0}))
    sub = SubsystemSpec(frozenset({0}), default_base_vertex(spec))
    spectra = {
        "oracle": spectrum_oracle(chopped_correlation_oracle(spec, filling, sub)),
        "modules": assemble_spectrum(spec, filling, sub),
        "heun": spectrum_via_heun(spec, heun_spec(spec, 0, 0)),
    }
    for route, spectrum in spectra.items():
        assert len(spectrum.entries) == 1
        lam, mult = spectrum.entries[0]
        assert mult == 1
        assert lam == pytest.approx(1.0 / 3.0, abs=1e-10), route
        assert von_neumann(spectrum) == pytest.approx(0.636514, abs=1e-6), route
    _announce(2, "J(4,2) nearest-neighbor single-vertex spectrum is [(1/3, 1)], S = 0.636514")


def test_criterion_03_structural_commutation():
    result = check_heun_commutant(COMMUTANT_GRID)
    assert result.passed, result
    assert "skipped" not in result.detail
    _announce(3, f"cut couplings exactly zero; [C,T] <= {result.worst:.1e}; mu+1 control > 1e-3 on {COMMUTANT_GRID}")


def test_criterion_04_degeneracies():
    for result in (
        check_level_degeneracies(graph_sizes(2, 10), None),
        check_module_completeness(graph_sizes(2, 30)),
    ):
        assert result.passed, result
    _announce(4, "module-count degeneracies match projector traces (n <= 10) and close exactly (n <= 30)")


def test_criterion_05_hahn_matrix_identity():
    result = check_hahn_polynomial(graph_sizes(3, 10), None)
    assert result.passed, result
    _announce(5, f"distance matrices equal their polynomial reconstructions to {result.worst:.1e} (n <= 10)")


def test_criterion_06_energy_consistency():
    worst = 0.0
    for n in range(2, 13):
        for k in range(1, n // 2 + 1):
            spec = GraphSpec(n, k)
            for c in (0.1, 1.0, 5.0):
                closed = energy_exponential(spec, c)
                expanded = energy_table(spec, HoppingProfile(tuple(math.exp(-c * i) for i in range(k + 1))))
                for a, b in zip(closed.rows, expanded.rows):
                    scale = max(abs(a.omega), abs(b.omega), 1e-300)
                    worst = max(worst, abs(a.omega - b.omega) / scale)
                omegas = [row.omega for row in closed.rows]
                assert all(x < y for x, y in zip(omegas, omegas[1:])), (n, k, c)
    assert worst <= 1e-9
    _announce(6, f"closed-form and expanded exponential energies agree to {worst:.1e} relative; monotone in j")


def test_criterion_07_hahn_algebra_residuals():
    result = check_hahn_algebra(((6, 3), (8, 4)))
    assert result.passed, result
    _announce(7, f"commutator-algebra residuals <= {result.worst:.1e} per module at (6,3) and (8,4)")


def test_criterion_08_purity_duality():
    result = check_purity_duality(((6, 3), (8, 4)), None)
    assert result.passed, result
    _announce(8, f"S(SV) = S(complement) to {result.worst:.1e}: {result.detail}")


def test_criterion_09_figure_scale_runs():
    import argparse

    start = time.time()
    ln2 = math.log(2.0)

    args = argparse.Namespace(n=30, k=15, fill_levels=None)
    _, rows2b = SWEEPS["fig2b"](args)
    assert len(rows2b) == 16 * 16
    table = {(r["i"], r["fill_levels"]): r["entropy"] for r in rows2b}
    for r in rows2b:
        assert r["entropy"] <= r["subsystem_size"] * ln2 * (1 + 1e-12)
        assert abs(r["entropy"] - table[(15 - r["i"], r["fill_levels"])]) <= 1e-8

    _, rows3a = SWEEPS["fig3a"](args)
    _, rows3b = SWEEPS["fig3b"](args)
    for r in rows3a + rows3b:
        assert r["entropy"] <= r["subsystem_size"] * ln2 * (1 + 1e-12)
    peak_3a = max(rows3a, key=lambda r: r["ratio_cut"])
    assert 0 < peak_3a["cutoff"] < peak_3a["k"] - 1
    peak_3b = max(rows3b, key=lambda r: r["ratio_cut"])
    assert 0 < peak_3b["cutoff"] < 14
    for fill in range(1, 13):
        curve = {r["cutoff"]: r["ratio_cut"] for r in rows3b if r["fill_levels"] == fill}
        best = max(curve, key=curve.get)
        assert 0 < best < 14, fill

    elapsed = time.time() - start
    assert elapsed < 600.0
    _announce(9, f"n=30 sweeps in {elapsed:.1f}s; mode bound and i <-> k-i symmetry hold; cut ratio peaks at interior N")


def test_criterion_10_determinism(tmp_path):
    commands = [
        ["energies", "--n", "8", "--k", "4", "--exp-hopping", "1.0", "--format", "json"],
        ["entropy", "--n", "8", "--k", "4", "--alpha", "0,1", "--cutoff", "2", "--route", "all"],
        ["sweep", "--figure", "fig2b", "--n", "12", "--k", "6"],
        ["verify", "--quick"],
    ]
    for idx, base in enumerate(commands):
        a = tmp_path / f"run_a_{idx}"
        b = tmp_path / f"run_b_{idx}"
        assert main(base + ["--output", str(a)]) == 0
        assert main(base + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), base
    _announce(10, "repeated CLI runs are byte-identical across commands and formats")
