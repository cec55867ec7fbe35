import contextlib
import functools
import io
import json
import math
import operator
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from johnson_entanglement import cli, spectral, terwilliger
from johnson_entanglement.cli import _build_parser, main
from johnson_entanglement.entropy import binary_entropy, von_neumann
from johnson_entanglement.heun import HeunSpec, plan
from johnson_entanglement.scheme import GraphSpec, default_base_vertex
from johnson_entanglement.spectral import FillingSpec, SubsystemSpec, level_labels_x2


def run(args):
    return main(args)


def test_energies_octahedron(tmp_path, capsys):
    out = tmp_path / "energies.csv"
    assert run(["energies", "--n", "4", "--k", "2", "--alpha", "0,1", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,k,j_x2,j,theta,omega,degeneracy,occupied"
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    occupied = [r[-1] for r in rows]
    assert occupied == ["1", "0", "0"]
    assert [r[2] for r in rows] == ["0", "2", "4"]
    assert [r[3] for r in rows] == ["0", "1", "2"]


def test_energies_exponential_monotone(tmp_path):
    out = tmp_path / "energies.csv"
    assert run(["energies", "--n", "6", "--k", "3", "--exp-hopping", "1.0", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    omegas = [float(r[5]) for r in rows]
    assert all(a < b for a, b in zip(omegas, omegas[1:]))


def test_energies_constant_alpha0(tmp_path):
    out = tmp_path / "energies.csv"
    assert run(["energies", "--n", "6", "--k", "2", "--alpha", "1", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert {r[5] for r in rows} == {"1"}
    # exp(-c i) at c = inf keeps only alpha_0 = 1
    assert run(["energies", "--n", "6", "--k", "2", "--exp-hopping", "inf", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert {r[5] for r in rows} == {"1"}


def test_entropy_all_routes_worked_example(tmp_path):
    out = tmp_path / "entropy.csv"
    code = run([
        "entropy", "--n", "4", "--k", "2", "--alpha", "0,1",
        "--distances", "0", "--route", "all", "--output", str(out),
    ])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert [r[2] for r in rows] == ["oracle", "modules", "heun"]
    for r in rows:
        assert float(r[4]) == pytest.approx(0.636514, abs=1e-6)
        assert float(r[9]) <= 1e-10
    assert run([
        "entropy", "--n", "4", "--k", "2", "--alpha", "0,1",
        "--distances", "0..2", "--route", "modules", "--output", str(tmp_path / "e2.csv"),
    ]) == 0
    rows2 = [line.split(",") for line in (tmp_path / "e2.csv").read_text().strip().splitlines()[1:]]
    assert float(rows2[0][4]) == pytest.approx(0.0, abs=1e-10)


def test_entropy_filling_ignores_hopping_scale(capsys):
    # an absolute zero-mode tolerance once emptied every level at alpha_1 = 1e-14
    outputs = []
    for alphas in ("0,1", "0,1e-14"):
        assert run(["entropy", "--n", "8", "--k", "4", "--cutoff", "1", "--alpha", alphas]) == 0
        outputs.append(capsys.readouterr().out.splitlines()[1].split(","))
    assert outputs[0][4] == outputs[1][4] == "8.20144730305"


def test_entropy_json_mirrors_csv(tmp_path):
    csv_path = tmp_path / "e.csv"
    json_path = tmp_path / "e.json"
    base = ["entropy", "--n", "6", "--k", "3", "--alpha", "0,1", "--cutoff", "1", "--route", "modules"]
    assert run(base + ["--output", str(csv_path)]) == 0
    assert run(base + ["--format", "json", "--output", str(json_path)]) == 0
    header = csv_path.read_text().splitlines()[0].split(",")
    payload = json.loads(json_path.read_text())
    assert list(payload[0]) == header
    csv_entropy = float(csv_path.read_text().splitlines()[1].split(",")[4])
    assert payload[0]["entropy"] == pytest.approx(csv_entropy, rel=1e-12)


def test_entropy_bits_flag(tmp_path):
    nats = tmp_path / "nats.csv"
    bits = tmp_path / "bits.csv"
    base = ["entropy", "--n", "4", "--k", "2", "--alpha", "0,1", "--distances", "0", "--route", "modules"]
    assert run(base + ["--output", str(nats)]) == 0
    assert run(base + ["--bits", "--output", str(bits)]) == 0
    v_nats = float(nats.read_text().splitlines()[1].split(",")[4])
    v_bits = float(bits.read_text().splitlines()[1].split(",")[4])
    assert v_bits == pytest.approx(v_nats / math.log(2.0), rel=1e-12)


def test_entropy_spectrum_output(tmp_path):
    spath = tmp_path / "spectrum.csv"
    code = run([
        "entropy", "--n", "4", "--k", "2", "--alpha", "0,1", "--distances", "0",
        "--route", "modules", "--output", str(tmp_path / "e.csv"), "--spectrum-output", str(spath),
    ])
    assert code == 0
    lines = spath.read_text().strip().splitlines()
    assert lines[0] == "route,lambda,multiplicity"
    assert lines[1].startswith("modules,0.333333333333")


def test_entropy_x0_override_matches_default(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    base = ["entropy", "--n", "5", "--k", "2", "--alpha", "0,1", "--cutoff", "0", "--route", "oracle"]
    assert run(base + ["--output", str(a)]) == 0
    assert run(base + ["--x0", "4,5", "--output", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_entropy_occupied_and_fill_levels(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run([
        "entropy", "--n", "6", "--k", "3", "--occupied", "0", "--distances", "1",
        "--route", "modules", "--output", str(a),
    ]) == 0
    assert run([
        "entropy", "--n", "6", "--k", "3", "--fill-levels", "1", "--distances", "1",
        "--route", "modules", "--output", str(b),
    ]) == 0
    assert a.read_text() == b.read_text()


def test_exit_code_bad_config():
    assert run(["entropy", "--n", "4", "--k", "3", "--distances", "0"]) == 2  # k > n/2
    assert run(["entropy", "--n", "4", "--k", "2"]) == 2  # no subsystem
    assert run(["entropy", "--n", "4", "--k", "2", "--distances", "0", "--cutoff", "1"]) == 2
    assert run(["entropy", "--n", "4", "--k", "2", "--distances", "9"]) == 2
    assert run(["entropy", "--n", "4", "--k", "2", "--distances", "0", "--occupied", "1"]) == 2
    assert run(["energies", "--n", "4", "--k", "2", "--alpha", "1,2,3,4"]) == 2
    assert run(["entropy", "--n", "6", "--k", "3", "--occupied", "0,4", "--distances", "0,1", "--route", "heun"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["entropy", "--n", "8", "--k", "4", "--distances", "0.."],
        ["entropy", "--n", "8", "--k", "4", "--distances", "a"],
        ["entropy", "--n", "8", "--k", "4", "--cutoff", "1", "--occupied", "x"],
        ["entropy", "--n", "8", "--k", "4", "--cutoff", "1", "--alpha", "1,,x"],
        ["verify", "--sizes", "4"],
        ["verify", "--sizes", "4:9"],
        ["verify", "--quick", "--sizes="],
        ["sweep", "--figure", "fig3b", "--n", "8", "--k", "5"],
        ["JE_DENSE_CAP=abc", "entropy", "--n", "6", "--k", "3", "--cutoff", "1", "--route", "oracle"],
        ["entropy", "--n", "6", "--k", "3", "--cutoff", "1", "--output", "/nonexistent/x.csv"],
        ["sweep", "--figure", "fig2a", "--fill-levels", "-2"],
        ["sweep", "--figure", "fig4", "--fill-levels", "99"],
        ["sweep", "--figure", "fig2b", "--n", "8", "--k", "4", "--fill-levels", "2"],
        ["sweep", "--figure", "fig3b", "--n", "8", "--k", "4", "--fill-levels", "99"],
    ],
)
def test_malformed_input_exits_2(argv, capsys, monkeypatch):
    # a leading NAME=value sets the environment, as in a shell
    while "=" in argv[0]:
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ") and err.count("\n") == 1


@pytest.mark.parametrize("option", [["--distances"], ["--cutoff", "1", "--occupied"], ["--cutoff", "1", "--x0"]])
def test_huge_range_refused_before_it_is_built(option, capsys):
    tracemalloc.start()
    try:
        code = run(["entropy", "--n", "6", "--k", "3", *option, "0..2000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert peak < 1_000_000


@pytest.mark.parametrize("hopping", [["--alpha", "nan,1"], ["--alpha", "1e308,1e308"], ["--exp-hopping", "nan"]])
def test_exit_code_bad_hopping(hopping, capsys):
    code = run(["entropy", "--n", "8", "--k", "4", "--cutoff", "1"] + hopping)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ") and err.count("\n") == 1


def test_exit_code_capacity():
    assert run(["entropy", "--n", "30", "--k", "15", "--cutoff", "1", "--route", "oracle"]) == 3
    assert run([
        "entropy", "--n", "8", "--k", "4", "--cutoff", "1", "--route", "oracle", "--dense-cap", "10",
    ]) == 3


def test_failed_allocation_is_a_one_line_capacity_error(monkeypatch, capsys):
    # the cap lifted past the graph (C(30, 15) = 155,117,520 vertices) leaves a failed allocation the last guard
    def unable(moved):
        raise MemoryError("Unable to allocate 355. GiB for an array with shape (218276, 218276) and data type float64")

    # the one product per side that the 218,276-row ball would ask for
    monkeypatch.setattr(spectral, "_layout_distances", unable)
    code = run([
        "entropy", "--n", "30", "--k", "15", "--cutoff", "3", "--occupied", "30,28", "--route", "all",
        "--dense-cap", "10000000000000000000000",
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("capacity error: Unable to allocate 355. GiB") and err.count("\n") == 1
    assert "Traceback" not in err


def test_exit_code_usage_error():
    assert run(["entropy", "--n", "4"]) == 2
    assert run(["no-such-command"]) == 2
    # only entropy and verify build a dense object, so only they take the cap
    assert run(["energies", "--n", "8", "--k", "4", "--dense-cap", "1"]) == 2
    assert run(["sweep", "--figure", "fig4", "--n", "8", "--k", "4", "--dense-cap", "1"]) == 2


def test_heun_route_large_scale(tmp_path):
    out = tmp_path / "large.csv"
    code = run([
        "entropy", "--n", "30", "--k", "15", "--alpha", "0,1", "--cutoff", "7",
        "--fill-levels", "4", "--route", "heun", "--output", str(out),
    ])
    assert code == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    size = int(row[5])
    assert size == sum(math.comb(15, i) ** 2 for i in range(8))
    assert 0.0 < float(row[4]) <= size * math.log(2.0)


def test_sweep_fig2b_mirror_symmetric(tmp_path):
    out = tmp_path / "fig2b.csv"
    assert run(["sweep", "--figure", "fig2b", "--n", "12", "--k", "6", "--output", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    table = {(int(r[2]), int(r[3])): float(r[6]) for r in rows}
    for (i, fill), ratio in table.items():
        assert ratio == pytest.approx(table[(6 - i, fill)], abs=1e-8)


def test_sweep_fig4_smoke(tmp_path):
    out = tmp_path / "fig4.csv"
    assert run(["sweep", "--figure", "fig4", "--n", "12", "--k", "6", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("n,k,j1_x2,j2_x2,chain_length,prefix_length")
    assert len(lines) > 4


def test_verify_quick(tmp_path):
    out = tmp_path / "verify.json"
    assert run(["verify", "--quick", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert all(chk["passed"] for chk in payload["checks"])


def test_verify_reports_a_broken_module_enumeration_as_a_failure(tmp_path, monkeypatch, capsys):
    """A multiplicity off by one at J(7,3) fails module_completeness with worst 1 and exit 1, not a traceback.

    The grid's multiplicity step is broken, so every table built for J(7,3)
    raises too: each check that builds one reports FAIL with worst inf, and
    null in the report, which stays strict JSON.
    """
    from johnson_entanglement import terwilliger, verify
    from johnson_entanglement.verify import check_module_completeness, graph_sizes

    real = terwilliger._multiplicities

    def off_by_one(n, k, g, s, t):
        degeneracy, remainder = real(n, k, g, s, t)
        return degeneracy + ((n[g] == 7) & (k[g] == 3)), remainder

    def clear_caches():
        for cached in (terwilliger.enumerate_modules, terwilliger.module_table, verify._failed_graphs):
            cached.cache_clear()

    clear_caches()
    monkeypatch.setattr(terwilliger, "_multiplicities", off_by_one)
    try:
        result = check_module_completeness(graph_sizes(2, 30))
        assert (result.passed, result.worst) == (False, 1.0)
        capsys.readouterr()
        assert run(["verify", "--quick", "--output", str(tmp_path / "verify.json")]) == 1
        assert "FAIL module_completeness (worst 1)" in capsys.readouterr().err.splitlines()
        assert run(["verify", "--quick", "--sizes", "7:3", "--output", str(tmp_path / "verify73.json")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert "FAIL module_completeness (worst 1)" in lines
        assert "FAIL cg_orthonormality (worst inf)" in lines
        assert "pass scheme_identities (worst 0)" in lines

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        report = json.loads((tmp_path / "verify73.json").read_text(), parse_constant=reject)
        worst = {check["name"]: check["worst"] for check in report["checks"]}
        assert (report["passed"], worst["cg_orthonormality"], worst["module_completeness"]) == (False, None, 1.0)
    finally:
        monkeypatch.undo()
        clear_caches()


def test_dense_cap_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("JE_DENSE_CAP", "10")
    assert run(["entropy", "--n", "8", "--k", "4", "--cutoff", "1", "--route", "oracle"]) == 3
    monkeypatch.setenv("JE_DENSE_CAP", "100")
    out = tmp_path / "ok.csv"
    assert run([
        "entropy", "--n", "8", "--k", "4", "--alpha", "0,1", "--cutoff", "1",
        "--route", "oracle", "--output", str(out),
    ]) == 0


def test_diagnostics_reports_the_planner_refusal(capsys):
    # T needs a ball 0..N: a contiguous run 1..2 has no heun weights
    assert run([
        "entropy", "--n", "8", "--k", "4", "--distances", "1..2", "--fill-levels", "2",
        "--route", "modules", "--diagnostics",
    ]) == 0
    err = capsys.readouterr().err
    assert "mu=" not in err
    assert err == (
        "heun weights undefined for this configuration: "
        "the T-readout route needs contiguous distances 0..N\n"
    )


def test_heun_plan_alone_decides_diagnostics_and_route(capsys):
    # J(6,3), every distance subset x every filling
    spec = GraphSpec(6, 3)
    x0 = default_base_vertex(spec)
    labels = level_labels_x2(spec)
    for size in range(1, 5):
        for distances in combinations(range(4), size):
            for fill in range(5):
                for occupied in combinations(labels, fill):
                    planned = plan(spec, FillingSpec(frozenset(occupied)), SubsystemSpec(frozenset(distances), x0))
                    base = [
                        "entropy", "--n", "6", "--k", "3", "--distances", ",".join(map(str, distances)),
                        "--occupied", ",".join(map(str, occupied)),
                    ]
                    assert run(base + ["--route", "modules", "--diagnostics"]) == 0
                    assert ("mu=" in capsys.readouterr().err) == isinstance(planned, HeunSpec)
                    code = run(base + ["--route", "heun"])
                    assert (code == 2) == isinstance(planned, str), (distances, occupied)
                    if code != 2:
                        assert code == 0
                        # route_discrepancy covers heun against modules (and the oracle)
                        assert run(base + ["--route", "all"]) == 0
                        assert float(capsys.readouterr().out.splitlines()[-1].split(",")[9]) <= 1e-8
                    capsys.readouterr()


def test_diagnostics_prints_weights(tmp_path, capsys):
    code = run([
        "entropy", "--n", "4", "--k", "2", "--alpha", "0,1", "--cutoff", "0",
        "--route", "heun", "--diagnostics", "--output", str(tmp_path / "e.csv"),
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "mu=2" in err and "nu=-3" in err


def test_entropy_empty_filling_is_pure(tmp_path):
    out = tmp_path / "e.csv"
    assert run([
        "entropy", "--n", "6", "--k", "3", "--alpha", "0", "--cutoff", "1",
        "--route", "all", "--output", str(out),
    ]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    assert all(float(r[4]) == 0.0 for r in rows)


def test_sweep_fig2a_and_fig3_smoke(tmp_path):
    out_a = tmp_path / "fig2a.csv"
    assert run(["sweep", "--figure", "fig2a", "--output", str(out_a)]) == 0
    lines = out_a.read_text().strip().splitlines()
    assert lines[0] == "n,k,shell,i,fill_levels,subsystem_size,entropy"
    assert len(lines) == 1 + 12 * 3  # n = 8..30 step 2, three shells each

    out_b = tmp_path / "fig3a.csv"
    assert run(["sweep", "--figure", "fig3a", "--n", "10", "--k", "5", "--output", str(out_b)]) == 0
    rows = [line.split(",") for line in out_b.read_text().strip().splitlines()[1:]]
    assert len(rows) == sum(range(1, 6))  # N < k for k = 1..5
    header = out_b.read_text().splitlines()[0].split(",")
    icut = header.index("cut_size")
    ib = header.index("boundary_size")
    for r in rows:
        assert int(r[icut]) > int(r[ib])


def test_determinism_repeated_runs(tmp_path):
    pairs = [
        ["energies", "--n", "6", "--k", "3", "--exp-hopping", "0.5"],
        ["entropy", "--n", "6", "--k", "3", "--alpha", "0,1", "--cutoff", "1", "--route", "all"],
        ["sweep", "--figure", "fig2b", "--n", "10", "--k", "5"],
        ["sweep", "--figure", "fig2b", "--n", "10", "--k", "5", "--format", "json"],
    ]
    for idx, base in enumerate(pairs):
        a = tmp_path / f"a{idx}.out"
        b = tmp_path / f"b{idx}.out"
        assert run(base + ["--output", str(a)]) == 0
        assert run(base + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_whole_grid_sweep_memory_stays_flat(tmp_path):
    # fig3b at n = 30 solves its 240 points in one pass and reads every
    # entropy off the merged arrays, so a warm sweep stays far below holding
    # every spectrum
    out = tmp_path / "fig3b.csv"
    assert run(["sweep", "--figure", "fig3b", "--output", str(out)]) == 0
    tracemalloc.start()
    try:
        assert run(["sweep", "--figure", "fig3b", "--output", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_cached_parser_keeps_no_parsed_state(capsys):
    # the parser is built once per process: a flag or option of one call
    # must not reach the next, so each output equals that of a fresh parser
    sequence = [
        ["entropy", "--n", "8", "--k", "4", "--cutoff", "1", "--bits"],
        ["entropy", "--n", "8", "--k", "4", "--cutoff", "1"],
        ["sweep", "--figure", "fig3a", "--n", "8", "--fill-levels", "2"],
        ["sweep", "--figure", "fig3a", "--n", "8"],
    ]
    cached = []
    for argv in sequence:
        assert run(argv) == 0
        cached.append(capsys.readouterr().out)
    assert _build_parser() is _build_parser()
    fresh = []
    for argv in sequence:
        _build_parser.cache_clear()
        assert run(argv) == 0
        fresh.append(capsys.readouterr().out)
    assert cached == fresh
    assert cached[0] != cached[1] and cached[2] != cached[3]


def test_verify_control_skipped_without_blocks_over_1x1(capsys):
    # every restricted T block of J(2,1) and J(3,1) is 1x1; the perturbed-mu
    # control once read 0 there and failed heun_commutant
    assert run(["verify", "--quick", "--sizes", "2:1"]) == 0
    run(["verify", "--quick", "--sizes", "3:1"])
    assert "pass heun_commutant (worst 0)" in capsys.readouterr().err.splitlines()


# n <= 10: two draws in three name a graph that exists, the third any pair
_JOHNSON = st.sampled_from([(2, 1), (4, 2), (5, 2), (6, 3), (7, 3), (8, 4), (9, 2), (10, 5)])
_GRAPH = st.one_of(_JOHNSON, _JOHNSON, st.tuples(st.integers(-1, 10), st.integers(-1, 6)))
_MODEL = {
    "--alpha": st.sampled_from(["0,1", "1", "", ",", "a", "1,,x", "nan,1", "-1,0.5,2", "1e308,1e308"]),
    "--exp-hopping": st.sampled_from(["0", "1.5", "-1", "inf", "nan"]),
    "--occupied": st.sampled_from(["0", "0,2", "1,3", "", "x", "0..", "1..3", "-2", "0,4", "2..1"]),
    "--fill-levels": st.integers(-1, 7).map(str),
    "--fill-fraction": st.sampled_from(["0", "0.5", "1", "1.5", "-0.1", "nan"]),
}
_ENTROPY = {
    "--distances": st.sampled_from(["0", "0..2", "1..2", "0,2", "", "a", "0..", "..", "5", "0,,1", "-1"]),
    "--cutoff": st.integers(-1, 6).map(str),
    "--x0": st.sampled_from(["1,2", "1..3", "x", "", "9", "2,2"]),
    "--route": st.sampled_from(["oracle", "modules", "heun", "all"]),
    "--dense-cap": st.sampled_from(["0", "10", "300"]),
}
_FLAGS = ["--include-zero-modes", "--bits", "--diagnostics"]


@st.composite
def _argv(draw):
    """An argv that argparse accepts, with values that may still be malformed.

    Values go in ``--flag=value`` form, so one like "-1,0.5" is not read as an
    option.
    """
    command = draw(st.sampled_from(["energies", "entropy", "sweep", "verify"]))
    if command == "verify":
        sizes = draw(st.sampled_from(["4:2", "2:1", "3:1", "5:2,4:2", "4", "4:9", "x:y", "4:2:1", "0:0", ""]))
        return ["verify", "--quick", f"--sizes={sizes}"]
    n, k = draw(_GRAPH)
    if command == "sweep":
        # an explicit small graph; fig2a ignores --n and runs up to n = 30
        figure = draw(st.sampled_from(["fig2b", "fig3a", "fig3b", "fig4"]))
        argv = ["sweep", "--figure", figure, f"--n={n}", f"--k={k}"]
        if draw(st.booleans()):
            argv.append(f"--fill-levels={draw(st.integers(-1, 7))}")
        return argv
    options = dict(_MODEL, **_ENTROPY) if command == "entropy" else _MODEL
    argv = [command, f"--n={n}", f"--k={k}"]
    chosen = draw(st.lists(st.sampled_from(sorted(options)), max_size=3, unique=True))
    if command == "entropy" and not {"--distances", "--cutoff"} & set(chosen):
        chosen.append(draw(st.sampled_from(["--distances", "--cutoff"])))
    for flag in chosen:
        argv.append(f"{flag}={draw(options[flag])}")
    flags = _FLAGS if command == "entropy" else _FLAGS[:1]
    return argv + draw(st.lists(st.sampled_from(flags), unique=True))


@settings(max_examples=200)
@given(_argv())
def test_argv_fuzz_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), argv
    if code in (2, 3):
        assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())


def test_warm_fig3b_sweep_solves_its_whole_grid_in_two_mib():
    # the whole 240-point grid is one batch; a warm sweep peaks near 1.4 MB,
    # and a whole-grid Python merge would take several MiB
    import argparse
    import gc

    from johnson_entanglement.cli import SWEEPS

    args = argparse.Namespace(n=30, k=15, fill_levels=None)
    SWEEPS["fig3b"](args)
    gc.collect()
    tracemalloc.start()
    try:
        SWEEPS["fig3b"](args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


@pytest.mark.parametrize("n, k, counts", [(64, 32, "int64"), (66, 33, "object")])
def test_json_spectrum_output_keeps_exact_multiplicities_both_sides_of_2_62(n, k, counts, tmp_path):
    # C(64,32) < 2^62 <= C(66,33): the table counts in int64, then in Python
    # ints, and either way every multiplicity reaches the JSON as an exact int
    from johnson_entanglement.scheme import neighborhood_size
    from johnson_entanglement.terwilliger import module_table

    spec = GraphSpec(n, k)
    assert module_table(spec).degeneracies.dtype == counts
    out, spectrum = tmp_path / "e.json", tmp_path / "s.json"
    argv = ["entropy", "--n", str(n), "--k", str(k), "--cutoff", "1", "--fill-levels", "3", "--format", "json"]
    assert run(argv + ["--output", str(out), "--spectrum-output", str(spectrum)]) == 0
    rows = json.loads(spectrum.read_text())
    assert rows and all(type(r["multiplicity"]) is int and r["multiplicity"] > 0 for r in rows)
    size = neighborhood_size(spec, 0) + neighborhood_size(spec, 1)
    assert sum(r["multiplicity"] for r in rows) == size == json.loads(out.read_text())[0]["subsystem_size"]


@pytest.mark.parametrize("n, k, fill", [(12, 6, 2), (20, 10, 3), (30, 15, 2)])
def test_fig4_stacked_chain_entropies_equal_one_solve_per_prefix(n, k, fill):
    # every prefix and last site of every chain: one eigvalsh per run length
    # against one module_correlation_block and eigvalsh per run, the terms
    # added strictly left to right
    from functools import reduce
    from operator import add

    import numpy as np

    from johnson_entanglement.cli import _chain_entropies
    from johnson_entanglement.entropy import binary_entropy
    from johnson_entanglement.spectral import clamp_unit_interval
    from johnson_entanglement.terwilliger import enumerate_modules, module_correlation_block

    spec = GraphSpec(n, k)
    filling = FillingSpec(frozenset(level_labels_x2(spec)[:fill]))
    runs = [(label, label.i_min + first, length) for label in enumerate_modules(spec)
            for first in range(label.dim) for length in range(1, label.dim - first + 1)]
    want = []
    for label, first, length in runs:
        sub = SubsystemSpec(frozenset(range(first, first + length)), default_base_vertex(spec))
        lams = clamp_unit_interval(np.linalg.eigvalsh(module_correlation_block(label, filling, sub, spec)))
        want.append(reduce(add, map(binary_entropy, lams.tolist()), 0.0))
    assert _chain_entropies(spec, filling, runs) == want


def _sweep_and_spectra(monkeypatch, argv):
    """The entropies a sweep reads off the merged arrays, and the spectra of its points from a second call."""
    calls, entropies = [], []
    spectra, figures = cli.heun_mod.spectra, cli.entropy_mod.figures

    def spy_spectra(groups, route):
        calls.append((groups, route))
        return spectra(groups, route)

    def spy_figures(spec, distances, s):
        entropies.append(s)
        return figures(spec, distances, s)

    with monkeypatch.context() as patch:
        patch.setattr(cli.heun_mod, "spectra", spy_spectra)
        patch.setattr(cli.entropy_mod, "figures", spy_figures)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == 0
    ((groups, route),) = calls
    return entropies, list(spectra(groups, route))


_ENTROPY_SWEEPS = [["sweep", "--figure", "fig2a"]]
_ENTROPY_SWEEPS += [["sweep", "--figure", "fig3a", "--n", str(n)] for n in range(2, 15)]
_ENTROPY_SWEEPS += [
    ["sweep", "--figure", fig, "--n", str(n), "--k", str(k)]
    for fig in ("fig2b", "fig3b")
    for n, k in [(n, k) for n in range(2, 15) for k in range(1, n // 2 + 1)] + [(30, 15), (66, 33)]
]


@pytest.mark.parametrize("argv", _ENTROPY_SWEEPS, ids=" ".join)
def test_sweep_entropies_equal_von_neumann_of_each_spectrum(argv, monkeypatch):
    # the batched entropies, read off the merged arrays, are float.hex-equal
    # to von_neumann of each point's spectrum and to the strict left-to-right
    # sum; J(66,33) counts its multiplicities in Python ints above 2^62
    entropies, spectra = _sweep_and_spectra(monkeypatch, argv)
    assert len(entropies) == len(spectra) > 0
    for s, spectrum in zip(entropies, spectra):
        want = functools.reduce(operator.add, (m * binary_entropy(lam) for lam, m in spectrum.entries), 0.0)
        assert s.hex() == von_neumann(spectrum).hex() == want.hex(), (argv, spectrum)
    if argv[-1] == "33":
        assert terwilliger.module_table(GraphSpec(66, 33)).degeneracies.dtype == object
        if argv[2] == "fig3b":
            assert max(spectrum.total_multiplicity for spectrum in spectra) > 2**62


def test_multi_graph_sweep_run_cold_equals_the_same_sweep_run_warm(capsys):
    # cold, every table of the call is new and fetches its columns during
    # the call; the stores are joined only after the last fetch
    for argv in (["sweep", "--figure", "fig3a", "--n", "20"], ["sweep", "--figure", "fig2a"]):
        terwilliger.module_table.cache_clear()
        assert run(argv) == 0
        cold = capsys.readouterr().out
        assert run(argv) == 0
        assert capsys.readouterr().out == cold and cold.count("\n") > 10


@pytest.mark.parametrize("shift, message", [(-1e-9, "negative entropy"), (1e6, "ln 2 mode bound")])
def test_batched_sweep_keeps_the_entropy_range_checks(shift, message, monkeypatch):
    entropies = cli.entropy_mod.entropies
    monkeypatch.setattr(cli.entropy_mod, "entropies", lambda *args: entropies(*args) * 0.0 + shift)
    with pytest.raises(ArithmeticError, match=message):
        run(["sweep", "--figure", "fig2b", "--n", "8", "--k", "4"])


def test_batched_sweep_clamps_roundoff_below_zero(monkeypatch, capsys):
    entropies = cli.entropy_mod.entropies
    monkeypatch.setattr(cli.entropy_mod, "entropies", lambda *args: entropies(*args) * 0.0 - 1e-13)
    assert run(["sweep", "--figure", "fig2b", "--n", "8", "--k", "4"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert rows and all(row[5] == "0" and row[6] == "0" for row in rows)
