"""Correctness checks on job outputs and route spectra.

Job stdout is compared with the reference outputs stored under
``reference/<workload>/<job>.out``, which were written by the package as it
stood when the benchmark was defined.  Integer CSV columns must match exactly,
float columns within ``FLOAT_REL_TOL`` relative, text columns exactly; the
``verify`` report must pass with the same check names.  Route spectra are
compared with a multiplicity-aware merge, so huge multiplicities (about 6e28
at J(100,50)) are never expanded.  Only the standard library is imported at
module level.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from workloads import option

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FLOAT_REL_TOL = 1e-9
# Strictest cross-route tolerance of the package's own battery (route_agreement).
ROUTE_GAP_TOL = 1e-8
# Columns holding a cross-route gap at roundoff level: bounded, not matched.
GAP_COLUMNS = {"route_discrepancy"}
_INT = re.compile(r"^-?\d+$")


def reference_text(workload: str, job: str) -> str:
    return (REFERENCE_DIR / workload / f"{job}.out").read_text()


def compare_output(text: str, ref: str) -> str | None:
    """None when ``text`` matches the reference output ``ref``, else the first difference."""
    if ref.lstrip().startswith("{"):
        return _compare_verify(text, ref)
    return _compare_csv(text, ref)


def _compare_verify(text: str, ref: str) -> str | None:
    try:
        got = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"verify output is not JSON: {exc}"
    want = json.loads(ref)
    if got.get("passed") is not True:
        failed = [c["name"] for c in got.get("checks", []) if not c.get("passed")]
        return f"verify did not pass: {failed}"
    names = [c["name"] for c in got["checks"]]
    if names != [c["name"] for c in want["checks"]]:
        return f"verify check names differ: {names}"
    return None


def _compare_csv(text: str, ref: str) -> str | None:
    got_rows = [line.split(",") for line in text.splitlines()]
    ref_rows = [line.split(",") for line in ref.splitlines()]
    if len(got_rows) != len(ref_rows):
        return f"{len(got_rows)} lines, reference has {len(ref_rows)}"
    if not ref_rows or got_rows[0] != ref_rows[0]:
        return f"header differs: {got_rows[:1]}"
    header = ref_rows[0]
    int_cols = {
        c for c, name in enumerate(header) if all(_INT.match(row[c]) for row in ref_rows[1:])
    }
    for line, (got, want) in enumerate(zip(got_rows[1:], ref_rows[1:]), start=2):
        if len(got) != len(header):
            return f"line {line}: {len(got)} fields"
        for c, name in enumerate(header):
            if not _field_matches(name, c in int_cols, got[c], want[c]):
                return f"line {line} column {name}: {got[c]} vs reference {want[c]}"
    return None


def _field_matches(name: str, is_int: bool, got: str, want: str) -> bool:
    try:
        if name in GAP_COLUMNS:
            return 0.0 <= float(got) <= ROUTE_GAP_TOL
        if is_int:
            return int(got) == int(want)
        w = float(want)
    except ValueError:
        return got == want
    try:
        return math.isclose(float(got), w, rel_tol=FLOAT_REL_TOL, abs_tol=0.0)
    except ValueError:
        return False


def spectrum_gap(a, b) -> float:
    """Largest |lambda_a - lambda_b| between two spectra expanded by multiplicity.

    ``a`` and ``b`` are (lambda, multiplicity) pairs.  Both are sorted and
    walked by cumulative multiplicity, so the cost is linear in the number of
    distinct values.  A total-multiplicity mismatch gives ``inf``.
    """
    a, b = sorted(a), sorted(b)
    if sum(m for _, m in a) != sum(m for _, m in b):
        return math.inf
    worst = 0.0
    ia = ib = 0
    left_a = a[0][1] if a else 0
    left_b = b[0][1] if b else 0
    while ia < len(a) and ib < len(b):
        worst = max(worst, abs(a[ia][0] - b[ib][0]))
        step = min(left_a, left_b)
        left_a -= step
        left_b -= step
        if left_a == 0:
            ia += 1
            left_a = a[ia][1] if ia < len(a) else 0
        if left_b == 0:
            ib += 1
            left_b = b[ib][1] if ib < len(b) else 0
    return worst


def route_configs(jobs) -> dict[tuple, dict]:
    """Entropy jobs grouped by configuration, with the union of their routes."""
    configs: dict[tuple, dict] = {}
    for _, argv in jobs:
        if argv[0] != "entropy":
            continue
        key = tuple(option(argv, f) for f in ("--n", "--k", "--cutoff", "--fill-levels"))
        route = option(argv, "--route")
        routes = ["oracle", "modules", "heun"] if route == "all" else [route]
        entry = configs.setdefault(key, {"x0": option(argv, "--x0"), "routes": []})
        entry["routes"] += [r for r in routes if r not in entry["routes"]]
    return configs


def route_spectra(key: tuple, x0: str, routes) -> tuple[int, dict]:
    """Subsystem size and each route's spectrum, through the public library API."""
    from johnson_entanglement import heun, scheme, spectral, terwilliger

    n, k, cutoff, fill_levels = key
    spec = scheme.GraphSpec(int(n), int(k))
    labels = spectral.level_labels_x2(spec)
    if fill_levels is None:
        table = spectral.energy_table(spec, spectral.HoppingProfile((0.0, 1.0)))
        filling = spectral.fill_ground_state(table)
    else:
        filling = spectral.FillingSpec(frozenset(labels[: int(fill_levels)]))
    distances = range(int(cutoff) + 1)
    base = scheme.vertex_from_subset(map(int, x0.split(",")), spec)
    sub = spectral.SubsystemSpec(frozenset(distances), base)
    size = sum(scheme.neighborhood_size(spec, i) for i in distances)
    spectra = {}
    for route in routes:
        if route == "oracle":
            c = spectral.chopped_correlation_oracle(spec, filling, sub)
            spectra[route] = spectral.spectrum_oracle(c).entries
        elif route == "modules":
            spectra[route] = terwilliger.assemble_spectrum(spec, filling, sub).entries
        else:
            hs = heun.heun_spec(spec, int(cutoff), max(filling.occupied))
            spectra[route] = heun.spectrum_via_heun(spec, hs).entries
    return size, spectra


def check_routes(size: int, spectra: dict) -> tuple[float, list[str]]:
    """Worst cross-route gap and the failures: multiplicity totals, then gaps."""
    problems = [
        f"{route}: total multiplicity {sum(m for _, m in entries)} != subsystem size {size}"
        for route, entries in spectra.items()
        if sum(m for _, m in entries) != size
    ]
    names = sorted(spectra)
    gap = 0.0
    for i, r1 in enumerate(names):
        for r2 in names[i + 1 :]:
            g = spectrum_gap(spectra[r1], spectra[r2])
            gap = max(gap, g)
            if not g <= ROUTE_GAP_TOL:
                problems.append(f"{r1} vs {r2}: gap {g:g} over {ROUTE_GAP_TOL:g}")
    return gap, problems


def corrupt(ref: str) -> str:
    """A reference output with one check-relevant field changed."""
    if ref.lstrip().startswith("{"):
        return ref.replace('"passed": true', '"passed": false', 1)
    lines = ref.splitlines()
    # bump the first digit of the last matched float field on the first data row
    header, row = lines[0].split(","), lines[1].split(",")
    c = max(
        i
        for i, tok in enumerate(row)
        if header[i] not in GAP_COLUMNS and not _INT.match(tok) and _is_number(tok)
    )
    row[c] = _bump_digit(row[c])
    return "\n".join([lines[0], ",".join(row)] + lines[2:]) + "\n"


def negative_control(workload: str, jobs) -> list[str]:
    """Corrupted outputs and spectra must be caught; returns what was missed."""
    missed = []
    for name, _ in jobs:
        ref = reference_text(workload, name)
        if compare_output(ref, ref) is not None or compare_output(corrupt(ref), ref) is None:
            missed.append(f"{name}: corrupted output not detected")
    spectrum = [(0.25, 3), (0.5, 2)]
    if check_routes(5, {"a": spectrum, "b": [(0.25, 3), (0.5 + 1e-6, 2)]})[1] == []:
        missed.append("perturbed spectrum not detected")
    if check_routes(6, {"a": spectrum})[1] == []:
        missed.append("multiplicity mismatch not detected")
    return missed


def _is_number(tok: str) -> bool:
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _bump_digit(tok: str) -> str:
    pos = next(i for i, ch in enumerate(tok) if ch in "123456789")
    return tok[:pos] + str(int(tok[pos]) % 9 + 1) + tok[pos + 1 :]
