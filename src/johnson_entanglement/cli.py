"""Command-line front end: energy tables, entropy runs, figure sweeps and the
verification battery.  Every spectrum but fig4's comes through the one route
dispatch, :func:`.heun.spectra`; fig4's ``_chain_entropies`` diagonalizes
single chains itself, without module weights, by design.  Each fig2a-fig3b
sweep is a list of (graph, points) batches on one route that ``_grid_sweep``
solves in one call, reading every point's entropy off the merged arrays.

Exit codes: 0 success, 1 verification or cross-route agreement failure,
2 invalid configuration, 3 dense-capacity overflow or a failed allocation.
Output is deterministic: fixed orderings, floats at 12 significant digits, no
timestamps.  Doubled half-integer labels appear in ``*_x2`` columns next to a
decimal column.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import entropy as entropy_mod
from . import heun as heun_mod
from . import spectral, terwilliger, verify
from .scheme import CapacityError, ConfigError, GraphSpec, default_base_vertex, vertex_from_subset
from .spectral import FillingSpec, HoppingProfile, SubsystemSpec

__all__ = ["ConfigError", "main"]

ROUTE_AGREEMENT_TOL = 1e-6


# ---------------------------------------------------------------- parsing

def _parse_int_set(text: str, valid: range, error: str) -> set[int]:
    """Accept "0,2,5" or an inclusive range "0..4" of values in ``valid``.

    A range's endpoints are checked before it is built, so a huge one costs nothing.
    """
    text = text.strip()
    try:
        if ".." in text:
            lo, hi = (int(v) for v in text.split("..", 1))
            values = set(range(lo, hi + 1)) if lo > hi or (lo in valid and hi in valid) else {lo, hi}
        else:
            values = {int(tok) for tok in text.split(",") if tok != ""}
    except ValueError:
        raise ConfigError(f"expected integers like 0,2,5 or 0..4, got {text!r}") from None
    if not all(v in valid for v in values):
        raise ConfigError(error)
    return values


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok != "")
    except ValueError:
        raise ConfigError(f"expected numbers like 0,1, got {text!r}") from None


def _parse_sizes(text: str) -> tuple[tuple[int, int], ...]:
    """Accept "4:2,6:3"; each pair must name a Johnson graph."""
    out = []
    for tok in text.split(","):
        try:
            n, k = (int(v) for v in tok.split(":"))
            spec = GraphSpec(n, k)
        except ValueError:
            raise ConfigError(f"graph size {tok!r} is not n:k with 1 <= k <= n/2") from None
        out.append((spec.n, spec.k))
    return tuple(out)


def _graph_spec(args) -> GraphSpec:
    try:
        return GraphSpec(args.n, args.k)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _hopping(args, spec: GraphSpec) -> tuple[HoppingProfile, float | None]:
    c = args.exp_hopping
    if c is not None:
        if c < 0:
            raise ConfigError("exponential hopping constant must be nonnegative")
        # alpha_0 = 1 even for c = inf, where -c * 0 would be nan
        alphas = (1.0,) + tuple(math.exp(-c * i) for i in range(1, spec.k + 1))
    else:
        alphas = _parse_float_list(args.alpha)
        if len(alphas) > spec.k + 1:
            raise ConfigError(f"{len(alphas)} hopping amplitudes for diameter {spec.k}")
    try:
        return HoppingProfile(alphas), c
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _energy_table(args, spec: GraphSpec):
    hop, c = _hopping(args, spec)
    try:
        if c is not None:
            return spectral.energy_exponential(spec, c)
        return spectral.energy_table(spec, hop)
    except OverflowError:
        raise ConfigError("hopping amplitudes too large: level energies overflow a float") from None


def _filling(args, spec: GraphSpec, table) -> FillingSpec:
    labels = spectral.level_labels_x2(spec)
    options = {"--occupied": args.occupied, "--fill-levels": args.fill_levels, "--fill-fraction": args.fill_fraction}
    chosen = [name for name, val in options.items() if val is not None]
    if len(chosen) > 1:
        raise ConfigError(f"choose one of {', '.join(chosen)}")
    if args.occupied is not None:
        valid = range(labels[0], labels[-1] + 1, 2)
        occ = _parse_int_set(args.occupied, valid, f"occupied doubled labels must lie in {labels}")
        return FillingSpec(frozenset(occ))
    if args.fill_levels is not None:
        return _lowest_levels(spec, args.fill_levels)
    if args.fill_fraction is not None:
        if not 0.0 <= args.fill_fraction <= 1.0:
            raise ConfigError("fill fraction must lie in [0, 1]")
        m = min(spec.k + 1, max(0, round(args.fill_fraction * (spec.k + 1))))
        return FillingSpec(frozenset(labels[:m]))
    return spectral.fill_ground_state(table, include_zero_modes=args.include_zero_modes)


def _lowest_levels(spec: GraphSpec, fill: int) -> FillingSpec:
    """The ``fill`` lowest levels counted by j label; a count outside 0..k+1 is a configuration error."""
    if not 0 <= fill <= spec.k + 1:
        raise ConfigError(f"fill level count {fill} outside 0..{spec.k + 1}")
    return FillingSpec(frozenset(spectral.level_labels_x2(spec)[:fill]))


def _default_fill(args, spec: GraphSpec) -> int:
    """A sweep's ``--fill-levels``, else one tenth of the k + 1 levels, at least 1."""
    return args.fill_levels if args.fill_levels is not None else max(1, math.ceil((spec.k + 1) / 10))


def _subsystem(args, spec: GraphSpec) -> SubsystemSpec:
    has_d = args.distances is not None
    has_c = args.cutoff is not None
    if has_d == has_c:
        raise ConfigError("give exactly one of --distances or --cutoff")
    if has_c:
        if not 0 <= args.cutoff <= spec.k:
            raise ConfigError(f"cutoff {args.cutoff} outside 0..{spec.k}")
        distances = set(range(args.cutoff + 1))
    else:
        error = f"distances must be a nonempty subset of 0..{spec.k}"
        distances = _parse_int_set(args.distances, range(spec.k + 1), error)
        if not distances:
            raise ConfigError(error)
    if args.x0 is not None:
        try:
            elements = _parse_int_set(args.x0, range(1, spec.n + 1), f"base vertex elements must lie in 1..{spec.n}")
            x0 = vertex_from_subset(elements, spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    else:
        x0 = default_base_vertex(spec)
    return SubsystemSpec(frozenset(distances), x0)


# ---------------------------------------------------------------- output

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}" if value else "0"
    return str(value)


def _json_ready(value):
    """A float rounded to 12 digits, or None for a non-finite one, which strict JSON cannot hold."""
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return float(f"{value:.12g}") if value else 0.0
    return value


def _emit(fieldnames, rows, fmt: str, path: str | None) -> None:
    if fmt == "csv":
        lines = [",".join(fieldnames)]
        lines.extend(",".join(_fmt(row[f]) for f in fieldnames) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = [{f: _json_ready(row[f]) for f in fieldnames} for row in rows]
        text = json.dumps(payload, indent=2) + "\n"
    _write_text(text, path)


def _write_text(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc.strerror}") from None


# ---------------------------------------------------------------- commands

def cmd_energies(args) -> int:
    spec = _graph_spec(args)
    table = _energy_table(args, spec)
    filled = _filling(args, spec, table).occupied
    rows = [
        {"n": spec.n, "k": spec.k, **asdict(level), "j": _fmt(level.j_x2 / 2.0), "occupied": int(level.j_x2 in filled)}
        for level in table.rows
    ]
    fields = ["n", "k", "j_x2", "j", "theta", "omega", "degeneracy", "occupied"]
    _emit(fields, rows, args.format, args.output)
    return 0


def cmd_entropy(args) -> int:
    spec = _graph_spec(args)
    table = _energy_table(args, spec)
    filling = _filling(args, spec, table)
    sub = _subsystem(args, spec)
    routes = list(heun_mod.ROUTES) if args.route == "all" else [args.route]
    spectra = {r: next(heun_mod.spectra([(spec, [(filling, sub)])], r, args.dense_cap)) for r in routes}

    pairs = itertools.combinations(routes, 2)
    discrepancy = max((verify.spectra_max_diff(spectra[a], spectra[b]) for a, b in pairs), default=0.0)

    unit = "bits" if args.bits else "nats"
    scale = 1.0 / entropy_mod.LN2 if args.bits else 1.0
    rows = [
        {
            **_report_row(spec, entropy_mod.figures(spec, sub.distances, entropy_mod.von_neumann(spectra[r])), scale),
            "route": r,
            "unit": unit,
            "route_discrepancy": discrepancy,
        }
        for r in routes
    ]
    fields = [
        "n", "k", "route", "unit", "entropy", "subsystem_size",
        "boundary_size", "ratio_subsystem", "ratio_boundary", "route_discrepancy",
    ]
    _emit(fields, rows, args.format, args.output)
    if args.diagnostics:
        print(_diagnostics_line(spec, filling, sub), file=sys.stderr)
    if args.spectrum_output:
        srows = [{"route": r, "lambda": lam, "multiplicity": mult} for r in routes for lam, mult in spectra[r].entries]
        _emit(["route", "lambda", "multiplicity"], srows, args.format, args.spectrum_output)
    if discrepancy > ROUTE_AGREEMENT_TOL:
        print(f"route disagreement {discrepancy:g} over {ROUTE_AGREEMENT_TOL:g}", file=sys.stderr)
        return 1
    return 0


def _diagnostics_line(spec, filling, sub) -> str:
    planned = heun_mod.plan(spec, filling, sub)
    if isinstance(planned, heun_mod.HeunSpec):
        return f"heun weights: mu={_fmt(planned.mu)} nu={_fmt(planned.nu)}"
    reason = f": {planned}" if isinstance(planned, str) else ""
    return "heun weights undefined for this configuration" + reason


def _report_row(spec: GraphSpec, figures: tuple, scale: float = 1.0) -> dict:
    """The graph and the :func:`.entropy.figures` of a point by column name, entropies times ``scale``.

    ``entropy_per_site`` is another name for ``ratio_subsystem``.
    """
    entropy, size, boundary, cut, per_site, ratio_boundary, ratio_cut = figures
    per_site *= scale
    return {
        "n": spec.n,
        "k": spec.k,
        "entropy": entropy * scale,
        "subsystem_size": size,
        "boundary_size": boundary,
        "cut_size": cut,
        "ratio_subsystem": per_site,
        "ratio_boundary": ratio_boundary * scale,
        "ratio_cut": ratio_cut * scale,
        "entropy_per_site": per_site,
    }


# ---------------------------------------------------------------- sweeps

def _grid_sweep(fields, route, grid, args) -> tuple[list[str], list[dict]]:
    """Rows of the (graph, points) batches of ``grid(args)``, all solved along ``route`` in one call.

    A point (fill, distances, echo) is the lowest ``fill`` levels and the
    distances from the default base vertex; its row echoes ``echo`` and the fill.
    Each distinct filling and subsystem is built once.  The entropies come
    straight off the merged arrays, one :func:`.entropy.entropies` call, and
    each row from :func:`.entropy.figures`, with its range checks.
    """
    batches = []
    for spec, points in grid(args):
        x0 = default_base_vertex(spec)
        fillings = {fill: _lowest_levels(spec, fill) for fill in {fill for fill, _, _ in points}}
        subs = {d: SubsystemSpec(frozenset(d), x0) for d in {d for _, d, _ in points}}
        batches.append((spec, [(fillings[fill], subs[d]) for fill, d, _ in points], points))
    merged = heun_mod.spectra([(spec, configs) for spec, configs, _ in batches], route)
    entropies = iter(entropy_mod.entropies(merged.values, merged.mults, merged.edges).tolist())
    rows = []
    for spec, configs, points in batches:
        for (_, sub), (fill, _, echo), s in zip(configs, points, entropies):
            row = {**_report_row(spec, entropy_mod.figures(spec, sub.distances, s)), **echo, "fill_levels": fill}
            rows.append({f: row[f] for f in fields})
    return fields, rows


def _fig2a(args):
    """Single-shell entropies at shells near k/2, k/4, k/8 versus n (k = n/2)."""
    for n in range(8, 31, 2):
        spec = GraphSpec(n, n // 2)
        fill = _default_fill(args, spec)
        shells = {f"k/{d}": spec.k // d for d in (2, 4, 8)}
        yield spec, [(fill, range(i, i + 1), {"shell": name, "i": i}) for name, i in shells.items()]


def _every_fill(args, spec: GraphSpec) -> range:
    """Every bottom-run fill count 1..k + 1, for a sweep that refuses ``--fill-levels``."""
    if args.fill_levels is not None:
        raise ConfigError(f"--figure {args.figure} sweeps every filling and takes no --fill-levels")
    return range(1, spec.k + 2)


def _fig2b(args):
    """Entropy per site of every single shell, for every bottom-run filling."""
    spec = _graph_spec(args)
    fills = _every_fill(args, spec)
    yield spec, [(fill, range(i, i + 1), {"i": i}) for i in range(spec.k + 1) for fill in fills]


def _ball(fill: int, n_cut: int) -> tuple:
    """The ball 0..N under ``fill`` levels, echoing N.

    Its cut is its outermost shell and the complement's first; the entropy's
    ratio to the whole cut peaks when subsystem and complement are both large.
    """
    return fill, range(n_cut + 1), {"cutoff": n_cut}


def _fig3a(args):
    """Cut-boundary ratio over graph diameter k and ball radius N."""
    for k in range(1, args.n // 2 + 1):
        spec = GraphSpec(args.n, k)
        yield spec, [_ball(_default_fill(args, spec), n_cut) for n_cut in range(k)]


def _fig3b(args):
    """Cut-boundary ratio over filling depth and ball radius at fixed (n, k)."""
    spec = _graph_spec(args)
    yield spec, [_ball(fill, n_cut) for fill in _every_fill(args, spec) for n_cut in range(spec.k)]


def sweep_fig4(args):
    """Per-chain prefix entropies against the prefix's outermost single site.

    Follows two chains of J(30, 15) by default: the doubled spin pairs
    (13, 15) and (15, 15).  Each module is one chain with unit multiplicity,
    so entropies here are not weighted by module degeneracy.
    """
    spec = _graph_spec(args)
    fill = _default_fill(args, spec)
    filling = _lowest_levels(spec, fill)
    wanted = {(spec.k - 2, spec.k), (spec.k, spec.k)}
    chains = [label for label in terwilliger.enumerate_modules(spec) if (label.j1_x2, label.j2_x2) in wanted]
    # each chain's prefixes i_min..last, then each prefix's last site alone
    runs = [(label, label.i_min, prefix) for label in chains for prefix in range(1, label.dim)]
    runs += [(label, label.i_min + prefix - 1, 1) for label, _, prefix in runs]
    entropies = _chain_entropies(spec, filling, runs)
    half = len(runs) // 2
    rows = [
        {
            "n": spec.n,
            "k": spec.k,
            "j1_x2": label.j1_x2,
            "j2_x2": label.j2_x2,
            "chain_length": label.dim,
            "prefix_length": prefix,
            "fill_levels": fill,
            "entropy_prefix": prefix_entropy,
            "entropy_boundary_site": site_entropy,
        }
        for (label, _, prefix), prefix_entropy, site_entropy in zip(runs, entropies[:half], entropies[half:])
    ]
    return [
        "n", "k", "j1_x2", "j2_x2", "chain_length", "prefix_length",
        "fill_levels", "entropy_prefix", "entropy_boundary_site",
    ], rows


def _chain_entropies(spec: GraphSpec, filling: FillingSpec, runs) -> list[float]:
    """Entropy of each chain run (label, first distance, length), without module weights.

    Runs of equal length are stacked and solved by one ``eigvalsh``; each
    run's entropy is one run of :func:`.entropy.entropies` at unit
    multiplicities, its terms added strictly left to right, by ascending
    eigenvalue.
    """
    table = terwilliger.module_table(spec)
    occupied = table.level_index(sorted(filling.occupied))
    entropies = np.zeros(len(runs))
    ms = np.array([table.row[label] for label, _, _ in runs])
    firsts = np.array([first for _, first, _ in runs])
    for length, at in terwilliger.size_groups(np.array([length for _, _, length in runs])):
        rows = firsts[at, None] + np.arange(length)
        c = table.blocks(ms[at], rows, np.broadcast_to(occupied, (len(at), len(occupied))))
        lams = spectral.clamp_unit_interval(np.linalg.eigvalsh(c)).ravel()
        entropies[at] = entropy_mod.entropies(lams, np.ones(len(lams)), np.arange(0, len(lams) + 1, length))
    return entropies.tolist()


FIG3_FIELDS = [
    "n", "k", "cutoff", "fill_levels", "subsystem_size",
    "boundary_size", "cut_size", "entropy", "ratio_boundary", "ratio_cut",
]
# figure -> function of the parsed arguments giving (field names, rows)
SWEEPS = {
    "fig2a": functools.partial(
        _grid_sweep, ["n", "k", "shell", "i", "fill_levels", "subsystem_size", "entropy"], "modules", _fig2a
    ),
    "fig2b": functools.partial(
        _grid_sweep, ["n", "k", "i", "fill_levels", "subsystem_size", "entropy", "entropy_per_site"], "modules", _fig2b
    ),
    "fig3a": functools.partial(_grid_sweep, FIG3_FIELDS, "heun", _fig3a),
    "fig3b": functools.partial(_grid_sweep, FIG3_FIELDS, "heun", _fig3b),
    "fig4": sweep_fig4,
}


def cmd_sweep(args) -> int:
    fields, rows = SWEEPS[args.figure](args)
    _emit(fields, rows, args.format, args.output)
    return 0


def cmd_verify(args) -> int:
    sizes = _parse_sizes(args.sizes) if args.sizes is not None else None
    results = verify.run_battery(sizes=sizes, quick=args.quick, cap=args.dense_cap)
    payload = {
        "passed": all(r.passed for r in results),
        "checks": [
            {**asdict(r), "worst": _json_ready(r.worst)} for r in results
        ],
    }
    _write_text(json.dumps(payload, indent=2) + "\n", args.output)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status:4s} {r.name} (worst {r.worst:.3g})", file=sys.stderr)
    return 0 if payload["passed"] else 1


# ---------------------------------------------------------------- parser

def _add_common(p, dense_cap: bool = False):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default=None, help="output path; default stdout")
    if dense_cap:  # only the commands that build a dense object take the cap
        p.add_argument("--dense-cap", type=int, default=None, help="override the dense-matrix cap")


def _add_model(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--alpha", default="0,1", help="hopping amplitudes by distance, e.g. 0,1")
    p.add_argument("--exp-hopping", type=float, default=None, help="alpha_i = exp(-c i)")
    p.add_argument("--occupied", default=None, help="explicit doubled j labels, e.g. 0,2")
    p.add_argument("--fill-levels", type=int, default=None, help="occupy the lowest M levels")
    p.add_argument("--fill-fraction", type=float, default=None, help="occupy round(f (k+1)) lowest levels")
    p.add_argument("--include-zero-modes", action="store_true", help="treat zero-energy levels as occupied")


@functools.cache
def _build_parser():
    """The argument parser, built once per process; parsing leaves it unchanged."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="je",
        description="Free-fermion entanglement on Johnson graphs via three cross-checking routes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energies", help="per-level energy table and the occupied set")
    _add_model(p)
    _add_common(p)
    p.set_defaults(handler=cmd_energies)

    p = sub.add_parser("entropy", help="entanglement entropy of a neighborhood bundle")
    _add_model(p)
    p.add_argument("--distances", default=None, help='distance set, e.g. "0,2" or "0..3"')
    p.add_argument("--cutoff", type=int, default=None, help="ball of distances 0..N")
    p.add_argument("--x0", default=None, help="base vertex as a comma list, default {1..k}")
    p.add_argument("--route", choices=("oracle", "modules", "heun", "all"), default="modules")
    p.add_argument("--bits", action="store_true", help="display in bits instead of nats")
    p.add_argument("--spectrum-output", default=None, help="also write (lambda, multiplicity) rows here")
    p.add_argument("--diagnostics", action="store_true", help="print the T-operator weights to stderr")
    _add_common(p, dense_cap=True)
    p.set_defaults(handler=cmd_entropy)

    p = sub.add_parser("sweep", help="figure-reproduction grids as CSV/JSON")
    p.add_argument("--figure", required=True, choices=sorted(SWEEPS))
    p.add_argument("--n", type=int, default=30)
    p.add_argument("--k", type=int, default=15)
    p.add_argument("--fill-levels", type=int, default=None, help="override the default level count")
    _add_common(p)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("verify", help="run the cross-checking battery")
    p.add_argument("--quick", action="store_true", help="fast subset only")
    p.add_argument("--sizes", default=None, help='graphs to test, e.g. "4:2,6:3,8:4"')
    _add_common(p, dense_cap=True)
    p.set_defaults(handler=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (CapacityError, MemoryError) as exc:
        print(f"capacity error: {exc or 'out of memory'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
