"""The stacked pass that solves every module block, kept as the reference for
:meth:`johnson_entanglement.terwilliger.ModuleTable.spectra`, which counts the
exact 0/1 blocks instead.

Every (point, module) block with at least one subsystem row is stacked by
size and handed to the route's readout, and all eigenvalues are merged with
their module multiplicities.
"""

import numpy as np

from johnson_entanglement.spectral import CorrelationSpectrum, clamp_unit_interval, group_spectra
from johnson_entanglement.terwilliger import _window, size_groups


def solve_every_block(table, points, expected, readout) -> list[CorrelationSpectrum]:
    """:meth:`ModuleTable.spectra` with every nonempty block solved."""
    if not points:
        return []
    width = table.spec.k + 1
    dist = np.zeros((len(points), width), dtype=np.intp)
    levels = np.full((len(points), width), width, dtype=np.intp)
    start = np.zeros((len(points), len(table.labels)), dtype=np.intp)
    sizes = np.zeros_like(start)
    for p, (distances, occupied) in enumerate(points):
        dist[p, : len(distances)] = distances
        levels[p, : len(occupied)] = occupied
        start[p], sizes[p] = _window(distances, table.i_min, table.i_max)
    assert list(sizes.astype(object) @ table.degeneracies) == list(expected)
    values, owners, modules = [], [], []
    for size, flat in size_groups(sizes.ravel()):
        pts, ms = np.divmod(flat, len(table.labels))
        rows = dist[pts[:, None], start[pts, ms][:, None] + np.arange(size)]
        values.append(readout(pts, ms, rows, table.blocks(ms, rows, levels[pts])).ravel())
        owners.append(np.repeat(pts, size))
        modules.append(np.repeat(ms, size))
    merged = group_spectra(
        clamp_unit_interval(np.concatenate(values)),
        table.degeneracies[np.concatenate(modules)],
        np.concatenate(owners),
        len(points),
    )
    return [CorrelationSpectrum(entries) for entries in merged]
