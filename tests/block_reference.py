"""The stacked pass that solves every module block, kept as the reference for
:meth:`johnson_entanglement.terwilliger.ModuleTable.spectra`, which counts the
exact 0/1 blocks instead.

Every (point, module) block with at least one subsystem row is stacked by
size and handed to the route's readout, and all eigenvalues are merged with
their module multiplicities.
"""

import numpy as np

from johnson_entanglement.spectral import CorrelationSpectrum, clamp_unit_interval, group_spectra
from johnson_entanglement.terwilliger import size_groups


def solve_every_block(table, configs, readout) -> list[CorrelationSpectrum]:
    """:meth:`ModuleTable.spectra` with every nonempty block solved."""
    if not configs:
        return []
    dist, levels, start, sizes = table.layout(configs)
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
        len(configs),
    )
    return [CorrelationSpectrum(entries) for entries in merged]
