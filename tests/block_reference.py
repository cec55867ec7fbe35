"""The stacked pass that solves every module block, kept as the reference for
:func:`johnson_entanglement.terwilliger.stacked_spectra`, which counts the
exact 0/1 blocks instead.

Every (point, module) block with at least one subsystem row is stacked by
size, one graph at a time, and handed to the route's readout, and all
eigenvalues are merged with their module multiplicities.
"""

import numpy as np

from johnson_entanglement.spectral import clamp_unit_interval, merged_spectra
from johnson_entanglement.terwilliger import BlockStack, size_groups


def solve_every_block(groups, readout):
    """:func:`stacked_spectra` of (table, points) groups with every nonempty block solved.

    Each graph's blocks of one size go to the readout as one stack of that
    graph alone.
    """
    values, owners, mults = [], [], []
    base = 0
    for table, configs in groups:
        dist, levels, start, sizes = table.layout(configs)
        for size, flat in size_groups(sizes.ravel()):
            pts, ms = np.divmod(flat, len(table.labels))
            rows = dist[pts[:, None], start[pts, ms][:, None] + np.arange(size)]
            c = table.blocks(ms, rows, levels[pts])
            graph = (np.full(len(ms), table.spec.n), np.full(len(ms), table.spec.k), table.j1_x2[ms], table.j2_x2[ms])
            stack = BlockStack(*graph, base + pts, rows)
            values.append(readout(stack, c).ravel())
            owners.append(np.repeat(base + pts, size))
            mults.append(np.repeat(table.degeneracies[ms], size))
        base += len(configs)
    if not values:
        return merged_spectra(np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp), base)
    return merged_spectra(
        clamp_unit_interval(np.concatenate(values)), np.concatenate(mults), np.concatenate(owners), base
    )
