"""Greedy + trading placement over numpy arrays, in numpy-scalar arithmetic.

The oracle for ``repro.schemes.placement``, whose list-based searches
must place every VC in the same banks, in the same order, with the same
bytes.
"""

import numpy as np

from repro.nuca.geometry import Placement
from repro.schemes.placement import PLACE_CHUNK, _move


def greedy_placement_reference(geometry, demands):
    bank_free = np.full(geometry.n_banks, float(geometry.bank_bytes))
    placements = {vc: Placement() for vc in demands}

    def intensity(item):
        __, (___, size, accesses) = item
        return accesses / max(size, 1.0)

    for vc, (core, size, __) in sorted(demands.items(), key=intensity, reverse=True):
        remaining = size
        for bank in geometry.closest_banks(core):
            if remaining <= 0:
                break
            take = min(remaining, bank_free[bank])
            if take > 0:
                placements[vc].add(int(bank), float(take))
                bank_free[bank] -= take
                remaining -= take
    return placements


def trading_placement_reference(geometry, demands, max_passes=3):
    placements = greedy_placement_reference(geometry, demands)
    vcs = [vc for vc, (__, size, ___) in demands.items() if size > 0]
    if len(vcs) < 2:
        return placements
    intensities = {vc: demands[vc][2] / max(demands[vc][1], 1.0) for vc in vcs}
    dist = {vc: geometry.distances(demands[vc][0]) for vc in vcs}
    for __ in range(max_passes):
        improved = False
        for ai in range(len(vcs)):
            for bi in range(ai + 1, len(vcs)):
                a, b = vcs[ai], vcs[bi]
                pa, pb = placements[a], placements[b]
                if not pa.bank_bytes or not pb.bank_bytes:
                    continue
                ia, ib = intensities[a], intensities[b]
                da, db = dist[a], dist[b]
                best_gain = 1e-9
                best_pair = None
                for i in list(pa.bank_bytes):
                    for j in list(pb.bank_bytes):
                        gain = ia * (da[i] - da[j]) + ib * (db[j] - db[i])
                        if gain > best_gain:
                            best_gain = gain
                            best_pair = (i, j)
                if best_pair is None:
                    continue
                i, j = best_pair
                unit = min(PLACE_CHUNK, pa.bank_bytes[i], pb.bank_bytes[j])
                if unit <= 0:
                    continue
                _move(pa, i, j, unit)
                _move(pb, j, i, unit)
                improved = True
        if not improved:
            break
    return placements

