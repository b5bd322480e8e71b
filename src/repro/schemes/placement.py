"""Bank placement: greedy by intensity, refined by capacity trading.

Jigsaw's trading placement (paper Sec 2.4): first a greedy pass places
VCs in bank order of distance from their owner core, most *intense* VC
first (intensity = access rate / capacity: how many accesses are affected
by placing one unit of capacity).  Then a trading pass exchanges capacity
units between VCs whenever the swap reduces total data movement
(Σ intensity × hops).
"""

from __future__ import annotations

from repro.nuca.geometry import MeshGeometry, Placement

__all__ = ["greedy_placement", "trading_placement"]

#: Capacity granularity for placement/trading, bytes.
PLACE_CHUNK = 64 * 1024


def greedy_placement(
    geometry: MeshGeometry,
    demands: dict[int, tuple[int, float, float]],
) -> dict[int, Placement]:
    """Greedy intensity-ordered placement.

    Args:
        geometry: the bank mesh.
        demands: vc id -> (owner core, size_bytes, accesses).  Intensity
            is accesses / size.

    Returns:
        vc id -> :class:`Placement`.  VCs with zero size get empty
        placements.
    """
    bank_free = [float(geometry.bank_bytes)] * geometry.n_banks
    placements: dict[int, Placement] = {vc: Placement() for vc in demands}

    def intensity(item) -> float:
        __, (___, size, accesses) = item
        return accesses / max(size, 1.0)

    for vc, (core, size, __) in sorted(
        demands.items(), key=intensity, reverse=True
    ):
        remaining = size
        for bank in geometry.closest_banks(core).tolist():
            if remaining <= 0:
                break
            take = min(remaining, bank_free[bank])
            if take > 0:
                placements[vc].add(bank, float(take))
                bank_free[bank] -= take
                remaining -= take
    return placements


def trading_placement(
    geometry: MeshGeometry,
    demands: dict[int, tuple[int, float, float]],
    max_passes: int = 3,
) -> dict[int, Placement]:
    """Greedy placement followed by capacity trading (Sec 2.4).

    Capacity is quantized into :data:`PLACE_CHUNK` units.  A trade moves
    one unit of VC A from bank i to bank j and one unit of VC B from j to
    i; it is accepted when it reduces total data movement:
    ``I_A (d_A(i) - d_A(j)) + I_B (d_B(j) - d_B(i)) > 0``.

    The swap search reads distances from Python lists, not numpy arrays:
    a pair has only about 15 candidate swaps, too few to pay numpy's cost
    per call, and indexing an array boxes a numpy scalar per read.
    ``tolist()`` converts exactly and Python floats do the same IEEE
    double operations, so banks are visited in ``bank_bytes`` order, the
    first pair to beat the running best (from ``1e-9``, strict ``>``)
    wins, and the same swaps happen in the same order.
    """
    placements = greedy_placement(geometry, demands)
    vcs = [vc for vc, (__, size, ___) in demands.items() if size > 0]
    if len(vcs) < 2:
        return placements
    intensities = {
        vc: demands[vc][2] / max(demands[vc][1], 1.0) for vc in vcs
    }
    dist = {vc: geometry.distances(demands[vc][0]).tolist() for vc in vcs}

    for __ in range(max_passes):
        improved = False
        for ai in range(len(vcs)):
            for bi in range(ai + 1, len(vcs)):
                a, b = vcs[ai], vcs[bi]
                pa, pb = placements[a], placements[b]
                if not pa.bank_bytes or not pb.bank_bytes:
                    continue
                # Best single swap between a's banks and b's banks.
                ia, ib = intensities[a], intensities[b]
                da, db = dist[a], dist[b]
                banks_a = list(pa.bank_bytes)
                banks_b = list(pb.bank_bytes)
                best_gain = 1e-9
                best_pair = None
                for i in banks_a:
                    dai, dbi = da[i], db[i]
                    for j in banks_b:
                        gain = ia * (dai - da[j]) + ib * (db[j] - dbi)
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


def _move(placement: Placement, src: int, dst: int, nbytes: float) -> None:
    """Move ``nbytes`` of a placement from bank ``src`` to ``dst``."""
    placement.bank_bytes[src] -= nbytes
    if placement.bank_bytes[src] <= 1e-9:
        del placement.bank_bytes[src]
    placement.bank_bytes[dst] = placement.bank_bytes.get(dst, 0.0) + nbytes
