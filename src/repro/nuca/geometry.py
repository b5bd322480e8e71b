"""Mesh geometry: banks, cores, memory controllers, and hop distances.

The LLC is a ``dim × dim`` mesh of banks.  Cores are attached to perimeter
tiles (their *entry tile*); an access from a core to a bank traverses the
X-Y route from the entry tile.  Memory controllers occupy corner entries.

The central abstraction for data placement is the *reach curve* of a core:
the average one-way hop count to the closest banks covering a given
capacity.  Jigsaw's latency model multiplies this by per-hop latency to
decide how big each VC should be (paper Sec 2.4), and the placement
algorithms consume per-bank distances directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["MeshGeometry", "Placement"]


@dataclass
class Placement:
    """Capacity assigned to a VC, per bank.

    Attributes:
        bank_bytes: mapping bank index -> bytes of that bank used.
    """

    bank_bytes: dict[int, float] = field(default_factory=dict)

    @property
    def total_bytes(self) -> float:
        """Total capacity of the placement."""
        return float(sum(self.bank_bytes.values()))

    def avg_hops(self, distances: np.ndarray) -> float:
        """Capacity-weighted average distance given per-bank distances."""
        total = self.total_bytes
        if total == 0:
            return 0.0
        return float(
            sum(b * distances[k] for k, b in self.bank_bytes.items()) / total
        )

    def add(self, bank: int, nbytes: float) -> None:
        """Add ``nbytes`` of capacity in ``bank``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be non-negative, got {nbytes}")
        self.bank_bytes[bank] = self.bank_bytes.get(bank, 0.0) + nbytes


class MeshGeometry:
    """A ``dim × dim`` NUCA bank mesh with perimeter cores and corner MCUs.

    Args:
        dim: mesh dimension (5 for the 4-core chip, 9 for 16-core).
        n_cores: number of cores, spread evenly over the four sides.
        bank_bytes: capacity of one bank.
        n_mcus: number of memory controllers (corner entry tiles).
    """

    def __init__(
        self,
        dim: int,
        n_cores: int,
        bank_bytes: int = 512 * 1024,
        n_mcus: int = 1,
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if n_cores < 1:
            raise ValueError(f"n_cores must be >= 1, got {n_cores}")
        self.dim = dim
        self.n_cores = n_cores
        self.bank_bytes = bank_bytes
        self.n_banks = dim * dim
        # Bank k is at (row, col) = divmod(k, dim).
        rows, cols = np.divmod(np.arange(self.n_banks), dim)
        self._bank_rows = rows
        self._bank_cols = cols
        self.core_entries = self._place_cores(dim, n_cores)
        if len(set(self.core_entries)) < n_cores:
            raise ValueError(
                f"{n_cores} cores do not fit on distinct perimeter tiles "
                f"of a {dim}x{dim} mesh"
            )
        corners = [(0, 0), (0, dim - 1), (dim - 1, 0), (dim - 1, dim - 1)]
        if not 1 <= n_mcus <= 4:
            raise ValueError(f"n_mcus must be in [1, 4], got {n_mcus}")
        self.mcu_entries = corners[:n_mcus]
        # Precompute per-core distances and reach prefix sums.
        self._dist = np.stack(
            [self._distances_from(entry) for entry in self.core_entries]
        )
        self._reach_order = np.argsort(self._dist, axis=1, kind="stable")
        sorted_dist = np.take_along_axis(self._dist, self._reach_order, axis=1)
        self._reach_cumdist = np.cumsum(sorted_dist, axis=1)
        self._sorted_dist = sorted_dist

    @staticmethod
    def _place_cores(dim: int, n_cores: int) -> list[tuple[int, int]]:
        """Entry tiles for cores, spread evenly around the perimeter.

        The first core is at the middle of the west side (where the paper
        runs dt in Fig 1); subsequent cores rotate around the chip.
        """
        per_side = (n_cores + 3) // 4
        # Offsets along a side, centered (e.g. dim=5, 1/side -> [2];
        # dim=9, 4/side -> [1, 3, 5, 7]).  Offsets that reach a corner,
        # which two sides share, are centered on the side's interior
        # tiles instead when it has room for them.
        offsets = MeshGeometry._side_offsets(0, dim, per_side)
        if (offsets[0] == 0 or offsets[-1] == dim - 1) and per_side <= dim - 2:
            offsets = MeshGeometry._side_offsets(1, dim - 2, per_side)
        west = [(o, 0) for o in offsets]
        north = [(0, o) for o in offsets]
        east = [(o, dim - 1) for o in offsets]
        south = [(dim - 1, o) for o in offsets]
        sides = [west, north, east, south]
        entries: list[tuple[int, int]] = []
        for i in range(n_cores):
            entries.append(sides[i % 4][i // 4])
        return entries

    @staticmethod
    def _side_offsets(first: int, length: int, per_side: int) -> list[int]:
        """``per_side`` offsets spread evenly over ``length`` tiles from ``first``."""
        if per_side == 1:
            return [first + length // 2]
        step = length // per_side
        start = (length - step * (per_side - 1) - 1) // 2
        return [first + start + i * step for i in range(per_side)]

    def _distances_from(self, entry: tuple[int, int]) -> np.ndarray:
        """Manhattan hops from an entry tile to every bank."""
        er, ec = entry
        return (
            np.abs(self._bank_rows - er) + np.abs(self._bank_cols - ec)
        ).astype(np.float64)

    # ------------------------------------------------------------------
    # Distances
    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """Aggregate LLC capacity."""
        return self.n_banks * self.bank_bytes

    def bank_position(self, bank: int) -> tuple[int, int]:
        """(row, col) of a bank index."""
        return int(self._bank_rows[bank]), int(self._bank_cols[bank])

    def distances(self, core: int) -> np.ndarray:
        """Per-bank one-way hop distances from ``core``'s entry tile."""
        return self._dist[core]

    def mem_hops(self, core: int) -> float:
        """One-way hops from ``core`` to its nearest memory controller."""
        er, ec = self.core_entries[core]
        return float(
            min(abs(er - mr) + abs(ec - mc) for mr, mc in self.mcu_entries)
        )

    def snuca_avg_hops(self, core: int) -> float:
        """Average hops when data is hashed evenly over all banks (S-NUCA)."""
        return float(self._dist[core].mean())

    # ------------------------------------------------------------------
    # Reach curves
    # ------------------------------------------------------------------
    def closest_banks(self, core: int) -> np.ndarray:
        """Bank indices sorted by distance from ``core`` (ties stable)."""
        return self._reach_order[core]

    def reach_avg_hops(self, core: int, size_bytes: float) -> float:
        """Average hops to the *closest* banks covering ``size_bytes``.

        This is the reach curve Jigsaw's latency model uses: the best-case
        access latency of a VC of a given size owned by this core.
        Size 0 returns the distance of the closest bank (a lookup still
        touches one bank unless the VC is bypassed).
        """
        if size_bytes <= 0:
            return float(self._sorted_dist[core][0])
        n_full = int(size_bytes // self.bank_bytes)
        n_full = min(n_full, self.n_banks)
        used = n_full * self.bank_bytes
        frac_bytes = min(size_bytes, self.total_bytes) - used
        dist_sum = (
            self._reach_cumdist[core][n_full - 1] * self.bank_bytes
            if n_full > 0
            else 0.0
        )
        if frac_bytes > 0 and n_full < self.n_banks:
            dist_sum += self._sorted_dist[core][n_full] * frac_bytes
        return float(dist_sum / min(size_bytes, self.total_bytes))

    def reach_curve(self, core: int, sizes_bytes) -> np.ndarray:
        """:meth:`reach_avg_hops` over a whole size grid, as one array.

        Bit-identical to ``[reach_avg_hops(core, s) for s in sizes_bytes]``:
        each element takes the scalar's IEEE operations, on the same
        operands and in the same order.  ``n_full`` is
        ``size // bank_bytes`` capped at ``n_banks``; the full banks add
        ``cumdist[n_full - 1] * bank_bytes`` (0.0 when there are none);
        the partial bank adds ``sorted_dist[n_full] * frac`` only where
        ``frac > 0`` and a bank is left; the sum is divided by the size
        capped at ``total_bytes``.  Sizes ≤ 0 take the closest bank's
        distance, and NaN or +inf sizes raise ``ValueError``, as in the
        scalar.
        """
        return self._reach_over(
            self._sorted_dist[core], self._reach_cumdist[core], sizes_bytes
        )

    def _reach_over(
        self, sorted_dist: np.ndarray, cumdist: np.ndarray, sizes_bytes
    ) -> np.ndarray:
        """The :meth:`reach_curve` formula over any sorted distance row.

        Masked-out lanes compute throwaway values from clipped indices
        and a unit divisor; ``np.where`` discards them.
        """
        sizes = np.asarray(sizes_bytes, dtype=np.float64)
        if not (sizes < np.inf).all():
            raise ValueError("reach sizes must not be NaN or +inf")
        positive = sizes > 0
        n_full = np.where(positive, sizes, 0.0) // self.bank_bytes
        n_full = np.minimum(n_full, self.n_banks).astype(np.intp)
        capped = np.where(positive, np.minimum(sizes, self.total_bytes), 1.0)
        frac = capped - n_full * self.bank_bytes
        dist_sum = np.where(
            n_full > 0, cumdist[n_full - 1] * self.bank_bytes, 0.0
        )
        partial = (frac > 0) & (n_full < self.n_banks)
        tail = sorted_dist[np.minimum(n_full, self.n_banks - 1)] * frac
        dist_sum = np.where(partial, dist_sum + tail, dist_sum)
        return np.where(positive, dist_sum / capped, sorted_dist[0])

    def reach_fn(self, core: int):
        """The reach curve as a callable ``size_bytes -> avg hops``."""
        return lambda size_bytes: self.reach_avg_hops(core, size_bytes)

    def closest_placement(self, core: int, size_bytes: float) -> Placement:
        """Greedy placement of ``size_bytes`` in the closest banks."""
        placement = Placement()
        remaining = min(size_bytes, self.total_bytes)
        for bank in self.closest_banks(core):
            if remaining <= 0:
                break
            take = min(remaining, self.bank_bytes)
            placement.add(int(bank), take)
            remaining -= take
        return placement

    @property
    def center_tile(self) -> tuple[int, int]:
        """The central mesh tile (where shared data wants to live)."""
        return (self.dim // 2, self.dim // 2)

    def distances_from_tile(self, tile: tuple[int, int]) -> np.ndarray:
        """Per-bank hop distances from an arbitrary tile."""
        return self._distances_from(tile)

    def central_placement(self, size_bytes: float) -> Placement:
        """Greedy placement of ``size_bytes`` in the most central banks.

        Used for shared (process/global) VCs accessed from all around the
        chip: the latency-minimizing home for uniformly shared data is
        the mesh center, not any one core's corner.
        """
        dist = self.distances_from_tile(self.center_tile)
        order = np.argsort(dist, kind="stable")
        placement = Placement()
        remaining = min(size_bytes, self.total_bytes)
        for bank in order:
            if remaining <= 0:
                break
            take = min(remaining, self.bank_bytes)
            placement.add(int(bank), take)
            remaining -= take
        return placement

    def central_reach_curve(
        self, sizes_bytes, accessing_cores: list[int] | None = None
    ) -> np.ndarray:
        """Reach curve of a centrally-placed shared VC, over a size grid.

        Average one-way hops from the accessing cores (default: all
        cores) to the closest-to-center banks covering each size: the
        :meth:`reach_curve` formula over the accessing cores' mean
        distance row, taken in center-distance order.
        """
        cores = accessing_cores or list(range(self.n_cores))
        dist = self.distances_from_tile(self.center_tile)
        order = np.argsort(dist, kind="stable")
        core_dist = np.mean([self._dist[c] for c in cores], axis=0)
        sorted_core_dist = core_dist[order]
        return self._reach_over(
            sorted_core_dist, np.cumsum(sorted_core_dist), sizes_bytes
        )

    def centroid_core(self, weights: dict[int, float]) -> int:
        """The core whose entry is closest to the weighted core centroid.

        Used to place shared (process/global) VCs accessed by many cores.
        """
        if not weights:
            return 0
        total = sum(weights.values())
        if total <= 0:
            return next(iter(weights))
        r = sum(self.core_entries[c][0] * w for c, w in weights.items()) / total
        c = sum(self.core_entries[cc][1] * w for cc, w in weights.items()) / total
        best = min(
            range(self.n_cores),
            key=lambda k: abs(self.core_entries[k][0] - r)
            + abs(self.core_entries[k][1] - c),
        )
        return best
