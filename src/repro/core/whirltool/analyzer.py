"""WhirlTool analyzer (paper Sec 4.2).

Distance metric: for each profiling interval, the distance between two
pools is the area between their *combined* miss curve (sharing a cache,
Appendix B model) and their *partitioned* miss curve (optimal split of
the same capacity).  Cache-friendly pools barely interfere (small area);
a streaming pool combined with a cache-friendly one inflates its misses
(large area) — Fig 15.  Per-interval summation makes pools active in
disjoint phases cheap to merge, which is what lets programs with phase
behaviour use few pools.

Clustering: plain agglomerative — start with one pool per callpoint,
repeatedly merge the closest pair (re-estimating the merged pool's
curves with the combine model), record the merge tree, and cut it at the
desired pool count.

One batched engine builds the merge tree, behind two public methods:

- :meth:`WhirlToolAnalyzer.cluster_incremental` runs it on an
  :class:`IncrementalClusterCache` that persists across calls.  Every
  pool of the tree keeps its per-interval rate and hull rows, and every
  evaluated pair its per-interval distance terms, keyed by merge
  structure; a re-cluster after new intervals (sealed epochs) computes
  only the intervals each key has not seen and replays the rest.
- :meth:`WhirlToolAnalyzer.cluster` runs it on a throwaway cache.

Distances live in a condensed numpy matrix keyed by cluster index; the
initial table is one batched evaluation over all leaf pairs × active
intervals (through :func:`repro.curves.combine.combine_rate_rows` and
:func:`repro.curves.partition.partitioned_rate_rows`, with each
cluster's rate rows and hulls computed once and reused across every
pair), and each merge computes the merged cluster's row against all
survivors in a single batch.

The engine is the only clustering path: a profile of one callpoint or
none is already its own tree, and profiles whose callpoints disagree on
the interval count or the size grid are rejected.  The original serial
loop, a dict of pairwise distances from the scalar Listing-1 loop and
the serial optimal split, is the oracle ``cluster_reference`` in
``tests/oracles/whirltool.py``.  The engine is bit-identical to it from
any cache state — merge order, distances, and tie-breaks (distance,
then sorted min-callpoint) — which the property tests pin and which
keeps the Fig 17 dendrograms byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable

import numpy as np

from repro.core.whirltool.profiler import CallpointProfile
from repro.curves.combine import combine_rate_rows
from repro.curves.miss_curve import _lower_convex_hull_fast
from repro.curves.partition import partitioned_rate_rows

__all__ = [
    "IncrementalClusterCache",
    "WhirlToolAnalyzer",
    "ClusteringResult",
]


def _lane_area_terms(
    ra: np.ndarray,
    rb: np.ndarray,
    ha: np.ndarray,
    hb: np.ndarray,
    instr_c: np.ndarray,
) -> np.ndarray:
    """Per-lane combined-vs-partitioned area terms (one interval each).

    The float core every distance evaluation shares: combine model and
    optimal split scaled to misses, the MissCurve monotone/clip
    normalization, and the per-instruction area.  A cold build's
    all-interval batches and a warm re-cluster's new-interval batches
    run lanes through these exact expressions, and the kernels
    underneath are lane-independent, so a term's value does not depend
    on which batch evaluated it — the property that makes cached terms
    reusable bit-identically.
    """
    combined = combine_rate_rows(ra, rb) * instr_c[:, None]
    np.minimum.accumulate(combined, axis=1, out=combined)
    np.clip(combined, 0.0, None, out=combined)
    split = partitioned_rate_rows(ha, hb) * instr_c[:, None]
    np.minimum.accumulate(split, axis=1, out=split)
    np.clip(split, 0.0, None, out=split)
    area = np.sum(combined - split, axis=1)
    return np.maximum(area, 0.0) / np.maximum(instr_c, 1e-12)


@dataclass
class IncrementalClusterCache:
    """Merge-tree pools and pair terms carried across re-clusters.

    Every pool of a merge tree is keyed by its merge structure: a leaf
    by its callpoint id, a merged pool by the tuple of its two
    children's keys in the order the combine model read them.  Listing 1
    is only approximately associative, so ``(a+b)+c`` and ``a+(b+c)``
    are different keys with different rows.

    - ``pools[key]`` is ``(rates, hulls)``: the pool's per-interval rate
      rows and their lower convex hulls, each ``(intervals seen,
      n_chunks + 1)``.
    - ``terms[(key_a, key_b)]`` holds that pair's per-interval distance
      terms, keyed in evaluation order (the optimal split concatenates
      gains in operand order, so a flipped pair is another entry).

    Because the pool distance is a per-interval sum and sealed intervals'
    curves never change (the online epoch contract), a re-cluster after
    new intervals arrive computes only the intervals each key has not
    seen; everything else replays.  After each re-cluster the cache
    keeps only the new tree's ``2L - 1`` pools and the ``(L - 1)**2``
    pairs it evaluated, so between re-clusters it holds one tree's rows.

    The caller owns the contract that cached intervals are final: feed
    the cache profiles whose previously-seen intervals changed and the
    replayed distances are stale.  Grid changes and shrinking interval
    counts are detected and drop the cache wholesale; a callpoint first
    seen late (its earlier intervals backfilled) only adds new keys.
    """

    grid: tuple[int, int] | None = None
    pools: dict[Hashable, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )
    terms: dict[tuple, np.ndarray] = field(default_factory=dict)

    def invalidate(self) -> None:
        """Drop everything (grid change, non-incremental profile)."""
        self.grid = None
        self.pools.clear()
        self.terms.clear()

    def seen(self, key: Hashable) -> int:
        """How many leading intervals ``key``'s pool rows cover."""
        rows = self.pools.get(key)
        return 0 if rows is None else len(rows[0])

    def extend(self, key: Hashable, fresh: np.ndarray) -> None:
        """Append rate rows past :meth:`seen` to ``key``'s pool, with hulls."""
        seen = self.seen(key)
        rates = np.empty((seen + len(fresh), fresh.shape[1]))
        hulls = np.empty_like(rates)
        if seen:
            rates[:seen], hulls[:seen] = self.pools[key]
        rates[seen:] = fresh
        for t in range(seen, len(rates)):
            hulls[t] = _lower_convex_hull_fast(rates[t])
        self.pools[key] = (rates, hulls)


def _gather(
    rows: list[np.ndarray], pools: np.ndarray, intervals: np.ndarray
) -> np.ndarray:
    """``rows[pools[i]][intervals[i]]`` for every lane ``i``, stacked."""
    out = np.empty((len(pools), rows[0].shape[1]))
    for c in np.unique(pools).tolist():
        at = np.flatnonzero(pools == c)
        out[at] = rows[c][intervals[at]]
    return out


def _pool_label(names: dict[int, str], cluster) -> str:
    """Render a cluster as its '+'-joined member names.

    Sorting the *rendered* names (not the callpoint ids) keeps the label
    deterministic regardless of set iteration order or the insertion
    order of the ``names`` dict.
    """
    return "+".join(sorted(names.get(cp, str(cp)) for cp in cluster))


@dataclass
class ClusteringResult:
    """Hierarchical clustering of callpoints (Fig 17's dendrogram).

    Attributes:
        callpoints: leaf callpoint ids.
        merges: ``(cluster_a, cluster_b, distance)`` triples in merge
            order; clusters are frozensets of callpoint ids.
        names: callpoint id -> region name (reporting).
    """

    callpoints: list[int]
    merges: list[tuple[frozenset, frozenset, float]] = field(default_factory=list)
    names: dict[int, str] = field(default_factory=dict)

    def assignments(self, n_pools: int) -> dict[int, int]:
        """Callpoint -> pool index (0-based) for ``n_pools`` clusters.

        Cutting the merge tree: replay merges until ``n_pools`` clusters
        remain.  Requesting more pools than callpoints yields one pool
        per callpoint.

        The replay is index-based: live clusters are slots in a
        union-find-style table looked up by membership, so each merge
        retires exactly one slot per operand — set-equal duplicates
        (e.g. repeated leaf callpoints) survive — and the whole replay
        is linear in total membership instead of quadratic.
        """
        if n_pools < 1:
            raise ValueError(f"n_pools must be >= 1, got {n_pools}")
        slots: list[set[int] | None] = [{cp} for cp in self.callpoints]
        by_members: dict[frozenset, list[int]] = {}
        for idx, members in enumerate(slots):
            by_members.setdefault(frozenset(members), []).append(idx)
        live = len(slots)
        for a, b, __ in self.merges:
            if live <= n_pools:
                break
            retired = 0
            for operand in (frozenset(a), frozenset(b)):
                open_slots = by_members.get(operand)
                if open_slots:
                    slots[open_slots.pop(0)] = None
                    retired += 1
            merged = set(a) | set(b)
            slots.append(merged)
            by_members.setdefault(frozenset(merged), []).append(len(slots) - 1)
            live += 1 - retired
        clusters = [c for c in slots if c is not None]
        out: dict[int, int] = {}
        for idx, cluster in enumerate(sorted(clusters, key=min)):
            for cp in cluster:
                out[cp] = idx
        return out

    def dendrogram_text(self) -> str:
        """ASCII rendering of the merge tree (Fig 17 stand-in)."""
        return "\n".join(
            f"{dist:10.4g}  {_pool_label(self.names, a)}"
            f"  <->  {_pool_label(self.names, b)}"
            for a, b, dist in self.merges
        )


class WhirlToolAnalyzer:
    """Agglomerative clustering of callpoints into pools."""

    def cluster(self, profile: CallpointProfile) -> ClusteringResult:
        """Build the full merge tree for one application's profile.

        The merge-tree engine on a throwaway
        :class:`IncrementalClusterCache`: one vectorized evaluation fills
        the initial pair-distance matrix, and each merge re-evaluates a
        single batched row.  Bit-identical to the serial oracle
        (``cluster_reference`` in ``tests/oracles/whirltool.py``).

        Raises:
            ValueError: the callpoints' series differ in length, hold no
                interval, or hold curves on different size grids
                (``chunk_bytes`` or ``n_chunks``).
        """
        return self._merge_tree(profile, IncrementalClusterCache())

    def cluster_incremental(
        self, profile: CallpointProfile, cache: IncrementalClusterCache
    ) -> ClusteringResult:
        """Re-cluster a growing profile, replaying what ``cache`` holds.

        The online engine: when a profile gains intervals (sealed epochs)
        between re-clusters, every pool and pair the new merge tree shares
        with the cached one computes only its new intervals; the rest
        replays from ``cache``, which is then pruned to the new tree.

        Bit-identical to the serial oracle on the same profile — merge
        order, distances, tie-breaks — from any cache state, because
        per-lane terms are batch-composition-independent
        (:func:`_lane_area_terms`), rate and hull rows are per-interval,
        and the per-pair total accumulates in the same interval order.
        A profile of one callpoint or none drops the cache; the profiles
        :meth:`cluster` rejects raise here too.
        """
        return self._merge_tree(profile, cache)

    def _merge_tree(
        self, profile: CallpointProfile, cache: IncrementalClusterCache
    ) -> ClusteringResult:
        """The batched merge-tree builder behind both public methods.

        Distances live in a condensed numpy matrix keyed by cluster index.
        Each cluster's rate and hull rows are ``cache``'s own arrays, found
        by the cluster's merge-structure key and extended to the intervals
        the key has not seen; each distance evaluation replays the cached
        terms of its pairs and runs all their unseen active (pair,
        interval) lanes through the kernels in one batch.
        """
        order = sorted(profile.curves)
        n_leaves = len(order)
        result = ClusteringResult(callpoints=order, names=dict(profile.names))
        if n_leaves <= 1:
            # No pair to merge; the cache holds another profile's tree.
            cache.invalidate()
            return result
        series = [profile.curves[cp] for cp in order]
        n_intervals = len(series[0])
        if any(len(s) != n_intervals for s in series):
            raise ValueError("pools must share the interval grid")
        if n_intervals == 0:
            raise ValueError("profile has no intervals to cluster")
        grid = (series[0][0].chunk_bytes, series[0][0].n_chunks)
        if any((c.chunk_bytes, c.n_chunks) != grid for s in series for c in s):
            raise ValueError(
                "curves must share one size grid (chunk_bytes, n_chunks)"
            )

        if cache.grid != grid or any(
            len(rates) > n_intervals for rates, __ in cache.pools.values()
        ):
            cache.invalidate()
            cache.grid = grid

        # Per-cluster state, indexed by cluster id; merged clusters are
        # appended after the n_leaves leaves.  Miss rows are transient:
        # only the derived rates (and their hulls) feed the distance
        # kernels, so raw miss counts never persist per cluster.
        total_clusters = 2 * n_leaves - 1
        instr = np.empty((total_clusters, n_intervals))
        accesses = np.empty((total_clusters, n_intervals))
        members: list[frozenset] = [frozenset({cp}) for cp in order]
        mins = np.empty(total_clusters, dtype=np.int64)
        births = np.zeros(total_clusters, dtype=np.int64)
        keys: list = []
        rates: list[np.ndarray] = []
        hulls: list[np.ndarray] = []
        evaluated: set = set()

        def track(key: Hashable) -> None:
            """Append the next cluster, viewing its cached rows."""
            keys.append(key)
            pool_rates, pool_hulls = cache.pools[key]
            rates.append(pool_rates)
            hulls.append(pool_hulls)

        for c, (cp, s) in enumerate(zip(order, series)):
            mins[c] = cp
            instr[c] = [curve.instructions for curve in s]
            accesses[c] = [curve.accesses for curve in s]
            seen = cache.seen(cp)
            if seen < n_intervals:
                fresh = np.array([curve.misses for curve in s[seen:]])
                fresh /= np.maximum(instr[c, seen:], 1e-12)[:, None]
                cache.extend(cp, fresh)
            track(cp)

        def pair_distances(ia: np.ndarray, ib: np.ndarray) -> np.ndarray:
            """Pool distances for a batch of cluster-index pairs.

            Each pair's cached terms replay; its unseen intervals where
            both pools are active become lanes, and the whole batch's
            lanes run through the combine and partitioned-split kernels
            at once.  Per-pair totals accumulate in interval order so the
            float sums match the serial loop.
            """
            pair_keys = [(keys[a], keys[b]) for a, b in zip(ia.tolist(), ib.tolist())]
            evaluated.update(pair_keys)
            terms = np.zeros((len(pair_keys), n_intervals))
            seen = np.zeros(len(pair_keys), dtype=np.int64)
            for p, key in enumerate(pair_keys):
                got = cache.terms.get(key)
                if got is not None:
                    seen[p] = len(got)
                    terms[p, : len(got)] = got
            unseen = np.arange(n_intervals) >= seen[:, None]
            lane_p, lane_t = np.nonzero(
                unseen & (accesses[ia] > 0) & (accesses[ib] > 0)
            )
            if len(lane_p):
                la, lb = ia[lane_p], ib[lane_p]
                terms[lane_p, lane_t] = _lane_area_terms(
                    _gather(rates, la, lane_t),
                    _gather(rates, lb, lane_t),
                    _gather(hulls, la, lane_t),
                    _gather(hulls, lb, lane_t),
                    np.maximum(instr[la, lane_t], instr[lb, lane_t]),
                )
            for p in np.flatnonzero(seen < n_intervals).tolist():
                cache.terms[pair_keys[p]] = terms[p].copy()
            total = np.zeros(len(pair_keys))
            for t in range(n_intervals):
                total = total + terms[:, t]
            return total

        # Condensed distance matrix over cluster indices (inf = no pair).
        dist = np.full((total_clusters, total_clusters), np.inf)
        ii, jj = np.triu_indices(n_leaves, k=1)
        init = pair_distances(ii, jj)
        dist[ii, jj] = init
        dist[jj, ii] = init
        alive = np.zeros(total_clusters, dtype=bool)
        alive[:n_leaves] = True

        for step in range(1, n_leaves):
            live = np.flatnonzero(alive)
            sub = dist[np.ix_(live, live)]
            iu, ju = np.triu_indices(len(live), k=1)
            vals = sub[iu, ju]
            d_min = vals.min()
            # Tie-break exactly like the serial dict scan: smallest
            # (distance, sorted pair of cluster-min callpoints).
            ties = np.flatnonzero(vals == d_min)
            lo = np.minimum(mins[live[iu[ties]]], mins[live[ju[ties]]])
            hi = np.maximum(mins[live[iu[ties]]], mins[live[ju[ties]]])
            pick = ties[np.lexsort((hi, lo))[0]]
            ci, cj = live[iu[pick]], live[ju[pick]]
            # Record (a, b) in the serial table's key order: leaf pairs
            # were inserted min-first, any pair touching a merged cluster
            # was inserted when the younger cluster formed, younger first.
            if births[ci] == 0 and births[cj] == 0:
                a_id, b_id = (ci, cj) if mins[ci] < mins[cj] else (cj, ci)
            else:
                a_id, b_id = (ci, cj) if births[ci] > births[cj] else (cj, ci)
            result.merges.append(
                (members[a_id], members[b_id], float(d_min))
            )

            new = n_leaves + step - 1
            key = (keys[ci], keys[cj])
            members.append(members[ci] | members[cj])
            mins[new] = min(mins[ci], mins[cj])
            births[new] = step
            instr[new] = np.maximum(instr[ci], instr[cj])
            accesses[new] = accesses[ci] + accesses[cj]
            seen = cache.seen(key)
            if seen < n_intervals:
                # The merged pool's miss rows (combined model + the
                # MissCurve monotone/clip normalization), used only to
                # derive rates.
                fresh = combine_rate_rows(rates[ci][seen:], rates[cj][seen:])
                fresh *= instr[new, seen:, None]
                np.minimum.accumulate(fresh, axis=1, out=fresh)
                np.clip(fresh, 0.0, None, out=fresh)
                fresh /= np.maximum(instr[new, seen:], 1e-12)[:, None]
                cache.extend(key, fresh)
            track(key)
            alive[ci] = alive[cj] = False
            survivors = np.flatnonzero(alive)
            alive[new] = True
            if len(survivors):
                row = pair_distances(
                    np.full(len(survivors), new), survivors
                )
                dist[new, survivors] = row
                dist[survivors, new] = row
        # Keep only what this tree uses: its 2L - 1 pools and the pairs
        # it evaluated.
        cache.pools = {key: cache.pools[key] for key in keys}
        cache.terms = {key: cache.terms[key] for key in evaluated}
        return result
