"""Region attribution: allocation ranges -> Whirlpool regions."""

import numpy as np
import pytest

from repro.ingest.attribute import FALLBACK_NAME, AttributionTable
from repro.mem.allocator import Allocation, HeapAllocator, allocation_ranges


def alloc(base, size, callpoint):
    return Allocation(base=base, size=size, pool=-1, callpoint=callpoint)


class TestAllocationRanges:
    def test_sorted_disjoint(self):
        starts, ends, cps = allocation_ranges(
            [alloc(0x2000, 0x100, 7), alloc(0x1000, 0x100, 5)]
        )
        assert starts.tolist() == [0x1000, 0x2000]
        assert ends.tolist() == [0x1100, 0x2100]
        assert cps.tolist() == [5, 7]

    def test_overlap_raises(self):
        # The satellite contract: overlapping live allocations are a
        # corrupt log, not a last-writer-wins tie.
        with pytest.raises(ValueError, match="overlap"):
            allocation_ranges(
                [alloc(0x1000, 0x200, 1), alloc(0x1100, 0x100, 2)]
            )

    def test_adjacent_ranges_ok(self):
        starts, _, _ = allocation_ranges(
            [alloc(0x1000, 0x100, 1), alloc(0x1100, 0x100, 2)]
        )
        assert len(starts) == 2

    def test_empty(self):
        starts, ends, cps = allocation_ranges([])
        assert len(starts) == len(ends) == len(cps) == 0

    def test_heap_allocations_never_overlap(self):
        heap = HeapAllocator()
        pool = heap.pool_create()
        for i in range(50):
            heap.pool_malloc(64 + i * 100, pool, callpoint=i)
        starts, _, _ = allocation_ranges(heap.live_allocations)
        assert len(starts) == 50


class TestAttributionTable:
    def make(self):
        return AttributionTable.from_allocations(
            [alloc(0x1000, 0x100, 11), alloc(0x3000, 0x80, 22)],
            names={11: "graph", 22: "index"},
        )

    def test_attribute_hits_and_fallback(self):
        table = self.make()
        got = table.attribute(
            np.array([0x1000, 0x10FF, 0x1100, 0x3000, 0x307F, 0x3080, 0x0])
        )
        fb = table.fallback_region
        assert got.tolist() == [11, 11, fb, 22, 22, fb, fb]

    def test_fallback_named_heap(self):
        table = self.make()
        assert table.region_names[table.fallback_region] == FALLBACK_NAME

    def test_fallback_never_shadows_a_region(self):
        table = self.make()
        assert table.fallback_region not in (11, 22)

    def test_matches_naive_lookup(self):
        rng = np.random.default_rng(0)
        allocs = [alloc(0x1000 + i * 0x1000, 0x400, 100 + i) for i in range(8)]
        table = AttributionTable.from_allocations(allocs)
        addrs = rng.integers(0, 0xA000, 2000)
        got = table.attribute(addrs)
        for a, r in zip(addrs.tolist(), got.tolist()):
            want = table.fallback_region
            for al in allocs:
                if al.base <= a < al.end:
                    want = al.callpoint
            assert r == want

    def test_from_heap(self):
        heap = HeapAllocator()
        a = heap.pool_malloc(1 << 14, heap.pool_create(), callpoint=9)
        table = AttributionTable.from_heap(heap)
        assert table.attribute(np.array([a.base]))[0] == 9

    def test_log_round_trip(self, tmp_path):
        table = self.make()
        path = tmp_path / "allocs.jsonl"
        table.to_log(path)
        back = AttributionTable.from_log(path)
        assert back.starts.tolist() == table.starts.tolist()
        assert back.ends.tolist() == table.ends.tolist()
        assert back.regions.tolist() == table.regions.tolist()
        assert back.fallback_region == table.fallback_region
        assert back.region_names == table.region_names

    def test_log_overlap_raises(self, tmp_path):
        path = tmp_path / "allocs.jsonl"
        path.write_text(
            '{"base": 4096, "size": 512, "region": 1}\n'
            '{"base": 4352, "size": 512, "region": 2}\n'
        )
        with pytest.raises(ValueError, match="overlap"):
            AttributionTable.from_log(path)

    def test_log_bad_line_raises(self, tmp_path):
        path = tmp_path / "allocs.jsonl"
        path.write_text('{"base": 4096}\n')
        with pytest.raises(ValueError, match="base/size/region"):
            AttributionTable.from_log(path)

    def test_invalid_table_shapes_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            AttributionTable(
                starts=np.array([0, 100]),
                ends=np.array([150, 200]),
                regions=np.array([1, 2]),
            )
        with pytest.raises(ValueError, match="end > start"):
            AttributionTable(
                starts=np.array([100]),
                ends=np.array([100]),
                regions=np.array([1]),
            )

    def test_log_fallback_override_leaves_no_phantom_region(self, tmp_path):
        # Regression: overriding the fallback id used to keep the
        # auto-picked fallback's "heap" entry in region_names.
        path = tmp_path / "allocs.jsonl"
        path.write_text(
            '{"fallback_region": 99}\n'
            '{"base": 4096, "size": 512, "region": 5}\n'
            '{"base": 8192, "size": 512, "region": 6}\n'
        )
        table = AttributionTable.from_log(path)
        assert table.fallback_region == 99
        assert set(table.region_names) == {99}
        assert table.region_names[99] == FALLBACK_NAME

    def test_negative_region_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            AttributionTable(
                starts=np.array([0]),
                ends=np.array([64]),
                regions=np.array([-1]),
            )

    def test_empty_table_all_fallback(self):
        table = AttributionTable.from_allocations([])
        got = table.attribute(np.array([1, 2, 3]))
        assert (got == table.fallback_region).all()

    def test_largest_callpoint_id_gets_a_free_fallback(self, tmp_path):
        # max + 1 would overflow int32, so the smallest unused id is taken.
        path = tmp_path / "allocs.jsonl"
        path.write_text(
            '{"base": 4096, "size": 512, "region": 0}\n'
            f'{{"base": 8192, "size": 512, "region": {2**31 - 1}}}\n'
        )
        table = AttributionTable.from_log(path)
        assert table.fallback_region == 1
        got = table.attribute(np.array([4096, 8192, 0]))
        assert got.tolist() == [0, 2**31 - 1, 1]

    def test_log_region_beyond_int32_rejected(self, tmp_path):
        # Regression: 2^32 + 5 used to be cast to region 5 silently.
        path = tmp_path / "allocs.jsonl"
        path.write_text(
            '{"base": 4096, "size": 512, "region": 5}\n'
            f'{{"base": 8192, "size": 512, "region": {2**32 + 5}}}\n'
        )
        with pytest.raises(ValueError, match=r"allocs\.jsonl:2: region"):
            AttributionTable.from_log(path)

    def test_out_of_range_region_or_fallback_rejected(self):
        with pytest.raises(ValueError, match="region ids"):
            AttributionTable(
                starts=np.array([0]),
                ends=np.array([64]),
                regions=np.array([2**31], dtype=np.int64),
            )
        with pytest.raises(ValueError, match="fallback_region"):
            AttributionTable(
                starts=np.array([0]),
                ends=np.array([64]),
                regions=np.array([1]),
                fallback_region=2**31,
            )
