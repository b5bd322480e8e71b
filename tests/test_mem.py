"""Unit tests for the virtual-memory substrate."""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import (
    PAGE_SIZE,
    AddressSpace,
    HeapAllocator,
    PoolAllocator,
    VCError,
    VCRegistry,
)
from repro.mem.address_space import POOL_NONE


class TestAddressSpace:
    def test_base_alignment_enforced(self):
        with pytest.raises(ValueError):
            AddressSpace(base=123)

    def test_map_pages_contiguous(self):
        space = AddressSpace()
        a = space.map_pages(2)
        b = space.map_pages(1)
        assert b == a + 2 * PAGE_SIZE

    def test_map_zero_pages_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().map_pages(0)

    def test_pool_tagging(self):
        space = AddressSpace()
        addr = space.map_pages(2, pool=7)
        assert space.pool_of(addr) == 7
        assert space.pool_of(addr + PAGE_SIZE + 10) == 7

    def test_untagged_default(self):
        space = AddressSpace()
        addr = space.map_pages(1)
        assert space.pool_of(addr) == POOL_NONE

    def test_pools_of_vectorized(self):
        space = AddressSpace()
        a = space.map_pages(1, pool=1)
        b = space.map_pages(1, pool=2)
        tags = space.pools_of(np.array([a, b, a + 8]))
        assert list(tags) == [1, 2, 1]

    def test_retag(self):
        space = AddressSpace()
        addr = space.map_pages(4, pool=1)
        n = space.retag_pages(addr + PAGE_SIZE, 2 * PAGE_SIZE, pool=9)
        assert n == 2
        assert space.pool_of(addr) == 1
        assert space.pool_of(addr + PAGE_SIZE) == 9

    def test_mapped_bytes(self):
        space = AddressSpace()
        space.map_pages(3)
        assert space.mapped_bytes == 3 * PAGE_SIZE


class TestHeapAllocator:
    def test_pool_isolation_invariant(self):
        """Pages never hold data from two pools (paper Sec 3.1)."""
        heap = HeapAllocator()
        p1 = heap.pool_create()
        p2 = heap.pool_create()
        allocs = []
        for i in range(50):
            allocs.append(heap.pool_malloc(48, p1))
            allocs.append(heap.pool_malloc(48, p2))
        for a in allocs:
            assert heap.space.pool_of(a.base) == a.pool
            assert heap.space.pool_of(a.end - 1) == a.pool

    def test_large_allocation_page_aligned(self):
        heap = HeapAllocator()
        pool = heap.pool_create()
        a = heap.pool_malloc(3 * PAGE_SIZE + 5, pool)
        assert a.base % PAGE_SIZE == 0
        assert heap.space.pool_of(a.base + 3 * PAGE_SIZE) == pool

    def test_unknown_pool_rejected(self):
        heap = HeapAllocator()
        with pytest.raises(ValueError):
            heap.pool_malloc(10, 42)
        with pytest.raises(ValueError, match="unknown pool"):
            heap.pool_calloc(1, 16, 42)

    def test_zero_size_rejected(self):
        heap = HeapAllocator()
        with pytest.raises(ValueError):
            heap.malloc(0)

    def test_free_and_reuse_within_pool(self):
        heap = HeapAllocator()
        pool = heap.pool_create()
        a = heap.pool_malloc(64, pool)
        heap.free(a)
        b = heap.pool_malloc(64, pool)
        assert b.base == a.base  # recycled from the free list

    def test_double_free_rejected(self):
        heap = HeapAllocator()
        a = heap.malloc(64)
        heap.free(a)
        with pytest.raises(ValueError):
            heap.free(a)

    def test_calloc_and_realloc(self):
        heap = HeapAllocator()
        pool = heap.pool_create()
        a = heap.pool_calloc(10, 8, pool)
        assert a.size == 80
        b = heap.pool_realloc(a, 200)
        assert b.size == 200
        assert b.pool == pool

    def test_allocated_bytes_accounting(self):
        heap = HeapAllocator()
        a = heap.malloc(100)
        b = heap.malloc(50)
        heap.free(a)
        assert heap.allocated_bytes == 50
        del b

    def test_callpoints_differ_by_site(self):
        heap = HeapAllocator()
        a = heap.malloc(16)
        b = heap.malloc(16)  # different line -> different callpoint
        assert a.callpoint != b.callpoint

    def test_callpoints_same_site_equal(self):
        heap = HeapAllocator()
        allocs = [heap.malloc(16) for __ in range(3)]
        assert len({x.callpoint for x in allocs}) == 1

    @pytest.mark.parametrize("alloc", ["pool_malloc", "pool_calloc"])
    def test_pool_callpoints_name_the_caller(self, alloc):
        # A site is the allocating call and its caller (the paper's last
        # two return PCs), so one allocating function reached from two
        # callers yields two callpoints, whichever pool call it makes.
        heap = HeapAllocator()
        pool = heap.pool_create()
        args = (1, 16, pool) if alloc == "pool_calloc" else (16, pool)

        def build():
            return getattr(heap, alloc)(*args)

        def first_caller():
            return build()

        def second_caller():
            return build()

        a, b = first_caller(), second_caller()
        assert a.callpoint != b.callpoint
        assert a.pool == b.pool == pool

    def test_callpoints_ignore_code_above_the_function(self):
        # A site is named by module, function and line offset, so moving
        # the function down its file (or the file elsewhere) keeps its id.
        source = "def build(heap):\n    return heap.malloc(16)\n"
        heap = HeapAllocator()
        ids = []
        for where, above in (("a", ""), ("b", "\n\n# moved down\n\n")):
            module = types.ModuleType("callpoint_site")
            code = compile(above + source, f"/{where}/callpoint_site.py", "exec")
            exec(code, module.__dict__)
            ids.append(module.build(heap).callpoint)
        assert ids[0] == ids[1]

    def test_addresses_helper(self):
        heap = HeapAllocator()
        a = heap.malloc(1024)
        addrs = a.addresses(np.array([0, 8, 16]))
        assert list(addrs) == [a.base, a.base + 8, a.base + 16]

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(1, 20000), min_size=1, max_size=60))
    def test_no_overlapping_live_allocations(self, sizes):
        heap = HeapAllocator()
        pool = heap.pool_create()
        spans = []
        for size in sizes:
            a = heap.pool_malloc(size, pool)
            spans.append((a.base, a.end))
        spans.sort()
        for (b1, e1), (b2, __) in zip(spans, spans[1:]):
            assert e1 <= b2


class TestPoolAllocator:
    def test_named_pools_lazily_created(self):
        alloc = PoolAllocator()
        a = alloc.malloc(100, "vertices")
        b = alloc.malloc(100, "edges")
        assert a.pool != b.pool
        assert set(alloc.pool_names) == {"vertices", "edges"}

    def test_same_name_same_pool(self):
        alloc = PoolAllocator()
        a = alloc.malloc(10, "x")
        b = alloc.malloc(10, "x")
        assert a.pool == b.pool

    def test_unpooled(self):
        alloc = PoolAllocator()
        a = alloc.malloc(10)
        assert a.pool == POOL_NONE


class TestVCRegistry:
    def make(self):
        space = AddressSpace()
        return space, VCRegistry(space)

    def test_alloc_and_tag(self):
        space, reg = self.make()
        addr = space.map_pages(4)
        vc = reg.sys_vc_alloc(pid=1)
        n = reg.sys_vc_tag(pid=1, addr=addr, n_bytes=2 * PAGE_SIZE, vc=vc)
        assert n == 2
        assert space.pool_of(addr) == vc

    def test_foreign_process_rejected(self):
        space, reg = self.make()
        addr = space.map_pages(1)
        vc = reg.sys_vc_alloc(pid=1)
        with pytest.raises(VCError):
            reg.sys_vc_tag(pid=2, addr=addr, n_bytes=10, vc=vc)

    def test_freed_vc_rejected(self):
        space, reg = self.make()
        vc = reg.sys_vc_alloc(pid=1)
        reg.sys_vc_free(pid=1, vc=vc)
        with pytest.raises(VCError):
            reg.sys_vc_tag(pid=1, addr=0, n_bytes=10, vc=vc)

    def test_unknown_vc_rejected(self):
        __, reg = self.make()
        with pytest.raises(VCError):
            reg.sys_vc_free(pid=1, vc=99)

    def test_user_vcs_listing(self):
        __, reg = self.make()
        a = reg.sys_vc_alloc(pid=1)
        b = reg.sys_vc_alloc(pid=1)
        reg.sys_vc_alloc(pid=2)
        reg.sys_vc_free(pid=1, vc=a)
        assert reg.user_vcs(pid=1) == [b]

    def test_user_ids_start_after_reserved(self):
        __, reg = self.make()
        vc = reg.sys_vc_alloc(pid=1)
        assert vc >= VCRegistry._FIRST_USER_VC

    def test_sys_mmap_with_vc(self):
        space, reg = self.make()
        vc = reg.sys_vc_alloc(pid=1)
        addr = reg.sys_mmap(pid=1, n_pages=2, vc=vc)
        assert space.pool_of(addr + PAGE_SIZE) == vc
