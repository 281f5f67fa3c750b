"""Unit tests for the cache hierarchy, TLB and next-line prefetcher."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.caches import MemoryHierarchy, SetAssociativeCache, TLB


def test_cache_hit_after_fill():
    cache = SetAssociativeCache(size=1024, assoc=2, block=32)
    assert not cache.access(0)      # cold miss
    assert cache.access(0)          # hit
    assert cache.access(16)         # same block
    assert cache.hits == 2
    assert cache.misses == 1


def test_cache_lru_eviction():
    cache = SetAssociativeCache(size=64, assoc=2, block=32)  # 1 set, 2 ways
    cache.access(0)
    cache.access(32)
    cache.access(0)        # touch 0: 32 becomes LRU
    cache.access(64)       # evicts 32
    assert cache.access(0)
    assert not cache.access(32)


def test_cache_sets_are_independent():
    cache = SetAssociativeCache(size=128, assoc=1, block=32)  # 4 sets
    cache.access(0)
    cache.access(32)
    assert cache.access(0)
    assert cache.access(32)


def test_probe_does_not_disturb():
    cache = SetAssociativeCache(size=64, assoc=2, block=32)
    cache.access(0)
    assert cache.probe(0)
    assert not cache.probe(64)
    assert cache.misses == 1  # probe counted nothing


def test_install_is_silent():
    cache = SetAssociativeCache(size=64, assoc=2, block=32)
    cache.install(0)
    assert cache.probe(0)
    assert cache.hits == 0 and cache.misses == 0


def test_bad_geometry_rejected():
    with pytest.raises(ValueError):
        SetAssociativeCache(size=100, assoc=3, block=32)


def test_tlb_page_granularity():
    tlb = TLB(entries=32, assoc=8, page=8192)
    assert not tlb.access(0)
    assert tlb.access(8191)        # same page
    assert not tlb.access(8192)    # next page


def test_hierarchy_latencies():
    hierarchy = MemoryHierarchy(next_line_prefetch=False)
    # Cold: TLB miss + L1 miss + L2 miss.
    extra = hierarchy.access(0)
    assert extra == 30 + 12 + 120
    # Warm: pure hit.
    assert hierarchy.access(0) == 0
    # L2 hit after L1 eviction would cost 12; emulate via direct install.
    assert hierarchy.access(8) == 0  # same line


def test_hierarchy_store_misses_not_charged():
    hierarchy = MemoryHierarchy(next_line_prefetch=False)
    assert hierarchy.access(4096, is_store=True) == 0
    # But the line was allocated (write-allocate): a load now hits.
    assert hierarchy.access(4096) == 0


def test_next_line_prefetch_covers_sequential_stream():
    hierarchy = MemoryHierarchy(next_line_prefetch=True)
    total_extra = sum(hierarchy.access(addr) for addr in range(0, 4096, 8))
    # Only the very first line (and TLB page) should miss.
    assert hierarchy.l1.misses <= 2
    assert total_extra <= 200


def test_no_prefetch_misses_every_line():
    hierarchy = MemoryHierarchy(next_line_prefetch=False)
    for addr in range(0, 4096, 8):
        hierarchy.access(addr)
    assert hierarchy.l1.misses == 4096 // 32


def test_warm_installs_everything():
    hierarchy = MemoryHierarchy()
    hierarchy.warm(0x1000, 4096)
    extra = sum(hierarchy.access(a) for a in range(0x1000, 0x2000, 32))
    assert extra == 0
    assert hierarchy.l1.misses == 0


# -- the all-hit fast path against the general path -------------------------

def reference_access(hierarchy, address, is_store=False):
    """``MemoryHierarchy.access`` without its all-hit fast path."""
    extra = 0
    if not hierarchy.tlb.access(address):
        extra += hierarchy.tlb_miss_latency
    if hierarchy.next_line_prefetch:
        next_line = address + hierarchy.l1.block
        if not hierarchy.l1.probe(next_line):
            hierarchy.l1.install(next_line)
            hierarchy.l2.install(next_line)
    if hierarchy.l1.access(address):
        return extra if not is_store else 0
    if hierarchy.l2.access(address):
        extra += hierarchy.l2_hit_latency
    else:
        extra += hierarchy.l2_hit_latency + hierarchy.memory_latency
    return extra if not is_store else 0


def _small_hierarchy(prefetch):
    """Few sets and ways everywhere, so evictions are common."""
    return MemoryHierarchy(
        l1_size=256, l1_assoc=2, l1_block=32,
        l2_size=1024, l2_assoc=2, l2_block=32,
        tlb_entries=4, tlb_assoc=2, page_size=256,
        next_line_prefetch=prefetch,
    )


def _state(hierarchy):
    caches = (hierarchy.l1, hierarchy.l2, hierarchy.tlb.cache)
    return ([(cache.hits, cache.misses) for cache in caches],
            [cache.sets for cache in caches])


@st.composite
def access_streams(draw):
    """Loads and stores clustered around a few bases, so lines, next lines
    and pages are revisited while others are evicted."""
    bases = draw(st.lists(st.integers(0, 1 << 14), min_size=1, max_size=4))
    access = st.tuples(st.sampled_from(bases), st.integers(0, 160),
                       st.booleans())
    return [(base + offset, is_store)
            for base, offset, is_store in draw(
                st.lists(access, min_size=1, max_size=300))]


@given(access_streams(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_fast_path_matches_general_path(stream, prefetch):
    fast = _small_hierarchy(prefetch)
    reference = _small_hierarchy(prefetch)
    for address, is_store in stream:
        assert fast.access(address, is_store) == \
            reference_access(reference, address, is_store)
        assert _state(fast) == _state(reference)
