"""Property-based tests (hypothesis) on core data structures and
invariants: allocators never lose or duplicate frames, cost models stay
monotone, fairness maths stays in range."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryError
from repro.guestos.buddy import BuddyAllocator
from repro.guestos.lru import SplitLru
from repro.hw.cache import CacheConfig, LastLevelCache, RegionAccess
from repro.hw.throttle import ThrottleConfig, throttled_device
from repro.core.coordinated import next_interval_ms
from repro.mem.extent import PageExtent, PageType
from repro.mem.frames import FramePool
from repro.units import MIB
from repro.vmm.migration import MigrationCostModel

from buddy_model import BuddyModel


# ----------------------------------------------------------------------
# Buddy allocator: conservation + invariants under arbitrary programs
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    span=st.integers(min_value=1, max_value=2048),
    program=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=1, max_value=256)),
        max_size=40,
    ),
)
def test_buddy_conserves_frames(span, program):
    buddy = BuddyAllocator(0, span)
    live: list = []
    for is_alloc, count in program:
        if is_alloc:
            if count <= buddy.free_frames:
                try:
                    live.extend(buddy.allocate_pages(count))
                except Exception:
                    pass  # fragmentation: allowed to fail, not to leak
        elif live:
            block = live.pop()
            buddy.free_span(block.start, block.count)
    held = sum(block.count for block in live)
    assert buddy.free_frames + held == span
    buddy.check_invariants()


@settings(max_examples=60, deadline=None)
@given(
    counts=st.lists(st.integers(min_value=1, max_value=64), min_size=1,
                    max_size=20),
)
def test_buddy_allocations_never_overlap(counts):
    buddy = BuddyAllocator(0, 4096)
    seen: set[int] = set()
    for count in counts:
        if count > buddy.free_frames:
            break
        for block in buddy.allocate_pages(count):
            frames = set(range(block.start, block.end))
            assert not frames & seen
            seen |= frames


def _assert_same_state(model, buddy):
    assert buddy.free_frames == model.free_frames
    assert buddy.largest_free_order() == model.largest_free_order()
    frames = range(model.base, model.base + model.total_frames)
    assert [buddy.is_free(f) for f in frames] == [model.is_free(f) for f in frames]
    buddy.check_invariants()


# Spans stay small: the per-frame comparison after each step is O(span).
@settings(max_examples=60, deadline=None)
@given(
    max_order=st.sampled_from((0, 3, 10)),
    base=st.integers(min_value=0, max_value=5000),
    span=st.integers(min_value=1, max_value=3000),
    program=st.lists(
        st.tuples(
            st.sampled_from(("alloc", "free", "fragment", "oom")),
            st.integers(min_value=1, max_value=3000),
            st.integers(min_value=0, max_value=1 << 16),
        ),
        max_size=30,
    ),
)
def test_buddy_matches_block_model(max_order, base, span, program):
    """BuddyAllocator grants the same frames in the same order, and
    reaches the same free state, as the block-at-a-time model
    (tests/buddy_model.py) after every allocate, batched free, fragment
    free and refused (out-of-memory) request."""
    model = BuddyModel(base, span, max_order)
    buddy = BuddyAllocator(base, span, max_order)
    live: list = []
    for op, size, pick in program:
        free = model.free_frames
        if op == "alloc" and free:
            granted = model.allocate_pages(1 + size % free)
            assert buddy.allocate_pages(1 + size % free) == granted
            for left, right in zip(granted, granted[1:]):
                assert left.end != right.start  # maximal runs
            live.extend(granted)
        elif op == "oom":
            with pytest.raises(OutOfMemoryError):
                buddy.allocate_pages(free + size)
        elif op == "free" and live:
            # Up to three ranges: sequential frees on the model, one
            # batched free on the allocator.
            batch = [live.pop(pick % len(live)) for _ in range(min(3, len(live)))]
            for frame_range in batch:
                model.free_span(frame_range.start, frame_range.count)
            buddy.free_ranges(batch)
        elif op == "fragment" and live:
            # Free a prefix or suffix of a range and keep the rest, as
            # per-CPU lists and extent splits do.
            victim = live.pop(pick % len(live))
            if victim.count > 1:
                head, tail = victim.split(1 + size % (victim.count - 1))
                freed, kept = (head, tail) if pick & 1 else (tail, head)
                live.append(kept)
            else:
                freed = victim
            model.free_span(freed.start, freed.count)
            buddy.free_span(freed.start, freed.count)
        _assert_same_state(model, buddy)
    for frame_range in live:
        model.free_span(frame_range.start, frame_range.count)
        buddy.free_range(frame_range)
    _assert_same_state(model, buddy)
    assert buddy.free_frames == span


# ----------------------------------------------------------------------
# Frame pool
# ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(
    program=st.lists(st.integers(min_value=1, max_value=128), max_size=30),
)
def test_frame_pool_scattered_roundtrip(program):
    pool = FramePool(0, 2048)
    live = []
    for count in program:
        if count <= pool.free_frames:
            live.append(pool.allocate_scattered(count))
    for ranges in live:
        for frame_range in ranges:
            pool.free(frame_range)
    assert pool.free_frames == 2048
    pool.check_invariants()


# ----------------------------------------------------------------------
# Cache model
# ----------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    footprints=st.lists(
        st.integers(min_value=1, max_value=256), min_size=1, max_size=8
    ),
    reuse=st.floats(min_value=0.0, max_value=1.0),
    accesses=st.floats(min_value=0.0, max_value=1e6),
)
def test_cache_misses_bounded_by_accesses(footprints, reuse, accesses):
    cache = LastLevelCache(CacheConfig(capacity_bytes=32 * MIB))
    regions = [
        RegionAccess(f"r{i}", mib * MIB, accesses, 0.0, reuse)
        for i, mib in enumerate(footprints)
    ]
    for result in cache.apportion(regions):
        assert -1e-6 <= result.read_misses <= accesses + 1e-6
        assert 0.0 <= result.cached_fraction <= 1.0


@settings(max_examples=40, deadline=None)
@given(capacity_mib=st.integers(min_value=1, max_value=256))
def test_cache_bigger_is_never_worse(capacity_mib):
    small = LastLevelCache(CacheConfig(capacity_bytes=capacity_mib * MIB))
    big = LastLevelCache(CacheConfig(capacity_bytes=2 * capacity_mib * MIB))
    regions = [
        RegionAccess("a", 64 * MIB, 1000, 200, 0.8),
        RegionAccess("b", 16 * MIB, 5000, 100, 0.9),
    ]
    small_misses = sum(r.misses for r in small.apportion(regions))
    big_misses = sum(r.misses for r in big.apportion(regions))
    assert big_misses <= small_misses + 1e-6


# ----------------------------------------------------------------------
# Throttle model
# ----------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    latency_factor=st.floats(min_value=1.0, max_value=10.0),
    bandwidth_factor=st.floats(min_value=1.0, max_value=20.0),
)
def test_throttled_device_never_faster_than_base(latency_factor, bandwidth_factor):
    device = throttled_device(ThrottleConfig(latency_factor, bandwidth_factor))
    assert device.load_latency_ns >= 60.0 - 1e-9
    assert device.bandwidth_gbps <= 24.0 + 1e-9


# ----------------------------------------------------------------------
# Migration cost model
# ----------------------------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(
    small=st.integers(min_value=1, max_value=10**6),
    larger=st.integers(min_value=1, max_value=10**6),
)
def test_migration_costs_monotone_in_batch(small, larger):
    small, larger = sorted((small, larger))
    model = MigrationCostModel()
    move_s, walk_s = model.per_page_costs(small)
    move_l, walk_l = model.per_page_costs(larger)
    assert move_l <= move_s + 1e-9
    assert walk_l <= walk_s + 1e-9


# ----------------------------------------------------------------------
# Equation 1
# ----------------------------------------------------------------------

@settings(max_examples=120, deadline=None)
@given(
    interval=st.floats(min_value=50.0, max_value=1000.0),
    delta=st.floats(min_value=-100.0, max_value=100.0),
)
def test_eq1_always_in_clamp_range(interval, delta):
    updated = next_interval_ms(interval, delta)
    assert 50.0 <= updated <= 1000.0
    # Direction: rising misses never lengthen, falling never shorten.
    if delta > 0:
        assert updated <= interval + 1e-9
    elif delta < 0:
        assert updated >= interval - 1e-9


# ----------------------------------------------------------------------
# LRU
# ----------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["insert", "access", "deactivate", "remove", "resize", "scan"]
            ),
            st.integers(min_value=0, max_value=9),
        ),
        max_size=60,
    ),
)
def test_lru_page_accounting_consistent(ops):
    """The running page totals equal a walk over the lists' extents
    after every insert, remove, access, deactivate, scan and in-place
    resize (the walk is the oracle the totals replace)."""
    lru = SplitLru(node_id=0)
    extents: dict[int, PageExtent] = {}
    for epoch, (op, key) in enumerate(ops):
        extent = extents.get(key)
        if op == "insert" and extent is None:
            extent = PageExtent(f"r{key}", PageType.HEAP, 1 + key, 0)
            extents[key] = extent
            lru.insert(extent)
        elif op == "scan":
            lru.scan(epoch)
        elif extent is not None and lru.contains(extent):
            if op == "access":
                lru.record_access(extent)
            elif op == "deactivate":
                lru.deactivate(extent)
            elif op == "remove":
                lru.remove(extent)
                del extents[key]
            elif op == "resize" and extent.pages > 1:
                # An extent split shrinks the extent in place.
                cut = 1 + epoch % (extent.pages - 1)
                extent.pages -= cut
                lru.note_resized(extent, -cut)
        assert lru.active_pages == sum(e.pages for e in lru.active_extents)
        assert lru.inactive_pages == sum(e.pages for e in lru.inactive_extents)
    live_pages = sum(e.pages for e in extents.values())
    assert lru.active_pages + lru.inactive_pages == live_pages
