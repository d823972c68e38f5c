"""Zones and heterogeneity-aware NUMA nodes."""

import pytest

from repro.errors import ConfigurationError, OutOfMemoryError
from repro.guestos.numa import (
    DMA_ZONE_BYTES,
    MemoryNode,
    NodeTier,
    build_node,
)
from repro.guestos.zone import ZoneKind, make_zone, zone_preference
from repro.hw.memdevice import DRAM, NVM_PCM
from repro.mem.extent import PageType
from repro.units import MIB, PAGE_SIZE, pages_of_bytes


def test_tier_ranking():
    assert NodeTier.FAST.rank < NodeTier.MEDIUM.rank < NodeTier.SLOW.rank


def test_fast_node_has_single_unified_zone():
    node = build_node(0, NodeTier.FAST, DRAM.with_capacity(64 * MIB))
    assert [zone.kind for zone in node.zones] == [ZoneKind.UNIFIED]
    assert node.is_fastmem


def test_slow_node_has_dma_and_normal_zones():
    node = build_node(1, NodeTier.SLOW, NVM_PCM.with_capacity(256 * MIB))
    kinds = [zone.kind for zone in node.zones]
    assert kinds == [ZoneKind.DMA, ZoneKind.NORMAL]
    assert not node.is_fastmem
    dma = node.zones[0]
    assert dma.total_pages == DMA_ZONE_BYTES // PAGE_SIZE


def test_zone_preference_unified_serves_everything():
    for page_type in PageType:
        assert ZoneKind.UNIFIED in zone_preference(page_type)


def test_dma_pages_prefer_dma_zone():
    assert zone_preference(PageType.DMA)[0] is ZoneKind.DMA


def test_node_allocate_and_free_roundtrip():
    node = build_node(0, NodeTier.FAST, DRAM.with_capacity(16 * MIB))
    total = node.total_pages
    ranges = node.allocate_pages(100, PageType.HEAP)
    assert sum(r.count for r in ranges) == 100
    assert node.used_pages == 100
    node.free_ranges(ranges)
    assert node.free_pages == total


def test_node_allocation_respects_zone_eligibility():
    node = build_node(1, NodeTier.SLOW, NVM_PCM.with_capacity(64 * MIB))
    # Heap cannot come out of the DMA zone even under pressure.
    normal_pages = node.zones[1].free_pages
    node.allocate_pages(normal_pages, PageType.HEAP)
    with pytest.raises(OutOfMemoryError):
        node.allocate_pages(1, PageType.HEAP)
    # DMA pages still available.
    assert node.allocate_pages(1, PageType.DMA)


def test_allocate_up_to_partial():
    node = build_node(0, NodeTier.FAST, DRAM.with_capacity(4 * MIB))
    got = node.allocate_up_to(node.total_pages + 500, PageType.HEAP)
    assert sum(r.count for r in got) == node.total_pages


def test_free_pages_for_counts_only_eligible_zones():
    node = build_node(1, NodeTier.SLOW, NVM_PCM.with_capacity(64 * MIB))
    assert node.free_pages_for(PageType.HEAP) < node.free_pages
    assert node.free_pages_for(PageType.DMA) == node.free_pages


def test_foreign_frame_free_rejected():
    node = build_node(0, NodeTier.FAST, DRAM.with_capacity(4 * MIB))
    from repro.mem.frames import FrameRange

    with pytest.raises(OutOfMemoryError):
        node.free_ranges([FrameRange(10_000_000, 1)])


def test_zone_watermarks():
    zone = make_zone(ZoneKind.NORMAL, 0, 1000)
    assert zone.min_watermark_pages <= zone.low_watermark_pages
    assert not zone.under_pressure
    zone.buddy.allocate_pages(990)
    assert zone.under_pressure


def test_zero_capacity_node_rejected():
    with pytest.raises(ConfigurationError):
        build_node(0, NodeTier.FAST, DRAM.with_capacity(0))


def test_under_pressure_propagates_from_zones():
    node = build_node(0, NodeTier.FAST, DRAM.with_capacity(4 * MIB))
    assert not node.under_pressure
    node.allocate_pages(node.total_pages - 1, PageType.HEAP)
    assert node.under_pressure


def test_base_frame_offsets_disjoint():
    fast = build_node(0, NodeTier.FAST, DRAM.with_capacity(4 * MIB), 0)
    slow = build_node(
        1, NodeTier.SLOW, NVM_PCM.with_capacity(4 * MIB),
        pages_of_bytes(4 * MIB),
    )
    fast_ranges = fast.allocate_pages(10, PageType.HEAP)
    slow_ranges = slow.allocate_pages(10, PageType.HEAP)
    fast_frames = {
        f for r in fast_ranges for f in range(r.start, r.end)
    }
    slow_frames = {
        f for r in slow_ranges for f in range(r.start, r.end)
    }
    assert not fast_frames & slow_frames


def _assert_same_free_state(sequential, batched):
    for seq_zone, batch_zone in zip(sequential.zones, batched.zones):
        seq_buddy, batch_buddy = seq_zone.buddy, batch_zone.buddy
        assert batch_buddy.free_frames == seq_buddy.free_frames
        assert batch_buddy.largest_free_order() == seq_buddy.largest_free_order()
        frames = range(seq_buddy.base, seq_buddy.base + seq_buddy.total_frames)
        assert [batch_buddy.is_free(f) for f in frames] == [
            seq_buddy.is_free(f) for f in frames
        ]
        seq_buddy.check_invariants()
        batch_buddy.check_invariants()


def _free_one_by_one(node, ranges):
    for frame_range in ranges:
        node._zone_owning(frame_range.start).buddy.free_span(
            frame_range.start, frame_range.count
        )


def test_fast_two_zone_free_ranges_matches_sequential_frees():
    """A SlowMem node frees DMA and NORMAL ranges in same-zone batches,
    yet raises at the same range and leaves the same free state as
    one-range-at-a-time frees."""
    from repro.errors import AllocationError
    from repro.mem.frames import FrameRange

    device = NVM_PCM.with_capacity(64 * MIB)
    sequential = build_node(1, NodeTier.SLOW, device, base_frame=300)
    batched = build_node(1, NodeTier.SLOW, device, base_frame=300)
    assert [zone.kind for zone in batched.zones] == [ZoneKind.DMA, ZoneKind.NORMAL]
    grants = []
    for node in (sequential, batched):
        dma, normal = (zone.buddy for zone in node.zones)
        grants.append([
            dma.allocate_pages(700),
            normal.allocate_pages(5000),
            dma.allocate_pages(200),
            normal.allocate_pages(3000),
        ])
    assert grants[0] == grants[1]
    (dma_a,), (normal_a,), dma_b, normal_b = grants[0]
    dma_head, dma_tail = dma_a.split(300)
    normal_head, normal_tail = normal_a.split(1234)
    rest = [dma_tail, *normal_b]
    ranges = [
        dma_head,
        normal_head,
        *dma_b,
        normal_tail,
        FrameRange(dma_head.start + 5, 10),  # double free, planted mid-list
        *rest,
    ]
    errors = []
    for free in (lambda: _free_one_by_one(sequential, ranges),
                 lambda: batched.free_ranges(ranges)):
        with pytest.raises(AllocationError) as caught:
            free()
        errors.append(str(caught.value))
    assert errors[0] == errors[1]
    assert "double free" in errors[0]
    _assert_same_free_state(sequential, batched)
    assert not batched.zones[0].buddy.is_free(dma_tail.start)

    # A range owned by no zone (below the node's base) fails the same
    # way, after the ranges before it are freed.
    tail = [*rest, FrameRange(10, 5)]
    for free in (lambda: _free_one_by_one(sequential, tail),
                 lambda: batched.free_ranges(tail)):
        with pytest.raises(OutOfMemoryError):
            free()
    _assert_same_free_state(sequential, batched)
    assert batched.free_pages == batched.total_pages
