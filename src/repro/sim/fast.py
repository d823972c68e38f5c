"""The array-backed epoch hot path (ROADMAP item 2).

The PhaseProfiler (PR 4) puts the bulk of ``SimulationEngine.step()``
host time in the demand phase, and inside it almost entirely in
:class:`~repro.guestos.buddy.BuddyAllocator`: the Python-bigint free
mask costs O(span bits) per allocate/free, ``min(set)`` rescans a free
list per block, and every block materialises a validated frozen
``FrameRange``.  The ISSUE names the LRU walks and demand accounting as
further suspects; profiling ranks them second and third.  This module
replaces all three with flat array-backed structures:

* :class:`FrameBitmap` — a byte-per-frame free map (``bytearray`` with
  an optional shared-memory numpy ``uint8`` view for bulk fills and the
  invariant popcount) instead of one Python big integer.
* :class:`FastBuddy` — a drop-in :class:`BuddyAllocator` using the
  bitmap, free max-order blocks kept as sorted contiguous runs (granted
  lowest-first, as the reference ``min(set)`` picks them, and granted or
  freed a run at a time), and ``FrameRange.unchecked`` construction.
* :class:`FastSplitLru` — running active/inactive page counters so the
  per-sample ``occupancy_snapshot`` stops walking every extent.
* :class:`DemandAccumulator` / :func:`fast_memory_demands` — flat
  per-device float columns replacing the per-(region, device) frozen
  ``DeviceDemand`` merge chain of the reference demand accounting.

Every structure is pinned **bit-identical** to its reference twin: the
same allocations, the same float addition order, the same dict
insertion order.  The differential oracle
(``tests/test_fast_equivalence.py``) enforces this across all policies,
fault plans, and telemetry modes; no change to this module merges
without it.  See ``docs/performance.md``.

numpy is optional (the ``fast`` extra).  When it cannot be imported the
bitmap silently degrades to pure ``bytearray`` operations — identical
results, reduced bulk-fill speed — and a single ``RuntimeWarning`` is
emitted at import time.  This module is the only place allowed to
import numpy (heterolint ``numpy-import``); everything else must stay
dependency-free.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left as _bisect
from typing import TYPE_CHECKING

from repro.errors import AllocationError, OutOfMemoryError
from repro.guestos.buddy import MAX_ORDER, BuddyAllocator
from repro.guestos.lru import SplitLru
from repro.guestos.numa import MemoryNode, build_node
from repro.hw.cache import RegionAccess
from repro.hw.timing import DeviceDemand
from repro.mem.frames import FrameRange
from repro.units import PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mem.extent import PageExtent
    from repro.sim.engine import EpochDemand, SimulationEngine

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via test_fast_fallback
    _np = None
    warnings.warn(
        "numpy unavailable; repro.sim.fast falls back to the pure-Python "
        "array backend (results identical, bulk operations slower) — "
        "install the 'fast' extra for full speed",
        RuntimeWarning,
    )

#: Whether the numpy backend is active (False = bytearray fallback).
HAS_NUMPY = _np is not None

#: heterocontract anchor (``contract-fast-mirror``): the accumulator
#: columns of :class:`DemandAccumulator`, one per
#: :class:`~repro.hw.timing.DeviceDemand` field.  Must stay a pure
#: literal (it is read with ``ast.literal_eval``) and mirror the
#: dataclass exactly — a DeviceDemand field without a column here would
#: be silently dropped by the fast path.
DEVICE_DEMAND_FIELDS = ("read_misses", "write_misses", "traffic_bytes")

#: Bulk bitmap fills at or above this many frames go through the numpy
#: view (a memset, no ``bytes`` temporary); smaller fills stay on the
#: bytearray slice path whose per-call overhead is ~10x lower.  Chosen
#: where the two backends cross over on current CPython/numpy.
_BULK_FILL_FRAMES = 2048

# Hot-loop aliases: module-level bindings skip the attribute lookups
# that dominate at ~100ns-per-operation scale.
_unchecked = FrameRange.unchecked
_new_instance = object.__new__


def _region_access(region_id, footprint_bytes, reads, writes, reuse,
                   bytes_per_miss):
    """:class:`RegionAccess` without the ``__init__``/``__post_init__``
    round trip (same trick as ``FrameRange.unchecked``).  Valid only for
    arguments the reference constructor would accept: ``reuse`` and
    ``bytes_per_miss`` come from an already-validated region spec, and
    the kernel guarantees non-negative page counts and access counts."""
    access = _new_instance(RegionAccess)
    attrs = access.__dict__
    attrs["region_id"] = region_id
    attrs["footprint_bytes"] = footprint_bytes
    attrs["reads"] = reads
    attrs["writes"] = writes
    attrs["reuse"] = reuse
    attrs["bytes_per_miss"] = bytes_per_miss
    return access


_INF = float("inf")


def _fast_apportion(cache, regions):
    """Tuple-returning twin of ``LastLevelCache.apportion`` plus the
    ``RegionMisses.misses``/``traffic_bytes`` properties: the same float
    expressions evaluated in the same order, minus one frozen dataclass
    and two property calls per region per epoch.  Yields
    ``(region_id, read_misses, write_misses, traffic_bytes,
    bytes_per_miss, misses)`` in input order.  Pinned against the
    reference by the differential oracle."""
    remaining = float(cache.config.capacity_bytes)
    cached_frac = {}
    ranked = sorted(
        (r for r in regions if r.reads + r.writes > 0),
        key=lambda r: (
            (r.reads + r.writes) / r.footprint_bytes
            if r.footprint_bytes
            else _INF
        ),
        reverse=True,
    )
    for region in ranked:
        footprint = region.footprint_bytes
        if footprint == 0:
            cached_frac[region.region_id] = 1.0
            continue
        take = min(remaining, float(footprint))
        cached_frac[region.region_id] = take / footprint
        remaining -= take
    results = []
    append = results.append
    frac_of = cached_frac.get
    for region in regions:
        frac = frac_of(region.region_id, 0.0)
        hit_rate = region.reuse * frac
        miss_rate = 1.0 - hit_rate
        read_misses = region.reads * miss_rate
        write_misses = region.writes * miss_rate
        bytes_per_miss = region.bytes_per_miss
        append((
            region.region_id,
            read_misses,
            write_misses,
            read_misses * bytes_per_miss + write_misses * bytes_per_miss * 2.0,
            bytes_per_miss,
            read_misses + write_misses,
        ))
    return results

__all__ = [
    "DEVICE_DEMAND_FIELDS",
    "HAS_NUMPY",
    "DemandAccumulator",
    "FastBuddy",
    "FastNode",
    "FastSplitLru",
    "FrameBitmap",
    "fast_build_node",
    "fast_memory_demands",
]


class FrameBitmap:
    """Byte-per-frame free map: ``buf[i]`` is 1 iff frame ``base + i``
    is free.

    The buffer is always a ``bytearray`` so scalar probes can use
    ``bytearray.find`` (C ``memchr``) regardless of backend; when numpy
    is importable, :attr:`view` is a ``uint8`` array sharing the same
    memory, used for large fills and the population count.
    """

    __slots__ = ("buf", "view")

    def __init__(self, frames: int) -> None:
        self.buf = bytearray(frames)
        self.view = None if _np is None else _np.frombuffer(self.buf, dtype=_np.uint8)

    def fill(self, offset: int, count: int, value: int) -> None:
        """Set ``count`` entries starting at ``offset`` to ``value``."""
        if self.view is not None and count >= _BULK_FILL_FRAMES:
            self.view[offset:offset + count] = value
        elif value:
            self.buf[offset:offset + count] = b"\x01" * count
        else:
            self.buf[offset:offset + count] = bytes(count)

    def popcount(self) -> int:
        """Number of set entries across the whole map."""
        if self.view is not None:
            return int(self.view.sum())
        return sum(self.buf)


class _BlockRuns:
    """The free list of the top order: free max-order blocks kept as
    sorted, disjoint, never-adjacent runs ``[starts[i], ends[i])``.

    Its length is the number of free blocks and iterating it yields
    their starts, so the reference code that reads
    ``_free_lists[max_order]`` works on it unchanged.  The lowest free
    block is ``starts[0]``, the one the reference ``min(set)`` picks.
    """

    __slots__ = ("starts", "ends", "size", "blocks")

    def __init__(self, order: int) -> None:
        self.starts: "list[int]" = []
        self.ends: "list[int]" = []
        self.size = 1 << order
        self.blocks = 0

    def __len__(self) -> int:
        return self.blocks

    def __iter__(self):
        size = self.size
        for start, end in zip(self.starts, self.ends):
            yield from range(start, end, size)

    def insert(self, start: int, end: int) -> None:
        """Add the blocks ``[start, end)``, joining a run that ends at
        ``start`` or begins at ``end``."""
        starts = self.starts
        ends = self.ends
        self.blocks += (end - start) // self.size
        index = _bisect(starts, start)
        joins_next = index < len(starts) and starts[index] == end
        if index and ends[index - 1] == start:
            if joins_next:
                ends[index - 1] = ends.pop(index)
                del starts[index]
            else:
                ends[index - 1] = end
        elif joins_next:
            starts[index] = start
        else:
            starts.insert(index, start)
            ends.insert(index, end)

    def take(self, blocks: int) -> "list[tuple[int, int]]":
        """Remove the ``blocks`` lowest blocks; returns them as
        ``(start, count)`` runs in ascending order."""
        starts = self.starts
        ends = self.ends
        need = blocks * self.size
        self.blocks -= blocks
        taken = []
        used = 0
        while need:
            start = starts[used]
            count = ends[used] - start
            if count > need:
                count = need
                starts[used] = start + need
            else:
                used += 1
            taken.append((start, count))
            need -= count
        del starts[:used]
        del ends[:used]
        return taken

    def check(self) -> None:
        """Raise unless the runs are sorted, whole blocks, never
        adjacent, and counted in :attr:`blocks`."""
        starts = self.starts
        ends = self.ends
        if any(
            end <= start or (end - start) % self.size
            for start, end in zip(starts, ends)
        ) or any(end >= start for end, start in zip(ends, starts[1:])):
            raise AllocationError("max-order runs not sorted, whole and maximal")
        if sum(ends) - sum(starts) != self.blocks * self.size:
            raise AllocationError("max-order block count mismatch")


class FastBuddy(BuddyAllocator):
    """Array-backed drop-in for :class:`BuddyAllocator` that grants and
    frees contiguous runs.

    Three substitutions, none visible to callers:

    * the big-int ``_free_mask`` becomes a :class:`FrameBitmap`
      (one slice write per run instead of O(span-bits) shifts);
    * the max-order free list is a :class:`_BlockRuns`, so a batch of
      max-order blocks is granted, and a freed span's max-order middle
      inserted, in O(runs) instead of O(blocks).  Lower orders keep the
      reference per-order sets, which stay short, so ``min()`` is cheap;
    * granted ranges are built with ``FrameRange.unchecked`` (the split
      arithmetic guarantees validity).
    """

    def __init__(self, base: int, frames: int, max_order: int = MAX_ORDER) -> None:
        if frames <= 0:
            raise AllocationError("buddy span must contain at least one frame")
        if max_order < 0:
            raise AllocationError("max_order must be non-negative")
        self.base = base
        self.total_frames = frames
        self.max_order = max_order
        self._top = _BlockRuns(max_order)
        self._free_lists = [*(set() for _ in range(max_order)), self._top]
        self._free_frames = 0
        self._mask = FrameBitmap(frames)
        #: The bitmap's bytearray, aliased for the hot paths (slice
        #: assignment never reallocates it, so the alias stays valid).
        self._mask_bytes = self._mask.buf
        self._free_spans((_unchecked(base, frames),))

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate_block(self, order: int) -> FrameRange:
        if not 0 <= order <= self.max_order:
            raise AllocationError(f"order {order} out of range")
        return _unchecked(self._take_block(order), 1 << order)

    def _take_block(self, order: int) -> int:
        """The reference allocate_block, returning the block's start."""
        start, source = self._pop_lowest(order)
        lists = self._free_lists
        while source > order:
            source -= 1
            lists[source].add(start + (1 << source))
        count = 1 << order
        self._free_frames -= count
        offset = start - self.base
        self._mask_bytes[offset:offset + count] = bytes(count)
        return start

    def _pop_lowest(self, order: int) -> "tuple[int, int]":
        """Remove the lowest block of the smallest non-empty order >=
        ``order``; returns its start and order."""
        lists = self._free_lists
        max_order = self.max_order
        source = order
        while source < max_order and not lists[source]:
            source += 1
        if source < max_order:
            bucket = lists[source]
            start = min(bucket)
            bucket.remove(start)
        elif self._top.blocks:
            ((start, _),) = self._top.take(1)
        else:
            raise OutOfMemoryError(
                f"no free block of order >= {order} "
                f"({self._free_frames} frames free)"
            )
        return start, source

    def allocate_pages(self, pages: int) -> "list[FrameRange]":
        if "allocate_block" in self.__dict__:
            # The frame sanitizer wraps allocate_block per instance; its
            # wrapper must see every block, so take the reference's
            # block-at-a-time loop.
            return super().allocate_pages(pages)
        if pages <= 0:
            raise AllocationError(f"page count must be positive: {pages}")
        if pages > self._free_frames:
            raise OutOfMemoryError(
                f"requested {pages} pages, only {self._free_frames} free"
            )
        # The reference loop cannot run out part-way (so needs no
        # rollback here): ``remaining`` never exceeds the free frames,
        # and when no order up to ``want_order`` has a block, a larger
        # one exists to split.
        granted: "list[FrameRange]" = []
        remaining = pages
        lists = self._free_lists
        top = self._top
        max_order = self.max_order
        fill = self._mask.fill
        mask = self._mask_bytes
        base = self.base
        # The open run [run_start, run_end): blocks that continue it are
        # joined, so callers get the reference's maximal runs.
        run_start = run_end = -1
        while remaining > 0:
            order = remaining.bit_length() - 1
            if order >= max_order and top.blocks:
                # Max-order hit, batched: between same-order takes
                # nothing is freed or split, so the reference loop would
                # take these same lowest blocks one by one.
                blocks = min(remaining >> max_order, top.blocks)
                pieces = top.take(blocks)
                for start, count in pieces:
                    fill(start - base, count, 0)
                self._free_frames -= blocks << max_order
            else:
                if order > max_order:
                    order = max_order
                want_order = order
                # Fragmentation fallback: drop to the largest order that
                # actually has a block (the reference scan).
                while order >= 0 and not lists[order]:
                    order -= 1
                if order >= 0:
                    bucket = lists[order]
                    start = min(bucket)
                    bucket.remove(start)
                    count = 1 << order
                else:
                    # Nothing free up to want_order: the reference splits
                    # the lowest block of the next non-empty order, and
                    # as every split leaves the lower orders empty again,
                    # it carves the whole remainder from that one block.
                    # The block's tail stays free as its aligned blocks.
                    start, order = self._pop_lowest(want_order + 1)
                    count = remaining
                    self._insert_blocks(
                        start - base + count, start - base + (1 << order)
                    )
                offset = start - base
                mask[offset:offset + count] = bytes(count)
                self._free_frames -= count
                pieces = ((start, count),)
            for start, count in pieces:
                remaining -= count
                if start == run_end:
                    run_end += count
                    continue
                if run_end >= 0:
                    granted.append(_unchecked(run_start, run_end - run_start))
                run_start = start
                run_end = start + count
        granted.append(_unchecked(run_start, run_end - run_start))
        return granted

    # ------------------------------------------------------------------
    # Free
    # ------------------------------------------------------------------

    def free_span(self, start: int, count: int) -> None:
        self._free_spans((_unchecked(start, count),))

    def _free_spans(self, ranges) -> None:
        """Sequential ``free_span`` over ``ranges``: identical state
        transitions and identical error points.  Each range takes one
        mask write, its max-order-aligned middle joins the runs in one
        insert, and only its edges coalesce block by block.  The result
        is the reference state, which depends only on the set of free
        frames (every free block is a maximal aligned free block)."""
        base = self.base
        total = self.total_frames
        mask = self._mask_bytes
        shift = self.max_order
        insert_blocks = self._insert_blocks
        for frame_range in ranges:
            start = frame_range.start
            count = frame_range.count
            if count <= 0:
                raise AllocationError("free count must be positive")
            offset = start - base
            end = offset + count
            if offset < 0 or end > total:
                raise AllocationError(
                    f"span [{start}, {start + count}) outside allocator"
                )
            if mask.find(1, offset, end) != -1:
                raise AllocationError(
                    f"double free within span [{start}, {start + count})"
                )
            if count < _BULK_FILL_FRAMES:
                mask[offset:end] = b"\x01" * count
            else:
                self._mask.fill(offset, count, 1)
            self._free_frames += count
            low = -(-offset >> shift) << shift
            high = end >> shift << shift
            if low < high:
                if offset < low:
                    insert_blocks(offset, low)
                self._top.insert(base + low, base + high)
                if high < end:
                    insert_blocks(high, end)
            else:
                insert_blocks(offset, end)

    def _insert_blocks(self, offset: int, end: int) -> None:
        """The reference block decomposition and buddy coalescing of
        the span-relative range ``[offset, end)``; a block that
        coalesces up to the max order joins the runs."""
        base = self.base
        lists = self._free_lists
        max_order = self.max_order
        while offset < end:
            order = min(
                max_order,
                (offset & -offset).bit_length() - 1 if offset else max_order,
                (end - offset).bit_length() - 1,
            )
            block = offset
            offset += 1 << order
            while order < max_order:
                bucket = lists[order]
                buddy = base + (block ^ (1 << order))
                if buddy not in bucket:
                    break
                bucket.remove(buddy)
                block &= ~(1 << order)
                order += 1
            if order < max_order:
                lists[order].add(base + block)
            else:
                self._top.insert(base + block, base + block + (1 << max_order))

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        self._top.check()
        super().check_invariants()

    def _mask_full(self, offset: int, count: int) -> bool:
        return self._mask_bytes.find(0, offset, offset + count) == -1

    def _mask_popcount(self) -> int:
        return self._mask.popcount()


class FastNode(MemoryNode):
    """:class:`MemoryNode` with the per-call zone bookkeeping hoisted.

    ``zones_for`` rebuilds a kind->zone dict on every allocation; the
    zone list is fixed once ``build_node`` returns, so the eligibility
    walk is memoised per page type.  ``free_ranges`` hands each run of
    consecutive same-zone ranges to the owning buddy's batched free
    instead of resolving the zone and ``free_span`` per range.
    """

    def zones_for(self, page_type):
        # Safe to memoise: zones are appended only inside build_node,
        # before the node is handed to any caller of zones_for.
        cache = self.__dict__.get("_zones_for_cache")
        if cache is None:
            cache = {}
            self._zones_for_cache = cache
        zones = cache.get(page_type)
        if zones is None:
            zones = super().zones_for(page_type)
            cache[page_type] = zones
        return zones

    def free_ranges(self, ranges) -> None:
        for zone in self.zones:
            if "free_span" in zone.buddy.__dict__:
                # A sanitizer free_span wrapper must see every range.
                super().free_ranges(ranges)
                return
        # Free chunk by chunk, in order: a failing range raises after
        # every range before it is freed, as the per-range walk would.
        chunk = []
        buddy = None
        low = high = 0
        for frame_range in ranges:
            start = frame_range.start
            if not low <= start < high:
                if chunk:
                    buddy._free_spans(chunk)
                    chunk = []
                buddy = self._zone_owning(start).buddy
                low = buddy.base
                high = low + buddy.total_frames
            chunk.append(frame_range)
        if chunk:
            buddy._free_spans(chunk)


def fast_build_node(node_id, tier, device, base_frame=0):
    """Drop-in ``build_node`` producing array-backed zones and nodes;
    substituted via the ``Hypervisor(node_builder=...)`` injection
    point when ``SimConfig.resolved_fast_path()`` is on."""
    return build_node(
        node_id,
        tier,
        device,
        base_frame,
        buddy_factory=FastBuddy,
        node_cls=FastNode,
    )


class FastSplitLru(SplitLru):
    """:class:`SplitLru` with O(1) active/inactive page counters.

    ``occupancy_snapshot`` reads ``active_pages``/``inactive_pages``
    once per node per sample; the baseline recomputes each with a full
    extent walk.  Here every membership or state transition adjusts two
    integers instead.  All transitions funnel through the overridden
    methods below; in-place ``extent.pages`` mutations (extent splits)
    arrive via :meth:`note_resized`.
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        self._active_page_count = 0
        self._inactive_page_count = 0

    def insert(self, extent: "PageExtent") -> None:
        super().insert(extent)
        self._active_page_count += extent.pages

    def remove(self, extent: "PageExtent") -> None:
        if extent.extent_id in self._active:
            self._active_page_count -= extent.pages
        elif extent.extent_id in self._inactive:
            self._inactive_page_count -= extent.pages
        super().remove(extent)

    def record_access(self, extent: "PageExtent") -> None:
        promoted = extent.extent_id in self._inactive
        super().record_access(extent)
        if promoted:
            pages = extent.pages
            self._inactive_page_count -= pages
            self._active_page_count += pages

    def deactivate(self, extent: "PageExtent") -> None:
        was_active = extent.extent_id in self._active
        super().deactivate(extent)
        if was_active:
            pages = extent.pages
            self._active_page_count -= pages
            self._inactive_page_count += pages

    def note_resized(self, extent: "PageExtent", delta_pages: int) -> None:
        if extent.extent_id in self._active:
            self._active_page_count += delta_pages
        elif extent.extent_id in self._inactive:
            self._inactive_page_count += delta_pages

    @property
    def active_pages(self) -> int:
        return self._active_page_count

    @property
    def inactive_pages(self) -> int:
        return self._inactive_page_count


class DemandAccumulator:
    """Flat per-device demand columns, indexed by first-touch order.

    One list per :data:`DEVICE_DEMAND_FIELDS` entry replaces the
    reference chain of frozen ``DeviceDemand`` merges.  In-place ``+=``
    in the same visit order produces the same left-associated float
    sums, and first-touch indexing reproduces the reference dict's
    insertion order, so :meth:`demands` materialises a bit-identical
    mapping.
    """

    __slots__ = ("devices", "index", "reads", "writes", "traffic")

    def __init__(self) -> None:
        self.devices = []
        self.index = {}
        self.reads = []
        self.writes = []
        self.traffic = []

    def add(self, device, read_misses, write_misses, traffic_bytes) -> None:
        # Indexed by identity, not value: a MemoryDevice dataclass hash
        # walks every field, and callers (fast_memory_demands) already
        # canonicalise equal devices to one instance.
        position = self.index.get(id(device))
        if position is None:
            self.index[id(device)] = len(self.devices)
            self.devices.append(device)
            self.reads.append(read_misses)
            self.writes.append(write_misses)
            self.traffic.append(traffic_bytes)
        else:
            self.reads[position] += read_misses
            self.writes[position] += write_misses
            self.traffic[position] += traffic_bytes

    def demands(self) -> "dict":
        columns = (self.reads, self.writes, self.traffic)
        return {
            device: DeviceDemand(
                **dict(
                    zip(
                        DEVICE_DEMAND_FIELDS,
                        (column[position] for column in columns),
                    )
                )
            )
            for position, device in enumerate(self.devices)
        }


def fast_memory_demands(engine: "SimulationEngine", demand: "EpochDemand"):
    """Array-backed twin of ``SimulationEngine._memory_demands``.

    Identical structure and visit order; two changes, neither visible
    in the result: the per-(region, device) frozen ``DeviceDemand``
    merge chain becomes in-place column adds in a
    :class:`DemandAccumulator`, and device dicts are keyed by identity
    over a canonicalised device set instead of by the field-walking
    dataclass hash.  Float additions keep the reference's
    left-associated order, and wear recording stays inside the inner
    loop, in the same order, with the same expression.  Pinned by
    tests/test_fast_equivalence.py.
    """
    kernel = engine.kernel
    nodes = kernel.nodes
    slowest = engine._slowest_device
    region_specs = engine.region_specs
    # Canonicalise the device universe once so the per-extent and
    # per-miss bookkeeping can key dicts by id() instead of the
    # field-walking dataclass hash.  Distinct-but-equal instances (which
    # the reference dict would merge) collapse to one representative
    # here, keeping the merge semantics identical.
    canonical = {}
    by_value = {}
    for node in nodes.values():
        device = node.device
        canonical[id(device)] = by_value.setdefault(device, device)
    canonical[id(slowest)] = by_value.setdefault(slowest, slowest)
    region_ids = kernel.regions
    extent_map = kernel.extents
    region_accesses: "list[RegionAccess]" = []
    placements = {}
    for region_id, (reads, writes) in demand.accesses.items():
        # Inlined kernel.has_region + kernel.region_extents (the maps
        # are plain dicts; the method round trips dominate at this
        # call rate).
        extent_ids = region_ids.get(region_id)
        if extent_ids is None:
            continue
        spec = region_specs.get(region_id)
        if spec is None:
            continue
        extents = [extent_map[eid] for eid in extent_ids]
        if len(extents) == 1:
            pages = extents[0].pages
        else:
            pages = sum(extent.pages for extent in extents)
        if pages == 0:
            continue
        region_accesses.append(
            _region_access(
                region_id,
                pages * PAGE_SIZE,
                reads,
                writes,
                spec.reuse,
                spec.bytes_per_miss,
            )
        )
        fractions = {}
        for extent in extents:
            device = canonical[
                id(slowest if extent.swapped else nodes[extent.node_id].device)
            ]
            entry = fractions.get(id(device))
            if entry is None:
                fractions[id(device)] = [device, extent.pages / pages]
            else:
                entry[1] = entry[1] + (extent.pages / pages)
        placements[region_id] = list(fractions.values())

    accumulator = DemandAccumulator()
    add = accumulator.add
    wear_record = engine.wear.record
    llc_misses = 0.0
    for (
        misses_region_id,
        read_misses,
        write_misses,
        traffic_bytes,
        bytes_per_miss,
        misses_total,
    ) in _fast_apportion(engine.cache, region_accesses):
        llc_misses += misses_total
        for device, fraction in placements[misses_region_id]:
            add(
                device,
                read_misses * fraction,
                write_misses * fraction,
                traffic_bytes * fraction,
            )
            # Endurance accounting: dirty-line writebacks are the
            # device's wear (2x per write miss: fill + writeback).
            wear_record(
                device,
                write_misses * fraction * bytes_per_miss * 2.0,
            )
    return accumulator.demands(), llc_misses
