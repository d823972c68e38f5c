"""Binary buddy allocator over a frame span.

The Linux page allocator HeteroOS extends.  Blocks are power-of-two sized
and naturally aligned relative to the span base; freeing coalesces with
the buddy block recursively.

Two entry points matter to callers:

* :meth:`allocate_pages` — decompose an arbitrary page count into buddy
  blocks, falling back to smaller orders under fragmentation and rolling
  back cleanly when the request cannot be satisfied.  Contiguous blocks
  are returned joined, as maximal runs.
* :meth:`free_span` — return *any* previously-allocated range, including
  fragments produced by the per-CPU free lists.  A frame bitmask makes
  double frees and frees of never-allocated frames hard errors.
"""

from __future__ import annotations

from repro.errors import AllocationError, OutOfMemoryError
from repro.mem.frames import FrameRange

MAX_ORDER = 10  # Linux's default: blocks up to 2^10 = 1024 pages (4 MiB).


class BuddyAllocator:
    """Classic binary buddy allocator with arbitrary-span frees.

    Parameters
    ----------
    base:
        First frame number of the managed span.
    frames:
        Span length in frames (any positive integer; a non-power-of-two
        tail is handled by seeding multiple maximal blocks).
    max_order:
        Largest block order.
    """

    def __init__(self, base: int, frames: int, max_order: int = MAX_ORDER) -> None:
        if frames <= 0:
            raise AllocationError("buddy span must contain at least one frame")
        if max_order < 0:
            raise AllocationError("max_order must be non-negative")
        self.base = base
        self.total_frames = frames
        self.max_order = max_order
        #: order -> set of free block start frames (absolute).
        self._free_lists: list[set[int]] = [set() for _ in range(max_order + 1)]
        self._free_frames = 0
        #: Bit i set == frame (base + i) is free.  Exact double-free guard.
        self._free_mask = 0
        self._insert_span(base, frames)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def free_frames(self) -> int:
        return self._free_frames

    @property
    def allocated_frames(self) -> int:
        return self.total_frames - self._free_frames

    def largest_free_order(self) -> int:
        """Largest order with a free block, or -1 when empty."""
        for order in range(self.max_order, -1, -1):
            if self._free_lists[order]:
                return order
        return -1

    def is_free(self, frame: int) -> bool:
        """Whether a single frame is currently free."""
        offset = frame - self.base
        if not 0 <= offset < self.total_frames:
            raise AllocationError(f"frame {frame} outside span")
        return self._mask_full(offset, 1)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate_block(self, order: int) -> FrameRange:
        """Allocate one block of exactly ``2**order`` frames."""
        if not 0 <= order <= self.max_order:
            raise AllocationError(f"order {order} out of range")
        source = order
        while source <= self.max_order and not self._free_lists[source]:
            source += 1
        if source > self.max_order:
            raise OutOfMemoryError(
                f"no free block of order >= {order} "
                f"({self._free_frames} frames free)"
            )
        start = min(self._free_lists[source])
        self._free_lists[source].discard(start)
        # Split down to the requested order, freeing the upper halves.
        while source > order:
            source -= 1
            buddy = start + (1 << source)
            self._free_lists[source].add(buddy)
        count = 1 << order
        self._free_frames -= count
        self._mask_clear(start, count)
        return FrameRange(start, count)

    def allocate_pages(self, pages: int) -> list[FrameRange]:
        """Allocate ``pages`` frames as buddy blocks (largest-first),
        returned as maximal runs: contiguous blocks are joined.

        Falls back to smaller orders under fragmentation; on failure the
        partial allocation is rolled back and the allocator is unchanged.
        """
        if pages <= 0:
            raise AllocationError(f"page count must be positive: {pages}")
        if pages > self._free_frames:
            raise OutOfMemoryError(
                f"requested {pages} pages, only {self._free_frames} free"
            )
        granted: list[FrameRange] = []
        remaining = pages
        try:
            while remaining > 0:
                want_order = min(self.max_order, remaining.bit_length() - 1)
                order = want_order
                # Prefer the largest available order not exceeding the
                # need; when fragmentation leaves nothing small, split a
                # larger block (allocate_block handles the split).
                while order >= 0 and not self._free_lists[order]:
                    order -= 1
                if order < 0:
                    order = want_order
                block = self.allocate_block(order)
                remaining -= block.count
                if granted and granted[-1].end == block.start:
                    head = granted.pop()
                    block = FrameRange(head.start, head.count + block.count)
                granted.append(block)
        except OutOfMemoryError:
            for block in granted:
                self.free_span(block.start, block.count)
            raise
        return granted

    # ------------------------------------------------------------------
    # Free
    # ------------------------------------------------------------------

    def free_span(self, start: int, count: int) -> None:
        """Free ``count`` frames at ``start``; every frame must currently
        be allocated.  Accepts fragments of original blocks; reinserts
        maximal aligned blocks and coalesces with free buddies."""
        if count <= 0:
            raise AllocationError("free count must be positive")
        offset = start - self.base
        if offset < 0 or offset + count > self.total_frames:
            raise AllocationError(
                f"span [{start}, {start + count}) outside allocator"
            )
        window = ((1 << count) - 1) << offset
        if self._free_mask & window:
            raise AllocationError(
                f"double free within span [{start}, {start + count})"
            )
        self._insert_span(start, count)

    def free_range(self, frame_range: FrameRange) -> None:
        """Convenience wrapper over :meth:`free_span`."""
        self.free_span(frame_range.start, frame_range.count)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _insert_span(self, start: int, count: int) -> None:
        """Insert a free span as maximal aligned blocks, coalescing up."""
        self._mask_set(start, count)
        self._free_frames += count
        cursor = start
        remaining = count
        while remaining > 0:
            offset = cursor - self.base
            align_order = (
                (offset & -offset).bit_length() - 1 if offset else self.max_order
            )
            size_order = remaining.bit_length() - 1
            order = min(self.max_order, align_order, size_order)
            self._coalesce_insert(cursor, order)
            cursor += 1 << order
            remaining -= 1 << order

    def _coalesce_insert(self, start: int, order: int) -> None:
        """Add a free block, merging with its buddy while possible."""
        while order < self.max_order:
            offset = start - self.base
            buddy = self.base + (offset ^ (1 << order))
            if buddy not in self._free_lists[order]:
                break
            self._free_lists[order].discard(buddy)
            start = min(start, buddy)
            order += 1
        self._free_lists[order].add(start)

    def _mask_full(self, offset: int, count: int) -> bool:
        """Whether every frame in ``[offset, offset + count)`` (span
        relative) is free."""
        window = ((1 << count) - 1) << offset
        return self._free_mask & window == window

    def _mask_popcount(self) -> int:
        return bin(self._free_mask).count("1")

    def _mask_set(self, start: int, count: int) -> None:
        self._free_mask |= ((1 << count) - 1) << (start - self.base)

    def _mask_clear(self, start: int, count: int) -> None:
        self._free_mask &= ~(((1 << count) - 1) << (start - self.base))

    def check_invariants(self) -> None:
        """Free lists must be aligned, disjoint, mask-consistent."""
        total_free = 0
        seen: list[tuple[int, int]] = []
        for order, starts in enumerate(self._free_lists):
            size = 1 << order
            for block_start in starts:
                if (block_start - self.base) % size != 0:
                    raise AllocationError(
                        f"misaligned free block at {block_start} order {order}"
                    )
                if not self._mask_full(block_start - self.base, size):
                    raise AllocationError("free list and mask disagree")
                seen.append((block_start, block_start + size))
                total_free += size
        seen.sort()
        for (_, end_a), (start_b, _) in zip(seen, seen[1:]):
            if end_a > start_b:
                raise AllocationError("overlapping free blocks")
        if total_free != self._free_frames:
            raise AllocationError(
                f"free accounting mismatch: {total_free} != {self._free_frames}"
            )
        if self._mask_popcount() != self._free_frames:
            raise AllocationError("mask population does not match free count")
