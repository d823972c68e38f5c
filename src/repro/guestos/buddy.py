"""Binary buddy allocator over a frame span.

The Linux page allocator HeteroOS extends.  Blocks are power-of-two sized
and naturally aligned relative to the span base; freeing coalesces with
the buddy block recursively.

Three entry points matter to callers:

* :meth:`BuddyAllocator.allocate_pages` — decompose an arbitrary page
  count into buddy blocks, largest first, falling back to smaller
  orders under fragmentation.  Contiguous blocks are returned joined,
  as maximal runs.
* :meth:`BuddyAllocator.free_ranges` / :meth:`BuddyAllocator.free_span`
  — return *any* previously-allocated ranges, including fragments
  produced by the per-CPU free lists.  A byte-per-frame free map makes
  double frees and frees of never-allocated frames hard errors.
* :meth:`BuddyAllocator.allocate_block` — one block of an exact order.

The free lists below the max order are per-order sets of block starts
(they stay short, so ``min()`` is cheap).  The max-order free list is a
:class:`_BlockRuns` of sorted contiguous runs, so a batch of max-order
blocks is granted, and a freed span's max-order middle inserted, in
O(runs) instead of O(blocks).  Grants are the blocks a block-at-a-time
buddy allocator would pick (lowest start first within an order), joined
into runs; ``tests/buddy_model.py`` is that allocator, and the property
tests pin the two to the same frames in the same order.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.errors import AllocationError, OutOfMemoryError
from repro.mem.frames import FrameRange

MAX_ORDER = 10  # Linux's default: blocks up to 2^10 = 1024 pages (4 MiB).

# Hot-loop alias: granted runs are valid by construction.
_unchecked = FrameRange.unchecked


class _BlockRuns:
    """The free list of the top order: free max-order blocks kept as
    sorted, disjoint, never-adjacent runs ``[starts[i], ends[i])``.

    Its length is the number of free blocks and iterating it yields
    their starts, so code that reads ``_free_lists[max_order]`` as a
    collection of block starts works on it unchanged.  The lowest free
    block is ``starts[0]``.
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
        index = bisect_left(starts, start)
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


class BuddyAllocator:
    """Binary buddy allocator with arbitrary-span frees, granting and
    freeing contiguous runs.

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
        self._top = _BlockRuns(max_order)
        #: order -> free block starts (absolute); the top order is runs.
        self._free_lists = [*(set() for _ in range(max_order)), self._top]
        self._free_frames = frames
        #: ``_mask[i]`` is 1 iff frame ``base + i`` is free: the exact
        #: double-free guard.  Slice assignment never reallocates it.
        #: Built all-free in place: a ``b"\x01" * frames`` temporary
        #: would double the span's peak memory.
        self._mask = bytearray(b"\x01") * frames
        whole = frames >> max_order << max_order
        if whole:
            self._top.insert(base, base + whole)
        self._insert_blocks(whole, frames)

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
        return self._mask[offset] == 1

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    def allocate_block(self, order: int) -> FrameRange:
        """Allocate one block of exactly ``2**order`` frames."""
        if not 0 <= order <= self.max_order:
            raise AllocationError(f"order {order} out of range")
        start, source = self._pop_lowest(order)
        lists = self._free_lists
        # Split down to the requested order, freeing the upper halves.
        while source > order:
            source -= 1
            lists[source].add(start + (1 << source))
        count = 1 << order
        self._free_frames -= count
        offset = start - self.base
        self._mask[offset:offset + count] = bytes(count)
        return _unchecked(start, count)

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
        """Allocate ``pages`` frames as buddy blocks (largest-first),
        returned as maximal runs: contiguous blocks are joined.

        Falls back to smaller orders under fragmentation.  A request
        within the free frames always succeeds: when no order up to the
        one wanted has a block, a larger block exists to split.
        """
        if pages <= 0:
            raise AllocationError(f"page count must be positive: {pages}")
        if pages > self._free_frames:
            raise OutOfMemoryError(
                f"requested {pages} pages, only {self._free_frames} free"
            )
        granted: "list[FrameRange]" = []
        remaining = pages
        lists = self._free_lists
        top = self._top
        max_order = self.max_order
        mask = self._mask
        base = self.base
        # The open run [run_start, run_end): blocks that continue it are
        # joined, so callers get maximal runs.
        run_start = run_end = -1
        while remaining > 0:
            order = remaining.bit_length() - 1
            if order >= max_order and top.blocks:
                # Max-order hit, batched: between same-order takes
                # nothing is freed or split, so a block-at-a-time loop
                # would take these same lowest blocks one by one.
                blocks = min(remaining >> max_order, top.blocks)
                pieces = top.take(blocks)
                for start, count in pieces:
                    mask[start - base:start - base + count] = bytes(count)
                self._free_frames -= blocks << max_order
            else:
                if order > max_order:
                    order = max_order
                want_order = order
                # Fragmentation fallback: drop to the largest order that
                # actually has a block.
                while order >= 0 and not lists[order]:
                    order -= 1
                if order >= 0:
                    bucket = lists[order]
                    start = min(bucket)
                    bucket.remove(start)
                    count = 1 << order
                else:
                    # Nothing free up to want_order: split the lowest
                    # block of the next non-empty order.  Every split
                    # leaves the lower orders empty again, so the whole
                    # remainder is carved from that one block, and its
                    # tail stays free as its aligned blocks.
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
        """Free ``count`` frames at ``start``; every frame must currently
        be allocated.  Accepts fragments of original blocks; reinserts
        maximal aligned blocks and coalesces with free buddies."""
        self.free_ranges((_unchecked(start, count),))

    def free_range(self, frame_range: FrameRange) -> None:
        """Convenience wrapper over :meth:`free_span`."""
        self.free_span(frame_range.start, frame_range.count)

    def free_ranges(self, ranges) -> None:
        """Free each range in order, as :meth:`free_span` would: a
        failing range raises after every range before it is freed.

        Each range takes one mask write, its max-order-aligned middle
        joins the runs in one insert, and only its edges coalesce block
        by block.  The resulting free lists depend only on the set of
        free frames (every free block is a maximal aligned free block)."""
        base = self.base
        total = self.total_frames
        mask = self._mask
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
            mask[offset:end] = b"\x01" * count
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
        """Decompose the span-relative range ``[offset, end)`` into
        maximal aligned blocks and coalesce each with its free buddies;
        a block that coalesces up to the max order joins the runs."""
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
        """Free lists must be aligned, disjoint, mask-consistent."""
        self._top.check()
        total_free = 0
        seen: "list[tuple[int, int]]" = []
        for order, starts in enumerate(self._free_lists):
            size = 1 << order
            for block_start in starts:
                offset = block_start - self.base
                if offset % size != 0:
                    raise AllocationError(
                        f"misaligned free block at {block_start} order {order}"
                    )
                if self._mask.find(0, offset, offset + size) != -1:
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
        if sum(self._mask) != self._free_frames:
            raise AllocationError("mask population does not match free count")
