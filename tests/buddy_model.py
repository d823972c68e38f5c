"""A block-at-a-time binary buddy allocator: the test oracle for
:class:`repro.guestos.buddy.BuddyAllocator`.

Free blocks are per-order sets of span-relative starts and the free
frames one Python set.  ``allocate_pages`` takes one block per step —
the largest order with a block not exceeding what is left, else the
lowest block of the wanted order, split down — and joins contiguous
blocks into runs.  The production allocator batches and carves the same
grants; the property tests require the same frames in the same order,
because callers cut granted ranges by position.
"""

from __future__ import annotations

from repro.errors import AllocationError, OutOfMemoryError
from repro.guestos.buddy import MAX_ORDER
from repro.mem.frames import FrameRange


class BuddyModel:
    def __init__(self, base: int, frames: int, max_order: int = MAX_ORDER) -> None:
        self.base = base
        self.total_frames = frames
        self.max_order = max_order
        self.lists = [set() for _ in range(max_order + 1)]
        self.free = set()
        self._insert(0, frames)

    @property
    def free_frames(self) -> int:
        return len(self.free)

    def largest_free_order(self) -> int:
        return max((o for o, starts in enumerate(self.lists) if starts), default=-1)

    def is_free(self, frame: int) -> bool:
        return frame - self.base in self.free

    def _insert(self, offset: int, count: int) -> None:
        self.free.update(range(offset, offset + count))
        end = offset + count
        while offset < end:
            order = min(
                self.max_order,
                (offset & -offset).bit_length() - 1 if offset else self.max_order,
                (end - offset).bit_length() - 1,
            )
            block = offset
            offset += 1 << order
            while order < self.max_order and block ^ (1 << order) in self.lists[order]:
                self.lists[order].remove(block ^ (1 << order))
                block &= ~(1 << order)
                order += 1
            self.lists[order].add(block)

    def _take(self, order: int) -> int:
        source = order
        while not self.lists[source]:
            source += 1
        start = min(self.lists[source])
        self.lists[source].remove(start)
        while source > order:
            source -= 1
            self.lists[source].add(start + (1 << source))
        self.free.difference_update(range(start, start + (1 << order)))
        return start

    def allocate_pages(self, pages: int) -> "list[FrameRange]":
        if pages > len(self.free):
            raise OutOfMemoryError(f"requested {pages} pages")
        runs: "list[list[int]]" = []
        while pages:
            want = min(self.max_order, pages.bit_length() - 1)
            order = next((o for o in range(want, -1, -1) if self.lists[o]), want)
            start = self._take(order)
            pages -= 1 << order
            if runs and sum(runs[-1]) == start:
                runs[-1][1] += 1 << order
            else:
                runs.append([start, 1 << order])
        return [FrameRange(self.base + start, count) for start, count in runs]

    def free_span(self, start: int, count: int) -> None:
        offset = start - self.base
        if offset < 0 or offset + count > self.total_frames:
            raise AllocationError("outside span")
        if not self.free.isdisjoint(range(offset, offset + count)):
            raise AllocationError("double free")
        self._insert(offset, count)
