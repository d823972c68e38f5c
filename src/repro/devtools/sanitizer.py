"""FrameSanitizer — ASan-style runtime checker for frame ownership.

DESIGN.md's ownership invariant: every machine frame has exactly one
owner at a time among buddy/slab/LRU-resident extents/migration.  The
sanitizer keeps an *independent* shadow record of who owns what —
big-integer bitmasks per address space, exactly like the buddy
allocator's own free mask but fed from intercepted events — so that a
bookkeeping bug in any one subsystem is caught by cross-checking rather
than trusted.

Defect classes detected:

* **double-free** — freeing frames that were already freed;
* **invalid-free** — freeing frames never allocated (wild pointer);
* **use-after-free** — touching an extent whose frames were freed;
* **leak** — frames still owned when the caller asserts teardown, or
  owned by nobody the kernel can account for (reconcile);
* **ownership-race** — a migration left the source frames owned, or
  handed the destination frames to two owners.

Enable in a simulation with ``SimConfig(sanitize=True)`` (the engine
attaches hooks to every zone buddy allocator, the slab caches, region
touches, and extent moves) or drive the event API directly in tests.
Hooks wrap *instances*, never classes, and :meth:`detach` restores them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import SanitizerError

__all__ = ["FrameSanitizer", "SanitizerReport"]


@dataclass(frozen=True)
class SanitizerReport:
    """One detected frame-ownership violation."""

    kind: str
    space: str
    owner: str
    start: int
    count: int
    detail: str = ""

    @property
    def rule_id(self) -> str:
        """The defect class in the shared rule-ID namespace (``san-``
        prefix; see docs/devtools.md)."""
        return f"san-{self.kind}"

    def format(self) -> str:
        span = f"[{self.start}, {self.start + self.count})"
        text = (
            f"{self.kind}: {self.count} frame(s) {span} "
            f"(space {self.space!r}, owner {self.owner!r})"
        )
        if self.detail:
            text += f": {self.detail}"
        return text

    def to_dict(self) -> dict:
        return {
            "rule": self.rule_id,
            "kind": self.kind,
            "space": self.space,
            "owner": self.owner,
            "start": self.start,
            "count": self.count,
            "detail": self.detail,
        }


@dataclass
class _Space:
    """Shadow state for one frame address space (guest, machine, ...)."""

    #: Bit f set == frame f currently owned by someone.
    owned: int = 0
    #: Bit f set == frame f was allocated at least once (distinguishes
    #: double-free from invalid-free).
    ever: int = 0
    #: owner label -> bitmask of frames attributed to that owner.
    owners: "dict[str, int]" = field(default_factory=dict)


def _window(start: int, count: int) -> int:
    return ((1 << count) - 1) << start


def _runs(mask: int) -> "Iterator[tuple[int, int]]":
    """Contiguous (start, count) runs of set bits, ascending."""
    while mask:
        low = (mask & -mask).bit_length() - 1
        shifted = mask >> low
        count = (~shifted & -~shifted).bit_length() - 1
        yield low, count
        mask &= ~_window(low, count)


class FrameSanitizer:
    """Event-driven shadow frame-ownership tracker.

    ``strict=True`` raises :class:`SanitizerError` at the first
    violation; otherwise violations accumulate in :attr:`reports`.
    """

    def __init__(self, strict: bool = False) -> None:
        self.strict = strict
        self.reports: "list[SanitizerReport]" = []
        self.events = 0
        self._spaces: "dict[str, _Space]" = {}
        #: (object, attribute name) pairs whose wrappers we installed.
        self._wrapped: "list[tuple[object, str]]" = []
        #: slab cache name -> set of live object handles.
        self._slab_live: "dict[str, set]" = {}

    # ------------------------------------------------------------------
    # Event API (what the hooks — and the defect-class tests — drive)
    # ------------------------------------------------------------------

    def _space(self, space: str) -> _Space:
        return self._spaces.setdefault(space, _Space())

    def _report(
        self,
        kind: str,
        space: str,
        owner: str,
        start: int,
        count: int,
        detail: str = "",
    ) -> None:
        report = SanitizerReport(kind, space, owner, start, count, detail)
        self.reports.append(report)
        if self.strict:
            raise SanitizerError(report.format())

    def on_alloc(
        self, owner: str, start: int, count: int, space: str = "guest"
    ) -> None:
        """Frames granted to ``owner``; must be unowned."""
        self.events += 1
        state = self._space(space)
        window = _window(start, count)
        clash = state.owned & window
        for run_start, run_count in _runs(clash):
            self._report(
                "ownership-race", space, owner, run_start, run_count,
                "allocation of frames another owner still holds",
            )
        state.owned |= window
        state.ever |= window
        state.owners[owner] = state.owners.get(owner, 0) | window

    def on_free(
        self, owner: str, start: int, count: int, space: str = "guest"
    ) -> None:
        """Frames returned by ``owner``; must currently be owned."""
        self.events += 1
        state = self._space(space)
        window = _window(start, count)
        unowned = window & ~state.owned
        for run_start, run_count in _runs(unowned & state.ever):
            self._report(
                "double-free", space, owner, run_start, run_count,
                "frames were already freed",
            )
        for run_start, run_count in _runs(unowned & ~state.ever):
            self._report(
                "invalid-free", space, owner, run_start, run_count,
                "frames were never allocated",
            )
        state.owned &= ~window
        for label in state.owners:
            state.owners[label] &= ~window

    def on_use(
        self, owner: str, start: int, count: int, space: str = "guest"
    ) -> None:
        """``owner`` touched frames; they must currently be owned."""
        self.events += 1
        state = self._space(space)
        window = _window(start, count)
        dangling = window & ~state.owned
        for run_start, run_count in _runs(dangling):
            self._report(
                "use-after-free", space, owner, run_start, run_count,
                "access to frames not currently allocated",
            )

    def on_transfer(
        self,
        old_owner: str,
        new_owner: str,
        start: int,
        count: int,
        space: str = "guest",
    ) -> None:
        """Migration handed frames from ``old_owner`` to ``new_owner``.

        The frames must be owned, and attributed to ``old_owner`` —
        anything else means two parties raced for the same frames while
        an extent was in flight.
        """
        self.events += 1
        state = self._space(space)
        window = _window(start, count)
        held = state.owners.get(old_owner, 0)
        stolen = window & ~held
        for run_start, run_count in _runs(stolen):
            self._report(
                "ownership-race", space, new_owner, run_start, run_count,
                f"transfer of frames {old_owner!r} does not own",
            )
        state.owned |= window
        state.ever |= window
        state.owners[old_owner] = held & ~window
        state.owners[new_owner] = state.owners.get(new_owner, 0) | window

    def check_leaks(self, space: "str | None" = None) -> "list[SanitizerReport]":
        """Assert teardown: any frames still owned are leaks.  Returns
        the new reports."""
        before = len(self.reports)
        spaces = [space] if space is not None else sorted(self._spaces)
        for name in spaces:
            state = self._space(name)
            remaining = state.owned
            blamed = 0
            for label in sorted(state.owners):
                for run_start, run_count in _runs(state.owners[label] & remaining):
                    self._report(
                        "leak", name, label, run_start, run_count,
                        "frames still owned at teardown",
                    )
                blamed |= state.owners[label]
            for run_start, run_count in _runs(remaining & ~blamed):
                self._report(
                    "leak", name, "<unattributed>", run_start, run_count,
                    "frames still owned at teardown",
                )
        return self.reports[before:]

    # ------------------------------------------------------------------
    # Instance hooks
    # ------------------------------------------------------------------

    def _wrap(self, obj: object, name: str, wrapper) -> None:
        setattr(obj, name, wrapper)
        self._wrapped.append((obj, name))

    def detach(self) -> None:
        """Remove every installed wrapper, restoring original methods."""
        while self._wrapped:
            obj, name = self._wrapped.pop()
            obj.__dict__.pop(name, None)

    def attach_buddy(
        self, buddy, owner: str, space: str = "guest"
    ) -> None:
        """Hook a :class:`~repro.guestos.buddy.BuddyAllocator` instance at
        its range-level entry points, so a sanitized run grants and
        frees through the same allocator code as an unsanitized one.

        ``allocate_block`` and ``allocate_pages`` cover every allocation
        path and ``free_ranges`` every free path (``free_span`` and
        ``free_range`` delegate to it).
        """
        orig_block = buddy.allocate_block
        orig_pages = buddy.allocate_pages
        orig_free = buddy.free_ranges

        def allocate_block(order: int):
            block = orig_block(order)
            self.on_alloc(owner, block.start, block.count, space=space)
            return block

        def allocate_pages(pages: int):
            granted = orig_pages(pages)
            for frame_range in granted:
                self.on_alloc(
                    owner, frame_range.start, frame_range.count, space=space
                )
            return granted

        def free_ranges(ranges) -> None:
            ranges = list(ranges)
            for frame_range in ranges:
                self.on_free(
                    owner, frame_range.start, frame_range.count, space=space
                )
            orig_free(ranges)

        self._wrap(buddy, "allocate_block", allocate_block)
        self._wrap(buddy, "allocate_pages", allocate_pages)
        self._wrap(buddy, "free_ranges", free_ranges)

    def attach_pool(self, pool, space: str = "machine") -> None:
        """Hook a :class:`~repro.mem.frames.FramePool` instance
        (``allocate_scattered`` delegates to ``allocate``)."""
        owner = f"pool:{pool.name}"
        orig_alloc = pool.allocate
        orig_free = pool.free

        def allocate(count: int):
            taken = orig_alloc(count)
            self.on_alloc(owner, taken.start, taken.count, space=space)
            return taken

        def free(frame_range) -> None:
            self.on_free(owner, frame_range.start, frame_range.count, space=space)
            orig_free(frame_range)

        self._wrap(pool, "allocate", allocate)
        self._wrap(pool, "free", free)

    def attach_slab(self, cache) -> None:
        """Hook a :class:`~repro.guestos.slab.SlabCache` instance at
        object granularity (its backing pages are covered by the buddy
        hooks)."""
        live = self._slab_live.setdefault(cache.name, set())
        orig_alloc = cache.allocate
        orig_free = cache.free

        def allocate():
            handle = orig_alloc()
            self.events += 1
            live.add(handle)
            return handle

        def free(handle) -> None:
            self.events += 1
            if handle not in live:
                self._report(
                    "double-free", "slab", f"slab:{cache.name}",
                    handle[0], 1,
                    f"slab object {handle!r} freed twice or never allocated",
                )
            live.discard(handle)
            orig_free(handle)

        self._wrap(cache, "allocate", allocate)
        self._wrap(cache, "free", free)

    def check_slab_leaks(self) -> "list[SanitizerReport]":
        """Report slab objects still live (call at teardown)."""
        before = len(self.reports)
        for name in sorted(self._slab_live):
            for handle in sorted(self._slab_live[name]):
                self._report(
                    "leak", "slab", f"slab:{name}", handle[0], 1,
                    f"slab object {handle!r} never freed",
                )
        return self.reports[before:]

    def attach_kernel(self, kernel, space: str = "guest") -> None:
        """Hook a whole :class:`~repro.guestos.kernel.GuestKernel`: every
        zone buddy, every slab cache, region touches (use-after-free),
        and extent moves (migration ownership races)."""
        for node_id in sorted(kernel.nodes):
            node = kernel.nodes[node_id]
            for zone in node.zones:
                self.attach_buddy(
                    zone.buddy,
                    owner=f"node{node_id}:{zone.kind.value}",
                    space=space,
                )
        for cache_name in sorted(kernel.slab.caches):
            self.attach_slab(kernel.slab.caches[cache_name])

        orig_touch = kernel.touch_region
        orig_move = kernel.move_extent

        def touch_region(region_id: str, accesses, **kwargs) -> None:
            for extent in kernel.region_extents(region_id):
                if extent.swapped:
                    continue
                for frame_range in extent.frames:
                    self.on_use(
                        f"extent:{extent.extent_id}",
                        frame_range.start,
                        frame_range.count,
                        space=space,
                    )
            orig_touch(region_id, accesses, **kwargs)

        def move_extent(extent, target_node_id: int) -> int:
            old_node = extent.node_id
            old_frames = [(fr.start, fr.count) for fr in extent.frames]
            moved = orig_move(extent, target_node_id)
            if moved:
                state = self._space(space)
                for start, count in old_frames:
                    window = _window(start, count)
                    still = window & state.owned
                    for run_start, run_count in _runs(still):
                        self._report(
                            "ownership-race", space,
                            f"extent:{extent.extent_id}",
                            run_start, run_count,
                            f"source frames on node {old_node} still owned "
                            "after migration",
                        )
                for frame_range in extent.frames:
                    window = _window(frame_range.start, frame_range.count)
                    missing = window & ~state.owned
                    for run_start, run_count in _runs(missing):
                        self._report(
                            "ownership-race", space,
                            f"extent:{extent.extent_id}",
                            run_start, run_count,
                            f"destination frames on node {target_node_id} "
                            "not allocated after migration",
                        )
            return moved

        self._wrap(kernel, "touch_region", touch_region)
        self._wrap(kernel, "move_extent", move_extent)

    def attach_migration(self, engine, kernel, space: str = "guest") -> None:
        """Hook a :class:`~repro.vmm.migration.MigrationEngine` so that
        every pass is bracketed and the per-move checks installed by
        :meth:`attach_kernel` run under a migration context label."""
        if kernel.__dict__.get("move_extent") is None:
            # Ensure the per-move transfer checks exist even when the
            # caller attached only the engine.
            self.attach_kernel(kernel, space=space)
        orig_migrate = engine.migrate

        def migrate(*args, **kwargs):
            self.events += 1
            return orig_migrate(*args, **kwargs)

        self._wrap(engine, "migrate", migrate)

    # ------------------------------------------------------------------
    # Teardown reconciliation
    # ------------------------------------------------------------------

    def reconcile(self, kernel, space: str = "guest") -> "list[SanitizerReport]":
        """Cross-check the shadow state against what the kernel can
        account for.  Frames the shadow says are allocated but no live
        extent / per-CPU cache / balloon stash claims are **leaks**;
        frames a live extent claims but the shadow says are free are
        **use-after-free** (the extent holds dangling frames)."""
        before = len(self.reports)
        state = self._space(space)
        accounted = 0
        for extent in kernel.extents.values():
            if extent.swapped:
                continue
            for frame_range in extent.frames:
                window = _window(frame_range.start, frame_range.count)
                dangling = window & ~state.owned
                for run_start, run_count in _runs(dangling):
                    self._report(
                        "use-after-free", space,
                        f"extent:{extent.extent_id}",
                        run_start, run_count,
                        "live extent holds frames the shadow says are free",
                    )
                accounted |= window
        for node_id in sorted(kernel.nodes):
            for frame_range in kernel.percpu.iter_cached_ranges(node_id):
                accounted |= _window(frame_range.start, frame_range.count)
            for frame_range in kernel.hidden_ranges(node_id):
                accounted |= _window(frame_range.start, frame_range.count)
        leaked = state.owned & ~accounted
        for run_start, run_count in _runs(leaked):
            self._report(
                "leak", space, "<unaccounted>", run_start, run_count,
                "shadow-allocated frames no kernel owner accounts for",
            )
        return self.reports[before:]
