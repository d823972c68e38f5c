"""Analytic last-level cache model.

A cycle-accurate cache is neither feasible nor needed here (the paper
itself argues cycle-accurate simulation is impractical for these
workloads, Section 2.1).  The policies and the timing model only consume
*per-epoch miss counts*, so the LLC is modelled analytically:

* Each epoch the engine presents a set of :class:`RegionAccess` records —
  one per live workload region — with the region's footprint, access
  counts, and a ``reuse`` parameter in ``[0, 1]`` describing how cache
  friendly its access pattern is (1.0 = perfect temporal locality,
  0.0 = pure streaming).
* The cache ranks regions by access density (accesses per byte) and
  assigns its capacity greedily — a standard working-set approximation of
  LRU behaviour over epoch timescales.
* A region's hit rate is ``reuse * cached_fraction``; everything else
  misses and generates memory traffic.

This preserves the two signals the paper's mechanisms depend on: MPKI per
application (Table 4) and the epoch-to-epoch LLC-miss deltas that drive
the adaptive tracking interval (Equation 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import ConfigurationError
from repro.units import CACHE_LINE, MIB


@dataclass(frozen=True)
class CacheConfig:
    """LLC geometry.

    The paper uses two platforms: a 16 MB LLC Xeon X5560 (Figure 1) and a
    48 MB LLC Xeon E5-4620 v2 — Intel's NVM emulator (Figure 2).
    """

    capacity_bytes: int = 16 * MIB
    line_size: int = CACHE_LINE

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ConfigurationError("cache capacity must be positive")
        if self.line_size <= 0:
            raise ConfigurationError("cache line size must be positive")


@dataclass(frozen=True)
class RegionAccess:
    """One region's demand on the cache for one epoch."""

    region_id: str
    footprint_bytes: int
    reads: float
    writes: float
    #: Temporal locality knob in [0, 1]; the fraction of accesses that hit
    #: *given* the region's data is resident in the LLC.
    reuse: float
    #: Bytes moved from memory per miss (>= one line).  Batched/streaming
    #: access patterns move more than a line per demand miss (prefetch),
    #: which is how graph engines saturate bandwidth (Observation 1).
    bytes_per_miss: float = CACHE_LINE

    def __post_init__(self) -> None:
        if not 0.0 <= self.reuse <= 1.0:
            raise ConfigurationError(
                f"region {self.region_id!r}: reuse must be in [0,1]"
            )
        if self.footprint_bytes < 0 or self.reads < 0 or self.writes < 0:
            raise ConfigurationError(
                f"region {self.region_id!r}: negative footprint or counts"
            )

    @property
    def accesses(self) -> float:
        return self.reads + self.writes


class RegionMisses(NamedTuple):
    """Cache model output for one region in one epoch.  A tuple, so the
    engine's per-epoch loop unpacks it without attribute lookups."""

    region_id: str
    read_misses: float
    write_misses: float
    cached_fraction: float
    bytes_per_miss: float
    misses: float
    #: Memory traffic caused by this region's misses (incl. writebacks:
    #: a dirty-line writeback accompanies write misses line-for-line).
    traffic_bytes: float


class LastLevelCache:
    """Working-set LLC approximation; see module docstring."""

    def __init__(self, config: CacheConfig | None = None) -> None:
        self.config = config or CacheConfig()

    def apportion(self, regions: list[RegionAccess]) -> list[RegionMisses]:
        """Split cache capacity across ``regions`` and compute misses.

        Regions are ranked by access density; the densest regions get
        capacity first.  Result order matches input order.
        """
        remaining = float(self.config.capacity_bytes)
        cached_frac: dict[str, float] = {}
        ranked = sorted(
            (r for r in regions if r.accesses > 0),
            key=lambda r: (
                r.accesses / r.footprint_bytes if r.footprint_bytes else float("inf")
            ),
            reverse=True,
        )
        for region in ranked:
            if region.footprint_bytes == 0:
                cached_frac[region.region_id] = 1.0
                continue
            take = min(remaining, float(region.footprint_bytes))
            cached_frac[region.region_id] = take / region.footprint_bytes
            remaining -= take

        results: list[RegionMisses] = []
        for region in regions:
            frac = cached_frac.get(region.region_id, 0.0)
            miss_rate = 1.0 - region.reuse * frac
            read_misses = region.reads * miss_rate
            write_misses = region.writes * miss_rate
            bytes_per_miss = region.bytes_per_miss
            results.append(
                RegionMisses(
                    region.region_id,
                    read_misses,
                    write_misses,
                    frac,
                    bytes_per_miss,
                    read_misses + write_misses,
                    read_misses * bytes_per_miss
                    + write_misses * bytes_per_miss * 2.0,
                )
            )
        return results

    def mpki(self, misses: float, instructions: float) -> float:
        """Misses per kilo-instruction (Table 4's metric)."""
        if instructions <= 0:
            return 0.0
        return misses / (instructions / 1000.0)
