"""Performance benchmarks of the simulator itself.

Unlike the figure benches (which run once and assert shapes), these are
real multi-round pytest-benchmark timings of the hot data structures —
the numbers that matter when someone scales the simulator up.

``test_bench_step_trajectory`` additionally archives
``benchmarks/_results/BENCH_sim.json``: on the heaviest workload, the
cold first step, steady-state epochs/sec, per-phase nanoseconds from
the PhaseProfiler, and a fixed pure-Python calibration loop timed in
the same run, so trajectories recorded on different machines can be
compared.  The committed file is the perf trajectory reviewers diff
(see docs/performance.md for the measurement protocol behind the
committed numbers).
"""

import gc
import json
import os
import pathlib
import time

from repro.core import make_policy
from repro.guestos.buddy import BuddyAllocator
from repro.hw.cache import CacheConfig, LastLevelCache, RegionAccess
from repro.mem.frames import FramePool
from repro.obs.bus import Telemetry
from repro.obs.profiler import PhaseProfiler
from repro.sim.engine import SimulationEngine
from repro.sim.runner import build_config
from repro.units import MIB
from repro.workloads.registry import make_workload

RESULTS_DIR = pathlib.Path(__file__).parent / "_results"

#: Best-of-N measurement protocol for the trajectory bench: the 1-core
#: CI boxes see host steal time, so each configuration runs REPS times
#: and the minimum wall/per-phase time is kept (the rep least perturbed
#: by the neighbours).  The committed BENCH_sim.json is recorded with
#: the env knobs raised (see docs/performance.md); the defaults keep
#: the CI run short.
BENCH_REPS = int(os.environ.get("REPRO_BENCH_REPS", "5"))
BENCH_WARMUP_EPOCHS = 4
BENCH_TIMED_EPOCHS = int(os.environ.get("REPRO_BENCH_EPOCHS", "150"))


def test_perf_buddy_alloc_free_cycle(benchmark):
    buddy = BuddyAllocator(0, 262144)  # 1 GiB span

    def cycle():
        ranges = buddy.allocate_pages(5000)
        for frame_range in ranges:
            buddy.free_span(frame_range.start, frame_range.count)

    benchmark(cycle)
    buddy.check_invariants()


def test_perf_frame_pool_scattered(benchmark):
    pool = FramePool(0, 262144)

    def cycle():
        ranges = pool.allocate_scattered(10000)
        for frame_range in ranges:
            pool.free(frame_range)

    benchmark(cycle)
    pool.check_invariants()


def test_perf_cache_apportion(benchmark):
    cache = LastLevelCache(CacheConfig(capacity_bytes=16 * MIB))
    regions = [
        RegionAccess(f"r{i}", (i + 1) * MIB, 1000.0 * (i + 1), 300.0, 0.7)
        for i in range(64)
    ]
    results = benchmark(cache.apportion, regions)
    assert len(results) == 64


def test_perf_engine_epoch_throughput(benchmark):
    """Whole-engine epochs per second on the heaviest workload."""
    engine = SimulationEngine(
        build_config(fast_ratio=0.25),
        make_workload("graphchi"),
        make_policy("hetero-lru"),
    )
    stream = make_workload("graphchi").epochs(10**9)
    # Warm up allocations so steady-state epochs are measured.
    for _ in range(4):
        engine.step(next(stream))

    def one_epoch():
        engine.step(next(stream))

    benchmark(one_epoch)


def _one_rep():
    """One timed repetition: (cold first-step sec, steady wall sec,
    per-phase seconds over the timed epochs)."""
    profiler = PhaseProfiler()
    engine = SimulationEngine(
        build_config(fast_ratio=0.25),
        make_workload("graphchi"),
        make_policy("hetero-lru"),
        telemetry=Telemetry(profiler=profiler),
    )
    stream = iter(make_workload("graphchi").epochs(10**9))
    start = time.perf_counter()
    engine.step(next(stream))
    cold_sec = time.perf_counter() - start
    for _ in range(BENCH_WARMUP_EPOCHS - 1):
        engine.step(next(stream))
    profiler.seconds.clear()
    profiler.calls.clear()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(BENCH_TIMED_EPOCHS):
            engine.step(next(stream))
        wall_sec = time.perf_counter() - start
    finally:
        gc.enable()
    return cold_sec, wall_sec, dict(profiler.seconds)


def _best_of():
    """Minimum cold/wall/per-phase times over BENCH_REPS repetitions."""
    colds, walls, phase_runs = [], [], []
    for _ in range(BENCH_REPS):
        cold_sec, wall_sec, phases = _one_rep()
        colds.append(cold_sec)
        walls.append(wall_sec)
        phase_runs.append(phases)
    best_phases = {
        phase: min(run[phase] for run in phase_runs)
        for phase in phase_runs[0]
    }
    return min(colds), min(walls), best_phases


def _phase_ns(phases):
    """Per-epoch nanoseconds per phase, the unit BENCH_sim.json records."""
    return {
        phase: round(seconds / BENCH_TIMED_EPOCHS * 1e9)
        for phase, seconds in sorted(phases.items())
    }


def _calibration_ms():
    """Best-of-BENCH_REPS wall milliseconds of a fixed pure-Python loop
    (integer arithmetic, dict and list traffic, like ``step()``): the
    machine-speed yardstick recorded next to the epoch rate."""
    best = float("inf")
    for _ in range(BENCH_REPS):
        start = time.perf_counter()
        table = {}
        total = 0
        for i in range(200_000):
            table[i & 1023] = total
            total += (i * 7) % 13
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def test_bench_step_trajectory():
    calib_ms = _calibration_ms()
    cold, wall, phases = _best_of()
    assert "demand" in phases, sorted(phases)
    epochs_per_sec = BENCH_TIMED_EPOCHS / wall

    payload = {
        "benchmark": "SimulationEngine.step() steady state",
        "workload": "graphchi",
        "policy": "hetero-lru",
        "timed_epochs": BENCH_TIMED_EPOCHS,
        "reps_best_of": BENCH_REPS,
        "cold_first_step_sec": round(cold, 4),
        "epochs_per_sec": round(epochs_per_sec, 1),
        "phase_ns_per_epoch": _phase_ns(phases),
        "hottest_phase": max(phases, key=phases.get),
        "calib_ms": round(calib_ms, 2),
        # Epochs per calibration loop: comparable across machines.
        "epochs_per_calib": round(epochs_per_sec * calib_ms / 1e3, 2),
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sim.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )
    print(
        f"\nstep(): {payload['epochs_per_sec']} epochs/sec, "
        f"{payload['epochs_per_calib']} epochs per {calib_ms:.1f} ms "
        f"calibration loop"
    )
