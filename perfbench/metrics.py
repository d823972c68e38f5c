"""The benchmark's metric catalog and the per-layer ledger.

``END_TO_END`` and ``PER_LAYER`` name every metric the benchmark
prints (``--trace 0`` prints the first, ``--trace 1`` the second); the
benchmark's own test checks them against ``BENCHMARK.json``.  Every
workload prints every metric.  A layer the workload never calls reads
0 calls and 0 time.
"""

from __future__ import annotations

#: name -> unit.  Throughput counts *items*: regenerated drivers
#: (``regen``), resolved specs (``sweep_cold``, ``sweep_warm``) or
#: finished jobs (``serve``).  Latency is per *request*, what a user
#: waits on: one whole regeneration, one pass over the grid, one job.
#: Timings are scaled to the reference host speed (``util.HostClock``),
#: except ``serve``'s.
END_TO_END = {
    "throughput_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

DRIVERS = (
    [f"table{i}" for i in range(1, 7)]
    + [f"fig{i}" for i in (1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13)]
    + [f"ablation_{c}" for c in "abcdefg"]
)

LAYERS = (
    "workloads", "engine", "guestos", "hw", "core", "vmm", "multi_vm",
    "experiments", "parallel", "obs", "serve",
)

POLICIES = (
    "fastmem-only", "heap-io-slab-od", "heap-od", "hetero-coordinated",
    "hetero-lru", "hetero-native", "multi-level", "numa-balancing",
    "numa-preferred", "nvm-write-aware", "random", "slowmem-only",
    "vmm-exclusive",
)

PER_LAYER = {
    **{f"experiments.{key}_s": "s" for key in DRIVERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "workloads.gen_us_per_epoch": "us",
    "workloads.epochs": "count",
    "engine.setup_ms": "ms",
    "engine.constructions": "count",
    "engine.step_us": "us",
    "engine.steps": "count",
    "engine.self_us": "us",
    "engine.unattributed_ratio": "ratio",
    "guestos.alloc_us": "us",
    "guestos.alloc_calls": "count",
    "guestos.free_us": "us",
    "guestos.free_calls": "count",
    "guestos.touch_us": "us",
    "guestos.touch_calls": "count",
    "hw.demand_us_per_epoch": "us",
    "hw.stall_us": "us",
    "hw.stall_calls": "count",
    **{f"core.epoch_end_us.{policy}": "us" for policy in POLICIES},
    "vmm.scan_us": "us",
    "vmm.scan_calls": "count",
    "vmm.migrate_us": "us",
    "vmm.migrate_pages": "count",
    "vmm.balloon_us": "us",
    "vmm.balloon_calls": "count",
    "multi_vm.run_s": "s",
    "multi_vm.runs": "count",
    "parallel.fingerprint_ms": "ms",
    "parallel.cache_lookup_us": "us",
    "parallel.cache_hit_ratio": "ratio",
    "parallel.cache_store_us": "us",
    "parallel.journal_record_us": "us",
    "parallel.spec_wall_ms.parallel": "ms",
    "parallel.spec_wall_ms.serial": "ms",
    "parallel.retries": "count",
    "parallel.failures": "count",
    "obs.publish_us": "us",
    "obs.samples": "count",
    "serve.submit_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.rejected_429": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.queue_depth_max": "count",
    "serve.worker_respawns": "count",
    "trace.overhead_ratio": "ratio",
    "host.calib_ms": "ms",
    "host.nproc": "count",
}


def span_ledger(totals: dict, counters: dict) -> dict:
    """Per-layer metrics derived from the tracer's span aggregates."""

    def calls(name: str) -> int:
        return totals.get(name, (0,))[0]

    def mean(name: str, scale: float) -> float:
        entry = totals.get(name)
        if not entry or not entry[0]:
            return 0.0
        return entry[1] / entry[0] / scale

    us, ms, s = 1e3, 1e6, 1e9
    step = totals.get("engine.step", (0, 0, 0))
    ledger = {
        "workloads.gen_us_per_epoch": mean("workloads.gen", us),
        "workloads.epochs": calls("workloads.gen"),
        "engine.setup_ms": mean("engine.setup", ms),
        "engine.constructions": calls("engine.setup"),
        "engine.step_us": mean("engine.step", us),
        "engine.steps": step[0],
        "engine.self_us": step[2] / step[0] / us if step[0] else 0.0,
        "engine.unattributed_ratio": step[2] / step[1] if step[1] else 0.0,
        "hw.demand_us_per_epoch": mean("hw.demand", us),
        "hw.stall_us": mean("hw.stall", us),
        "hw.stall_calls": calls("hw.stall"),
        "vmm.scan_us": mean("vmm.scan", us),
        "vmm.scan_calls": calls("vmm.scan"),
        "vmm.migrate_us": mean("vmm.migrate", us),
        "vmm.migrate_pages": counters.get("vmm.migrate_pages", 0),
        "vmm.balloon_us": mean("vmm.balloon", us),
        "vmm.balloon_calls": calls("vmm.balloon"),
        "multi_vm.run_s": mean("multi_vm.run", s),
        "multi_vm.runs": calls("multi_vm.run"),
        "parallel.cache_lookup_us": mean("parallel.cache_lookup", us),
        "parallel.cache_hit_ratio": (
            counters.get("parallel.cache_hits", 0)
            / calls("parallel.cache_lookup")
            if calls("parallel.cache_lookup")
            else 0.0
        ),
        "parallel.cache_store_us": mean("parallel.cache_store", us),
        "parallel.journal_record_us": mean("parallel.journal_record", us),
        "obs.publish_us": mean("obs.publish", us),
        "obs.samples": calls("obs.publish"),
        "serve.submit_ms": mean("serve.submit", ms),
        "serve.wait_ms": mean("serve.wait", ms),
    }
    for op in ("alloc", "free", "touch"):
        ledger[f"guestos.{op}_us"] = mean(f"guestos.{op}", us)
        ledger[f"guestos.{op}_calls"] = calls(f"guestos.{op}")
    for policy in POLICIES:
        ledger[f"core.epoch_end_us.{policy}"] = mean(
            f"core.epoch_end.{policy}", us
        )
    for layer, seconds in layer_self_seconds(totals).items():
        ledger[f"{layer}.self_s"] = seconds
    return ledger


def layer_self_seconds(totals: dict) -> "dict[str, float]":
    """Self time per layer: the first dotted part of each span name."""
    per_layer = {layer: 0.0 for layer in LAYERS}
    for name, entry in totals.items():
        layer = name.split(".", 1)[0]
        per_layer[layer] = per_layer.get(layer, 0.0) + entry[2] / 1e9
    return per_layer
