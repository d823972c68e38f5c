"""Repository benchmark: host time of paper regeneration, sweeps and serving.

Usage (from the repository root)::

    python3 perfbench/run.py --workload regen --seed 1 --seconds 15 --trace 0

Workloads: ``regen``, ``sweep_cold``, ``sweep_warm``, ``serve`` (see
``perfbench/README.md``).  Every process runs with ``REPRO_FAST=1``.

``--trace 0`` measures untraced and prints the end-to-end metrics.
``--trace 1`` runs the same workload untraced, then again with every
layer wrapped in spans, prints the per-layer metrics and writes a
Chrome trace to ``perfbench/_traces/``.  Stdout ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  A wrong
output counts as a failed operation; an error that stops the workload
exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

import util

WORKLOADS = ("regen", "sweep_cold", "sweep_warm", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="smallest inputs (tables only, a 2x3 grid, 5-epoch specs); "
        "for the benchmark's own test",
    )
    parser.add_argument(
        "--expected-dir", type=Path,
        default=util.ROOT / "benchmarks" / "_results",
        help="committed tables regen compares against",
    )
    parser.add_argument(
        "--inject-failure", action="store_true",
        help="add one spec that fails (sweep and serve); for the "
        "benchmark's own test",
    )
    return parser.parse_args(argv)


def checkout_complete() -> bool:
    return (util.SRC / "repro" / "__init__.py").is_file() and (
        util.ROOT / "benchmarks" / "conftest.py"
    ).is_file()


def end_to_end(out: dict) -> dict:
    value, _, _ = util.tail(out["requests_ms"])
    return {
        "throughput_per_s": out["items"] / out["scaled_s"],
        "request_p50_ms": util.median(out["requests_ms"]),
        "request_tail_ms": value,
        "setup_s": util.median(out["setup"]),
        "peak_rss_mib": util.peak_rss_mib(),
    }


def per_layer(out: dict, tracer, host: dict, calib_ms: float) -> dict:
    from metrics import PER_LAYER, span_ledger

    ledger = {name: 0.0 for name in PER_LAYER}
    ledger.update(span_ledger(tracer.totals(), tracer.counters()))
    ledger.update(out.get("layer", {}))
    ledger["trace.overhead_ratio"] = out["overhead_ratio"]
    ledger["host.calib_ms"] = calib_ms
    ledger["host.nproc"] = host["nproc"]
    unknown = sorted(set(ledger) - set(PER_LAYER))
    if unknown:
        raise RuntimeError(f"metrics missing from the catalog: {unknown}")
    return ledger


def print_report(args, out, metrics, units, host, calib_ms) -> None:
    print(f"# perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# host nproc={host['nproc']} python={host['python']} "
          f"numpy={host['numpy']} machine={host['machine']} "
          f"calib_ms={calib_ms:.3f}")
    value, pct, count = util.tail(out["requests_ms"])
    print(f"# request_tail_ms is p{pct:.1f} of {count} requests")
    if out["scale"] is None:
        print("# end-to-end timings are unscaled wall time")
    else:
        print(f"# end-to-end timings are scaled to the reference host "
              f"(speed probe {util.REF_PROBE_MS} ms); scale this run "
              f"{out['scale']:.4f}; the workload's own figures, unscaled:")
    attempted, failed = out["attempted"], out["failed"]
    rows = dict(out["report"])
    rows[f"error_ratio({failed}/{attempted})"] = (
        failed / attempted if attempted else 0.0, "ratio"
    )
    for name, (value, unit) in rows.items():
        print(f"  {name:44s} {value:14.4f} {unit}")
    print("# metrics")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:14.4f} {units[name]}")


def print_layers(tracer, out) -> None:
    from metrics import layer_self_seconds

    totals = tracer.totals()
    print("# self time per layer (traced pass)")
    for layer, seconds in sorted(
        layer_self_seconds(totals).items(), key=lambda item: -item[1]
    ):
        print(f"  {layer:20s} {seconds:10.4f} s")
    step = totals.get("engine.step")
    if step and step[1]:
        print(f"# unattributed (engine.step self) {step[2] / 1e9:.4f} s = "
              f"{100.0 * step[2] / step[1]:.1f}% of engine.step")
    print(f"# trace.overhead_ratio {out['overhead_ratio']:.3f}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not checkout_complete():
        print(f"perfbench: no repro sources under {util.ROOT}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so the workloads' cleanup (stopping
    # the daemon, removing scratch state) runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    util.prepare_process()
    os.chdir(util.ROOT)
    host = util.host_record()
    calib_ms = util.calibration_ms()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    if args.workload == "regen":
        import regen as workload
    elif args.workload == "serve":
        import serve as workload
    else:
        import sweep as workload
    util.WORK_DIR.mkdir(parents=True, exist_ok=True)
    try:
        out = workload.run(args, tracer)
    finally:
        shutil.rmtree(util.WORK_DIR, ignore_errors=True)

    from metrics import END_TO_END, PER_LAYER

    if tracer is None:
        metrics, units = end_to_end(out), END_TO_END
    else:
        metrics, units = per_layer(out, tracer, host, calib_ms), PER_LAYER
        path = util.TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        events = tracer.write_chrome(path)
        print_layers(tracer, out)
        print(f"# chrome trace: {path.relative_to(util.ROOT)} "
              f"({events} spans)")
    print_report(args, out, metrics, units, host, calib_ms)
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
