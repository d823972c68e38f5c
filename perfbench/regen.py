"""``regen``: regenerate every paper table, figure and ablation.

The drivers are the ones ``benchmarks/test_{table,fig,ablation}*``
exercise.  Each test function runs in this process with stand-ins for
its two pytest fixtures: ``benchmark`` calls the driver once, and
``show`` renders the rows and compares them byte-for-byte with the
committed ``benchmarks/_results/<name>.txt`` instead of writing them.
A test assertion, an exception or a table that differs counts as a
failed operation.  The seed does not affect this workload.
"""

from __future__ import annotations

import importlib
import re
import sys
import traceback
from pathlib import Path

import util

BENCHMARKS = util.ROOT / "benchmarks"
PREFIXES = ("test_table", "test_fig", "test_ablation")


def driver_key(slug: str) -> str:
    """``figure_13`` -> ``fig13``, ``table_1`` -> ``table1``."""
    match = re.fullmatch(r"(table|figure)_(\d+)", slug)
    if match:
        return ("fig" if match.group(1) == "figure" else "table") + match.group(2)
    return slug


def module_names(tiny: bool) -> "list[str]":
    prefixes = ("test_table",) if tiny else PREFIXES
    return [
        path.stem
        for path in sorted(BENCHMARKS.glob("test_*.py"))
        if path.stem.startswith(prefixes)
    ]


def import_drivers(tiny: bool) -> list:
    """The benchmark test functions, in file and definition order."""
    if str(BENCHMARKS) not in sys.path:
        sys.path.insert(0, str(BENCHMARKS))
    tests = []
    for name in module_names(tiny):
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if (
                attr.startswith("test_")
                and callable(value)
                and getattr(value, "__module__", None) == name
            ):
                tests.append(value)
    return tests


def measure_setup(tiny: bool, rounds: int = 5) -> "list[float]":
    """Fresh interpreters importing the drivers."""
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(BENCHMARKS)!r}]\n"
        + "".join(f"import {name}\n" for name in module_names(tiny))
    )
    return util.time_fresh_interpreter(code, rounds)


class _Benchmark:
    """Stand-in for the pytest-benchmark fixture: run once, untimed."""

    def pedantic(self, func, args=(), kwargs=None, rounds=1, iterations=1):
        return func(*args, **(kwargs or {}))


class Regen:
    def __init__(self, expected_dir: Path, tiny: bool) -> None:
        from repro.experiments import coordinated, placement
        from repro.experiments.report import format_table
        from repro.sim import parallel

        self.expected_dir = expected_dir
        self.tests = import_drivers(tiny)
        self._format_table = format_table
        self._resets = (
            parallel.clear_memo, placement.clear_cache, coordinated.clear_cache
        )
        self._shown: "list[tuple[str, bool]]" = []

    def _show(self, rows, title: str, float_digits: int = 2) -> None:
        rendered = self._format_table(rows, title=title, float_digits=float_digits)
        slug = title.split(":")[0].strip().lower().replace(" ", "_")
        try:
            expected = (self.expected_dir / f"{slug}.txt").read_text()
        except OSError:
            expected = None
        self._shown.append((slug, expected == rendered + "\n"))

    def _call(self, test) -> bool:
        try:
            test(_Benchmark(), self._show)
            return True
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return False

    def run_pass(self, clock, tracer=None) -> list:
        """One regeneration with the memo cleared: (driver key, wall
        seconds, scaled seconds, correct) per driver; the key is
        ``None`` when the driver rendered no table."""
        for reset in self._resets:
            reset()
        results = []
        for test in self.tests:
            self._shown = []
            frame = None
            if tracer is not None:
                frame = tracer.enter("experiments.driver", test.__name__)
            ok, elapsed, scaled = clock.timed(self._call, test)
            if len(self._shown) == 1:
                slug, matched = self._shown[0]
                if not matched:
                    print(f"regen: {slug} differs from the committed table",
                          file=sys.stderr)
                ok = ok and matched
                key = driver_key(slug)
            else:
                ok = False
                key = None
            if frame is not None:
                frame[0] = f"experiments.{key or test.__name__}"
                tracer.exit(frame)
            results.append((key, elapsed, scaled, ok))
        return results


def run(args, tracer=None) -> dict:
    """Passes until ``args.seconds`` have elapsed (at least one)."""
    setup = measure_setup(args.tiny)
    bench = Regen(args.expected_dir, args.tiny)
    clock = util.HostClock()
    passes, scaled_passes, drivers = [], [], []
    start = util.now()
    while not passes or util.now() - start < args.seconds:
        results = bench.run_pass(clock)
        passes.append(sum(r[1] for r in results))
        scaled_passes.append(sum(r[2] for r in results))
        drivers.extend(results)
    out = {
        "setup": setup,
        "attempted": len(drivers),
        "failed": sum(1 for *_, ok in drivers if not ok),
        "scaled_s": sum(scaled_passes),
        "items": len(drivers),
        "requests_ms": [scaled * 1e3 for scaled in scaled_passes],
        "scale": clock.scale(),
        "report": {"regen_s": (util.median(passes), "s"),
                   "passes": (len(passes), "count")},
    }
    if tracer is not None:
        from tracer import install

        installation = install(tracer)
        try:
            results = bench.run_pass(util.HostClock(), tracer)
        finally:
            installation.uninstall()
        traced = sum(r[1] for r in results)
        out["attempted"] += len(results)
        out["failed"] += sum(1 for *_, ok in results if not ok)
        out["overhead_ratio"] = traced / util.median(passes)
        per_driver: "dict[str, list[float]]" = {}
        for key, elapsed, _, _ in drivers:
            if key is not None:
                per_driver.setdefault(key, []).append(elapsed)
        out["layer"] = {
            f"experiments.{key}_s": util.median(samples)
            for key, samples in per_driver.items()
        }
    return out
