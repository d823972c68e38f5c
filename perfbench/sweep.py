"""``sweep_cold`` and ``sweep_warm``: a seeded grid through ``run_specs``.

The grid covers all 6 apps x all 13 policies, three distinct
(FastMem ratio, SlowMem throttle) points each, at 20 epochs: 234
distinct specs in a seed-shuffled order.  Both workloads call
``run_specs(max_workers=2, cache=..., journal=...,
capture_timelines=True)``.  ``sweep_cold`` starts every pass on a fresh
cache directory, so the harness forks, pickles, stores results and
timeline sidecars and appends the journal.  ``sweep_warm`` fills one
cache, untimed, and then repeats passes over it with the memo cleared,
so every spec is a cache lookup.

Output gate: every pass's canonical-JSON ``RunResult`` digests must
equal the first pass's, and one seed-chosen probe spec must match the
digest of an in-process ``run_spec`` of the same spec.
"""

from __future__ import annotations

import random
import shutil
import sys

import util

EPOCHS = 20
RATIOS = (0.125, 0.25, 0.5)
#: ``None`` is the platform's default SlowMem throttle (L:5, B:9).
THROTTLES = (None, (2.0, 2.0), (5.0, 12.0))
POINTS_PER_PAIR = 3
#: An app no registry knows: the spec fails deterministically.
BROKEN_APP = "no-such-app"


def make_grid(seed: int, tiny: bool) -> list:
    from repro.core.policy import available_policies
    from repro.sim.parallel import make_spec
    from repro.workloads.registry import ALL_APPS

    rng = random.Random(f"sweep:{seed}")
    apps = ALL_APPS[:2] if tiny else ALL_APPS
    policies = available_policies()
    if tiny:
        policies = policies[:3]
    points = [(ratio, throttle) for ratio in RATIOS for throttle in THROTTLES]
    specs = []
    for app in apps:
        for policy in policies:
            for ratio, throttle in rng.sample(points, POINTS_PER_PAIR):
                specs.append(
                    make_spec(
                        app, policy, fast_ratio=ratio, throttle=throttle,
                        epochs=5 if tiny else EPOCHS,
                    )
                )
    rng.shuffle(specs)
    return specs


def measure_setup(rounds: int = 5) -> "list[float]":
    """Fresh interpreters importing the sweep layer and hashing the
    source tree."""
    return util.time_fresh_interpreter(
        "from repro.sim import parallel\nparallel.source_fingerprint()\n",
        rounds,
    )


class Sweep:
    def __init__(self, seed: int, tiny: bool, inject_failure: bool) -> None:
        from repro.sim import parallel

        self.parallel = parallel
        self.specs = make_grid(seed, tiny)
        if inject_failure:
            self.specs.append(
                parallel.make_spec(BROKEN_APP, "hetero-lru", epochs=EPOCHS)
            )
        self.probe = random.Random(f"probe:{seed}").choice(self.specs)
        self.reference: "dict | None" = None
        self.probe_digest: "str | None" = None
        self.workdir = util.WORK_DIR / f"sweep-{seed}"
        self._passes = 0

    def prepare(self) -> None:
        """Untimed: the probe's in-process digest."""
        try:
            self.probe_digest = util.result_digest(
                self.parallel.run_spec(self.probe)
            )
        except Exception:  # a broken probe fails every pass's gate
            self.probe_digest = None

    def fresh_cache(self):
        self._passes += 1
        directory = self.workdir / f"cache-{self._passes}"
        shutil.rmtree(directory, ignore_errors=True)
        return directory

    def run_pass(self, clock, cache_dir, recorder=None):
        """One timed ``run_specs`` call: (outcomes, wall seconds, scaled
        seconds)."""
        self.parallel.clear_memo()
        return clock.timed(
            self.parallel.run_specs,
            self.specs,
            max_workers=2,
            cache=cache_dir,
            journal=cache_dir / "journal.jsonl",
            capture_timelines=True,
            recorder=recorder,
        )

    def check(self, outcomes) -> int:
        """Failed operations in one pass: failed outcomes, digests that
        differ from the first pass, and a probe that differs from its
        in-process digest."""
        digests = {}
        failed = 0
        for outcome in outcomes:
            if not outcome.ok:
                failed += 1
                continue
            digest = util.result_digest(outcome.result)
            digests[outcome.spec] = digest
            if outcome.spec == self.probe and digest != self.probe_digest:
                print(f"sweep: probe {self.probe.label} digest differs "
                      "from its in-process run", file=sys.stderr)
                failed += 1
        if self.reference is None:
            self.reference = digests
            return failed
        for spec, digest in digests.items():
            if self.reference.get(spec, digest) != digest:
                print(f"sweep: {spec.label} digest changed between passes",
                      file=sys.stderr)
                failed += 1
        return failed

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _window(bench, seconds, warm, cache_dir, recorder=None):
    """Passes until ``seconds`` have elapsed (at least one)."""
    clock = util.HostClock()
    totals = {"attempted": 0, "failed": 0, "passes": [], "scaled": []}
    start = util.now()
    while not totals["passes"] or util.now() - start < seconds:
        if not warm:
            cache_dir = bench.fresh_cache()
        outcomes, elapsed, scaled = bench.run_pass(clock, cache_dir, recorder)
        totals["attempted"] += len(outcomes)
        totals["failed"] += bench.check(outcomes)
        totals["passes"].append(elapsed)
        totals["scaled"].append(scaled)
        if not warm:
            shutil.rmtree(cache_dir, ignore_errors=True)
    totals["scale"] = clock.scale()
    return totals


def run(args, tracer=None) -> dict:
    warm = args.workload == "sweep_warm"
    setup = measure_setup()
    bench = Sweep(args.seed, args.tiny, args.inject_failure)
    try:
        fingerprint_start = util.now()
        bench.parallel.source_fingerprint()
        fingerprint_ms = (util.now() - fingerprint_start) * 1e3
        bench.prepare()
        cache_dir = None
        fill = []
        if warm:
            cache_dir = bench.fresh_cache()
            fill, _, _ = bench.run_pass(util.HostClock(), cache_dir)
        fill_failed = bench.check(fill) if fill else 0
        totals = _window(bench, args.seconds, warm, cache_dir)
        wall_s = sum(totals["passes"])
        per_op = wall_s / max(1, totals["attempted"])
        name = "sweep_warm_specs_per_s" if warm else "sweep_cold_specs_per_s"
        out = {
            "setup": setup,
            "attempted": totals["attempted"] + len(fill),
            "failed": totals["failed"] + fill_failed,
            "scaled_s": sum(totals["scaled"]),
            "items": totals["attempted"],
            "requests_ms": [scaled * 1e3 for scaled in totals["scaled"]],
            "scale": totals["scale"],
            "report": {
                name: (totals["attempted"] / wall_s, "1/s"),
                "grid_specs": (len(bench.specs), "count"),
                "passes": (len(totals["passes"]), "count"),
            },
        }
        if tracer is not None:
            traced = _traced(bench, args, tracer, warm, cache_dir, per_op)
            out["attempted"] += traced.pop("attempted")
            out["failed"] += traced.pop("failed")
            out.update(traced)
            out["layer"]["parallel.fingerprint_ms"] = fingerprint_ms
        return out
    finally:
        bench.close()


def _traced(bench, args, tracer, warm, cache_dir, per_op) -> dict:
    """A traced window of the same shape, then a serial in-process pass
    over a sample of the grid so engine and telemetry spans of
    sweep-sized specs are collected (forked workers' spans are not)."""
    from repro.obs.flight import SweepRecorder
    from tracer import install

    recorder = SweepRecorder()
    installation = install(tracer)
    try:
        tracer.set_request("sweep")
        totals = _window(bench, args.seconds, warm, cache_dir, recorder)
        tracer.set_request("sweep-serial-sample")
        sample = random.Random(f"sample:{args.seed}").sample(
            bench.specs, min(12, len(bench.specs))
        )
        outcomes = bench.parallel.run_specs(
            sample, max_workers=1, capture_timelines=True, recorder=recorder
        )
    finally:
        installation.uninstall()
    traced_per_op = sum(totals["passes"]) / max(1, totals["attempted"])
    status = recorder.status()
    layer = {
        "parallel.retries": status["retries"],
        "parallel.failures": status["failed"],
    }
    snapshot = recorder.registry.snapshot()["metrics"]
    for series in snapshot["sweep_spec_seconds"]["series"]:
        source = series["labels"].get("source")
        if source in ("parallel", "serial") and series["count"]:
            layer[f"parallel.spec_wall_ms.{source}"] = (
                series["sum"] / series["count"] * 1e3
            )
    return {
        "attempted": totals["attempted"] + len(outcomes),
        "failed": totals["failed"] + sum(1 for o in outcomes if not o.ok),
        "overhead_ratio": traced_per_op / per_op,
        "layer": layer,
    }
