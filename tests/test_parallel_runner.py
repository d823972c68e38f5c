"""Determinism-equivalence harness for repro.sim.parallel.

Correctness here *is* reproducibility: a grid point must produce a
bit-identical :class:`RunResult` whether it runs serially in-process,
in a forked worker, or comes back from the on-disk cache.  These tests
assert that equivalence field-by-field for every registered policy,
and pin the failure modes — cache corruption, worker crashes, per-spec
timeouts — as structured outcomes rather than hung or poisoned sweeps.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import signal
import time

import pytest

from repro.core.policy import available_policies
from repro.errors import SweepError
from repro.sim import parallel
from repro.sim.parallel import (
    ExperimentSpec,
    ResultCache,
    make_spec,
    results_or_raise,
    run_spec,
    run_specs,
    source_fingerprint,
)
from repro.sim.runner import run_experiment
from repro.workloads import registry
from repro.workloads.base import Workload

EPOCHS = 2
WORKLOADS = ("nginx", "redis")

_HAS_FORK = "fork" in __import__("multiprocessing").get_all_start_methods()
_HAS_ALARM = hasattr(signal, "SIGALRM")

needs_fork = pytest.mark.skipif(
    not _HAS_FORK, reason="platform lacks fork start method"
)


def result_dict(result) -> dict:
    """Field-by-field view of a RunResult (recursing into RunStats,
    AllocStats, and every held dict) for exact equivalence checks."""
    return dataclasses.asdict(result)


def all_policy_specs() -> "list[ExperimentSpec]":
    return [
        make_spec(app, policy, epochs=EPOCHS)
        for app in WORKLOADS
        for policy in available_policies()
    ]


# ----------------------------------------------------------------------
# Serial vs parallel vs direct equivalence
# ----------------------------------------------------------------------


@needs_fork
def test_parallel_equals_serial_for_every_policy():
    """The headline guarantee: fan-out changes wall time, never results."""
    specs = all_policy_specs()
    serial = run_specs(specs, max_workers=1)
    fanned = run_specs(specs, max_workers=3)
    assert [o.ok for o in serial] == [True] * len(specs)
    assert [o.ok for o in fanned] == [True] * len(specs)
    assert {o.source for o in serial} == {"serial"}
    assert {o.source for o in fanned} == {"parallel"}
    for before, after in zip(serial, fanned):
        assert result_dict(before.result) == result_dict(after.result), (
            before.spec.label
        )


def test_spec_path_equals_run_experiment():
    """run_spec wraps run_experiment without perturbing anything."""
    for app in WORKLOADS:
        direct = run_experiment(app, "hetero-lru", epochs=EPOCHS)
        via_spec = run_spec(make_spec(app, "hetero-lru", epochs=EPOCHS))
        assert result_dict(direct) == result_dict(via_spec)


def test_sweep_rows_identical_serial_vs_parallel():
    """Driver-level equivalence over the sweep helper."""
    from repro.experiments.sweep import sweep

    kwargs = dict(
        apps=("nginx",), policies=("hetero-lru", "heap-od"),
        ratios=(0.25, 0.5), epochs=EPOCHS,
    )
    serial_rows = sweep(max_workers=1, **kwargs)
    if _HAS_FORK:
        parallel_rows = sweep(max_workers=2, **kwargs)
        assert serial_rows == parallel_rows


def test_duplicate_specs_share_one_result():
    spec = make_spec("nginx", "heap-od", epochs=EPOCHS)
    outcomes = run_specs([spec, spec, spec], max_workers=1)
    assert outcomes[0].result is outcomes[1].result is outcomes[2].result


# ----------------------------------------------------------------------
# Cache round trips
# ----------------------------------------------------------------------


def test_cache_miss_then_hit_bit_identical(tmp_path):
    cache = ResultCache(tmp_path)
    specs = [make_spec("nginx", "hetero-lru", epochs=EPOCHS)]
    cold = run_specs(specs, max_workers=1, cache=cache)
    assert cold[0].source == "serial"
    assert (cache.hits, cache.misses) == (0, 1)
    warm = run_specs(specs, max_workers=1, cache=cache)
    assert warm[0].source == "cache"
    assert cache.hits == 1
    assert result_dict(cold[0].result) == result_dict(warm[0].result)


def test_cache_corruption_degrades_to_miss(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec("nginx", "slowmem-only", epochs=EPOCHS)
    fingerprint = source_fingerprint()
    run_specs([spec], max_workers=1, cache=cache)
    path = cache.path_for(spec.cache_key(fingerprint))
    assert path.exists()
    path.write_bytes(b"not a pickle")
    again = run_specs([spec], max_workers=1, cache=cache)
    assert again[0].ok and again[0].source == "serial"
    # The re-run repaired the entry.
    repaired = ResultCache(tmp_path)
    final = run_specs([spec], max_workers=1, cache=repaired)
    assert final[0].source == "cache"


def test_cache_rejects_version_skew_and_wrong_spec(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec("nginx", "heap-od", epochs=EPOCHS)
    fingerprint = source_fingerprint()
    result = run_spec(spec)
    cache.store(spec, fingerprint, result)
    key = spec.cache_key(fingerprint)
    path = cache.path_for(key)

    payload = pickle.loads(path.read_bytes())
    payload["version"] = ResultCache.FORMAT_VERSION + 1
    path.write_bytes(pickle.dumps(payload))
    assert cache.lookup(spec, fingerprint) is None
    assert not path.exists(), "skewed entry should be evicted"

    # A colliding key holding a different spec's payload is a miss.
    cache.store(spec, fingerprint, result)
    payload = pickle.loads(path.read_bytes())
    payload["spec"]["app"] = "redis"
    path.write_bytes(pickle.dumps(payload))
    assert cache.lookup(spec, fingerprint) is None


def test_source_fingerprint_invalidates_cache(tmp_path):
    cache = ResultCache(tmp_path)
    spec = make_spec("nginx", "hetero-lru", epochs=EPOCHS)
    result = run_spec(spec)
    cache.store(spec, "fingerprint-a", result)
    assert cache.lookup(spec, "fingerprint-a") is not None
    assert cache.lookup(spec, "fingerprint-b") is None, (
        "a source change must invalidate every cached result"
    )


def test_run_cached_memoizes_and_persists(tmp_path, monkeypatch):
    monkeypatch.setenv(parallel.CACHE_DIR_ENV, str(tmp_path))
    parallel.clear_memo()
    try:
        first = parallel.run_cached("nginx", "heap-od", epochs=EPOCHS)
        assert first is parallel.run_cached("nginx", "heap-od", epochs=EPOCHS)
        # Same grid point, new process (simulated by clearing the memo):
        # served from the REPRO_SWEEP_CACHE_DIR disk cache, bit-identical.
        parallel.clear_memo()
        reloaded = parallel.run_cached("nginx", "heap-od", epochs=EPOCHS)
        assert reloaded is not first
        assert result_dict(reloaded) == result_dict(first)
        assert list(tmp_path.glob("*.pickle")), "no cache file written"
    finally:
        parallel.clear_memo()


# ----------------------------------------------------------------------
# Fallbacks and structured failures
# ----------------------------------------------------------------------


class _SleepyWorkload(Workload):
    """Burns wall-clock time: the per-spec timeout target."""

    name = "parallel-test-sleepy"
    metric = "seconds"

    def default_epochs(self) -> int:
        return 1

    def epochs(self, count):
        time.sleep(20)
        return iter(())


class _CrashyWorkload(Workload):
    """Kills its worker process outright (simulated segfault)."""

    name = "parallel-test-crashy"
    metric = "seconds"

    def default_epochs(self) -> int:
        return 1

    def epochs(self, count):
        os._exit(3)


@pytest.fixture
def scratch_workloads():
    """Temporarily register the failure-injection workloads."""
    names = {
        _SleepyWorkload.name: _SleepyWorkload,
        _CrashyWorkload.name: _CrashyWorkload,
    }
    for name, factory in names.items():
        registry.register_workload(name, factory)
    yield names
    for name in names:
        registry._REGISTRY.pop(name, None)


def test_max_workers_one_never_forks(monkeypatch):
    """The serial fallback must never spawn a worker process."""

    def _boom(*args, **kwargs):  # pragma: no cover - defensive
        raise AssertionError("serial path spawned a worker process")

    monkeypatch.setattr(parallel.WorkerSupervisor, "_spawn", _boom)
    outcomes = run_specs(
        [make_spec("nginx", "hetero-lru", epochs=EPOCHS)], max_workers=1
    )
    assert outcomes[0].ok and outcomes[0].source == "serial"


def test_forkless_platform_falls_back_to_serial(monkeypatch):
    monkeypatch.setattr(parallel, "_fork_available", lambda: False)
    outcomes = run_specs(
        [
            make_spec("nginx", "hetero-lru", epochs=EPOCHS),
            make_spec("nginx", "heap-od", epochs=EPOCHS),
        ],
        max_workers=4,
    )
    assert [o.source for o in outcomes] == ["serial", "serial"]
    assert all(o.ok for o in outcomes)


@pytest.mark.skipif(not _HAS_ALARM, reason="no SIGALRM on this platform")
def test_serial_timeout_is_structured(scratch_workloads):
    outcomes = run_specs(
        [make_spec(_SleepyWorkload.name, "hetero-lru", epochs=1)],
        max_workers=1,
        timeout_sec=0.3,
    )
    assert not outcomes[0].ok
    assert outcomes[0].error.kind == "timeout"
    assert "0.3" in outcomes[0].error.message


@needs_fork
@pytest.mark.skipif(not _HAS_ALARM, reason="no SIGALRM on this platform")
def test_parallel_timeout_spares_the_rest_of_the_grid(scratch_workloads):
    outcomes = run_specs(
        [
            make_spec(_SleepyWorkload.name, "hetero-lru", epochs=1),
            make_spec("nginx", "hetero-lru", epochs=EPOCHS),
        ],
        max_workers=2,
        timeout_sec=0.3,
    )
    assert outcomes[0].error is not None
    assert outcomes[0].error.kind == "timeout"
    assert outcomes[1].ok, "healthy grid points must survive a timeout"


@needs_fork
def test_worker_crash_is_structured_not_hung(scratch_workloads):
    outcomes = run_specs(
        [make_spec(_CrashyWorkload.name, "hetero-lru", epochs=1)],
        max_workers=2,
    )
    assert not outcomes[0].ok
    assert outcomes[0].error.kind == "worker-crash"
    assert "worker process died" in outcomes[0].error.message


@needs_fork
def test_worker_crash_fails_only_the_crasher(scratch_workloads):
    # Heartbeat attribution: the dead worker's own spec fails, and its
    # healthy neighbours (some queued behind it on the same pool) come
    # back bit-identical to a serial run.
    healthy = [
        make_spec(app, policy, epochs=EPOCHS)
        for app in WORKLOADS
        for policy in ("hetero-lru", "heap-od", "vmm-exclusive")
    ] + [make_spec("nginx", "hetero-coordinated", epochs=EPOCHS)]
    crasher = make_spec(_CrashyWorkload.name, "hetero-lru", epochs=1)
    outcomes = run_specs([crasher] + healthy, max_workers=2)
    assert outcomes[0].error is not None
    assert outcomes[0].error.kind == "worker-crash"
    serial = run_specs(healthy, max_workers=1)
    assert all(outcome.ok for outcome in outcomes[1:])
    assert [o.source for o in outcomes[1:]] == ["parallel"] * len(healthy)
    assert [result_dict(o.result) for o in outcomes[1:]] == [
        result_dict(o.result) for o in serial
    ]


def finishes_within(seconds: float, fn):
    """Run ``fn`` on a daemon thread; its result, or a failed test when
    it is still blocked after ``seconds`` (a deadlock must not hang the
    suite)."""
    import threading

    box = {}
    thread = threading.Thread(
        target=lambda: box.setdefault("value", fn()), daemon=True
    )
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still blocked after {seconds:g}s"
    return box["value"]


@needs_fork
def test_large_batch_runs_on_the_pool_without_deadlock():
    # More specs than the task and result pipes can buffer at once: the
    # pool's bounded dispatch keeps both sides moving.
    specs = [
        make_spec("nginx", "hetero-lru", epochs=1, seed=seed)
        for seed in range(600)
    ]
    outcomes = finishes_within(
        120, lambda: run_specs(specs, max_workers=2)
    )
    assert len(outcomes) == len(specs)
    assert all(outcome.ok for outcome in outcomes)
    assert {outcome.source for outcome in outcomes} == {"parallel"}


def test_simulation_error_is_structured():
    # An unknown policy raises inside run_spec; the sweep records it
    # as a structured outcome and carries on.
    outcomes = run_specs(
        [make_spec("nginx", "no-such-policy", epochs=EPOCHS)],
        max_workers=1,
    )
    assert not outcomes[0].ok
    assert outcomes[0].error.kind == "error"
    assert "no-such-policy" in outcomes[0].error.message


def test_results_or_raise_reports_failures():
    outcomes = run_specs(
        [
            make_spec("nginx", "hetero-lru", epochs=EPOCHS),
            make_spec("nginx", "no-such-policy", epochs=EPOCHS),
        ],
        max_workers=1,
    )
    with pytest.raises(SweepError, match="1 of 2 grid points failed"):
        results_or_raise(outcomes)


def test_progress_callback_sees_every_grid_point():
    seen = []
    specs = [
        make_spec("nginx", "hetero-lru", epochs=EPOCHS),
        make_spec("nginx", "heap-od", epochs=EPOCHS),
    ]
    run_specs(
        specs,
        max_workers=1,
        progress=lambda outcome, done, total: seen.append((done, total)),
    )
    assert seen == [(1, 2), (2, 2)]


# ----------------------------------------------------------------------
# Pickle round trips (everything a worker ships home)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("policy", sorted(available_policies()))
def test_runresult_pickle_roundtrip_every_policy(policy):
    """RunResult and everything it transitively holds must survive the
    worker boundary byte-for-byte."""
    result = run_experiment("nginx", policy, epochs=EPOCHS)
    clone = pickle.loads(pickle.dumps(result))
    assert result_dict(result) == result_dict(clone)
    assert clone.runtime_sec == result.runtime_sec
    assert clone.metric_value == result.metric_value


def test_sanitized_runresult_pickle_roundtrip():
    """sanitize=True attaches devtools report objects; they ride along."""
    from repro.sim.runner import build_config

    config = build_config(fast_ratio=0.25, slow_gib=0.5)
    config.sanitize = True
    result = run_experiment("nginx", "hetero-lru", epochs=3, config=config)
    clone = pickle.loads(pickle.dumps(result))
    assert len(clone.sanitizer_reports) == len(result.sanitizer_reports)


def test_spec_and_outcome_pickle_roundtrip():
    spec = make_spec(
        "graphchi", "vmm-exclusive", throttle=(1, 1),
        policy_args={"scan_interval_epochs": 2},
    )
    assert pickle.loads(pickle.dumps(spec)) == spec
    outcome = run_specs([make_spec("nginx", "heap-od", epochs=EPOCHS)])[0]
    clone = pickle.loads(pickle.dumps(outcome))
    assert clone.spec == outcome.spec
    assert result_dict(clone.result) == result_dict(outcome.result)
