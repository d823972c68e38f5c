"""Daemon lifecycle under real signals: SIGKILL recovery, SIGTERM drain.

These tests drive the actual ``repro serve`` CLI in a subprocess — the
same process-boundary reality a deployment has.  The headline pin:
a daemon SIGKILLed mid-flight and restarted over the same state root
finishes the job with results *bit-for-bit identical* to an
uninterrupted in-process ``run_specs`` over the same batch.
"""

from __future__ import annotations

import dataclasses
import glob
import os
import re
import signal
import subprocess
import sys
import time

import pytest

from repro.serve import ServeClient
from repro.serve.jobstore import JobStore
from repro.sim.parallel import make_spec, run_specs

pytestmark = pytest.mark.skipif(
    not hasattr(signal, "SIGKILL"), reason="needs POSIX signals"
)

_ADDRESS_RE = re.compile(r"listening on http://([0-9.]+:\d+)")


def batch():
    return [
        make_spec(app, policy, epochs=3)
        for app in ("redis", "nginx")
        for policy in ("hetero-lru", "hetero-coordinated", "slowmem-only")
    ]


def result_dicts(outcomes):
    return [dataclasses.asdict(outcome.result) for outcome in outcomes]


def start_daemon(root, *extra: str) -> "tuple[subprocess.Popen, str]":
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--cache-dir", str(root), "--workers", "2", "--port", "0",
            *extra,
        ],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stderr.readline()
    match = _ADDRESS_RE.search(line)
    assert match, f"daemon failed to start: {line!r}"
    return proc, match.group(1)


def stop_daemon(proc: subprocess.Popen) -> int:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    if proc.stderr is not None:
        proc.stderr.close()
    return proc.returncode


def worker_pids(proc: subprocess.Popen) -> "set[int]":
    """The daemon's two forked workers, read from every thread's Linux
    ``/proc/<pid>/task/<tid>/children`` list; empty where there is none."""
    paths = glob.glob(f"/proc/{proc.pid}/task/*/children")
    pids: "set[int]" = set()
    for path in paths:
        with open(path, encoding="ascii") as handle:
            pids.update(int(field) for field in handle.read().split())
    assert len(pids) == 2 or not paths, pids
    return pids


def alive(pid: int) -> bool:
    """Running, i.e. neither gone nor an unreaped zombie."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in ("Z", "X")


def assert_orphans_exit(pids: "set[int]", within_sec: float = 5.0) -> None:
    deadline = time.monotonic() + within_sec
    while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not [pid for pid in pids if alive(pid)], "orphaned workers"


def test_sigkill_mid_flight_then_restart_is_bit_identical(tmp_path):
    specs = batch()
    root = tmp_path / "state"
    proc, address = start_daemon(root)
    workers = worker_pids(proc)
    try:
        client = ServeClient(f"http://{address}", client_id="survivor")
        job_id = client.submit(specs)
    finally:
        # SIGKILL the moment the 202 is out: no drain, no checkpoint
        # hook, nothing — only the journals survive.
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stderr.close()
    # The killed daemon's workers notice their parent is gone and exit.
    assert_orphans_exit(workers)

    proc, address = start_daemon(root)
    try:
        client = ServeClient(f"http://{address}", client_id="survivor")
        # The restarted daemon recovered the journaled job under the
        # same content-addressed id and finishes it unprompted.
        payload = client.wait(job_id, timeout_sec=600, poll_sec=5.0)
        assert payload["state"] == "done"
        served = client.outcomes(payload)
    finally:
        assert stop_daemon(proc) == 0

    direct = run_specs(specs)
    assert all(outcome.ok for outcome in served)
    assert result_dicts(served) == result_dicts(direct)


def test_restart_reuses_cache_for_finished_work(tmp_path):
    specs = batch()[:3]
    root = tmp_path / "state"
    proc, address = start_daemon(root)
    workers = worker_pids(proc)
    try:
        client = ServeClient(f"http://{address}", client_id="first-life")
        first = client.run(specs, timeout_sec=600)
        assert all(outcome.ok for outcome in first)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stderr.close()
    assert_orphans_exit(workers)

    proc, address = start_daemon(root)
    try:
        # A different client id makes this a new job over the same
        # specs: the second daemon life serves it from the shared cache
        # without re-simulating anything.
        client = ServeClient(f"http://{address}", client_id="second-life")
        second = client.run(specs, timeout_sec=120)
        assert [outcome.source for outcome in second] == ["cache"] * 3
        assert result_dicts(first) == result_dicts(second)
    finally:
        assert stop_daemon(proc) == 0


def test_sigterm_drains_gracefully_and_exits_zero(tmp_path):
    root = tmp_path / "state"
    proc, address = start_daemon(root)
    client = ServeClient(f"http://{address}", client_id="drainer")
    outcomes = client.run([make_spec("redis", "hetero-lru", epochs=2)],
                          timeout_sec=300)
    assert outcomes[0].ok
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 0
    proc.stderr.close()
    # The drain checkpointed cleanly: a fresh store sees the job done
    # and nothing queued.
    store = JobStore(root)
    store.recover()
    counts = {}
    for job in store.jobs.values():
        counts[job.state] = counts.get(job.state, 0) + 1
    assert counts == {"done": 1}


def test_daemon_requires_a_state_root(tmp_path):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    env.pop("REPRO_SWEEP_CACHE_DIR", None)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "--cache-dir" in proc.stderr
