"""``serve``: a closed loop against ``repro serve`` over a unix socket.

Set-up spawns ``repro serve --workers 2 --unix-socket ...`` on a fresh
state root three times, timing spawn -> ``/healthz`` 200 each time; the
first two daemons are stopped and the third serves the workload.

Two client threads, each with its own ``ServeClient`` and client id,
run a closed loop: submit a batch of ``BATCH`` specs, wait for the job,
submit the next.  Each client draws its specs from its own seeded
stream.  About ``REPEAT_SHARE`` of the specs repeat one the same client
sent before, so they resolve through the daemon's cache ladder; the
rest are new (distinct simulation seeds, so the two clients never share
a spec and cache behaviour does not depend on thread timing).  No batch
is sent twice, so no job folds onto an earlier one.

Timings are unscaled wall time (see ``util.HostClock``): the daemon
keeps both CPUs busy through the window, so a speed probe during it
would measure the daemon's own load, and probes at its edges do not
track a 15-second window.

Output gate: every job must finish with all specs ok; a repeated spec
must return the digest it returned the first time, and the probe spec
(the first spec of client 0) must match an in-process ``run_spec``.
"""

from __future__ import annotations

import random
import shutil
import signal
import subprocess
import sys
import threading
import traceback

import util

CLIENTS = 2
BATCH = 4
REPEAT_SHARE = 1 / 3
WORKERS = 2
EPOCHS = 20
RATIOS = (0.125, 0.25, 0.5)
JOB_TIMEOUT_SEC = 60.0
BROKEN_APP = "no-such-app"


class Daemon:
    """One ``repro serve`` process on its own state root."""

    def __init__(self, workdir, index: int) -> None:
        self.root = workdir / f"root-{index}"
        # Relative to the checkout root (the benchmark's cwd): keeps the
        # socket path under the AF_UNIX length limit wherever the
        # checkout lives.
        self.socket = (workdir / f"d{index}.sock").relative_to(util.ROOT)
        self.address = f"unix:{self.socket}"
        self._log = open(workdir / f"daemon-{index}.log", "wb")
        self.process = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--workers", str(WORKERS),
                "--unix-socket", str(self.socket),
                "--cache-dir", str(self.root),
            ],
            env=util.child_env(),
            cwd=util.ROOT,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def wait_healthy(self, timeout_sec: float = 60.0) -> None:
        from repro.errors import ServeError
        from repro.serve.client import ServeClient

        probe = ServeClient(self.address, client_id="healthz", max_attempts=1)
        start = util.now()
        while True:
            try:
                probe.healthz()
                return
            except ServeError:
                pass
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.process.returncode}"
                )
            if util.now() - start > timeout_sec:
                raise RuntimeError("repro serve never became healthy")
            threading.Event().wait(0.005)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


class SpecStream:
    """One client's seeded spec stream."""

    def __init__(self, seed: int, client: int, tiny: bool) -> None:
        from repro.core.policy import available_policies
        from repro.workloads.registry import ALL_APPS

        self.rng = random.Random(f"serve:{seed}:{client}")
        self.client = client
        self.apps = ALL_APPS
        self.policies = available_policies()
        self.epochs = 5 if tiny else EPOCHS
        self.drawn: list = []
        self.sent: set = set()
        self.first = self._new()

    def _new(self):
        from repro.sim.parallel import make_spec

        spec = make_spec(
            self.rng.choice(self.apps),
            self.rng.choice(self.policies),
            fast_ratio=self.rng.choice(RATIOS),
            epochs=self.epochs,
            seed=100_000 * (self.client + 1) + len(self.drawn),
        )
        self.drawn.append(spec)
        return spec

    def next_batch(self) -> list:
        batch = []
        if len(self.drawn) == 1 and not self.sent:
            batch.append(self.first)
        while len(batch) < BATCH:
            if self.rng.random() < REPEAT_SHARE:
                spec = self.rng.choice(self.drawn)
                if spec not in batch:
                    batch.append(spec)
                    continue
            batch.append(self._new())
        if tuple(batch) in self.sent:
            batch[-1] = self._new()
        self.sent.add(tuple(batch))
        return batch


def parse_prometheus(text: str) -> "dict[str, float]":
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            key, _, value = line.rpartition(" ")
            try:
                values[key] = float(value)
            except ValueError:
                continue
    return values


class Loop:
    """The closed loop: jobs, latencies and correctness across windows."""

    def __init__(self, daemon: Daemon, streams, inject_failure: bool) -> None:
        self.daemon = daemon
        self.streams = streams
        self.inject_failure = inject_failure
        self.digests = [dict() for _ in streams]
        self.probe = streams[0].first
        self.probe_digest: "str | None" = None
        self._lock = threading.Lock()

    def prepare(self) -> None:
        from repro.sim.parallel import run_spec

        self.probe_digest = util.result_digest(run_spec(self.probe))

    def _check(self, client: int, outcomes) -> bool:
        ok = True
        digests = self.digests[client]
        for outcome in outcomes:
            if not outcome.ok:
                ok = False
                continue
            digest = util.result_digest(outcome.result)
            if digests.setdefault(outcome.spec, digest) != digest:
                print(f"serve: {outcome.spec.label} digest changed on repeat",
                      file=sys.stderr)
                ok = False
            if outcome.spec == self.probe and digest != self.probe_digest:
                print("serve: probe digest differs from its in-process run",
                      file=sys.stderr)
                ok = False
        return ok

    def _client(self, index, deadline, jobs, errors) -> None:
        from repro.errors import ServeError
        from repro.serve.client import ServeClient
        from repro.sim.parallel import make_spec

        client = ServeClient(self.daemon.address, client_id=f"bench-{index}")
        stream = self.streams[index]
        inject = self.inject_failure and index == 0
        while util.now() < deadline:
            batch = stream.next_batch()
            if inject:
                batch.append(make_spec(BROKEN_APP, "hetero-lru", epochs=5))
                inject = False
            start = util.now()
            try:
                job = client.submit(batch)
                payload = client.wait(job, timeout_sec=JOB_TIMEOUT_SEC)
                latency = util.now() - start
                outcomes = client.outcomes(payload)
            except ServeError as exc:
                errors.append(f"client {index}: {exc}")
                return
            with self._lock:
                jobs.append((latency, self._check(index, outcomes)))

    def _run_clients(self, seconds: float, jobs: list, errors: list) -> None:
        deadline = util.now() + seconds

        def client(index: int) -> None:
            try:
                self._client(index, deadline, jobs, errors)
            except Exception:  # reported by the caller
                errors.append(traceback.format_exc())

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(len(self.streams))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=seconds + 2 * JOB_TIMEOUT_SEC)
        if any(thread.is_alive() for thread in threads):
            errors.append("a client thread did not finish")

    def window(self, seconds: float) -> dict:
        jobs: list = []
        errors: list = []
        start = util.now()
        self._run_clients(seconds, jobs, errors)
        wall_s = util.now() - start
        if errors:
            raise RuntimeError(f"serve clients failed: {errors}")
        return {
            "wall_s": wall_s,
            "attempted": len(jobs),
            "failed": sum(1 for _, ok in jobs if not ok),
            "latencies_ms": [latency * 1e3 for latency, _ in jobs],
        }


class QueueSampler(threading.Thread):
    """Scrapes the daemon's queue-depth gauge while a window runs."""

    def __init__(self, address: str) -> None:
        super().__init__(daemon=True)
        from repro.serve.client import ServeClient

        self.client = ServeClient(address, client_id="sampler", max_attempts=1)
        self.peak = 0.0
        self._halt = threading.Event()

    def run(self) -> None:
        from repro.errors import ServeError

        while not self._halt.wait(0.05):
            try:
                metrics = parse_prometheus(self.client.metrics_text())
            except ServeError:
                continue
            self.peak = max(self.peak, metrics.get("serve_queue_depth", 0.0))

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10)


def _scrape(address: str) -> "dict[str, float]":
    from repro.serve.client import ServeClient

    return parse_prometheus(ServeClient(address, client_id="scrape").metrics_text())


def _spawn(workdir, index: int) -> Daemon:
    daemon = Daemon(workdir, index)
    try:
        daemon.wait_healthy()
    except BaseException:
        daemon.stop()
        raise
    return daemon


def measure_setup(workdir, rounds: int = 3):
    """Spawn -> healthy, ``rounds`` times; returns (samples, the last
    daemon, still running)."""
    samples = []
    daemon = None
    for index in range(rounds):
        if daemon is not None:
            daemon.stop()
        start = util.now()
        daemon = _spawn(workdir, index)
        samples.append(util.now() - start)
    return samples, daemon


def run(args, tracer=None) -> dict:
    workdir = util.WORK_DIR / f"serve-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    daemon = None
    try:
        setup, daemon = measure_setup(workdir)
        streams = [SpecStream(args.seed, c, args.tiny) for c in range(CLIENTS)]
        loop = Loop(daemon, streams, args.inject_failure)
        loop.prepare()
        result = loop.window(args.seconds)
        value, pct, count = util.tail(result["latencies_ms"])
        out = {
            "setup": setup,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "scaled_s": result["wall_s"],
            "items": result["attempted"],
            "requests_ms": result["latencies_ms"],
            "scale": None,
            "report": {
                "serve_jobs_per_s": (result["attempted"] / result["wall_s"], "1/s"),
                "serve_job_p50_ms": (util.median(result["latencies_ms"]), "ms"),
                f"serve_job_tail_ms(p{pct:.1f},n={count})": (value, "ms"),
                "specs_per_job": (BATCH, "count"),
            },
        }
        if tracer is not None:
            out.update(_traced(loop, daemon, args, tracer, result))
        return out
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(loop, daemon, args, tracer, untraced) -> dict:
    from tracer import install

    before = _scrape(daemon.address)
    sampler = QueueSampler(daemon.address)
    installation = install(tracer)
    sampler.start()
    try:
        result = loop.window(args.seconds)
    finally:
        installation.uninstall()
        sampler.stop()
    after = _scrape(daemon.address)

    def delta(key: str) -> float:
        return after.get(key, 0.0) - before.get(key, 0.0)

    hits = delta('sweep_cache_lookups_total{result="hit"}')
    misses = delta('sweep_cache_lookups_total{result="miss"}')
    rejected = delta(
        'serve_admissions_total{result="rejected-queue-full"}'
    ) + delta('serve_admissions_total{result="rejected-client-limit"}')
    per_op = untraced["wall_s"] / max(1, untraced["attempted"])
    traced_per_op = result["wall_s"] / max(1, result["attempted"])
    return {
        "attempted": untraced["attempted"] + result["attempted"],
        "failed": untraced["failed"] + result["failed"],
        "overhead_ratio": traced_per_op / per_op,
        "layer": {
            "serve.rejected_429": rejected,
            "serve.cache_hit_ratio": util.mean(hits, hits + misses),
            "serve.queue_depth_max": sampler.peak,
            "serve.worker_respawns": delta("serve_worker_respawns_total"),
        },
    }
