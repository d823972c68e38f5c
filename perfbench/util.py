"""Shared helpers: paths, environment, digests, statistics, host record."""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Checkout root: the directory that holds ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = ROOT / "perfbench"
#: Scratch state for one run (caches, journals, daemon roots); removed
#: when the run ends.
WORK_DIR = BENCH_DIR / "_work"
#: Chrome traces written by traced runs; kept after the run.
TRACE_DIR = BENCH_DIR / "_traces"
#: Bytecode cache for the benchmark and its children, so nothing is
#: written under ``src/`` or ``benchmarks/``.
PYCACHE_DIR = BENCH_DIR / "_pycache"


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env.pop("REPRO_SWEEP_CACHE_DIR", None)
    env["REPRO_FAST"] = "1"
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE_DIR)
    return env


def prepare_process() -> None:
    """Configure this process the same way as its children."""
    os.environ.pop("REPRO_SWEEP_CACHE_DIR", None)
    os.environ["REPRO_FAST"] = "1"
    sys.pycache_prefix = str(PYCACHE_DIR)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def now() -> float:
    return time.perf_counter()


def time_fresh_interpreter(code: str, rounds: int) -> "list[float]":
    """Scaled seconds (see :class:`HostClock`) of ``rounds`` fresh
    interpreters running ``code``, after one untimed warm-up that fills
    the bytecode cache."""
    clock = HostClock()
    command = [sys.executable, "-c", code]
    subprocess.run(command, env=child_env(), check=True, cwd=ROOT)
    samples = []
    for _ in range(rounds):
        _, _, scaled = clock.timed(
            subprocess.run, command, env=child_env(), check=True, cwd=ROOT
        )
        samples.append(scaled)
    return samples


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: Iterations of the host-speed probe loop, and its repetitions.
PROBE_LOOPS = 20_000
PROBE_REPEATS = 3
#: The reference host is one on which the probe takes this long.
REF_PROBE_MS = 1.2


def probe_ms() -> float:
    """Fastest of a few runs of a fixed pure-Python loop: sustained host
    speed, without one-off preemptions."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = now()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += (i * i) % 7
        best = min(best, now() - start)
    return best * 1e3


class HostClock:
    """Wall time scaled to the reference host's speed.

    Shared hosts change speed: on a 2-vCPU box the probe loop read 20%
    to 80% slower for tens of seconds at a time, moving every timing
    with it.  A probe runs before and after each timed unit of
    work, and the unit's wall time is scaled by ``REF_PROBE_MS`` over
    the mean of the two probes: the time the unit would take on the
    reference host.  The probes are outside the timed region.
    """

    def __init__(self) -> None:
        self.last = probe_ms()
        self.probes = [self.last]

    def timed(self, fn, *args, **kwargs):
        """``(result, wall seconds, scaled seconds)`` of one call."""
        before = self.last
        start = now()
        result = fn(*args, **kwargs)
        wall = now() - start
        self.last = probe_ms()
        self.probes.append(self.last)
        return result, wall, wall * REF_PROBE_MS * 2 / (before + self.last)

    def scale(self) -> float:
        """Reference over measured speed, from every probe so far."""
        return REF_PROBE_MS / median(self.probes)


# ----------------------------------------------------------------------
# Result digests
# ----------------------------------------------------------------------


def _plain(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _plain(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, dict):
        return {str(_plain(key)): _plain(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def result_digest(result) -> str:
    """SHA-256 of a ``RunResult`` as canonical JSON, timeline excluded
    (timelines are observation, captured on some paths and not others)."""
    stripped = dataclasses.replace(result, timeline=None)
    payload = json.dumps(
        _plain(stripped), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def tail(values) -> "tuple[float, float, int]":
    """Highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample_count)``; with ten or fewer
    samples there is no such percentile and the maximum stands in.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return 0.0, 0.0, 0
    if count <= 10:
        return ordered[-1], 100.0, count
    index = count - 11
    return ordered[index], 100.0 * (index + 1) / count, count


def mean(total: float, count: int) -> float:
    return total / count if count else 0.0


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------


def peak_rss_mib() -> float:
    """Peak resident memory of this process or its largest waited-for
    child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def calibration_ms(rounds: int = 5) -> float:
    """Median host-speed probe: how fast this host runs
    interpreter-bound code right now."""
    return median([probe_ms() for _ in range(rounds)])


def host_record() -> dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }
