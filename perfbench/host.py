"""Provenance attached to every benchmark result, and the host-speed
probe that timed runs are scaled by."""

from __future__ import annotations

import hashlib
import os
import platform
import signal
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

import numpy as np

#: Seconds between two probes of the host's speed while units run.
PROBE_PERIOD_S = 0.02
#: Probe times that scaled figures refer to, ``(loop, calls)``: about
#: the fastest twentieth of each probe on a 2-core Intel Xeon VM.
PROBE_NOMINAL_S = (150e-6, 180e-6)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_size(level: int) -> str:
    """Size of the first unified/data cache at ``level`` (sysfs)."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (int((index / "level").read_text()) == level
                    and (index / "type").read_text().strip() != "Instruction"):
                return (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
    return "unknown"


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _source_digest(root: Path) -> str:
    """SHA-256 over every ``src/**/*.py`` path and its bytes.

    Identifies the measured code where the checkout is not a git
    repository.
    """
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, workload: str, seed: int) -> dict[str, object]:
    """The host and code a result was measured on."""
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "src_digest": _source_digest(root),
    }


class SpeedProbe:
    """Times two fixed probes every ``PROBE_PERIOD_S`` while active.

    A shared host's speed swings by up to 2x from one second to the
    next and drifts over minutes.  The probes run on a timer signal in
    the measured thread, so they see the same core at the same moments
    as the unit they interrupt.  The *loop* probe is pure-Python
    arithmetic; unit rates track it (time ratio slope 1.0-1.3 in log
    terms).  The *calls* probe makes small NumPy calls; set-up, which
    builds objects through many such calls, slows about 1.7x as much as
    the loop in log terms and tracks the calls probe (slope 1.06).
    Used as a context manager; restores the previous ``SIGALRM``
    handler on exit.
    """

    def __init__(self) -> None:
        #: ``(loop_s, calls_s)`` per tick.
        self.samples: list[tuple[float, float]] = []
        self._rng = np.random.default_rng(0)
        self._previous = None

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _loop(self) -> int:
        total = 0
        for i in range(2_000):
            total += i * i % 7
        return total

    def _calls(self) -> float:
        total = 0.0
        for _ in range(30):
            total += (self._rng.uniform(0.0, 1.0, 3).sum()
                      + np.zeros(3).sum())
        return total

    def _tick(self, _signum, _frame) -> None:
        start = perf_counter()
        self._loop()
        middle = perf_counter()
        self._calls()
        self.samples.append((middle - start, perf_counter() - middle))

    def slowdown(self, first: int) -> tuple[float, float]:
        """``(loop, calls)``: median probe times from tick ``first`` on,
        each over its nominal.

        Falls back to the latest tick when none was taken since.
        """
        recent = self.samples[first:] or self.samples[-1:]
        if not recent:
            return 1.0, 1.0
        return tuple(statistics.median(column) / nominal for column, nominal
                     in zip(zip(*recent), PROBE_NOMINAL_S))
