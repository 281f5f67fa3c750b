"""Unified parallel experiment engine with content-hashed result caching.

Public surface::

    options = ExperimentOptions(cipher="RC6", features=Features.ROT,
                                session_bytes=1024)
    runner = Runner(jobs=4)
    results = runner.run([Experiment(options, FOURW),
                          Experiment(options, DATAFLOW)])

Analysis harnesses that are not handed an explicit runner share the
process-wide :func:`default_runner` (one worker per available core, see
:func:`default_jobs`; disk cache honoring ``REPRO_CACHE_DIR`` /
``REPRO_NO_CACHE`` / ``REPRO_JOBS``).  ``Runner(jobs=1)``, the
constructor's default, is the serial path.  See ``docs/runner.md``.
"""

from __future__ import annotations

import os

from repro.runner.cache import (
    RUNNER_VERSION,
    ResultCache,
    content_key,
    default_cache_dir,
)
from repro.runner.engine import RunResult, Runner, RunnerStats
from repro.runner.telemetry import FleetMonitor, ProgressReporter
from repro.runner.experiment import (
    DEFAULT_SESSION_BYTES,
    Experiment,
    ExperimentOptions,
    experiment_grid,
)

_DEFAULT_RUNNER: Runner | None = None


def default_jobs() -> int:
    """Worker processes the CLIs and :func:`default_runner` use by default:
    the cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def default_runner() -> Runner:
    """The process-wide shared runner (lazily created from the environment)."""
    global _DEFAULT_RUNNER
    if _DEFAULT_RUNNER is None:
        _DEFAULT_RUNNER = Runner(
            cache=ResultCache.from_env(),
            jobs=int(os.environ.get("REPRO_JOBS", default_jobs())),
        )
    return _DEFAULT_RUNNER


def set_default_runner(runner: Runner | None) -> Runner | None:
    """Swap the shared runner (tests, CLIs); returns the previous one."""
    global _DEFAULT_RUNNER
    previous = _DEFAULT_RUNNER
    _DEFAULT_RUNNER = runner
    return previous


__all__ = [
    "DEFAULT_SESSION_BYTES",
    "Experiment",
    "ExperimentOptions",
    "FleetMonitor",
    "ProgressReporter",
    "ResultCache",
    "RunResult",
    "Runner",
    "RunnerStats",
    "RUNNER_VERSION",
    "content_key",
    "default_cache_dir",
    "default_jobs",
    "default_runner",
    "experiment_grid",
    "set_default_runner",
]
