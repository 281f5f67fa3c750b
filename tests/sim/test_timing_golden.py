"""Both timing engines reproduce a pinned ``SimStats`` grid, bit for bit.

The engine-equivalence suite compares the engines with each other; this
test pins them to numbers recorded from the reference engine, so a change
that moves both engines the same way still fails.  The grid is every
cipher x {ROT, OPT} x {alpha-21264, base-4W, 8W+, DF} at a 128-byte
session; each cell stores the full ``SimStats`` record the runner caches
(minus the provenance stamps, which name the engine).

Regenerate (only when a reproduced number changes on purpose)::

    PYTHONPATH=src python -m tests.sim.test_timing_golden --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.isa import Features
from repro.kernels import KERNEL_NAMES
from repro.runner import Runner
from repro.runner.cache import ResultCache
from repro.runner.engine import _stats_to_dict
from repro.runner.experiment import Experiment, ExperimentOptions
from repro.sim import ALPHA21264, BASE4W, DATAFLOW, EIGHTW_PLUS
from repro.sim.stats import PROVENANCE_KEYS

GOLDEN = Path(__file__).parent / "golden" / "timing_stats.json"
SESSION_BYTES = 128
FEATURES = (Features.ROT, Features.OPT)
CONFIGS = (ALPHA21264, BASE4W, EIGHTW_PLUS, DATAFLOW)


def measure(engine: str) -> dict[str, dict]:
    """The whole grid on one engine, keyed by ``cipher/features/config``."""
    runner = Runner(cache=ResultCache.disabled(), timing_engine=engine)
    experiments = [
        Experiment(ExperimentOptions(cipher=cipher, features=features,
                                     session_bytes=SESSION_BYTES), config)
        for cipher in KERNEL_NAMES
        for features in FEATURES
        for config in CONFIGS
    ]
    cells = {}
    for result in runner.run(experiments):
        options = result.experiment.options
        record = _stats_to_dict(result.stats)
        for key in PROVENANCE_KEYS:
            record["extra"].pop(key, None)
        cell = (f"{options.cipher}/{options.features.name}/"
                f"{result.experiment.config.name}")
        cells[cell] = record
    return cells


@pytest.fixture(scope="module")
def golden() -> dict[str, dict]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("engine", ["generic", "specialized"])
def test_engine_matches_golden(golden, engine):
    measured = measure(engine)
    assert measured.keys() == golden.keys()
    mismatched = [cell for cell in golden if measured[cell] != golden[cell]]
    assert not mismatched, f"{engine} diverged from the pin on {mismatched}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python -m {__spec__.name} --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    cells = measure("generic")
    GOLDEN.write_text("{\n" + ",\n".join(
        f"{json.dumps(cell)}: {json.dumps(cells[cell], sort_keys=True)}"
        for cell in sorted(cells)
    ) + "\n}\n")
