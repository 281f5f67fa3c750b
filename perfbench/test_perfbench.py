"""Tests of the benchmark itself, on the 64 B report.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from repro.kernels import KERNEL_NAMES  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


def flip_digit(text: str) -> str:
    """``text`` with the last digit of Figure 4's RC4 row changed."""
    row = text.index("\nRC4", text.index("Figure 4")) + 1
    end = text.find("\n", row)
    end = len(text) if end < 0 else end
    index = max(i for i in range(row, end) if text[i].isdigit())
    return text[:index] + str((int(text[index]) + 1) % 10) + text[index + 1:]


@pytest.fixture(scope="module")
def traced_unit(tmp_path_factory):
    before = layers.snapshot()
    cache = tmp_path_factory.mktemp("cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_CACHE_DIR", str(cache))
        result = worker.measure("report-cold", 0, traced=True)
    return before, result


def test_layer_self_times_sum_to_wall(traced_unit):
    _, result = traced_unit
    wall = result["wall_s"]
    self_s = result["self_s"]
    layer_total = sum(s for name, s in self_s.items() if name != "bench")
    assert layer_total + self_s["bench"] == pytest.approx(wall, abs=1e-6)
    assert wall - layer_total <= run.MAX_UNACCOUNTED * wall
    metrics = result["layers"]
    assert metrics["unaccounted_s"] == self_s["bench"]
    for name in ("timing.exec_s", "backends.exec_s", "kernels.build_s",
                 "runner.self_s", "cache.write_s"):
        assert metrics[name] > 0, name
    assert metrics["timing.pipelines"] == metrics["runner.timing_runs"]
    assert run.check("report-cold", 0, result) is None


def test_wrappers_are_removed_after_traced_run(traced_unit):
    before, _ = traced_unit
    assert layers.snapshot() == before


def test_wrappers_are_removed_when_the_unit_raises(monkeypatch):
    before = layers.snapshot()

    def boom(*args):
        raise RuntimeError("unit failed")

    monkeypatch.setattr(worker, "run_unit", boom)
    with pytest.raises(RuntimeError):
        worker.measure("report-cold", 0, traced=True)
    assert layers.snapshot() == before


@pytest.mark.parametrize("workload", ["report-cold", "fig4-4k"])
def test_flipped_digit_fails_the_check(workload):
    reference = run.reference_text(workload, 0)
    footer = "\n[report generated in 4.2s, session=64B; runner: ...]\n"
    assert run.check(workload, 0, {"text": reference + footer}) is None
    flipped = flip_digit(reference)
    assert flipped != reference
    assert run.check(workload, 0, {"text": flipped}) is not None


def test_fig4_reference_is_the_archived_figure():
    lines = run.reference_text("fig4-4k", 0).splitlines()
    assert lines[0].startswith("Figure 4:")
    assert [row.split()[0] for row in lines[2:]] == list(KERNEL_NAMES)
    assert run.reference_text("fig4-4k", 7) is None


def test_flipped_digit_fails_the_run(monkeypatch):
    reference = run.reference_text("report-cold", 0)
    monkeypatch.setattr(run, "reference_text",
                        lambda workload, seed: flip_digit(reference))
    out = io.StringIO()
    with redirect_stdout(out):
        code = run.main(["--workload", "report-cold", "--seconds", "0"])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_no_program_means_no_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "report-warm"]) != 0
    assert capsys.readouterr().out == ""


def test_traced_unit_reports_every_per_layer_metric(traced_unit):
    _, result = traced_unit
    produced = set(result["layers"]) | {"trace_overhead_pct"}
    assert produced == set(run.PER_LAYER)
    assert [w["name"] for w in run.SPEC["workloads"]] == list(run.WORKLOADS)


def test_fig4_seed_draws_inputs():
    standard = worker.fig4_options(0)
    drawn = worker.fig4_options(3)
    assert all(opt.key is None and opt.plaintext is None for opt in standard)
    assert [opt.key for opt in drawn] == [opt.key for opt in
                                          worker.fig4_options(3)]
    assert all(len(opt.plaintext) == worker.FIG4_SESSION_BYTES
               for opt in drawn)
