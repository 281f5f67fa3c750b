"""The unified experiment runner: dedup, caching, parallel fan-out."""

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.isa import Features
from repro.kernels import KERNEL_NAMES
from repro.runner import (
    Experiment,
    ExperimentOptions,
    ResultCache,
    Runner,
    experiment_grid,
)
from repro.sim import BASE4W, DATAFLOW, FOURW

SRC = str(Path(__file__).resolve().parents[2] / "src")


def make_runner(tmp_path, **kwargs):
    return Runner(cache=ResultCache(tmp_path / "cache"), **kwargs)


def grid(ciphers=("RC6",), configs=(FOURW, DATAFLOW), session_bytes=128):
    return experiment_grid(ciphers, configs, session_bytes=session_bytes)


def test_functional_dedup_across_configs(tmp_path):
    runner = make_runner(tmp_path)
    results = runner.run(grid(configs=(BASE4W, FOURW, DATAFLOW)))
    assert len(results) == 3
    assert runner.stats.functional_runs == 1
    assert runner.stats.timing_runs == 3
    # One trace, three machines: same instruction count everywhere.
    assert len({r.instructions for r in results}) == 1
    assert results[0].stats.cycles >= results[2].stats.cycles  # DF floor


def test_results_keep_input_order(tmp_path):
    runner = make_runner(tmp_path)
    experiments = grid(ciphers=("RC4", "RC6"), configs=(FOURW, DATAFLOW))
    results = runner.run(experiments)
    assert [(r.cipher, r.config_name) for r in results] == [
        (e.options.cipher, e.config.name) for e in experiments
    ]


def test_cache_round_trip_between_runners(tmp_path):
    cold = make_runner(tmp_path)
    first = cold.run(grid())
    assert all(not r.cached for r in first)

    warm = make_runner(tmp_path)
    second = warm.run(grid())
    assert all(r.cached for r in second)
    assert warm.stats.cache_hits == len(second)
    assert warm.stats.functional_runs == 0
    for a, b in zip(first, second):
        assert a.stats == b.stats
        assert a.instructions == b.instructions


def test_experiment_key_stable_across_processes(tmp_path):
    """Keys must be reproducible in a fresh interpreter (new hash seed),
    or the on-disk cache would never hit across invocations."""
    runner = make_runner(tmp_path)
    experiment = grid()[0]
    local = runner.experiment_key(experiment)
    script = (
        "from repro.runner import Runner, ResultCache, experiment_grid;"
        "from repro.sim import FOURW, DATAFLOW;"
        "r = Runner(cache=ResultCache.disabled());"
        "e = experiment_grid(['RC6'], [FOURW, DATAFLOW],"
        " session_bytes=128)[0];"
        "print(r.experiment_key(e))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": SRC, "PYTHONHASHSEED": "random",
             "PATH": "/usr/bin"},
    ).stdout.strip()
    assert out == local


class SourceCopy:
    """A copy of ``src/`` that a test may edit, driven in subprocesses.

    Edits to the copy are what a developer's edits are: the cache key
    must see them without any runtime monkeypatching.
    """

    def __init__(self, root: Path):
        self.root = root
        shutil.copytree(SRC, root,
                        ignore=shutil.ignore_patterns("__pycache__"))

    def edit(self, relative: str, old: str, new: str) -> None:
        path = self.root / relative
        text = path.read_text()
        assert text.count(old) == 1, f"{old!r} not unique in {relative}"
        path.write_text(text.replace(old, new))

    def run(self, script: str, cache_dir: Path | None = None):
        """Run ``script`` on the copy; return its printed JSON."""
        env = {"PYTHONPATH": str(self.root), "PATH": "/usr/bin",
               # An edit may keep a file's size and mtime second, which
               # would let a stale .pyc shadow it.
               "PYTHONDONTWRITEBYTECODE": "1"}
        if cache_dir is not None:
            env["REPRO_CACHE_DIR"] = str(cache_dir)
        out = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            capture_output=True, text=True, check=True, env=env,
        ).stdout
        return json.loads(out)


KEYS_SCRIPT = """
    import json
    from repro.kernels import KERNEL_NAMES
    from repro.runner import ResultCache, Runner, experiment_grid
    from repro.sim import DATAFLOW, FOURW
    runner = Runner(cache=ResultCache.disabled())
    grid = experiment_grid(KERNEL_NAMES, [FOURW, DATAFLOW], session_bytes=64)
    print(json.dumps({
        "experiments": [runner.experiment_key(e) for e in grid],
        "fingerprints": [runner.fingerprint(e.options) for e in grid],
    }))
"""


def test_simulator_edit_rekeys_every_experiment(tmp_path):
    copy = SourceCopy(tmp_path / "src")
    before = copy.run(KEYS_SCRIPT)
    # ALPHA21264's load latency: no experiment below runs on that config,
    # so only the source digest can carry the edit into their keys.
    copy.edit("repro/sim/config.py", "load_latency=4,", "load_latency=5,")
    after = copy.run(KEYS_SCRIPT)
    for kind in ("experiments", "fingerprints"):
        assert not set(before[kind]) & set(after[kind])


def test_observability_edit_rekeys_nothing(tmp_path):
    copy = SourceCopy(tmp_path / "src")
    before = copy.run(KEYS_SCRIPT)
    copy.edit("repro/obs/events.py", '"""The unified run ledger',
              '"""The edited unified run ledger')
    assert copy.run(KEYS_SCRIPT) == before


RC6_SCRIPT = """
    import json
    from repro.runner import ResultCache, Runner, experiment_grid
    from repro.sim import DATAFLOW, FOURW
    runner = Runner(cache=ResultCache.from_env())
    results = runner.run(experiment_grid(["RC6"], [FOURW, DATAFLOW],
                                         session_bytes=128))
    print(json.dumps({"cached": [r.cached for r in results],
                      "cycles": [r.stats.cycles for r in results],
                      "misses": runner.stats.cache_misses}))
"""


def test_cache_invalidated_when_kernel_program_changes(tmp_path):
    """Editing a kernel so it emits different code must change the content
    key, even when the dynamic behavior is identical."""
    copy = SourceCopy(tmp_path / "src")
    baseline = copy.run(RC6_SCRIPT, tmp_path / "cache")
    # Unreachable (after the final halt): the trace and all simulated
    # results are identical, only the program bytes differ.
    copy.edit("repro/kernels/rc6_kernel.py",
              "        kb.halt()\n        return kb.build()\n\n    def ",
              "        kb.halt()\n        kb.addq(in_ptr, in_ptr, in_ptr)\n"
              "        return kb.build()\n\n    def ")
    edited = copy.run(RC6_SCRIPT, tmp_path / "cache")
    assert not any(edited["cached"])
    assert edited["misses"] == len(grid())
    assert edited["cycles"] == baseline["cycles"]


def test_warm_run_builds_no_kernel(tmp_path):
    """A cache hit needs neither a kernel nor pi's digits."""
    script = """
        import dataclasses, json
        from repro.kernels.runtime import CipherKernel
        from repro.runner import ResultCache, Runner, experiment_grid
        from repro.sim import FOURW
        from repro.util.pi import _pi_fraction_hex
        built = []
        init = CipherKernel.__init__
        def counting_init(self, *args, **kwargs):
            built.append(type(self).__name__)
            init(self, *args, **kwargs)
        CipherKernel.__init__ = counting_init
        runner = Runner(cache=ResultCache.from_env())
        results = runner.run(experiment_grid(
            ["Blowfish", "Mars", "RC6"], [FOURW], session_bytes=64))
        print(json.dumps({
            "built": built,
            "pi_misses": _pi_fraction_hex.cache_info().misses,
            "cached": [r.cached for r in results],
            "stats": [dataclasses.asdict(r.stats) for r in results],
            "instructions": [r.instructions for r in results],
        }, default=repr))
    """
    copy = SourceCopy(tmp_path / "src")
    cold = copy.run(script, tmp_path / "cache")
    warm = copy.run(script, tmp_path / "cache")
    assert cold["built"] and cold["pi_misses"]
    assert warm["built"] == [] and warm["pi_misses"] == 0
    assert all(warm["cached"]) and not any(cold["cached"])
    assert warm["stats"] == cold["stats"]
    assert warm["instructions"] == cold["instructions"]


def test_partial_block_session_rejected_at_key_time(tmp_path):
    from repro.kernels import make_kernel

    with pytest.raises(ValueError) as from_program:
        make_kernel("RC6").program_for(100)
    runner = make_runner(tmp_path)
    with pytest.raises(ValueError) as from_key:
        runner.fingerprint(ExperimentOptions(cipher="RC6", session_bytes=100))
    assert str(from_key.value) == str(from_program.value)
    assert runner._kernels == {}


def test_runner_version_participates_in_keys(tmp_path, monkeypatch):
    cold = make_runner(tmp_path)
    cold.run(grid())
    import repro.runner.engine as engine

    monkeypatch.setattr(engine, "RUNNER_VERSION", 999)
    bumped = make_runner(tmp_path)
    assert all(not r.cached for r in bumped.run(grid()))


def test_corrupted_cache_recovers_with_correct_results(tmp_path):
    cold = make_runner(tmp_path)
    baseline = cold.run(grid())
    for path in (tmp_path / "cache").rglob("*.json"):
        path.write_text("NOT JSON")
    recovered_runner = make_runner(tmp_path)
    recovered = recovered_runner.run(grid())
    assert all(not r.cached for r in recovered)
    for a, b in zip(baseline, recovered):
        assert a.stats == b.stats
    # And the rewritten records serve the next runner.
    assert all(r.cached for r in make_runner(tmp_path).run(grid()))


@pytest.mark.parametrize("jobs", [4])
def test_parallel_identical_to_serial_full_suite(tmp_path, jobs):
    """Acceptance: jobs>1 and serial produce identical SimStats for the
    full Table 1 cipher set."""
    experiments = grid(
        ciphers=KERNEL_NAMES, configs=(FOURW, DATAFLOW), session_bytes=128
    )
    serial = Runner(cache=ResultCache.disabled(), jobs=1).run(experiments)
    parallel = Runner(cache=ResultCache.disabled(), jobs=jobs).run(experiments)
    assert len(serial) == len(parallel) == len(experiments)
    for s, p in zip(serial, parallel):
        assert s.stats == p.stats
        assert s.instructions == p.instructions


def test_parallel_falls_back_to_serial_on_pool_failure(tmp_path, monkeypatch):
    import repro.runner.engine as engine

    def broken_pool(*args, **kwargs):
        raise OSError("no processes in this sandbox")

    monkeypatch.setattr(engine.multiprocessing, "Pool", broken_pool)
    runner = make_runner(tmp_path, jobs=4)
    with pytest.warns(RuntimeWarning, match="falling back to serial"):
        results = runner.run(grid(ciphers=("RC4", "RC6")))
    assert len(results) == 4
    assert all(r.stats.cycles > 0 for r in results)


def test_setup_and_decrypt_kinds(tmp_path):
    runner = make_runner(tmp_path)
    setup = runner.run_one(Experiment(
        ExperimentOptions(cipher="Blowfish", kind="setup", session_bytes=0),
        BASE4W,
    ))
    assert setup.stats.cycles > 0
    decrypt = runner.run_one(Experiment(
        ExperimentOptions(
            cipher="RC6", kind="decrypt", session_bytes=128,
            features=Features.OPT,
        ),
        FOURW,
    ))
    encrypt = runner.run_one(Experiment(
        ExperimentOptions(
            cipher="RC6", kind="encrypt", session_bytes=128,
            features=Features.OPT,
        ),
        FOURW,
    ))
    assert decrypt.stats.cycles > 0
    assert decrypt.experiment.options.kind == "decrypt"
    assert encrypt.stats.cycles > 0


def test_invalid_kind_rejected():
    with pytest.raises(ValueError):
        ExperimentOptions(cipher="RC6", kind="frobnicate")


def test_stats_hook_sees_every_result(tmp_path):
    seen = []
    runner = make_runner(tmp_path, stats_hook=seen.append)
    runner.run(grid())
    assert [(r.cipher, r.config_name, r.cached) for r in seen] == [
        ("RC6", "4W", False), ("RC6", "DF", False),
    ]
    warm = make_runner(tmp_path, stats_hook=seen.append)
    warm.run(grid())
    assert [r.cached for r in seen[2:]] == [True, True]


def test_runner_stats_summary_mentions_counts(tmp_path):
    runner = make_runner(tmp_path)
    runner.run(grid())
    text = runner.stats.summary()
    assert "cache hits" in text and "timing runs" in text


def test_cached_value_round_trip(tmp_path):
    runner = make_runner(tmp_path)
    calls = []

    def compute():
        calls.append(1)
        return {"answer": 42}

    assert runner.cached_value(["probe"], compute) == {"answer": 42}
    assert runner.cached_value(["probe"], compute) == {"answer": 42}
    assert len(calls) == 1
    # A different key computes again.
    runner.cached_value(["probe", 2], compute)
    assert len(calls) == 2


def test_simulate_trace_cached_by_key_parts(tmp_path):
    runner = make_runner(tmp_path)
    options = ExperimentOptions(cipher="RC6", session_bytes=128)
    run = runner.functional(options)
    first = runner.simulate_trace(
        run.trace, FOURW, run.warm_ranges, key_parts=["probe-trace"]
    )
    warm_runner = make_runner(tmp_path)
    second = warm_runner.simulate_trace(
        run.trace, FOURW, run.warm_ranges, key_parts=["probe-trace"]
    )
    assert first == second
    assert warm_runner.stats.timing_runs == 0
    # Without key_parts the simulation always runs live.
    third = warm_runner.simulate_trace(run.trace, FOURW, run.warm_ranges)
    assert third == first
    assert warm_runner.stats.timing_runs == 1


def test_default_key_matches_suite_pattern(tmp_path):
    """Options with key=None share traces with explicit standard keys."""
    from repro.ciphers.suite import SUITE_BY_NAME

    runner = make_runner(tmp_path)
    implicit = ExperimentOptions(cipher="RC4", session_bytes=128)
    explicit = implicit.with_(
        key=bytes(range(SUITE_BY_NAME["RC4"].key_bytes))
    )
    assert runner.fingerprint(implicit) == runner.fingerprint(explicit)


def test_wall_time_covers_every_phase(tmp_path):
    """wall_time must account for functional + timing + cache work; the
    original implementation only summed timing runs."""
    runner = make_runner(tmp_path)
    runner.run(grid())
    stats = runner.stats
    assert stats.wall_time_functional > 0
    assert stats.wall_time_timing > 0
    assert stats.wall_time_cache > 0
    assert stats.wall_time == pytest.approx(
        sum(stats.phase_breakdown().values())
    )
    text = stats.summary()
    assert "functional" in text and "timing" in text and "cache" in text

    # A warm run does cache work but no simulation.
    warm = make_runner(tmp_path)
    warm.run(grid())
    assert warm.stats.wall_time_cache > 0
    assert warm.stats.wall_time_timing == 0
    assert warm.stats.wall_time_functional == 0


def test_parallel_workers_report_functional_time():
    runner = Runner(cache=ResultCache.disabled(), jobs=4)
    runner.run(grid(ciphers=("RC4", "RC6"), configs=(FOURW,)))
    if runner.stats.functional_runs:  # pool may be unavailable in sandbox
        assert runner.stats.wall_time_functional > 0


def test_simulate_trace_counts_timing_phase(tmp_path):
    runner = make_runner(tmp_path)
    options = ExperimentOptions(cipher="RC6", session_bytes=128)
    run = runner.functional(options)
    runner.simulate_trace(run.trace, FOURW, run.warm_ranges)
    assert runner.stats.wall_time_timing > 0


def test_runner_publishes_metrics_and_spans(tmp_path):
    from repro.obs import MetricsRegistry, Tracer, validate_trace_events

    metrics = MetricsRegistry()
    tracer = Tracer()
    runner = make_runner(tmp_path, metrics=metrics, tracer=tracer)
    runner.run(grid())

    assert metrics.counter("runner.functional_runs").value == 1
    assert metrics.counter("runner.cache.misses").value == 2
    assert metrics.counter("sim.runs", {"config": "4W"}).value == 1
    names = {event["name"] for event in tracer.events}
    assert "cache-probe" in names
    assert "functional:RC6" in names
    assert "timing:RC6:4W" in names
    assert validate_trace_events(tracer.to_chrome()) == []

    # Warm reruns touch no simulator and open no timing spans.
    warm_tracer = Tracer()
    warm = make_runner(tmp_path, tracer=warm_tracer)
    warm.run(grid())
    warm_names = {event["name"] for event in warm_tracer.events}
    assert "cache-probe" in warm_names
    assert not any(name.startswith("timing:") for name in warm_names)


def test_cached_records_round_trip_stall_attribution(tmp_path):
    cold = make_runner(tmp_path)
    baseline = cold.run(grid(configs=(FOURW,)))[0].stats
    assert baseline.issue_slots > 0 and baseline.stall_slots

    warm = make_runner(tmp_path)
    cached = warm.run(grid(configs=(FOURW,)))[0].stats
    assert cached.issue_slots == baseline.issue_slots
    assert cached.stall_slots == baseline.stall_slots
    assert cached.wait_cycles == baseline.wait_cycles
    assert cached.hotspots == baseline.hotspots
