"""The pool path matches the serial path: dedup, telemetry, defaults."""

import argparse
import warnings
from pathlib import Path

import pytest

from repro.analysis import bottlenecks, throughput
from repro.obs import MetricsRegistry, Tracer, validate_trace_events
from repro.runner import ResultCache, Runner, default_jobs, experiment_grid
from repro.sim import DATAFLOW, FOURW
from repro.sim.timing import specialized
from repro.tools.cli import add_runner_arguments, runner_from_args


def pool_ran(runner: Runner) -> bool:
    """False when no pool could start here (the runner fell back)."""
    return runner.jobs > 1


def run_quietly(runner, experiments):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return runner.run(experiments)


# -- warn once, then stay serial --------------------------------------------

def test_pool_failure_warns_once_and_stays_serial(tmp_path, monkeypatch):
    import repro.runner.engine as engine

    constructed = []

    def broken_pool(*args, **kwargs):
        constructed.append(args)
        raise OSError("no processes in this sandbox")

    monkeypatch.setattr(engine.multiprocessing, "Pool", broken_pool)
    experiments = experiment_grid(["RC4", "RC6"], [FOURW], session_bytes=64)
    runner = Runner(cache=ResultCache.disabled(), jobs=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = runner.run(experiments)
        second = runner.run(experiments)
    assert len([w for w in caught
                if issubclass(w.category, RuntimeWarning)]) == 1
    assert len(constructed) == 1
    assert runner.jobs == 1
    assert [r.stats for r in first] == [r.stats for r in second]


def test_group_error_reraises_without_fallback(monkeypatch):
    """A kernel's own failure in a worker is the jobs=1 error, not a
    pool failure: no warning, no serial rerun, the pool stays on."""
    from repro.kernels import KERNELS

    def wrong_reference(self, plaintext, iv):
        return bytes(len(plaintext))

    monkeypatch.setattr(KERNELS["RC6"], "reference_encrypt", wrong_reference)
    experiments = experiment_grid(["RC4", "RC6"], [FOURW], session_bytes=64)
    with pytest.raises(AssertionError) as serial:
        Runner(cache=ResultCache.disabled(), jobs=1).run(experiments)
    runner = Runner(cache=ResultCache.disabled(), jobs=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(AssertionError) as pooled:
            runner.run(experiments)
    assert "diverges from reference" in str(serial.value)
    assert str(pooled.value) == str(serial.value)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert runner.jobs == 2


class TwoArgError(Exception):
    """An exception that unpickling cannot rebuild (``__init__`` needs two
    arguments, pickling replays one)."""

    def __init__(self, message, detail):
        super().__init__(message)
        self.detail = detail


def test_unpicklable_group_error_surfaces_instead_of_hanging(monkeypatch):
    from repro.kernels import KERNELS

    def explode(self, plaintext, iv):
        raise TwoArgError("kernel exploded", 1)

    monkeypatch.setattr(KERNELS["RC6"], "reference_encrypt", explode)
    runner = Runner(cache=ResultCache.disabled(), jobs=2)
    with pytest.raises(Exception, match="kernel exploded"):
        run_quietly(runner, experiment_grid(["RC4", "RC6"], [FOURW],
                                            session_bytes=64))


# -- trace dedup through the shared cache -------------------------------------

def fig4_then_fig5(cache_root: Path, jobs: int):
    runner = Runner(cache=ResultCache(cache_root), jobs=jobs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        fig4 = throughput.figure4(64, runner=runner)
        fig5 = bottlenecks.figure5(64, runner=runner)
    files = {path.name for path in cache_root.rglob("*") if path.is_file()}
    return runner, (throughput.render_figure4(fig4)
                    + bottlenecks.render_figure5(fig5)), files


def test_pool_workers_write_trace_blobs_through(tmp_path):
    """Figure 5 reuses Figure 4's traces at jobs=2 exactly as at jobs=1."""
    serial, serial_text, serial_files = fig4_then_fig5(tmp_path / "a", 1)
    pooled, pooled_text, pooled_files = fig4_then_fig5(tmp_path / "b", 2)
    assert pooled_text == serial_text
    assert pooled.stats.functional_runs == serial.stats.functional_runs
    assert pooled_files == serial_files
    assert any(name.endswith(".bin") for name in serial_files)


# -- telemetry parity -------------------------------------------------------

def metric_view(metrics: MetricsRegistry) -> dict:
    """Metric identity -> comparable value (timings reduced to counts)."""
    view = {}
    for metric in metrics.snapshot()["metrics"]:
        key = (metric["name"], tuple(sorted(metric["labels"].items())))
        if metric["type"] == "histogram":
            view[key] = metric["count"]
        elif metric["type"] == "counter":
            view[key] = metric["value"]
        else:
            view[key] = None  # gauges: presence only
    return view


def telemetry_run(jobs: int, **kwargs):
    metrics, tracer = MetricsRegistry(), Tracer()
    runner = Runner(cache=ResultCache.disabled(), jobs=jobs,
                    metrics=metrics, tracer=tracer, heartbeat_interval=0,
                    **kwargs)
    results = run_quietly(runner, experiment_grid(
        ["RC4", "RC6"], [FOURW, DATAFLOW], session_bytes=64))
    return runner, results, metrics, tracer


def test_pool_metrics_and_spans_match_serial():
    _, serial_results, serial_metrics, _ = telemetry_run(1)
    runner, results, metrics, tracer = telemetry_run(2)
    if not pool_ran(runner):
        pytest.skip("no process pool can start here")
    assert [r.stats for r in results] == [r.stats for r in serial_results]
    assert metric_view(metrics) == metric_view(serial_metrics)
    spans = [(event["name"], event["tid"]) for event in tracer.events
             if event.get("ph") == "X"]
    names = [name for name, _ in spans]
    for cipher in ("RC4", "RC6"):
        assert names.count(f"functional:{cipher}") == 1
        for config in ("4W", "DF"):
            assert names.count(f"timing:{cipher}:{config}") == 1
    # Worker spans sit on per-worker tracks, not the parent's track 0.
    assert all(tid != 0 for name, tid in spans
               if name.startswith(("functional:", "timing:")))
    assert validate_trace_events(tracer.to_chrome()) == []


def test_pool_merges_worker_specializations():
    specialized.cache_clear()
    runner, _, _, _ = telemetry_run(2, timing_engine="specialized")
    if not pool_ran(runner):
        pytest.skip("no process pool can start here")
    reported = {(report.config_name, report.instructions)
                for report in specialized.specialization_reports()}
    specialized.cache_clear()
    telemetry_run(1, timing_engine="specialized")
    expected = {(report.config_name, report.instructions)
                for report in specialized.specialization_reports()}
    assert len(expected) == 4  # 2 programs x 2 configs
    assert reported == expected


def test_pool_republishes_worker_ledger_events(tmp_path):
    """Cache and codegen events from workers reach the parent's ledger
    (the runner's bus doubling as the active bus, as in the CLIs)."""
    from repro.obs import EventBus, RingBufferSink, validate_event_ledger
    from repro.obs.events import set_active_bus

    def ledger(jobs):
        bus, sink = EventBus(), RingBufferSink()
        bus.subscribe(sink)
        runner = Runner(cache=ResultCache(tmp_path / f"cache{jobs}"),
                        jobs=jobs, bus=bus, timing_engine="specialized",
                        heartbeat_interval=0)
        specialized.cache_clear()
        previous = set_active_bus(bus)
        try:
            run_quietly(runner, experiment_grid(
                ["RC4", "RC6"], [FOURW], session_bytes=64))
        finally:
            set_active_bus(previous)
        return runner, sink.events

    _, serial = ledger(1)
    runner, pooled = ledger(2)
    if not pool_ran(runner):
        pytest.skip("no process pool can start here")

    def counts(events):
        kinds = {}
        for event in events:
            if event["type"] == "heartbeat":
                continue
            key = (event["source"], event["type"])
            kinds[key] = kinds.get(key, 0) + 1
        return kinds

    assert counts(pooled) == counts(serial)
    assert counts(pooled)[("timing", "specialize")] == 2
    assert counts(pooled)[("cache", "write")] == 4  # 2 blobs + 2 records
    assert validate_event_ledger(pooled) == []


# -- the shipped default ----------------------------------------------------

def test_cli_jobs_defaults_to_available_cores():
    parser = argparse.ArgumentParser()
    add_runner_arguments(parser)
    assert parser.parse_args([]).jobs == default_jobs()
    runner = runner_from_args(parser.parse_args(["--jobs", "1",
                                                 "--no-cache"]))
    assert runner.jobs == 1
