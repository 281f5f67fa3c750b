"""The pluggable timing engines are interchangeable, bit for bit.

The ``"specialized"`` engine generates a per-(program, config) scheduler;
its entire value rests on producing *exactly* the SimStats the
``"generic"`` engine produces -- cycles, the 13-category slot account,
wait-cycle totals, and the hot-spot table -- for every cipher, machine
model, and chunking.  These tests pin that contract, the engine
registry's uniform error shape, the ``schedule_range`` fallback, and the
specialization report/cache surfaces.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import assemble
from repro.kernels import KERNEL_NAMES
from repro.kernels.registry import make_kernel
from repro.obs.diffing import explain_stats_delta
from repro.sim import (
    DATAFLOW,
    EIGHTW_PLUS,
    FOURW,
    Machine,
    Memory,
    bottleneck_config,
)
from repro.sim.backends import get_backend
from repro.sim.timing import (
    DEFAULT_ENGINE,
    engine_names,
    get_engine,
    make_pipeline,
    simulate,
)
from repro.sim.timing import specialized as specialized_mod
from repro.sim.timing.generic import GenericPipeline
from repro.sim.trace import StaticInfo

from .test_timing_properties import random_programs

# DF+res: unit pools without slot accounting, where the generic loop
# skips saturated cycles and the generated code walks them one by one.
CONFIGS = (FOURW, EIGHTW_PLUS, DATAFLOW, bottleneck_config("res"))
CHUNK_SIZES = (1, 7, 4096, None)


def _stats(kernel_run, config, engine, chunk_size=None):
    trace = kernel_run.trace
    pipeline = make_pipeline(config, trace.static, trace.program,
                             warm_ranges=kernel_run.warm_ranges,
                             engine=engine)
    for chunk in trace.chunks(chunk_size):
        pipeline.feed(chunk)
    return pipeline.finish()


@pytest.fixture(scope="module")
def kernel_runs():
    """One materialized functional run per cipher, shared by the grid."""
    data = bytes(i & 0xFF for i in range(64))
    return {name: make_kernel(name).encrypt(data) for name in KERNEL_NAMES}


# -- engine equivalence -----------------------------------------------------

@pytest.mark.parametrize("cipher", KERNEL_NAMES)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_engines_bit_identical_every_cipher(kernel_runs, cipher, config):
    run = kernel_runs[cipher]
    baseline = _stats(run, config, "generic")
    for chunk_size in CHUNK_SIZES:
        specialized = _stats(run, config, "specialized", chunk_size)
        assert specialized == baseline, (
            f"{cipher}/{config.name} diverged at chunk_size={chunk_size}: "
            + explain_stats_delta(baseline, specialized,
                                  "generic", "specialized")
        )


def _issue_slot_invariant(stats):
    if not stats.issue_slots:  # unconstrained (dataflow) machines
        return
    assert stats.instructions + sum(stats.stall_slots.values()) == \
        stats.issue_slots


@given(random_programs(), st.sampled_from(CHUNK_SIZES))
@settings(max_examples=25, deadline=None)
def test_random_programs_engines_agree(program, chunk_size):
    """Both engines, any chunking: identical stats, exact slot account."""
    trace = Machine(program, Memory(1 << 13)).execute().trace
    static = StaticInfo.from_program(program)
    results = {}
    for engine in ("generic", "specialized"):
        pipeline = make_pipeline(FOURW, static, program, engine=engine)
        for chunk in trace.chunks(chunk_size):
            pipeline.feed(chunk)
        results[engine] = pipeline.finish()
        _issue_slot_invariant(results[engine])
    assert results["specialized"] == results["generic"], explain_stats_delta(
        results["generic"], results["specialized"], "generic", "specialized")


def test_specialized_handles_taken_branch_slow_path():
    """A loopy trace exercises the generated code's branch lookahead and
    the single-entry slow-path repairs around mispredictions."""
    run = make_kernel("RC4").encrypt(bytes(256))
    for config in CONFIGS:
        assert _stats(run, config, "specialized", 1) == \
            _stats(run, config, "generic")


def test_mixed_cost_multiplier_pool_is_not_elided():
    """A multiplier pool as wide as issue still binds when some multiply
    costs two slots: two MULQs fill four slots, so a MULL must wait."""
    program = assemble("ldiq r1, 3\nldiq r2, 5\n" + (
        "mulq r1, r2, r3\nmulq r1, r2, r4\n"
        "mull r1, r2, r5\nmull r1, r2, r6\n") * 20 + "halt\n")
    trace = Machine(program, Memory(1 << 13)).execute().trace
    static = StaticInfo.from_program(program)
    config = FOURW.with_(name="4W-mul4", mul_slots=4)
    results = {}
    for engine in ("generic", "specialized"):
        pipeline = make_pipeline(config, static, program, engine=engine)
        for chunk in trace.chunks(None):
            pipeline.feed(chunk)
        results[engine] = pipeline.finish()
    assert results["generic"].stall_slots["fu_mul"] > 0
    assert results["specialized"] == results["generic"], explain_stats_delta(
        results["generic"], results["specialized"], "generic", "specialized")


# -- registry ---------------------------------------------------------------

def test_engine_registry_names_and_default():
    assert DEFAULT_ENGINE == "generic"
    assert set(engine_names()) >= {"generic", "specialized"}
    assert get_engine(None).name == DEFAULT_ENGINE
    assert get_engine("specialized").name == "specialized"
    engine = get_engine("generic")
    assert get_engine(engine) is engine  # instances pass through


def test_registries_share_one_error_shape():
    with pytest.raises(ValueError, match=r"unknown timing engine 'nope'; "
                                         r"registered: generic"):
        get_engine("nope")
    with pytest.raises(ValueError, match=r"unknown backend 'nope'; "
                                         r"registered: compiled"):
        get_backend("nope")


def _small_run():
    return make_kernel("RC4").encrypt(bytes(64))


def test_timing_pipeline_shim_is_gone():
    """The pre-engine ``TimingPipeline`` shim was removed on schedule;
    ``make_pipeline``/``simulate`` are the only constructors."""
    import repro.sim
    import repro.sim.timing
    assert not hasattr(repro.sim.timing, "TimingPipeline")
    assert not hasattr(repro.sim, "TimingPipeline")
    assert "TimingPipeline" not in repro.sim.timing.__all__


# -- schedule_range fallback ------------------------------------------------

def test_specialized_schedule_range_falls_back_to_generic():
    """Window scheduling is a debugging path; the specialized engine
    delegates it so ``--view`` output is engine-independent."""
    run = _small_run()
    trace = run.trace
    pipeline = make_pipeline(FOURW, trace.static, trace.program,
                             schedule_range=(0, 30), engine="specialized")
    assert isinstance(pipeline, GenericPipeline)
    baseline = simulate(trace, FOURW, run.warm_ranges,
                        schedule_range=(0, 30), engine="generic")
    got = simulate(trace, FOURW, run.warm_ranges,
                   schedule_range=(0, 30), engine="specialized")
    assert got.extra["schedule"] == baseline.extra["schedule"]


# -- specialization reports and cache ---------------------------------------

def test_specialization_report_and_code_cache():
    specialized_mod.cache_clear()
    assert specialized_mod.cache_info()["size"] == 0
    run = _small_run()
    before = _stats(run, FOURW, "specialized")
    assert specialized_mod.cache_info()["size"] == 1
    reports = specialized_mod.specialization_reports()
    assert len(reports) == 1
    report = reports[0]
    assert report.config_name == FOURW.name
    assert report.attributed
    assert report.source_cache_hits == 0
    # Second pipeline for the same (program, config): served from cache.
    assert _stats(run, FOURW, "specialized") == before
    assert specialized_mod.cache_info()["size"] == 1
    assert report.source_cache_hits == 1
    assert FOURW.name in specialized_mod.explain_table()
