"""The loop memo replays iterations without moving a single number.

The oracle is the same generic pipeline with the memo switched off
through its private constructor argument; every comparison is the full
``SimStats`` record the runner caches, minus provenance.  Analytic loop
kernels check the replayed cycles against closed forms as well.
"""

import inspect
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import Features, Imm, KernelBuilder
from repro.kernels import KERNEL_NAMES
from repro.kernels.registry import make_kernel
from repro.obs.diffing import explain_stats_delta
from repro.runner import ExperimentOptions, Runner
from repro.runner.cache import ResultCache
from repro.runner.engine import _stats_to_dict
from repro.runner.experiment import Experiment
from repro.sim import (
    ALPHA21264,
    BASE4W,
    DATAFLOW,
    EIGHTW_PLUS,
    FOURW_PLUS,
    Machine,
    Memory,
    bottleneck_config,
)
from repro.sim.stats import PROVENANCE_KEYS
from repro.sim.timing import make_pipeline, simulate
from repro.sim.timing.generic import GenericPipeline
from repro.sim.timing.memo import loop_header

CONFIGS = (ALPHA21264, BASE4W, FOURW_PLUS, EIGHTW_PLUS,
           bottleneck_config("window"))
CHUNK_SIZES = (97, 1000, 4096)
FEATURES = (Features.ROT, Features.OPT)


def _record(stats) -> dict:
    record = _stats_to_dict(stats)
    for key in PROVENANCE_KEYS:
        record["extra"].pop(key, None)
    return record


def _time(trace, config, warm_ranges=None, *, memo, chunk_size=4096):
    pipeline = GenericPipeline(config, trace.static, trace.program,
                               warm_ranges=warm_ranges, _memo=memo)
    for chunk in trace.chunks(chunk_size):
        pipeline.feed(chunk)
    return pipeline.finish(), pipeline.memo_counts


def _assert_same(plain, memo, label):
    assert _record(memo) == _record(plain), (
        f"{label}: " + explain_stats_delta(plain, memo, "plain", "memo"))


@pytest.fixture(scope="module")
def kernel_runs():
    data = bytes(i & 0xFF for i in range(128))
    return {(name, features): make_kernel(name, features).encrypt(data)
            for name in KERNEL_NAMES for features in FEATURES}


@pytest.mark.parametrize("features", FEATURES, ids=lambda f: f.name)
@pytest.mark.parametrize("cipher", KERNEL_NAMES)
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
def test_memo_matches_plain_loop(kernel_runs, cipher, features, config):
    run = kernel_runs[cipher, features]
    plain, counts = _time(run.trace, config, run.warm_ranges, memo=False)
    assert counts == (0, 0)
    for chunk_size in CHUNK_SIZES:
        memo, _ = _time(run.trace, config, run.warm_ranges, memo=True,
                        chunk_size=chunk_size)
        _assert_same(plain, memo, f"{cipher}/{features.name}/{config.name}"
                                  f" chunk={chunk_size}")


@pytest.mark.parametrize("config", (ALPHA21264, BASE4W),
                         ids=lambda c: c.name)
def test_block_ciphers_replay_most_iterations(kernel_runs, config):
    for cipher in ("3DES", "Blowfish", "IDEA"):
        run = kernel_runs[cipher, Features.ROT]
        _, (iterations, replayed) = _time(run.trace, config,
                                          run.warm_ranges, memo=True)
        assert iterations == 15
        assert replayed >= iterations // 2, (cipher, iterations, replayed)


def test_short_bodies_and_windowless_machines_skip_the_memo(kernel_runs):
    rc4 = kernel_runs["RC4", Features.ROT]
    des = kernel_runs["3DES", Features.ROT]
    assert _time(rc4.trace, ALPHA21264, rc4.warm_ranges, memo=True)[1] \
        == (0, 0)
    assert _time(des.trace, DATAFLOW, des.warm_ranges, memo=True)[1] \
        == (0, 0)
    viewed = GenericPipeline(ALPHA21264, des.trace.static,
                             des.trace.program, schedule_range=(0, 10))
    assert viewed.memo_counts == (0, 0) and viewed._memo is None


@pytest.mark.parametrize("config", (ALPHA21264, BASE4W),
                         ids=lambda c: c.name)
def test_memo_matches_with_eager_pruning(kernel_runs, config):
    eager = config.with_(prune_interval=16)
    for cipher in ("3DES", "IDEA", "Rijndael", "Twofish"):
        run = kernel_runs[cipher, Features.OPT]
        plain, _ = _time(run.trace, eager, run.warm_ranges, memo=False)
        for chunk_size in (97, 4096):
            memo, _ = _time(run.trace, eager, run.warm_ranges, memo=True,
                            chunk_size=chunk_size)
            _assert_same(plain, memo, f"{cipher} chunk={chunk_size}")


@given(
    cipher=st.sampled_from(("3DES", "IDEA", "Mars", "Rijndael", "Twofish")),
    blocks=st.integers(1, 24),
    chunk_size=st.integers(1, 5000),
)
@settings(max_examples=12, deadline=None)
def test_memo_matches_plain_for_any_session_and_chunking(
        cipher, blocks, chunk_size):
    kernel = make_kernel(cipher, Features.OPT)
    run = kernel.encrypt(bytes(range(kernel.block_bytes)) * blocks)
    plain, _ = _time(run.trace, ALPHA21264, run.warm_ranges, memo=False)
    memo, _ = _time(run.trace, ALPHA21264, run.warm_ranges, memo=True,
                    chunk_size=chunk_size)
    _assert_same(plain, memo, f"{cipher} x{blocks} chunk={chunk_size}")


# -- analytic loop kernels ---------------------------------------------------

BODY = 128  # loop-body instructions; alpha-21264 memoizes bodies >= 112


def _loop_kernel(kind: str, iterations: int):
    """A counted loop whose body is ``BODY`` instructions of one kind.

    ``chain``: a dependent ADDQ chain through one register.
    ``rotate``: independent ROLLs from a constant source.
    ``addq``: independent ADDQs, with the counter decrement and the
    back-edge branch counted in the body.
    ``memory``: a load forwarded from the previous iteration's store, one
    that must wait for that store's late address, a dependent chain, the
    store (its address waits on the chain), and independent filler.
    """
    kb = KernelBuilder(Features.ROT)
    value, counter, base, address = kb.regs("value", "counter", "base",
                                            "address")
    sinks = kb.regs(*(f"s{i}" for i in range(8)))
    kb.ldiq(value, 1)
    kb.ldiq(counter, iterations)
    kb.ldiq(base, 0x1000)
    kb.label("loop")
    if kind == "memory":
        kb.ldq(value, base)
        kb.ldq(sinks[0], base, 8)
        for _ in range(BODY // 2):
            kb.addq(value, value, Imm(1))
        kb.and_(address, value, Imm(0))
        kb.addq(address, address, base)
        kb.stq(value, address)
        for i in range(BODY // 2 - 5):
            kb.addq(sinks[1 + i % 7], counter, Imm(i))
    elif kind == "chain":
        for _ in range(BODY):
            kb.addq(value, value, Imm(1))
    elif kind == "rotate":
        for i in range(BODY):
            kb.roll(sinks[i % 8], value, Imm(i % 31 + 1))
    else:
        for i in range(BODY - 2):
            kb.addq(sinks[i % 8], value, Imm(i))
    kb.subq(counter, counter, Imm(1))
    kb.bne(counter, "loop")
    kb.halt()
    program = kb.build()
    return Machine(program, Memory(1 << 13)).execute().trace


@pytest.mark.parametrize("kind, per_iteration", [
    ("chain", BODY * ALPHA21264.alu_latency),
    ("rotate", BODY // ALPHA21264.num_rotator),
    ("addq", BODY // ALPHA21264.issue_width),
])
def test_loop_kernels_meet_their_closed_forms(kind, per_iteration):
    """Each extra iteration adds exactly the bound of its binding unit."""
    results = {}
    for memo in (False, True):
        cycles = []
        for iterations in (64, 128):
            trace = _loop_kernel(kind, iterations)
            stats, (seen, replayed) = _time(trace, ALPHA21264, memo=memo,
                                            chunk_size=1000)
            cycles.append(stats.cycles)
            if memo:
                assert replayed >= seen - 4, (seen, replayed)
        results[memo] = cycles
        assert cycles[1] - cycles[0] == 64 * per_iteration, (kind, cycles)
    assert results[True] == results[False]


def test_store_state_carries_across_replayed_iterations():
    """Forwarded loads and late store addresses span the crossings."""
    trace = _loop_kernel("memory", 48)
    for config in (ALPHA21264, ALPHA21264.with_(perfect_alias=True)):
        plain, _ = _time(trace, config, memo=False)
        assert plain.store_forwards == 47  # all but the first load
        for chunk_size in (97, 1000):
            memo, (seen, replayed) = _time(trace, config, memo=True,
                                           chunk_size=chunk_size)
            assert replayed >= seen - 4, (seen, replayed)
            _assert_same(plain, memo, f"{config.name} chunk={chunk_size}")


def test_fetch_bound_loops_key_their_fetch_offset():
    """Only an iteration fetch cannot bind drops fetch from its key."""
    narrow = ALPHA21264.with_(name="alpha-fetch1", fetch_width=1)
    for config, kind in ((ALPHA21264, "chain"), (narrow, "addq")):
        trace = _loop_kernel(kind, 32)
        pipeline = GenericPipeline(config, trace.static, trace.program)
        for chunk in trace.chunks(1000):
            pipeline.feed(chunk)
        offsets = [key[2][2] for key in pipeline._memo.effects]
        if kind == "chain":
            assert None in offsets
        else:
            assert offsets and None not in offsets
        plain, _ = _time(trace, config, memo=False)
        _assert_same(plain, pipeline.finish(), f"{config.name}/{kind}")


# -- surface -----------------------------------------------------------------

def test_memo_switch_is_private_to_the_pipeline():
    assert "_memo" not in inspect.signature(make_pipeline).parameters
    assert "_memo" not in inspect.signature(simulate).parameters
    assert not any("memo" in field.name
                   for field in fields(ExperimentOptions))


def test_footer_counts_replayed_iterations_and_worker_seconds():
    runner = Runner(cache=ResultCache.disabled())
    runner.run([Experiment(ExperimentOptions(cipher="3DES",
                                             session_bytes=128), config)
                for config in (ALPHA21264, BASE4W)])
    stats = runner.stats
    assert stats.timing_iterations == 2 * 15
    assert 0 < stats.iterations_replayed < stats.timing_iterations
    text = stats.summary()
    assert (f"{stats.iterations_replayed}/{stats.timing_iterations} "
            "timing iterations replayed") in text
    assert "worker-s" in text and "s wall" not in text


def test_loop_header_is_the_largest_natural_loop():
    trace = _loop_kernel("chain", 2)
    header, body = loop_header(trace.program)
    assert trace.program.instructions[header - 1].render().startswith("ldiq")
    assert body == BODY + 2
