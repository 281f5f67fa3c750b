"""The issue-slot accounting invariant, on real kernels and random code.

The timing model attributes every unused issue slot of every cycle to
exactly one stall category.  The defining property is *exactness*: for a
finite-issue-width machine,

    instructions + sum(stall_slots.values()) == cycles * issue_width

with no slack term -- an off-by-one anywhere in the attribution (a
double-counted cycle, a cycle lost at a prune boundary) breaks equality.
This file checks the invariant across the full cipher suite on the 4W and
8W+ machines, on hypothesis-generated random loops, and across the
bookkeeping knobs (prune cadence) that must never change the account.
"""

import pytest
from hypothesis import given, settings

from repro.isa import Features
from repro.kernels import KERNEL_NAMES, make_kernel
from repro.sim import DATAFLOW, EIGHTW_PLUS, FOURW, Machine, Memory, simulate
from repro.sim.stats import STALL_CATEGORIES, WAIT_CATEGORIES

from tests.sim.test_timing_properties import random_programs

SESSION_BYTES = 256


def _kernel_stats(cipher: str, config):
    kernel = make_kernel(cipher, Features.OPT)
    block = max(kernel.block_bytes, 1)
    data = bytes(range(256)) * (max(SESSION_BYTES // block, 1) * block // 256 + 1)
    data = data[: max(SESSION_BYTES // block, 1) * block]
    run = kernel.encrypt(data)
    return simulate(run.trace, config, run.warm_ranges)


def _assert_exact_account(stats, config):
    assert stats.issue_slots == stats.cycles * config.issue_width
    accounted = stats.instructions + sum(stats.stall_slots.values())
    assert accounted == stats.issue_slots
    assert set(stats.stall_slots) <= set(STALL_CATEGORIES)
    assert all(slots >= 0 for slots in stats.stall_slots.values())


@pytest.mark.parametrize("cipher", KERNEL_NAMES)
@pytest.mark.parametrize("config", [FOURW, EIGHTW_PLUS],
                         ids=lambda config: config.name)
def test_suite_slot_account_is_exact(cipher, config):
    stats = _kernel_stats(cipher, config)
    _assert_exact_account(stats, config)


@pytest.mark.parametrize("cipher", KERNEL_NAMES)
def test_suite_fractions_sum_to_one(cipher):
    fractions = _kernel_stats(cipher, FOURW).stall_fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)
    assert 0.0 < fractions["issued"] <= 1.0


def test_dataflow_machine_has_no_slot_account():
    stats = _kernel_stats("RC4", DATAFLOW)
    assert stats.issue_slots == 0
    assert stats.stall_slots == {}
    assert stats.stall_fractions() == {}


def test_wait_cycles_and_hotspots_are_consistent():
    stats = _kernel_stats("Blowfish", FOURW)
    assert set(stats.wait_cycles) <= set(WAIT_CATEGORIES)
    assert all(cycles >= 0 for cycles in stats.wait_cycles.values())
    assert stats.hotspots, "a real kernel must produce hot spots"
    for spot in stats.hotspots:
        assert spot["executions"] > 0
        assert spot["total_wait_cycles"] == sum(spot["wait_cycles"].values())
        assert set(spot["wait_cycles"]) <= set(WAIT_CATEGORIES)
    # The table is ranked by non-window wait (window wait is a shared
    # backlog effect), descending.
    ranks = [
        sum(cycles for category, cycles in spot["wait_cycles"].items()
            if category != "window")
        for spot in stats.hotspots
    ]
    assert ranks == sorted(ranks, reverse=True)
    # Hot-spot rows never exceed the per-category totals.
    for category in WAIT_CATEGORIES:
        spotted = sum(spot["wait_cycles"].get(category, 0)
                      for spot in stats.hotspots)
        assert spotted <= stats.wait_cycles.get(category, 0)


def test_feistel_kernel_is_operand_bound():
    """Sanity-check the categories against the paper's analysis: Blowfish
    on 4W is dataflow-limited, so operand wait must dominate the account
    and the machine must spend well under 60% of slots issuing."""
    fractions = _kernel_stats("Blowfish", FOURW).stall_fractions()
    assert fractions["operand"] == max(
        share for name, share in fractions.items() if name != "issued"
    )
    assert fractions["issued"] < 0.6


def _trace(program):
    return Machine(program, Memory(1 << 13)).execute().trace


@given(random_programs())
@settings(max_examples=25, deadline=None)
def test_random_programs_slot_account_is_exact(program):
    trace = _trace(program)
    for config in (FOURW, EIGHTW_PLUS):
        _assert_exact_account(simulate(trace, config), config)


@given(random_programs())
@settings(max_examples=10, deadline=None)
def test_attribution_does_not_change_cycles(program):
    """Turning the books on/off (DF has none) and shrinking the prune
    cadence must never move simulated time."""
    trace = _trace(program)
    baseline = simulate(trace, FOURW)
    eager = simulate(
        trace, FOURW.with_(prune_interval=16)
    )
    assert eager.cycles == baseline.cycles
    assert eager.stall_slots == baseline.stall_slots


def test_prune_cadence_does_not_change_account():
    """The flush at prune boundaries must not lose or duplicate slots."""
    kernel = make_kernel("RC6", Features.OPT)
    data = bytes(kernel.block_bytes * 8)
    run = kernel.encrypt(data)
    baseline = simulate(run.trace, FOURW, run.warm_ranges)
    eager = simulate(
        run.trace,
        FOURW.with_(prune_interval=64),
        run.warm_ranges,
    )
    assert eager.cycles == baseline.cycles
    assert eager.stall_slots == baseline.stall_slots
    assert eager.wait_cycles == baseline.wait_cycles
