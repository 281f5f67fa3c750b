"""The byte-map store queue matches an independent interval-list reference.

Every timing path -- the generic engine, the specialized engine's slow
path and its generated code, and the cost model's memory replay --
shares :class:`~repro.sim.timing.stages.MemoryOrderState`'s byte map, so
engine equivalence alone cannot catch a flaw in the queue itself.  These
tests check it against the textbook form: the last ``lsq_size`` stores
kept as ``(start, end, data_ready)`` intervals, oldest popped first, and
a load forwarding from the newest overlapping one.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa import assemble
from repro.sim import DATAFLOW, Machine, Memory
from repro.sim.timing import make_pipeline
from repro.sim.timing.stages import MemoryOrderState

LSQ_SIZES = (1, 2, 3, 32, 10**9)
SIZES = (1, 2, 4, 8)


class IntervalQueue:
    """Reference store queue: newest-first scan, ``pop(0)`` aging."""

    def __init__(self, lsq_size):
        self.lsq_size = lsq_size
        self.stores = []

    def push(self, addr, size, data_ready):
        self.stores.append((addr, addr + size, data_ready))
        if len(self.stores) > self.lsq_size:
            self.stores.pop(0)

    def probe(self, addr, size):
        for start, end, data_ready in reversed(self.stores):
            if addr < end and start < addr + size:
                return data_ready
        return 0


@st.composite
def queue_ops(draw):
    """A random store/load/prune sequence over a narrow or wide span.

    The narrow span makes partial overlaps common; the wide one grows the
    map past ``16 * lsq_size`` entries for ``lsq_size = 32``, so pruning
    actually drops entries.
    """
    span = draw(st.sampled_from((48, 2048)))
    op = st.tuples(
        st.sampled_from(("store", "store", "load", "prune")),
        st.integers(0, span),
        st.sampled_from(SIZES),
    )
    return draw(st.lists(op, min_size=1, max_size=400))


@given(st.sampled_from(LSQ_SIZES), queue_ops())
@settings(max_examples=200, deadline=None)
def test_byte_map_matches_interval_reference(lsq_size, ops):
    queue = MemoryOrderState(DATAFLOW.with_(lsq_size=lsq_size), None)
    reference = IntervalQueue(lsq_size)
    for index, (kind, addr, size) in enumerate(ops):
        if kind == "store":
            # Distinct data-ready cycles identify which store forwarded.
            queue.push_store(addr, size, index + 1)
            reference.push(addr, size, index + 1)
        elif kind == "load":
            assert queue.probe_stores(addr, size) == \
                reference.probe(addr, size), (kind, addr, size)
        else:
            grown = len(queue.store_map) > 16 * lsq_size
            queue.prune_store_map(queue.store_count)
            if grown:
                live = queue.store_count - lsq_size
                assert all(order > live
                           for order, _ in queue.store_map.values())


def test_prune_drops_only_dead_entries():
    queue = MemoryOrderState(DATAFLOW.with_(lsq_size=2), None)
    reference = IntervalQueue(2)
    for index in range(100):
        queue.push_store(8 * index, 8, index + 1)
        reference.push(8 * index, 8, index + 1)
    queue.prune_store_map(queue.store_count)
    assert len(queue.store_map) == 16  # two live 8-byte stores
    for addr in range(0, 800, 4):
        assert queue.probe_stores(addr, 4) == reference.probe(addr, 4)


# Three stores per iteration into a fresh 64-byte slot, then three loads:
# ``ldl`` reads the middle of the ``stq`` three stores back, ``ldbu`` the
# top byte of the ``stw`` one store back, ``ldq`` bytes no store writes.
FORWARD_LOOP = """
    ldiq r1, 0x1000
    ldiq r3, {iterations}
loop:
    addq r4, r4, #1
    stq r4, 0(r1)
    stb r4, 16(r1)
    stw r4, 24(r1)
    ldl r5, 4(r1)
    ldbu r6, 25(r1)
    ldq r7, 32(r1)
    addq r1, r1, #64
    subq r3, r3, #1
    bne r3, loop
    halt
"""
ITERATIONS = 3000  # 9000 stores: more than one prune interval


@pytest.fixture(scope="module")
def forward_trace():
    program = assemble(FORWARD_LOOP.format(iterations=ITERATIONS))
    return Machine(program, Memory(1 << 18)).execute().trace


@pytest.mark.parametrize("engine", ("generic", "specialized"))
@pytest.mark.parametrize("lsq_size, forwards_per_iteration",
                         [(1, 1), (2, 1), (3, 2), (10**9, 2)])
def test_dataflow_store_forwards_across_prunes(forward_trace, engine,
                                               lsq_size,
                                               forwards_per_iteration):
    config = DATAFLOW.with_(lsq_size=lsq_size)
    assert 3 * ITERATIONS > config.prune_interval
    pipeline = make_pipeline(config, forward_trace.static,
                             forward_trace.program, engine=engine)
    for chunk in forward_trace.chunks(4096):
        pipeline.feed(chunk)
    stats = pipeline.finish()
    assert stats.stores == 3 * ITERATIONS
    assert stats.loads == 3 * ITERATIONS
    assert stats.store_forwards == forwards_per_iteration * ITERATIONS
