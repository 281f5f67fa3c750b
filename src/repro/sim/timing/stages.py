"""Stage components and the shared chunk-streaming pipeline base.

The timing model is organized as four stage components --
:class:`FrontendState`, :class:`SchedulerState`, :class:`OrderingState`,
:class:`AttributionState` -- that carry all inter-instruction state across
:class:`~repro.sim.trace.TraceChunk` boundaries, plus a
:class:`PipelineBase` that owns chunk deferral (the one entry of branch
lookahead), the trace-order outcome columns (:class:`OutcomeColumns`) and
final statistics assembly.  Engines subclass :class:`PipelineBase` and
implement ``_advance`` only; everything an engine computes lives in the
stage components, which is what makes the engines interchangeable
mid-stream and bit-identical at the end.

See the package docstring (:mod:`repro.sim.timing`) for the model's
scheduling and stall-attribution contracts.
"""

from __future__ import annotations

from array import array
from itertools import compress

from repro.isa.program import Program
from repro.sim.branch import BimodalPredictor
from repro.sim.caches import MemoryHierarchy
from repro.sim.config import MachineConfig
from repro.sim.sboxcache import SBoxCacheArray
from repro.sim.stats import STALL_CATEGORIES, WAIT_CATEGORIES, SimStats
from repro.sim.trace import StaticInfo, TraceChunk

_UNLIMITED = 1 << 30

# Stall-category indices (must mirror STALL_CATEGORIES order).
(_C_FETCH, _C_MISPREDICT, _C_FRONTEND, _C_WINDOW, _C_OPERAND, _C_ALIAS,
 _C_ISSUE, _C_FU_IALU, _C_FU_ROT, _C_FU_MUL, _C_FU_MEM, _C_FU_SBOX,
 _C_DRAIN) = range(len(STALL_CATEGORIES))
_N_WAIT = len(WAIT_CATEGORIES)
#: Instruction-view (wait) index of a stall category: categories _C_WINDOW
#: through _C_FU_SBOX map onto WAIT_CATEGORIES[cat - _C_WINDOW].
_HOTSPOT_LIMIT = 32
#: Store data-ready cycles kept before :meth:`PipelineBase.feed` first
#: drops the ones no later read can forward from (only windowless
#: machines, whose prune horizon never moves, get near it).  Each drop
#: doubles the bound over what survives, so the scans stay amortized.
_STORE_READY_BOUND = 1 << 16


class FrontendState:
    """Fetch stage: program-order fetch bandwidth and redirect state."""

    __slots__ = ("fetch_cycle", "fetch_slots_used", "fetch_groups_used",
                 "mispredict_until")

    def __init__(self):
        self.fetch_cycle = 0
        self.fetch_slots_used = 0
        self.fetch_groups_used = 0
        self.mispredict_until = 0


class SchedulerState:
    """Issue/FU/retire bookkeeping: per-cycle resource maps + scoreboard.

    ``reg_ready`` is sized lazily from the static metadata (interleaved
    multi-thread traces remap each thread into its own 32-register window).

    ``retire_prev``/``retire_count`` track the in-order retirement
    frontier: because retirement cycles are non-decreasing, only the
    frontier cycle can ever receive another retirement, so a scalar count
    of the retirements at that cycle stands in for a per-cycle retire map.
    """

    __slots__ = ("issue_used", "ialu_used", "rot_used", "mul_used",
                 "dport_used", "sport_used", "saturated",
                 "reg_ready", "retire_ring", "retire_prev", "retire_count",
                 "max_complete", "prune_mark", "trim_mark")

    def __init__(self, config: MachineConfig, static: StaticInfo):
        self.issue_used: dict[int, int] = {}
        self.ialu_used: dict[int, int] = {}
        self.rot_used: dict[int, int] = {}
        self.mul_used: dict[int, int] = {}
        self.dport_used: dict[int, int] = {}
        self.sport_used = [dict() for _ in range(config.sbox_caches or 0)]
        #: Per unit map (keyed by its ``id``), without slot accounting:
        #: saturated cycle -> a later cycle, every cycle between them
        #: saturated too.  A cache of the maps, so it may be cleared.
        self.saturated: dict[int, dict[int, int]] = {
            id(used): {} for used in (self.ialu_used, self.rot_used,
                                      self.mul_used, self.dport_used,
                                      *self.sport_used)}
        max_reg = 31
        for d in static.dest:
            if d > max_reg:
                max_reg = d
        for sources in static.srcs:
            for r in sources:
                if r > max_reg:
                    max_reg = r
        self.reg_ready = [0] * (max_reg + 1)
        window = config.window_size
        self.retire_ring = [0] * window if window else None
        self.retire_prev = 0
        self.retire_count = 0
        self.max_complete = 0
        self.prune_mark = 0
        self.trim_mark = 0


class OrderingState:
    """Memory-ordering stage: the timing side of the store queue.

    Which store a load forwards from is decided in trace order by
    :class:`OutcomeColumns`, as a distance back in store order; the
    timing loop only keeps each store's data-ready cycle under its order
    (``store_ready``, numbered by ``store_count``), plus the latest
    store-address resolution (``last_store_addr_known``) and the last
    SBOXSYNC completion (``sync_barrier``).  A data-ready cycle below the
    prune horizon can no longer delay any later request, so
    :meth:`PipelineBase._prune_maps` drops it.
    """

    __slots__ = ("store_ready", "store_count", "last_store_addr_known",
                 "sync_barrier")

    def __init__(self):
        self.store_ready: dict[int, int] = {}
        self.store_count = 0
        self.last_store_addr_known = 0
        self.sync_barrier = 0


class MemoryOrderState:
    """Trace-order memory model: store queue, SBox caches, hierarchy.

    The store queue is the byte map ``store_map`` of
    ``address -> (store_order, data_ready)`` entries plus a running
    ``store_count``: an entry is live iff its order is within the last
    ``lsq_size`` stores.  A load (or aliased SBOX read) probes the bytes
    it reads; the live entry with the greatest order -- the newest
    overlapping store still in the queue -- is the one it forwards from.
    Every access costs O(access size), however deep the queue.  None of
    this depends on timing, so :class:`OutcomeColumns` runs it once per
    trace entry ahead of the timing loop.
    """

    __slots__ = ("hierarchy", "sbox_array", "lsq_size", "store_map",
                 "store_count")

    def __init__(
        self,
        config: MachineConfig,
        warm_ranges: list[tuple[int, int]] | None,
    ):
        self.hierarchy = None
        if not config.perfect_memory:
            self.hierarchy = MemoryHierarchy(
                l1_size=config.l1_size, l1_assoc=config.l1_assoc,
                l1_block=config.l1_block, l2_size=config.l2_size,
                l2_assoc=config.l2_assoc,
                l2_hit_latency=config.l2_hit_latency,
                memory_latency=config.memory_latency,
                tlb_entries=config.tlb_entries, tlb_assoc=config.tlb_assoc,
                page_size=config.page_size,
                tlb_miss_latency=config.tlb_miss_latency,
            )
            for start, length in warm_ranges or ():
                self.hierarchy.warm(start, length)
        self.sbox_array = (
            SBoxCacheArray(config.sbox_caches) if config.sbox_caches else None
        )
        self.lsq_size = config.lsq_size
        self.store_map: dict[int, tuple[int, int]] = {}
        self.store_count = 0

    def probe_stores(self, addr: int, size: int) -> int:
        """Data-ready cycle forwarded to a ``size``-byte read at ``addr``.

        The newest live store overlapping the read wins; 0 when none
        does.
        """
        get = self.store_map.get
        order = self.store_count - self.lsq_size
        ready = 0
        for byte in range(addr, addr + size):
            entry = get(byte)
            if entry is not None and entry[0] > order:
                order, ready = entry
        return ready

    def forward_distance(self, addr: int, size: int) -> int:
        """How many stores back the newest live overlapping store is.

        1 is the latest store; 0 means the read does not forward.
        """
        get = self.store_map.get
        count = self.store_count
        order = count - self.lsq_size
        for byte in range(addr, addr + size):
            entry = get(byte)
            if entry is not None and entry[0] > order:
                order = entry[0]
        return count - order + 1 if order > count - self.lsq_size else 0

    def push_store(self, addr: int, size: int, data_ready: int) -> None:
        """Enqueue a ``size``-byte store at ``addr``."""
        self.store_count = count = self.store_count + 1
        entry = (count, data_ready)
        store_map = self.store_map
        for byte in range(addr, addr + size):
            store_map[byte] = entry

    def prune_store_map(self, store_count: int) -> None:
        """Drop entries aged out of the queue once the map has grown.

        ``store_count`` is the running store count.  Dead entries can
        never forward again, so dropping them changes no probe result.
        Below ``16 * lsq_size`` entries the scan is skipped.
        """
        store_map = self.store_map
        lsq_size = self.lsq_size
        if len(store_map) > 16 * lsq_size:
            cutoff = store_count - lsq_size
            for address in [a for a, entry in store_map.items()
                            if entry[0] <= cutoff]:
                del store_map[address]


#: Outcome-column classes of a static instruction (what the column pass
#: does for it); 0 = nothing to decide.
(_O_LOAD, _O_STORE, _O_ALIASED, _O_SBOX_CACHE, _O_SBOX_DCACHE, _O_SYNC,
 _O_BRANCH) = range(1, 8)

#: Typecode of the outcome column (signed: forwards are negative).
COLUMN_TYPECODE = "i"


def new_column(n: int) -> array:
    """A zero-filled outcome column for ``n`` trace entries."""
    return array(COLUMN_TYPECODE, [0]) * n


class OutcomeColumns:
    """The timing-free outcomes of a trace, computed in trace order.

    Cache hierarchy, SBox caches, the store queue's forward-or-not choice
    and the branch predictor all see their accesses in trace order and
    never read a cycle, so their outcomes can be decided before any
    timing happens.  :meth:`fill` writes one signed integer per trace
    entry:

    * a load or aliased SBOX read: ``-d`` when it forwards from the store
      ``d`` stores back, else the hierarchy's extra latency;
    * an SBOX read on the d-cache path: the extra latency;
    * an SBox-cache read: 1 on a miss;
    * a conditional branch on a machine with a predictor: 1 when it is
      mispredicted;
    * anything else: 0.

    The timing loop reads this column and never an address.
    """

    def __init__(self, config: MachineConfig, static: StaticInfo,
                 warm_ranges: list[tuple[int, int]] | None = None):
        self.memorder = MemoryOrderState(config, warm_ranges)
        self.predictor = (
            None if config.perfect_branch_prediction
            else BimodalPredictor(config.predictor_entries)
        )
        self.prune_interval = config.prune_interval
        sbox_array = self.memorder.sbox_array
        kinds = []
        for s, klass in enumerate(static.klass):
            kind = 0
            if klass == "load":
                kind = _O_LOAD
            elif klass == "store":
                kind = _O_STORE
            elif klass == "sbox" and static.sbox_aliased[s]:
                kind = _O_ALIASED
            elif (klass == "sbox" and sbox_array is not None
                  and static.sbox_table[s] < sbox_array.count):
                kind = _O_SBOX_CACHE
            elif klass == "sbox":
                kind = _O_SBOX_DCACHE
            elif klass == "sync":
                kind = _O_SYNC if sbox_array is not None else 0
            elif static.is_cond_branch[s] and self.predictor is not None:
                kind = _O_BRANCH
            kinds.append(kind)
        #: Per static instruction: its outcome-column class.
        self.kinds = kinds
        self.static = static

    def fill(self, seq, addrs, taken_arr, lo: int, hi: int, next_s,
             cols) -> None:
        """Decide the outcomes of entries ``seq[lo:hi]`` into ``cols``.

        ``cols`` must be zero-filled.  Branch outcomes come from
        ``taken_arr`` when given, else from the following entry as in
        :meth:`PipelineBase._advance` (``next_s`` past the end of
        ``seq``; ``None`` = end of trace, taken).
        """
        kinds = self.kinds
        static = self.static
        mem_size = static.mem_size
        sbox_table = static.sbox_table
        memorder = self.memorder
        hierarchy = memorder.hierarchy
        access = hierarchy.access if hierarchy is not None else None
        sbox_array = memorder.sbox_array
        forward_distance = memorder.forward_distance
        push_store = memorder.push_store
        predict = (self.predictor.predict_and_update
                   if self.predictor is not None else None)
        prune_interval = self.prune_interval
        seq_len = len(seq)
        # Visit only the entries with something to decide (the filter
        # runs in C; most entries are plain ALU work).
        chunk_kinds = list(map(kinds.__getitem__, seq[lo:hi]))
        for j, kind in zip(compress(range(lo, hi), chunk_kinds),
                           filter(None, chunk_kinds)):
            s = seq[j]
            if kind == _O_LOAD or kind == _O_ALIASED:
                addr = addrs[j]
                d = forward_distance(
                    addr, mem_size[s] if kind == _O_LOAD else 4)
                if d:
                    cols[j] = -d
                elif access is not None:
                    cols[j] = access(addr)
            elif kind == _O_STORE:
                addr = addrs[j]
                if access is not None:
                    access(addr, True)
                push_store(addr, mem_size[s], 1)
                if not memorder.store_count % prune_interval:
                    memorder.prune_store_map(memorder.store_count)
            elif kind == _O_SBOX_CACHE:
                if not sbox_array.access(sbox_table[s], addrs[j]):
                    cols[j] = 1
            elif kind == _O_SBOX_DCACHE:
                if access is not None:
                    cols[j] = access(addrs[j])
            elif kind == _O_SYNC:
                sbox_array.sync(sbox_table[s])
            else:  # _O_BRANCH
                if taken_arr is not None:
                    taken = bool(taken_arr[j])
                elif j + 1 < seq_len:
                    taken = seq[j + 1] != s + 1
                else:
                    taken = next_s is None or next_s != s + 1
                if not predict(s, taken):
                    cols[j] = 1


class AttributionState:
    """Stall-attribution stage: cycle labels and the running slot account.

    The machine-view frontier only advances and labels each cycle below
    it exactly once, so the labels form an append-only list: ``labels[i]``
    is the stall category of cycle ``label_base + i``.  ``hot[s]`` is the
    row of wait cycles of static instruction ``s``; the whole-run wait
    totals are the rows' column sums, taken once at finish.
    """

    __slots__ = ("labels", "label_base", "stall_slots", "frontier",
                 "flushed_until", "hot", "exec_counts")

    def __init__(self, static: StaticInfo):
        self.labels: list[int] = []
        self.label_base = 0
        self.stall_slots = [0] * len(STALL_CATEGORIES)
        self.frontier = 0
        self.flushed_until = 0
        self.hot = [[0] * _N_WAIT for _ in static.klass]
        self.exec_counts = [0] * len(static.klass)


class PipelineBase:
    """Incremental timing model over a chunked trace stream.

    Feed :class:`~repro.sim.trace.TraceChunk` objects in trace order with
    :meth:`feed`, then call :meth:`finish` for the final
    :class:`~repro.sim.stats.SimStats`.  Results are bit-identical to a
    single-chunk (batch) pass for any chunk partitioning: all stage state
    carries across chunk boundaries, and the one piece of lookahead the
    model needs -- the *next* trace entry, to infer whether a branch was
    taken -- is handled by deferring each chunk's final entry until the
    next chunk (or end of trace, where the outcome defaults to taken,
    matching ``Trace.taken``).  Chunks with explicit ``taken`` flags
    (synthetic interleavings) need no deferral.

    Each entry's timing-free outcomes are decided by the trace-order
    column pass (:class:`OutcomeColumns`) before the timing loop reads
    them.  Ready entries then go to the timing loop directly, or through
    the loop memo (:class:`repro.sim.timing.memo.LoopMemo`), which may
    replay whole loop iterations instead.

    One pipeline consumes one trace; build a fresh pipeline per run.
    Subclasses (the engines) implement ``_advance`` only.
    """

    #: Registry name of the engine that built this pipeline.
    engine_name = "generic"

    def __init__(
        self,
        config: MachineConfig,
        static: StaticInfo,
        program: Program,
        warm_ranges: list[tuple[int, int]] | None = None,
        schedule_range: tuple[int, int] | None = None,
        _memo: bool = True,
    ):
        self.config = config
        self.static = static
        self.program = program
        self.stats = SimStats(config_name=config.name, instructions=0)

        def limit(value):
            return _UNLIMITED if value is None else value

        self._issue_width = limit(config.issue_width)
        self._num_ialu = limit(config.num_ialu)
        self._num_rot = limit(config.num_rotator)
        self._mul_slots = limit(config.mul_slots)
        self._dports = limit(config.dcache_ports)
        self._retire_width = limit(config.retire_width)
        self._sbox_ports = limit(config.sbox_cache_ports)
        self._track_issue = self._issue_width != _UNLIMITED
        # Slot accounting is defined only when issue bandwidth is finite;
        # with unlimited width there is no fixed slot budget to attribute.
        self._attribute = self._track_issue

        self.frontend = FrontendState()
        self.scheduler = SchedulerState(config, static)
        self.ordering = OrderingState()
        self.outcomes = OutcomeColumns(config, static, warm_ranges)
        self.attribution = (
            AttributionState(static) if self._attribute else None
        )

        self._schedule: list | None = None
        self._sched_start = self._sched_end = 0
        if schedule_range is not None:
            self._schedule = []
            self.stats.extra["schedule"] = self._schedule
            self._sched_start, self._sched_end = schedule_range
            cap = config.max_schedule_entries
            if cap is not None and self._sched_end - self._sched_start > cap:
                self._sched_end = self._sched_start + cap
                self.stats.extra["schedule_truncated"] = True

        #: Deferred final entry of the previous adjacency-mode chunk, its
        #: outcome not yet decided: ``(seq, addrs, cols, start, index)``.
        self._carry: tuple | None = None
        self._count = 0
        self._finished = False
        self._store_bound = _STORE_READY_BOUND
        self._memo = None
        if _memo and schedule_range is None:
            from repro.sim.timing.memo import LoopMemo

            self._memo = LoopMemo.for_pipeline(self)

    @property
    def memo_counts(self) -> tuple[int, int]:
        """``(loop iterations seen, iterations replayed)`` so far."""
        memo = self._memo
        return (0, 0) if memo is None else (memo.iterations, memo.hits)

    def feed(self, chunk: TraceChunk) -> None:
        """Advance the pipeline over one chunk of trace entries."""
        if self._finished:
            raise RuntimeError(
                f"{type(self).__name__} already finished; build a fresh "
                "pipeline per run (make_pipeline)"
            )
        seq = chunk.seq
        n = len(seq)
        if n == 0:
            return
        # Every entry is processed by the time finish() returns: all but
        # the deferred last one now, that one with the next chunk.
        self._count += n
        if (self._memo is None
                and len(self.ordering.store_ready) > self._store_bound):
            self._drop_dead_stores()
        cols = new_column(n)
        fill = self.outcomes.fill
        ready = []
        if self._carry is not None:
            cseq, caddrs, ccols, cstart, cidx = self._carry
            self._carry = None
            fill(cseq, caddrs, None, cidx, cidx + 1, seq[0], ccols)
            ready.append((cseq, ccols, cstart, cidx, cidx + 1, seq[0]))
        if chunk.taken is not None:
            # Explicit branch outcomes: no lookahead needed, no deferral,
            # and no loop structure the memo could rely on.
            fill(seq, chunk.addrs, chunk.taken, 0, n, None, cols)
            self._consume(ready)
            if self._memo is not None:
                self._memo.close()
                self._memo = None
            self._advance(seq, cols, chunk.taken, chunk.start, 0, n, None)
            return
        if n > 1:
            fill(seq, chunk.addrs, None, 0, n - 1, None, cols)
            ready.append((seq, cols, chunk.start, 0, n - 1, None))
        self._carry = (seq, chunk.addrs, cols, chunk.start, n - 1)
        self._consume(ready)

    def _drop_dead_stores(self) -> None:
        """Keep only the stores the trace-order queue can still forward.

        Every entry with a decided outcome has been timed (the deferred
        entry's outcome is not decided yet), so a store no byte of the
        queue maps to any more is never read again.
        """
        live = {entry[0] for entry in
                self.outcomes.memorder.store_map.values()}
        store_ready = self.ordering.store_ready
        for order in [o for o in store_ready if o not in live]:
            del store_ready[order]
        self._store_bound = max(_STORE_READY_BOUND, 2 * len(store_ready))

    def _consume(self, pieces: list) -> None:
        """Time ready ``(seq, cols, start, lo, hi, next_s)`` pieces."""
        if self._memo is not None:
            self._memo.consume(pieces)
            return
        for seq, cols, start, lo, hi, next_s in pieces:
            self._advance(seq, cols, None, start, lo, hi, next_s)

    def finish(self) -> SimStats:
        """Drain the deferred entry and finalize the statistics."""
        if self._finished:
            return self.stats
        self._finished = True
        if self._carry is not None:
            cseq, caddrs, ccols, cstart, cidx = self._carry
            self._carry = None
            # End of trace: the final branch outcome defaults to taken,
            # exactly as ``Trace.taken`` defines it.
            self.outcomes.fill(cseq, caddrs, None, cidx, cidx + 1, None,
                               ccols)
            self._consume([(cseq, ccols, cstart, cidx, cidx + 1, None)])
        if self._memo is not None:
            self._memo.close()
        self._finalize_engine()

        stats = self.stats
        stats.instructions = self._count
        # Provenance stamps: which program's statics the hot-spot table
        # indexes into, and which engine produced the result.  Diff
        # tooling refuses to align hot spots across different digests;
        # SimStats equality ignores both (stats.PROVENANCE_KEYS).
        if self.program.finalized:
            stats.extra["program_digest"] = self.program.digest()
        stats.extra["timing_engine"] = self.engine_name
        if self._count == 0:
            return stats
        scheduler = self.scheduler
        outcomes = self.outcomes
        hierarchy = outcomes.memorder.hierarchy
        sbox_array = outcomes.memorder.sbox_array
        stats.cycles = max(scheduler.max_complete, scheduler.retire_prev)
        if hierarchy is not None:
            stats.l1_misses = hierarchy.l1.misses
            stats.l2_misses = hierarchy.l2.misses
            stats.tlb_misses = hierarchy.tlb.misses
        if sbox_array is not None:
            stats.extra["sbox_cache_hits"] = sbox_array.total_hits
        if outcomes.predictor is not None:
            stats.extra["predictor_lookups"] = outcomes.predictor.lookups

        if self._attribute:
            attribution = self.attribution
            self._flush_attribution(stats.cycles)
            stats.issue_slots = stats.cycles * self._issue_width
            stats.stall_slots = {
                name: attribution.stall_slots[index]
                for index, name in enumerate(STALL_CATEGORIES)
            }
            wait_totals = [0] * _N_WAIT
            for row in attribution.hot:
                for index in range(_N_WAIT):
                    wait_totals[index] += row[index]
            stats.wait_cycles = dict(zip(WAIT_CATEGORIES, wait_totals))
            stats.hotspots = _hotspot_table(
                self.program, attribution.hot, attribution.exec_counts
            )
            ranked = sum(1 for waits in attribution.hot
                         if sum(waits))
            if ranked > len(stats.hotspots):
                # Per-static deltas over a clipped table can't sum to the
                # category totals; diff reports read this to say so.
                stats.extra["hotspots_truncated"] = True
        return stats

    def _flush_attribution(self, until: int) -> None:
        """Finalize slot counts for cycles below ``until``.

        Safe once no future instruction can issue there (every cycle below
        the prune horizon, and everything at the end of the run).  Cycles
        past the last labeled one are retirement drain.  Consumed labels
        are trimmed off the front of the list, and flushed ``issue_used``
        entries are popped as they are read, which doubles as the trim
        for that map (:meth:`_prune_maps` skips it accordingly).
        """
        attribution = self.attribution
        labels = attribution.labels
        base = attribution.label_base
        issue_width = self._issue_width
        pop_used = self.scheduler.issue_used.pop
        stall_slots = attribution.stall_slots
        flushed = attribution.flushed_until
        split = min(until, base + len(labels))
        if split < flushed:
            split = flushed
        cycle = flushed
        for cat in labels[flushed - base:split - base]:
            stall_slots[cat] += issue_width - pop_used(cycle, 0)
            cycle += 1
        for cycle in range(split, until):
            stall_slots[_C_DRAIN] += issue_width - pop_used(cycle, 0)
        attribution.flushed_until = until
        if until > base:
            del labels[:until - base]
            attribution.label_base = until

    def _prune_maps(self, horizon: int) -> None:
        """Fold cycles below ``horizon`` and drop dead map entries.

        Every resource probe of every later instruction starts at or above
        ``horizon``, so stats are invariant to *when* pruning happens.  A
        store data-ready cycle below it can no longer delay a request
        either.  The maps are mutated in place, so references pinned in
        an engine's locals stay valid.
        """
        scheduler = self.scheduler
        if self._attribute and horizon > self.attribution.flushed_until:
            self._flush_attribution(horizon)
        trim_mark = scheduler.trim_mark
        if horizon > trim_mark:
            span = horizon - trim_mark
            # issue_used is not listed: the attribution flush above pops
            # its entries as it reads them (and without attribution the
            # map is never populated).
            for counters in (scheduler.ialu_used, scheduler.rot_used,
                             scheduler.mul_used, scheduler.dport_used,
                             *scheduler.sport_used):
                if not counters:
                    continue
                if len(counters) * 4 > span:
                    # Dense map: walk the dead cycle range (cycles are
                    # monotone, so each is visited once ever).
                    pop = counters.pop
                    for cycle in range(trim_mark, horizon):
                        pop(cycle, None)
                else:
                    # Sparse map: scanning its keys is cheaper than
                    # walking the range.
                    for cycle in [c for c in counters if c < horizon]:
                        del counters[cycle]
            scheduler.trim_mark = horizon
            for full in scheduler.saturated.values():
                for cycle in [c for c in full if c < horizon]:
                    del full[cycle]
            store_ready = self.ordering.store_ready
            for order in [o for o, ready in store_ready.items()
                          if ready < horizon]:
                del store_ready[order]

    def _finalize_engine(self) -> None:
        """Hook: fold engine-private accumulators into the stage state.

        Called by :meth:`finish` after the deferred final entry is drained
        and before the statistics are assembled.
        """

    def _advance(
        self,
        seq,
        addrs,
        taken_arr,
        base_pos: int,
        lo: int,
        hi: int,
        next_s,
    ) -> None:  # pragma: no cover - abstract
        """Process trace entries ``seq[lo:hi]``; implemented per engine."""
        raise NotImplementedError


def _hotspot_table(program: Program, hot: list, exec_counts: list) -> list[dict]:
    """Rank static instructions by accumulated wait cycles (top N).

    Window-entry waits rank last: they measure the machine's dispatch
    backlog, which every instruction in a saturated loop shares equally,
    so operand/alias/contention waits -- the paper's actual per-operation
    bottlenecks -- are the primary sort key.
    """
    # The sort is stable over static-index order, so ties rank by index.
    ranked = sorted(
        enumerate(hot),
        key=lambda item: (-sum(item[1][1:]), -sum(item[1])),
    )[:_HOTSPOT_LIMIT]
    # Synthetic traces (e.g. the multisession interleaver) carry static
    # entries beyond their nominal program's instruction list.
    instructions = program.instructions
    table = []
    for static_index, waits in ranked:
        total = sum(waits)
        if not total:
            continue
        table.append({
            "static_index": static_index,
            "text": (instructions[static_index].render()
                     if static_index < len(instructions)
                     else f"static[{static_index}]"),
            "executions": exec_counts[static_index],
            "total_wait_cycles": total,
            "wait_cycles": {
                name: waits[index]
                for index, name in enumerate(WAIT_CATEGORIES)
                if waits[index]
            },
        })
    return table


def record_sim_metrics(metrics, config: MachineConfig, stats: SimStats) -> None:
    """Publish one run's headline counters into a metrics registry."""
    labels = {"config": config.name}
    metrics.counter("sim.runs", labels).inc()
    metrics.counter("sim.instructions", labels).inc(stats.instructions)
    metrics.counter("sim.cycles", labels).inc(stats.cycles)
    metrics.counter("sim.issue_slots", labels).inc(stats.issue_slots)
    for category, slots in stats.stall_slots.items():
        if slots:
            metrics.counter(
                "sim.stall_slots", {**labels, "category": category}
            ).inc(slots)
