"""Exact replay of repeated loop iterations (FastSim-style memoization).

Every shipped kernel is one loop whose body is a long unrolled block
sequence, and the out-of-order machine reaches the same *relative* state
at almost every crossing of the loop header.  :class:`LoopMemo` sits
between :meth:`PipelineBase.feed <repro.sim.timing.stages.PipelineBase.feed>`
and the timing loop: it cuts the ready trace entries at each header
crossing, and for every complete iteration either replays a recorded
effect or runs the loop and, when worthwhile, records one.  The model is
Schnarr & Larus, "Fast Out-of-Order Processor Simulation Using
Memoization" (ASPLOS 1998).

**Horizon.**  At a crossing at trace position ``P`` let ``H`` be the
smaller of the oldest retire-ring entry (the retirement of ``P - window``)
and the attribution frontier.  Every later resource probe, label and
request starts at or above ``H``, so the state is normalized there: the
slot account is flushed up to ``H``, map entries below ``H`` are dropped,
and every cycle-valued register, barrier and store data-ready cycle ``v``
is kept as ``max(v, H) - H``.  The retire ring is kept rotated to
``P % window``.  What remains -- :func:`_snapshot` -- is exact for every
later decision, and interned as a small state id.

**Key.**  ``(state id, iteration digest, fetch key)``.  The digest covers
the iteration's static path and its outcome-column slice (memory and
predictor outcomes come from the trace-order column pass, so they leave
the state).  Fetch often lags the backend without bound, so keying it
relative to ``H`` would never repeat: when ``fetch_cycle +
frontend_depth`` plus the iteration's own fetch advance stays at or
below ``H`` and the iteration has no mispredict, fetch cannot bind and
the key keeps only the fetch slot and group counters.  Otherwise it
keeps ``fetch_cycle - H``.

**Replay.**  A hit moves ``H`` by the recorded delta and the state id to
the recorded successor, without touching the stage objects; they are
rebuilt from the state id (:func:`_restore`) only before the loop runs
again.  Counters, stall slots, hot-spot rows and execution counts are
folded once per entry at the end (hits times the recorded deltas).  The
one lag-dependent quantity is each instruction's window wait,
``dispatch_floor - enter``, which is affine in the fetch lag: a lagging
hit adds ``(lag_recorded - lag_now)`` per execution to the window
column.

**When it runs.**  Only on machines with a finite window, never for
schedule capture or explicit-``taken`` chunks, and only when the loop
body is at least as long as the fixed part of the state (window plus
registers): a shorter body costs more to key than to simulate.  A digest
seen once records nothing, so short runs pay almost nothing.  Iterations
that straddle chunk boundaries are deferred until the next header
arrives, like the one-entry branch carry.
"""

from __future__ import annotations

from array import array
from hashlib import blake2b
from operator import sub

from repro.sim.timing.stages import _N_WAIT, _O_BRANCH

#: Largest number of recorded effects per pipeline.  A run whose state
#: never recurs stops recording (and stops paying for it) here.
MAX_ENTRIES = 64

#: Stats counters an iteration advances (field names on ``SimStats``).
_COUNTERS = ("loads", "stores", "sbox_accesses", "store_forwards",
             "branches", "mispredictions", "sbox_cache_misses")


def loop_header(program) -> tuple[int, int]:
    """``(header index, body length)`` of the program's largest loop.

    ``(-1, 0)`` when the program has no loop.  Loops come from the
    analysis framework's :class:`~repro.isa.analysis.passes.NaturalLoops`
    over a fresh CFG (cheap for these programs, and it leaves the shared
    per-program analysis cache alone).
    """
    from repro.isa.analysis.cfg import CFG
    from repro.isa.analysis.passes import NaturalLoops

    cfg = CFG(program)
    blocks = cfg.blocks
    best = (-1, 0)
    for header, body in NaturalLoops(cfg).loops.items():
        length = sum(len(blocks[bid]) for bid in body)
        if length > best[1]:
            best = (blocks[header].start, length)
    return best


class _Iteration:
    """What one distinct iteration (path + outcomes) implies on its own.

    Built on the second sighting of a digest: its static path, the
    per-static execution counts, how many stores it queues, whether it
    mispredicts, and (lazily) how far fetch advances over it.
    """

    __slots__ = ("ident", "path", "statics", "counts", "stores",
                 "mispredicts", "advances")

    def __init__(self, ident: int):
        self.ident = ident
        self.path = None

    def describe(self, pieces, pipeline) -> None:
        path = array("q")
        mispredicts = False
        kinds = pipeline.outcomes.kinds
        for seq, cols, _start, lo, hi, _next in pieces:
            path.extend(seq[lo:hi])
            for j in range(lo, hi):
                if cols[j] and kinds[seq[j]] == _O_BRANCH:
                    mispredicts = True
        counts: dict[int, int] = {}
        for s in path:
            counts[s] = counts.get(s, 0) + 1
        self.path = path
        self.statics = tuple(sorted(counts))
        self.counts = tuple(counts[s] for s in self.statics)
        klass = pipeline.static.klass
        self.stores = sum(n for s, n in zip(self.statics, self.counts)
                          if klass[s] == "store")
        self.mispredicts = mispredicts
        self.advances: dict[tuple[int, int], int] = {}

    def advance(self, slots: int, groups: int, header: int, pipeline) -> int:
        """Fetch-cycle advance over the iteration if nothing redirects."""
        key = (slots, groups)
        advance = self.advances.get(key)
        if advance is None:
            config = pipeline.config
            width = config.fetch_width
            per_cycle = config.fetch_groups_per_cycle
            breaks = config.fetch_break_on_taken and width is not None
            is_branch = pipeline.static.is_branch
            path = self.path
            last = len(path) - 1
            advance = 0
            for i, s in enumerate(path):
                if width is not None:
                    if slots >= width:
                        advance += 1
                        slots = groups = 0
                    slots += 1
                if breaks and is_branch[s]:
                    following = path[i + 1] if i < last else header
                    if following != s + 1:
                        groups += 1
                        if groups >= per_cycle:
                            advance += 1
                            slots = groups = 0
            self.advances[key] = advance
        return advance


class _Effect:
    """One recorded iteration: successor state and accumulator deltas."""

    __slots__ = ("iteration", "next_state", "shift", "fetch_absolute",
                 "fetch", "slots", "groups", "counters", "stall", "rows",
                 "lag", "hits", "lag_sum")

    def __init__(self, iteration: _Iteration):
        self.iteration = iteration
        self.hits = 0
        self.lag_sum = 0


class LoopMemo:
    """Per-pipeline memo of loop iterations; see the module docstring."""

    @classmethod
    def for_pipeline(cls, pipeline) -> "LoopMemo | None":
        """A memo for ``pipeline``, or ``None`` where one cannot pay."""
        window = pipeline.config.window_size
        program = pipeline.program
        if not window or not program.finalized:
            return None
        header, body = loop_header(program)
        if body < window + len(pipeline.scheduler.reg_ready):
            return None
        return cls(pipeline, header, body)

    def __init__(self, pipeline, header: int, body: int):
        self.pipeline = pipeline
        self.header = header
        #: Ready entries held back without a header before giving up on
        #: the current iteration.
        self.limit = 8 * body
        self.pending: list = []
        self.pending_entries = 0
        #: Trace position of the current iteration's header, or None
        #: before the first crossing (and after giving up).
        self.position: int | None = None
        self.iterations = 0
        self.hits = 0
        self.digests: dict[bytes, _Iteration] = {}
        #: Snapshot -> state id, and back.
        self.states: dict[bytes, int] = {}
        self.state_list: list[bytes] = []
        #: Hashes of the snapshots seen at crossings.
        self.seen: set[int] = set()
        self.effects: dict[tuple, _Effect] = {}
        #: ``(state id or snapshot, H)`` at the current crossing when
        #: known (see :meth:`_observe`).
        self.current: tuple | None = None
        #: True while the stage objects lag a chain of replays; the
        #: fetch registers and store count then live here.
        self.virtual = False
        self.fetch = self.slots = self.groups = self.store_count = 0

    # -- stream -------------------------------------------------------------

    def consume(self, pieces: list) -> None:
        """Cut ready pieces at header crossings and time each iteration."""
        header = self.header
        pending = self.pending
        for piece in pieces:
            seq, cols, start, lo, hi, next_s = piece
            begin = lo
            j = lo
            while True:
                try:
                    k = seq.index(header, j, hi)
                except ValueError:
                    break
                if k > begin:
                    pending.append((seq, cols, start, begin, k, next_s))
                    self.pending_entries += k - begin
                self._cross(start + k)
                pending = self.pending
                begin = k
                j = k + 1
            if hi > begin:
                pending.append((seq, cols, start, begin, hi, next_s))
                self.pending_entries += hi - begin
        if self.pending_entries > self.limit:
            self._run(self._take())
            self.position = None
            self.current = None

    def close(self) -> None:
        """Time what is left, rebuild the stage state, fold the replays."""
        self._run(self._take())
        self._materialize()
        self._fold()
        self.effects = {}
        self.states = {}
        self.state_list = []
        self.digests = {}
        # Break the pipeline <-> memo cycle so the finished pipeline is
        # freed at once, not at the next cyclic collection.
        self.pipeline = None

    def _take(self) -> list:
        pieces = self.pending
        self.pending = []
        self.pending_entries = 0
        return pieces

    def _run(self, pieces: list) -> None:
        """Time pieces through the engine's loop."""
        self._materialize()
        advance = self.pipeline._advance
        for seq, cols, start, lo, hi, next_s in pieces:
            advance(seq, cols, None, start, lo, hi, next_s)

    def _cross(self, position: int) -> None:
        """A header crossing at ``position``: the pending iteration ends."""
        pieces = self._take()
        if self.position is None:
            self._run(pieces)
            self.current = None
        else:
            self._iterate(pieces, position)
        self.position = position

    # -- one iteration ------------------------------------------------------

    def _iterate(self, pieces: list, end: int) -> None:
        self.iterations += 1
        digest = blake2b(digest_size=16)
        for seq, _cols, _start, lo, hi, _next in pieces:
            digest.update(memoryview(seq)[lo:hi])
        for _seq, cols, _start, lo, hi, _next in pieces:
            digest.update(memoryview(cols)[lo:hi])
        key = digest.digest()
        iteration = self.digests.get(key)
        if iteration is None:
            self.digests[key] = _Iteration(len(self.digests))
            self._run(pieces)
            self.current = None
            return
        if iteration.path is None:
            iteration.describe(pieces, self.pipeline)
        current = self.current or self._observe(self.position)
        if current is None:
            self._run(pieces)
            return
        state, horizon = current
        if isinstance(state, bytes):
            # No effect is keyed on a state without an id; give it one
            # (and record) only when it recurs.
            fingerprint = hash(state)
            recurs = fingerprint in self.seen
            self.seen.add(fingerprint)
        else:
            recurs = True
        fetch, slots, groups, store_count = self._front()
        lagging = (not iteration.mispredicts
                   and fetch + self.pipeline.config.frontend_depth
                   + iteration.advance(slots, groups, self.header,
                                       self.pipeline) <= horizon)
        fetch_key = (slots, groups, None if lagging else fetch - horizon)
        effect = self.effects.get((state, iteration.ident, fetch_key))
        if effect is not None:
            self.hits += 1
            effect.hits += 1
            if lagging:
                effect.lag_sum += fetch - horizon
            horizon += effect.shift
            self.fetch = (horizon + effect.fetch if effect.fetch_absolute
                          else fetch + effect.fetch)
            self.slots = effect.slots
            self.groups = effect.groups
            self.store_count = store_count + iteration.stores
            self.current = (effect.next_state, horizon)
            self.virtual = True
            return
        if not recurs or len(self.effects) >= MAX_ENTRIES:
            self._run(pieces)
            self.current = None
            return
        state = self._intern(state)
        before = self._accumulators(iteration)
        self._run(pieces)
        after = self._observe(end)
        if after is None:
            self.current = None
            return
        next_state, next_horizon = after
        next_state = self._intern(next_state)
        self.current = (next_state, next_horizon)
        pipeline = self.pipeline
        frontend = pipeline.frontend
        effect = _Effect(iteration)
        effect.next_state = next_state
        effect.shift = next_horizon - horizon
        effect.fetch_absolute = not lagging
        effect.fetch = (frontend.fetch_cycle - fetch if lagging
                        else frontend.fetch_cycle - next_horizon)
        effect.slots = frontend.fetch_slots_used
        effect.groups = frontend.fetch_groups_used
        effect.lag = fetch - horizon if lagging else None
        done = self._accumulators(iteration)
        effect.counters = tuple(b - a for a, b in zip(before[0], done[0]))
        if pipeline._attribute:
            effect.stall = tuple(b - a for a, b in zip(before[1], done[1]))
            effect.rows = array("i", map(sub, done[2], before[2]))
        self.effects[(state, iteration.ident, fetch_key)] = effect

    def _front(self) -> tuple[int, int, int, int]:
        if self.virtual:
            return self.fetch, self.slots, self.groups, self.store_count
        pipeline = self.pipeline
        frontend = pipeline.frontend
        return (frontend.fetch_cycle, frontend.fetch_slots_used,
                frontend.fetch_groups_used, pipeline.ordering.store_count)

    def _accumulators(self, iteration: _Iteration) -> tuple:
        pipeline = self.pipeline
        stats = pipeline.stats
        counters = [getattr(stats, name) for name in _COUNTERS]
        if not pipeline._attribute:
            return counters, None, None
        attribution = pipeline.attribution
        hot = attribution.hot
        rows = array("q")
        for s in iteration.statics:
            rows.extend(hot[s])
        return counters, list(attribution.stall_slots), rows

    # -- states -------------------------------------------------------------

    def _observe(self, position: int):
        """Normalize the live state at a crossing: ``(state, H)``.

        ``state`` is the interned id when the snapshot has one, else the
        snapshot itself.  ``None`` when the state cannot be normalized (a
        periodic prune already passed ``H``).
        """
        horizon = self._normalize(position)
        if horizon is None:
            return None
        snapshot = _snapshot(self.pipeline, position, horizon)
        return self.states.get(snapshot, snapshot), horizon

    def _intern(self, state) -> int:
        if not isinstance(state, bytes):
            return state
        ident = self.states[state] = len(self.state_list)
        self.state_list.append(state)
        return ident

    def _normalize(self, position: int) -> int | None:
        pipeline = self.pipeline
        scheduler = pipeline.scheduler
        ring = scheduler.retire_ring
        horizon = ring[position % len(ring)]
        if pipeline._attribute:
            attribution = pipeline.attribution
            if attribution.frontier < horizon:
                horizon = attribution.frontier
            if attribution.flushed_until > horizon:
                return None
        if scheduler.trim_mark > horizon:
            return None
        pipeline._prune_maps(horizon)
        return horizon

    def _materialize(self) -> None:
        """Rebuild the stage objects after a chain of replays."""
        if not self.virtual:
            return
        self.virtual = False
        state, horizon = self.current
        pipeline = self.pipeline
        pipeline.ordering.store_count = self.store_count
        _restore(pipeline, self.state_list[state], self.position, horizon)
        frontend = pipeline.frontend
        frontend.fetch_cycle = self.fetch
        frontend.fetch_slots_used = self.slots
        frontend.fetch_groups_used = self.groups

    def _fold(self) -> None:
        """Add every effect's deltas once per replay."""
        pipeline = self.pipeline
        stats = pipeline.stats
        attribute = pipeline._attribute
        if attribute:
            attribution = pipeline.attribution
            stall = attribution.stall_slots
            hot = attribution.hot
            exec_counts = attribution.exec_counts
        for effect in self.effects.values():
            hits = effect.hits
            if not hits:
                continue
            for name, delta in zip(_COUNTERS, effect.counters):
                if delta:
                    setattr(stats, name, getattr(stats, name) + hits * delta)
            if not attribute:
                continue
            for index, delta in enumerate(effect.stall):
                stall[index] += hits * delta
            iteration = effect.iteration
            rows = effect.rows
            lag = effect.lag
            base = 0
            for s, count in zip(iteration.statics, iteration.counts):
                row = hot[s]
                for index in range(_N_WAIT):
                    row[index] += hits * rows[base + index]
                if lag is not None:
                    # Window waits are affine in the fetch lag.
                    row[0] += (hits * lag - effect.lag_sum) * count
                exec_counts[s] += hits * count
                base += _N_WAIT


def _maps(scheduler) -> tuple:
    return (scheduler.issue_used, scheduler.ialu_used, scheduler.rot_used,
            scheduler.mul_used, scheduler.dport_used, *scheduler.sport_used)


def _snapshot(pipeline, position: int, horizon: int) -> bytes:
    """The normalized state at a crossing, relative to ``horizon``.

    Packed as 32-bit integers: the registers and the rotated retire ring,
    each resource map and the live stores as a count plus sorted pairs,
    six clamped scalars, then the pending cycle labels.
    """
    scheduler = pipeline.scheduler
    ordering = pipeline.ordering
    ring = scheduler.retire_ring
    k = position % len(ring)
    values = array("i", [v - horizon if v > horizon else 0
                         for v in scheduler.reg_ready])
    values.extend([v - horizon for v in ring[k:]])
    values.extend([v - horizon for v in ring[:k]])
    for used in _maps(scheduler):
        values.append(len(used))
        for cycle, n in sorted(used.items()):
            values.append(cycle - horizon)
            values.append(n)
    count = ordering.store_count
    stores = sorted([(count - order, ready - horizon)
                     for order, ready in ordering.store_ready.items()
                     if ready > horizon])
    values.append(len(stores))
    for distance, ready in stores:
        values.append(distance)
        values.append(ready)
    values.extend([v - horizon if v > horizon else 0 for v in (
        scheduler.max_complete, pipeline.frontend.mispredict_until,
        ordering.last_store_addr_known, ordering.sync_barrier)])
    values.append(scheduler.retire_prev - horizon)
    values.append(scheduler.retire_count)
    if pipeline._attribute:
        values.extend(pipeline.attribution.labels)
    return values.tobytes()


def _restore(pipeline, snapshot: bytes, position: int, horizon: int) -> None:
    """Write a snapshot back into the stage objects at ``horizon``.

    The fetch registers and the store count are the caller's to set
    (the count first: stores are renumbered from it).
    """
    values = array("i")
    values.frombytes(snapshot)
    scheduler = pipeline.scheduler
    ordering = pipeline.ordering
    regs = scheduler.reg_ready
    at = len(regs)
    regs[:] = [horizon + v for v in values[:at]]
    ring = scheduler.retire_ring
    window = len(ring)
    k = position % window
    ring[k:] = [horizon + v for v in values[at:at + window - k]]
    ring[:k] = [horizon + v for v in values[at + window - k:at + window]]
    at += window
    for full in scheduler.saturated.values():
        full.clear()
    for used in _maps(scheduler):
        n = values[at]
        used.clear()
        for i in range(at + 1, at + 1 + 2 * n, 2):
            used[horizon + values[i]] = values[i + 1]
        at += 1 + 2 * n
    store_ready = ordering.store_ready
    store_ready.clear()
    count = ordering.store_count
    n = values[at]
    for i in range(at + 1, at + 1 + 2 * n, 2):
        store_ready[count - values[i]] = horizon + values[i + 1]
    at += 1 + 2 * n
    (complete, mispredict, addr_known, barrier, retire,
     scheduler.retire_count) = values[at:at + 6]
    at += 6
    scheduler.max_complete = horizon + complete
    pipeline.frontend.mispredict_until = horizon + mispredict
    ordering.last_store_addr_known = horizon + addr_known
    ordering.sync_barrier = horizon + barrier
    scheduler.retire_prev = horizon + retire
    scheduler.trim_mark = horizon
    if pipeline._attribute:
        attribution = pipeline.attribution
        attribution.labels[:] = values[at:]
        attribution.label_base = horizon
        attribution.flushed_until = horizon
        attribution.frontier = horizon + len(values) - at
