"""The ``"generic"`` timing engine: one interpreter loop for any program.

This is the reference implementation of the timing model -- a single flat
loop over trace entries.  It handles every machine configuration and
every trace shape (including synthetic chunks with explicit ``taken``
flags), and its output defines correctness for every other engine: the
``"specialized"`` engine must match it bit for bit
(``tests/sim/test_timing_engines.py`` is the oracle, and
``tests/sim/test_timing_golden.py`` pins both to recorded numbers).

Everything an instruction's static metadata and the machine config
decide is resolved once per pipeline into a per-static-instruction
*plan* (:func:`_build_plan`), so the loop unpacks one tuple per dynamic
instruction instead of re-dispatching on its class string.  Memory and
branch outcomes come from the trace-order outcome column; repeated loop
iterations may be replayed instead of run (:mod:`repro.sim.timing.memo`).
"""

from __future__ import annotations

from repro.sim.timing.stages import (
    _C_ALIAS,
    _C_FETCH,
    _C_FRONTEND,
    _C_FU_IALU,
    _C_FU_MEM,
    _C_FU_MUL,
    _C_FU_ROT,
    _C_FU_SBOX,
    _C_ISSUE,
    _C_MISPREDICT,
    _C_OPERAND,
    _C_WINDOW,
    _UNLIMITED,
    PipelineBase,
)

# Plan class codes.  Every class but the memory ones and SYNC is _K_PLAIN:
# issue on the plan's unit pool (if any), complete after its latency.
# STORE and SYNC come last: only they have work after issue.
(_K_PLAIN, _K_LOAD, _K_SBOX_ALIASED, _K_SBOX_CACHE, _K_SBOX_DCACHE,
 _K_STORE, _K_SYNC) = range(7)

# Plan branch flags: conditional branches on a machine with a predictor
# consult it; every other branch is predicted correctly.
_BR_NONE, _BR_PREDICTED, _BR_CONDITIONAL = range(3)


def _build_plan(pipeline: "GenericPipeline") -> list[tuple]:
    """One tuple per static instruction, resolving everything static.

    ``(code, pool, limit, cost, category, latency, dest, sources,
    branch)``: the class code, the unit pool's per-cycle usage map
    (``None`` when its check can never bind), the pool's per-cycle limit,
    this instruction's cost on it, the stall category a full pool is
    blamed on, the base latency from issue to completion, the destination
    register, the source registers and the branch flag.

    A pool whose every user costs one unit and whose limit is at least the
    issue width can never bind: its per-cycle use is bounded by the issue
    count, which the issue check keeps below the limit.  Its checks and
    bookkeeping are skipped.
    """
    config = pipeline.config
    static = pipeline.static
    scheduler = pipeline.scheduler
    issue_width = pipeline._issue_width
    track_issue = pipeline._track_issue
    sbox_array = pipeline.outcomes.memorder.sbox_array

    def pool(used, limit, costs=(1,)):
        if limit == _UNLIMITED or (track_issue and limit >= issue_width
                                   and set(costs) == {1}):
            return None
        return used

    mul_costs = (config.mul32_cost, config.mul64_cost, config.mulmod_cost)
    ialu = pool(scheduler.ialu_used, pipeline._num_ialu)
    rot = pool(scheduler.rot_used, pipeline._num_rot)
    mul = pool(scheduler.mul_used, pipeline._mul_slots, mul_costs)
    dport = pool(scheduler.dport_used, pipeline._dports)
    sports = [pool(used, pipeline._sbox_ports)
              for used in scheduler.sport_used]
    simple = {
        "ialu": (ialu, pipeline._num_ialu, 1, _C_FU_IALU,
                 config.alu_latency),
        "rotator": (rot, pipeline._num_rot, 1, _C_FU_ROT,
                    config.rotator_latency),
        "mul32": (mul, pipeline._mul_slots, config.mul32_cost, _C_FU_MUL,
                  config.mul32_latency),
        "mul64": (mul, pipeline._mul_slots, config.mul64_cost, _C_FU_MUL,
                  config.mul64_latency),
        "mulmod": (mul, pipeline._mul_slots, config.mulmod_cost, _C_FU_MUL,
                   config.mulmod_latency),
    }
    dcache = (dport, pipeline._dports, 1, _C_FU_MEM)
    plan = []
    for s, klass in enumerate(static.klass):
        code = _K_PLAIN
        if klass == "load":
            code = _K_LOAD
            resources = (*dcache, config.load_latency - 1)
        elif klass == "store":
            code = _K_STORE
            resources = (*dcache, config.store_latency)
        elif klass == "sbox" and static.sbox_aliased[s]:
            code = _K_SBOX_ALIASED
            resources = (*dcache, config.sbox_dcache_latency)
        elif (klass == "sbox" and sbox_array is not None
              and static.sbox_table[s] < sbox_array.count):
            # The table designator schedules this access onto a dedicated
            # SBox cache; ids beyond the cache count (e.g. 3DES's eight
            # logical tables) deliberately stay on the d-cache path so a
            # single-tag sector cache is not thrashed between tables.
            code = _K_SBOX_CACHE
            port = static.sbox_table[s] % sbox_array.count
            resources = (sports[port], pipeline._sbox_ports, 1, _C_FU_SBOX,
                         config.sbox_cache_latency)
        elif klass == "sbox":
            code = _K_SBOX_DCACHE
            resources = (*dcache, config.sbox_dcache_latency)
        elif klass == "sync":
            code = _K_SYNC
            resources = (None, _UNLIMITED, 1, _C_ISSUE, 1)
        else:
            resources = simple.get(
                klass, (None, _UNLIMITED, 1, _C_ISSUE, config.alu_latency))
        branch = _BR_NONE
        if static.is_branch[s]:
            branch = (_BR_CONDITIONAL
                      if static.is_cond_branch[s]
                      and not config.perfect_branch_prediction
                      else _BR_PREDICTED)
        plan.append((code, *resources, static.dest[s], static.srcs[s],
                     branch))
    return plan


class GenericPipeline(PipelineBase):
    """Per-entry interpreter over the stage components."""

    engine_name = "generic"

    def __init__(self, config, static, program, warm_ranges=None,
                 schedule_range=None, _memo=True):
        super().__init__(config, static, program, warm_ranges=warm_ranges,
                         schedule_range=schedule_range, _memo=_memo)
        self._plan = _build_plan(self)

    def _advance(
        self,
        seq,
        cols,
        taken_arr,
        base_pos: int,
        lo: int,
        hi: int,
        next_s,
    ) -> None:
        """Process trace entries ``seq[lo:hi]``.

        ``base_pos`` is the global trace position of ``seq[0]``; ``cols``
        is the chunk's outcome column (:class:`OutcomeColumns`).
        ``taken_arr`` carries explicit branch outcomes when present;
        otherwise outcomes are inferred from the following entry --
        ``seq[j + 1]`` in-bounds, else ``next_s`` (the first entry of the
        next chunk), else taken (``next_s is None`` = end of trace).

        The body is one flat loop over the entries.  Each entry unpacks
        its static instruction's plan tuple; only the memory classes and
        SYNC branch further.  Issue is inlined: the uncontended case is
        straight-line code, and only a contended issue runs the bump loop
        that records one stall category per cycle it waited.  Carried
        scalar state and the stats counters live in locals and are
        written back at the end of the call; the dict/list state is
        mutated in place.
        """
        config = self.config
        static = self.static
        stats = self.stats
        frontend = self.frontend
        scheduler = self.scheduler
        ordering = self.ordering
        attribution = self.attribution
        plan = self._plan

        addr_srcs = static.addr_srcs

        issue_used = scheduler.issue_used
        issue_get = issue_used.get
        saturated = scheduler.saturated
        reg_ready = scheduler.reg_ready
        retire_ring = scheduler.retire_ring
        retire_prev = scheduler.retire_prev
        retire_count = scheduler.retire_count
        max_complete = scheduler.max_complete
        prune_mark = scheduler.prune_mark

        issue_width = self._issue_width
        retire_width = self._retire_width
        limited_retire = retire_width != _UNLIMITED
        track_issue = self._track_issue
        attribute = self._attribute
        window = config.window_size
        frontend_depth = config.frontend_depth
        sbox_miss_lat = config.sbox_dcache_latency
        mispredict_penalty = config.mispredict_penalty
        perfect_alias = config.perfect_alias
        prune_interval = config.prune_interval

        fetch_cycle = frontend.fetch_cycle
        fetch_slots_used = frontend.fetch_slots_used
        fetch_groups_used = frontend.fetch_groups_used
        mispredict_until = frontend.mispredict_until
        fetch_width = config.fetch_width
        groups_per_cycle = config.fetch_groups_per_cycle
        break_on_taken = config.fetch_break_on_taken and fetch_width is not None

        last_store_addr_known = ordering.last_store_addr_known
        store_ready = ordering.store_ready
        ready_get = store_ready.get
        store_count = ordering.store_count
        sync_barrier = ordering.sync_barrier

        if attribute:
            label = attribution.labels.append
            frontier = attribution.frontier
            hot = attribution.hot
            exec_counts = attribution.exec_counts

        schedule = self._schedule
        sched_start = self._sched_start
        sched_end = self._sched_end
        seq_len = len(seq)

        loads = stores = sbox_accesses = store_forwards = 0
        branches = mispredictions = sbox_cache_misses = 0
        bumps: list[int] = []

        for j in range(lo, hi):
            pos = base_pos + j
            s = seq[j]
            (code, pool, limit, cost, pool_cat, latency, d, sources,
             branch) = plan[s]

            # ---- fetch ----------------------------------------------------
            if fetch_width is not None:
                if fetch_slots_used >= fetch_width:
                    fetch_cycle += 1
                    fetch_slots_used = 0
                    fetch_groups_used = 0
                fetch_slots_used += 1
            this_fetch = fetch_cycle

            # ---- dispatch / operands --------------------------------------
            enter = earliest = this_fetch + frontend_depth
            if window:
                slot = pos % window
                freed = retire_ring[slot]
                if freed > earliest:
                    earliest = freed
            dispatch_floor = earliest
            for r in sources:
                t = reg_ready[r]
                if t > earliest:
                    earliest = t

            # ---- request cycle per class ----------------------------------
            # ``operand_end`` / ``request`` bound the attribution segments:
            # [dispatch_floor, operand_end) is operand wait (incl. address
            # generation), [operand_end, request) is memory-ordering/alias
            # stall, [request, issued) is issue/FU contention per ``bumps``.
            if code == _K_PLAIN:
                operand_end = request = earliest
            elif code == _K_LOAD:
                # Address generation, then ordered cache access.
                operand_end = request = earliest + 1
                if not perfect_alias and last_store_addr_known > request:
                    request = last_store_addr_known
                outcome = cols[j]
                if outcome < 0:
                    # Forwarded from the store -outcome stores back; a
                    # pruned data-ready cycle can no longer bind.
                    forward = ready_get(store_count + outcome + 1, 0)
                    if forward > request:
                        request = forward
                    pool = None
                    latency = 1
                    store_forwards += 1
                else:
                    latency += outcome
                loads += 1
            elif code == _K_STORE:
                # The address resolves when the base register is ready.
                addr_known = dispatch_floor
                for r in addr_srcs[s]:
                    t = reg_ready[r]
                    if t > addr_known:
                        addr_known = t
                addr_known += 1
                operand_end = request = (earliest if earliest > addr_known
                                         else addr_known)
                if not perfect_alias and addr_known > last_store_addr_known:
                    last_store_addr_known = addr_known
                stores += 1
            elif code == _K_SBOX_ALIASED:
                # RC4's read-modify-write table: ordered like a load.
                operand_end = request = earliest
                if not perfect_alias and last_store_addr_known > request:
                    request = last_store_addr_known
                outcome = cols[j]
                if outcome < 0:
                    forward = ready_get(store_count + outcome + 1, 0)
                    if forward > request:
                        request = forward
                    pool = None
                    latency = 1
                    store_forwards += 1
                else:
                    latency += outcome
                sbox_accesses += 1
            elif code == _K_SBOX_CACHE:
                operand_end = request = earliest
                if sync_barrier > request:
                    request = sync_barrier
                if cols[j]:
                    latency += sbox_miss_lat
                    sbox_cache_misses += 1
                sbox_accesses += 1
            elif code == _K_SBOX_DCACHE:
                operand_end = request = earliest
                if sync_barrier > request:
                    request = sync_barrier
                latency += cols[j]
                sbox_accesses += 1
            else:  # _K_SYNC
                operand_end = request = earliest

            # ---- issue: first cycle >= request with a slot and unit room --
            issued = request
            if track_issue:
                used = issue_get(issued, 0)
                if pool is None:
                    if used >= issue_width:
                        bumps = []
                        while used >= issue_width:
                            bumps.append(_C_ISSUE)
                            issued += 1
                            used = issue_get(issued, 0)
                else:
                    busy = pool.get(issued, 0)
                    if used >= issue_width or busy + cost > limit:
                        bumps = []
                        while True:
                            if used >= issue_width:
                                bumps.append(_C_ISSUE)
                            elif busy + cost > limit:
                                bumps.append(pool_cat)
                            else:
                                break
                            issued += 1
                            used = issue_get(issued, 0)
                            busy = pool.get(issued, 0)
                    pool[issued] = busy + cost
                issue_used[issued] = used + 1
            elif pool is not None:
                # No slot account here, so saturated cycles are skipped
                # without recording bumps: ``full[c]`` is a later cycle
                # with every cycle from ``c`` up to it saturated.
                busy = pool.get(issued, 0)
                if busy + cost > limit:
                    full = saturated[id(pool)]
                    while True:
                        nxt = full.get(issued)
                        if nxt is not None:
                            path = []
                            while nxt is not None:
                                path.append(issued)
                                issued = nxt
                                nxt = full.get(issued)
                            for cycle in path:
                                full[cycle] = issued
                            busy = pool.get(issued, 0)
                        if busy + cost <= limit:
                            break
                        issued += 1
                        busy = pool.get(issued, 0)
                busy += cost
                pool[issued] = busy
                if busy >= limit:
                    saturated[id(pool)][issued] = issued + 1
            complete = issued + latency
            if code >= _K_STORE:
                if code == _K_STORE:
                    store_count += 1
                    store_ready[store_count] = complete
                else:
                    sync_barrier = complete

            # ---- stall attribution ----------------------------------------
            # ``bumps`` is only read when this instruction waited past its
            # request (issued > request), which rebuilt it above.
            if attribute:
                exec_counts[s] += 1
                # Machine view: label every cycle up to this issue with the
                # category blocking the oldest unissued instruction (cycles
                # below ``frontier`` were labeled by older instructions).
                if issued > frontier:
                    for cycle in range(frontier, issued):
                        if cycle < this_fetch:
                            cat = (_C_MISPREDICT if cycle < mispredict_until
                                   else _C_FETCH)
                        elif cycle < enter:
                            cat = _C_FRONTEND
                        elif cycle < dispatch_floor:
                            cat = _C_WINDOW
                        elif cycle < operand_end:
                            cat = _C_OPERAND
                        elif cycle < request:
                            cat = _C_ALIAS
                        else:
                            cat = bumps[cycle - request]
                        label(cat)
                    frontier = issued
                # Instruction view: cycles *this* instruction spent blocked,
                # which sum to issued - enter.
                if issued > enter:
                    row = hot[s]
                    row[_C_WINDOW - _C_WINDOW] += dispatch_floor - enter
                    row[_C_OPERAND - _C_WINDOW] += operand_end - dispatch_floor
                    row[_C_ALIAS - _C_WINDOW] += request - operand_end
                    if issued > request:
                        for cat in bumps:
                            row[cat - _C_WINDOW] += 1

            # ---- branch resolution / fetch redirect -----------------------
            if branch:
                if taken_arr is not None:
                    taken = bool(taken_arr[j])
                else:
                    jn = j + 1
                    if jn < seq_len:
                        taken = seq[jn] != s + 1
                    elif next_s is None:
                        taken = True
                    else:
                        taken = next_s != s + 1
                branches += 1
                if branch == _BR_CONDITIONAL and cols[j]:
                    mispredictions += 1
                    redirect = complete + mispredict_penalty
                    if redirect > fetch_cycle:
                        fetch_cycle = redirect
                        fetch_slots_used = 0
                        fetch_groups_used = 0
                        if redirect > mispredict_until:
                            mispredict_until = redirect
                elif taken and break_on_taken:
                    fetch_groups_used += 1
                    if fetch_groups_used >= groups_per_cycle:
                        fetch_cycle += 1
                        fetch_slots_used = 0
                        fetch_groups_used = 0

            # ---- writeback / retire ---------------------------------------
            if d >= 0:
                reg_ready[d] = complete
            if complete > max_complete:
                max_complete = complete

            r = complete + 1
            if r > retire_prev:
                retire_prev = r
                retire_count = 1
            elif limited_retire and retire_count >= retire_width:
                # Only the frontier cycle can fill (see SchedulerState).
                retire_prev += 1
                retire_count = 1
            else:
                retire_count += 1
            if window:
                retire_ring[slot] = retire_prev
            if schedule is not None and sched_start <= pos < sched_end:
                # dispatch_floor = window entry (fetch throttled by ROB
                # space), the honest "F" column for visualization.
                schedule.append((pos, s, dispatch_floor, issued, complete,
                                 retire_prev))

            # ---- prune resource maps --------------------------------------
            if pos - prune_mark >= prune_interval:
                prune_mark = pos
                # ``dispatch_floor`` is monotone in ``pos`` (fetch cycles
                # and in-order retirement both only move forward) and every
                # resource probe of every later instruction starts at or
                # above it, so cycles below it are final.  ``retire_prev``
                # guards the retirement frontier the same way.
                if attribute:
                    attribution.frontier = frontier
                self._prune_maps(min(dispatch_floor, retire_prev) - 8192)

        # ---- write carried state back to the stage components -------------
        frontend.fetch_cycle = fetch_cycle
        frontend.fetch_slots_used = fetch_slots_used
        frontend.fetch_groups_used = fetch_groups_used
        frontend.mispredict_until = mispredict_until
        scheduler.retire_prev = retire_prev
        scheduler.retire_count = retire_count
        scheduler.max_complete = max_complete
        scheduler.prune_mark = prune_mark
        ordering.last_store_addr_known = last_store_addr_known
        ordering.store_count = store_count
        ordering.sync_barrier = sync_barrier
        if attribute:
            attribution.frontier = frontier
        stats.loads += loads
        stats.stores += stores
        stats.sbox_accesses += sbox_accesses
        stats.store_forwards += store_forwards
        stats.branches += branches
        stats.mispredictions += mispredictions
        stats.sbox_cache_misses += sbox_cache_misses


class GenericEngine:
    """Engine wrapper: builds :class:`GenericPipeline` instances."""

    name = "generic"

    def make_pipeline(
        self,
        config,
        static,
        program,
        *,
        warm_ranges=None,
        schedule_range=None,
    ) -> GenericPipeline:
        return GenericPipeline(
            config, static, program,
            warm_ranges=warm_ranges, schedule_range=schedule_range,
        )
