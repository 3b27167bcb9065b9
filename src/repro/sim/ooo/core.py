"""Trace-driven out-of-order superscalar timing model.

Replays a :class:`~repro.sim.trace.Trace` through a four-stage resource
pipeline — fetch, dispatch (decode+rename), issue, commit — modelled after
SimpleScalar's ``sim-outorder`` with MIPS R10000-style renaming, which is
the paper's simulation vehicle (section 3).

Stage behaviour per cycle, in simulated order:

1. **Commit** retires up to ``commit_width`` completed instructions from
   the head of the window, freeing previous physical mappings and any
   DVI-pending physical registers attached to the retiring instruction.
2. **Issue** selects up to ``issue_width`` ready instructions oldest-first,
   subject to functional-unit and cache-port availability.  Loads and
   stores access the D-cache here; a mispredicted control transfer
   schedules the fetch redirect for its completion cycle.
3. **Dispatch** renames and inserts up to ``decode_width`` instructions
   into the window.  E-DVI ``kill`` annotations and LVM-eliminated
   saves/restores are *dropped here*: they consumed fetch/decode bandwidth
   but no window slot, no rename, no functional unit, and no cache port —
   exactly the paper's "fetched and decoded ... but not dispatched".
   Kills unmap their registers immediately and their physical registers
   are freed when the most recent dispatched instruction commits (the
   in-order-equivalent of "when the kill commits").
4. **Fetch** brings up to ``fetch_width`` trace records into the fetch
   queue, stopping at taken control transfers, I-cache misses, and
   unresolved mispredictions.

Wrong-path instructions are not simulated; the timing cost of a
misprediction is the fetch gap until the branch resolves plus the
configured redirect penalty, the standard trace-driven approximation.

Implementation notes (the perf-critical part):

The stages are inlined into one :meth:`OutOfOrderCore.run` loop that
reads the trace's **columnar** storage directly — the fetch queue holds
plain row indices, per-row facts come from flat ``array`` columns (the
sparse address and free-mask columns spread over the rows once per trace
by :meth:`~repro.sim.trace.Trace.replay_rows`), and per-pc static facts
(opcode, class, destination, packed sources) from the trace's
side-tables, all as ints.  In-flight window entries are small
lists (see the ``E_*`` index constants) rather than objects; un-issued
entries are additionally kept in an age-ordered ``pending`` list so the
issue stage never rescans already-issued window slots.  Rename
allocate/source-resolution are inlined over the renamer's map/free-list
(the rare kill/call/return unmap path still goes through
:meth:`~repro.sim.ooo.renamer.Renamer.unmap`), and every loop-invariant
bound method and config limit is hoisted to a local.  All counters are
folded back into the renamer/stats objects when the loop exits, so the
externally observable results are identical to the per-stage-method
formulation this replaced.

This loop is the oracle of the native timing kernel (``kernel.c``, run
by :mod:`repro.sim.ooo.native`), which :func:`simulate` runs whenever it
loaded: a change to one without the other fails the golden grid.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

from repro.isa.opcodes import NUM_OP_CLASSES, OpClass, Opcode
from repro.sim.branch.btb import BranchTargetBuffer, ReturnAddressStack
from repro.sim.branch.predictors import build_predictor
from repro.sim.cache.hierarchy import MemoryHierarchy
from repro.sim.config import MachineConfig
from repro.sim.ooo import native
from repro.sim.ooo.renamer import NEVER, Renamer
from repro.sim.ooo.stats import PipelineStats
from repro.sim.trace import (
    FLAG_ELIMINATED,
    FLAG_FREES,
    FLAG_PROGRAM,
    FLAG_TAKEN,
    Trace,
)

# Window-entry list layout (lists beat objects in the per-cycle loops).
# ``complete`` doubles as the issued flag: NEVER means not yet issued.
E_COMPLETE = 0    # cycle at which the result is available (NEVER: unissued)
E_SRC1 = 1        # first source physical register, or -1 (ready)
E_SRC2 = 2        # second source physical register, or -1 (ready)
E_DST_PHYS = 3    # destination physical register, or -1
E_PREV_PHYS = 4   # previous mapping to free at commit, or -1
E_FREES = 5       # physical registers to free at commit (None if none)
E_BLOCKS = 6      # bool: fetch stalls until this entry issues (mispredict)
E_CLS = 7         # OpClass int code
E_ADDR = 8        # memory byte address, or -1

_CLS_IMUL = int(OpClass.IMUL)
_CLS_IDIV = int(OpClass.IDIV)
_CLS_LOAD = int(OpClass.LOAD)
_CLS_STORE = int(OpClass.STORE)
_CLS_BRANCH = int(OpClass.BRANCH)
_CLS_JUMP = int(OpClass.JUMP)
_OP_J = int(Opcode.J)
_OP_JAL = int(Opcode.JAL)
_OP_JALR = int(Opcode.JALR)


class OutOfOrderCore:
    """One timing simulation of one trace on one machine configuration."""

    def __init__(self, config: MachineConfig, trace: Trace) -> None:
        self.config = config
        self.trace = trace
        self.stats = PipelineStats()
        self.renamer = Renamer(config.phys_regs)
        self.hierarchy = MemoryHierarchy(config.hierarchy)
        self.predictor = build_predictor(config)
        self.btb = BranchTargetBuffer(config.btb_sets, config.btb_assoc)
        self.ras = ReturnAddressStack(config.ras_depth)

        #: In-flight entries, oldest first (see the ``E_*`` layout).
        self._window: Deque[list] = deque()
        #: The fetch queue.  Fetch delivers trace rows strictly in order
        #: and dispatch consumes them in order, so the queue is always the
        #: contiguous index range ``[_dispatch_pos, _fetch_pos)`` — two
        #: ints instead of a deque.
        self._dispatch_pos = 0
        #: Dispatched-but-unissued entries, oldest first.
        self._pending: List[list] = []
        self._fetch_pos = 0
        self._cycle = 0
        self._fetch_blocked_until = 0
        #: Per-cache-port busy-until cycle.  A port is held for the full
        #: duration of an L1 miss (one outstanding miss per port -- the
        #: limited non-blocking behaviour of mid-90s data caches), which is
        #: what makes data bandwidth a contended resource and gives
        #: save/restore elimination its bandwidth-relief benefit (section
        #: 5.3's sensitivity analysis).
        self._port_busy_until: List[int] = [0] * config.cache_ports
        #: Trace index of a fetched-but-unresolved mispredicted control
        #: transfer; fetch stalls while this is set.
        self._unresolved_mispredict: Optional[int] = None
        self._last_fetch_line = -1
        self._latency = config.latencies

    # ------------------------------------------------------------------

    def run(self, *, check_invariants: bool = False) -> PipelineStats:
        """Simulate to completion and return the statistics."""
        trace = self.trace
        pcs, _, _, flags, s_op, s_cls, _, _ = trace.hot_columns()
        replay = trace.replay_rows()
        total = len(pcs)
        end_pc = trace.end_pc

        # Static distance from each pc to its next control transfer
        # (0 at branches/jumps).  Fetch uses it to consume straight-line
        # runs in bulk: every non-control instruction falls through to
        # pc+1, so the rows of a run are consecutive and only its line
        # crossings and terminating control transfer need per-row work.
        n_static = len(s_cls)
        ctrl_dist = [0] * (n_static + 1)
        for static_pc in range(n_static - 1, -1, -1):
            code = s_cls[static_pc]
            if code != _CLS_BRANCH and code != _CLS_JUMP:
                ctrl_dist[static_pc] = ctrl_dist[static_pc + 1] + 1

        config = self.config
        commit_width = config.commit_width
        issue_width = config.issue_width
        decode_width = config.decode_width
        fetch_width = config.fetch_width
        window_size = config.window_size
        fetch_capacity = config.fetch_queue
        total_alus = config.int_alus
        total_muldivs = config.int_muldiv
        mispredict_penalty = config.mispredict_penalty
        l1_latency = config.hierarchy.l1_latency
        latency_of = [
            self._latency[OpClass(code)] for code in range(NUM_OP_CLASSES)
        ]
        store_latency = latency_of[_CLS_STORE]

        renamer = self.renamer
        arch_map = renamer.map
        ready_cycle = renamer.ready_cycle
        free_list = renamer.free_list
        free_pop = free_list.popleft
        free_append = free_list.append
        unmap = renamer.unmap

        hierarchy = self.hierarchy
        # The L1 hit paths are inlined below (one dict probe per access);
        # only L1 misses call into the L2.  Hit/miss/writeback counts are
        # kept in locals and folded into the Cache objects after the loop.
        l1d = hierarchy.l1d
        l1d_sets = l1d._sets
        l1d_shift = l1d._set_shift
        l1d_set_mask = l1d._set_mask
        l1d_assoc = l1d.geometry.assoc
        l1i = hierarchy.l1i
        l1i_sets = l1i._sets
        l1i_set_mask = l1i._set_mask
        l1i_assoc = l1i.geometry.assoc
        l2_access = hierarchy.l2.access
        l1_l2_latency = l1_latency + config.hierarchy.l2_latency
        l1_l2_mem_latency = l1_l2_latency + config.hierarchy.memory_latency
        line_shift = l1i._set_shift
        l1d_accesses = l1d_misses = l1d_writebacks = 0
        l1i_accesses = l1i_misses = l1i_writebacks = 0
        last_d_line = -1
        last_d_set: dict = {}
        last_d_dirty = False
        predict_and_update = self.predictor.predict_and_update
        btb_lookup = self.btb.lookup
        btb_insert = self.btb.insert
        ras_push = self.ras.push
        ras_pop = self.ras.pop

        ports = self._port_busy_until
        n_ports = len(ports)
        window = self._window
        window_append = window.append
        window_popleft = window.popleft
        pending = self._pending

        # Local aliases of the module-level constants (LOAD_FAST beats
        # LOAD_GLOBAL in the per-instruction loops below).
        NEVER_ = NEVER
        E_COMPLETE_ = E_COMPLETE
        E_SRC1_ = E_SRC1
        E_SRC2_ = E_SRC2
        E_DST_PHYS_ = E_DST_PHYS
        E_PREV_PHYS_ = E_PREV_PHYS
        E_FREES_ = E_FREES
        E_BLOCKS_ = E_BLOCKS
        E_CLS_ = E_CLS
        E_ADDR_ = E_ADDR
        CLS_IMUL = _CLS_IMUL
        CLS_IDIV = _CLS_IDIV
        CLS_LOAD = _CLS_LOAD
        CLS_STORE = _CLS_STORE
        CLS_BRANCH = _CLS_BRANCH
        CLS_JUMP = _CLS_JUMP
        OP_J = _OP_J
        OP_JAL = _OP_JAL
        OP_JALR = _OP_JALR
        F_FREES = FLAG_FREES
        F_TAKEN = FLAG_TAKEN
        # Droppable rows (kills / eliminated saves+restores) are exactly
        # those whose flags are not plain-program:
        F_DROP_MASK = FLAG_ELIMINATED | FLAG_PROGRAM
        F_PROGRAM = FLAG_PROGRAM

        dispatch_pos = self._dispatch_pos
        fetch_pos = self._fetch_pos
        cycle = self._cycle
        fetch_blocked_until = self._fetch_blocked_until
        # -1 = no unresolved mispredict (int sentinel keeps the hot
        # comparisons int-typed; the attribute keeps its None convention).
        unresolved = self._unresolved_mispredict
        if unresolved is None:
            unresolved = -1
        last_line = self._last_fetch_line

        free_len = len(free_list)
        win_len = len(window)

        # Counters, folded back into renamer/stats after the loop.
        committed = 0
        dispatched = 0
        eliminated = 0
        rename_stalls = 0
        window_stalls = 0
        control_insts = 0
        mispredicts = 0
        unmapped_reads = renamer.unmapped_reads
        allocations = renamer.allocations
        min_free = renamer.min_free

        while fetch_pos < total or dispatch_pos < fetch_pos or window:
            acted = False

            # ---- stage 1: commit -------------------------------------
            budget = commit_width
            while budget and window:
                entry = window[0]
                if entry[E_COMPLETE_] > cycle:  # NEVER while unissued
                    break
                window_popleft()
                win_len -= 1
                prev = entry[E_PREV_PHYS_]
                if prev >= 0:
                    free_append(prev)
                    free_len += 1
                frees = entry[E_FREES_]
                if frees:
                    for phys in frees:
                        free_append(phys)
                    free_len += len(frees)
                    renamer.pending_free -= len(frees)
                budget -= 1
                committed += 1
            if budget != commit_width:
                acted = True

            # ---- stage 2: issue + execute ----------------------------
            if pending:
                alus = total_alus
                muldivs = total_muldivs
                issued = 0
                kept: List[list] = []
                kept_append = kept.append
                scan = iter(pending)
                for entry in scan:
                    phys = entry[E_SRC1_]
                    if phys >= 0 and ready_cycle[phys] > cycle:
                        kept_append(entry)
                        continue
                    phys = entry[E_SRC2_]
                    if phys >= 0 and ready_cycle[phys] > cycle:
                        kept_append(entry)
                        continue
                    cls = entry[E_CLS_]
                    if cls == CLS_LOAD or cls == CLS_STORE:
                        if ports[0] <= cycle:
                            port = 0
                        else:
                            port = -1
                            port_index = 1
                            while port_index < n_ports:
                                if ports[port_index] <= cycle:
                                    port = port_index
                                    break
                                port_index += 1
                            if port < 0:
                                kept_append(entry)
                                continue
                        # D-cache access, L1 inlined (see Cache.access).
                        is_write = cls == CLS_STORE
                        line = entry[E_ADDR_] >> l1d_shift
                        l1d_accesses += 1
                        if line == last_d_line:
                            # Same line as the previous data access: it is
                            # already MRU, so the LRU reorder is a no-op.
                            if is_write and not last_d_dirty:
                                last_d_set[line] = True
                                last_d_dirty = True
                            latency = l1_latency
                        else:
                            cache_set = l1d_sets[line & l1d_set_mask]
                            if line in cache_set:
                                dirty = cache_set.pop(line) or is_write
                                cache_set[line] = dirty
                                latency = l1_latency
                            else:
                                l1d_misses += 1
                                if len(cache_set) >= l1d_assoc:
                                    victim = next(iter(cache_set))
                                    if cache_set.pop(victim):
                                        l1d_writebacks += 1
                                dirty = is_write
                                cache_set[line] = dirty
                                latency = (
                                    l1_l2_latency
                                    if l2_access(entry[E_ADDR_], write=is_write)
                                    else l1_l2_mem_latency
                                )
                            last_d_line = line
                            last_d_set = cache_set
                            last_d_dirty = dirty
                        if latency > l1_latency:
                            ports[port] = cycle + latency  # held until the fill
                        else:
                            ports[port] = cycle + 1
                        if is_write:
                            latency = store_latency
                    elif cls == CLS_IMUL or cls == CLS_IDIV:
                        if muldivs <= 0:
                            kept_append(entry)
                            continue
                        muldivs -= 1
                        latency = latency_of[cls]
                    else:
                        if alus <= 0:
                            kept_append(entry)
                            continue
                        alus -= 1
                        latency = latency_of[cls]
                    complete = cycle + latency
                    entry[E_COMPLETE_] = complete
                    dst_phys = entry[E_DST_PHYS_]
                    if dst_phys >= 0:
                        ready_cycle[dst_phys] = complete
                    if entry[E_BLOCKS_]:
                        fetch_blocked_until = complete + mispredict_penalty
                        unresolved = -1
                    issued += 1
                    if issued >= issue_width:
                        kept.extend(scan)  # C-speed drain of the rest
                        break
                pending = kept
                if issued:
                    acted = True

            # ---- stage 3: dispatch (decode + rename) -----------------
            n_dispatched = 0
            while dispatch_pos < fetch_pos:
                row = dispatch_pos
                pc, fl, dst, packed, cls, addr, free_mask = replay[row]
                if fl & F_DROP_MASK != F_PROGRAM:  # eliminated, or a kill
                    # Decoded, not dispatched.  Unmapping happens now
                    # (decode); the freed physical registers ride with the
                    # youngest in-flight instruction and return to the free
                    # list when it commits, i.e. when this annotation would
                    # have committed.
                    dispatch_pos += 1
                    if fl & F_FREES:
                        freed = unmap(free_mask)
                        if freed:
                            if window:
                                tail = window[-1]
                                if tail[E_FREES_] is None:
                                    tail[E_FREES_] = freed
                                else:
                                    tail[E_FREES_].extend(freed)
                            else:
                                # Nothing in flight: the kill commits now.
                                for phys in freed:
                                    free_append(phys)
                                free_len += len(freed)
                                renamer.pending_free -= len(freed)
                    if fl & F_PROGRAM:  # an eliminated program inst (not a kill)
                        eliminated += 1
                    acted = True
                    continue
                if n_dispatched >= decode_width:
                    break
                if win_len >= window_size:
                    window_stalls += 1
                    break
                if dst >= 0 and not free_len:
                    rename_stalls += 1
                    break
                dispatch_pos += 1
                # Sources resolve through the map table before the
                # destination renames (an instruction never depends on
                # itself).  Unmapped sources (-1) are ready immediately.
                if packed:
                    src1 = arch_map[(packed & 63) - 1]
                    if src1 < 0:
                        unmapped_reads += 1
                    second = packed >> 6
                    if second:
                        src2 = arch_map[second - 1]
                        if src2 < 0:
                            unmapped_reads += 1
                    else:
                        src2 = -1
                else:
                    src1 = -1
                    src2 = -1
                if fl & F_FREES:
                    # I-DVI at calls/returns: unmap now, free at this commit.
                    frees = unmap(free_mask) or None
                else:
                    frees = None
                if dst >= 0:
                    # renamer.allocate, inlined.
                    dst_phys = free_pop()
                    prev_phys = arch_map[dst]
                    arch_map[dst] = dst_phys
                    ready_cycle[dst_phys] = NEVER_
                    allocations += 1
                    free_len -= 1
                    if free_len < min_free:
                        min_free = free_len
                else:
                    dst_phys = -1
                    prev_phys = -1
                entry = [
                    NEVER_, src1, src2, dst_phys, prev_phys,
                    frees, unresolved == row, cls, addr,
                ]
                window_append(entry)
                win_len += 1
                pending.append(entry)
                n_dispatched += 1
                dispatched += 1
            if n_dispatched:
                acted = True

            # ---- stage 4: fetch --------------------------------------
            if cycle >= fetch_blocked_until and unresolved < 0:
                room = fetch_capacity - (fetch_pos - dispatch_pos)
                if room > fetch_width:
                    room = fetch_width
                stop = fetch_pos + room
                if stop > total:
                    stop = total
                fetch_start = fetch_pos
                while fetch_pos < stop:
                    pc = pcs[fetch_pos]
                    # Byte-address form: (pc << 2) >> shift equals the
                    # word-folded pc >> (shift - 2) for line sizes >= one
                    # word and stays correct for the sub-word lines
                    # CacheGeometry permits (where the folded shift would
                    # be negative).
                    line = (pc << 2) >> line_shift
                    if line != last_line:
                        # I-cache access, L1 inlined (see Cache.access).
                        last_line = line
                        cache_set = l1i_sets[line & l1i_set_mask]
                        l1i_accesses += 1
                        if line in cache_set:
                            cache_set[line] = cache_set.pop(line)
                        else:
                            l1i_misses += 1
                            if len(cache_set) >= l1i_assoc:
                                victim = next(iter(cache_set))
                                if cache_set.pop(victim):
                                    l1i_writebacks += 1
                            cache_set[line] = False
                            # Miss: the line arrives later; resume there.
                            fetch_blocked_until = cycle + (
                                l1_l2_latency
                                if l2_access(pc * 4)
                                else l1_l2_mem_latency
                            )
                            acted = True  # the I-cache state advanced
                            break
                    span = ctrl_dist[pc]
                    if span:
                        # Straight-line run: the next ``span`` rows fall
                        # through consecutive pcs, so only this line's
                        # slice of the run needs any bookkeeping at all —
                        # consume it in one step, stopping at the line
                        # crossing (re-probed above) or the fetch budget.
                        if line_shift >= 2:
                            to_line = (
                                ((line + 1) << line_shift) >> 2
                            ) - pc
                            if to_line < span:
                                span = to_line
                        else:
                            span = 1  # sub-word lines: every pc crosses
                        room = stop - fetch_pos
                        if room < span:
                            span = room
                        fetch_pos += span
                        continue
                    # Control transfer: predict it and train the
                    # predictors (kernel.c's mispredicted() ports this).
                    row = fetch_pos
                    fetch_pos += 1
                    control_insts += 1
                    taken = flags[row] & F_TAKEN
                    next_pc = pcs[fetch_pos] if fetch_pos < total else end_pc
                    if s_cls[pc] == CLS_BRANCH:
                        mispredicted = not predict_and_update(pc, taken)
                        if taken:
                            if (
                                not mispredicted
                                and btb_lookup(pc) != next_pc
                            ):
                                mispredicted = True
                            btb_insert(pc, next_pc)
                    else:
                        op = s_op[pc]
                        if op == OP_J:
                            mispredicted = False
                        elif op == OP_JAL:
                            ras_push(pc + 1)
                            mispredicted = False
                        elif op == OP_JALR:
                            ras_push(pc + 1)
                            predicted = btb_lookup(pc)
                            btb_insert(pc, next_pc)
                            mispredicted = predicted != next_pc
                        else:
                            # jr: predict through the return stack.
                            mispredicted = ras_pop() != next_pc
                    if mispredicted:
                        mispredicts += 1
                        unresolved = row
                        break
                    if taken:
                        break  # fetch discontinuity
                if fetch_pos != fetch_start:
                    acted = True

            if acted:
                cycle += 1
            else:
                # ---- idle-cycle fast-forward -------------------------
                # No stage changed any state this cycle, so none can act
                # before the earliest *scheduled* event: the window head
                # completing, the fetch redirect/I-miss fill arriving, or
                # a pending entry becoming operand-ready (plus a cache
                # port for memory ops).  Jumping the cycle counter to
                # that event is exact — the intermediate cycles would
                # replay this one verbatim — provided the per-cycle
                # dispatch stall counters account for the skipped
                # cycles below.
                target = NEVER_
                if window:
                    head_complete = window[0][E_COMPLETE_]
                    if head_complete < target:  # NEVER while unissued
                        target = head_complete
                if (
                    unresolved < 0
                    and fetch_pos < total
                    and cycle < fetch_blocked_until < target
                    and fetch_pos - dispatch_pos < fetch_capacity
                ):
                    target = fetch_blocked_until
                for entry in pending:
                    at = cycle + 1
                    phys = entry[E_SRC1_]
                    if phys >= 0 and ready_cycle[phys] > at:
                        at = ready_cycle[phys]
                    phys = entry[E_SRC2_]
                    if phys >= 0 and ready_cycle[phys] > at:
                        at = ready_cycle[phys]
                    if at >= target:
                        continue
                    cls = entry[E_CLS_]
                    if cls == CLS_LOAD or cls == CLS_STORE:
                        earliest_port = ports[0]
                        for port_index in range(1, n_ports):
                            if ports[port_index] < earliest_port:
                                earliest_port = ports[port_index]
                        if earliest_port > at:
                            at = earliest_port
                    if at < target:
                        target = at
                if cycle + 1 < target < NEVER_:
                    skipped = target - cycle - 1
                    if dispatch_pos < fetch_pos:
                        # Dispatch was (and stays) blocked during every
                        # skipped cycle; mirror its per-cycle counter.
                        if win_len >= window_size:
                            window_stalls += skipped
                        else:
                            rename_stalls += skipped
                    cycle = target
                else:
                    cycle += 1
            if check_invariants:
                in_flight = sum(
                    1 for entry in window if entry[E_PREV_PHYS_] >= 0
                )
                renamer.check_conservation(in_flight)

        # ---- fold the loop-local state back -------------------------
        self._pending = pending
        self._dispatch_pos = dispatch_pos
        self._fetch_pos = fetch_pos
        self._cycle = cycle
        self._fetch_blocked_until = fetch_blocked_until
        self._unresolved_mispredict = unresolved if unresolved >= 0 else None
        self._last_fetch_line = last_line
        renamer.unmapped_reads = unmapped_reads
        renamer.allocations = allocations
        renamer.min_free = min_free
        l1d.accesses += l1d_accesses
        l1d.misses += l1d_misses
        l1d.writebacks += l1d_writebacks
        l1i.accesses += l1i_accesses
        l1i.misses += l1i_misses
        l1i.writebacks += l1i_writebacks

        stats = self.stats
        stats.cycles = cycle
        program_insts = trace.program_insts
        stats.program_insts = program_insts
        stats.annotation_insts = total - program_insts
        stats.committed = committed
        stats.dispatched = dispatched
        stats.eliminated = eliminated
        stats.rename_stall_cycles = rename_stalls
        stats.window_full_stall_cycles = window_stalls
        stats.control_insts = control_insts
        stats.mispredicts = mispredicts
        stats.dcache_accesses = hierarchy.l1d.accesses
        stats.dcache_misses = hierarchy.l1d.misses
        stats.icache_accesses = hierarchy.l1i.accesses
        stats.icache_misses = hierarchy.l1i.misses
        stats.unmapped_reads = renamer.unmapped_reads
        stats.dvi_unmaps = renamer.dvi_unmaps
        stats.min_free_phys = renamer.min_free
        return stats


def simulate(config: MachineConfig, trace: Trace) -> PipelineStats:
    """Run one trace through one configuration.

    Runs the native kernel (:mod:`repro.sim.ooo.native`) whenever it
    loaded; otherwise this module's :class:`OutOfOrderCore`, the
    kernel's oracle, which gives identical statistics.  Invariant checks
    run on the oracle by name: ``OutOfOrderCore(config,
    trace).run(check_invariants=True)``.
    """
    stats = native.simulate(config, trace)
    if stats is not None:
        return stats
    return OutOfOrderCore(config, trace).run()
