/*
 * Native timing kernel: a C port of OutOfOrderCore.run (core.py).
 *
 * The Python loop in core.py is the oracle.  This file reproduces it
 * decision for decision, stage by stage (commit, issue, dispatch, fetch,
 * idle-cycle fast-forward), so every PipelineStats field comes out
 * identical; the golden grid and the differential tests hold both sides
 * to that.  Comments here only note where the C shape differs from the
 * Python one; the stage semantics are documented in core.py.
 *
 * Differences in shape, none in behaviour:
 *
 * - Fetch predicts each control row with C ports of the registered
 *   predictors (one PK_* kind each; native.py's PREDICTOR_KINDS names
 *   them), the BTB and the RAS.  Their 2-bit counters are stored xor 1,
 *   so calloc's zeroes read as the initial value 1 and a large table
 *   faults in only the pages a run touches.  The BTB and RAS are capped
 *   at what the trace can fill: a BTB set never holds more pcs than map
 *   to it, and the RAS never holds more returns than the trace has rows.
 * - Each cache set is an array of ways ordered oldest first, the order
 *   of the Python set dicts; a hit moves its way to the end.
 * - The window is a ring, and un-issued entries are slot numbers in an
 *   age-ordered pending array.
 * - DVI frees ride one FIFO instead of per-entry lists.  Frees always
 *   attach to the youngest in-flight entry and entries commit in order,
 *   so popping each committing entry's count off the FIFO front returns
 *   registers to the free list in the Python order.
 * - The sparse address and free-mask columns are read through two
 *   cursors that dispatch advances on every memory row and every freeing
 *   row, dropped rows included; the Python core reads them spread over
 *   the rows instead.
 *
 * The kernel keeps no global state (ctypes drops the GIL around the
 * call, so two threads may run it at once), and it checks every index
 * it will use before the loop starts: a bad trace row returns ST_BAD_TRACE
 * with the row number in results[0], and sparse columns whose lengths are
 * not the trace's memory-row and freeing-row counts return it with the
 * row count there, never an out-of-bounds access.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* repro.isa.opcodes.OpClass codes. */
enum {
    CLS_IALU, CLS_IMUL, CLS_IDIV, CLS_LOAD, CLS_STORE, CLS_BRANCH,
    CLS_JUMP, CLS_NOP, CLS_SYSCALL, N_CLASSES
};

/* repro.isa.opcodes.Opcode codes. */
enum {
    OP_ADD, OP_SUB, OP_MUL, OP_DIV, OP_REM, OP_AND, OP_OR, OP_XOR, OP_NOR,
    OP_SLL, OP_SRL, OP_SRA, OP_SLT, OP_SLTU,
    OP_ADDI, OP_ANDI, OP_ORI, OP_XORI, OP_SLLI, OP_SRLI, OP_SRAI, OP_SLTI,
    OP_LUI,
    OP_LW, OP_SW, OP_LB, OP_SB,
    OP_BEQ, OP_BNE, OP_BLT, OP_BGE, OP_BLEZ, OP_BGTZ,
    OP_J, OP_JAL, OP_JR, OP_JALR,
    OP_NOP, OP_HALT,
    OP_KILL, OP_LIVE_SW, OP_LIVE_LW, OP_LVM_SAVE, OP_LVM_LOAD,
    N_OPCODES
};

/* The predictors ported here; native.py's PREDICTOR_KINDS declares them. */
enum { PK_COMB, PK_BIMODAL, PK_GSHARE, PK_LOCAL, PK_STATIC_TAKEN, N_KINDS };

/* repro.sim.trace flag bits. */
#define F_TAKEN 1
#define F_ELIMINATED 2
#define F_PROGRAM 4
#define F_FREES 8

/* repro.sim.ooo.renamer.NEVER and the architectural register count. */
#define NEVER ((int64_t)1 << 60)
#define NUM_REGS 32

/* The parameter vector; native.py's PARAMS declares it. */
enum {
    P_FETCH_WIDTH, P_DECODE_WIDTH, P_ISSUE_WIDTH, P_COMMIT_WIDTH,
    P_WINDOW_SIZE, P_FETCH_QUEUE, P_INT_ALUS, P_INT_MULDIV,
    P_CACHE_PORTS, P_PHYS_REGS, P_MISPREDICT_PENALTY,
    P_L1_LATENCY, P_L2_LATENCY, P_MEMORY_LATENCY, P_LINE_SHIFT,
    P_L1I_SETS, P_L1I_ASSOC, P_L1D_SETS, P_L1D_ASSOC,
    P_L2_SETS, P_L2_ASSOC,
    P_PREDICTOR_KIND, P_BIMODAL_ENTRIES, P_GSHARE_ENTRIES,
    P_CHOOSER_ENTRIES, P_HISTORY_BITS, P_LOCAL_ENTRIES,
    P_LOCAL_HISTORY_BITS, P_BTB_SETS, P_BTB_ASSOC, P_RAS_DEPTH,
    /* One latency per op class, in CLS_* order. */
    P_LATENCY_IALU, P_LATENCY_IMUL, P_LATENCY_IDIV, P_LATENCY_LOAD,
    P_LATENCY_STORE, P_LATENCY_BRANCH, P_LATENCY_JUMP, P_LATENCY_NOP,
    P_LATENCY_SYSCALL,
    N_PARAMS
};

/* The result vector; native.py's RESULTS declares it. */
enum {
    R_CYCLES, R_PROGRAM_INSTS, R_COMMITTED, R_DISPATCHED, R_ELIMINATED,
    R_RENAME_STALL_CYCLES, R_WINDOW_FULL_STALL_CYCLES, R_CONTROL_INSTS,
    R_MISPREDICTS, R_DCACHE_ACCESSES, R_DCACHE_MISSES, R_ICACHE_ACCESSES,
    R_ICACHE_MISSES, R_UNMAPPED_READS, R_DVI_UNMAPS, R_MIN_FREE_PHYS,
    R_L1D_WRITEBACKS, R_L2_ACCESSES, R_L2_MISSES, R_L2_WRITEBACKS,
    N_RESULTS
};

/* The return codes; native.py's STATUSES declares them. */
enum { ST_OK, ST_BAD_TRACE, ST_NO_MEMORY, ST_BAD_PARAMS, N_STATUSES };

typedef struct {
    int64_t *tags;   /* sets x assoc lines, each set oldest first */
    uint8_t *dirty;
    int32_t *fill;   /* valid ways per set */
    int64_t set_mask;
    int64_t assoc;
    int64_t accesses, misses, writebacks;
} cache_t;

/* A ring of int32s: the free list and the pending frees (FIFOs of
 * physical registers), or the RAS. */
typedef struct {
    int32_t *slot;
    int64_t head, len, capacity;
} ring_t;

typedef struct {
    int64_t complete;  /* NEVER while un-issued */
    int64_t addr;      /* -1 unless a load or store */
    int32_t src1, src2, dst_phys, prev_phys;
    int32_t nfrees;    /* registers this entry pops off the frees FIFO */
    int8_t cls;
    int8_t blocks;     /* fetch stalls until this entry issues */
} entry_t;

static int cache_init(cache_t *c, int64_t sets, int64_t assoc)
{
    c->tags = malloc((size_t)(sets * assoc) * sizeof *c->tags);
    c->dirty = malloc((size_t)(sets * assoc));
    c->fill = calloc((size_t)sets, sizeof *c->fill);
    c->set_mask = sets - 1;
    c->assoc = assoc;
    c->accesses = c->misses = c->writebacks = 0;
    return c->tags && c->dirty && c->fill;
}

static void cache_free(cache_t *c)
{
    free(c->tags);
    free(c->dirty);
    free(c->fill);
}

/* Cache.access on a line address: 1 on a hit; a miss allocates. */
static int cache_access(cache_t *c, int64_t line, int write)
{
    int64_t set = line & c->set_mask;
    int64_t *tags = c->tags + set * c->assoc;
    uint8_t *dirty = c->dirty + set * c->assoc;
    int32_t n = c->fill[set];
    int32_t way;

    c->accesses++;
    for (way = n - 1; way >= 0; way--) {
        if (tags[way] == line) {
            uint8_t was_dirty = dirty[way] | (uint8_t)write;
            for (; way < n - 1; way++) {
                tags[way] = tags[way + 1];
                dirty[way] = dirty[way + 1];
            }
            tags[n - 1] = line;
            dirty[n - 1] = was_dirty;
            return 1;
        }
    }
    c->misses++;
    if (n >= c->assoc) {
        if (dirty[0])
            c->writebacks++;
        for (way = 0; way < n - 1; way++) {
            tags[way] = tags[way + 1];
            dirty[way] = dirty[way + 1];
        }
        n--;
    }
    tags[n] = line;
    dirty[n] = (uint8_t)write;
    c->fill[set] = n + 1;
    return 0;
}

static void ring_push(ring_t *ring, int32_t phys)
{
    int64_t at = ring->head + ring->len;
    if (at >= ring->capacity)
        at -= ring->capacity;
    ring->slot[at] = phys;
    ring->len++;
}

static int32_t ring_pop(ring_t *ring)
{
    int32_t phys = ring->slot[ring->head];
    if (++ring->head == ring->capacity)
        ring->head = 0;
    ring->len--;
    return phys;
}

/* Renamer.unmap: unbind the mask's mapped registers, in register order,
 * into `freed`; returns how many. */
static int32_t unmap(int32_t *arch_map, uint32_t mask, ring_t *freed)
{
    int32_t arch, count = 0;
    for (arch = 1; arch < NUM_REGS; arch++) {
        if ((mask >> arch & 1) && arch_map[arch] >= 0) {
            ring_push(freed, arch_map[arch]);
            arch_map[arch] = -1;
            count++;
        }
    }
    return count;
}

static int power_of_two(int64_t n)
{
    return n > 0 && (n & (n - 1)) == 0;
}

/* ---- branch prediction (repro.sim.branch) ------------------------------ */

/* A SaturatingCounterTable; each counter is stored xor 1, which keeps
 * bit 1, the taken bit. */
typedef struct {
    uint8_t *counter;
    uint64_t mask;
} counters_t;

/* The fetch stage's predictors: one direction predictor, the BTB and
 * the RAS. */
typedef struct {
    int64_t kind;
    counters_t bimodal, gshare, chooser, pattern;
    uint64_t history, history_mask;  /* gshare's global history */
    uint64_t *local, local_mask;     /* local's per-branch histories */
    int64_t *btb_tags, *btb_targets; /* sets x assoc, each set oldest first */
    int64_t *btb_fill;               /* valid ways per set */
    int64_t btb_set_mask, btb_assoc;
    ring_t ras;                      /* oldest at the head */
} predictors_t;

static int counters_init(counters_t *table, int64_t size)
{
    table->counter = calloc((size_t)size, 1);
    table->mask = (uint64_t)size - 1;
    return table->counter != NULL;
}

static int counter_taken(const counters_t *table, uint64_t index)
{
    return table->counter[index & table->mask] >= 2;
}

static void counter_train(counters_t *table, uint64_t index, int taken)
{
    uint8_t *stored = &table->counter[index & table->mask];
    int value = *stored ^ 1;
    if (taken) {
        if (value < 3)
            value++;
    } else if (value > 0) {
        value--;
    }
    *stored = (uint8_t)(value ^ 1);
}

/* Allocate the tables params' predictor kind reads (all zero: every
 * counter 1, every history empty); ST_BAD_PARAMS for a geometry it
 * cannot index. */
static int predictors_init(predictors_t *bp, const int64_t *params,
                           int64_t n_static, int64_t total)
{
    int64_t kind = params[P_PREDICTOR_KIND];
    int64_t history_bits = params[P_HISTORY_BITS];
    int64_t local_bits = params[P_LOCAL_HISTORY_BITS];
    int64_t sets = params[P_BTB_SETS], assoc = params[P_BTB_ASSOC];
    int64_t depth = params[P_RAS_DEPTH], per_set;
    int comb = kind == PK_COMB, ok = 1;

    bp->kind = kind;
    if (kind < 0 || kind >= N_KINDS || !power_of_two(sets) || assoc < 1
            || depth < 1
            || ((comb || kind == PK_BIMODAL)
                && !power_of_two(params[P_BIMODAL_ENTRIES]))
            || ((comb || kind == PK_GSHARE)
                && (!power_of_two(params[P_GSHARE_ENTRIES])
                    || history_bits < 1))
            || (comb && !power_of_two(params[P_CHOOSER_ENTRIES]))
            || (kind == PK_LOCAL
                && (!power_of_two(params[P_LOCAL_ENTRIES])
                    || local_bits < 1 || local_bits > 62)))
        return ST_BAD_PARAMS;
    if (comb || kind == PK_BIMODAL)
        ok &= counters_init(&bp->bimodal, params[P_BIMODAL_ENTRIES]);
    if (comb || kind == PK_GSHARE) {
        ok &= counters_init(&bp->gshare, params[P_GSHARE_ENTRIES]);
        bp->history_mask = history_bits >= 64
            ? UINT64_MAX : ((uint64_t)1 << history_bits) - 1;
    }
    if (comb)
        ok &= counters_init(&bp->chooser, params[P_CHOOSER_ENTRIES]);
    if (kind == PK_LOCAL) {
        bp->local = calloc((size_t)params[P_LOCAL_ENTRIES],
                           sizeof *bp->local);
        bp->local_mask = (uint64_t)params[P_LOCAL_ENTRIES] - 1;
        ok &= bp->local != NULL
            && counters_init(&bp->pattern, (int64_t)1 << local_bits);
    }
    /* The trace's pcs are below n_static: past the first power of two
     * above it, more sets only add empty ones, and a set never holds
     * more pcs than map to it.  The RAS never holds more entries than
     * the trace has rows. */
    while (sets > 1 && sets / 2 >= n_static)
        sets /= 2;
    per_set = (n_static + sets - 1) / sets;
    if (assoc > per_set)
        assoc = per_set > 1 ? per_set : 1;
    if (depth > total)
        depth = total > 1 ? total : 1;
    bp->btb_set_mask = sets - 1;
    bp->btb_assoc = assoc;
    bp->btb_tags = malloc((size_t)(sets * assoc) * sizeof *bp->btb_tags);
    bp->btb_targets = malloc((size_t)(sets * assoc)
                             * sizeof *bp->btb_targets);
    bp->btb_fill = calloc((size_t)sets, sizeof *bp->btb_fill);
    bp->ras.slot = malloc((size_t)depth * sizeof *bp->ras.slot);
    bp->ras.capacity = depth;
    return ok && bp->btb_tags && bp->btb_targets && bp->btb_fill
        && bp->ras.slot ? ST_OK : ST_NO_MEMORY;
}

static void predictors_free(predictors_t *bp)
{
    free(bp->bimodal.counter);
    free(bp->gshare.counter);
    free(bp->chooser.counter);
    free(bp->pattern.counter);
    free(bp->local);
    free(bp->btb_tags);
    free(bp->btb_targets);
    free(bp->btb_fill);
    free(bp->ras.slot);
}

/* predict_and_update: 1 if the direction predictor guessed `taken` for
 * the branch at `pc`; it trains on `taken` either way. */
static int direction_correct(predictors_t *bp, uint64_t pc, int taken)
{
    int guess, bimodal, gshare;
    uint64_t *local;
    switch (bp->kind) {
    case PK_COMB:
        bimodal = counter_taken(&bp->bimodal, pc);
        gshare = counter_taken(&bp->gshare, pc ^ bp->history);
        guess = counter_taken(&bp->chooser, pc) ? gshare : bimodal;
        if (bimodal != gshare)
            counter_train(&bp->chooser, pc, gshare == taken);
        counter_train(&bp->bimodal, pc, taken);
        counter_train(&bp->gshare, pc ^ bp->history, taken);
        bp->history = (bp->history << 1 | (uint64_t)taken)
            & bp->history_mask;
        break;
    case PK_BIMODAL:
        guess = counter_taken(&bp->bimodal, pc);
        counter_train(&bp->bimodal, pc, taken);
        break;
    case PK_GSHARE:
        guess = counter_taken(&bp->gshare, pc ^ bp->history);
        counter_train(&bp->gshare, pc ^ bp->history, taken);
        bp->history = (bp->history << 1 | (uint64_t)taken)
            & bp->history_mask;
        break;
    case PK_LOCAL:
        local = &bp->local[pc & bp->local_mask];
        guess = counter_taken(&bp->pattern, *local);
        counter_train(&bp->pattern, *local, taken);
        *local = (*local << 1 | (uint64_t)taken) & bp->pattern.mask;
        break;
    default:  /* PK_STATIC_TAKEN */
        guess = 1;
    }
    return guess == taken;
}

/* BranchTargetBuffer.lookup then .insert: 1 if the buffer held `target`
 * for `pc`; `pc` then maps to `target`, newest in its set. */
static int btb_update(predictors_t *bp, int64_t pc, int64_t target)
{
    int64_t set = pc & bp->btb_set_mask;
    int64_t *tags = bp->btb_tags + set * bp->btb_assoc;
    int64_t *targets = bp->btb_targets + set * bp->btb_assoc;
    int64_t n = bp->btb_fill[set], way;
    int hit;

    for (way = 0; way < n && tags[way] != pc; way++)
        ;
    hit = way < n && targets[way] == target;
    if (way == n) {
        if (n < bp->btb_assoc)
            bp->btb_fill[set] = ++n;
        else
            way = 0;  /* a full set drops its oldest way */
    }
    for (; way < n - 1; way++) {
        tags[way] = tags[way + 1];
        targets[way] = targets[way + 1];
    }
    tags[n - 1] = pc;
    targets[n - 1] = target;
    return hit;
}

/* ReturnAddressStack.push: a full stack drops its oldest entry. */
static void ras_push(ring_t *ras, int32_t return_pc)
{
    if (ras->len == ras->capacity)
        ring_pop(ras);
    ring_push(ras, return_pc);
}

/* ReturnAddressStack.pop: 1 if the newest entry is `target`; an empty
 * stack predicts nothing. */
static int ras_pop_matches(ring_t *ras, int64_t target)
{
    int64_t at;
    if (!ras->len)
        return 0;
    at = ras->head + --ras->len;
    if (at >= ras->capacity)
        at -= ras->capacity;
    return ras->slot[at] == target;
}

/* The fetch stage's prediction for the control row at `pc`, whose
 * successor is `next_pc`: 1 on a mispredict. */
static int mispredicted(predictors_t *bp, int cls, int op, int32_t pc,
                        int taken, int64_t next_pc)
{
    int miss;
    if (cls == CLS_BRANCH) {
        miss = !direction_correct(bp, (uint64_t)pc, taken);
        if (taken && !btb_update(bp, pc, next_pc))
            miss = 1;
        return miss;
    }
    switch (op) {
    case OP_J:
        return 0;
    case OP_JAL:
        ras_push(&bp->ras, pc + 1);
        return 0;
    case OP_JALR:
        ras_push(&bp->ras, pc + 1);
        return !btb_update(bp, pc, next_pc);
    default:  /* jr: predict through the return stack */
        return !ras_pop_matches(&bp->ras, next_pc);
    }
}

static int is_memory(int cls)
{
    return cls == CLS_LOAD || cls == CLS_STORE;
}

/* The row number of the first row using an out-of-range index, `total`
 * if the sparse columns do not hold one entry per memory row and per
 * freeing row, or -1. */
static int64_t first_bad_row(
    const int32_t *pcs, int64_t n_addrs, const uint32_t *free_masks,
    int64_t n_masks, const uint8_t *flags, int64_t total,
    const int8_t *s_cls, const int8_t *s_dst, const int16_t *s_srcs,
    int64_t n_static)
{
    int64_t row, memory_rows = 0, freeing_rows = 0;
    for (row = 0; row < total; row++) {
        int32_t pc = pcs[row];
        int cls, dst, packed, first, second;
        uint8_t fl = flags[row];
        if (pc < 0 || pc >= n_static)
            return row;
        cls = s_cls[pc];
        dst = s_dst[pc];
        packed = s_srcs[pc];
        if (cls < 0 || cls >= N_CLASSES || dst == 0 || dst >= NUM_REGS)
            return row;
        if (packed) {
            first = packed & 63;
            second = packed >> 6;
            if (first < 2 || first > NUM_REGS || second < 0 || second == 1
                    || second > NUM_REGS)
                return row;
        }
        if (fl & F_FREES) {
            /* Bit 0 is r0, which has no mapping to free. */
            if (freeing_rows < n_masks && (free_masks[freeing_rows] & 1))
                return row;
            freeing_rows++;
        }
        memory_rows += is_memory(cls);
        /* A dropped control row would never resolve its mispredict. */
        if ((cls == CLS_BRANCH || cls == CLS_JUMP)
                && (fl & (F_ELIMINATED | F_PROGRAM)) != F_PROGRAM)
            return row;
    }
    return memory_rows == n_addrs && freeing_rows == n_masks ? -1 : total;
}

int repro_ooo_run(
    const int64_t *params, int64_t n_params,
    const int32_t *pcs, const uint32_t *addrs, int64_t n_addrs,
    const uint32_t *free_masks, int64_t n_masks,
    const uint8_t *flags, int64_t total, int64_t end_pc,
    const int8_t *s_op, const int8_t *s_cls, const int8_t *s_dst,
    const int16_t *s_srcs, int64_t n_static,
    int64_t *results, int64_t n_results)
{
    int64_t fetch_width, decode_width, issue_width, commit_width;
    int64_t window_size, fetch_capacity, total_alus, total_muldivs;
    int64_t n_ports, phys_regs, mispredict_penalty;
    int64_t l1_latency, l1_l2_latency, l1_l2_mem_latency, store_latency;
    int line_shift;
    const int64_t *latency_of;

    int32_t *ctrl_dist = NULL, *pending = NULL;
    ring_t free_list = {0}, frees = {0};
    int64_t *ready = NULL, *ports = NULL;
    entry_t *window = NULL;
    cache_t l1i = {0}, l1d = {0}, l2 = {0};
    predictors_t bp = {0};
    int32_t arch_map[NUM_REGS];
    int status = ST_NO_MEMORY;

    int64_t dispatch_pos = 0, fetch_pos = 0, cycle = 0;
    int64_t addr_pos = 0, mask_pos = 0;  /* the sparse columns' cursors */
    int64_t fetch_blocked_until = 0, unresolved = -1, last_line = -1;
    int64_t win_head = 0, win_len = 0, n_pending = 0;
    int64_t committed = 0, dispatched = 0, eliminated = 0;
    int64_t rename_stalls = 0, window_stalls = 0;
    int64_t control_insts = 0, mispredicts = 0;
    int64_t unmapped_reads = 0, dvi_unmaps = 0, min_free;
    int64_t program_insts = 0, row, bad_row;
    int64_t i, pc;
    int taken;

    if (n_params != N_PARAMS || n_results != N_RESULTS)
        return ST_BAD_PARAMS;
    fetch_width = params[P_FETCH_WIDTH];
    decode_width = params[P_DECODE_WIDTH];
    issue_width = params[P_ISSUE_WIDTH];
    commit_width = params[P_COMMIT_WIDTH];
    window_size = params[P_WINDOW_SIZE];
    fetch_capacity = params[P_FETCH_QUEUE];
    total_alus = params[P_INT_ALUS];
    total_muldivs = params[P_INT_MULDIV];
    n_ports = params[P_CACHE_PORTS];
    phys_regs = params[P_PHYS_REGS];
    mispredict_penalty = params[P_MISPREDICT_PENALTY];
    l1_latency = params[P_L1_LATENCY];
    l1_l2_latency = l1_latency + params[P_L2_LATENCY];
    l1_l2_mem_latency = l1_l2_latency + params[P_MEMORY_LATENCY];
    line_shift = (int)params[P_LINE_SHIFT];
    latency_of = params + P_LATENCY_IALU;
    store_latency = latency_of[CLS_STORE];
    if (fetch_width < 1 || decode_width < 1 || issue_width < 1
            || commit_width < 1 || window_size < 1 || fetch_capacity < 1
            || n_ports < 1 || phys_regs < NUM_REGS || phys_regs > INT32_MAX
            || params[P_LINE_SHIFT] < 0 || params[P_LINE_SHIFT] > 32
            || !power_of_two(params[P_L1I_SETS])
            || !power_of_two(params[P_L1D_SETS])
            || !power_of_two(params[P_L2_SETS])
            || params[P_L1I_ASSOC] < 1 || params[P_L1D_ASSOC] < 1
            || params[P_L2_ASSOC] < 1 || n_static < 0
            || n_static > INT32_MAX || total < 0 || n_addrs < 0
            || n_masks < 0)
        return ST_BAD_PARAMS;

    status = predictors_init(&bp, params, n_static, total);
    if (status != ST_OK)
        goto done;
    bad_row = first_bad_row(pcs, n_addrs, free_masks, n_masks, flags,
                            total, s_cls, s_dst, s_srcs, n_static);
    if (bad_row >= 0) {
        results[0] = bad_row;
        status = ST_BAD_TRACE;
        goto done;
    }
    status = ST_NO_MEMORY;
    for (row = 0; row < total; row++)
        program_insts += (flags[row] & F_PROGRAM) != 0;

    ctrl_dist = malloc((size_t)(n_static + 1) * sizeof *ctrl_dist);
    window = malloc((size_t)window_size * sizeof *window);
    pending = malloc((size_t)window_size * sizeof *pending);
    free_list.slot = malloc((size_t)phys_regs * sizeof *free_list.slot);
    frees.slot = malloc((size_t)phys_regs * sizeof *frees.slot);
    free_list.capacity = frees.capacity = phys_regs;
    ready = calloc((size_t)phys_regs, sizeof *ready);
    ports = calloc((size_t)n_ports, sizeof *ports);
    if (!ctrl_dist || !window || !pending || !free_list.slot || !frees.slot
            || !ready || !ports
            || !cache_init(&l1i, params[P_L1I_SETS], params[P_L1I_ASSOC])
            || !cache_init(&l1d, params[P_L1D_SETS], params[P_L1D_ASSOC])
            || !cache_init(&l2, params[P_L2_SETS], params[P_L2_ASSOC]))
        goto done;

    ctrl_dist[n_static] = 0;
    for (pc = n_static - 1; pc >= 0; pc--) {
        int code = s_cls[pc];
        ctrl_dist[pc] = (code == CLS_BRANCH || code == CLS_JUMP)
            ? 0 : ctrl_dist[pc + 1] + 1;
    }
    /* Renamer start-up: r1-r31 map to p0-p30; the rest is free. */
    arch_map[0] = -1;
    for (i = 1; i < NUM_REGS; i++)
        arch_map[i] = (int32_t)(i - 1);
    for (i = NUM_REGS - 1; i < phys_regs; i++)
        ring_push(&free_list, (int32_t)i);
    min_free = free_list.len;

#define WIN_SLOT(k) \
    (win_head + (k) >= window_size ? win_head + (k) - window_size \
                                   : win_head + (k))

    while (fetch_pos < total || dispatch_pos < fetch_pos || win_len) {
        int acted = 0;
        int64_t budget, n_dispatched;

        /* ---- stage 1: commit ---------------------------------------- */
        budget = commit_width;
        while (budget && win_len) {
            entry_t *entry = &window[win_head];
            if (entry->complete > cycle)
                break;
            if (++win_head == window_size)
                win_head = 0;
            win_len--;
            if (entry->prev_phys >= 0)
                ring_push(&free_list, entry->prev_phys);
            for (i = 0; i < entry->nfrees; i++)
                ring_push(&free_list, ring_pop(&frees));
            budget--;
            committed++;
        }
        if (budget != commit_width)
            acted = 1;

        /* ---- stage 2: issue + execute ------------------------------- */
        if (n_pending) {
            int64_t alus = total_alus, muldivs = total_muldivs;
            int64_t issued = 0, kept = 0;
            for (i = 0; i < n_pending; i++) {
                int32_t slot = pending[i];
                entry_t *entry = &window[slot];
                int64_t latency, complete;
                int cls;
                if (entry->src1 >= 0 && ready[entry->src1] > cycle) {
                    pending[kept++] = slot;
                    continue;
                }
                if (entry->src2 >= 0 && ready[entry->src2] > cycle) {
                    pending[kept++] = slot;
                    continue;
                }
                cls = entry->cls;
                if (cls == CLS_LOAD || cls == CLS_STORE) {
                    int64_t port = -1, p;
                    int is_write = cls == CLS_STORE;
                    for (p = 0; p < n_ports; p++) {
                        if (ports[p] <= cycle) {
                            port = p;
                            break;
                        }
                    }
                    if (port < 0) {
                        pending[kept++] = slot;
                        continue;
                    }
                    if (cache_access(&l1d, entry->addr >> line_shift,
                                     is_write))
                        latency = l1_latency;
                    else if (cache_access(&l2, entry->addr >> line_shift,
                                          is_write))
                        latency = l1_l2_latency;
                    else
                        latency = l1_l2_mem_latency;
                    /* An L1 miss holds the port until the fill. */
                    ports[port] = cycle
                        + (latency > l1_latency ? latency : 1);
                    if (is_write)
                        latency = store_latency;
                } else if (cls == CLS_IMUL || cls == CLS_IDIV) {
                    if (muldivs <= 0) {
                        pending[kept++] = slot;
                        continue;
                    }
                    muldivs--;
                    latency = latency_of[cls];
                } else {
                    if (alus <= 0) {
                        pending[kept++] = slot;
                        continue;
                    }
                    alus--;
                    latency = latency_of[cls];
                }
                complete = cycle + latency;
                entry->complete = complete;
                if (entry->dst_phys >= 0)
                    ready[entry->dst_phys] = complete;
                if (entry->blocks) {
                    fetch_blocked_until = complete + mispredict_penalty;
                    unresolved = -1;
                }
                issued++;
                if (issued >= issue_width) {
                    memmove(pending + kept, pending + i + 1,
                            (size_t)(n_pending - i - 1) * sizeof *pending);
                    kept += n_pending - i - 1;
                    break;
                }
            }
            n_pending = kept;
            if (issued)
                acted = 1;
        }

        /* ---- stage 3: dispatch (decode + rename) -------------------- */
        n_dispatched = 0;
        while (dispatch_pos < fetch_pos) {
            int64_t r = dispatch_pos;
            uint8_t fl = flags[r];
            int32_t rpc = pcs[r];
            int dst = s_dst[rpc];
            int packed = s_srcs[rpc];
            int memory = is_memory(s_cls[rpc]);
            int32_t src1, src2, dst_phys, prev_phys, nfrees = 0;
            int64_t slot;
            entry_t *entry;

            if ((fl & (F_ELIMINATED | F_PROGRAM)) != F_PROGRAM) {
                /* A kill or an eliminated save/restore: decoded, not
                 * dispatched; its frees ride the youngest in-flight
                 * entry, or return at once when nothing is in flight. */
                dispatch_pos++;
                addr_pos += memory;
                if (fl & F_FREES) {
                    int32_t count = unmap(arch_map, free_masks[mask_pos++],
                                          win_len ? &frees : &free_list);
                    dvi_unmaps += count;
                    if (win_len)
                        window[WIN_SLOT(win_len - 1)].nfrees += count;
                }
                if (fl & F_PROGRAM)
                    eliminated++;
                acted = 1;
                continue;
            }
            if (n_dispatched >= decode_width)
                break;
            if (win_len >= window_size) {
                window_stalls++;
                break;
            }
            if (dst >= 0 && !free_list.len) {
                rename_stalls++;
                break;
            }
            dispatch_pos++;
            /* Sources resolve before unmap, unmap before the rename. */
            src1 = src2 = -1;
            if (packed) {
                src1 = arch_map[(packed & 63) - 1];
                if (src1 < 0)
                    unmapped_reads++;
                if (packed >> 6) {
                    src2 = arch_map[(packed >> 6) - 1];
                    if (src2 < 0)
                        unmapped_reads++;
                }
            }
            if (fl & F_FREES) {
                /* I-DVI at a call/return: unmap now, free at its commit. */
                nfrees = unmap(arch_map, free_masks[mask_pos++], &frees);
                dvi_unmaps += nfrees;
            }
            if (dst >= 0) {
                dst_phys = ring_pop(&free_list);
                prev_phys = arch_map[dst];
                arch_map[dst] = dst_phys;
                ready[dst_phys] = NEVER;
                if (free_list.len < min_free)
                    min_free = free_list.len;
            } else {
                dst_phys = -1;
                prev_phys = -1;
            }
            slot = WIN_SLOT(win_len);
            entry = &window[slot];
            entry->complete = NEVER;
            entry->addr = memory ? (int64_t)addrs[addr_pos++] : -1;
            entry->src1 = src1;
            entry->src2 = src2;
            entry->dst_phys = dst_phys;
            entry->prev_phys = prev_phys;
            entry->nfrees = nfrees;
            entry->cls = s_cls[rpc];
            entry->blocks = unresolved == r;
            win_len++;
            pending[n_pending++] = (int32_t)slot;
            n_dispatched++;
            dispatched++;
        }
        if (n_dispatched)
            acted = 1;

        /* ---- stage 4: fetch ----------------------------------------- */
        if (cycle >= fetch_blocked_until && unresolved < 0) {
            int64_t room = fetch_capacity - (fetch_pos - dispatch_pos);
            int64_t stop, fetch_start = fetch_pos;
            if (room > fetch_width)
                room = fetch_width;
            stop = fetch_pos + room;
            if (stop > total)
                stop = total;
            while (fetch_pos < stop) {
                int64_t fpc = pcs[fetch_pos];
                int64_t line = (fpc << 2) >> line_shift;
                int64_t span;
                if (line != last_line) {
                    last_line = line;
                    if (!cache_access(&l1i, line, 0)) {
                        /* Miss: the line arrives later; resume there. */
                        fetch_blocked_until = cycle
                            + (cache_access(&l2, (fpc * 4) >> line_shift, 0)
                               ? l1_l2_latency : l1_l2_mem_latency);
                        acted = 1;
                        break;
                    }
                }
                span = ctrl_dist[fpc];
                if (span) {
                    /* A straight-line run: consume this line's slice. */
                    if (line_shift >= 2) {
                        int64_t to_line =
                            (((line + 1) << line_shift) >> 2) - fpc;
                        if (to_line < span)
                            span = to_line;
                    } else {
                        span = 1;
                    }
                    if (stop - fetch_pos < span)
                        span = stop - fetch_pos;
                    fetch_pos += span;
                    continue;
                }
                /* A control transfer: predict it. */
                row = fetch_pos++;
                control_insts++;
                taken = flags[row] & F_TAKEN;
                if (mispredicted(&bp, s_cls[fpc], s_op[fpc], (int32_t)fpc,
                                 taken,
                                 fetch_pos < total ? pcs[fetch_pos] : end_pc)) {
                    mispredicts++;
                    unresolved = row;
                    break;
                }
                if (taken)
                    break;
            }
            if (fetch_pos != fetch_start)
                acted = 1;
        }

        if (acted) {
            cycle++;
        } else {
            /* ---- idle-cycle fast-forward ---------------------------- */
            int64_t target = NEVER;
            if (win_len && window[win_head].complete < target)
                target = window[win_head].complete;
            if (unresolved < 0 && fetch_pos < total
                    && cycle < fetch_blocked_until
                    && fetch_blocked_until < target
                    && fetch_pos - dispatch_pos < fetch_capacity)
                target = fetch_blocked_until;
            for (i = 0; i < n_pending; i++) {
                const entry_t *entry = &window[pending[i]];
                int64_t at = cycle + 1;
                if (entry->src1 >= 0 && ready[entry->src1] > at)
                    at = ready[entry->src1];
                if (entry->src2 >= 0 && ready[entry->src2] > at)
                    at = ready[entry->src2];
                if (at >= target)
                    continue;
                if (entry->cls == CLS_LOAD || entry->cls == CLS_STORE) {
                    int64_t earliest = ports[0], p;
                    for (p = 1; p < n_ports; p++)
                        if (ports[p] < earliest)
                            earliest = ports[p];
                    if (earliest > at)
                        at = earliest;
                }
                if (at < target)
                    target = at;
            }
            if (cycle + 1 < target && target < NEVER) {
                int64_t skipped = target - cycle - 1;
                if (dispatch_pos < fetch_pos) {
                    if (win_len >= window_size)
                        window_stalls += skipped;
                    else
                        rename_stalls += skipped;
                }
                cycle = target;
            } else {
                cycle++;
            }
        }
    }
#undef WIN_SLOT

    results[R_CYCLES] = cycle;
    results[R_PROGRAM_INSTS] = program_insts;
    results[R_COMMITTED] = committed;
    results[R_DISPATCHED] = dispatched;
    results[R_ELIMINATED] = eliminated;
    results[R_RENAME_STALL_CYCLES] = rename_stalls;
    results[R_WINDOW_FULL_STALL_CYCLES] = window_stalls;
    results[R_CONTROL_INSTS] = control_insts;
    results[R_MISPREDICTS] = mispredicts;
    results[R_DCACHE_ACCESSES] = l1d.accesses;
    results[R_DCACHE_MISSES] = l1d.misses;
    results[R_ICACHE_ACCESSES] = l1i.accesses;
    results[R_ICACHE_MISSES] = l1i.misses;
    results[R_UNMAPPED_READS] = unmapped_reads;
    results[R_DVI_UNMAPS] = dvi_unmaps;
    results[R_MIN_FREE_PHYS] = min_free;
    results[R_L1D_WRITEBACKS] = l1d.writebacks;
    results[R_L2_ACCESSES] = l2.accesses;
    results[R_L2_MISSES] = l2.misses;
    results[R_L2_WRITEBACKS] = l2.writebacks;
    status = ST_OK;

done:
    free(ctrl_dist);
    free(window);
    free(pending);
    free(free_list.slot);
    free(frees.slot);
    free(ready);
    free(ports);
    cache_free(&l1i);
    cache_free(&l1d);
    cache_free(&l2);
    predictors_free(&bp);
    return status;
}
