/*
 * Native functional engine: a C port of FunctionalSimulator.execute
 * (functional.py) and of the DVI engine it drives (repro.dvi).
 *
 * The per-pc Python engine is the byte-level oracle: every run here must
 * produce the registers, the memory dict (keys in insertion order), the
 * per-pc counts, the live-register histogram (in first-seen order) and
 * the four dynamic trace columns that engine produces (addresses only on
 * LOAD/STORE-class rows, masks only on freeing rows), and fail with the
 * same fault at the same point.  Comments here note where the C shape
 * differs from the Python one; the semantics are documented there and
 * in repro.dvi.
 *
 * The engine is resumable.  A handle (repro_fe_new) owns the decoded
 * program, the word memory, the LVM-Stack and the trace buffers.  The
 * registers, the per-pc counts, the histogram and the state vector (pc,
 * seq, LVM, halted, ...) are Python-owned arrays that each
 * repro_fe_execute call reads and writes, so a scheduler can edit the
 * registers and the LVM between quanta.  There is no global state, and
 * ctypes drops the GIL around every call, so threads may run separate
 * handles at once.
 *
 * Every input is checked before it is used: repro_fe_new rejects an
 * opcode or register out of range, a data word outside the 32-bit space
 * and a malformed configuration; repro_fe_execute rejects vectors of the
 * wrong length and a state it could not have produced.  Both return
 * ST_BAD_ARGUMENTS, never an out-of-bounds access.  A run-time fault
 * returns its own status with the pc and the address in the state.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

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

/* repro.sim.trace flag bits. */
#define F_TAKEN 1
#define F_ELIMINATED 2
#define F_PROGRAM 4
#define F_FREES 8

#define NUM_REGS 32
#define RA 31
#define ALL_LIVE 0xFFFFFFFFu
/* Live-register counts run 0..32. */
#define HIST_SLOTS (NUM_REGS + 1)
/* Word indices of the 32-bit byte address space. */
#define MAX_WORD ((int64_t)1 << 30)
/* Code sizes whose return addresses fit a 32-bit register. */
#define MAX_INSTS ((int64_t)1 << 28)

/* One instruction in the code vector; functional_native.py packs it. */
enum {
    I_OP, I_RD, I_RS1, I_RS2, I_IMM, I_TARGET, I_KILL_MASK, I_DEF_MASK,
    N_FIELDS
};

/* The configuration vector; functional_native.py builds it. */
enum {
    CFG_COLLECT_TRACE, CFG_COLLECT_LIVE_HIST, CFG_USE_IDVI, CFG_USE_EDVI,
    CFG_SCHEME, CFG_STACK_DEPTH, CFG_CALL_MASK, CFG_RETURN_MASK,
    CFG_CALLEE_SAVED, CFG_SAVEABLE,
    N_CONFIG
};

/* The state vector, read and written by every repro_fe_execute call. */
enum {
    S_PC, S_SEQ, S_LVM, S_HALTED, S_SAVES_ELIMINATED, S_RESTORES_ELIMINATED,
    S_HIST_SEEN, S_FAULT_PC, S_FAULT_ADDR,
    N_STATE
};

/* repro.dvi.config.SRScheme, in functional_native.py's order. */
enum { SCHEME_NONE, SCHEME_LVM, SCHEME_LVM_STACK };

enum {
    ST_OK, ST_NO_MEMORY, ST_BAD_ARGUMENTS, ST_PC_OUT_OF_RANGE,
    ST_UNALIGNED_LW, ST_UNALIGNED_SW, ST_UNALIGNED_LIVE_LW,
    ST_UNALIGNED_LIVE_SW, ST_UNALIGNED_JALR, ST_UNALIGNED_JR,
    N_STATUSES
};

typedef struct {
    int64_t imm;      /* the operand the Python handler binds */
    int64_t target;   /* -1 when the target is not linked */
    uint32_t kill;    /* kill mask, low 32 bits */
    uint32_t dbit;    /* LVM bit of the destination, 0 if none */
    uint8_t op, rd, rs1, rs2;
    uint8_t wd;       /* register written: rd, or the sink 32 for r0 */
} inst_t;

/* Sparse word memory: an insertion-ordered entry list (the order of the
 * Python dict) behind an open-addressing index. */
typedef struct {
    int64_t *keys;
    uint32_t *values;
    int64_t len, cap;
    int64_t *index;   /* entry number + 1, 0 when empty */
    int64_t index_mask;
} memory_t;

/* The circular LVM-Stack, oldest snapshot at head.  `depth` 0 means
 * unbounded.  The slots grow on demand, so a large depth costs nothing
 * until it fills.  LVMStack's lost-below count changes no result (a pop
 * of an empty stack answers all-live either way), so it is not kept. */
typedef struct {
    uint32_t *slot;
    int64_t head, len, cap, depth;
} lvm_stack_t;

/* A sparse trace column: one entry per memory row, or per freeing row. */
typedef struct {
    uint32_t *slot;
    int64_t len, cap;
} sparse_t;

/* The trace columns: pcs and flags hold a row each. */
typedef struct {
    int32_t *pcs;
    uint8_t *flags;
    int64_t len, cap;
    sparse_t addrs, free_masks;
} rows_t;

typedef struct {
    inst_t *code;
    int64_t n;
    int64_t config[N_CONFIG];
    memory_t mem;
    lvm_stack_t stack;
    rows_t rows;
} engine_t;

/* ---------------------------------------------------------------- */

static int64_t *mem_find(memory_t *m, int64_t key)
{
    uint64_t at = ((uint64_t)key * 0x9E3779B97F4A7C15u) >> 20;
    for (;; at++) {
        int64_t *slot = &m->index[at & m->index_mask];
        if (!*slot || m->keys[*slot - 1] == key)
            return slot;
    }
}

static int mem_reindex(memory_t *m, int64_t slots)
{
    int64_t i, *index = calloc((size_t)slots, sizeof *index);
    if (!index)
        return 0;
    free(m->index);
    m->index = index;
    m->index_mask = slots - 1;
    for (i = 0; i < m->len; i++)
        *mem_find(m, m->keys[i]) = i + 1;
    return 1;
}

static uint32_t mem_get(memory_t *m, int64_t key)
{
    int64_t slot = *mem_find(m, key);
    return slot ? m->values[slot - 1] : 0;
}

/* The value slot of `key`, appended as 0 when absent; NULL when out of
 * memory, with the memory unchanged. */
static uint32_t *mem_ref(memory_t *m, int64_t key)
{
    int64_t *slot = mem_find(m, key);
    if (*slot)
        return &m->values[*slot - 1];
    if (2 * (m->len + 1) > m->index_mask + 1) {
        if (!mem_reindex(m, 2 * (m->index_mask + 1)))
            return NULL;
        slot = mem_find(m, key);
    }
    if (m->len == m->cap) {
        int64_t cap = m->cap ? 2 * m->cap : 64;
        int64_t *keys = realloc(m->keys, (size_t)cap * sizeof *keys);
        uint32_t *values;
        if (!keys)
            return NULL;
        m->keys = keys;
        values = realloc(m->values, (size_t)cap * sizeof *values);
        if (!values)
            return NULL;
        m->values = values;
        m->cap = cap;
    }
    m->keys[m->len] = key;
    m->values[m->len] = 0;
    *slot = ++m->len;
    return &m->values[m->len - 1];
}

/* LVMStack.push: a full bounded stack loses its oldest snapshot. */
static int stack_push(lvm_stack_t *s, uint32_t mask)
{
    int64_t at;
    if (s->depth && s->len == s->depth) {
        if (++s->head == s->cap)
            s->head = 0;
        s->len--;
    }
    if (s->len == s->cap) {
        int64_t cap = s->cap ? 2 * s->cap : 16, i;
        uint32_t *slot;
        if (s->depth && cap > s->depth)
            cap = s->depth;
        slot = malloc((size_t)cap * sizeof *slot);
        if (!slot)
            return 0;
        for (i = 0; i < s->len; i++)
            slot[i] = s->slot[(s->head + i) % s->cap];
        free(s->slot);
        s->slot = slot;
        s->head = 0;
        s->cap = cap;
    }
    at = s->head + s->len;
    if (at >= s->cap)
        at -= s->cap;
    s->slot[at] = mask;
    s->len++;
    return 1;
}

/* LVMStack.top: all live when no snapshot is held. */
static uint32_t stack_top(const lvm_stack_t *s)
{
    int64_t at;
    if (!s->len)
        return ALL_LIVE;
    at = s->head + s->len - 1;
    return s->slot[at >= s->cap ? at - s->cap : at];
}

/* LVMStack.pop: all live on underflow. */
static uint32_t stack_pop(lvm_stack_t *s)
{
    uint32_t mask = stack_top(s);
    if (s->len)
        s->len--;
    return mask;
}

static int rows_grow(rows_t *r)
{
    int64_t cap = r->cap ? 2 * r->cap : 4096;
    int32_t *pcs;
    uint8_t *flags;
    if (!(pcs = realloc(r->pcs, (size_t)cap * sizeof *pcs)))
        return 0;
    r->pcs = pcs;
    if (!(flags = realloc(r->flags, (size_t)cap)))
        return 0;
    r->flags = flags;
    r->cap = cap;
    return 1;
}

/* Room for one more entry in a sparse column. */
static int sparse_reserve(sparse_t *column)
{
    int64_t cap = column->cap ? 2 * column->cap : 1024;
    uint32_t *slot;
    if (column->len < column->cap)
        return 1;
    if (!(slot = realloc(column->slot, (size_t)cap * sizeof *slot)))
        return 0;
    column->slot = slot;
    column->cap = cap;
    return 1;
}

void repro_fe_free(engine_t *e)
{
    if (!e)
        return;
    free(e->code);
    free(e->mem.keys);
    free(e->mem.values);
    free(e->mem.index);
    free(e->stack.slot);
    free(e->rows.pcs);
    free(e->rows.flags);
    free(e->rows.addrs.slot);
    free(e->rows.free_masks.slot);
    free(e);
}

/* The operand FunctionalSimulator's handler for `op` binds. */
static int64_t bound_imm(int op, int64_t imm)
{
    switch (op) {
    case OP_ANDI: case OP_ORI: case OP_XORI:
        return imm & 0xFFFF;
    case OP_SLLI: case OP_SRLI: case OP_SRAI:
        return imm & 31;
    case OP_LUI:
        return (int64_t)(uint32_t)((uint64_t)imm << 16);
    default:
        return imm;
    }
}

/* A handle for one run of `n` instructions, or NULL with `*status` set.
 * `data` holds `n_data` (word index, value) pairs in insertion order. */
engine_t *repro_fe_new(
    const int64_t *config, int64_t n_config,
    const int64_t *code, int64_t n, int64_t n_fields,
    const int64_t *data, int64_t n_data, int64_t *status)
{
    engine_t *e;
    int64_t i, slots;

    *status = ST_BAD_ARGUMENTS;
    if (n_config != N_CONFIG || n_fields != N_FIELDS || n < 0
            || n > MAX_INSTS || n_data < 0 || n_data > MAX_WORD)
        return NULL;
    for (i = 0; i < N_CONFIG; i++)
        if (config[i] < 0 || config[i] > (int64_t)ALL_LIVE)
            return NULL;
    if (config[CFG_SCHEME] > SCHEME_LVM_STACK)
        return NULL;
    for (i = 0; i < n; i++) {
        const int64_t *f = code + i * N_FIELDS;
        if (f[I_OP] < 0 || f[I_OP] >= N_OPCODES
                || f[I_RD] < 0 || f[I_RD] >= NUM_REGS
                || f[I_RS1] < 0 || f[I_RS1] >= NUM_REGS
                || f[I_RS2] < 0 || f[I_RS2] >= NUM_REGS
                || f[I_KILL_MASK] < 0 || f[I_KILL_MASK] > (int64_t)ALL_LIVE
                || f[I_DEF_MASK] < 0 || f[I_DEF_MASK] > (int64_t)ALL_LIVE)
            return NULL;
    }
    for (i = 0; i < n_data; i++)
        if (data[2 * i] < 0 || data[2 * i] >= MAX_WORD)
            return NULL;

    *status = ST_NO_MEMORY;
    e = calloc(1, sizeof *e);
    if (!e)
        return NULL;
    e->code = malloc((size_t)(n ? n : 1) * sizeof *e->code);
    if (!e->code) {
        repro_fe_free(e);
        return NULL;
    }
    e->n = n;
    memcpy(e->config, config, sizeof e->config);
    e->stack.depth = config[CFG_STACK_DEPTH];
    for (i = 0; i < n; i++) {
        const int64_t *f = code + i * N_FIELDS;
        inst_t *in = &e->code[i];
        in->op = (uint8_t)f[I_OP];
        in->rd = (uint8_t)f[I_RD];
        in->rs1 = (uint8_t)f[I_RS1];
        in->rs2 = (uint8_t)f[I_RS2];
        in->wd = in->rd ? in->rd : NUM_REGS;
        in->imm = bound_imm(in->op, f[I_IMM]);
        in->target = f[I_TARGET];
        in->kill = (uint32_t)f[I_KILL_MASK];
        in->dbit = (uint32_t)f[I_DEF_MASK];
    }
    for (slots = 64; slots < 4 * n_data; slots *= 2)
        ;
    if (!mem_reindex(&e->mem, slots)) {
        repro_fe_free(e);
        return NULL;
    }
    for (i = 0; i < n_data; i++) {
        uint32_t *value = mem_ref(&e->mem, data[2 * i]);
        if (!value) {
            repro_fe_free(e);
            return NULL;
        }
        *value = (uint32_t)data[2 * i + 1];
    }
    *status = ST_OK;
    return e;
}

static int32_t s32(uint32_t v)
{
    return (int32_t)(v & 0x80000000u ? (int64_t)v - 0x100000000LL : (int64_t)v);
}

/* Run up to `budget` instructions from the state vector's pc. */
int repro_fe_execute(
    engine_t *e, int64_t budget,
    uint32_t *regs, int64_t n_regs, int64_t *counts, int64_t n_counts,
    int64_t *hist, int64_t *hist_order, int64_t n_hist,
    int64_t *state, int64_t n_state)
{
    const inst_t *code;
    memory_t *mem;
    lvm_stack_t *stack;
    rows_t *rows;
    uint32_t R[NUM_REGS + 1];  /* R[32] is the sink for writes to r0 */
    uint32_t lvm, call_mask, return_mask, callee_saved, saveable;
    int64_t pc, seq, end_seq, n, saves_elim, restores_elim, seen;
    int collect_trace, collect_hist, use_idvi, use_edvi, scheme;
    int completed = 0;

    if (!e || n_regs != NUM_REGS || n_counts != e->n
            || n_hist != HIST_SLOTS || n_state != N_STATE || budget < 0
            || state[S_PC] < 0 || state[S_SEQ] < 0
            || state[S_SEQ] > INT64_MAX - budget
            || state[S_HIST_SEEN] < 0 || state[S_HIST_SEEN] > HIST_SLOTS)
        return ST_BAD_ARGUMENTS;
    if (state[S_HALTED])
        return ST_OK;

    code = e->code;
    mem = &e->mem;
    stack = &e->stack;
    rows = &e->rows;
    n = e->n;
    collect_trace = (int)e->config[CFG_COLLECT_TRACE];
    collect_hist = (int)e->config[CFG_COLLECT_LIVE_HIST];
    use_idvi = (int)e->config[CFG_USE_IDVI];
    use_edvi = (int)e->config[CFG_USE_EDVI];
    scheme = (int)e->config[CFG_SCHEME];
    call_mask = (uint32_t)e->config[CFG_CALL_MASK];
    return_mask = (uint32_t)e->config[CFG_RETURN_MASK];
    callee_saved = (uint32_t)e->config[CFG_CALLEE_SAVED];
    saveable = (uint32_t)e->config[CFG_SAVEABLE];

    memcpy(R, regs, NUM_REGS * sizeof *R);
    pc = state[S_PC];
    seq = state[S_SEQ];
    end_seq = seq + budget;
    lvm = (uint32_t)state[S_LVM];
    saves_elim = state[S_SAVES_ELIMINATED];
    restores_elim = state[S_RESTORES_ELIMINATED];
    seen = state[S_HIST_SEEN];

#define FAULT(code_, addr_) \
    do { state[S_FAULT_PC] = pc; state[S_FAULT_ADDR] = (addr_); \
         return (code_); } while (0)

    while (seq < end_seq) {
        const inst_t *in;
        int64_t next, addr = -1;
        uint32_t free_mask = 0, a, b;
        uint8_t fl = F_PROGRAM;

        if (pc >= n) {
            if (pc == n) {
                completed = 1;
                break;
            }
            FAULT(ST_PC_OUT_OF_RANGE, -1);
        }
        in = &code[pc];
        next = pc + 1;
        a = R[in->rs1];
        b = R[in->rs2];
        switch (in->op) {
        /* --- register-register ALU ------------------------------------ */
        case OP_ADD: R[in->wd] = a + b; break;
        case OP_SUB: R[in->wd] = a - b; break;
        case OP_MUL: R[in->wd] = (uint32_t)((int64_t)s32(a) * s32(b)); break;
        case OP_DIV:
            R[in->wd] = s32(b) ? (uint32_t)((int64_t)s32(a) / s32(b)) : 0;
            break;
        case OP_REM:
            R[in->wd] = s32(b) ? (uint32_t)((int64_t)s32(a) % s32(b)) : a;
            break;
        case OP_AND: R[in->wd] = a & b; break;
        case OP_OR: R[in->wd] = a | b; break;
        case OP_XOR: R[in->wd] = a ^ b; break;
        case OP_NOR: R[in->wd] = ~(a | b); break;
        case OP_SLL: R[in->wd] = a << (b & 31); break;
        case OP_SRL: R[in->wd] = a >> (b & 31); break;
        case OP_SRA:
            R[in->wd] = a & 0x80000000u ? ~(~a >> (b & 31)) : a >> (b & 31);
            break;
        case OP_SLT: R[in->wd] = s32(a) < s32(b); break;
        case OP_SLTU: R[in->wd] = a < b; break;
        /* --- register-immediate ALU ----------------------------------- */
        case OP_ADDI: R[in->wd] = (uint32_t)(a + (uint64_t)in->imm); break;
        case OP_ANDI: R[in->wd] = a & (uint32_t)in->imm; break;
        case OP_ORI: R[in->wd] = a | (uint32_t)in->imm; break;
        case OP_XORI: R[in->wd] = a ^ (uint32_t)in->imm; break;
        case OP_SLLI: R[in->wd] = a << in->imm; break;
        case OP_SRLI: R[in->wd] = a >> in->imm; break;
        case OP_SRAI:
            R[in->wd] = a & 0x80000000u ? ~(~a >> in->imm) : a >> in->imm;
            break;
        case OP_SLTI: R[in->wd] = s32(a) < in->imm; break;
        case OP_LUI: R[in->wd] = (uint32_t)in->imm; break;
        /* --- memory --------------------------------------------------- */
        case OP_LW:
            addr = (uint32_t)(a + (uint64_t)in->imm);
            if (addr & 3)
                FAULT(ST_UNALIGNED_LW, addr);
            R[in->wd] = mem_get(mem, addr >> 2);
            break;
        case OP_SW: {
            uint32_t *word;
            addr = (uint32_t)(a + (uint64_t)in->imm);
            if (addr & 3)
                FAULT(ST_UNALIGNED_SW, addr);
            if (!(word = mem_ref(mem, addr >> 2)))
                return ST_NO_MEMORY;
            *word = b;
            break;
        }
        case OP_LB: {
            uint32_t byte;
            addr = (uint32_t)(a + (uint64_t)in->imm);
            byte = mem_get(mem, addr >> 2) >> (8 * (addr & 3)) & 0xFF;
            R[in->wd] = byte & 0x80 ? byte | 0xFFFFFF00u : byte;
            break;
        }
        case OP_SB: {
            uint32_t *word;
            int shift;
            addr = (uint32_t)(a + (uint64_t)in->imm);
            shift = 8 * (int)(addr & 3);
            if (!(word = mem_ref(mem, addr >> 2)))
                return ST_NO_MEMORY;
            *word = (*word & ~(0xFFu << shift)) | (b & 0xFF) << shift;
            break;
        }
        case OP_LIVE_LW:
            addr = (uint32_t)(a + (uint64_t)in->imm);
            if (addr & 3)
                FAULT(ST_UNALIGNED_LIVE_LW, addr);
            /* DVIEngine.on_restore: the snapshot at the stack top. */
            if (scheme == SCHEME_LVM_STACK
                    && !(stack_top(stack) >> in->rd & 1)) {
                restores_elim++;
                fl = F_PROGRAM | F_ELIMINATED;
            } else {
                R[in->wd] = mem_get(mem, addr >> 2);
            }
            break;
        case OP_LIVE_SW:
            addr = (uint32_t)(a + (uint64_t)in->imm);
            if (addr & 3)
                FAULT(ST_UNALIGNED_LIVE_SW, addr);
            /* DVIEngine.on_save: the current LVM. */
            if (scheme != SCHEME_NONE && !(lvm >> in->rs2 & 1)) {
                saves_elim++;
                fl = F_PROGRAM | F_ELIMINATED;
            } else {
                uint32_t *word = mem_ref(mem, addr >> 2);
                if (!word)
                    return ST_NO_MEMORY;
                *word = b;
            }
            break;
        /* --- control -------------------------------------------------- */
        case OP_BEQ:
            if (a == b) { next = in->target; fl |= F_TAKEN; }
            break;
        case OP_BNE:
            if (a != b) { next = in->target; fl |= F_TAKEN; }
            break;
        case OP_BLT:
            if (s32(a) < s32(b)) { next = in->target; fl |= F_TAKEN; }
            break;
        case OP_BGE:
            if (s32(a) >= s32(b)) { next = in->target; fl |= F_TAKEN; }
            break;
        case OP_BLEZ:
            if (s32(a) <= 0) { next = in->target; fl |= F_TAKEN; }
            break;
        case OP_BGTZ:
            if (s32(a) > 0) { next = in->target; fl |= F_TAKEN; }
            break;
        case OP_J:
            next = in->target;
            fl |= F_TAKEN;
            break;
        case OP_JAL:
        case OP_JALR:
            if (in->op == OP_JAL) {
                next = in->target;
                R[RA] = (uint32_t)(4 * (pc + 1));
            } else {
                if (a & 3)
                    FAULT(ST_UNALIGNED_JALR, a);
                next = a >> 2;
                R[in->wd] = (uint32_t)(4 * (pc + 1));
            }
            fl |= F_TAKEN;
            /* DVIEngine.on_call: snapshot push, then I-DVI. */
            if (scheme == SCHEME_LVM_STACK && !stack_push(stack, lvm))
                return ST_NO_MEMORY;
            if (use_idvi) {
                free_mask = lvm & call_mask;
                lvm &= ~call_mask;
            }
            break;
        case OP_JR:
            if (a & 3)
                FAULT(ST_UNALIGNED_JR, a);
            next = a >> 2;
            fl |= F_TAKEN;
            if (in->rs1 == RA) {
                /* DVIEngine.on_return: pop, callee-saved copy-back, I-DVI. */
                if (scheme == SCHEME_LVM_STACK)
                    lvm = (lvm & ~callee_saved)
                        | (stack_pop(stack) & callee_saved);
                if (use_idvi) {
                    free_mask = lvm & return_mask;
                    lvm &= ~return_mask;
                }
            }
            break;
        /* --- environment and DVI annotations -------------------------- */
        case OP_NOP:
            break;
        case OP_HALT:
            next = -1;
            break;
        case OP_KILL:
            fl = 0;  /* not a program instruction */
            if (use_edvi) {
                free_mask = lvm & in->kill;
                lvm &= ~in->kill;
            }
            break;
        /* NOP-class: the trace keeps no address for these two. */
        case OP_LVM_SAVE: {
            uint32_t *word =
                mem_ref(mem, (uint32_t)(a + (uint64_t)in->imm) >> 2);
            if (!word)
                return ST_NO_MEMORY;
            *word = lvm;
            break;
        }
        case OP_LVM_LOAD:
            lvm = mem_get(mem, (uint32_t)(a + (uint64_t)in->imm) >> 2);
            break;
        }

        counts[pc]++;
        if (collect_trace) {
            int64_t row = rows->len;
            if ((row == rows->cap && !rows_grow(rows))
                    || (addr >= 0 && !sparse_reserve(&rows->addrs))
                    || (free_mask && !sparse_reserve(&rows->free_masks)))
                return ST_NO_MEMORY;
            rows->pcs[row] = (int32_t)pc;
            rows->flags[row] = free_mask ? fl | F_FREES : fl;
            rows->len = row + 1;
            if (addr >= 0)
                rows->addrs.slot[rows->addrs.len++] = (uint32_t)addr;
            if (free_mask)
                rows->free_masks.slot[rows->free_masks.len++] = free_mask;
        }
        if (in->dbit && !(fl & F_ELIMINATED))
            lvm |= in->dbit;  /* DVIEngine.on_def */
        if (collect_hist) {
            int live = __builtin_popcount(lvm & saveable);
            if (!hist[live] && seen < HIST_SLOTS)
                hist_order[seen++] = live;
            hist[live]++;
        }
        seq++;
        if (next < 0) {
            completed = 1;
            break;
        }
        pc = next;
    }
#undef FAULT

    memcpy(regs, R, NUM_REGS * sizeof *R);
    state[S_PC] = pc;
    state[S_SEQ] = seq;
    state[S_LVM] = lvm;
    state[S_HALTED] = completed;
    state[S_SAVES_ELIMINATED] = saves_elim;
    state[S_RESTORES_ELIMINATED] = restores_elim;
    state[S_HIST_SEEN] = seen;
    return ST_OK;
}

/* The trace rows, addresses, masks and memory words held, for sizing
 * the export. */
void repro_fe_sizes(const engine_t *e, int64_t *sizes)
{
    sizes[0] = e->rows.len;
    sizes[1] = e->rows.addrs.len;
    sizes[2] = e->rows.free_masks.len;
    sizes[3] = e->mem.len;
}

/* Copy the trace columns and the memory, in insertion order, out. */
void repro_fe_export(
    const engine_t *e, int32_t *pcs, uint32_t *addrs, uint32_t *free_masks,
    uint8_t *flags, int64_t *keys, uint32_t *values)
{
    size_t rows = (size_t)e->rows.len, words = (size_t)e->mem.len;
    size_t n_addrs = (size_t)e->rows.addrs.len;
    size_t n_masks = (size_t)e->rows.free_masks.len;
    if (rows) {
        memcpy(pcs, e->rows.pcs, rows * sizeof *pcs);
        memcpy(flags, e->rows.flags, rows);
    }
    if (n_addrs)
        memcpy(addrs, e->rows.addrs.slot, n_addrs * sizeof *addrs);
    if (n_masks)
        memcpy(free_masks, e->rows.free_masks.slot,
               n_masks * sizeof *free_masks);
    if (words) {
        memcpy(keys, e->mem.keys, words * sizeof *keys);
        memcpy(values, e->mem.values, words * sizeof *values);
    }
}
