/* The compiled tick: ``Core.tick`` as one C function over the Python state
 * (and, in _window.h, the cycle loop that calls it: ``LBP._simulate``).
 *
 * Stage contract (paper §5.2): each of the five stages -- commit,
 * writeback, issue, decode/rename, fetch, run commit-side first --
 * selects at most one eligible hart per cycle, probing from its rotating
 * priority pointer (``_rr_*``) and advancing the pointer past the hart it
 * served.  This file is a stage-for-stage transliteration of the tick
 * that used to live in core.py; ``machine/reference.py`` is the readable
 * version and the oracle the tests hold this one to, bit for bit.
 *
 * No second layout.  Every object the tick touches (Core, Hart,
 * ResultBuffer, Entry, LoweredInstr, HartStats) has ``__slots__``, so a
 * slot is a ``PyObject *`` at a fixed offset of the instance.  ``bind``
 * resolves the offsets once from the classes' member descriptors (CPython
 * orders slots by name, so they are never hard-coded) and fails if a slot
 * it names is missing.  The Python side -- event handlers, ``Hart.start``,
 * ``ResultBuffer.fill``, ``state_dict``, the sanitizer, the metrics --
 * keeps reading and writing the very same slots.
 *
 * What makes it fast, none of which may be observable:
 *   - Stage gating: ``Hart.fetch_ok`` (the fetch predicate minus its
 *     timer), ``Hart.n_ready`` (operand-ready waiting instructions) and
 *     ``Core._wb_wake`` (a lower bound on the next cycle a filled
 *     writeback buffer can drain) are maintained at the state-transition
 *     sites; a stage whose gate is closed touches no hart.
 *   - ALU/MULDIV, branches, jal, lui and auipc issue here, through the
 *     ``alu_op`` / ``br_op`` switches below; they need nothing from the
 *     machine.
 *   - Parking: an unmetered tick in which no stage fired cannot have
 *     changed anything, and nothing will change before a timer the core
 *     owns expires (a filled buffer's ``ready_at``, a fetch-ready hart's
 *     ``fetch_ready_at``) or an event addressed to this domain runs.  It
 *     stores that expiry in ``sleep_until``; the cycle loop skips the core
 *     until then and event dispatch clears it.  Never with metrics
 *     attached: the stall classifier charges every busy cycle.
 *   - Metrics charges: a metered tick classifies its stall and charges
 *     its idle cycle here, on the CoreTelemetry slots ``Metrics.stall`` /
 *     ``idle`` write, while the machine's Metrics is exact and its hooks
 *     are the bind-time ones (see "the metrics charges" below).
 *   - No object traffic the state does not need.  Slots keep holding the
 *     Python values they always held; what went is the allocation and the
 *     call per instruction around them:
 *     . a slot is read as a number by ``as_int``: an exact one-digit
 *       ``int`` inline, anything else through ``PyLong_AsLongLong``, so a
 *       value or an error is the one that call gives;
 *     . ``rob.pop(0)`` and the removal from the instruction table move
 *       the list's tail down in place (``list_take``);
 *     . *shared immutable boxes*: whoever calls ``tick_core`` boxes
 *       ``cycle + 1`` once, and every timer a tick sets to the next cycle
 *       (``fetch_ready_at``, a latency-1 ``ready_at``, ``_wb_wake``)
 *       stores that object.  Each slot owns a reference, an int cannot be
 *       mutated, and nothing compares timers by identity;
 *     . *last-reference recycling*: commit parks a retired ``Entry`` in a
 *       bounded pool (``retire``) when the tick's reference is the only
 *       one left -- ``Py_REFCNT == 1`` once ``_commit_p_ret`` has
 *       returned, exact type, no ``__weakref__`` slot to find it by --
 *       emptied and untracked, and rename fills a parked one before it
 *       allocates.  An Entry anything in Python still holds has a higher
 *       count and is left alone;
 *     . *decode-time objects*: ``lowered.py`` builds, per pc, the int a
 *       fall-through or ``jal`` resumes fetch at and the fetch buffer's
 *       ``(pc, low)``; rename and fetch store those objects, after
 *       checking they hold the value just computed, else build their own.
 *
 * Everything that needs the machine is a call back into the one Python
 * implementation: ``Core._execute`` (code-bank and device loads and
 * stores, every access a trace or a sanitizer observes, jalr,
 * SYSTEM/FENCE, every X_PAR class), ``Core._commit_p_ret``,
 * ``Core.alloc_free_hart``, ``machine.halt`` / ``error`` /
 * ``send_fork_req`` / ``fetch_instruction``, ``metrics.roll`` and a
 * window edge's ``_emit``, at the call sites the reference tick makes
 * them; ``metrics.idle`` / ``stall`` only for a Metrics the charges here
 * do not stand for (a subclass, a replaced hook).
 * The one exception is memory: a load or store to the core's own banks or
 * to another core's shared bank, and ``p_lwcv``, which the cycle window
 * issues itself when nothing observes it (``mem_access`` in _window.h).
 * Rules for the calls:
 *   - every one goes through ``callback``, which first lets the window
 *     publish ``machine.cycle`` and ``machine._origin``;
 *   - a callee may write any slot, so nothing read before a call is
 *     trusted after it: every stage re-reads its inputs from the slots;
 *   - an exception propagates (NULL), it is never swallowed;
 *   - objects used across a call are held by a strong reference.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <string.h>
#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

/* keeps a function out of its callers (Py_NO_INLINE is 3.11's spelling) */
#if defined(__GNUC__)
#define NOINLINE __attribute__((noinline))
#else
#define NOINLINE
#endif

/* ---- slot offsets, resolved by bind() ------------------------------------ */

#define CORE_SLOTS(X) \
    X(index) X(machine) X(mem) X(harts) X(active) X(idle_since) \
    X(sleep_until) X(links) X(_seq) X(_tag) X(_rr_fetch) X(_rr_rename) \
    X(_rr_issue) X(_rr_wb) X(_rr_commit) X(_rob_size) X(_wb_wake)
#define HART_SLOTS(X) \
    X(regs) X(rename) X(pc) X(awaiting_nextpc) X(fetch_ready_at) \
    X(syncm_block) X(fetch_buf) X(it) X(rob) X(rb) X(re_buffers) \
    X(outstanding_mem) X(reserved) X(pred) X(pred_done) X(fork_tokens) \
    X(stats) X(fetch_ok) X(n_ready) X(gid) X(index)
#define RB_SLOTS(X) X(busy) X(tag) X(reg) X(value) X(ready_at) X(entry)
#define ENTRY_SLOTS(X) \
    X(tag) X(low) X(pc) X(val0) X(val1) X(wait0) X(wait1) X(nwaits) \
    X(issued) X(done) X(ret_action)
#define LOW_SLOTS(X) \
    X(cls) X(rd) X(imm) X(nreads) X(r1) X(r2) X(writes) X(alu_op) X(br_op) \
    X(latency) X(re_slot) X(dec_kind) X(issue_kind) X(store_like) X(trap) \
    X(width) X(mnemonic) X(next_pc) X(fetch_pair)
#define STATS_SLOTS(X) X(retired) X(loads) X(stores)
#define MEM_SLOTS(X) \
    X(local) X(shared) X(local_port) X(shared_local_port) X(shared_router_port)
#define BANK_SLOTS(X) X(base) X(data)
#define PORT_SLOTS(X) X(next_free)
#define COUNTER_SLOTS(X) X(local_accesses) X(remote_accesses) X(skipped_cycles)
#define LINK_SLOTS(X) \
    X(hop_latency) X(num_cores) X(_links) X(_metrics) X(_core_index)
#define METRICS_SLOTS(X) X(interval) X(_slots) X(edges)
#define TELEMETRY_SLOTS(X) X(stalls) X(link_wait) X(remote_inflight)

#define OFFSET_FIELD(name) Py_ssize_t name;
#define SLOT_NAME(name) #name,
#define SLOT_TABLE(var, SLOTS) \
    static struct { SLOTS(OFFSET_FIELD) } var; \
    static const char *const var##_names[] = { SLOTS(SLOT_NAME) NULL };

SLOT_TABLE(C, CORE_SLOTS)
SLOT_TABLE(H, HART_SLOTS)
SLOT_TABLE(R, RB_SLOTS)
SLOT_TABLE(E, ENTRY_SLOTS)
SLOT_TABLE(L, LOW_SLOTS)
SLOT_TABLE(S, STATS_SLOTS)
SLOT_TABLE(M, MEM_SLOTS)
SLOT_TABLE(B, BANK_SLOTS)
SLOT_TABLE(P, PORT_SLOTS)
SLOT_TABLE(K, COUNTER_SLOTS)
SLOT_TABLE(LS, LINK_SLOTS)
SLOT_TABLE(MX, METRICS_SLOTS)
SLOT_TABLE(TS, TELEMETRY_SLOTS)
/* E as an array of offsets: every slot an Entry has (bind checks) */
#define ENTRY_NSLOTS ((Py_ssize_t)(sizeof(E) / sizeof(Py_ssize_t)))

static PyTypeObject *core_type, *hart_type, *rb_type, *entry_type, *low_type,
    *stats_type, *mem_type, *bank_type, *port_type, *counters_type,
    *links_type, *metrics_type, *telemetry_type;
/* hart.py's NEVER, as the object to store and the value to compare */
static PyObject *never_obj;
static int64_t never_val;
/* LoweredInstr.cls of the classes issued here by class, and of the ones
 * the stall classifier tells apart */
static int64_t cls_jal, cls_lui, cls_auipc, cls_load, cls_store, cls_p_lwcv;
static int64_t cls_p_swcv, cls_p_syncm, cls_p_lwre, cls_p_swre, cls_p_fc,
    cls_p_fn;
/* memmap.py: where the shared banks start, how big each is, and
 * hart_cv_base(h) for the four harts of a core */
static int64_t global_base, global_bank_size, cv_base[4];

static PyObject *zero_obj;
/* interned names and constants; PyInit__tick fills them from STRINGS */
#define STRINGS(X) \
    X(metrics, "metrics") X(cycle, "cycle") X(lowered, "lowered") \
    X(edges, "edges") X(idle, "idle") X(roll, "roll") X(stall, "stall") \
    X(halt, "halt") X(error, "error") X(ebreak, "ebreak") \
    X(ecall, "ecall is not supported on bare-metal LBP") \
    X(commit_p_ret, "_commit_p_ret") X(execute, "_execute") \
    X(alloc_free_hart, "alloc_free_hart") X(send_fork_req, "send_fork_req") \
    X(fetch_instruction, "fetch_instruction") X(tick, "tick") \
    X(settle_idle, "settle_idle") X(_events, "_events") X(cores, "cores") \
    X(_origin, "_origin") X(_halt_at, "_halt_at") X(_error, "_error") \
    X(_num_active, "_num_active") X(_active_cores, "_active_cores") \
    X(_owned, "_owned") X(_outbox, "_outbox") X(trace, "trace") \
    X(enabled, "enabled") X(sanitizer, "sanitizer") X(mmio, "mmio") \
    X(params, "params") X(local_mem_latency, "local_mem_latency") \
    X(stats, "stats") X(per_core, "per_core") X(local, "local") \
    X(shared, "shared") X(load_read, "load_read") X(load_done, "load_done") \
    X(store_write, "store_write") X(rreq_load, "rreq_load") \
    X(bank_read, "bank_read") X(rrep_load, "rrep_load") \
    X(rreq_store, "rreq_store") X(bank_write, "bank_write") \
    X(rack_store, "rack_store") X(bank_access_latency, "bank_access_latency") \
    X(num_cores, "num_cores") X(remote_issue, "remote_issue") \
    X(remote_done, "remote_done") X(link_wait, "link_wait") \
    X(_classify, "_classify") X(_mem_reason, "_mem_reason") \
    X(_remote_rtt, "_remote_rtt") X(_emit, "_emit") \
    X(link_hop_latency, "link_hop_latency")
#define STRING_VAR(name, text) static PyObject *s_##name;
STRINGS(STRING_VAR)

/* router.LINK_TAGS and LINK_SHIFTS, in their order: a link ``(tag,
 * index)`` is a LinkScheduler's port ``_links[code][index]``, *code* the
 * tag's position here, its row ``((num_cores - 1) >> shift) + 1`` long
 * (bind refuses a router whose tuples differ) */
#define LINK_TAGS(X) \
    X(c_r1, "c>r1", 0) X(r1_m, "r1>m", 0) X(r1_r2, "r1>r2", 2) \
    X(r2_r1, "r2>r1", 2) X(r2_r3, "r2>r3", 4) X(r3_r4, "r3>r4", 6) \
    X(r4_r3, "r4>r3", 6) X(r3_r2, "r3>r2", 4) \
    X(m_r1, "m>r1", 0) X(r1_c, "r1>c", 0) X(r1_lt_r2, "r1<r2", 2) \
    X(r2_lt_r1, "r2<r1", 2) X(r2_lt_r3, "r2<r3", 4) X(r3_lt_r4, "r3<r4", 6) \
    X(r4_lt_r3, "r4<r3", 6) X(r3_lt_r2, "r3<r2", 4) \
    X(fwd, "fwd", 0) X(bwd, "bwd", 0)
#define TAG_CODE(name, text, shift) LINK_##name,
enum { LINK_TAGS(TAG_CODE) LINK_TAG_COUNT };
#define TAG_TEXT(name, text, shift) text,
static const char *const link_tags[] = { LINK_TAGS(TAG_TEXT) };
#define TAG_SHIFT(name, text, shift) shift,
static const int link_shifts[] = { LINK_TAGS(TAG_SHIFT) };

/* ---- slot access ----------------------------------------------------------- */

#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))
#define MASK32 0xFFFFFFFFLL

/* Readers jump to ``fail`` with an exception set.  GETO yields a borrowed
 * reference, GETI an int64, GETB a truth value (0/1). */
#define GETO(var, obj, off) \
    do { if (((var) = SLOT(obj, off)) == NULL) { unset_slot(); goto fail; } \
    } while (0)
#define GETI(var, obj, off) \
    do { PyObject *o_; GETO(o_, obj, off); \
         (var) = as_int(o_); \
         if ((var) == -1 && PyErr_Occurred()) goto fail; } while (0)
#define GETB(var, obj, off) \
    do { PyObject *o_; GETO(o_, obj, off); \
         if (((var) = truth(o_)) < 0) goto fail; } while (0)
#define GETLIST(var, obj, off) \
    do { GETO(var, obj, off); \
         if (!PyList_Check(var)) { wrong_type("list"); goto fail; } } while (0)
#define CHECK(obj, type) \
    do { if (!PyObject_TypeCheck(obj, type)) { \
             wrong_type((type)->tp_name); goto fail; } } while (0)
#define SETI(obj, off, value) \
    do { if (set_int(obj, off, value) < 0) goto fail; } while (0)

static void
unset_slot(void)
{
    PyErr_SetString(PyExc_AttributeError,
                    "compiled tick: a slot it reads is unset");
}

static void
wrong_type(const char *expected)
{
    PyErr_Format(PyExc_TypeError,
                 "compiled tick: expected a %s in the core's state", expected);
}

/* 1 and *value when *o* is an exact ``int`` of at most one digit, read
 * from the object itself: ``ob_digit`` under the sign in ``ob_size`` before
 * 3.12, the "compact" value from 3.12.  Never raises. */
static inline int
one_digit(PyObject *o, int64_t *value)
{
    if (!PyLong_CheckExact(o))
        return 0;
#if PY_VERSION_HEX >= 0x030C0000
    if (!PyUnstable_Long_IsCompact((PyLongObject *)o))
        return 0;
    *value = PyUnstable_Long_CompactValue((PyLongObject *)o);
#else
    switch (Py_SIZE(o)) {
    case 0: *value = 0; break;
    case 1: *value = ((PyLongObject *)o)->ob_digit[0]; break;
    case -1: *value = -(int64_t)((PyLongObject *)o)->ob_digit[0]; break;
    default: return 0;
    }
#endif
    return 1;
}

/* ``PyLong_AsLongLong(o)`` without the call when *o* is an exact ``int`` of
 * at most one digit (every register value below 2**30, every tag, counter
 * and cycle of a run that short).  Anything else -- a bool, a subclass, a
 * wider int, no int at all -- is PyLong_AsLongLong's: same value, same
 * exception.  -1 may be a value: callers test PyErr_Occurred() as well. */
static inline int64_t
as_int(PyObject *o)
{
    int64_t value;
    return one_digit(o, &value) ? value : PyLong_AsLongLong(o);
}

static inline int
truth(PyObject *o)
{
    if (o == Py_True)
        return 1;
    if (o == Py_False || o == Py_None)
        return 0;
    return PyObject_IsTrue(o);
}

/* Store a new reference to *value* (None, True and False are counted like
 * any other object before 3.12). */
static inline void
set_obj(PyObject *obj, Py_ssize_t off, PyObject *value)
{
    PyObject *old = SLOT(obj, off);
    Py_INCREF(value);
    SLOT(obj, off) = value;
    Py_XDECREF(old);
}

/* Py_NewRef, which 3.9 lacks */
static inline PyObject *
new_ref(PyObject *obj)
{
    Py_INCREF(obj);
    return obj;
}

#define set_bool(obj, off, b) set_obj(obj, off, (b) ? Py_True : Py_False)
#define set_none(obj, off) set_obj(obj, off, Py_None)

/* a static that holds its own reference: bind() may run more than once */
#define KEEP(var, value) \
    do { PyObject *old_ = (PyObject *)(var); Py_INCREF(value); \
         (var) = (void *)(value); Py_XDECREF(old_); } while (0)

static inline int
set_int(PyObject *obj, Py_ssize_t off, int64_t value)
{
    PyObject *boxed = PyLong_FromLongLong(value);
    PyObject *old;
    if (boxed == NULL)
        return -1;
    old = SLOT(obj, off);
    SLOT(obj, off) = boxed;
    Py_XDECREF(old);
    return 0;
}

/* ``obj == tag`` for a rename tag slot: None or an int. */
static inline int
tag_is(PyObject *obj, int64_t tag)
{
    int64_t value;
    if (obj == Py_None)
        return 0;
    value = as_int(obj);
    if (value == -1 && PyErr_Occurred())
        return -1;
    return value == tag;
}

/* list[index], borrowed, bounds-checked */
static inline PyObject *
list_item(PyObject *list, int64_t index)
{
    if (index < 0 || index >= PyList_GET_SIZE(list)) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return NULL;
    }
    return PyList_GET_ITEM(list, index);
}

static inline int
list_set(PyObject *list, int64_t index, PyObject *value)
{
    Py_INCREF(value);
    return PyList_SetItem(list, (Py_ssize_t)index, value);  /* steals */
}

/* ``list.pop(index)`` for an index the caller checked: the list's reference
 * becomes the caller's.  The tail moves down inside ``ob_item`` -- what
 * ``PyList_SetSlice(list, index, index + 1, NULL)`` does, minus the slice
 * bookkeeping and the reallocation (``allocated`` stays, as after any
 * ``pop`` that does not halve the list). */
static inline PyObject *
list_take(PyObject *list, Py_ssize_t index)
{
    PyObject **items = ((PyListObject *)list)->ob_item;
    const Py_ssize_t size = PyList_GET_SIZE(list);
    PyObject *item = items[index];
    memmove(items + index, items + index + 1,
            (size_t)(size - index - 1) * sizeof(PyObject *));
    Py_SET_SIZE(list, size - 1);
    return item;
}

/* ---- retired Entry objects, to be renamed into again ---------------------------
 * commit parks an Entry here when the tick holds the only reference to it;
 * rename takes from here before it allocates.  Parked entries have every
 * slot NULL and are untracked, so neither Python nor the collector can
 * reach one: recycling is not observable. */
#define ENTRY_POOL_MAX 128
static PyObject *entry_pool[ENTRY_POOL_MAX];
static int entry_pool_size;

static void
entry_pool_clear(void)
{
    while (entry_pool_size)
        Py_DECREF(entry_pool[--entry_pool_size]);
}

/* ---- RV32IM: isa/semantics.py's ALU_OPS and BRANCH_OPS ----------------------
 * Operands arrive as Python ints: register values in [0, 2**32), or an
 * immediate, which may be negative; both reduce to their low 32 bits. */

enum alu {  /* lowered.py's ALU_CODES, same order */
    A_ADD, A_ADDI, A_SUB, A_SLL, A_SLLI, A_SLT, A_SLTI, A_SLTU, A_SLTIU,
    A_XOR, A_XORI, A_SRL, A_SRLI, A_SRA, A_SRAI, A_OR, A_ORI, A_AND, A_ANDI,
    A_MUL, A_MULH, A_MULHSU, A_MULHU, A_DIV, A_DIVU, A_REM, A_REMU, A_COUNT
};
enum br {  /* lowered.py's BRANCH_CODES, same order */
    B_BEQ, B_BNE, B_BLT, B_BGE, B_BLTU, B_BGEU, B_COUNT
};

static uint32_t
alu(int64_t op, int64_t a64, int64_t b64)
{
    uint32_t a = (uint32_t)a64, b = (uint32_t)b64;
    int32_t sa = (int32_t)a, sb = (int32_t)b;
    switch (op) {
    case A_ADD: case A_ADDI: return a + b;
    case A_SUB: return a - b;
    case A_SLL: case A_SLLI: return a << (b & 31);
    case A_SLT: case A_SLTI: return sa < sb;
    case A_SLTU: case A_SLTIU: return a < b;
    case A_XOR: case A_XORI: return a ^ b;
    case A_SRL: case A_SRLI: return a >> (b & 31);
    case A_SRA: case A_SRAI:
        /* an arithmetic shift, spelled without shifting a negative value */
        return sa < 0 ? ~(~a >> (b & 31)) : a >> (b & 31);
    case A_OR: case A_ORI: return a | b;
    case A_AND: case A_ANDI: return a & b;
    case A_MUL: return a * b;
    case A_MULH:
        return (uint32_t)((uint64_t)((int64_t)sa * (int64_t)sb) >> 32);
    case A_MULHSU:
        return (uint32_t)((uint64_t)((int64_t)sa * (int64_t)b) >> 32);
    case A_MULHU: return (uint32_t)(((uint64_t)a * (uint64_t)b) >> 32);
    case A_DIV:  /* toward zero; by 0 -> -1; INT_MIN / -1 wraps */
        if (sb == 0) return 0xFFFFFFFFu;
        if (sa == INT32_MIN && sb == -1) return 0x80000000u;
        return (uint32_t)(sa / sb);
    case A_DIVU: return b == 0 ? 0xFFFFFFFFu : a / b;
    case A_REM:  /* sign of the dividend; by 0 -> the dividend */
        if (sb == 0) return a;
        if (sa == INT32_MIN && sb == -1) return 0;
        return (uint32_t)(sa % sb);
    case A_REMU: return b == 0 ? a : a % b;
    }
    return 0;  /* unreachable: callers range-check op */
}

static int
branch(int64_t op, int64_t a64, int64_t b64)
{
    uint32_t a = (uint32_t)a64, b = (uint32_t)b64;
    int32_t sa = (int32_t)a, sb = (int32_t)b;
    switch (op) {
    case B_BEQ: return a == b;
    case B_BNE: return a != b;
    case B_BLT: return sa < sb;
    case B_BGE: return sa >= sb;
    case B_BLTU: return a < b;
    case B_BGEU: return a >= b;
    }
    return 0;  /* unreachable: callers range-check op */
}

/* ---- the tick ---------------------------------------------------------------- */

typedef struct Window Window;  /* _window.h */

typedef struct {
    PyObject *core, *machine;   /* borrowed: the caller holds the core */
    PyObject *hart[4];          /* borrowed from core.harts */
    /* machine.cycle, .metrics, .lowered: read by whoever calls tick_core,
     * once per tick (Core.tick on its own) or per cycle / per call of the
     * window; borrowed from it */
    PyObject *cycle_obj, *metrics, *lowered;
    int64_t cycle;
    /* ``cycle + 1``, boxed once by the same caller: every timer this tick
     * sets to the next cycle stores this one object */
    PyObject *next_obj;
    Window *w;                  /* the window ticking this core, or NULL */
} Tick;

/* what mem_access (_window.h) issues */
enum access { ACC_LOAD, ACC_STORE, ACC_LWCV };

static int leave_c(Window *w);
static int window_charges(Window *w);
static int mem_access(Tick *t, PyObject *hart, PyObject *entry,
                      PyObject *low, enum access kind);

/* ``obj.name(a, b, c)`` (trailing NULLs are no arguments): every call from
 * the tick (and the charges) into Python.  Inside a window *w*
 * ``machine.cycle`` and ``_origin`` are written only now, when Python is
 * about to read them. */
static PyObject *
callback(Window *w, PyObject *obj, PyObject *name, PyObject *a, PyObject *b,
         PyObject *c)
{
    if (w != NULL && leave_c(w) < 0)
        return NULL;
    return PyObject_CallMethodObjArgs(obj, name, a, b, c, NULL);
}

/* Did the callback succeed?  Consumes its result. */
static inline int
called(PyObject *result)
{
    if (result == NULL)
        return -1;
    Py_DECREF(result);
    return 0;
}

/* ``hart.pc is not None or hart.rob or hart.fetch_buf is not None`` */
static int
holds_work(PyObject *hart)
{
    PyObject *pc, *rob, *fetch_buf;
    GETO(pc, hart, H.pc);
    if (pc != Py_None)
        return 1;
    GETLIST(rob, hart, H.rob);
    if (PyList_GET_SIZE(rob))
        return 1;
    GETO(fetch_buf, hart, H.fetch_buf);
    return fetch_buf != Py_None;
fail:
    return -1;
}

/* Core._resolve_pc */
static int
resolve_pc(Tick *t, PyObject *hart, int64_t target)
{
    int syncm_block, reserved;
    PyObject *fetch_buf;
    SETI(hart, H.pc, target & MASK32);
    set_bool(hart, H.awaiting_nextpc, 0);
    set_obj(hart, H.fetch_ready_at, t->next_obj);
    GETB(syncm_block, hart, H.syncm_block);
    GETO(fetch_buf, hart, H.fetch_buf);
    GETB(reserved, hart, H.reserved);
    set_bool(hart, H.fetch_ok,
             !syncm_block && fetch_buf == Py_None && !reserved);
    return 0;
fail:
    return -1;
}

/* Core._finish_at: a register result goes through the hart's writeback
 * buffer (ResultBuffer.occupy + fill); an instruction without one is done. */
static int
finish_at(Tick *t, PyObject *hart, PyObject *entry, PyObject *low,
          uint32_t value, int64_t ready_at)
{
    int writes, status = -1;
    int64_t wb_wake;
    PyObject *rb, *tag, *rd, *ready_obj = NULL;
    GETB(writes, low, L.writes);
    if (!writes) {
        set_bool(entry, E.done, 1);
        return 0;
    }
    GETO(rb, hart, H.rb);
    CHECK(rb, rb_type);
    GETO(tag, entry, E.tag);
    GETO(rd, low, L.rd);
    set_bool(rb, R.busy, 1);
    set_obj(rb, R.tag, tag);
    set_obj(rb, R.reg, rd);
    SETI(rb, R.value, value);
    if (ready_at == t->cycle + 1)
        ready_obj = new_ref(t->next_obj);
    else if ((ready_obj = PyLong_FromLongLong(ready_at)) == NULL)
        goto fail;
    set_obj(rb, R.ready_at, ready_obj);
    set_obj(rb, R.entry, entry);
    /* keep the writeback gate a lower bound */
    GETI(wb_wake, t->core, C._wb_wake);
    if (ready_at < wb_wake)
        set_obj(t->core, C._wb_wake, ready_obj);
    status = 0;
fail:
    Py_XDECREF(ready_obj);
    return status;
}

/* Give up the tick's reference to a committed Entry.  When it is the last
 * one -- nothing in Python kept the object, so nothing can see what becomes
 * of it -- the Entry is emptied and parked for rename instead of freed. */
static void
retire(PyObject *entry)
{
    Py_ssize_t i;
    if (Py_REFCNT(entry) != 1 || Py_TYPE(entry) != entry_type
            || entry_pool_size == ENTRY_POOL_MAX) {
        Py_DECREF(entry);
        return;
    }
    PyObject_GC_UnTrack(entry);
    for (i = 0; i < ENTRY_NSLOTS; i++)
        Py_CLEAR(SLOT(entry, ((Py_ssize_t *)&E)[i]));
    entry_pool[entry_pool_size++] = entry;
}

/* commit: the oldest instruction of a hart, once done */
static int
stage_commit(Tick *t)
{
    int64_t start;
    int k;
    GETI(start, t->core, C._rr_commit);
    for (k = 0; k < 4; k++) {
        int h = (int)((start + k) & 3), done, status;
        int64_t retired, trap;
        PyObject *hart = t->hart[h], *rob, *head, *ret_action, *stats, *low;
        GETLIST(rob, hart, H.rob);
        if (PyList_GET_SIZE(rob) == 0)
            continue;
        head = PyList_GET_ITEM(rob, 0);
        CHECK(head, entry_type);
        GETB(done, head, E.done);
        if (!done)
            continue;
        GETO(ret_action, head, E.ret_action);
        if (ret_action != Py_None) {
            /* the ordered-release barrier of a p_ret */
            PyObject *pred;
            int64_t outstanding;
            GETO(pred, hart, H.pred);
            if (pred != Py_None) {
                int pred_done;
                GETB(pred_done, hart, H.pred_done);
                if (!pred_done)
                    continue;
            }
            GETI(outstanding, hart, H.outstanding_mem);
            if (outstanding != 0)
                continue;
        }
        SETI(t->core, C._rr_commit, (h + 1) & 3);
        GETO(stats, hart, H.stats);
        CHECK(stats, stats_type);
        GETI(retired, stats, S.retired);
        GETO(low, head, E.low);
        CHECK(low, low_type);
        GETI(trap, low, L.trap);
        head = list_take(rob, 0);  /* ``hart.rob.pop(0)`` */
        if (set_int(stats, S.retired, retired + 1) < 0)
            status = -1;
        else if (trap == 1)
            status = called(callback(t->w, t->machine, s_halt, s_ebreak, NULL,
                                     NULL));
        else if (trap)
            status = called(callback(t->w, t->machine, s_error, s_ecall, NULL,
                                     NULL));
        else if (SLOT(head, E.ret_action) != Py_None)
            status = called(callback(t->w, t->core, s_commit_p_ret, hart, head,
                                     NULL));
        else
            status = 0;
        retire(head);
        return status < 0 ? -1 : 1;
    }
    return 0;
fail:
    return -1;
}

/* writeback (gated on the earliest filled ready_at): drain one filled
 * buffer whose latency elapsed and broadcast its tag */
static int
stage_writeback(Tick *t)
{
    int64_t start, wake;
    int k, fired = 0;
    GETI(wake, t->core, C._wb_wake);
    if (wake > t->cycle)
        return 0;
    wake = never_val;
    GETI(start, t->core, C._rr_wb);
    for (k = 0; k < 4; k++) {
        int h = (int)((start + k) & 3), busy;
        int64_t ready_at, tag, reg;
        Py_ssize_t i;
        PyObject *hart = t->hart[h], *rb, *value, *tag_obj, *it, *entry;
        GETO(rb, hart, H.rb);
        CHECK(rb, rb_type);
        GETB(busy, rb, R.busy);
        if (!busy)
            continue;
        GETO(value, rb, R.value);
        if (value == Py_None)
            continue;
        GETI(ready_at, rb, R.ready_at);
        if (ready_at > t->cycle) {
            if (ready_at < wake)
                wake = ready_at;
            continue;
        }
        SETI(t->core, C._rr_wb, (h + 1) & 3);
        GETO(tag_obj, rb, R.tag);
        tag = as_int(tag_obj);
        if (tag == -1 && PyErr_Occurred())
            goto fail;
        GETI(reg, rb, R.reg);
        if (reg != 0) {
            /* The architectural register is updated only when this
             * producer is still the latest rename of it: an older one
             * that writes back after a newer one must not clobber the
             * newer value.  Its consumers still get it, below. */
            PyObject *rename, *latest, *regs;
            int same;
            GETLIST(rename, hart, H.rename);
            if ((latest = list_item(rename, reg)) == NULL
                    || (same = tag_is(latest, tag)) < 0)
                goto fail;
            if (same) {
                GETLIST(regs, hart, H.regs);
                if (list_set(regs, reg, value) < 0
                        || list_set(rename, reg, Py_None) < 0)
                    goto fail;
            }
        }
        GETLIST(it, hart, H.it);
        for (i = 0; i < PyList_GET_SIZE(it); i++) {
            PyObject *waiter = PyList_GET_ITEM(it, i), *wait;
            int64_t nwaits;
            int hit = 0, same;
            CHECK(waiter, entry_type);
            GETI(nwaits, waiter, E.nwaits);
            GETO(wait, waiter, E.wait0);
            if ((same = tag_is(wait, tag)) < 0)
                goto fail;
            if (same) {
                set_none(waiter, E.wait0);
                set_obj(waiter, E.val0, value);
                hit++;
            }
            GETO(wait, waiter, E.wait1);
            if ((same = tag_is(wait, tag)) < 0)
                goto fail;
            if (same) {
                set_none(waiter, E.wait1);
                set_obj(waiter, E.val1, value);
                hit++;
            }
            if (hit) {
                SETI(waiter, E.nwaits, nwaits - hit);
                if (nwaits == hit) {
                    int64_t n_ready;
                    GETI(n_ready, hart, H.n_ready);
                    SETI(hart, H.n_ready, n_ready + 1);
                }
            }
        }
        GETO(entry, rb, R.entry);
        CHECK(entry, entry_type);
        set_bool(entry, E.done, 1);
        set_bool(rb, R.busy, 0);
        set_none(rb, R.tag);
        set_none(rb, R.value);
        set_none(rb, R.entry);
        /* one drain per cycle: the next is no earlier than cycle + 1
         * (cheaper than the exact minimum over the other harts on the
         * ~90% of saturated ticks that drain; a low gate only costs one
         * scan, which then re-derives it) */
        wake = t->cycle + 1;
        fired = 1;
        break;
    }
    /* exact when the scan drained nothing (the gate was stale) */
    if (wake == never_val)
        set_obj(t->core, C._wb_wake, never_obj);
    else if (wake == t->cycle + 1)
        set_obj(t->core, C._wb_wake, t->next_obj);
    else
        SETI(t->core, C._wb_wake, wake);
    return fired;
fail:
    return -1;
}

/* The issued instruction's execute step.  ALU/MULDIV, branches, jal, lui
 * and auipc need nothing from the machine, a load, a store or a p_lwcv
 * nothing observed only the window; the rest is Core._execute. */
static int
execute(Tick *t, PyObject *hart, PyObject *entry, PyObject *low)
{
    int64_t op, a, b, pc, imm, cls;
    GETI(op, low, L.alu_op);
    if (op >= 0) {
        int writes;
        int64_t nreads, latency;
        if (op >= A_COUNT)
            goto bad_op;
        GETB(writes, low, L.writes);
        if (!writes) {  /* rd == x0: result discarded */
            set_bool(entry, E.done, 1);
            return 0;
        }
        GETI(a, entry, E.val0);
        GETI(nreads, low, L.nreads);
        if (nreads == 2)
            GETI(b, entry, E.val1);
        else
            GETI(b, low, L.imm);
        GETI(latency, low, L.latency);
        return finish_at(t, hart, entry, low, alu(op, a, b),
                         t->cycle + latency);
    }
    GETI(op, low, L.br_op);
    if (op >= 0) {
        if (op >= B_COUNT)
            goto bad_op;
        GETI(a, entry, E.val0);
        GETI(b, entry, E.val1);
        GETI(pc, entry, E.pc);
        GETI(imm, low, L.imm);
        if (resolve_pc(t, hart, branch(op, a, b) ? pc + imm : pc + 4) < 0)
            return -1;
        set_bool(entry, E.done, 1);
        return 0;
    }
    GETI(cls, low, L.cls);
    if (cls == cls_jal || cls == cls_lui || cls == cls_auipc) {
        uint32_t value;
        GETI(pc, entry, E.pc);
        GETI(imm, low, L.imm);
        if (cls == cls_jal)
            value = (uint32_t)(pc + 4);
        else
            value = (uint32_t)((uint64_t)imm << 12)
                + (cls == cls_auipc ? (uint32_t)pc : 0);
        return finish_at(t, hart, entry, low, value, t->cycle + 1);
    }
    if (t->w != NULL
            && (cls == cls_load || cls == cls_store || cls == cls_p_lwcv)) {
        int done = mem_access(t, hart, entry, low,
                              cls == cls_load ? ACC_LOAD
                              : cls == cls_store ? ACC_STORE : ACC_LWCV);
        if (done)
            return done < 0 ? -1 : 0;
    }
    return called(callback(t->w, t->core, s_execute, hart, entry, NULL));
bad_op:
    PyErr_SetString(PyExc_ValueError,
                    "compiled tick: alu_op / br_op out of range");
fail:
    return -1;
}

/* issue (gated on any operand-ready waiting instruction): the oldest ready
 * entry of the first eligible hart */
static int
stage_issue(Tick *t)
{
    int64_t start;
    int k;
    GETI(start, t->core, C._rr_issue);
    for (k = 0; k < 4; k++) {
        int h = (int)((start + k) & 3), rb_busy, older_store_pending = 0;
        int status;
        int64_t n_ready;
        Py_ssize_t i, found = -1;
        PyObject *hart = t->hart[h], *it, *rb, *entry, *low;
        GETI(n_ready, hart, H.n_ready);
        if (!n_ready)
            continue;
        GETLIST(it, hart, H.it);
        GETO(rb, hart, H.rb);
        CHECK(rb, rb_type);
        GETB(rb_busy, rb, R.busy);
        for (i = 0; i < PyList_GET_SIZE(it); i++) {
            PyObject *candidate = PyList_GET_ITEM(it, i);
            int64_t nwaits;
            int writes, store_like;
            CHECK(candidate, entry_type);
            GETO(low, candidate, E.low);
            CHECK(low, low_type);
            GETI(nwaits, candidate, E.nwaits);
            GETB(writes, low, L.writes);
            if (nwaits == 0 && !(writes && rb_busy)) {
                int64_t kind, number;
                int ready;
                PyObject *list, *item;
                GETI(kind, low, L.issue_kind);
                switch (kind) {
                case 0:  /* ISS_PLAIN */
                    ready = 1;
                    break;
                case 1:  /* ISS_LOAD: after all older stores of the hart */
                    ready = !older_store_pending;
                    break;
                case 2:  /* ISS_LWRE: its result buffer is filled */
                    GETLIST(list, hart, H.re_buffers);
                    GETI(number, low, L.re_slot);
                    if ((item = list_item(list, number)) == NULL)
                        goto fail;
                    ready = item != Py_None;
                    break;
                case 3:  /* ISS_FC: a free hart on this core */
                    Py_INCREF(it);
                    item = callback(t->w, t->core, s_alloc_free_hart, NULL,
                                    NULL, NULL);
                    Py_DECREF(it);
                    if (item == NULL)
                        goto fail;
                    ready = item != Py_None;
                    Py_DECREF(item);
                    break;
                case 4:  /* ISS_FN: a fork token was granted */
                    GETLIST(list, hart, H.fork_tokens);
                    ready = PyList_GET_SIZE(list) != 0;
                    break;
                default:  /* ISS_SYNCM: at the head, memory drained */
                    GETI(number, hart, H.outstanding_mem);
                    ready = i == 0 && number == 0;
                    break;
                }
                if (ready) {
                    found = i;
                    break;
                }
            }
            GETB(store_like, low, L.store_like);
            if (store_like)
                older_store_pending = 1;
        }
        if (found < 0 || found >= PyList_GET_SIZE(it))
            continue;
        SETI(t->core, C._rr_issue, (h + 1) & 3);
        /* checked again: an ISS_FC probe ran Python since the scan */
        entry = PyList_GET_ITEM(it, found);
        CHECK(entry, entry_type);
        GETO(low, entry, E.low);
        CHECK(low, low_type);
        Py_INCREF(low);
        entry = list_take(it, found);  /* ``hart.it.remove(entry)`` */
        if (set_int(hart, H.n_ready, n_ready - 1) < 0)
            status = -1;
        else {
            set_bool(entry, E.issued, 1);
            status = execute(t, hart, entry, low);
        }
        Py_DECREF(low);
        Py_DECREF(entry);
        return status < 0 ? -1 : 1;
    }
    return 0;
fail:
    return -1;
}

/* One source operand at rename: x0, a committed value, or a producer's
 * tag.  Returns borrowed references through *val / *wait. */
static int
read_source(PyObject *hart, int64_t reg, PyObject **val, PyObject **wait)
{
    PyObject *list;
    if (reg == 0) {
        *val = zero_obj;
        return 0;
    }
    GETLIST(list, hart, H.rename);
    if ((*wait = list_item(list, reg)) == NULL)
        goto fail;
    if (*wait != Py_None)
        return 1;  /* one more producer to wait for */
    GETLIST(list, hart, H.regs);
    if ((*val = list_item(list, reg)) == NULL)
        goto fail;
    return 0;
fail:
    return -1;
}

/* Rename the instruction (*pc_obj*, *low*) taken from *hart*'s fetch
 * buffer: Entry(tag, low, pc, val0, val1, wait0, wait1, nwaits) into the
 * instruction table and the ROB, then the next-pc determination. */
static int
rename_into(Tick *t, PyObject *hart, PyObject *rob, PyObject *pc_obj,
            PyObject *low)
{
    int status = -1, writes, syncm_block, more;
    int64_t tag, nreads, reg, nwaits = 0, dec, pc, imm, n_ready, held;
    PyObject *it, *rename, *next_pc, *tag_obj = NULL, *entry = NULL;
    PyObject *val0 = Py_None, *val1 = Py_None;
    PyObject *wait0 = Py_None, *wait1 = Py_None;

    CHECK(low, low_type);
    GETI(tag, t->core, C._tag);
    if ((tag_obj = PyLong_FromLongLong(tag + 1)) == NULL)
        goto fail;
    set_obj(t->core, C._tag, tag_obj);
    GETI(nreads, low, L.nreads);
    if (nreads) {
        GETI(reg, low, L.r1);
        if ((more = read_source(hart, reg, &val0, &wait0)) < 0)
            goto fail;
        nwaits += more;
        if (nreads == 2) {
            GETI(reg, low, L.r2);
            if ((more = read_source(hart, reg, &val1, &wait1)) < 0)
                goto fail;
            nwaits += more;
        }
    }
    /* slot by slot, without Entry.__init__ (bind checked these are all),
     * into a retired Entry when one is parked: every slot NULL, like new */
    if (entry_pool_size) {
        entry = entry_pool[--entry_pool_size];
        PyObject_GC_Track(entry);
    } else if ((entry = entry_type->tp_alloc(entry_type, 0)) == NULL)
        goto fail;
    set_obj(entry, E.tag, tag_obj);
    set_obj(entry, E.low, low);
    set_obj(entry, E.pc, pc_obj);
    set_obj(entry, E.val0, val0);
    set_obj(entry, E.val1, val1);
    set_obj(entry, E.wait0, wait0);
    set_obj(entry, E.wait1, wait1);
    SETI(entry, E.nwaits, nwaits);
    set_bool(entry, E.issued, 0);
    set_bool(entry, E.done, 0);
    set_none(entry, E.ret_action);
    GETLIST(it, hart, H.it);
    if (PyList_Append(it, entry) < 0 || PyList_Append(rob, entry) < 0)
        goto fail;
    if (nwaits == 0) {
        GETI(n_ready, hart, H.n_ready);
        SETI(hart, H.n_ready, n_ready + 1);
    }
    GETB(writes, low, L.writes);
    if (writes) {
        GETLIST(rename, hart, H.rename);
        GETI(reg, low, L.rd);
        if (list_item(rename, reg) == NULL
                || list_set(rename, reg, tag_obj) < 0)
            goto fail;
    }
    GETI(dec, low, L.dec_kind);
    if (dec == 5  /* DEC_PFN: request the fork token from the next core */
            && called(callback(t->w, t->machine, s_send_fork_req, t->core,
                               hart, NULL)) < 0)
        goto fail;
    /* next-pc determination (fetch resumes when it is known) */
    if (dec == 2) {
        /* DEC_SUSPEND: resolved at issue; the hart stays suspended */
    } else if (dec == 3) {
        /* DEC_SYSTEM: halts (ebreak) / traps (ecall) at commit */
        set_none(hart, H.pc);
        set_bool(hart, H.awaiting_nextpc, 0);
    } else {
        pc = as_int(pc_obj);
        if (pc == -1 && PyErr_Occurred())
            goto fail;
        if (dec == 1) {  /* DEC_JAL: pc + imm known at decode */
            GETI(imm, low, L.imm);
            pc = (pc + imm) & MASK32;
        } else
            pc += 4;
        /* lowered.py boxed this value when it lowered the instruction at
         * pc_obj; a *low* that says otherwise gets a new int */
        GETO(next_pc, low, L.next_pc);
        if (one_digit(next_pc, &held) && held == pc)
            set_obj(hart, H.pc, next_pc);
        else
            SETI(hart, H.pc, pc);
        set_bool(hart, H.awaiting_nextpc, 0);
        set_obj(hart, H.fetch_ready_at, t->next_obj);
        if (dec == 4)  /* DEC_SYNCM: block further fetch until it issues */
            set_bool(hart, H.syncm_block, 1);
        else {
            GETB(syncm_block, hart, H.syncm_block);
            set_bool(hart, H.fetch_ok, !syncm_block);
        }
    }
    status = 0;
fail:
    Py_XDECREF(entry);
    Py_XDECREF(tag_obj);
    return status;
}

/* decode / rename: fetch buffer -> instruction table + ROB */
static int
stage_rename(Tick *t)
{
    int64_t start, rob_size;
    int k;
    GETI(rob_size, t->core, C._rob_size);
    GETI(start, t->core, C._rr_rename);
    for (k = 0; k < 4; k++) {
        int h = (int)((start + k) & 3), status;
        PyObject *hart = t->hart[h], *fetch_buf, *rob;
        GETO(fetch_buf, hart, H.fetch_buf);
        if (fetch_buf == Py_None)
            continue;
        GETLIST(rob, hart, H.rob);
        if (PyList_GET_SIZE(rob) >= rob_size)
            continue;
        if (!PyTuple_Check(fetch_buf) || PyTuple_GET_SIZE(fetch_buf) != 2) {
            wrong_type("(pc, low) tuple");
            goto fail;
        }
        SETI(t->core, C._rr_rename, (h + 1) & 3);
        Py_INCREF(fetch_buf);  /* keeps pc and low alive once it is taken */
        set_none(hart, H.fetch_buf);
        status = rename_into(t, hart, rob, PyTuple_GET_ITEM(fetch_buf, 0),
                             PyTuple_GET_ITEM(fetch_buf, 1));
        Py_DECREF(fetch_buf);
        return status < 0 ? -1 : 1;
    }
    return 0;
fail:
    return -1;
}

/* ``(pc, low)`` as a new reference: the pair lowered.py built with *low*
 * when it is that pair (this pc, this low -- a lowered program's always
 * is), else a new tuple. */
static PyObject *
fetch_pair(PyObject *pc, PyObject *low)
{
    int64_t pc_val, pair_pc;
    PyObject *pair;
    if (PyObject_TypeCheck(low, low_type)
            && (pair = SLOT(low, L.fetch_pair)) != NULL
            && PyTuple_CheckExact(pair) && PyTuple_GET_SIZE(pair) == 2
            && PyTuple_GET_ITEM(pair, 1) == low
            && one_digit(pc, &pc_val)
            && one_digit(PyTuple_GET_ITEM(pair, 0), &pair_pc)
            && pc_val == pair_pc)
        return new_ref(pair);
    return PyTuple_Pack(2, pc, low);
}

/* fetch (gated on the collapsed predicate): one hart whose next pc is known */
static int
stage_fetch(Tick *t)
{
    int64_t start;
    int k;
    GETI(start, t->core, C._rr_fetch);
    for (k = 0; k < 4; k++) {
        int h = (int)((start + k) & 3), fetch_ok;
        int64_t fetch_ready_at;
        PyObject *hart = t->hart[h], *pc, *low, *fetch_buf;
        GETB(fetch_ok, hart, H.fetch_ok);
        if (!fetch_ok)
            continue;
        GETI(fetch_ready_at, hart, H.fetch_ready_at);
        if (t->cycle < fetch_ready_at)
            continue;
        SETI(t->core, C._rr_fetch, (h + 1) & 3);
        GETO(pc, hart, H.pc);
        Py_INCREF(pc);  /* the callback below may end the hart */
        low = PyDict_Check(t->lowered)
            ? PyDict_GetItemWithError(t->lowered, pc) : NULL;
        if (low != NULL)
            Py_INCREF(low);
        else if (!PyErr_Occurred())
            /* non-code address: the slow error path */
            low = callback(t->w, t->machine, s_fetch_instruction, pc, hart,
                           NULL);
        fetch_buf = low == NULL ? NULL : fetch_pair(pc, low);
        Py_DECREF(pc);
        Py_XDECREF(low);
        if (fetch_buf == NULL)
            goto fail;
        set_obj(hart, H.fetch_buf, fetch_buf);
        Py_DECREF(fetch_buf);
        /* suspended until the next pc is known */
        set_bool(hart, H.awaiting_nextpc, 1);
        set_bool(hart, H.fetch_ok, 0);
        return 1;
    }
    return 0;
fail:
    return -1;
}

/* ---- the metrics charges ------------------------------------------------------
 * A metered machine's charges (observe/metrics.py) are made here, on the
 * CoreTelemetry slots the Python hooks write, while ``machine.metrics`` is
 * an exact Metrics whose class still has every hook it had at bind time
 * (``native_charges``): the stall classifier and the gated-idle charges
 * here, the remote etas, ``link_wait`` and the idle settlement in
 * _window.h.  Python is called only where a window edge falls inside a
 * charge (``roll`` / ``_emit``).  Otherwise -- a subclass, a replaced hook
 * -- each charge is a call to its hook, where the reference tick makes it. */

/* observe/metrics.py's STALL_REASONS, in its order (bind checks the names) */
#define REASONS(X) \
    X(fetch_starved) X(operand_wait) X(issue_wait) X(exec_wait) \
    X(local_mem_wait) X(remote_mem_wait) X(router_backpressure) \
    X(re_line_wait) X(fork_wait) X(barrier_wait) X(gated_idle)
#define REASON_INDEX(name) WHY_##name,
enum { REASONS(REASON_INDEX) REASON_COUNT };
#define REASON_NAME(name) #name,
static const char *const reason_names[REASON_COUNT] = {REASONS(REASON_NAME)};

/* the Metrics methods the charges here stand for, and the functions they
 * were at bind time */
#define HOOKS(X) \
    X(stall) X(_classify) X(_mem_reason) X(idle) X(remote_issue) \
    X(_remote_rtt) X(remote_done) X(link_wait)
#define HOOK_INDEX(name) HOOK_##name,
enum { HOOKS(HOOK_INDEX) HOOK_COUNT };
#define HOOK_NAME(name) &s_##name,
static PyObject **const hook_name[HOOK_COUNT] = {HOOKS(HOOK_NAME)};
static PyObject *hook_fn[HOOK_COUNT];

/* 1: *metrics* is an exact Metrics (``__slots__``: no instance attribute
 * shadows a hook) and its class still has every bind-time hook; 0: the
 * charges are calls to the hooks */
static int
hooks_native(PyObject *metrics)
{
    int k, same;
    PyObject *found;
    if (Py_TYPE(metrics) != metrics_type)
        return 0;
    for (k = 0; k < HOOK_COUNT; k++) {
        if ((found = PyObject_GetAttr((PyObject *)metrics_type,
                                      *hook_name[k])) == NULL)
            return -1;
        same = found == hook_fn[k];
        Py_DECREF(found);
        if (!same)
            return 0;
    }
    return 1;
}

/* hooks_native for the machine being ticked: inside a window, as checked
 * after its last call into Python */
static inline int
native_charges(Tick *t)
{
    return t->w != NULL ? window_charges(t->w) : hooks_native(t->metrics);
}

/* ``metrics._slots[index]``: a core's CoreTelemetry, borrowed */
static PyObject *
telemetry(PyObject *metrics, int64_t index)
{
    PyObject *slots, *slot;
    GETLIST(slots, metrics, MX._slots);
    if ((slot = list_item(slots, index)) == NULL)
        goto fail;
    CHECK(slot, telemetry_type);
    return slot;
fail:
    return NULL;
}

/* ``list[index] += delta`` */
static int
list_add(PyObject *list, int64_t index, int64_t delta)
{
    int64_t value;
    PyObject *item = list_item(list, index);
    if (item == NULL)
        return -1;
    value = as_int(item);
    if ((value == -1 && PyErr_Occurred())
            || (item = PyLong_FromLongLong(value + delta)) == NULL)
        return -1;
    return PyList_SetItem(list, (Py_ssize_t)index, item);  /* steals */
}

/* Metrics.idle(index, cycle, delta): *delta* gated-idle cycles from *cycle*
 * on, split at every window edge the span reaches; each edge's window is
 * closed by ``_emit``, the one call into Python. */
static int
charge_idle(Window *w, PyObject *metrics, PyObject *index_obj, int64_t cycle,
            int64_t delta)
{
    int status = -1;
    int64_t index, interval, edge, end = cycle + delta;
    PyObject *slot, *item, *stalls = NULL, *edges = NULL, *edge_obj = NULL;
    index = as_int(index_obj);
    if (index == -1 && PyErr_Occurred())
        return -1;
    GETI(interval, metrics, MX.interval);
    if ((slot = telemetry(metrics, index)) == NULL)
        goto fail;
    GETLIST(stalls, slot, TS.stalls);
    GETLIST(edges, metrics, MX.edges);
    /* what Metrics.idle holds in locals across its _emit calls */
    Py_INCREF(slot);
    Py_INCREF(stalls);
    Py_INCREF(edges);
    if ((item = list_item(edges, index)) == NULL)
        goto release;
    edge = as_int(item);
    if (edge == -1 && PyErr_Occurred())
        goto release;
    while (edge <= end) {
        if (interval < 1) {
            PyErr_Format(PyExc_ValueError,
                         "metrics interval must be >= 1, got %lld",
                         (long long)interval);
            goto release;
        }
        if (edge > cycle) {
            if (list_add(stalls, WHY_gated_idle, edge - cycle) < 0)
                goto release;
            cycle = edge;
        }
        if ((edge_obj = PyLong_FromLongLong(edge)) == NULL
                || called(callback(w, metrics, s__emit, index_obj, slot,
                                   edge_obj)) < 0)
            goto release;
        Py_DECREF(edge_obj);
        edge += interval;
        if ((edge_obj = PyLong_FromLongLong(edge)) == NULL
                || list_set(edges, index, edge_obj) < 0)
            goto release;
        Py_CLEAR(edge_obj);
    }
    if (end > cycle && list_add(stalls, WHY_gated_idle, end - cycle) < 0)
        goto release;
    status = 0;
release:
    Py_XDECREF(edge_obj);
    Py_DECREF(slot);
    Py_DECREF(stalls);
    Py_DECREF(edges);
    return status;
fail:
    return -1;
}

/* Metrics._mem_reason: a remote access of *hart* in flight past its
 * uncontended eta was held up by contention; none in flight, a local one */
static int
mem_reason(PyObject *slot, PyObject *hart, int64_t cycle)
{
    int64_t eta;
    PyObject *fifos, *gid, *fifo;
    GETO(fifos, slot, TS.remote_inflight);
    if (!PyDict_Check(fifos)) {
        wrong_type("dict of remote etas");
        goto fail;
    }
    GETO(gid, hart, H.gid);
    if ((fifo = PyDict_GetItemWithError(fifos, gid)) == NULL) {
        if (PyErr_Occurred())
            goto fail;
        return WHY_local_mem_wait;
    }
    if (!PyList_Check(fifo)) {
        wrong_type("list of remote etas");
        goto fail;
    }
    if (PyList_GET_SIZE(fifo) == 0)
        return WHY_local_mem_wait;
    eta = as_int(PyList_GET_ITEM(fifo, 0));
    if (eta == -1 && PyErr_Occurred())
        goto fail;
    return cycle >= eta ? WHY_router_backpressure : WHY_remote_mem_wait;
fail:
    return -1;
}

/* Metrics._classify: the one reason a busy core did not commit this cycle.
 * The representative is the first hart, in this cycle's commit scan order,
 * that holds a ROB head -- the instruction the commit stage looked at and
 * rejected. */
static int
classify(Tick *t, PyObject *slot)
{
    int64_t start, cls;
    Py_ssize_t i;
    int k, flag;
    PyObject *rep = NULL, *rob = NULL, *head, *ret_action, *pred, *it, *low;
    GETI(start, t->core, C._rr_commit);
    for (k = 0; k < 4 && rep == NULL; k++) {
        GETLIST(rob, t->hart[(start + k) & 3], H.rob);
        if (PyList_GET_SIZE(rob))
            rep = t->hart[(start + k) & 3];
    }
    if (rep == NULL)
        return WHY_fetch_starved;
    head = PyList_GET_ITEM(rob, 0);
    CHECK(head, entry_type);
    GETO(ret_action, head, E.ret_action);
    if (ret_action != Py_None) {
        GETB(flag, head, E.done);
        if (flag) {
            /* p_ret held at the ordered-release barrier: predecessor's
             * ending signal pending, or own stores still in flight */
            GETO(pred, rep, H.pred);
            if (pred != Py_None) {
                GETB(flag, rep, H.pred_done);
                if (!flag)
                    return WHY_barrier_wait;
            }
            GETB(flag, rep, H.outstanding_mem);
            return flag ? mem_reason(slot, rep, t->cycle) : WHY_barrier_wait;
        }
    }
    GETLIST(it, rep, H.it);
    for (i = 0; i < PyList_GET_SIZE(it); i++)
        if (PyList_GET_ITEM(it, i) == head)
            break;
    GETO(low, head, E.low);
    CHECK(low, low_type);
    GETI(cls, low, L.cls);
    if (i < PyList_GET_SIZE(it)) {
        /* head not yet issued */
        GETB(flag, head, E.nwaits);
        if (flag)
            return WHY_operand_wait;
        if (cls == cls_p_lwre)
            return WHY_re_line_wait;
        if (cls == cls_p_fc || cls == cls_p_fn)
            return WHY_fork_wait;
        if (cls == cls_load || cls == cls_store || cls == cls_p_lwcv
                || cls == cls_p_swcv || cls == cls_p_syncm)
            return mem_reason(slot, rep, t->cycle);
        return WHY_issue_wait;
    }
    /* issued; completion in flight */
    if (cls == cls_load || cls == cls_store || cls == cls_p_lwcv
            || cls == cls_p_swcv)
        return mem_reason(slot, rep, t->cycle);
    if (cls == cls_p_swre)
        return WHY_re_line_wait;
    return WHY_exec_wait;
fail:
    return -1;
}

/* Metrics.stall(core, cycle): the one non-retiring stage-cycle of a busy
 * core.  (Not inlined, nor is the prologue: the unmetered tick_core keeps
 * its stages inline.) */
static NOINLINE int
charge_stall(Tick *t)
{
    int native, reason;
    int64_t index;
    PyObject *slot, *stalls;
    if ((native = native_charges(t)) <= 0)
        return native < 0 ? -1 : called(callback(t->w, t->metrics, s_stall,
                                                 t->core, t->cycle_obj,
                                                 NULL));
    GETI(index, t->core, C.index);
    if ((slot = telemetry(t->metrics, index)) == NULL
            || (reason = classify(t, slot)) < 0)
        goto fail;
    GETLIST(stalls, slot, TS.stalls);
    return list_add(stalls, reason, 1);
fail:
    return -1;
}

/* The metered prologue, in the reference tick's order so the idle / roll
 * charges land exactly where it makes them.  1: go on; 0: the core holds
 * no work and the idle cycle is charged. */
static NOINLINE int
metered_prologue(Tick *t, PyObject *metrics)
{
    int h, work, native;
    int64_t edge;
    PyObject *index, *edges, *item;
    GETO(index, t->core, C.index);
    for (h = 0; h < 4; h++) {
        if ((work = holds_work(t->hart[h])) < 0)
            goto fail;
        if (work)
            break;
    }
    if ((native = native_charges(t)) < 0)
        goto fail;
    if (h == 4) {
        PyObject *one;
        if (native)
            return charge_idle(t->w, metrics, index, t->cycle, 1) < 0 ? -1
                : 0;
        if ((one = PyLong_FromLong(1)) == NULL)
            goto fail;
        work = called(callback(t->w, metrics, s_idle, index, t->cycle_obj,
                               one));
        Py_DECREF(one);
        return work < 0 ? -1 : 0;
    }
    if (native) {
        /* ``metrics.edges[index]``, read by offset */
        GETLIST(edges, metrics, MX.edges);
        if ((item = PyObject_GetItem(edges, index)) == NULL)
            goto fail;
    } else {
        if ((edges = PyObject_GetAttr(metrics, s_edges)) == NULL)
            goto fail;
        item = PyObject_GetItem(edges, index);
        Py_DECREF(edges);
        if (item == NULL)
            goto fail;
    }
    edge = as_int(item);
    Py_DECREF(item);
    if (edge == -1 && PyErr_Occurred())
        goto fail;
    if (t->cycle >= edge
            && called(callback(t->w, metrics, s_roll, index, t->cycle_obj,
                               NULL)) < 0)
        goto fail;
    return 1;
fail:
    return -1;
}

/* No stage fired, so this core's state is frozen until one of its two
 * cycle-reading predicates turns true -- a filled writeback buffer's
 * ready_at, a fetch-ready hart's fetch_ready_at, both > cycle or a stage
 * had fired -- or an event addressed to this domain runs (dispatch clears
 * sleep_until).  0: no hart holds work, gate off; 1: parked. */
static int
park(Tick *t)
{
    int64_t wake, fetch_ready_at;
    int h, busy = 0, fetch_ok, work;
    GETI(wake, t->core, C._wb_wake);
    for (h = 0; h < 4; h++) {
        GETB(fetch_ok, t->hart[h], H.fetch_ok);
        if (fetch_ok) {
            busy = 1;
            GETI(fetch_ready_at, t->hart[h], H.fetch_ready_at);
            if (fetch_ready_at < wake)
                wake = fetch_ready_at;
        } else if (!busy) {
            if ((work = holds_work(t->hart[h])) < 0)
                goto fail;
            busy = work;
        }
    }
    if (!busy)
        return 0;
    if (wake == never_val)
        set_obj(t->core, C.sleep_until, never_obj);
    else
        SETI(t->core, C.sleep_until, wake);
    return 1;
fail:
    return -1;
}

/* Run the five stages of t->core for one cycle.  1 when any hart had
 * pipeline work; 0 means the core is quiescent and the cycle loop may gate
 * it off until Hart.start re-activates it. */
static int
tick_core(Tick *t)
{
    PyObject *harts;
    int h, busy = 1, committed, fired = 0, status;
    const int metered = t->metrics != Py_None;

    GETLIST(harts, t->core, C.harts);
    if (PyList_GET_SIZE(harts) != 4) {
        wrong_type("list of four harts");
        goto fail;
    }
    for (h = 0; h < 4; h++) {
        t->hart[h] = PyList_GET_ITEM(harts, h);
        CHECK(t->hart[h], hart_type);
    }
    if (metered && (busy = metered_prologue(t, t->metrics)) <= 0)
        return busy;
    if ((committed = stage_commit(t)) < 0
            || (fired = stage_writeback(t)) < 0
            || (status = stage_issue(t)) < 0)
        goto fail;
    fired |= status;
    if ((status = stage_rename(t)) < 0)
        goto fail;
    fired |= status;
    if ((status = stage_fetch(t)) < 0)
        goto fail;
    fired |= status;
    if (metered) {
        if (!committed && charge_stall(t) < 0)
            goto fail;
    } else if (!(fired || committed)) {
        /* a stage that fires implies the core held work, so "any work at
         * all?" is asked only when nothing fired */
        busy = park(t);
    }
    return busy;
fail:
    return -1;
}

/* Core.tick() called on its own (a test, a wrapper around it): "now" is
 * what the machine's attributes say. */
static PyObject *
core_tick(PyObject *core, PyObject *Py_UNUSED(ignored))
{
    Tick t = {.core = core};
    PyObject *result = NULL;
    int busy;

    GETO(t.machine, core, C.machine);
    if ((t.metrics = PyObject_GetAttr(t.machine, s_metrics)) == NULL
            || (t.lowered = PyObject_GetAttr(t.machine, s_lowered)) == NULL
            || (t.cycle_obj = PyObject_GetAttr(t.machine, s_cycle)) == NULL)
        goto fail;
    t.cycle = PyLong_AsLongLong(t.cycle_obj);
    if ((t.cycle == -1 && PyErr_Occurred())
            || (t.next_obj = PyLong_FromLongLong(t.cycle + 1)) == NULL
            || (busy = tick_core(&t)) < 0)
        goto fail;
    result = busy ? Py_True : Py_False;
    Py_INCREF(result);
fail:
    Py_XDECREF(t.metrics);
    Py_XDECREF(t.lowered);
    Py_XDECREF(t.cycle_obj);
    Py_XDECREF(t.next_obj);
    return result;
}

static PyMethodDef tick_def = {
    "tick", core_tick, METH_NOARGS,
    "Run the five stages for one cycle (commit-side first); the compiled "
    "tick, machine/_tick.c."};

/* bind()'s Core.tick and Core.settle_idle: the window calls tick_core /
 * settle directly only while ``type(core).tick`` / ``.settle_idle`` is
 * this very object */
static PyObject *tick_descr, *settle_descr;

#include "_window.h"

/* ---- module ------------------------------------------------------------------ */

/* Fill *offsets* (one Py_ssize_t per name) from the member descriptors of
 * *cls*; every name must be an object slot of it. */
static int
resolve_slots(PyTypeObject *cls, const char *const *names, void *table)
{
    Py_ssize_t *offsets = table;
    for (; *names != NULL; names++, offsets++) {
        PyObject *descr = PyObject_GetAttrString((PyObject *)cls, *names);
        PyMemberDef *member;
        if (descr == NULL)
            return -1;
        member = Py_TYPE(descr) == &PyMemberDescr_Type
            ? ((PyMemberDescrObject *)descr)->d_member : NULL;
        if (member == NULL || member->type != T_OBJECT_EX) {
            PyErr_Format(PyExc_TypeError, "%S.%s is not a __slots__ member",
                         cls, *names);
            Py_DECREF(descr);
            return -1;
        }
        *offsets = member->offset;
        Py_DECREF(descr);
    }
    return 0;
}

/* Is *reasons* STALL_REASONS as the classifier here numbers them? */
static int
check_reasons(PyObject *reasons)
{
    Py_ssize_t i;
    if (PyTuple_GET_SIZE(reasons) != REASON_COUNT)
        goto differ;
    for (i = 0; i < REASON_COUNT; i++) {
        PyObject *name = PyTuple_GET_ITEM(reasons, i);
        if (!PyUnicode_Check(name)
                || PyUnicode_CompareWithASCIIString(name, reason_names[i]))
            goto differ;
    }
    return 0;
differ:
    PyErr_SetString(PyExc_ValueError,
                    "bind: STALL_REASONS are not the classifier's");
    return -1;
}

/* Are *tags* and *shifts* router.LINK_TAGS and LINK_SHIFTS as LINK_TAGS
 * here codes them?  A RuntimeError if not: the loader falls back to the
 * reference tick. */
static int
check_link_tags(PyObject *tags, PyObject *shifts)
{
    Py_ssize_t i;
    if (PyTuple_GET_SIZE(tags) != LINK_TAG_COUNT
            || PyTuple_GET_SIZE(shifts) != LINK_TAG_COUNT)
        goto differ;
    for (i = 0; i < LINK_TAG_COUNT; i++) {
        PyObject *tag = PyTuple_GET_ITEM(tags, i);
        PyObject *shift = PyTuple_GET_ITEM(shifts, i);
        if (!PyUnicode_Check(tag)
                || PyUnicode_CompareWithASCIIString(tag, link_tags[i])
                || !PyLong_Check(shift)
                || PyLong_AsLong(shift) != link_shifts[i])
            goto differ;
    }
    return 0;
differ:
    PyErr_SetString(PyExc_RuntimeError, "bind: router.LINK_TAGS and "
                    "LINK_SHIFTS are not the window's link table");
    return -1;
}

static PyObject *
tick_bind(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyTypeObject *core, *hart, *rb, *entry, *low, *stats, *mem, *bank, *port,
        *counters, *links, *machine;
    PyObject *tags, *shifts, *never, *handlers, *simulate, *bound;
    long long jal, lui, auipc, load, store, p_lwcv, never_value, base, size;
    long long cv[4];
    int h;
    if (!PyArg_ParseTuple(args,
                          "O!O!O!O!O!O!O!O!O!O!O!O!O!O!O!O!LLLLLLLL(LLLL):bind",
                          &PyType_Type, &core, &PyType_Type, &hart,
                          &PyType_Type, &rb, &PyType_Type, &entry,
                          &PyType_Type, &low, &PyType_Type, &stats,
                          &PyType_Type, &mem, &PyType_Type, &bank,
                          &PyType_Type, &port, &PyType_Type, &counters,
                          &PyType_Type, &links, &PyTuple_Type, &tags,
                          &PyTuple_Type, &shifts, &PyType_Type, &machine,
                          &PyDict_Type, &handlers, &PyLong_Type, &never,
                          &jal, &lui, &auipc, &load, &store, &p_lwcv, &base,
                          &size, &cv[0], &cv[1], &cv[2], &cv[3]))
        return NULL;
    if (check_link_tags(tags, shifts) < 0)
        return NULL;
    if (size <= 0) {
        PyErr_SetString(PyExc_ValueError, "bind: a shared bank of no bytes");
        return NULL;
    }
    never_value = PyLong_AsLongLong(never);
    if (never_value == -1 && PyErr_Occurred())
        return NULL;
    if (resolve_slots(core, C_names, &C) < 0
            || resolve_slots(hart, H_names, &H) < 0
            || resolve_slots(rb, R_names, &R) < 0
            || resolve_slots(entry, E_names, &E) < 0
            || resolve_slots(low, L_names, &L) < 0
            || resolve_slots(stats, S_names, &S) < 0
            || resolve_slots(mem, M_names, &M) < 0
            || resolve_slots(bank, B_names, &B) < 0
            || resolve_slots(port, P_names, &P) < 0
            || resolve_slots(counters, K_names, &K) < 0
            || resolve_slots(links, LS_names, &LS) < 0)
        return NULL;
    /* rename builds Entry objects slot by slot, without __init__, and
     * commit empties them the same way: that is only right while these are
     * all the slots an Entry has (a class with slots is collectable) */
    if (entry->tp_basicsize != (Py_ssize_t)(sizeof(PyObject)
            + ENTRY_NSLOTS * sizeof(PyObject *))
            || entry->tp_itemsize != 0 || !PyType_IS_GC(entry)) {
        PyErr_SetString(PyExc_TypeError,
                        "Entry has slots the compiled tick does not fill");
        return NULL;
    }
    /* the memory-access event kinds have a native spelling, used only
     * while the table still names the functions it names now */
    if (keep_handlers(handlers) < 0)
        return NULL;
    entry_pool_clear();  /* they are of the Entry class bound before */
    KEEP(core_type, core);
    KEEP(hart_type, hart);
    KEEP(rb_type, rb);
    KEEP(entry_type, entry);
    KEEP(low_type, low);
    KEEP(stats_type, stats);
    KEEP(mem_type, mem);
    KEEP(bank_type, bank);
    KEEP(port_type, port);
    KEEP(counters_type, counters);
    KEEP(links_type, links);
    KEEP(never_obj, never);
    never_val = never_value;
    cls_jal = jal;
    cls_lui = lui;
    cls_auipc = auipc;
    cls_load = load;
    cls_store = store;
    cls_p_lwcv = p_lwcv;
    global_base = base;
    global_bank_size = size;
    for (h = 0; h < 4; h++)
        cv_base[h] = cv[h];
    Py_XSETREF(tick_descr, PyDescr_NewMethod(core, &tick_def));
    Py_XSETREF(settle_descr, PyDescr_NewMethod(core, &settle_def));
    if (tick_descr == NULL || settle_descr == NULL
            || (simulate = PyDescr_NewMethod(machine, &simulate_def)) == NULL)
        return NULL;
    bound = PyTuple_Pack(3, tick_descr, settle_descr, simulate);
    Py_DECREF(simulate);
    return bound;
}

/* The metrics classes, bound apart: observe/metrics.py binds them when it
 * is first imported, so that an unmetered process never imports it.  Until
 * then (and on a failed bind) no object is an exact Metrics here, and every
 * charge is a call to its hook. */
static PyObject *
tick_bind_metrics(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyTypeObject *metrics, *telemetry;
    PyObject *reasons, *hook[HOOK_COUNT];
    long long p_swcv, p_syncm, p_lwre, p_swre, p_fc, p_fn;
    int k;
    if (!PyArg_ParseTuple(args, "O!O!O!(LLLLLL):bind_metrics",
                          &PyType_Type, &metrics, &PyType_Type, &telemetry,
                          &PyTuple_Type, &reasons, &p_swcv, &p_syncm,
                          &p_lwre, &p_swre, &p_fc, &p_fn))
        return NULL;
    Py_CLEAR(metrics_type);
    if (check_reasons(reasons) < 0
            || resolve_slots(metrics, MX_names, &MX) < 0
            || resolve_slots(telemetry, TS_names, &TS) < 0)
        return NULL;
    /* the charges are made here while Metrics has these very functions */
    for (k = 0; k < HOOK_COUNT; k++)
        if ((hook[k] = PyObject_GetAttr((PyObject *)metrics,
                                        *hook_name[k])) == NULL) {
            while (k--)
                Py_DECREF(hook[k]);
            return NULL;
        }
    for (k = 0; k < HOOK_COUNT; k++)
        Py_XSETREF(hook_fn[k], hook[k]);
    cls_p_swcv = p_swcv;
    cls_p_syncm = p_syncm;
    cls_p_lwre = p_lwre;
    cls_p_swre = p_swre;
    cls_p_fc = p_fc;
    cls_p_fn = p_fn;
    KEEP(telemetry_type, telemetry);
    KEEP(metrics_type, metrics);
    Py_RETURN_NONE;
}

static PyObject *
tick_alu(PyObject *Py_UNUSED(module), PyObject *args)
{
    long long op, a, b;
    if (!PyArg_ParseTuple(args, "LLL:alu", &op, &a, &b))
        return NULL;
    if (op < 0 || op >= A_COUNT) {
        PyErr_SetString(PyExc_ValueError, "alu: no such op");
        return NULL;
    }
    return PyLong_FromUnsignedLong(alu(op, a, b));
}

static PyObject *
tick_branch(PyObject *Py_UNUSED(module), PyObject *args)
{
    long long op, a, b;
    if (!PyArg_ParseTuple(args, "LLL:branch", &op, &a, &b))
        return NULL;
    if (op < 0 || op >= B_COUNT) {
        PyErr_SetString(PyExc_ValueError, "branch: no such op");
        return NULL;
    }
    return PyBool_FromLong(branch(op, a, b));
}

static PyObject *
tick_as_int(PyObject *Py_UNUSED(module), PyObject *obj)
{
    int64_t value = as_int(obj);
    if (value == -1 && PyErr_Occurred())
        return NULL;
    return PyLong_FromLongLong(value);
}

/* ``bytearray(n)`` without the memset, for memory.Bank: the same type,
 * length and contents, but the pages of a large one are mapped in when
 * first touched, not when the bank is built.  A calloc alone does not do
 * that for long: once the C library has freed a large block it raises its
 * mmap threshold, serves the next ones from the heap, and clears them
 * there.  So the buffer is malloc'd uncleared, the whole pages inside it
 * are handed back (``MADV_DONTNEED``: an anonymous page reads as zeros
 * when next touched) and only the partial pages at its ends are cleared
 * (all of a buffer with no whole page inside); where that is not Linux,
 * or madvise fails, the whole buffer is cleared.  The buffer comes from
 * the allocator domain CPython resizes and frees every bytearray's with:
 * the object domain (``PyObject_Realloc`` / ``PyObject_Free``) before
 * 3.13, the ``PyMem_`` one from 3.13 on.  It keeps the trailing NUL a
 * bytearray always has: ``ob_alloc`` is n + 1.  The fields are the same
 * on 3.9-3.13. */
#if PY_VERSION_HEX >= 0x030D0000
#define BYTEARRAY_MALLOC PyMem_Malloc
#define BYTEARRAY_FREE PyMem_Free
#else
#define BYTEARRAY_MALLOC PyObject_Malloc
#define BYTEARRAY_FREE PyObject_Free
#endif

/* *size* zero bytes, their whole pages unmapped until first touched */
static char *
lazy_zeroes(size_t size)
{
    char *bytes;
    if ((bytes = BYTEARRAY_MALLOC(size)) == NULL)
        return NULL;
#if defined(__linux__) && defined(MADV_DONTNEED)
    {
        uintptr_t page = (uintptr_t)sysconf(_SC_PAGESIZE);
        char *first = (char *)(((uintptr_t)bytes + page - 1) & ~(page - 1));
        char *last = (char *)(((uintptr_t)bytes + size) & ~(page - 1));
        if (first < last
                && madvise(first, last - first, MADV_DONTNEED) == 0) {
            memset(bytes, 0, first - bytes);
            memset(last, 0, bytes + size - last);
            return bytes;
        }
    }
#endif
    memset(bytes, 0, size);
    return bytes;
}

static PyObject *
tick_zeroed(PyObject *Py_UNUSED(module), PyObject *arg)
{
    PyByteArrayObject *array;
    char *bytes;
    Py_ssize_t n = PyNumber_AsSsize_t(arg, PyExc_OverflowError);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    if (n < 0) {
        PyErr_SetString(PyExc_ValueError, "zeroed: negative size");
        return NULL;
    }
    array = (PyByteArrayObject *)PyByteArray_FromStringAndSize(NULL, 0);
    if (array == NULL || n == 0)
        return (PyObject *)array;
    if (n == PY_SSIZE_T_MAX || (bytes = lazy_zeroes((size_t)n + 1)) == NULL) {
        Py_DECREF(array);
        return PyErr_NoMemory();
    }
    BYTEARRAY_FREE(array->ob_bytes);  /* NULL for an empty one */
    array->ob_bytes = array->ob_start = bytes;
    array->ob_alloc = n + 1;
    Py_SET_SIZE(array, n);
    return (PyObject *)array;
}

static PyObject *
tick_parked_entries(PyObject *Py_UNUSED(module), PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue("ii", entry_pool_size, ENTRY_POOL_MAX);
}

static PyMethodDef module_methods[] = {
    {"bind", tick_bind, METH_VARARGS,
     "bind(Core, Hart, ResultBuffer, Entry, LoweredInstr, HartStats, "
     "CoreMemory, Bank, Port, CoreCounters, LinkScheduler, LINK_TAGS, "
     "LINK_SHIFTS, LBP, "
     "EVENT_HANDLERS, NEVER, cls_jal, cls_lui, cls_auipc, cls_load, "
     "cls_store, cls_p_lwcv, GLOBAL_BASE, GLOBAL_BANK_SIZE, cv_bases) -> the "
     "method descriptors (Core.tick, Core.settle_idle, LBP._simulate)."
     "\n\nResolves every slot offset they use; raises if a class lacks "
     "one."},
    {"bind_metrics", tick_bind_metrics, METH_VARARGS,
     "bind_metrics(Metrics, CoreTelemetry, STALL_REASONS, (cls_p_swcv, "
     "cls_p_syncm, cls_p_lwre, cls_p_swre, cls_p_fc, cls_p_fn)): the "
     "compiled kernel charges for an exact Metrics itself from now on."},
    {"alu", tick_alu, METH_VARARGS,
     "alu(op, a, b) -> the 32-bit result of ALU_CODES[op] (for tests)."},
    {"branch", tick_branch, METH_VARARGS,
     "branch(op, a, b) -> whether BRANCH_CODES[op] is taken (for tests)."},
    {"as_int", tick_as_int, METH_O,
     "as_int(obj) -> the int64 every slot read makes of obj (for tests)."},
    {"zeroed", tick_zeroed, METH_O,
     "zeroed(n) -> bytearray(n), its pages mapped in when first touched."},
    {"parked_entries", tick_parked_entries, METH_NOARGS,
     "parked_entries() -> (retired Entry objects parked for rename, the "
     "bound on that number) (for tests)."},
    {NULL, NULL, 0, NULL}};

static struct PyModuleDef module_def = {
    PyModuleDef_HEAD_INIT, "_tick",
    "The compiled Core.tick and LBP._simulate (see machine/native.py for "
    "the loader).", -1, module_methods, NULL, NULL, NULL, NULL};

PyMODINIT_FUNC
PyInit__tick(void)
{
#define STRING_INTERN(name, text) \
    if (s_##name == NULL \
            && (s_##name = PyUnicode_InternFromString(text)) == NULL) \
        return NULL;
    STRINGS(STRING_INTERN)
    if (zero_obj == NULL && (zero_obj = PyLong_FromLong(0)) == NULL)
        return NULL;
    if (import_heapq() < 0)
        return NULL;
    return PyModule_Create(&module_def);
}
