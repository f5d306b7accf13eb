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
 * One layout at rest.  Every object the tick touches (Core, Hart,
 * ResultBuffer, Entry, LoweredInstr, HartStats) has ``__slots__``, so a
 * slot is a ``PyObject *`` at a fixed offset of the instance.  ``bind``
 * resolves the offsets once from the classes' member descriptors (CPython
 * orders slots by name, so they are never hard-coded) and fails if a slot
 * it names is missing.  The Python side -- event handlers, ``Hart.start``,
 * ``ResultBuffer.fill``, ``state_dict``, the sanitizer, the metrics --
 * keeps reading and writing the very same slots.  While C runs, the
 * scalars of Core, Hart, HartStats and CoreCounters live in the *core
 * view* instead (below): typed, loaded whole from the slots when first
 * touched, written back before Python can look.  So does each hart's instruction
 * window -- its ROB and instruction table, writeback buffer, register file
 * and rename table -- as *the instruction ring*.
 *
 * What makes it fast, none of which may be observable:
 *   - Stage gating: ``Hart.fetch_ok`` (the fetch predicate minus its
 *     timer), ``Hart.n_ready`` (operand-ready waiting instructions) and
 *     ``Core._wb_wake`` (a lower bound on the next cycle a filled
 *     writeback buffer can drain) are maintained at the state-transition
 *     sites; a stage whose gate is closed touches no hart.
 *   - ALU/MULDIV, branches, jal, lui and auipc issue here, through the
 *     ``alu_op`` / ``br_op`` switches below, and so do jalr, p_set,
 *     p_merge, p_syncm, the p_ret decision and SYSTEM / FENCE
 *     (``execute_local``); they need nothing from the machine.
 *   - Parking: an unmetered tick in which no stage fired cannot have
 *     changed anything, and nothing will change before a timer the core
 *     owns expires (a filled buffer's ``ready_at``, a fetch-ready hart's
 *     ``fetch_ready_at``) or an event addressed to this domain runs.  It
 *     stores that expiry in ``sleep_until``; the cycle loop skips the core
 *     until then and event dispatch clears it.  Never with metrics
 *     attached: the stall classifier charges every busy cycle.
 *   - Metrics charges: a metered tick classifies its stall and charges
 *     its idle cycle here, on the CoreTelemetry slots ``Metrics.stall`` /
 *     ``idle`` write (see "the metrics charges" below).
 *   - No object traffic the state does not need.  Slots keep holding the
 *     Python values they always held; what went is the allocation and the
 *     call per instruction around them:
 *     . a slot is read as a number by ``as_int``: an exact ``int`` of up
 *       to three digits inline, anything else through
 *       ``PyLong_AsLongLong``, so a value or an error is the one that call
 *       gives;
 *     . ``rob.pop(0)`` and the removal from the instruction table move
 *       the list's tail down in place (``list_take``);
 *     . *shared immutable boxes*: the window boxes ``cycle`` and
 *       ``cycle + 1`` once, when first needed, and every timer set to one
 *       of them (a latency-1 ``ready_at``; a view field's flush) stores
 *       that object.  Each slot owns a reference, an int cannot be
 *       mutated, and nothing compares timers by identity;
 *     . *no object per instruction*: an in-flight instruction is a record
 *       of its hart's ring, and its ``Entry`` is made only when Python
 *       could see it -- at the flush before a call into Python or on the
 *       way out, or for the call that takes it (``Core._execute``,
 *       ``_commit_p_ret``).  Most are renamed, issued, written back and
 *       committed between two calls and never have one; one that has
 *       keeps it until it commits, and then holds what the reference tick
 *       leaves in it;
 *     . *decode records*: what the stages read of a ``LoweredInstr`` is
 *       read once per (pc, instruction) per window (``Decode``), and fetch
 *       probes ``lowered`` once per pc per window: nothing writes either
 *       during a run.  A hart's pc is an int64 of its view and its fetch
 *       buffer the decode record it names; the flush boxes the pc and
 *       stores the ``(pc, low)`` that ``lowered.py`` built;
 *     . *typed memory traffic*: an event the window posts holds its args
 *       as int64s typed by its kind's shape, a bank reference as a core
 *       index and a shared bit, a load mnemonic as its position in a
 *       table, and a tuple is made only where it leaves C; a Port the
 *       window reserves is a cursor of its own, and a core's banks, ports
 *       and link scheduler are parts of its view (_window.h, "events at
 *       rest" and "the memory view"), so an access makes no object from
 *       its issue to its reply.
 *
 * What needs the machine is issued by the cycle window (_window.h), which
 * records what the trace and the sanitizer observe of it itself
 * (``window_native``): a load or store to the core's own banks or to
 * another core's shared bank and ``p_lwcv`` (``mem_access``), every X_PAR
 * message (``team_execute``), issue's free-hart probe, decode's fork
 * request (``send_fork_req``) and the p_ret commit (``commit_p_ret``).
 * Whether a site is spelled here is decided from the machine's state
 * alone, never from which function a name holds.  Everything else is a
 * call back into the one Python implementation, by name, at the call site
 * the reference tick makes it: ``Core._execute`` (code-bank and device
 * accesses, a step whose Python spelling words a machine error),
 * ``Core._commit_p_ret``, ``Core.alloc_free_hart``,
 * ``machine.send_fork_req`` / ``fetch_instruction`` / ``error`` and --
 * once a run -- ``halt``, ``metrics.roll`` and a window edge's ``_emit``.
 * Rules for the calls:
 *   - every one goes through ``callback``, which first flushes the views
 *     and lets the window publish ``machine.cycle`` and ``machine._origin``;
 *   - a callee may write any slot, so nothing read before a call is
 *     trusted after it: the view loads whole again after a call
 *     (``fresh`` / ``tick_view`` before the next use of one that may have
 *     called);
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
    X(sleep_until) X(links) X(fork_queue) X(_seq) X(_tag) X(_rr_fetch) \
    X(_rr_rename) X(_rr_issue) X(_rr_wb) X(_rr_commit) X(_rob_size) \
    X(_wb_wake)
#define HART_SLOTS(X) \
    X(regs) X(rename) X(pc) X(awaiting_nextpc) X(fetch_ready_at) \
    X(syncm_block) X(fetch_buf) X(it) X(rob) X(rb) X(re_buffers) \
    X(re_waiters) X(outstanding_mem) X(reserved) X(waiting_join) \
    X(pending_join) X(pred) X(pred_done) X(succ) X(fork_tokens) X(stats) \
    X(fetch_ok) X(n_ready) X(gid) X(index)
#define RB_SLOTS(X) X(busy) X(tag) X(reg) X(value) X(ready_at) X(entry)
#define ENTRY_SLOTS(X) \
    X(tag) X(low) X(pc) X(val0) X(val1) X(wait0) X(wait1) X(nwaits) \
    X(issued) X(done) X(ret_action)
#define LOW_SLOTS(X) \
    X(cls) X(rd) X(imm) X(nreads) X(r1) X(r2) X(writes) X(alu_op) X(br_op) \
    X(latency) X(re_slot) X(dec_kind) X(issue_kind) X(store_like) X(trap) \
    X(width) X(mnemonic) X(fetch_pair)
#define STATS_SLOTS(X) X(retired) X(loads) X(stores) X(forks)
#define MEM_SLOTS(X) \
    X(local) X(shared) X(local_port) X(shared_local_port) X(shared_router_port)
#define BANK_SLOTS(X) X(base) X(data)
#define PORT_SLOTS(X) X(next_free)
#define COUNTER_SLOTS(X) \
    X(local_accesses) X(remote_accesses) X(forks) X(joins) X(re_messages) \
    X(skipped_cycles)
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
    *links_type, *metrics_type, *telemetry_type, *trace_type;
/* hart.py's NEVER, as the object to store and the value to compare */
static PyObject *never_obj;
static int64_t never_val;
/* LoweredInstr.cls of every class issued here by class (isa/spec.py's
 * InstrClass members; bind is given them in this order) */
#define CLASSES(X) \
    X(jal) X(jalr) X(lui) X(auipc) X(load) X(store) X(system) X(fence) \
    X(p_fc) X(p_fn) X(p_swcv) X(p_lwcv) X(p_swre) X(p_lwre) X(p_jal) \
    X(p_jalr) X(p_set) X(p_merge) X(p_syncm)
#define CLASS_VAR(name) static int64_t cls_##name;
CLASSES(CLASS_VAR)
/* memmap.py: where the shared banks start, how big each is, and
 * hart_cv_base(h) for the four harts of a core */
static int64_t global_base, global_bank_size, cv_base[4];
/* processor.RE_ACK_LATENCY: a p_swre delivery's ack takes this long */
static int64_t re_ack_latency;

static PyObject *zero_obj;
/* interned names and constants; PyInit__tick fills them from STRINGS */
#define STRINGS(X) \
    X(metrics, "metrics") X(cycle, "cycle") X(lowered, "lowered") \
    X(roll, "roll") X(halt, "halt") X(error, "error") X(ebreak, "ebreak") \
    X(ecall, "ecall is not supported on bare-metal LBP") \
    X(commit_p_ret, "_commit_p_ret") X(execute, "_execute") \
    X(alloc_free_hart, "alloc_free_hart") X(send_fork_req, "send_fork_req") \
    X(fetch_instruction, "fetch_instruction") X(tick, "tick") \
    X(_events, "_events") X(cores, "cores") \
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
    X(num_cores, "num_cores") X(_emit, "_emit") \
    X(link_hop_latency, "link_hop_latency") X(cv_write, "cv_write") \
    X(rreq_cv, "rreq_cv") X(cv_apply, "cv_apply") X(rack_cv, "rack_cv") \
    X(re_deliver, "re_deliver") X(re_ack, "re_ack") X(fork_req, "fork_req") \
    X(fork_grant, "fork_grant") X(start_pc, "start_pc") \
    X(ending_signal, "ending_signal") X(join, "join") X(exit, "exit") \
    X(wait, "wait") X(end, "end") X(cv_write_latency, "cv_write_latency") \
    X(num_result_buffers, "num_result_buffers") \
    X(lb, "lb") X(lh, "lh") X(lw, "lw") X(lbu, "lbu") X(lhu, "lhu") \
    X(p_lwcv, "p_lwcv") X(_buffers, "_buffers") X(kinds, "kinds") \
    X(_merged, "_merged") X(mem_load_req, "mem_load_req") \
    X(mem_store_req, "mem_store_req") X(mem_load, "mem_load") \
    X(mem_store, "mem_store") X(re_send, "re_send") X(fork, "fork") \
    X(start, "start") X(p_ret, "p_ret") X(acc, "acc") X(swcv, "swcv") X(lwcv, "lwcv") \
    X(swre, "swre") X(refill, "refill") X(lwre, "lwre") X(jsend, "jsend") \
    X(esig, "esig") X(pred, "pred") X(jretsend, "jretsend") \
    X(jrecv, "jrecv") X(jstart, "jstart")
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

#ifdef TICK_COUNTS
/* The counting build (``-DTICK_COUNTS``, tests/counting.py): every slot
 * access is counted by the class of the object it touches, every int boxed
 * by PyLong_FromLongLong, every tuple made by PyTuple_Pack / PyTuple_New
 * and every event posted, by kind (_window.h); ``slot_counts()`` hands the
 * counts over. */
#define COUNTED(X) \
    X(Entry) X(ResultBuffer) X(LoweredInstr) X(Core) X(Hart) X(HartStats) \
    X(CoreCounters) X(Port) X(Bank) X(CoreMemory) X(LinkScheduler) X(other)
#define COUNTED_INDEX(name) N_##name,
enum { COUNTED(COUNTED_INDEX) N_COUNTED };
static long long slot_touches[N_COUNTED], long_boxes, tuples_made;

static PyObject **
counted_slot(PyObject *obj, Py_ssize_t off)
{
    PyTypeObject *type = Py_TYPE(obj);
    slot_touches[type == entry_type ? N_Entry
                 : type == rb_type ? N_ResultBuffer
                 : type == low_type ? N_LoweredInstr
                 : PyObject_TypeCheck(obj, core_type) ? N_Core
                 : PyObject_TypeCheck(obj, hart_type) ? N_Hart
                 : type == stats_type ? N_HartStats
                 : type == counters_type ? N_CoreCounters
                 : type == port_type ? N_Port
                 : type == bank_type ? N_Bank
                 : type == mem_type ? N_CoreMemory
                 : type == links_type ? N_LinkScheduler : N_other]++;
    return (PyObject **)((char *)obj + off);
}

static PyObject *
counted_long(long long value)
{
    long_boxes++;
    return PyLong_FromLongLong(value);
}

#define SLOT(obj, off) (*counted_slot((PyObject *)(obj), (off)))
#define PyLong_FromLongLong(value) counted_long(value)
/* (a macro's own name inside it is the function) */
#define PyTuple_New(size) (tuples_made++, PyTuple_New(size))
#define PyTuple_Pack(...) (tuples_made++, PyTuple_Pack(__VA_ARGS__))
#else
#define SLOT(obj, off) (*(PyObject **)((char *)(obj) + (off)))
#endif
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

/* 1 and *value when *o* is an exact ``int`` of at most three digits whose
 * value fits an int64, read from the object itself: ``ob_digit`` under the
 * sign in ``ob_size`` before 3.12, the compact value or the digits under
 * ``long_value.lv_tag`` from 3.12.  Never raises. */
static inline int
small_int(PyObject *o, int64_t *value)
{
    const digit *d;
    Py_ssize_t size;
    uint64_t magnitude;
    if (!PyLong_CheckExact(o))
        return 0;
#if PY_VERSION_HEX >= 0x030C0000
    if (PyUnstable_Long_IsCompact((PyLongObject *)o)) {
        *value = PyUnstable_Long_CompactValue((PyLongObject *)o);
        return 1;
    }
    size = (Py_ssize_t)(((PyLongObject *)o)->long_value.lv_tag
                        >> _PyLong_NON_SIZE_BITS);
    if ((((PyLongObject *)o)->long_value.lv_tag & _PyLong_SIGN_MASK) == 2)
        size = -size;
    d = ((PyLongObject *)o)->long_value.ob_digit;
#else
    size = Py_SIZE(o);
    d = ((PyLongObject *)o)->ob_digit;
#endif
    switch (size < 0 ? -size : size) {
    case 0:
        magnitude = 0;
        break;
    case 1:
        magnitude = d[0];
        break;
    case 2:
        magnitude = d[0] | (uint64_t)d[1] << PyLong_SHIFT;
        break;
    case 3:
        /* below 2**63 (-2**63 itself is PyLong_AsLongLong's) */
        if ((uint64_t)d[2] >> (63 - 2 * PyLong_SHIFT))
            return 0;
        magnitude = d[0] | (uint64_t)d[1] << PyLong_SHIFT
            | (uint64_t)d[2] << 2 * PyLong_SHIFT;
        break;
    default:
        return 0;
    }
    *value = size < 0 ? -(int64_t)magnitude : (int64_t)magnitude;
    return 1;
}

/* ``PyLong_AsLongLong(o)`` without the call when *o* is an exact ``int``
 * small_int reads (every register value, address, tag, counter and cycle,
 * NEVER).  Anything else -- a bool, a subclass, a wider int, no int at all
 * -- is PyLong_AsLongLong's: same value, same exception.  -1 may be a
 * value: callers test PyErr_Occurred() as well. */
static inline int64_t
as_int(PyObject *o)
{
    int64_t value;
    return small_int(o, &value) ? value : PyLong_AsLongLong(o);
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
    default:  /* A_REMU: callers range-check op */
        return b == 0 ? a : a % b;
    }
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
    default: return a >= b;  /* B_BGEU: callers range-check op */
    }
}

/* ---- the tick ---------------------------------------------------------------- */

typedef struct Window Window;  /* _window.h */

/* ---- the core view ------------------------------------------------------------
 * While C runs, a core's pipeline scalars live here, typed; the slots are
 * their at-rest layout, which everything in Python reads.  A view is
 * loaded from the slots whole -- the core's scalars, its harts, their
 * HartStats and rings, its CoreCounters -- the first time C touches it in
 * a call of the window or after a call into Python (``fresh``); its memory
 * when an access first needs it (``mem_view``).  Before every call into
 * Python and on every way out it is flushed: each field C wrote since the
 * load is stored back as the object set_bool / set_int / set_obj would
 * have stored (never_obj for NEVER, the window's boxes of ``cycle`` and
 * ``cycle + 1`` for those values).  Only the load and the flush
 * (_window.h) touch these fields' slots.  A hart's ``pc`` is an int64 and
 * a has-pc flag, its ``fetch_buf`` the decode record it names (NULL for
 * None): the view holds no object of a hart's own.  The objects it points
 * to are borrowed: their slots hold them, and C changes none of them but
 * ``rename`` (``view_set_rename``). */
#define CV_INTS(X) \
    X(idle_since) X(sleep_until) X(_seq) X(_tag) X(_rr_fetch) X(_rr_rename) \
    X(_rr_issue) X(_rr_wb) X(_rr_commit) X(_wb_wake)
#define CV_BOOLS(X) X(active)
#define HV_INTS(X) X(fetch_ready_at) X(n_ready) X(outstanding_mem)
#define HV_BOOLS(X) \
    X(fetch_ok) X(awaiting_nextpc) X(syncm_block) X(reserved) X(pred_done)
#define FIELD_BIT(name) BIT_##name,
#define INT_FIELD(name) int64_t name;
#define BOOL_FIELD(name) int name;
/* (flags before ints: the flush stores in bit order, and a failed box
 * leaves its field and the ones after it dirty) */
enum { CV_BOOLS(FIELD_BIT) CV_INTS(FIELD_BIT) };
enum { BIT_pc, BIT_fetch_buf, HV_BOOLS(FIELD_BIT) HV_INTS(FIELD_BIT)
       STATS_SLOTS(FIELD_BIT) };
#define KFIELD_BIT(name) KBIT_##name,
enum { COUNTER_SLOTS(KFIELD_BIT) KV_BITS };
/* the dirty bit of a view field */
#define DIRTY(field) (1u << BIT_##field)

/* CoreView.ports: the CoreMemory's ports, in MEM_SLOTS' order */
enum { PORT_LOCAL, PORT_SHARED_LOCAL, PORT_SHARED_ROUTER };

/* ---- the instruction ring ------------------------------------------------------
 * While C runs, each hart's in-flight instructions live in its view too: the
 * ROB as a ring of ``Instr`` records, oldest first, each flagged while it is
 * still in the instruction table (``it`` is the ROB's unissued subset, in
 * its order); the writeback buffer; the register file and rename table as
 * 32 values and 32 tags.  ``Hart.rob`` / ``it``, the ``Entry`` objects, the
 * ``ResultBuffer``'s slots and ``regs`` / ``rename`` are the at-rest form.
 * The ring is loaded from them with the view, each record read whole from
 * the Entry it came from and keeping it as its ``obj``; it is flushed with
 * the view -- a record with an obj writes the fields C changed into it, one
 * without gets a new Entry, ``rob`` / ``it`` get their contents rewritten
 * in place, the buffer and the registers what C wrote -- and then let go,
 * to be loaded again after the call.  A record pointer is good until the
 * next call into Python.  What the stages read of an instruction's
 * ``LoweredInstr`` comes from its ``Decode``, kept per window (_window.h). */

/* a LoweredInstr at a pc, as the stages read it: filled from its slots when
 * the window first meets it */
typedef struct {
    int64_t pc;
    PyObject *low;          /* owned */
    int in_lowered;         /* low is ``lowered[pc]`` (fetch found it there) */
    int64_t cls, rd, imm, nreads, r1, r2, alu_op, br_op, latency, re_slot,
        dec_kind, issue_kind, trap, width;
    int writes, store_like;
    int mnem;               /* the mnemonic's MNEMONICS code, or -1 */
} Decode;

/* Entry fields C changed since the load (the flush stores only those) */
enum { D_VAL0 = 1, D_VAL1 = 2, D_WAIT0 = 4, D_WAIT1 = 8, D_NWAITS = 16,
       D_ISSUED = 32, D_DONE = 64, D_RET = 128 };

/* one in-flight instruction: an Entry's fields, typed */
typedef struct {
    int64_t tag, pc, nwaits;
    int64_t wait[2];        /* a producer's tag, when has_wait */
    uint32_t val[2];        /* the operand, when has_val */
    unsigned char has_val[2], has_wait[2];
    unsigned char issued, done, in_it;
    unsigned dirty;         /* D_ bits */
    Decode *dec;
    PyObject *ret_action;   /* owned; NULL for None */
    PyObject *obj;          /* owned: the Entry standing for it, or NULL */
} Instr;

/* writeback-buffer fields C changed since the load */
enum { RB_BUSY = 1, RB_TAG = 2, RB_REG = 4, RB_VALUE = 8, RB_READY = 16,
       RB_ENTRY = 32 };

typedef struct {
    unsigned dirty;                     /* bit BIT_<field> */
    /* borrowed: the Hart, its lists, ResultBuffer and HartStats */
    PyObject *hart, *rob, *rb, *it, *regs, *rename, *stats;
    int64_t pc;                         /* when has_pc, else None */
    int has_pc;
    Decode *fetch_buf;                  /* NULL for None */
    HV_INTS(INT_FIELD)
    HV_BOOLS(BOOL_FIELD)
    PyObject *gid_obj, *index_obj;      /* borrowed; C never writes them */
    int64_t gid, index;
    STATS_SLOTS(INT_FIELD)
    /* the ring (``count`` records from ``first``, ``cap`` a power of
     * two), whether rob / it changed since the load */
    Instr *ring;
    Py_ssize_t cap, first, count;
    int reordered;
    /* the buffer; its producer is the Entry *rb_entry_obj* (borrowed, None
     * for none), which is record *rb_entry* */
    int rb_busy, rb_has_tag, rb_has_value;
    uint32_t rb_value;
    unsigned rb_dirty;                  /* RB_ bits */
    int64_t rb_tag, rb_reg, rb_ready_at;
    Instr *rb_entry;
    PyObject *rb_entry_obj;
    /* C wrote register r (bit r of *_dirty); a rename entry holds a tag
     * (bit r of ren_set) */
    uint32_t reg_dirty, ren_dirty, ren_set;
    uint32_t regv[32];
    int64_t ren[32];
} HartView;

typedef struct {
    int64_t stamp;                      /* the window's calls + 1 at load */
    int64_t mem_stamp;                  /* ... at the memory view's */
    unsigned dirty, kdirty;
    Window *w;                          /* the window the view is of */
    PyObject *core;                     /* borrowed */
    CV_INTS(INT_FIELD)
    CV_BOOLS(BOOL_FIELD)
    int64_t _rob_size, index;
    PyObject *index_obj;                /* borrowed */
    PyObject *counters;                 /* per_core[index] */
    COUNTER_SLOTS(INT_FIELD)
    /* the CoreMemory and its three ports, its banks (bank[1] the shared
     * one), the LinkScheduler, its rows and observer (borrowed: the slots
     * hold them) */
    PyObject *mem, *ports[3];
    struct {
        int64_t base;
        char *data;                     /* the bytearray's buffer */
        Py_ssize_t size;
    } bank[2];
    PyObject *links, *link_rows, *link_observer, *link_core;
    int64_t hop_latency;
    HartView h[4];
} CoreView;

#define CSET(v, f, x) ((v)->f = (x), (v)->dirty |= 1u << BIT_##f)
#define HSET(hv, f, x) ((hv)->f = (x), (hv)->dirty |= 1u << BIT_##f)
#define KSET(v, f, x) ((v)->f = (x), (v)->kdirty |= 1u << KBIT_##f)
/* ``hart.pc = pc``, or None when not *has* */
#define HSET_PC(hv, has, x) \
    ((hv)->has_pc = (has), (hv)->pc = (x), (hv)->dirty |= DIRTY(pc))

/* record *i* of *hv*'s ring, 0 the oldest */
#define AT(hv, i) (&(hv)->ring[((hv)->first + (i)) & ((hv)->cap - 1)])
/* a record's field *f* changed, for its Entry */
#define ISET(rec, f, x, bit) ((rec)->f = (x), (rec)->dirty |= (bit))

/* the number of hart view *hv* of view *v* */
#define HNUM(v, hv) ((int)((hv) - (v)->h))

/* *v*, loaded whole again if Python ran since it was (_window.h) */
static inline int fresh(Window *w, CoreView *v);

/* the view of *core*, fresh, or NULL */
static CoreView *view_for(Window *w, PyObject *core);
/* borrowed boxes of the window's ``cycle`` and ``cycle + 1`` */
static PyObject *cycle_box(Window *w);
static PyObject *next_box(Window *w);

typedef struct {
    PyObject *core, *machine;   /* borrowed: the caller holds the core */
    CoreView *v;                /* the core's view, in w's */
    /* machine.metrics, .lowered: read by whoever calls tick_core, once per
     * tick (Core.tick on its own) or per call of the window; borrowed */
    PyObject *metrics, *lowered;
    int64_t cycle;
    /* the window ticking this core; for Core.tick called on its own, one
     * of a single core whose every call-back site is the Python call */
    Window *w;
} Tick;

/* what mem_access (_window.h) issues */
enum access { ACC_LOAD, ACC_STORE, ACC_LWCV };

static int leave_c(Window *w);
static int window_native(Tick *t);
static int mem_access(Tick *t, HartView *hv, Instr *rec, enum access kind);
static int team_execute(Tick *t, HartView *hv, Instr *rec, int64_t cls);
static int free_hart(const CoreView *v);
static int send_fork_req(Tick *t, HartView *hv);
static int commit_p_ret(Tick *t, HartView *hv, Instr *head);

/* The ring's side of the view, in _window.h's core view section: */
/* the decode record of the instruction *low* (a TypeError unless it is a
 * LoweredInstr) at *pc*, or NULL */
static Decode *decode_of(Window *w, int64_t pc, PyObject *low);
/* the decode record of ``lowered[pc]``; NULL and no exception when
 * *lowered* is no dict or has no such key */
static Decode *decode_fetch(Window *w, PyObject *lowered, int64_t pc);
/* the Entry standing for *rec*, made if it has none, holding what C left in
 * the record: a new reference, or NULL */
static PyObject *record_entry(Window *w, Instr *rec);
/* a committed *rec* goes: its Entry, if it has one, takes its last fields */
static int record_retire(Window *w, Instr *rec);

/* register *r*: an IndexError past the 32 */
static int
reg_index(int64_t r)
{
    if ((uint64_t)r < 32)
        return 0;
    PyErr_SetString(PyExc_IndexError, "list index out of range");
    return -1;
}

/* ``regs[r]``; whether ``rename[r]`` holds a tag, and which: -1 on an
 * exception */
static inline int
reg_read(HartView *hv, int64_t r, uint32_t *value)
{
    if (reg_index(r) < 0)
        return -1;
    *value = hv->regv[r];
    return 0;
}

static inline int
ren_read(HartView *hv, int64_t r, int64_t *tag)
{
    if (reg_index(r) < 0)
        return -1;
    *tag = hv->ren[r];
    return hv->ren_set >> r & 1;
}

/* ``regs[r] = value`` / ``rename[r] = tag`` (None unless *set*), *r* one a
 * read checked */
static inline void
reg_write(HartView *hv, int64_t r, uint32_t value)
{
    hv->regv[r] = value;
    hv->reg_dirty |= 1u << r;
}

static inline void
ren_write(HartView *hv, int64_t r, int set, int64_t tag)
{
    hv->ren[r] = tag;
    if (set)
        hv->ren_set |= 1u << r;
    else
        hv->ren_set &= ~(1u << r);
    hv->ren_dirty |= 1u << r;
}

/* operand *k* of *rec*, which an issued instruction reads: a TypeError when
 * it is None */
static inline int
operand(const Instr *rec, int k, int64_t *out)
{
    if (!rec->has_val[k]) {
        PyErr_SetString(PyExc_TypeError,
                        "compiled tick: an operand it reads is None");
        return -1;
    }
    *out = rec->val[k];
    return 0;
}
#define GETV(var, rec, k) \
    do { if (operand(rec, k, &(var)) < 0) goto fail; } while (0)

/* 1 and *rec*, the oldest record of *hv*'s ring holding *tag*
 * (``_rob_by_tag``), or 0 (the Python handler words the assertion) */
static int
ring_find(HartView *hv, int64_t tag, Instr **rec)
{
    Py_ssize_t i;
    for (i = 0; i < hv->count; i++) {
        if (AT(hv, i)->tag == tag) {
            *rec = AT(hv, i);
            return 1;
        }
    }
    return 0;
}

/* The ring position of the *pos*-th record still in the instruction table,
 * or -1 */
static Py_ssize_t
it_index(const HartView *hv, Py_ssize_t pos)
{
    Py_ssize_t i;
    for (i = 0; i < hv->count; i++)
        if (AT(hv, i)->in_it && pos-- == 0)
            return i;
    return -1;
}

/* A new youngest record of *hv*'s ring (uninitialised), the ring grown when
 * full; NULL on an exception */
static Instr *
ring_push(HartView *hv)
{
    if (hv->count == hv->cap) {
        Py_ssize_t i, cap = 2 * hv->cap;
        Instr *grown = PyMem_Malloc(cap * sizeof(Instr));
        if (grown == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        for (i = 0; i < hv->count; i++) {
            grown[i] = *AT(hv, i);
            if (hv->rb_entry == AT(hv, i))
                hv->rb_entry = &grown[i];
        }
        PyMem_Free(hv->ring);
        hv->ring = grown;
        hv->cap = cap;
        hv->first = 0;
    }
    hv->reordered = 1;
    return AT(hv, hv->count++);
}

/* The oldest record leaves the ring (its references are the caller's; it
 * is done, so not the writeback buffer's, which is done when it drains) */
static inline void
ring_pop(HartView *hv)
{
    hv->first = (hv->first + 1) & (hv->cap - 1);
    hv->count--;
    hv->reordered = 1;
}

/* ``obj.name(a, b, c)`` (trailing NULLs are no arguments): every call from
 * the tick (and the charges) into Python.  The views are flushed, and
 * inside a window ``machine.cycle`` and ``_origin`` written, only now, when
 * Python is about to read them. */
static PyObject *
callback(Window *w, PyObject *obj, PyObject *name, PyObject *a, PyObject *b,
         PyObject *c)
{
    if (leave_c(w) < 0)
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

/* ``hart.pc is not None or hart.rob or hart.fetch_buf is not None`` of
 * hart *h* of *v*, or -1 */
static int
holds_work(const HartView *hv)
{
    return hv->has_pc || hv->count || hv->fetch_buf != NULL;
}

/* The ticked core's view (Python may have run). */
static inline CoreView *
tick_view(Tick *t)
{
    return fresh(t->w, t->v) < 0 ? NULL : t->v;
}

/* Core._resolve_pc */
static void
resolve_pc(Tick *t, HartView *hv, int64_t target)
{
    HSET_PC(hv, 1, target & MASK32);
    HSET(hv, awaiting_nextpc, 0);
    HSET(hv, fetch_ready_at, t->cycle + 1);
    HSET(hv, fetch_ok, !hv->syncm_block && hv->fetch_buf == NULL
         && !hv->reserved);
}

/* ResultBuffer.fill's gate: keep the core's writeback gate a lower bound */
static inline void
lower_wb_wake(CoreView *v, int64_t ready_at)
{
    if (ready_at < v->_wb_wake)
        CSET(v, _wb_wake, ready_at);
}

/* ResultBuffer.occupy(entry) of *hv*'s buffer, *rec* the producer */
static inline void
rb_occupy(HartView *hv, Instr *rec)
{
    hv->rb_busy = 1;
    hv->rb_has_tag = 1;
    hv->rb_tag = rec->tag;
    hv->rb_reg = rec->dec->rd;
    hv->rb_has_value = 0;
    hv->rb_ready_at = 0;
    hv->rb_entry = rec;
    hv->rb_dirty |= RB_BUSY | RB_TAG | RB_REG | RB_VALUE | RB_READY
        | RB_ENTRY;
}

/* ResultBuffer.fill(value, ready_at) but the gate (lower_wb_wake) */
static inline void
rb_fill(HartView *hv, uint32_t value, int64_t ready_at)
{
    hv->rb_has_value = 1;
    hv->rb_value = value;
    hv->rb_ready_at = ready_at;
    hv->rb_dirty |= RB_VALUE | RB_READY;
}

/* Core._finish_at: a register result goes through the hart's writeback
 * buffer (ResultBuffer.occupy + fill); an instruction without one is done. */
static int
finish_at(Tick *t, HartView *hv, Instr *rec, uint32_t value, int64_t ready_at)
{
    if (!rec->dec->writes) {
        ISET(rec, done, 1, D_DONE);
        return 0;
    }
    rb_occupy(hv, rec);
    rb_fill(hv, value, ready_at);
    lower_wb_wake(t->v, ready_at);
    return 0;
}

/* commit: the oldest instruction of a hart, once done */
static int
stage_commit(Tick *t)
{
    int k;
    CoreView *v = tick_view(t);
    if (v == NULL)
        return -1;
    for (k = 0; k < 4; k++) {
        int h = (int)((v->_rr_commit + k) & 3), status;
        int64_t trap;
        HartView *hv = &v->h[h];
        Instr out;
        if (hv->count == 0 || !AT(hv, 0)->done)
            continue;
        if (AT(hv, 0)->ret_action != NULL) {
            /* the ordered-release barrier of a p_ret */
            PyObject *pred;
            GETO(pred, hv->hart, H.pred);
            if (pred != Py_None && !hv->pred_done)
                continue;
            if (hv->outstanding_mem != 0)
                continue;
        }
        CSET(v, _rr_commit, (h + 1) & 3);
        out = *AT(hv, 0);  /* ``hart.rob.pop(0)`` */
        ring_pop(hv);
        HSET(hv, retired, hv->retired + 1);
        trap = out.dec->trap;
        if (trap == 0 && out.ret_action != NULL)
            status = commit_p_ret(t, hv, &out);  /* it retires the record */
        else if ((status = record_retire(t->w, &out)) == 0 && trap == 1)
            status = called(callback(t->w, t->machine, s_halt, s_ebreak, NULL,
                                     NULL));
        else if (status == 0 && trap)
            status = called(callback(t->w, t->machine, s_error, s_ecall, NULL,
                                     NULL));
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
    int64_t wake;
    int k, fired = 0;
    CoreView *v = tick_view(t);
    if (v == NULL)
        return -1;
    if (v->_wb_wake > t->cycle)
        return 0;
    wake = never_val;
    for (k = 0; k < 4; k++) {
        int h = (int)((v->_rr_wb + k) & 3);
        int64_t tag, reg, latest;
        uint32_t value;
        Py_ssize_t i;
        HartView *hv = &v->h[h];
        if (!hv->rb_busy || !hv->rb_has_value)
            continue;
        if (hv->rb_ready_at > t->cycle) {
            if (hv->rb_ready_at < wake)
                wake = hv->rb_ready_at;
            continue;
        }
        if (!hv->rb_has_tag) {
            wrong_type("int rename tag");
            goto fail;
        }
        if (hv->rb_entry == NULL) {
            wrong_type(entry_type->tp_name);
            goto fail;
        }
        CSET(v, _rr_wb, (h + 1) & 3);
        tag = hv->rb_tag;
        value = hv->rb_value;
        if ((reg = hv->rb_reg) != 0) {
            /* The architectural register is updated only when this
             * producer is still the latest rename of it: an older one
             * that writes back after a newer one must not clobber the
             * newer value.  Its consumers still get it, below. */
            int same;
            uint32_t old;
            if ((same = ren_read(hv, reg, &latest)) < 0)
                goto fail;
            if (same && latest == tag) {
                if (reg_read(hv, reg, &old) < 0)
                    goto fail;
                reg_write(hv, reg, value);
                ren_write(hv, reg, 0, 0);
            }
        }
        for (i = 0; i < hv->count; i++) {
            Instr *waiter = AT(hv, i);
            int hit = 0, slot;
            if (!waiter->in_it)
                continue;
            for (slot = 0; slot < 2; slot++)
                if (waiter->has_wait[slot] && waiter->wait[slot] == tag) {
                    waiter->has_wait[slot] = 0;
                    waiter->has_val[slot] = 1;
                    waiter->val[slot] = value;
                    waiter->dirty |= slot ? D_WAIT1 | D_VAL1
                        : D_WAIT0 | D_VAL0;
                    hit++;
                }
            if (hit) {
                if (waiter->nwaits == hit)
                    HSET(hv, n_ready, hv->n_ready + 1);
                ISET(waiter, nwaits, waiter->nwaits - hit, D_NWAITS);
            }
        }
        ISET(hv->rb_entry, done, 1, D_DONE);
        hv->rb_busy = hv->rb_has_tag = hv->rb_has_value = 0;
        hv->rb_entry = NULL;
        hv->rb_dirty |= RB_BUSY | RB_TAG | RB_VALUE | RB_ENTRY;
        /* one drain per cycle: the next is no earlier than cycle + 1
         * (cheaper than the exact minimum over the other harts on the
         * ~90% of saturated ticks that drain; a low gate only costs one
         * scan, which then re-derives it) */
        wake = t->cycle + 1;
        fired = 1;
        break;
    }
    /* exact when the scan drained nothing (the gate was out of date) */
    CSET(v, _wb_wake, wake);
    return fired;
fail:
    return -1;
}

/* Hart._refresh_fetch_ok */
static inline void
refresh_fetch_ok(HartView *hv)
{
    HSET(hv, fetch_ok, hv->has_pc && !hv->awaiting_nextpc
         && !hv->syncm_block && hv->fetch_buf == NULL && !hv->reserved);
}

/* Core._execute_p_ret: ``p_ret`` (p_jalr zero, ra, t0) decides its ending
 * case -- exit, wait for the join, end, or join hart ``t0 >> 16`` at ra --
 * and the hart fetches no further */
static int
decide_p_ret(HartView *hv, Instr *rec)
{
    /* (0: gcc 12 at -O2, inlining, cannot see that GETV sets them) */
    int64_t ra = 0, t0 = 0, joiner;
    PyObject *action, *joiner_obj, *ra_obj;
    GETV(ra, rec, 0);
    GETV(t0, rec, 1);
    joiner = (int64_t)(((uint64_t)t0 >> 16) & 0x7FFF);  /* join_hart */
    if (ra != 0) {
        joiner_obj = PyLong_FromLongLong(joiner);
        ra_obj = PyLong_FromLongLong(ra);
        action = joiner_obj == NULL || ra_obj == NULL ? NULL
            : PyTuple_Pack(3, s_join, joiner_obj, ra_obj);
        Py_XDECREF(joiner_obj);
        Py_XDECREF(ra_obj);
    } else
        action = PyTuple_Pack(3, t0 == MASK32 ? s_exit
                              : joiner == hv->gid ? s_wait : s_end,
                              Py_None, Py_None);
    if (action == NULL)
        goto fail;
    Py_XSETREF(rec->ret_action, action);
    rec->dirty |= D_RET;
    ISET(rec, done, 1, D_DONE);
    HSET_PC(hv, 0, 0);
    HSET(hv, awaiting_nextpc, 0);
    HSET(hv, fetch_ok, 0);
    return 0;
fail:
    return -1;
}

/* The execute step of the classes that need nothing from the machine but
 * are not plain arithmetic: jalr, p_set, p_merge, p_syncm, the p_ret
 * decision, and SYSTEM / FENCE (no-ops until commit).  0 done, 1 not one
 * of them, -1 an exception. */
static int
execute_local(Tick *t, HartView *hv, Instr *rec, int64_t cls)
{
    int64_t a, b;
    const Decode *d = rec->dec;
    if (cls == cls_system || cls == cls_fence) {
        ISET(rec, done, 1, D_DONE);
        return 0;
    }
    if (cls == cls_p_syncm) {
        HSET(hv, syncm_block, 0);
        refresh_fetch_ok(hv);
        ISET(rec, done, 1, D_DONE);
        return 0;
    }
    if (cls == cls_p_jalr)
        return d->rd == 0 ? decide_p_ret(hv, rec) : 1;
    if (cls != cls_jalr && cls != cls_p_set && cls != cls_p_merge)
        return 1;
    GETV(a, rec, 0);
    if (cls == cls_jalr) {
        resolve_pc(t, hv, (a + d->imm) & 0xFFFFFFFE);
        return finish_at(t, hv, rec, (uint32_t)(rec->pc + 4), t->cycle + 1);
    }
    if (cls == cls_p_set)  /* p_set_value: the hart identity stamped */
        return finish_at(t, hv, rec,
                         (uint32_t)(((uint64_t)a & 0xFFFF)
                                    | (uint64_t)(4 * t->v->index
                                                 + hv->index) << 16
                                    | 0x80000000u), t->cycle + 1);
    GETV(b, rec, 1);  /* p_merge_value */
    return finish_at(t, hv, rec,
                     (uint32_t)(((uint64_t)a & 0x7FFF0000)
                                | ((uint64_t)b & 0xFFFF)), t->cycle + 1);
fail:
    return -1;
}

/* The issued instruction's execute step.  ALU/MULDIV, branches, jal, lui,
 * auipc and execute_local's classes need nothing from the machine; a
 * load, a store and every X_PAR message need only the window (mem_access,
 * team_execute in _window.h); the rest -- a code-bank or device access, a
 * refused step -- is Core._execute, given the record's Entry. */
static int
execute(Tick *t, HartView *hv, Instr *rec)
{
    int64_t op, a, b, cls;
    int native, done, mem;
    const Decode *d = rec->dec;
    PyObject *entry;
    if ((op = d->alu_op) >= 0) {
        if (op >= A_COUNT)
            goto bad_op;
        if (!d->writes) {  /* rd == x0: result discarded */
            ISET(rec, done, 1, D_DONE);
            return 0;
        }
        GETV(a, rec, 0);
        if (d->nreads == 2)
            GETV(b, rec, 1);
        else
            b = d->imm;
        return finish_at(t, hv, rec, alu(op, a, b), t->cycle + d->latency);
    }
    if ((op = d->br_op) >= 0) {
        if (op >= B_COUNT)
            goto bad_op;
        GETV(a, rec, 0);
        GETV(b, rec, 1);
        resolve_pc(t, hv, branch(op, a, b) ? rec->pc + d->imm : rec->pc + 4);
        ISET(rec, done, 1, D_DONE);
        return 0;
    }
    cls = d->cls;
    if (cls == cls_jal || cls == cls_lui || cls == cls_auipc) {
        uint32_t value;
        if (cls == cls_jal)
            value = (uint32_t)(rec->pc + 4);
        else
            value = (uint32_t)((uint64_t)d->imm << 12)
                + (cls == cls_auipc ? (uint32_t)rec->pc : 0);
        return finish_at(t, hv, rec, value, t->cycle + 1);
    }
    mem = cls == cls_load || cls == cls_store || cls == cls_p_lwcv;
    if ((done = execute_local(t, hv, rec, cls)) <= 0)
        return done;
    if ((native = window_native(t)) < 0)
        return -1;
    if (native) {
        if (!mem)
            done = team_execute(t, hv, rec, cls);
        else
            done = mem_access(t, hv, rec,
                              cls == cls_load ? ACC_LOAD
                              : cls == cls_store ? ACC_STORE : ACC_LWCV);
        if (done)
            return done < 0 ? -1 : 0;
    }
    if ((entry = record_entry(t->w, rec)) == NULL)
        return -1;
    done = called(callback(t->w, t->core, s_execute, hv->hart, entry, NULL));
    Py_DECREF(entry);
    return done;
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
    int k;
    CoreView *v = tick_view(t);
    if (v == NULL)
        return -1;
    for (k = 0; k < 4; k++) {
        int h = (int)((v->_rr_issue + k) & 3);
        int older_store_pending = 0, status;
        Py_ssize_t i, pos = 0;
        HartView *hv = &v->h[h];
        Instr *found = NULL;
        if (!hv->n_ready)
            continue;
        /* the records still in the instruction table, in its order; *pos*
         * counts them */
        for (i = 0; i < hv->count; i++) {
            Instr *candidate = AT(hv, i);
            const Decode *d;
            if (!candidate->in_it)
                continue;
            d = candidate->dec;
            if (candidate->nwaits == 0 && !(d->writes && hv->rb_busy)) {
                int64_t number;
                int ready;
                PyObject *list, *item;
                switch (d->issue_kind) {
                case 0:  /* ISS_PLAIN */
                    ready = 1;
                    break;
                case 1:  /* ISS_LOAD: after all older stores of the hart */
                    ready = !older_store_pending;
                    break;
                case 2:  /* ISS_LWRE: its result buffer is filled */
                    GETLIST(list, hv->hart, H.re_buffers);
                    if ((item = list_item(list, d->re_slot)) == NULL)
                        goto fail;
                    ready = item != Py_None;
                    break;
                case 3:  /* ISS_FC: a free hart on this core */
                    if ((ready = window_native(t)) < 0)
                        goto fail;
                    if (ready) {
                        if ((number = free_hart(v)) < 0)
                            goto fail;
                        ready = number < 4;
                        break;
                    }
                    item = callback(t->w, t->core, s_alloc_free_hart, NULL,
                                    NULL, NULL);
                    if (item == NULL)
                        goto fail;
                    ready = item != Py_None;
                    Py_DECREF(item);
                    /* Python ran: the scan goes on at the same place of
                     * the instruction table as it is now */
                    if (tick_view(t) == NULL)
                        goto fail;
                    if ((i = it_index(hv, pos)) < 0) {
                        wrong_type("p_fc still in its instruction table");
                        goto fail;
                    }
                    candidate = AT(hv, i);
                    d = candidate->dec;
                    break;
                case 4:  /* ISS_FN: a fork token was granted */
                    GETLIST(list, hv->hart, H.fork_tokens);
                    ready = PyList_GET_SIZE(list) != 0;
                    break;
                default:  /* ISS_SYNCM: at the head, memory drained */
                    ready = pos == 0 && hv->outstanding_mem == 0;
                    break;
                }
                if (ready) {
                    found = candidate;
                    break;
                }
            }
            if (d->store_like)
                older_store_pending = 1;
            pos++;
        }
        if (found == NULL)
            continue;
        CSET(v, _rr_issue, (h + 1) & 3);
        found->in_it = 0;  /* ``hart.it.remove(entry)`` */
        hv->reordered = 1;
        HSET(hv, n_ready, hv->n_ready - 1);
        ISET(found, issued, 1, D_ISSUED);
        status = execute(t, hv, found);
        return status < 0 ? -1 : 1;
    }
    return 0;
fail:
    return -1;
}

/* One source operand at rename, into slot *k* of *rec*: x0, a committed
 * value, or a producer's tag.  1 when it waits for one. */
static int
read_source(HartView *hv, int64_t reg, Instr *rec, int k)
{
    int64_t tag;
    int renamed;
    if (reg == 0) {
        rec->has_val[k] = 1;
        rec->val[k] = 0;
        return 0;
    }
    if ((renamed = ren_read(hv, reg, &tag)) < 0)
        return -1;
    if (renamed) {
        rec->has_wait[k] = 1;
        rec->wait[k] = tag;
        return 1;  /* one more producer to wait for */
    }
    rec->has_val[k] = 1;
    return reg_read(hv, reg, &rec->val[k]);
}

/* Rename the instruction *d* taken from the fetch buffer of hart *h*: a
 * record into the ring, in the instruction table, then the next-pc
 * determination. */
static int
rename_into(Tick *t, int h, Decode *d)
{
    int more;
    int64_t tag, old;
    CoreView *v = t->v;
    HartView *hv = &v->h[h];
    Instr fresh = {.pc = d->pc, .dec = d, .in_it = 1}, *rec;

    fresh.tag = tag = v->_tag + 1;
    CSET(v, _tag, tag);
    if (d->nreads) {
        if ((more = read_source(hv, d->r1, &fresh, 0)) < 0)
            goto fail;
        fresh.nwaits += more;
        if (d->nreads == 2) {
            if ((more = read_source(hv, d->r2, &fresh, 1)) < 0)
                goto fail;
            fresh.nwaits += more;
        }
    }
    if ((rec = ring_push(hv)) == NULL)
        goto fail;
    *rec = fresh;
    if (fresh.nwaits == 0)
        HSET(hv, n_ready, hv->n_ready + 1);
    if (d->writes) {
        if (ren_read(hv, d->rd, &old) < 0)
            goto fail;
        ren_write(hv, d->rd, 1, tag);
    }
    if (d->dec_kind == 5) {
        /* DEC_PFN: request the fork token from the next core */
        if (send_fork_req(t, hv) < 0 || tick_view(t) == NULL)
            goto fail;
    }
    /* next-pc determination (fetch resumes when it is known) */
    if (d->dec_kind == 2) {
        /* DEC_SUSPEND: resolved at issue; the hart stays suspended */
    } else if (d->dec_kind == 3) {
        /* DEC_SYSTEM: halts (ebreak) / traps (ecall) at commit */
        HSET_PC(hv, 0, 0);
        HSET(hv, awaiting_nextpc, 0);
    } else {
        /* pc + 4, or pc + imm for DEC_JAL */
        HSET_PC(hv, 1, d->dec_kind == 1 ? (d->pc + d->imm) & MASK32
                : d->pc + 4);
        HSET(hv, awaiting_nextpc, 0);
        HSET(hv, fetch_ready_at, t->cycle + 1);
        if (d->dec_kind == 4)  /* DEC_SYNCM: no fetch until it issues */
            HSET(hv, syncm_block, 1);
        else
            HSET(hv, fetch_ok, !hv->syncm_block);
    }
    return 0;
fail:
    return -1;
}

/* decode / rename: fetch buffer -> instruction table + ROB */
static int
stage_rename(Tick *t)
{
    int k;
    CoreView *v = tick_view(t);
    if (v == NULL)
        return -1;
    for (k = 0; k < 4; k++) {
        int h = (int)((v->_rr_rename + k) & 3);
        HartView *hv = &v->h[h];
        Decode *d;
        if ((d = hv->fetch_buf) == NULL || hv->count >= v->_rob_size)
            continue;
        CSET(v, _rr_rename, (h + 1) & 3);
        HSET(hv, fetch_buf, NULL);
        return rename_into(t, h, d) < 0 ? -1 : 1;
    }
    return 0;
}

/* The fetch buffer *d* names, at rest: ``low.fetch_pair``, the pair
 * lowered.py built, ``(pc, low)`` for this pc and this low (a lowered
 * program's always is), else a TypeError; a new reference */
static PyObject *
own_pair(const Decode *d)
{
    int64_t pair_pc;
    PyObject *pair = SLOT(d->low, L.fetch_pair);
    if (pair != NULL && PyTuple_CheckExact(pair)
            && PyTuple_GET_SIZE(pair) == 2
            && PyTuple_GET_ITEM(pair, 1) == d->low
            && small_int(PyTuple_GET_ITEM(pair, 0), &pair_pc)
            && pair_pc == d->pc)
        return new_ref(pair);
    wrong_type("(pc, low) fetch_pair of its LoweredInstr");
    return NULL;
}

/* fetch (gated on the collapsed predicate): one hart whose next pc is known */
static int
stage_fetch(Tick *t)
{
    int k;
    CoreView *v = tick_view(t);
    if (v == NULL)
        return -1;
    for (k = 0; k < 4; k++) {
        int h = (int)((v->_rr_fetch + k) & 3);
        int64_t pc;
        HartView *hv = &v->h[h];
        PyObject *pc_box, *low;
        Decode *d;
        if (!hv->fetch_ok || t->cycle < hv->fetch_ready_at)
            continue;
        CSET(v, _rr_fetch, (h + 1) & 3);
        pc = hv->pc;
        if ((d = decode_fetch(t->w, t->lowered, pc)) == NULL) {
            /* non-code address: the slow error path */
            if (PyErr_Occurred() || (pc_box = PyLong_FromLongLong(pc)) == NULL)
                return -1;
            low = callback(t->w, t->machine, s_fetch_instruction, pc_box,
                           hv->hart, NULL);
            Py_DECREF(pc_box);
            d = low == NULL || tick_view(t) == NULL ? NULL
                : decode_of(t->w, pc, low);
            Py_XDECREF(low);
            if (d == NULL)
                return -1;
        }
        HSET(hv, fetch_buf, d);
        /* suspended until the next pc is known */
        HSET(hv, awaiting_nextpc, 1);
        HSET(hv, fetch_ok, 0);
        return 1;
    }
    return 0;
}

/* ---- the metrics charges ------------------------------------------------------
 * A metered machine's charges (observe/metrics.py) are made here, on the
 * CoreTelemetry slots the Python hooks write: the stall classifier and the
 * gated-idle charges here, the remote etas, ``link_wait`` and the idle
 * settlement in _window.h.  Python is called only where a window edge
 * falls inside a charge (``roll`` / ``_emit``).  ``machine.metrics`` is
 * None or an exact Metrics (``machine_metrics``; LBP refuses a subclass,
 * whose hooks the charges here would not stand for). */

/* observe/metrics.py's STALL_REASONS, in its order (bind checks the names) */
#define REASONS(X) \
    X(fetch_starved) X(operand_wait) X(issue_wait) X(exec_wait) \
    X(local_mem_wait) X(remote_mem_wait) X(router_backpressure) \
    X(re_line_wait) X(fork_wait) X(barrier_wait) X(gated_idle)
#define REASON_INDEX(name) WHY_##name,
enum { REASONS(REASON_INDEX) REASON_COUNT };
#define REASON_NAME(name) #name,
static const char *const reason_names[REASON_COUNT] = {REASONS(REASON_NAME)};

/* ``machine.metrics``, checked to be None or an exact Metrics
 * (``__slots__``: no instance attribute shadows a hook): a new reference,
 * or NULL with a TypeError */
static PyObject *
machine_metrics(PyObject *machine)
{
    PyObject *metrics = PyObject_GetAttr(machine, s_metrics);
    if (metrics != NULL && metrics != Py_None
            && Py_TYPE(metrics) != metrics_type) {
        PyErr_Format(PyExc_TypeError, "compiled tick: machine.metrics is a "
                     "%s, not a Metrics", Py_TYPE(metrics)->tp_name);
        Py_CLEAR(metrics);
    }
    return metrics;
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

/* Metrics._mem_reason: a remote access of *hv*'s hart in flight past its
 * uncontended eta was held up by contention; none in flight, a local one */
static int
mem_reason(PyObject *slot, const HartView *hv, int64_t cycle)
{
    int64_t eta;
    PyObject *fifos, *fifo;
    GETO(fifos, slot, TS.remote_inflight);
    if (!PyDict_Check(fifos)) {
        wrong_type("dict of remote etas");
        goto fail;
    }
    if ((fifo = PyDict_GetItemWithError(fifos, hv->gid_obj)) == NULL) {
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
    int64_t cls;
    int k;
    CoreView *v = t->v;
    HartView *rep = NULL;
    Instr *head;
    PyObject *pred;
    for (k = 0; k < 4 && rep == NULL; k++) {
        int h = (int)((v->_rr_commit + k) & 3);
        if (v->h[h].count)
            rep = &v->h[h];
    }
    if (rep == NULL)
        return WHY_fetch_starved;
    head = AT(rep, 0);
    if (head->ret_action != NULL && head->done) {
        /* p_ret held at the ordered-release barrier: predecessor's
         * ending signal pending, or own stores still in flight */
        GETO(pred, rep->hart, H.pred);
        if (pred != Py_None && !rep->pred_done)
            return WHY_barrier_wait;
        return rep->outstanding_mem ? mem_reason(slot, rep, t->cycle)
            : WHY_barrier_wait;
    }
    cls = head->dec->cls;
    if (head->in_it) {
        /* head not yet issued: its producers are older, so committed,
         * and each cleared its waits at writeback (never operand_wait) */
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
    int reason;
    PyObject *slot, *stalls;
    if (tick_view(t) == NULL
            || (slot = telemetry(t->metrics, t->v->index)) == NULL
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
    int h, work = 0, status = -1;
    int64_t edge;
    CoreView *v = t->v;
    PyObject *index, *edges, *item, *now;
    for (h = 0; h < 4 && !work; h++)
        work = holds_work(&v->h[h]);
    /* held across the calls below */
    index = new_ref(v->index_obj);
    if (!work) {
        status = charge_idle(t->w, metrics, index, t->cycle, 1) < 0 ? -1 : 0;
        goto release;
    }
    /* ``metrics.edges[index]``, read by offset */
    GETLIST(edges, metrics, MX.edges);
    if ((item = PyObject_GetItem(edges, index)) == NULL)
        goto release;
    edge = as_int(item);
    Py_DECREF(item);
    if (edge == -1 && PyErr_Occurred())
        goto release;
    if (t->cycle >= edge
            && ((now = cycle_box(t->w)) == NULL
                || called(callback(t->w, metrics, s_roll, index, now,
                                   NULL)) < 0))
        goto release;
    status = 1;
release:
    Py_DECREF(index);
    return status;
fail:
    Py_DECREF(index);
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
    int h, busy = 0;
    CoreView *v = tick_view(t);
    int64_t wake;
    if (v == NULL)
        return -1;
    wake = v->_wb_wake;
    for (h = 0; h < 4; h++) {
        HartView *hv = &v->h[h];
        if (hv->fetch_ok) {
            busy = 1;
            if (hv->fetch_ready_at < wake)
                wake = hv->fetch_ready_at;
        } else if (!busy)
            busy = holds_work(hv);
    }
    if (!busy)
        return 0;
    CSET(v, sleep_until, wake);
    return 1;
}

/* Run the five stages of t->core for one cycle.  1 when any hart had
 * pipeline work; 0 means the core is quiescent and the cycle loop may gate
 * it off until Hart.start re-activates it. */
static int
tick_core(Tick *t)
{
    int busy = 1, committed, fired = 0, status;
    const int metered = t->metrics != Py_None;

    if (tick_view(t) == NULL)
        goto fail;
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

/* bind()'s Core.tick: the window calls tick_core directly only while
 * ``type(core).tick`` is this very object */
static PyObject *tick_descr;

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

/* The InstrClass values of CLASSES, in that order, from *classes*. */
static int
read_classes(PyObject *classes)
{
#define CLASS_SLOT(name) &cls_##name,
    int64_t *const slot[] = {CLASSES(CLASS_SLOT)};
    int64_t value[sizeof(slot) / sizeof(slot[0])];
    Py_ssize_t i, n = (Py_ssize_t)(sizeof(slot) / sizeof(slot[0]));
    if (PyTuple_GET_SIZE(classes) != n) {
        PyErr_Format(PyExc_ValueError, "bind: %zd instruction classes, not "
                     "the %zd of CLASSES", PyTuple_GET_SIZE(classes), n);
        return -1;
    }
    for (i = 0; i < n; i++) {
        value[i] = PyLong_AsLongLong(PyTuple_GET_ITEM(classes, i));
        if (value[i] == -1 && PyErr_Occurred())
            return -1;
    }
    for (i = 0; i < n; i++)
        *slot[i] = value[i];
    return 0;
}

static PyObject *
tick_bind(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyTypeObject *core, *hart, *rb, *entry, *low, *stats, *mem, *bank, *port,
        *counters, *links, *machine, *trace;
    PyObject *tags, *shifts, *never, *handlers, *classes, *settle, *simulate;
    PyObject *bound = NULL;
    long long never_value, base, size, ack_latency;
    long long cv[4];
    int h;
    if (!PyArg_ParseTuple(args,
                          "O!O!O!O!O!O!O!O!O!O!O!O!O!O!O!O!O!LLL(LLLL)O!:bind",
                          &PyType_Type, &core, &PyType_Type, &hart,
                          &PyType_Type, &rb, &PyType_Type, &entry,
                          &PyType_Type, &low, &PyType_Type, &stats,
                          &PyType_Type, &mem, &PyType_Type, &bank,
                          &PyType_Type, &port, &PyType_Type, &counters,
                          &PyType_Type, &links, &PyTuple_Type, &tags,
                          &PyTuple_Type, &shifts, &PyType_Type, &machine,
                          &PyDict_Type, &handlers, &PyLong_Type, &never,
                          &PyTuple_Type, &classes, &base, &size,
                          &ack_latency, &cv[0], &cv[1], &cv[2], &cv[3],
                          &PyType_Type, &trace))
        return NULL;
    if (check_link_tags(tags, shifts) < 0 || read_classes(classes) < 0)
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
    /* the flush builds Entry objects slot by slot, without __init__: that
     * is only right while these are all the slots an Entry has (a class
     * with slots is collectable) */
    if (entry->tp_basicsize != (Py_ssize_t)(sizeof(PyObject)
            + ENTRY_NSLOTS * sizeof(PyObject *))
            || entry->tp_itemsize != 0 || !PyType_IS_GC(entry)) {
        PyErr_SetString(PyExc_TypeError,
                        "Entry has slots the compiled tick does not fill");
        return NULL;
    }
    /* and a new Port the same way, its one slot */
    if (port->tp_basicsize != (Py_ssize_t)(sizeof(PyObject)
            + sizeof(PyObject *)) || port->tp_itemsize != 0) {
        PyErr_SetString(PyExc_TypeError,
                        "Port has slots the compiled window does not fill");
        return NULL;
    }
    /* every event kind has a native spelling */
    if (keep_handlers(handlers) < 0)
        return NULL;
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
    KEEP(trace_type, trace);
    KEEP(never_obj, never);
    never_val = never_value;
    re_ack_latency = ack_latency;
    global_base = base;
    global_bank_size = size;
    for (h = 0; h < 4; h++)
        cv_base[h] = cv[h];
    Py_XSETREF(tick_descr, PyDescr_NewMethod(core, &tick_def));
    settle = PyDescr_NewMethod(core, &settle_def);
    simulate = PyDescr_NewMethod(machine, &simulate_def);
    if (tick_descr != NULL && settle != NULL && simulate != NULL)
        bound = PyTuple_Pack(3, tick_descr, settle, simulate);
    Py_XDECREF(settle);
    Py_XDECREF(simulate);
    return bound;
}

/* The metrics classes, bound apart: observe/metrics.py binds them when it
 * is first imported, so that an unmetered process never imports it.  Until
 * then (and on a failed bind) no object is a Metrics here, and a metered
 * machine is a TypeError (machine_metrics). */
static PyObject *
tick_bind_metrics(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyTypeObject *metrics, *telemetry;
    PyObject *reasons;
    if (!PyArg_ParseTuple(args, "O!O!O!:bind_metrics",
                          &PyType_Type, &metrics, &PyType_Type, &telemetry,
                          &PyTuple_Type, &reasons))
        return NULL;
    Py_CLEAR(metrics_type);
    if (check_reasons(reasons) < 0
            || resolve_slots(metrics, MX_names, &MX) < 0
            || resolve_slots(telemetry, TS_names, &TS) < 0)
        return NULL;
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
tick_class_names(PyObject *Py_UNUSED(module), PyObject *Py_UNUSED(ignored))
{
#define CLASS_TEXT(name) #name,
    static const char *const names[] = {CLASSES(CLASS_TEXT)};
    Py_ssize_t i, n = (Py_ssize_t)(sizeof(names) / sizeof(names[0]));
    PyObject *result = PyTuple_New(n), *name;
    for (i = 0; result != NULL && i < n; i++) {
        if ((name = PyUnicode_FromString(names[i])) == NULL)
            Py_CLEAR(result);
        else
            PyTuple_SET_ITEM(result, i, name);
    }
    return result;
}

static PyObject *
tick_native_kinds(PyObject *Py_UNUSED(module), PyObject *Py_UNUSED(ignored))
{
    Py_ssize_t k;
    PyObject *result = PyTuple_New(NATIVE_COUNT);
    for (k = 0; result != NULL && k < NATIVE_COUNT; k++)
        PyTuple_SET_ITEM(result, k, new_ref(*kind_name[k]));
    return result;
}

#ifdef TICK_COUNTS
/* counts[name] = value */
static int
put_count(PyObject *counts, PyObject *name, long long value)
{
    PyObject *count = PyLong_FromLongLong(value);
    int status = count == NULL || name == NULL ? -1
        : PyDict_SetItem(counts, name, count);
    Py_XDECREF(count);
    Py_XDECREF(name);
    return status;
}

static PyObject *
tick_slot_counts(PyObject *Py_UNUSED(module), PyObject *Py_UNUSED(ignored))
{
#define COUNTED_NAME(name) #name,
    static const char *const names[N_COUNTED] = {COUNTED(COUNTED_NAME)};
    int k, status = 0;
    /* (read first: the boxes made here are not the run's) */
    long long boxes = long_boxes, tuples = tuples_made;
    PyObject *counts = PyDict_New();
    if (counts == NULL)
        return NULL;
    for (k = 0; status == 0 && k < N_COUNTED; k++)
        status = put_count(counts, PyUnicode_FromString(names[k]),
                           slot_touches[k]);
    for (k = 0; status == 0 && k < NATIVE_COUNT; k++)
        status = put_count(counts, PyUnicode_FromFormat("post %U",
                                                        *kind_name[k]),
                           posts[k]);
    if (status < 0
            || put_count(counts, PyUnicode_FromString("PyLong_FromLongLong"),
                         boxes) < 0
            || put_count(counts, PyUnicode_FromString("tuples"), tuples) < 0
            || put_count(counts, PyUnicode_FromString("calls into Python"),
                         python_calls) < 0
            || put_count(counts, PyUnicode_FromString("windows"), windows)
               < 0) {
        Py_DECREF(counts);
        return NULL;
    }
    memset(slot_touches, 0, sizeof(slot_touches));
    memset(posts, 0, sizeof(posts));
    long_boxes = tuples_made = python_calls = windows = 0;
    return counts;
}
#endif

static PyMethodDef module_methods[] = {
    {"bind", tick_bind, METH_VARARGS,
     "bind(Core, Hart, ResultBuffer, Entry, LoweredInstr, HartStats, "
     "CoreMemory, Bank, Port, CoreCounters, LinkScheduler, LINK_TAGS, "
     "LINK_SHIFTS, LBP, EVENT_HANDLERS, NEVER, classes, GLOBAL_BASE, "
     "GLOBAL_BANK_SIZE, RE_ACK_LATENCY, cv_bases, Trace) -> the method "
     "descriptors "
     "(Core.tick, Core.settle_idle, LBP._simulate).\n\n*classes* are the "
     "InstrClass values named by class_names().  Resolves every slot offset "
     "they use; raises if a class lacks one."},
    {"bind_metrics", tick_bind_metrics, METH_VARARGS,
     "bind_metrics(Metrics, CoreTelemetry, STALL_REASONS): the compiled "
     "kernel charges for an exact Metrics itself from now on."},
    {"class_names", tick_class_names, METH_NOARGS,
     "class_names() -> the InstrClass member names bind() takes the values "
     "of, in order."},
    {"native_kinds", tick_native_kinds, METH_NOARGS,
     "native_kinds() -> the event kinds the compiled window spells itself."},
    {"alu", tick_alu, METH_VARARGS,
     "alu(op, a, b) -> the 32-bit result of ALU_CODES[op] (for tests)."},
    {"branch", tick_branch, METH_VARARGS,
     "branch(op, a, b) -> whether BRANCH_CODES[op] is taken (for tests)."},
    {"as_int", tick_as_int, METH_O,
     "as_int(obj) -> the int64 every slot read makes of obj (for tests)."},
    {"zeroed", tick_zeroed, METH_O,
     "zeroed(n) -> bytearray(n), its pages mapped in when first touched."},
#ifdef TICK_COUNTS
    {"slot_counts", tick_slot_counts, METH_NOARGS,
     "slot_counts() -> {class name: slot accesses, 'PyLong_FromLongLong': "
     "ints boxed, 'tuples': tuples made, 'post <kind>': events posted} "
     "since the last call (the counting build only)."},
#endif
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
