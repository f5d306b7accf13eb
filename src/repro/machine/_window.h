/* The cycle window: ``LBP._simulate`` in C, and the private-bank access.
 *
 * Included by _tick.c (one translation unit, one binary).  This is the
 * loop of ``processor.py``'s ``_simulate`` -- the all-gated hop, due-event
 * dispatch, the ``sleep_until`` compare, the ticks, gate-off bookkeeping,
 * the halt / error exits -- over the *existing* objects: ``machine._events``
 * stays the ``heapq`` list of ``(cycle, origin, oseq, dst, kind, args)``
 * tuples, ``machine.cycle`` / ``_origin`` / ``_num_active`` /
 * ``_active_cores`` / ``_halt_at`` / ``_error`` stay the attributes Python
 * reads and writes.  The Python ``_simulate`` is the reference: it runs
 * when the extension is missing and under ``backend="interp"``, and the
 * parity suite holds this file to it bit for bit.
 *
 * The contract with the Python it calls (handlers, ticks that are not
 * ours, ``settle_idle``, everything behind the tick's ``callback``):
 *   - ``machine.cycle`` and ``machine._origin`` are written lazily: before
 *     every call into Python (``leave_c``) and when the window returns, so
 *     Python never sees a stale "now" and a cycle that stays in C pays for
 *     neither;
 *   - ``_halt_at``, ``_error``, ``_num_active`` and ``_active_cores`` are
 *     cached and re-read after every call into Python (only Python writes
 *     the first two; ``Core.activate`` writes the others); the window's own
 *     writes (gate-off, the rebuilt active list) go to the attribute at
 *     once;
 *   - ``_events``, ``cores``, ``metrics``, ``lowered`` are read once per
 *     call, as the Python loop reads them; ``trace.enabled``,
 *     ``sanitizer``, ``mmio``, ``params.local_mem_latency``,
 *     ``stats.per_core`` and ``_owned`` once per call, on the first event
 *     or access that needs them.
 *
 * The private-bank access.  A load or store whose address lies in the
 * issuing core's own local or shared bank is issued here (``local_access``:
 * what ``Core._execute`` + ``schedule_load`` / ``schedule_store`` do for
 * it) and its ``load_read`` / ``load_done`` / ``store_write`` events are
 * handled here, when nothing observes the access: trace off, no sanitizer,
 * the address no device's, the bytes inside the bank, and -- for an event
 * -- ``EVENT_HANDLERS[kind]`` still the function it was at bind time.
 * Every other case (remote, code bank, device, traced, sanitized, out of
 * range, unmapped, a malformed event) is *not* spelled here: the window
 * calls the Python ``_execute`` or handler for that one access or event,
 * before it has changed anything.
 */

struct Window {
    PyObject *machine;          /* borrowed: the caller's self */
    /* read once per call (owned; the Tick holds metrics and lowered) */
    PyObject *events, *cores;
    int metered;                /* machine.metrics is not None */
    /* cached machine attributes, re-read when calls != seen */
    PyObject *active;           /* _active_cores: owned list, NULL for None */
    int64_t halt_at;            /* _halt_at, never_val for None */
    int64_t num_active;         /* _num_active */
    int has_error;              /* _error is not None */
    int64_t calls, seen;        /* calls into Python made / at last refresh */
    /* "now", and whether the machine's attributes say so yet */
    PyObject *cycle_obj, *origin;   /* owned */
    PyObject *next_obj;         /* owned: cycle + 1, the Tick's next_obj */
    int cycle_synced, origin_synced;
    /* the private-bank access, resolved by access_context on first use */
    int context;                /* 0 unresolved, 1 native, 2 call Python */
    PyObject *mmio, *per_core, *owned;  /* owned */
    int64_t latency;            /* params.local_mem_latency */
    /* the core class whose ``tick`` was looked up last, and the answer */
    PyTypeObject *tick_type;
    int tick_direct;
};

static PyObject *event_handlers;  /* processor.EVENT_HANDLERS */
static PyObject *py_load_read, *py_load_done, *py_store_write;
static PyObject *heappush, *heappop;

static int
import_heapq(void)
{
    PyObject *heapq = PyImport_ImportModule("heapq");
    if (heapq == NULL)
        return -1;
    Py_XSETREF(heappush, PyObject_GetAttrString(heapq, "heappush"));
    Py_XSETREF(heappop, PyObject_GetAttrString(heapq, "heappop"));
    Py_DECREF(heapq);
    return heappush != NULL && heappop != NULL ? 0 : -1;
}

static int
keep_handlers(PyObject *table)
{
    PyObject *read = PyDict_GetItemWithError(table, s_load_read);
    PyObject *done = PyDict_GetItemWithError(table, s_load_done);
    PyObject *write = PyDict_GetItemWithError(table, s_store_write);
    if (read == NULL || done == NULL || write == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_KeyError,
                            "EVENT_HANDLERS lacks a requester-local kind");
        return -1;
    }
    KEEP(event_handlers, table);
    KEEP(py_load_read, read);
    KEEP(py_load_done, done);
    KEEP(py_store_write, write);
    return 0;
}

/* ---- machine attributes -------------------------------------------------------- */

static int
set_attr_int(PyObject *obj, PyObject *name, int64_t value)
{
    PyObject *boxed = PyLong_FromLongLong(value);
    int status = boxed == NULL ? -1 : PyObject_SetAttr(obj, name, boxed);
    Py_XDECREF(boxed);
    return status;
}

/* ``obj.name`` as a new reference to a list */
static PyObject *
attr_list(PyObject *obj, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value != NULL && !PyList_Check(value)) {
        PyErr_Format(PyExc_TypeError,
                     "compiled window: %U is a %s, not a list", name,
                     Py_TYPE(value)->tp_name);
        Py_CLEAR(value);
    }
    return value;
}

/* ``obj.name`` as an int; *none* when it is None and that is allowed */
static int
attr_int(PyObject *obj, PyObject *name, int64_t *out, const int64_t *none)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    if (value == Py_None && none != NULL)
        *out = *none;
    else
        *out = as_int(value);
    Py_DECREF(value);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* Make ``machine.cycle`` and ``machine._origin`` what the Python loop would
 * have left there by now. */
static int
publish_now(Window *w)
{
    if (!w->cycle_synced) {
        if (PyObject_SetAttr(w->machine, s_cycle, w->cycle_obj) < 0)
            return -1;
        w->cycle_synced = 1;
    }
    if (!w->origin_synced) {
        if (PyObject_SetAttr(w->machine, s__origin, w->origin) < 0)
            return -1;
        w->origin_synced = 1;
    }
    return 0;
}

/* About to call into Python, which reads "now" and may write what
 * refresh() re-reads. */
static int
leave_c(Window *w)
{
    w->calls++;
    return publish_now(w);
}

/* Python ran: re-read what it may have written. */
static int
refresh(Window *w)
{
    PyObject *value;
    w->seen = w->calls;
    if (attr_int(w->machine, s__halt_at, &w->halt_at, &never_val) < 0
            || attr_int(w->machine, s__num_active, &w->num_active, NULL) < 0)
        return -1;
    if ((value = PyObject_GetAttr(w->machine, s__error)) == NULL)
        return -1;
    w->has_error = value != Py_None;
    Py_DECREF(value);
    if ((value = PyObject_GetAttr(w->machine, s__active_cores)) == NULL)
        return -1;
    if (value == Py_None)
        Py_CLEAR(value);
    else if (!PyList_Check(value)) {
        Py_DECREF(value);
        wrong_type("list or None in machine._active_cores");
        return -1;
    }
    Py_XSETREF(w->active, value);
    return 0;
}

/* May this call of the window take the native private-bank path?  1 yes,
 * 0 no (traced, sanitized: the Python spelling records what they need). */
static int
access_context(Window *w)
{
    PyObject *value, *inner;
    int observed;
    if (w->context)
        return w->context == 1;
    if ((value = PyObject_GetAttr(w->machine, s_trace)) == NULL)
        return -1;
    inner = PyObject_GetAttr(value, s_enabled);
    Py_DECREF(value);
    if (inner == NULL)
        return -1;
    observed = PyObject_IsTrue(inner);
    Py_DECREF(inner);
    if (observed < 0)
        return -1;
    if ((value = PyObject_GetAttr(w->machine, s_sanitizer)) == NULL)
        return -1;
    observed |= value != Py_None;
    Py_DECREF(value);
    if ((w->mmio = PyObject_GetAttr(w->machine, s_mmio)) == NULL)
        return -1;
    if (observed || !PyDict_Check(w->mmio)) {
        w->context = 2;
        return 0;
    }
    if ((value = PyObject_GetAttr(w->machine, s_params)) == NULL)
        return -1;
    observed = attr_int(value, s_local_mem_latency, &w->latency, NULL);
    Py_DECREF(value);
    if (observed < 0 || (value = PyObject_GetAttr(w->machine, s_stats)) == NULL)
        return -1;
    w->per_core = attr_list(value, s_per_core);
    Py_DECREF(value);
    if (w->per_core == NULL
            || (w->owned = PyObject_GetAttr(w->machine, s__owned)) == NULL)
        return -1;
    w->context = 1;
    return 1;
}

/* ---- the private-bank access ---------------------------------------------------- */

/* Does *bank* hold the *width* bytes at *addr*?  1 and *at -> the bytes, or
 * 0: not this bank, or not all of them (the Python path reports that). */
static int
bank_holds(PyObject *bank, int64_t addr, int64_t width, char **at)
{
    int64_t base;
    PyObject *data;
    CHECK(bank, bank_type);
    GETI(base, bank, B.base);
    GETO(data, bank, B.data);
    if (!PyByteArray_Check(data)) {
        wrong_type("bytearray");
        goto fail;
    }
    if (addr < base || addr - base + width > PyByteArray_GET_SIZE(data))
        return 0;
    *at = PyByteArray_AS_STRING(data) + (addr - base);
    return 1;
fail:
    return -1;
}

/* 1 when *addr* is a device's (the Python path talks to it) */
static inline int
is_device(Window *w, PyObject *addr)
{
    return PyDict_GET_SIZE(w->mmio) ? PyDict_Contains(w->mmio, addr) : 0;
}

/* ``slot += delta`` */
static int
add_int(PyObject *obj, Py_ssize_t off, int64_t delta)
{
    int64_t value;
    GETI(value, obj, off);
    return set_int(obj, off, value + delta);
fail:
    return -1;
}

/* LBP.post from *core*'s domain to itself.  Steals *args*. */
static int
post(Window *w, PyObject *core, PyObject *when, PyObject *kind,
     PyObject *args)
{
    int status = -1, mine = 1;
    int64_t seq;
    PyObject *index, *seq_obj = NULL, *event = NULL, *outbox, *pushed;
    if (args == NULL)
        return -1;
    GETO(index, core, C.index);
    GETI(seq, core, C._seq);
    if ((seq_obj = PyLong_FromLongLong(seq + 1)) == NULL)
        goto fail;
    set_obj(core, C._seq, seq_obj);
    if ((event = PyTuple_Pack(6, when, index, seq_obj, index, kind,
                              args)) == NULL)
        goto fail;
    /* a shard worker diverts what it does not own (never this domain's
     * own events, but the rule is LBP.post's, so it is kept whole) */
    if (w->owned != Py_None
            && (mine = PySequence_Contains(w->owned, index)) < 0)
        goto fail;
    if (mine) {
        PyObject *stack[2] = {w->events, event};
        pushed = PyObject_Vectorcall(heappush, stack, 2, NULL);
    } else {
        if ((outbox = attr_list(w->machine, s__outbox)) == NULL)
            goto fail;
        pushed = PyList_Append(outbox, event) < 0 ? NULL : new_ref(Py_None);
        Py_DECREF(outbox);
    }
    status = called(pushed);
fail:
    Py_XDECREF(event);
    Py_XDECREF(seq_obj);
    Py_DECREF(args);
    return status;
}

/* The issue of a LOAD / STORE by the core being ticked.  1: it was a
 * private-bank access and is issued; 0: not that case, nothing is changed
 * and the caller calls Core._execute. */
static int
local_access(Tick *t, PyObject *hart, PyObject *entry, PyObject *low,
             int store)
{
    Window *w = t->w;
    int status, shared = 0;
    int64_t base, imm, addr, width, next_free, when;
    char *at;
    PyObject *mem, *bank, *port, *index, *gid, *tag, *stats, *width_obj;
    PyObject *addr_obj = NULL, *when_obj = NULL, *after_obj = NULL;
    PyObject *ref = NULL;

    if ((status = access_context(w)) <= 0)
        return status;
    GETI(base, entry, E.val0);
    GETI(imm, low, L.imm);
    addr = (base + imm) & MASK32;
    GETO(width_obj, low, L.width);
    GETI(width, low, L.width);
    GETO(mem, t->core, C.mem);
    CHECK(mem, mem_type);
    GETO(bank, mem, M.local);
    if ((status = bank_holds(bank, addr, width, &at)) < 0)
        goto fail;
    if (status)
        GETO(port, mem, M.local_port);
    else {
        GETO(bank, mem, M.shared);
        if ((status = bank_holds(bank, addr, width, &at)) <= 0)
            return status;
        GETO(port, mem, M.shared_local_port);
        shared = 1;
    }
    if ((addr_obj = PyLong_FromLongLong(addr)) == NULL
            || (status = is_device(w, addr_obj)) < 0)
        goto fail;
    if (status) {
        Py_DECREF(addr_obj);
        return 0;
    }
    /* Port.reserve(now + local_mem_latency) */
    CHECK(port, port_type);
    GETI(next_free, port, P.next_free);
    when = t->cycle + w->latency;
    if (next_free > when)
        when = next_free;
    if ((after_obj = PyLong_FromLongLong(when + 1)) == NULL)
        goto fail;
    set_obj(port, P.next_free, after_obj);
    GETO(index, t->core, C.index);
    if (shared) {
        int64_t number;
        PyObject *counters;
        GETI(number, t->core, C.index);
        if ((counters = list_item(w->per_core, number)) == NULL)
            goto fail;
        CHECK(counters, counters_type);
        if (add_int(counters, K.local_accesses, 1) < 0)
            goto fail;
    }
    GETO(gid, hart, H.gid);
    GETO(tag, entry, E.tag);
    GETO(stats, hart, H.stats);
    CHECK(stats, stats_type);
    if ((when_obj = PyLong_FromLongLong(when)) == NULL
            || (ref = PyTuple_Pack(2, shared ? s_shared : s_local,
                                   index)) == NULL)
        goto fail;
    if (store) {
        PyObject *value;
        GETO(value, entry, E.val1);
        if (add_int(hart, H.outstanding_mem, 1) < 0
                || post(w, t->core, when_obj, s_store_write,
                        PyTuple_Pack(7, ref, addr_obj, value, width_obj,
                                     index, gid, tag)) < 0
                || add_int(stats, S.stores, 1) < 0)
            goto fail;
    } else {
        PyObject *rb, *rd, *mnemonic;
        GETO(rb, hart, H.rb);
        CHECK(rb, rb_type);
        GETO(rd, low, L.rd);
        GETO(mnemonic, low, L.mnemonic);
        /* ResultBuffer.occupy */
        set_bool(rb, R.busy, 1);
        set_obj(rb, R.tag, tag);
        set_obj(rb, R.reg, rd);
        set_none(rb, R.value);
        set_obj(rb, R.ready_at, zero_obj);
        set_obj(rb, R.entry, entry);
        /* the read is done at when + 1: the port's next free cycle */
        if (add_int(hart, H.outstanding_mem, 1) < 0
                || post(w, t->core, when_obj, s_load_read,
                        PyTuple_Pack(7, ref, addr_obj, width_obj, mnemonic,
                                     after_obj, index, gid)) < 0
                || post(w, t->core, after_obj, s_load_done,
                        PyTuple_Pack(1, gid)) < 0
                || add_int(stats, S.loads, 1) < 0)
            goto fail;
    }
    status = 1;
    goto done;
fail:
    status = -1;
done:
    Py_XDECREF(addr_obj);
    Py_XDECREF(when_obj);
    Py_XDECREF(after_obj);
    Py_XDECREF(ref);
    return status;
}

/* ---- the three requester-local event kinds --------------------------------------
 * Each returns 1 when it handled the event, 0 when the event is not one it
 * spells (nothing is changed; the caller calls the Python handler, which
 * also words every error). */

/* hart *gid_obj* of this machine and its core, borrowed; 0: no such hart */
static int
hart_of(Window *w, PyObject *gid_obj, PyObject **core, PyObject **hart)
{
    PyObject *harts;
    int64_t gid = PyLong_Check(gid_obj) ? as_int(gid_obj) : -1;
    if (gid < 0 || (gid >> 2) >= PyList_GET_SIZE(w->cores)) {
        PyErr_Clear();  /* an id beyond int64 is no hart either */
        return 0;
    }
    *core = PyList_GET_ITEM(w->cores, gid >> 2);
    CHECK(*core, core_type);
    GETLIST(harts, *core, C.harts);
    if ((*hart = list_item(harts, gid & 3)) == NULL)
        goto fail;
    CHECK(*hart, hart_type);
    return 1;
fail:
    return -1;
}

/* The bytes a ("local" | "shared", core) bank reference, an address and a
 * width name: 1 and *at, or 0 (code bank, a device, out of range...). */
static int
event_bytes(Window *w, PyObject *ref, PyObject *addr_obj,
            PyObject *width_obj, char **at, int64_t *width)
{
    int status, shared;
    int64_t index, addr;
    PyObject *kind, *core, *mem, *bank;
    if (!PyTuple_Check(ref) || PyTuple_GET_SIZE(ref) != 2
            || !PyUnicode_Check(kind = PyTuple_GET_ITEM(ref, 0))
            || !PyLong_Check(PyTuple_GET_ITEM(ref, 1))
            || !PyLong_Check(addr_obj) || !PyLong_Check(width_obj))
        return 0;
    shared = PyUnicode_CompareWithASCIIString(kind, "shared") == 0;
    if (!shared && PyUnicode_CompareWithASCIIString(kind, "local") != 0)
        return 0;
    index = as_int(PyTuple_GET_ITEM(ref, 1));
    addr = as_int(addr_obj);
    *width = as_int(width_obj);
    if (PyErr_Occurred()) {
        PyErr_Clear();  /* beyond int64: nothing a bank holds */
        return 0;
    }
    if (index < 0 || index >= PyList_GET_SIZE(w->cores)
            || (*width != 1 && *width != 2 && *width != 4))
        return 0;
    core = PyList_GET_ITEM(w->cores, index);
    CHECK(core, core_type);
    GETO(mem, core, C.mem);
    CHECK(mem, mem_type);
    GETO(bank, mem, shared ? M.shared : M.local);
    if ((status = bank_holds(bank, addr, *width, at)) <= 0)
        return status;
    if ((status = is_device(w, addr_obj)) != 0)
        return status < 0 ? -1 : 0;
    return 1;
fail:
    return -1;
}

/* _ev_load_read(bank_ref, addr, width, mnemonic, t_done, core_index,
 * hart_gid): the bank-side read fills the hart's writeback buffer */
static int
ev_load_read(Window *w, PyObject *args)
{
    int status;
    int64_t width, ready_at, wake;
    uint32_t value = 0;
    char *at;
    PyObject *mnemonic, *done_obj, *core, *hart, *rb;
    if (PyTuple_GET_SIZE(args) != 7
            || !PyUnicode_Check(mnemonic = PyTuple_GET_ITEM(args, 3))
            || !PyLong_Check(done_obj = PyTuple_GET_ITEM(args, 4)))
        return 0;
    if ((status = event_bytes(w, PyTuple_GET_ITEM(args, 0),
                              PyTuple_GET_ITEM(args, 1),
                              PyTuple_GET_ITEM(args, 2), &at, &width)) <= 0
            || (status = hart_of(w, PyTuple_GET_ITEM(args, 6), &core,
                                 &hart)) <= 0)
        return status;
    ready_at = as_int(done_obj);
    if (ready_at == -1 && PyErr_Occurred())
        goto fail;
    GETO(rb, hart, H.rb);
    CHECK(rb, rb_type);
    GETI(wake, core, C._wb_wake);
    /* Bank.read, little-endian, then isa/semantics.py's load_value: lb and
     * lh sign-extend, every other mnemonic keeps the low 32 bits */
    while (width--)
        value = value << 8 | (unsigned char)at[width];
    if (PyUnicode_CompareWithASCIIString(mnemonic, "lb") == 0)
        value = (uint32_t)(int8_t)value;
    else if (PyUnicode_CompareWithASCIIString(mnemonic, "lh") == 0)
        value = (uint32_t)(int16_t)value;
    /* ResultBuffer.fill */
    SETI(rb, R.value, value);
    set_obj(rb, R.ready_at, done_obj);
    if (ready_at < wake)
        set_obj(core, C._wb_wake, done_obj);
    return 1;
fail:
    return -1;
}

/* _ev_load_done(hart_gid) */
static int
ev_load_done(Window *w, PyObject *args)
{
    int status;
    PyObject *core, *hart;
    if (PyTuple_GET_SIZE(args) != 1)
        return 0;
    if ((status = hart_of(w, PyTuple_GET_ITEM(args, 0), &core, &hart)) <= 0)
        return status;
    return add_int(hart, H.outstanding_mem, -1) < 0 ? -1 : 1;
}

/* _ev_store_write(bank_ref, addr, value, width, core_index, hart_gid, tag):
 * the bank-side write completes the store's ROB entry */
static int
ev_store_write(Window *w, PyObject *args)
{
    int status, same = 0;
    int64_t width, tag, small;
    uint64_t value;
    char *at;
    Py_ssize_t i;
    PyObject *value_obj, *tag_obj, *core, *hart, *rob, *entry = NULL;
    if (PyTuple_GET_SIZE(args) != 7
            || !PyLong_Check(value_obj = PyTuple_GET_ITEM(args, 2))
            || !PyLong_Check(tag_obj = PyTuple_GET_ITEM(args, 6)))
        return 0;
    if ((status = event_bytes(w, PyTuple_GET_ITEM(args, 0),
                              PyTuple_GET_ITEM(args, 1),
                              PyTuple_GET_ITEM(args, 3), &at, &width)) <= 0
            || (status = hart_of(w, PyTuple_GET_ITEM(args, 5), &core,
                                 &hart)) <= 0)
        return status;
    tag = as_int(tag_obj);
    value = one_digit(value_obj, &small) ? (uint64_t)small
        : PyLong_AsUnsignedLongLongMask(value_obj);
    if (PyErr_Occurred())
        goto fail;
    GETLIST(rob, hart, H.rob);
    for (i = 0; i < PyList_GET_SIZE(rob) && !same; i++) {
        PyObject *entry_tag;
        entry = PyList_GET_ITEM(rob, i);
        CHECK(entry, entry_type);
        GETO(entry_tag, entry, E.tag);
        if ((same = tag_is(entry_tag, tag)) < 0)
            goto fail;
    }
    if (!same)
        return 0;  /* the Python handler words the assertion */
    if (add_int(hart, H.outstanding_mem, -1) < 0)
        goto fail;
    for (; width--; value >>= 8)
        *at++ = (char)(value & 0xFF);
    set_bool(entry, E.done, 1);
    return 1;
fail:
    return -1;
}

/* ---- the loop --------------------------------------------------------------------- */

/* The cycle of the earliest pending event, never_val when there is none. */
static int64_t
next_event(Window *w)
{
    PyObject *event;
    int64_t cycle;
    if (PyList_GET_SIZE(w->events) == 0)
        return never_val;
    event = PyList_GET_ITEM(w->events, 0);
    if (!PyTuple_Check(event) || PyTuple_GET_SIZE(event) != 6
            || !PyTuple_Check(PyTuple_GET_ITEM(event, 5))) {
        wrong_type("(cycle, origin, oseq, dst, kind, args) event");
        return -1;
    }
    cycle = as_int(PyTuple_GET_ITEM(event, 0));
    if (cycle < 0 && !PyErr_Occurred())
        PyErr_SetString(PyExc_ValueError,
                        "compiled window: an event before cycle 0");
    return cycle < 0 ? -1 : cycle;
}

/* Pop the earliest event and run its handler in its domain. */
static int
dispatch(Window *w)
{
    int status = -1, handled = 0, active;
    int64_t dst;
    Py_ssize_t i, count;
    PyObject *event, *kind, *args, *core, *handler, *call = NULL;

    if ((event = PyObject_CallOneArg(heappop, w->events)) == NULL)
        return -1;
    /* next_event() checked the shape of the heap's head: this tuple */
    dst = as_int(PyTuple_GET_ITEM(event, 3));
    if (dst == -1 && PyErr_Occurred())
        goto fail;
    kind = PyTuple_GET_ITEM(event, 4);
    args = PyTuple_GET_ITEM(event, 5);
    if ((core = list_item(w->cores, dst)) == NULL)
        goto fail;
    CHECK(core, core_type);
    Py_XSETREF(w->origin, new_ref(PyTuple_GET_ITEM(event, 3)));
    w->origin_synced = 0;
    /* the handler may change what this domain's stages see */
    set_obj(core, C.sleep_until, zero_obj);
    if (w->metered) {
        /* it may also charge link_wait to a gated core's current window:
         * close the idle span up to now first */
        GETB(active, core, C.active);
        if (!active && (leave_c(w) < 0
                        || called(PyObject_CallMethodOneArg(
                            core, s_settle_idle, w->cycle_obj)) < 0))
            goto fail;
    }
    if ((handler = PyDict_GetItemWithError(event_handlers, kind)) == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, kind);
        goto fail;
    }
    if (handler == py_load_read || handler == py_load_done
            || handler == py_store_write) {
        if ((handled = access_context(w)) > 0)
            handled = handler == py_load_read ? ev_load_read(w, args)
                : handler == py_load_done ? ev_load_done(w, args)
                : ev_store_write(w, args);
        if (handled < 0)
            goto fail;
    }
    if (!handled) {
        /* handler(machine, *args) */
        count = PyTuple_GET_SIZE(args);
        if ((call = PyTuple_New(count + 1)) == NULL || leave_c(w) < 0)
            goto fail;
        PyTuple_SET_ITEM(call, 0, new_ref(w->machine));
        for (i = 0; i < count; i++)
            PyTuple_SET_ITEM(call, i + 1,
                             new_ref(PyTuple_GET_ITEM(args, i)));
        if (called(PyObject_Call(handler, call, NULL)) < 0)
            goto fail;
    }
    status = 0;
fail:
    Py_XDECREF(call);
    Py_DECREF(event);
    return status;
}

/* ``_active_cores = [core for core in cores if core.active]`` */
static int
list_active(Window *w, PyObject *cores)
{
    Py_ssize_t i;
    int active;
    PyObject *list = PyList_New(0);
    if (list == NULL)
        return -1;
    for (i = 0; i < PyList_GET_SIZE(cores); i++) {
        PyObject *core = PyList_GET_ITEM(cores, i);
        CHECK(core, core_type);
        GETB(active, core, C.active);
        if (active && PyList_Append(list, core) < 0)
            goto fail;
    }
    if (PyObject_SetAttr(w->machine, s__active_cores, list) < 0)
        goto fail;
    Py_XSETREF(w->active, list);
    return 0;
fail:
    Py_DECREF(list);
    return -1;
}

/* One core's tick: tick_core directly while ``type(core).tick`` is the
 * descriptor bind() made, else whatever replaced it (a test's wrapper, the
 * reference tick), called the way Python calls it. */
static int
tick_of(Window *w, Tick *t, PyObject *core)
{
    PyObject *found;
    int busy;
    if (Py_TYPE(core) != w->tick_type) {
        if ((found = PyObject_GetAttr((PyObject *)Py_TYPE(core),
                                      s_tick)) == NULL)
            return -1;
        w->tick_type = Py_TYPE(core);
        w->tick_direct = found == tick_descr;
        Py_DECREF(found);
    }
    if (w->tick_direct) {
        t->core = core;
        return tick_core(t);
    }
    if (leave_c(w) < 0
            || (found = PyObject_CallMethodNoArgs(core, s_tick)) == NULL)
        return -1;
    busy = truth(found);
    Py_DECREF(found);
    return busy;
}

/* LBP._simulate(cycle, barrier, cores): simulate cycles [cycle, barrier) on
 * *cores*; returns the next cycle to simulate (before *barrier* only at a
 * pending halt's cycle or right after the cycle that recorded an error). */
static PyObject *
machine_simulate(PyObject *machine, PyObject *const *args, Py_ssize_t nargs)
{
    Window w = {.machine = machine, .cycle_synced = 1, .origin_synced = 1};
    Tick t = {.machine = machine, .w = &w};
    int64_t cycle, barrier, due;
    PyObject *cores, *scan = NULL, *result = NULL;
    Py_ssize_t i;

    if (nargs != 3 || !PyList_Check(cores = args[2])) {
        PyErr_SetString(PyExc_TypeError,
                        "_simulate(cycle, barrier, cores: list)");
        return NULL;
    }
    cycle = PyLong_AsLongLong(args[0]);
    barrier = PyLong_AsLongLong(args[1]);
    if (PyErr_Occurred())
        return NULL;
    if ((w.events = attr_list(machine, s__events)) == NULL
            || (w.cores = attr_list(machine, s_cores)) == NULL
            || (t.metrics = PyObject_GetAttr(machine, s_metrics)) == NULL
            || (t.lowered = PyObject_GetAttr(machine, s_lowered)) == NULL
            || refresh(&w) < 0)
        goto fail;
    w.metered = t.metrics != Py_None;

    while (cycle < barrier) {
        if (cycle >= w.halt_at)
            break;
        if (w.num_active == 0) {
            /* every core is quiescent: hop to the next event, the pending
             * halt or the barrier, whichever comes first */
            int64_t target = barrier;
            if ((due = next_event(&w)) < 0)
                goto fail;
            if (due < target)
                target = due;
            if (w.halt_at < target)
                target = w.halt_at;
            if (target > cycle) {
                cycle = target;
                continue;
            }
        }
        /* handlers, ticks and Core.activate read machine.cycle as "now";
         * the one box of ``cycle + 1`` serves every timer this cycle sets
         * and, when the next cycle follows, is that cycle's "now" */
        if (w.next_obj != NULL && cycle == t.cycle + 1) {
            Py_XSETREF(w.cycle_obj, w.next_obj);
            w.next_obj = NULL;
        } else
            Py_XSETREF(w.cycle_obj, PyLong_FromLongLong(cycle));
        Py_XSETREF(w.next_obj, PyLong_FromLongLong(cycle + 1));
        if (w.cycle_obj == NULL || w.next_obj == NULL)
            goto fail;
        w.cycle_synced = 0;
        t.cycle = cycle;
        t.cycle_obj = w.cycle_obj;
        t.next_obj = w.next_obj;
        while ((due = next_event(&w)) <= cycle) {
            if (due < 0 || dispatch(&w) < 0
                    || (w.calls != w.seen && refresh(&w) < 0))
                goto fail;
        }
        if (w.active == NULL && list_active(&w, cores) < 0)
            goto fail;
        /* the list is walked to its end even if a wakeup or a gate-off
         * inside the walk makes it stale for the next cycle */
        scan = new_ref(w.active);
        for (i = 0; i < PyList_GET_SIZE(scan); i++) {
            PyObject *core = PyList_GET_ITEM(scan, i);
            int64_t sleep_until;
            int busy;
            CHECK(core, core_type);
            GETI(sleep_until, core, C.sleep_until);
            if (sleep_until > cycle)
                continue;
            Py_XSETREF(w.origin, new_ref(SLOT(core, C.index)));
            w.origin_synced = 0;
            if ((busy = tick_of(&w, &t, core)) < 0
                    || (w.calls != w.seen && refresh(&w) < 0))
                goto fail;
            if (!busy) {
                /* gate the core off; Hart.start wakes it */
                set_bool(core, C.active, 0);
                set_obj(core, C.idle_since, w.next_obj);
                w.num_active--;
                Py_CLEAR(w.active);
                if (set_attr_int(machine, s__num_active, w.num_active) < 0
                        || PyObject_SetAttr(machine, s__active_cores,
                                            Py_None) < 0)
                    goto fail;
            }
        }
        Py_CLEAR(scan);
        cycle++;
        if (w.has_error)
            break;
    }
    /* what the Python loop leaves behind: the last cycle simulated and the
     * last domain that ran */
    if (publish_now(&w) == 0)
        result = PyLong_FromLongLong(cycle);
fail:
    Py_XDECREF(scan);
    Py_XDECREF(w.events);
    Py_XDECREF(w.cores);
    Py_XDECREF(t.metrics);
    Py_XDECREF(t.lowered);
    Py_XDECREF(w.active);
    Py_XDECREF(w.cycle_obj);
    Py_XDECREF(w.next_obj);
    Py_XDECREF(w.origin);
    Py_XDECREF(w.mmio);
    Py_XDECREF(w.per_core);
    Py_XDECREF(w.owned);
    return result;
}

static PyMethodDef simulate_def = {
    "_simulate", (PyCFunction)(void (*)(void))machine_simulate, METH_FASTCALL,
    "_simulate(cycle, barrier, cores) -> next cycle: the cycle loop of "
    "processor.py's LBP._simulate, compiled (machine/_window.h)."};
