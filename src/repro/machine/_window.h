/* The cycle window: ``LBP._simulate`` in C, and the memory access.
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
 *     ``sanitizer``, ``mmio``, ``params.local_mem_latency`` /
 *     ``bank_access_latency`` / ``num_cores``, ``stats.per_core`` and
 *     ``_owned`` once per call, on the first event or access that needs
 *     them.
 *
 * The memory access.  A load or store whose bytes lie in the issuing
 * core's own local or shared bank, or in another core's shared bank, and
 * a ``p_lwcv`` from the hart's own CV area, are issued here
 * (``mem_access``: what ``Core._execute`` + ``schedule_access`` do for
 * them), and the events they post are handled here: ``load_read`` /
 * ``load_done`` / ``store_write`` for the own banks,
 * ``rreq_load`` -> ``bank_read`` -> ``rrep_load`` and ``rreq_store`` ->
 * ``bank_write`` + ``rack_store`` across the router tree.  Only when
 * nothing observes the access: trace off, no sanitizer, the address no
 * device's (on the issuing side for a request, on the owner's side for the
 * bank operation), the bytes inside the bank, and -- for an event --
 * ``EVENT_HANDLERS[kind]`` still the function it was at bind time.  A
 * metered run takes this path too: the metrics hooks the Python spelling
 * calls (``remote_issue``, the link scheduler's ``link_wait``,
 * ``remote_done``) are called from here at the same points.  Every other
 * case (code bank, device, traced, sanitized, out of range, unmapped, a
 * malformed event) is *not* spelled here: the window calls the Python
 * ``_execute`` or handler for that one access or event, before it has
 * changed anything.
 */

struct Window {
    PyObject *machine;          /* borrowed: the caller's self */
    /* read once per call (owned; the Tick holds metrics and lowered) */
    PyObject *events, *cores;
    PyObject *metrics;          /* machine.metrics: borrowed from the Tick */
    int metered;                /* machine.metrics is not None */
    /* cached machine attributes, re-read when calls != seen */
    PyObject *active;           /* _active_cores: owned list, NULL for None */
    int64_t halt_at;            /* _halt_at, never_val for None */
    int64_t num_active;         /* _num_active */
    int has_error;              /* _error is not None */
    int64_t calls, seen;        /* calls into Python made / at last refresh */
    /* "now", and whether the machine's attributes say so yet */
    int64_t cycle;
    PyObject *cycle_obj, *origin;   /* owned */
    PyObject *next_obj;         /* owned: cycle + 1, the Tick's next_obj */
    int cycle_synced, origin_synced;
    /* the memory access, resolved by access_context on first use */
    int context;                /* 0 unresolved, 1 native, 2 call Python */
    PyObject *mmio, *per_core, *owned;  /* owned */
    int64_t latency;            /* params.local_mem_latency */
    int64_t bank_latency;       /* params.bank_access_latency */
    int64_t num_cores;          /* params.num_cores */
    /* the core class whose ``tick`` was looked up last, and the answer */
    PyTypeObject *tick_type;
    int tick_direct;
};

/* The event kinds spelled here.  Each native spelling takes the domain
 * running the event (the core its posts come from) and the event's args;
 * it returns 1 when it handled the event, 0 when the event is not one it
 * spells (nothing is changed; the caller calls the Python handler, which
 * also words every error), -1 on an exception. */
#define NATIVE_KINDS(X) \
    X(load_read) X(load_done) X(store_write) X(rreq_load) X(bank_read) \
    X(rrep_load) X(rreq_store) X(bank_write) X(rack_store)
#define COUNT_ONE(kind) + 1
#define NATIVE_COUNT (0 NATIVE_KINDS(COUNT_ONE))
typedef int (*NativeEvent)(Window *w, PyObject *domain, PyObject *args);

static PyObject *event_handlers;  /* processor.EVENT_HANDLERS */
/* EVENT_HANDLERS[kind] at bind time, one per native kind, in that order */
static PyObject *native_handler[NATIVE_COUNT];
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
#define KIND_NAME(kind) &s_##kind,
    PyObject **const kinds[] = {NATIVE_KINDS(KIND_NAME)};
    PyObject *found[NATIVE_COUNT];
    int k;
    for (k = 0; k < NATIVE_COUNT; k++) {
        if ((found[k] = PyDict_GetItemWithError(table, *kinds[k])) == NULL) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_KeyError,
                             "EVENT_HANDLERS lacks the kind %R", *kinds[k]);
            return -1;
        }
    }
    KEEP(event_handlers, table);
    for (k = 0; k < NATIVE_COUNT; k++)
        KEEP(native_handler[k], found[k]);
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

/* May this call of the window take the native memory-access path?  1 yes,
 * 0 no (traced, sanitized: the Python spelling records what they need). */
static int
access_context(Window *w)
{
    PyObject *value, *inner;
    int observed, status;
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
    status = attr_int(value, s_local_mem_latency, &w->latency, NULL) < 0
        || attr_int(value, s_bank_access_latency, &w->bank_latency, NULL) < 0
        || attr_int(value, s_num_cores, &w->num_cores, NULL) < 0 ? -1 : 0;
    Py_DECREF(value);
    if (status < 0 || (value = PyObject_GetAttr(w->machine, s_stats)) == NULL)
        return -1;
    w->per_core = attr_list(value, s_per_core);
    Py_DECREF(value);
    if (w->per_core == NULL
            || (w->owned = PyObject_GetAttr(w->machine, s__owned)) == NULL)
        return -1;
    w->context = 1;
    return 1;
}

/* ---- the memory access ------------------------------------------------------------ */

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

/* LBP.post from *origin*'s domain to domain *dst*: the key takes the
 * origin's next ``_seq``, and a shard worker diverts an event for a domain
 * it does not own to ``_outbox``.  Steals *args*. */
static int
post(Window *w, PyObject *origin, PyObject *dst, PyObject *when,
     PyObject *kind, PyObject *args)
{
    int status = -1, mine = 1;
    int64_t seq;
    PyObject *index, *seq_obj = NULL, *event = NULL, *outbox, *pushed;
    if (args == NULL)
        return -1;
    GETO(index, origin, C.index);
    GETI(seq, origin, C._seq);
    if ((seq_obj = PyLong_FromLongLong(seq + 1)) == NULL)
        goto fail;
    set_obj(origin, C._seq, seq_obj);
    if ((event = PyTuple_Pack(6, when, index, seq_obj, dst, kind,
                              args)) == NULL)
        goto fail;
    if (w->owned != Py_None
            && (mine = PySequence_Contains(w->owned, dst)) < 0)
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

/* ``obj.name(*args[1:])`` with ``obj = args[0]``: a call from the window into
 * Python, which reads "now" */
static int
call_method(Window *w, PyObject *name, PyObject *const *args, size_t nargs)
{
    if (leave_c(w) < 0)
        return -1;
    return called(PyObject_VectorcallMethod(name, args, nargs, NULL));
}

/* ResultBuffer.occupy(entry) for the load *entry* of *hart* */
static int
occupy(PyObject *hart, PyObject *entry, PyObject *low)
{
    PyObject *rb, *tag, *rd;
    GETO(rb, hart, H.rb);
    CHECK(rb, rb_type);
    GETO(tag, entry, E.tag);
    GETO(rd, low, L.rd);
    set_bool(rb, R.busy, 1);
    set_obj(rb, R.tag, tag);
    set_obj(rb, R.reg, rd);
    set_none(rb, R.value);
    set_obj(rb, R.ready_at, zero_obj);
    set_obj(rb, R.entry, entry);
    return 0;
fail:
    return -1;
}

/* ``hart.stats.loads`` / ``stores`` += 1 */
static int
count_access(PyObject *hart, Py_ssize_t off)
{
    PyObject *stats;
    GETO(stats, hart, H.stats);
    CHECK(stats, stats_type);
    return add_int(stats, off, 1);
fail:
    return -1;
}

/* The issue of an access to the ticked core's own *bank* (its local bank,
 * or its shared one when *shared*) through *port*: Port.reserve, the bank
 * event(s) posted to this domain. */
static int
own_access(Tick *t, PyObject *hart, PyObject *entry, PyObject *low,
           enum access kind, PyObject *addr_obj, PyObject *port, int shared)
{
    Window *w = t->w;
    int status = -1;
    int64_t next_free, when;
    PyObject *index, *gid, *tag, *width_obj;
    PyObject *when_obj = NULL, *after_obj = NULL, *ref = NULL;

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
    GETO(width_obj, low, L.width);
    if ((when_obj = PyLong_FromLongLong(when)) == NULL
            || (ref = PyTuple_Pack(2, shared ? s_shared : s_local,
                                   index)) == NULL)
        goto fail;
    if (kind == ACC_STORE) {
        PyObject *value;
        GETO(value, entry, E.val1);
        if (add_int(hart, H.outstanding_mem, 1) < 0
                || post(w, t->core, index, when_obj, s_store_write,
                        PyTuple_Pack(7, ref, addr_obj, value, width_obj,
                                     index, gid, tag)) < 0
                || count_access(hart, S.stores) < 0)
            goto fail;
    } else {
        PyObject *mnemonic;
        GETO(mnemonic, low, L.mnemonic);
        /* the read is done at when + 1: the port's next free cycle */
        if (occupy(hart, entry, low) < 0
                || add_int(hart, H.outstanding_mem, 1) < 0
                || post(w, t->core, index, when_obj, s_load_read,
                        PyTuple_Pack(7, ref, addr_obj, width_obj, mnemonic,
                                     after_obj, index, gid)) < 0
                || post(w, t->core, index, after_obj, s_load_done,
                        PyTuple_Pack(1, gid)) < 0
                || (kind == ACC_LOAD && count_access(hart, S.loads) < 0))
            goto fail;
    }
    status = 1;
fail:
    Py_XDECREF(when_obj);
    Py_XDECREF(after_obj);
    Py_XDECREF(ref);
    return status;
}

/* one link of a path: LinkScheduler keys a link ``(tag, index)`` */
typedef struct {
    PyObject *tag;
    int64_t index;
} Hop;

/* the longest path: up to r4 and down again */
#define MAX_HOPS 8

/* router.request_path(src, dst) into *path*; the number of hops */
static int
request_path(int64_t src, int64_t dst, Hop *path)
{
    int n = 0;
    path[n++] = (Hop){s_c_r1, src};
    if (src / 4 == dst / 4) {
        path[n++] = (Hop){s_r1_m, dst};
        return n;
    }
    path[n++] = (Hop){s_r1_r2, src / 4};
    if (src / 16 != dst / 16) {
        path[n++] = (Hop){s_r2_r3, src / 16};
        if (src / 64 != dst / 64) {
            path[n++] = (Hop){s_r3_r4, src / 64};
            path[n++] = (Hop){s_r4_r3, dst / 64};
        }
        path[n++] = (Hop){s_r3_r2, dst / 16};
    }
    path[n++] = (Hop){s_r2_r1, dst / 4};
    path[n++] = (Hop){s_r1_m, dst};
    return n;
}

/* router.reply_path(src, dst): the reply to *src* from *dst*'s bank */
static int
reply_path(int64_t src, int64_t dst, Hop *path)
{
    int n = 0;
    path[n++] = (Hop){s_m_r1, dst};
    if (src / 4 == dst / 4) {
        path[n++] = (Hop){s_r1_c, src};
        return n;
    }
    path[n++] = (Hop){s_r1_lt_r2, dst / 4};
    if (src / 16 != dst / 16) {
        path[n++] = (Hop){s_r2_lt_r3, dst / 16};
        if (src / 64 != dst / 64) {
            path[n++] = (Hop){s_r3_lt_r4, dst / 64};
            path[n++] = (Hop){s_r4_lt_r3, src / 64};
        }
        path[n++] = (Hop){s_r3_lt_r2, src / 16};
    }
    path[n++] = (Hop){s_r2_lt_r1, src / 4};
    path[n++] = (Hop){s_r1_c, src};
    return n;
}

/* The port of link *hop* in a LinkScheduler's ``_links``, created
 * (``Port()``, as the Python spelling creates it) on its first use: a new
 * reference. */
static PyObject *
link_port(Window *w, PyObject *table, const Hop *hop)
{
    PyObject *number, *key, *port = NULL;
    if ((number = PyLong_FromLongLong(hop->index)) == NULL)
        return NULL;
    key = PyTuple_Pack(2, hop->tag, number);
    Py_DECREF(number);
    if (key == NULL)
        return NULL;
    port = PyDict_GetItemWithError(table, key);
    if (port != NULL && port != Py_None)
        Py_INCREF(port);
    else if (PyErr_Occurred()
             || leave_c(w) < 0
             || (port = PyObject_CallNoArgs((PyObject *)port_type)) == NULL
             || PyDict_SetItem(table, key, port) < 0)
        Py_CLEAR(port);
    Py_DECREF(key);
    return port;
}

/* LinkScheduler.reserve_path(path, start) on *links*: *out* the cycle the
 * message leaves the last link.  A metered scheduler is told how long the
 * path held the message up (``_metrics.link_wait``). */
static int
reserve_path(Window *w, PyObject *links, const Hop *path, int count,
             int64_t start, int64_t *out)
{
    int status = -1, i;
    int64_t hop, time = start, next_free;
    PyObject *held = NULL, *table = NULL, *port = NULL, *delay = NULL;
    PyObject *observer, *index;
    CHECK(links, links_type);
    held = new_ref(links);  /* Port() and link_wait are Python */
    GETI(hop, links, LS.hop_latency);
    GETO(table, links, LS._links);
    if (!PyDict_Check(table)) {
        table = NULL;
        wrong_type("dict of link ports");
        goto fail;
    }
    Py_INCREF(table);
    for (i = 0; i < count; i++) {
        /* Port.reserve(time + hop_latency) */
        if ((port = link_port(w, table, &path[i])) == NULL)
            goto fail;
        CHECK(port, port_type);
        GETI(next_free, port, P.next_free);
        time += hop;
        if (next_free > time)
            time = next_free;
        SETI(port, P.next_free, time + 1);
        Py_CLEAR(port);
    }
    GETO(observer, links, LS._metrics);
    if (observer != Py_None && count && time - (start + hop * count) > 0) {
        PyObject *call[3];
        GETO(index, links, LS._core_index);
        if ((delay = PyLong_FromLongLong(time - (start + hop * count)))
                == NULL)
            goto fail;
        call[0] = observer;
        call[1] = index;
        call[2] = delay;
        if (call_method(w, s_link_wait, call, 3) < 0)
            goto fail;
    }
    *out = time;
    status = 0;
fail:
    Py_XDECREF(delay);
    Py_XDECREF(port);
    Py_XDECREF(table);
    Py_XDECREF(held);
    return status;
}

/* The issue of an access to core *owner*'s shared bank: the request crosses
 * the router tree to the owner's domain (rreq_load / rreq_store). */
static int
remote_access(Tick *t, PyObject *hart, PyObject *entry, PyObject *low,
              enum access kind, PyObject *addr_obj, int64_t owner)
{
    Window *w = t->w;
    int status = -1, count;
    int64_t index, t_up;
    Hop path[MAX_HOPS];
    PyObject *counters, *index_obj, *gid, *width_obj, *links = NULL;
    PyObject *owner_obj = NULL, *up_obj = NULL, *args = NULL;

    GETO(index_obj, t->core, C.index);
    GETI(index, t->core, C.index);
    if ((counters = list_item(w->per_core, index)) == NULL)
        goto fail;
    CHECK(counters, counters_type);
    GETO(gid, hart, H.gid);
    GETO(width_obj, low, L.width);
    GETO(links, t->core, C.links);
    /* the request's args hold what they carry across the calls below */
    if ((owner_obj = PyLong_FromLongLong(owner)) == NULL)
        goto fail;
    if (kind == ACC_STORE) {
        PyObject *value, *tag;
        GETO(value, entry, E.val1);
        GETO(tag, entry, E.tag);
        args = PyTuple_Pack(7, index_obj, gid, owner_obj, addr_obj, value,
                            width_obj, tag);
    } else {
        PyObject *mnemonic;
        GETO(mnemonic, low, L.mnemonic);
        args = PyTuple_Pack(6, index_obj, gid, owner_obj, addr_obj,
                            width_obj, mnemonic);
    }
    if (args == NULL)
        goto fail;
    Py_INCREF(hart);
    Py_INCREF(links);
    if (add_int(counters, K.remote_accesses, 1) < 0
            || (kind != ACC_STORE && occupy(hart, entry, low) < 0)
            || add_int(hart, H.outstanding_mem, 1) < 0)
        goto release;
    if (w->metered) {
        PyObject *call[] = {w->metrics, PyTuple_GET_ITEM(args, 0),
                            PyTuple_GET_ITEM(args, 1), t->cycle_obj,
                            owner_obj};
        if (call_method(w, s_remote_issue, call, 5) < 0)
            goto release;
    }
    count = request_path(index, owner, path);
    if (reserve_path(w, links, path, count, t->cycle, &t_up) < 0
            || (up_obj = PyLong_FromLongLong(t_up)) == NULL)
        goto release;
    status = post(w, t->core, owner_obj, up_obj,
                  kind == ACC_STORE ? s_rreq_store : s_rreq_load, args);
    args = NULL;  /* post took it */
    if (status == 0 && kind != ACC_LWCV)
        status = count_access(hart, kind == ACC_STORE ? S.stores : S.loads);
    if (status == 0)
        status = 1;
release:
    Py_DECREF(hart);
    Py_DECREF(links);
fail:
    Py_XDECREF(owner_obj);
    Py_XDECREF(up_obj);
    Py_XDECREF(args);
    return status;
}

/* The issue of a LOAD / STORE / p_lwcv by the core being ticked.  1: it is
 * an access spelled here and is issued; 0: it is not, nothing is changed and
 * the caller calls Core._execute. */
static int
mem_access(Tick *t, PyObject *hart, PyObject *entry, PyObject *low,
           enum access kind)
{
    Window *w = t->w;
    int status, shared = 0;
    int64_t imm, addr, width, owner = -1;
    char *at;
    PyObject *mem, *bank, *port = NULL, *addr_obj;

    if ((status = access_context(w)) <= 0)
        return status;
    GETI(imm, low, L.imm);
    if (kind == ACC_LWCV) {
        /* machine.cv_address: the hart's own CV area, not masked */
        int64_t number;
        GETI(number, hart, H.index);
        if (number < 0 || number > 3)
            return 0;
        addr = cv_base[number] + imm;
    } else {
        int64_t base;
        GETI(base, entry, E.val0);
        addr = (base + imm) & MASK32;
    }
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
        if ((status = bank_holds(bank, addr, width, &at)) < 0)
            goto fail;
        if (status) {
            GETO(port, mem, M.shared_local_port);
            shared = 1;
        } else {
            /* memmap.owner_core_of: another core's shared bank?  (Not
             * the code bank, nothing unmapped, no bytes past the end of
             * this core's own bank: Python reports those.) */
            int64_t index;
            PyObject *core;
            GETI(index, t->core, C.index);
            if (addr < global_base)
                return 0;
            owner = (addr - global_base) / global_bank_size;
            if (owner >= w->num_cores || owner == index
                    || owner >= PyList_GET_SIZE(w->cores))
                return 0;
            core = PyList_GET_ITEM(w->cores, owner);
            CHECK(core, core_type);
            GETO(mem, core, C.mem);
            CHECK(mem, mem_type);
            GETO(bank, mem, M.shared);
            if ((status = bank_holds(bank, addr, width, &at)) <= 0)
                return status;
        }
    }
    if ((addr_obj = PyLong_FromLongLong(addr)) == NULL)
        goto fail;
    if ((status = is_device(w, addr_obj)) == 0)
        status = port != NULL
            ? own_access(t, hart, entry, low, kind, addr_obj, port, shared)
            : remote_access(t, hart, entry, low, kind, addr_obj, owner);
    else if (status > 0)
        status = 0;  /* a device's: the Python path talks to it */
    Py_DECREF(addr_obj);
    return status;
fail:
    return -1;
}

/* ---- the memory-access event kinds (NATIVE_KINDS) ---------------------------------- */

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

/* an exact int in [0, bound), or -1 (the Python handler deals with
 * anything else) */
static int64_t
index_in(PyObject *obj, Py_ssize_t bound)
{
    int64_t value;
    return one_digit(obj, &value) && value >= 0 && value < bound ? value : -1;
}

/* The bytes core *index_obj*'s local bank, or shared one when *shared*,
 * holds at *addr_obj*, *width_obj* wide: 1 and *at, or 0 (no such core,
 * a device's address, out of range...). */
static int
bank_bytes(Window *w, PyObject *index_obj, int shared, PyObject *addr_obj,
           PyObject *width_obj, char **at, int64_t *width)
{
    int status;
    int64_t index, addr;
    PyObject *core, *mem, *bank;
    if ((index = index_in(index_obj, PyList_GET_SIZE(w->cores))) < 0
            || !PyLong_Check(addr_obj) || !PyLong_Check(width_obj))
        return 0;
    addr = as_int(addr_obj);
    *width = as_int(width_obj);
    if (PyErr_Occurred()) {
        PyErr_Clear();  /* beyond int64: nothing a bank holds */
        return 0;
    }
    if (*width != 1 && *width != 2 && *width != 4)
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

/* The bytes a ("local" | "shared", core) bank reference names (not the
 * code bank's), as bank_bytes. */
static int
event_bytes(Window *w, PyObject *ref, PyObject *addr_obj,
            PyObject *width_obj, char **at, int64_t *width)
{
    int shared;
    PyObject *kind;
    if (!PyTuple_Check(ref) || PyTuple_GET_SIZE(ref) != 2
            || !PyUnicode_Check(kind = PyTuple_GET_ITEM(ref, 0)))
        return 0;
    shared = PyUnicode_CompareWithASCIIString(kind, "shared") == 0;
    if (!shared && PyUnicode_CompareWithASCIIString(kind, "local") != 0)
        return 0;
    return bank_bytes(w, PyTuple_GET_ITEM(ref, 1), shared, addr_obj,
                      width_obj, at, width);
}

/* Bank.read: little-endian */
static uint32_t
read_bytes(const char *at, int64_t width)
{
    uint32_t raw = 0;
    while (width--)
        raw = raw << 8 | (unsigned char)at[width];
    return raw;
}

/* Bank.write: the low *width* bytes of *value_obj*, little-endian; -1 when
 * it is no int */
static int
write_bytes(char *at, PyObject *value_obj, int64_t width)
{
    int64_t small;
    uint64_t value = one_digit(value_obj, &small) ? (uint64_t)small
        : PyLong_AsUnsignedLongLongMask(value_obj);
    if (PyErr_Occurred())
        return -1;
    for (; width--; value >>= 8)
        *at++ = (char)(value & 0xFF);
    return 0;
}

/* isa/semantics.py's load_value: lb and lh sign-extend, every other
 * mnemonic keeps the low 32 bits */
static uint32_t
load_value(PyObject *mnemonic, uint32_t raw)
{
    uint32_t bits = PyUnicode_CompareWithASCIIString(mnemonic, "lb") == 0 ? 8
        : PyUnicode_CompareWithASCIIString(mnemonic, "lh") == 0 ? 16 : 0;
    if (bits && raw & (1u << (bits - 1)))
        raw -= 1u << bits;
    return raw;
}

/* ResultBuffer.fill(value, ready_at) on *hart* of *core*, *ready_obj*
 * holding *ready_at* */
static int
fill(PyObject *core, PyObject *hart, uint32_t value, PyObject *ready_obj,
     int64_t ready_at)
{
    int64_t wake;
    PyObject *rb;
    GETO(rb, hart, H.rb);
    CHECK(rb, rb_type);
    GETI(wake, core, C._wb_wake);
    SETI(rb, R.value, value);
    set_obj(rb, R.ready_at, ready_obj);
    if (ready_at < wake)
        set_obj(core, C._wb_wake, ready_obj);
    return 0;
fail:
    return -1;
}

/* _rob_by_tag: 1 and *entry* (borrowed) when *hart*'s ROB holds *tag_obj*,
 * else 0 (the Python handler words the assertion) */
static int
rob_entry(PyObject *hart, PyObject *tag_obj, PyObject **entry)
{
    int same = 0;
    int64_t tag = as_int(tag_obj);
    Py_ssize_t i;
    PyObject *rob;
    if (tag == -1 && PyErr_Occurred())
        goto fail;
    GETLIST(rob, hart, H.rob);
    for (i = 0; i < PyList_GET_SIZE(rob) && !same; i++) {
        PyObject *entry_tag;
        *entry = PyList_GET_ITEM(rob, i);
        CHECK(*entry, entry_type);
        GETO(entry_tag, *entry, E.tag);
        if ((same = tag_is(entry_tag, tag)) < 0)
            goto fail;
    }
    return same;
fail:
    return -1;
}

/* ``machine.metrics.remote_done(src, hart_gid)`` on a metered machine */
static int
remote_done(Window *w, PyObject *src, PyObject *gid)
{
    PyObject *call[3];
    if (!w->metered)
        return 0;
    call[0] = w->metrics;
    call[1] = src;
    call[2] = gid;
    return call_method(w, s_remote_done, call, 3);
}

/* _ev_load_read(bank_ref, addr, width, mnemonic, t_done, core_index,
 * hart_gid): the bank-side read fills the hart's writeback buffer */
static int
ev_load_read(Window *w, PyObject *Py_UNUSED(domain), PyObject *args)
{
    int status;
    int64_t width, ready_at;
    char *at;
    PyObject *mnemonic, *done_obj, *core, *hart;
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
    if ((ready_at == -1 && PyErr_Occurred())
            || fill(core, hart, load_value(mnemonic, read_bytes(at, width)),
                    done_obj, ready_at) < 0)
        return -1;
    return 1;
}

/* _ev_load_done(hart_gid) */
static int
ev_load_done(Window *w, PyObject *Py_UNUSED(domain), PyObject *args)
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
ev_store_write(Window *w, PyObject *Py_UNUSED(domain), PyObject *args)
{
    int status;
    int64_t width;
    char *at;
    PyObject *value_obj, *tag_obj, *core, *hart, *entry;
    if (PyTuple_GET_SIZE(args) != 7
            || !PyLong_Check(value_obj = PyTuple_GET_ITEM(args, 2))
            || !PyLong_Check(tag_obj = PyTuple_GET_ITEM(args, 6)))
        return 0;
    if ((status = event_bytes(w, PyTuple_GET_ITEM(args, 0),
                              PyTuple_GET_ITEM(args, 1),
                              PyTuple_GET_ITEM(args, 3), &at, &width)) <= 0
            || (status = hart_of(w, PyTuple_GET_ITEM(args, 5), &core,
                                 &hart)) <= 0
            || (status = rob_entry(hart, tag_obj, &entry)) <= 0)
        return status;
    if (add_int(hart, H.outstanding_mem, -1) < 0
            || write_bytes(at, value_obj, width) < 0)
        return -1;
    set_bool(entry, E.done, 1);
    return 1;
}

/* The arrival of a request (src, hart_gid, owner, ...) at the owner's router
 * port, common to rreq_load and rreq_store: the bank slot *t_bank* and the
 * cycle *t_back* the reply, reserved from it, leaves its last link. */
static int
arrive(Window *w, PyObject *args, int64_t *t_bank, int64_t *t_back)
{
    int count;
    int64_t src, owner, next_free;
    Hop path[MAX_HOPS];
    PyObject *core, *mem, *port, *links;
    if ((src = index_in(PyTuple_GET_ITEM(args, 0),
                        PyList_GET_SIZE(w->cores))) < 0
            || (owner = index_in(PyTuple_GET_ITEM(args, 2),
                                 PyList_GET_SIZE(w->cores))) < 0)
        return 0;
    core = PyList_GET_ITEM(w->cores, owner);
    CHECK(core, core_type);
    GETO(mem, core, C.mem);
    CHECK(mem, mem_type);
    GETO(port, mem, M.shared_router_port);
    CHECK(port, port_type);
    GETO(links, core, C.links);
    /* shared_router_port.reserve(now + bank_access_latency) */
    GETI(next_free, port, P.next_free);
    *t_bank = w->cycle + w->bank_latency;
    if (next_free > *t_bank)
        *t_bank = next_free;
    SETI(port, P.next_free, *t_bank + 1);
    count = reply_path(src, owner, path);
    return reserve_path(w, links, path, count, *t_bank, t_back) < 0 ? -1 : 1;
fail:
    return -1;
}

/* _ev_rreq_load(src, hart_gid, owner, addr, width, mnemonic): the bank read
 * is booked, and with it the reply's way back */
static int
ev_rreq_load(Window *w, PyObject *domain, PyObject *args)
{
    int status, i;
    int64_t t_bank, t_back;
    PyObject *bank_obj = NULL, *done_obj = NULL, *a[6];
    if (PyTuple_GET_SIZE(args) != 6)
        return 0;
    if ((status = arrive(w, args, &t_bank, &t_back)) <= 0)
        return status;
    for (i = 0; i < 6; i++)
        a[i] = PyTuple_GET_ITEM(args, i);
    if ((bank_obj = PyLong_FromLongLong(t_bank)) == NULL
            || (done_obj = PyLong_FromLongLong(t_back + 1)) == NULL)
        status = -1;
    else
        status = post(w, domain, a[2], bank_obj, s_bank_read,
                      PyTuple_Pack(7, a[0], a[1], a[2], a[3], a[4], a[5],
                                   done_obj));
    Py_XDECREF(bank_obj);
    Py_XDECREF(done_obj);
    return status < 0 ? -1 : 1;
}

/* _ev_bank_read(src, hart_gid, owner, addr, width, mnemonic, t_done): the
 * owner's bank is read, the value travels back as rrep_load */
static int
ev_bank_read(Window *w, PyObject *domain, PyObject *args)
{
    int status;
    int64_t width;
    char *at;
    PyObject *mnemonic, *value;
    if (PyTuple_GET_SIZE(args) != 7
            || !PyUnicode_Check(mnemonic = PyTuple_GET_ITEM(args, 5)))
        return 0;
    if ((status = bank_bytes(w, PyTuple_GET_ITEM(args, 2), 1,
                             PyTuple_GET_ITEM(args, 3),
                             PyTuple_GET_ITEM(args, 4), &at, &width)) <= 0)
        return status;
    if ((value = PyLong_FromUnsignedLong(
             load_value(mnemonic, read_bytes(at, width)))) == NULL)
        return -1;
    status = post(w, domain, PyTuple_GET_ITEM(args, 0),
                  PyTuple_GET_ITEM(args, 6), s_rrep_load,
                  PyTuple_Pack(4, PyTuple_GET_ITEM(args, 0),
                               PyTuple_GET_ITEM(args, 1),
                               PyTuple_GET_ITEM(args, 3), value));
    Py_DECREF(value);
    return status < 0 ? -1 : 1;
}

/* _ev_rrep_load(src, hart_gid, addr, value): the reply fills the hart's
 * writeback buffer, ready now */
static int
ev_rrep_load(Window *w, PyObject *Py_UNUSED(domain), PyObject *args)
{
    int status;
    int64_t small;
    uint32_t value;
    PyObject *value_obj, *core, *hart;
    if (PyTuple_GET_SIZE(args) != 4
            || !PyLong_Check(value_obj = PyTuple_GET_ITEM(args, 3)))
        return 0;
    if ((status = hart_of(w, PyTuple_GET_ITEM(args, 1), &core, &hart)) <= 0)
        return status;
    value = (uint32_t)(one_digit(value_obj, &small) ? (uint64_t)small
                       : PyLong_AsUnsignedLongLongMask(value_obj));
    if (PyErr_Occurred()
            || fill(core, hart, value, w->cycle_obj, w->cycle) < 0
            || add_int(hart, H.outstanding_mem, -1) < 0
            || remote_done(w, PyTuple_GET_ITEM(args, 0),
                           PyTuple_GET_ITEM(args, 1)) < 0)
        return -1;
    return 1;
}

/* _ev_rreq_store(src, hart_gid, owner, addr, value, width, tag): the bank
 * write is booked, and the ack's way back */
static int
ev_rreq_store(Window *w, PyObject *domain, PyObject *args)
{
    int status, i;
    int64_t t_bank, t_back;
    PyObject *bank_obj = NULL, *ack_obj = NULL, *a[7];
    if (PyTuple_GET_SIZE(args) != 7)
        return 0;
    if ((status = arrive(w, args, &t_bank, &t_back)) <= 0)
        return status;
    for (i = 0; i < 7; i++)
        a[i] = PyTuple_GET_ITEM(args, i);
    if ((bank_obj = PyLong_FromLongLong(t_bank)) == NULL
            || (ack_obj = PyLong_FromLongLong(t_back + 1)) == NULL
            || post(w, domain, a[2], bank_obj, s_bank_write,
                    PyTuple_Pack(4, a[2], a[3], a[4], a[5])) < 0
            || post(w, domain, a[0], ack_obj, s_rack_store,
                    PyTuple_Pack(5, a[0], a[1], a[3], a[4], a[6])) < 0)
        status = -1;
    Py_XDECREF(bank_obj);
    Py_XDECREF(ack_obj);
    return status < 0 ? -1 : 1;
}

/* _ev_bank_write(owner, addr, value, width) */
static int
ev_bank_write(Window *w, PyObject *Py_UNUSED(domain), PyObject *args)
{
    int status;
    int64_t width;
    char *at;
    PyObject *value_obj;
    if (PyTuple_GET_SIZE(args) != 4
            || !PyLong_Check(value_obj = PyTuple_GET_ITEM(args, 2)))
        return 0;
    if ((status = bank_bytes(w, PyTuple_GET_ITEM(args, 0), 1,
                             PyTuple_GET_ITEM(args, 1),
                             PyTuple_GET_ITEM(args, 3), &at, &width)) <= 0)
        return status;
    return write_bytes(at, value_obj, width) < 0 ? -1 : 1;
}

/* _ev_rack_store(src, hart_gid, addr, value, tag): the owner wrote, the
 * store's ROB entry completes */
static int
ev_rack_store(Window *w, PyObject *Py_UNUSED(domain), PyObject *args)
{
    int status;
    PyObject *tag_obj, *core, *hart, *entry;
    if (PyTuple_GET_SIZE(args) != 5
            || !PyLong_Check(tag_obj = PyTuple_GET_ITEM(args, 4)))
        return 0;
    if ((status = hart_of(w, PyTuple_GET_ITEM(args, 1), &core, &hart)) <= 0
            || (status = rob_entry(hart, tag_obj, &entry)) <= 0)
        return status;
    Py_INCREF(entry);  /* remote_done is Python */
    if (add_int(hart, H.outstanding_mem, -1) < 0
            || remote_done(w, PyTuple_GET_ITEM(args, 0),
                           PyTuple_GET_ITEM(args, 1)) < 0)
        status = -1;
    else
        set_bool(entry, E.done, 1);
    Py_DECREF(entry);
    return status;
}

/* NATIVE_KINDS' spellings, in that order */
#define KIND_SPELLING(kind) ev_##kind,
static const NativeEvent native_event[NATIVE_COUNT] = {
    NATIVE_KINDS(KIND_SPELLING)};

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
    int status = -1, handled = 0, active, k;
    int64_t dst;
    Py_ssize_t i, count;
    PyObject *event, *kind, *args, *core = NULL, *handler, *call = NULL;

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
    Py_INCREF(core);  /* the domain posts from it after calls into Python */
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
    for (k = 0; k < NATIVE_COUNT && handler != native_handler[k]; k++)
        ;
    if (k < NATIVE_COUNT) {
        if ((handled = access_context(w)) > 0)
            handled = native_event[k](w, core, args);
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
    Py_XDECREF(core);
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
    w.metrics = t.metrics;
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
        w.cycle = t.cycle = cycle;
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
