/* The cycle window: ``LBP._simulate`` in C, the memory access and the
 * team protocol.
 *
 * Included by _tick.c (one translation unit, one binary).  This is the
 * loop of ``processor.py``'s ``_simulate`` -- the all-gated hop, due-event
 * dispatch, the ``sleep_until`` compare, the ticks, gate-off bookkeeping,
 * the halt / error exits -- over the *existing* objects: ``machine.cycle`` /
 * ``_origin`` / ``_num_active`` / ``_active_cores`` / ``_halt_at`` /
 * ``_error`` stay the attributes Python reads and writes.  The Python
 * ``_simulate`` is the reference: it runs when the extension is missing
 * and under ``backend="interp"``, and the parity suite holds this file to
 * it bit for bit.
 *
 * The event queue.  At rest -- between calls, and whatever Python reads --
 * ``machine._events`` is the ``heapq`` list of ``(cycle, origin, oseq, dst,
 * kind, args)`` tuples.  While a call runs, the pending events live in the
 * window's own binary heap of ``Event`` structs, ordered by the unboxed key
 * ``(cycle, origin, oseq)``; the key is unique, so the pop order is the
 * list's.  The window moves the list's tuples in when it starts, checking
 * their shape, and again after every call into Python (what ``LBP.post``
 * appended meanwhile); it writes everything it holds back to the list as
 * 6-tuples, a heap again, on every way out (barrier, halt, error,
 * exception).  An event posted here is a struct, not a tuple: the tuple is
 * built only if it is still pending when the call returns.
 *
 * The core views.  The same rule holds for the cores' pipeline scalars
 * (_tick.c says which): one ``CoreView`` per core of ``machine.cores``,
 * loaded part by part from the slots the first time C needs a part in the
 * call or after a call into Python (``fresh``), flushed back -- only what C
 * wrote -- before every call into Python and on every way out.  A
 * window-less ``Core.tick`` or ``settle_idle`` has one view of its own.
 *
 * The contract with the Python it calls (handlers, ticks that are not
 * ours, a replaced ``settle_idle``, everything behind the tick's
 * ``callback``):
 *   - the views are flushed first, and load again after: the view
 *     reloads after a call;
 *   - ``machine.cycle`` and ``machine._origin`` are written lazily: before
 *     every call into Python (``leave_c``) and when the window returns, so
 *     Python never sees a stale "now" and a cycle that stays in C pays for
 *     neither;
 *   - ``_halt_at``, ``_error``, ``_num_active`` and ``_active_cores`` are
 *     cached and re-read after every call into Python (``refresh``; only
 *     Python writes the first two, ``Core.activate`` the others); the
 *     window's own writes (gate-off, the rebuilt active list) go to the
 *     attribute at once.  ``EVENT_HANDLERS[kind]`` of a native kind is
 *     compared with its bind-time function on that kind's first event after
 *     a call into Python, not per event; so are ``type(core).settle_idle``
 *     and, on a metered machine, whether the metrics hooks are Metrics'
 *     own (``window_charges``);
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
 * metered run takes this path too, and makes the charges the Python
 * spelling's hooks make at the same points itself: the eta push of
 * ``remote_issue`` (the round trip from the two paths' lengths), the
 * scheduler's ``link_wait``, the FIFO pop of ``remote_done``; so does the
 * settlement of a gated core before an event runs in its domain
 * (``settle``: ``skipped_cycles``, the gated-idle charge, ``idle_since``).
 * Python is called only at a window edge inside an idle span (``_emit``);
 * for a Metrics subclass or a replaced hook each charge is a call to the
 * hook, as before.  Every other
 * case (code bank, device, traced, sanitized, out of range, unmapped, a
 * malformed event) is *not* spelled here: the window calls the Python
 * ``_execute`` or handler for that one access or event, before it has
 * changed anything.
 *
 * The team protocol.  The X_PAR messages -- p_fc / p_fn and the fork
 * token, p_swcv on the core and over the forward link, p_swre / p_lwre,
 * the start pc of p_jal / p_jalr --, issue's free-hart probe, decode's
 * fork request and the p_ret commit, and the eleven event kinds they post
 * (``cv_write``, ``rreq_cv`` -> ``cv_apply`` + ``rack_cv``,
 * ``re_deliver`` -> ``re_ack``, ``fork_req`` -> ``fork_grant``,
 * ``start_pc``, ``ending_signal``, ``join``) are spelled here by the same
 * rule, a replaced ``Core`` / ``LBP`` method sending its site back to
 * Python as a replaced handler does its kind.  A metered run's CV write
 * to the next core pushes and pops its eta here too.  Every check the
 * Python spelling words as a machine error (a hart id outside the
 * machine, a core beyond the forward link's reach, p_fn on the last core,
 * a start pc for an unallocated hart, a join or p_swre to a later core)
 * is made before anything changes, and a step that fails one is handed
 * to Python whole: each message is worded once, in processor.py.  Only
 * the halt of an ``exit`` stays a call, once a run.
 */

/* The event kinds spelled here: every kind of ``EVENT_HANDLERS``
 * (native_kinds() returns them for the test that checks that).  Each
 * native spelling takes the domain
 * running the event (the core its posts come from) and the event's args;
 * it returns 1 when it handled the event, 0 when the event is not one it
 * spells (nothing is changed; the caller calls the Python handler, which
 * also words every error), -1 on an exception. */
#define NATIVE_KINDS(X) \
    X(load_read) X(load_done) X(store_write) X(cv_write) X(rreq_load) \
    X(bank_read) X(rrep_load) X(rreq_store) X(bank_write) X(rack_store) \
    X(rreq_cv) X(cv_apply) X(rack_cv) X(re_deliver) X(re_ack) X(fork_req) \
    X(fork_grant) X(start_pc) X(ending_signal) X(join)
#define KIND_INDEX(kind) EV_##kind,
enum { NATIVE_KINDS(KIND_INDEX) NATIVE_COUNT };
#define KIND_NAME(kind) &s_##kind,
static PyObject **const kind_name[NATIVE_COUNT] = {NATIVE_KINDS(KIND_NAME)};

/* One pending event of the window's heap.  Moved in from
 * ``machine._events``, it holds that tuple, which owns *name* and *args*
 * and is what goes back; posted here, it owns *args*, and *name* is the
 * interned kind. */
typedef struct {
    int64_t cycle, origin, oseq, dst;   /* (cycle, origin, oseq): the key */
    int kind;                   /* a NATIVE_KINDS index, or -1 */
    PyObject *name, *args;
    PyObject *tuple;            /* owned, or NULL */
} Event;

struct Window {
    PyObject *machine;          /* borrowed: the caller's self */
    /* read once per call (owned; the Tick holds metrics and lowered) */
    PyObject *events, *cores;
    PyObject *metrics;          /* machine.metrics: borrowed from the Tick */
    int metered;                /* machine.metrics is not None */
    /* the charges are made here (1) or are calls to the hooks (0), as
     * hooks_native said when ``calls`` was charges_checked - 1 */
    int charges;
    int64_t charges_checked;
    /* cached machine attributes, re-read when calls != seen */
    PyObject *active;           /* _active_cores: owned list, NULL for None */
    int64_t halt_at;            /* _halt_at, never_val for None */
    int64_t num_active;         /* _num_active */
    int has_error;              /* _error is not None */
    int64_t calls, seen;        /* calls into Python made / at last refresh */
    /* "now", and whether the machine's attributes say so yet */
    int64_t cycle;
    PyObject *origin;           /* owned */
    /* owned boxes of cycle and cycle + 1, made when first needed (a call,
     * a flush, a timer's object); NULL until then */
    PyObject *cycle_obj, *next_obj;
    int cycle_synced, origin_synced;
    /* the memory access, resolved by access_context on first use */
    int context;                /* 0 unresolved, 1 native, 2 call Python */
    PyObject *mmio, *per_core, *owned;  /* owned */
    int64_t latency;            /* params.local_mem_latency */
    int64_t bank_latency;       /* params.bank_access_latency */
    int64_t hop_latency;        /* params.link_hop_latency */
    int64_t num_cores;          /* params.num_cores */
    int64_t cv_latency;         /* params.cv_write_latency */
    int64_t result_buffers;     /* params.num_result_buffers */
    /* the core class whose METHODS were looked up last, when ``calls`` was
     * methods_checked - 1, and which are still bind()'s (bit per method) */
    PyTypeObject *method_type;
    int64_t methods_checked;
    unsigned methods_live;
    /* the core class whose ``tick`` was looked up last, and the answer */
    PyTypeObject *tick_type;
    int tick_direct;
    /* the same for ``settle_idle``, looked up again after a call into
     * Python (when ``calls`` was settle_checked - 1) */
    PyTypeObject *settle_type;
    int settle_direct;
    int64_t settle_checked;
    /* the pending events while the call runs: a binary heap on the key */
    Event *heap;
    Py_ssize_t size, room;
    /* the core views, one per core of ``cores`` (owned array; a window-less
     * tick or settlement has the one of its core), and the positions of
     * those loaded since the last flush */
    CoreView *views;
    Py_ssize_t nviews;
    Py_ssize_t *touched, ntouched;
    Py_ssize_t hint;            /* the view after the one view_for found */
    /* no window: Core.tick / settle_idle called on their own, every site
     * the Python call */
    int alone;
    /* kind k's handler is native_handler[k]: bit k of *live*, as compared
     * when ``calls`` was checked[k] - 1 (0: not yet) */
    unsigned live;
    int64_t checked[NATIVE_COUNT];
};

typedef int (*NativeEvent)(Window *w, CoreView *domain, PyObject *args);

static PyObject *event_handlers;  /* processor.EVENT_HANDLERS */
/* EVENT_HANDLERS[kind] at bind time, one per native kind, in that order */
static PyObject *native_handler[NATIVE_COUNT];
static PyObject *heapify;

static int
import_heapq(void)
{
    PyObject *heapq = PyImport_ImportModule("heapq");
    if (heapq == NULL)
        return -1;
    Py_XSETREF(heapify, PyObject_GetAttrString(heapq, "heapify"));
    Py_DECREF(heapq);
    return heapify != NULL ? 0 : -1;
}

static int
keep_handlers(PyObject *table)
{
    PyObject *found[NATIVE_COUNT];
    int k;
    for (k = 0; k < NATIVE_COUNT; k++) {
        if ((found[k] = PyDict_GetItemWithError(table, *kind_name[k]))
                == NULL) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_KeyError,
                             "EVENT_HANDLERS lacks the kind %R",
                             *kind_name[k]);
            return -1;
        }
    }
    KEEP(event_handlers, table);
    for (k = 0; k < NATIVE_COUNT; k++)
        KEEP(native_handler[k], found[k]);
    return 0;
}

/* ---- the event heap ------------------------------------------------------------- */

static inline int
earlier(const Event *a, const Event *b)
{
    if (a->cycle != b->cycle)
        return a->cycle < b->cycle;
    if (a->origin != b->origin)
        return a->origin < b->origin;
    return a->oseq < b->oseq;
}

/* Room for *more* events past the heap's end. */
static int
heap_room(Window *w, Py_ssize_t more)
{
    Event *grown;
    Py_ssize_t room;
    if (w->size + more <= w->room)
        return 0;
    room = 2 * (w->size + more) + 16;
    if ((grown = PyMem_Realloc(w->heap, room * sizeof(Event))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    w->heap = grown;
    w->room = room;
    return 0;
}

/* The event at the heap's end joins the heap. */
static void
heap_push(Window *w)
{
    Event *heap = w->heap, item = heap[w->size];
    Py_ssize_t i = w->size++;
    while (i > 0 && earlier(&item, &heap[(i - 1) / 2])) {
        heap[i] = heap[(i - 1) / 2];
        i = (i - 1) / 2;
    }
    heap[i] = item;
}

/* The earliest event leaves the heap: *out* holds what it held. */
static void
heap_pop(Window *w, Event *out)
{
    Event *heap = w->heap, last;
    Py_ssize_t i = 0, child, n = --w->size;
    *out = heap[0];
    if (n == 0)
        return;
    last = heap[n];
    while ((child = 2 * i + 1) < n) {
        if (child + 1 < n && earlier(&heap[child + 1], &heap[child]))
            child++;
        if (!earlier(&heap[child], &last))
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = last;
}

/* Drop what an event out of the heap holds. */
static void
release(Event *event)
{
    Py_DECREF(event->tuple != NULL ? event->tuple : event->args);
}

/* The NATIVE_KINDS index of the kind *name*, or -1 (a kind only Python
 * spells, or no kind at all: its handler lookup words that). */
static int
kind_index(PyObject *name)
{
    int k;
    for (k = 0; k < NATIVE_COUNT; k++)
        if (name == *kind_name[k])
            return k;
    /* a kind read back from a snapshot is equal, not the interned string */
    if (PyUnicode_CheckExact(name) && !PyUnicode_CHECK_INTERNED(name))
        for (k = 0; k < NATIVE_COUNT; k++)
            if (PyUnicode_Compare(name, *kind_name[k]) == 0)
                return k;
    return -1;
}

/* ``event[i]`` as the int64 *out* */
static inline int
key_field(PyObject *event, Py_ssize_t i, int64_t *out)
{
    *out = as_int(PyTuple_GET_ITEM(event, i));
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* *into*: the heap entry for the tuple *event*, holding it. */
static int
event_in(PyObject *event, Event *into)
{
    if (!PyTuple_Check(event) || PyTuple_GET_SIZE(event) != 6
            || !PyTuple_Check(PyTuple_GET_ITEM(event, 5))) {
        wrong_type("(cycle, origin, oseq, dst, kind, args) event");
        return -1;
    }
    if (key_field(event, 0, &into->cycle) < 0
            || key_field(event, 1, &into->origin) < 0
            || key_field(event, 2, &into->oseq) < 0
            || key_field(event, 3, &into->dst) < 0)
        return -1;
    if (into->cycle < 0) {
        PyErr_SetString(PyExc_ValueError,
                        "compiled window: an event before cycle 0");
        return -1;
    }
    into->name = PyTuple_GET_ITEM(event, 4);
    into->kind = kind_index(into->name);
    into->args = PyTuple_GET_ITEM(event, 5);
    into->tuple = new_ref(event);
    return 0;
}

/* The heap entry *event* as the tuple ``machine._events`` holds: a new
 * reference, or NULL.  What the entry held is the result's (or dropped). */
static PyObject *
event_out(Event *event)
{
    int64_t key[4] = {event->cycle, event->origin, event->oseq, event->dst};
    PyObject *tuple, *number;
    int i;
    if (event->tuple != NULL)
        return event->tuple;
    if ((tuple = PyTuple_New(6)) == NULL) {
        Py_DECREF(event->args);
        return NULL;
    }
    PyTuple_SET_ITEM(tuple, 4, new_ref(event->name));
    PyTuple_SET_ITEM(tuple, 5, event->args);
    for (i = 0; i < 4; i++) {
        if ((number = PyLong_FromLongLong(key[i])) == NULL) {
            Py_DECREF(tuple);
            return NULL;
        }
        PyTuple_SET_ITEM(tuple, i, number);
    }
    return tuple;
}

/* Move what ``machine._events`` holds into the heap, all or nothing: at
 * the start of a call the whole list (a heap already, so every push stops
 * at its first compare), after a call into Python what ``LBP.post``
 * appended. */
static int
absorb(Window *w)
{
    Py_ssize_t i, n = PyList_GET_SIZE(w->events);
    if (n == 0)
        return 0;
    if (heap_room(w, n) < 0)
        return -1;
    for (i = 0; i < n; i++)
        if (event_in(PyList_GET_ITEM(w->events, i),
                     &w->heap[w->size + i]) < 0) {
            while (i--)
                release(&w->heap[w->size + i]);
            return -1;
        }
    for (i = 0; i < n; i++)
        heap_push(w);
    /* the heap holds its own references: clearing the list frees nothing */
    return PyList_SetSlice(w->events, 0, n, NULL);
}

/* An exception set aside while the window hands its events back. */
#if PY_VERSION_HEX >= 0x030C0000
typedef struct { PyObject *value; } Raised;
#define RAISED(r) ((r)->value != NULL)
#define SET_ASIDE(r) ((r)->value = PyErr_GetRaisedException())
#define RAISE_AGAIN(r) PyErr_SetRaisedException((r)->value)
#else
typedef struct { PyObject *type, *value, *traceback; } Raised;
#define RAISED(r) ((r)->type != NULL)
#define SET_ASIDE(r) PyErr_Fetch(&(r)->type, &(r)->value, &(r)->traceback)
#define RAISE_AGAIN(r) PyErr_Restore((r)->type, (r)->value, (r)->traceback)
#endif

/* the first exception is the one the window raises */
static void
keep_first(Raised *first)
{
    if (RAISED(first))
        PyErr_Clear();
    else
        SET_ASIDE(first);
}

/* The call is returning, by any way: everything pending goes back to
 * ``machine._events`` as 6-tuples, and the list is a heap again.  The
 * exception the window is raising, if any, stays the one raised. */
static int
write_back(Window *w)
{
    Raised first;
    Py_ssize_t i;
    PyObject *event;
    int foreign;
    SET_ASIDE(&first);
    if (absorb(w) < 0)
        keep_first(&first);
    /* a heap in the same order is a heap for ``heapq``: the tuples compare
     * as their keys do */
    foreign = PyList_GET_SIZE(w->events) > 0;
    for (i = 0; i < w->size; i++) {
        if ((event = event_out(&w->heap[i])) == NULL
                || PyList_Append(w->events, event) < 0)
            keep_first(&first);
        Py_XDECREF(event);
    }
    w->size = 0;
    if (foreign && called(PyObject_CallOneArg(heapify, w->events)) < 0)
        keep_first(&first);
    if (!RAISED(&first))
        return 0;
    RAISE_AGAIN(&first);
    return -1;
}

/* 1 while ``EVENT_HANDLERS`` still maps native kind *k* to the function it
 * did at bind time, else 0.  Only Python can replace it, so the entry is
 * looked up once per kind between two calls into Python, not per event. */
static int
handler_is_native(Window *w, int k)
{
    PyObject *found;
    if (w->checked[k] != w->calls + 1) {
        found = PyDict_GetItemWithError(event_handlers, *kind_name[k]);
        if (found == NULL && PyErr_Occurred())
            return -1;
        if (found == native_handler[k])
            w->live |= 1u << k;
        else
            w->live &= ~(1u << k);
        w->checked[k] = w->calls + 1;
    }
    return w->live >> k & 1;
}

/* hooks_native(machine.metrics) of a metered machine, looked up as
 * handler_is_native looks up a handler: once between two calls into
 * Python */
static int
window_charges(Window *w)
{
    if (w->charges_checked != w->calls + 1) {
        if ((w->charges = hooks_native(w->metrics)) < 0)
            return -1;
        w->charges_checked = w->calls + 1;
    }
    return w->charges;
}

/* ---- the core view ---------------------------------------------------------------
 * _tick.c says what a view holds.  These are the only functions that read
 * or write its fields' slots. */

static PyObject *per_core(Window *w);

static PyObject *
cycle_box(Window *w)
{
    if (w->cycle_obj == NULL)
        w->cycle_obj = PyLong_FromLongLong(w->cycle);
    return w->cycle_obj;
}

static PyObject *
next_box(Window *w)
{
    if (w->next_obj == NULL)
        w->next_obj = PyLong_FromLongLong(w->cycle + 1);
    return w->next_obj;
}

/* *out*: *value* as an int64, as GETI reads a slot */
static INLINE int
read_int(PyObject *value, int64_t *out)
{
    *out = as_int(value);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* *out*: the slot as an int64, as GETI reads it */
static INLINE int
load_int(PyObject *obj, Py_ssize_t off, int64_t *out)
{
    PyObject *value = SLOT(obj, off);
    if (value == NULL) {
        unset_slot();
        return -1;
    }
    return read_int(value, out);
}

/* *out*: the slot's truth, as GETB reads it */
static INLINE int
load_bool(PyObject *obj, Py_ssize_t off, int *out)
{
    PyObject *value = SLOT(obj, off);
    if (value == NULL) {
        unset_slot();
        return -1;
    }
    return (*out = truth(value)) < 0 ? -1 : 0;
}

/* *out*: the slot, borrowed, checked to be a *type* (any object: NULL) */
static INLINE int
load_obj(PyObject *obj, Py_ssize_t off, PyTypeObject *type, PyObject **out)
{
    if ((*out = SLOT(obj, off)) == NULL) {
        unset_slot();
        return -1;
    }
    if (type != NULL && !PyObject_TypeCheck(*out, type)) {
        wrong_type(type->tp_name);
        return -1;
    }
    return 0;
}

#define LOAD_INT(obj, T, into, name) \
    if (load_int(obj, T.name, &(into)->name) < 0) return -1;
#define LOAD_BOOL(obj, T, into, name) \
    if (load_bool(obj, T.name, &(into)->name) < 0) return -1;
#define LOAD_C_INT(name) LOAD_INT(v->core, C, v, name)
#define LOAD_C_BOOL(name) LOAD_BOOL(v->core, C, v, name)
#define LOAD_H_INT(name) LOAD_INT(hv->hart, H, hv, name)
#define LOAD_H_BOOL(name) LOAD_BOOL(hv->hart, H, hv, name)
#define LOAD_S_INT(name) LOAD_INT(hv->stats, S, hv, name)
#define LOAD_K_INT(name) LOAD_INT(v->counters, K, v, name)

/* The core's scalars *bits* that *v* lacks.  Inlined where *bits* is a
 * constant, it loads those fields and no others. */
static INLINE int
load_cgates(CoreView *v, unsigned bits)
{
    /* a scalar C wrote before it needed it keeps what C wrote */
    unsigned missing = bits & ~v->gates & ~v->dirty;
#define LOAD_C_MISSING_INT(name) \
    if (missing & G(name)) LOAD_C_INT(name)
    CV_INTS(LOAD_C_MISSING_INT)
    LOAD_C_MISSING_INT(_rob_size)
    if (missing & G(active))
        LOAD_C_BOOL(active)
    v->gates |= bits;
    return 0;
}

static int
load_pipe(CoreView *v)
{
    int h;
    PyObject *harts;
    if (load_obj(v->core, C.harts, &PyList_Type, &harts) < 0)
        return -1;
    if (PyList_GET_SIZE(harts) != 4) {
        wrong_type("list of four harts");
        return -1;
    }
    for (h = 0; h < 4; h++) {
        HartView *hv = &v->h[h];
        hv->hart = PyList_GET_ITEM(harts, h);
        if (!PyObject_TypeCheck(hv->hart, hart_type)) {
            wrong_type(hart_type->tp_name);
            return -1;
        }
        hv->gates = 0;
    }
    return 0;
}

#define LOAD_H_MISSING_INT(name) \
    if (missing & G(name)) LOAD_H_INT(name)
#define LOAD_H_MISSING_BOOL(name) \
    if (missing & G(name)) LOAD_H_BOOL(name)
#define LOAD_S_MISSING_INT(name) \
    if (missing & G(name)) LOAD_S_INT(name)

/* The fields *bits* of hart *h* that *v* lacks, as load_cgates. */
static INLINE int
load_gates(CoreView *v, int h, unsigned bits)
{
    HartView *hv = &v->h[h];
    PyObject *hart = hv->hart;
    /* a field C wrote before it needed it keeps what C wrote */
    unsigned missing = bits & ~hv->gates & ~hv->dirty;
    if ((missing & G(rob)
         && load_obj(hart, H.rob, &PyList_Type, &hv->rob) < 0)
            || (missing & G(rb) && load_obj(hart, H.rb, rb_type, &hv->rb) < 0)
            || (missing & G(regs)
                && load_obj(hart, H.regs, &PyList_Type, &hv->regs) < 0)
            || (missing & G(rename)
                && load_obj(hart, H.rename, &PyList_Type, &hv->rename) < 0)
            || (missing & G(it)
                && load_obj(hart, H.it, &PyList_Type, &hv->it) < 0)
            || (missing & G(pc) && load_obj(hart, H.pc, NULL, &hv->pc) < 0)
            || (missing & G(fetch_buf)
                && load_obj(hart, H.fetch_buf, NULL, &hv->fetch_buf) < 0)
            || (missing & G(gid)
                && (load_obj(hart, H.gid, NULL, &hv->gid_obj) < 0
                    || read_int(hv->gid_obj, &hv->gid) < 0))
            || (missing & G(index)
                && (load_obj(hart, H.index, NULL, &hv->index_obj) < 0
                    || read_int(hv->index_obj, &hv->index) < 0))
            || (missing & G(stats)
                && load_obj(hart, H.stats, stats_type, &hv->stats) < 0))
        return -1;
    HV_INTS(LOAD_H_MISSING_INT)
    HV_BOOLS(LOAD_H_MISSING_BOOL)
    STATS_SLOTS(LOAD_S_MISSING_INT)
    hv->gates |= bits;
    return 0;
}

static INLINE int
gate(CoreView *v, int h, unsigned bits)
{
    return (v->h[h].gates & bits) == bits ? 0 : load_gates(v, h, bits);
}

static INLINE int
cgate(CoreView *v, unsigned bits)
{
    return (v->gates & bits) == bits ? 0 : load_cgates(v, bits);
}

static int
load_counters(Window *w, CoreView *v)
{
    PyObject *list = per_core(w);
    if (list == NULL || (v->counters = list_item(list, v->index)) == NULL)
        return -1;
    if (!PyObject_TypeCheck(v->counters, counters_type)) {
        wrong_type(counters_type->tp_name);
        return -1;
    }
    COUNTER_SLOTS(LOAD_K_INT)
    return 0;
}

/* Load what *v* lacks of *parts*: all of them when Python ran since its
 * last load (the flush before that call left nothing dirty). */
static NOINLINE int
view_load(Window *w, CoreView *v, unsigned parts)
{
    int h;
    if (v->stamp != w->calls + 1) {
        v->stamp = w->calls + 1;
        v->loaded = v->gates = v->dirty = v->kdirty = 0;
        for (h = 0; h < 4; h++)
            v->h[h].dirty = 0;
        w->touched[w->ntouched++] = v - w->views;
        if (load_obj(v->core, C.index, NULL, &v->index_obj) < 0
                || read_int(v->index_obj, &v->index) < 0)
            return -1;
    }
    if (parts & ~(unsigned)V_COUNTERS)
        parts |= V_PIPE;
    parts &= ~v->loaded;
    if (parts & V_PIPE) {
        if (load_pipe(v) < 0)
            return -1;
        v->loaded |= V_PIPE;
    }
    if (parts & V_COUNTERS) {
        if (load_counters(w, v) < 0)
            return -1;
        v->loaded |= V_COUNTERS;
    }
    return 0;
}

static inline int
fresh(Window *w, CoreView *v, unsigned parts)
{
    return v->stamp == w->calls + 1 && (v->loaded & parts) == parts ? 0
        : view_load(w, v, parts);
}

/* The view of ``cores[i]`` holding *parts*, or NULL. */
static CoreView *
view_at(Window *w, int64_t i, unsigned parts)
{
    PyObject *core;
    CoreView *v;
    if (i >= w->nviews) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return NULL;
    }
    if ((core = list_item(w->cores, i)) == NULL)
        return NULL;
    v = &w->views[i];
    if (v->stamp != w->calls + 1) {
        /* (only Python can change what ``cores`` holds) */
        if (!PyObject_TypeCheck(core, core_type)) {
            wrong_type(core_type->tp_name);
            return NULL;
        }
        v->core = core;
    }
    return fresh(w, v, parts) < 0 ? NULL : v;
}

static CoreView *
view_for(Window *w, PyObject *core, unsigned parts)
{
    int64_t i = w->hint;
    PyObject *index;
    if (w->cores == NULL) {
        /* a window-less call: the one core it was made for */
        if (core != w->views[0].core) {
            PyErr_SetString(PyExc_TypeError,
                            "compiled tick: another core than its own");
            return NULL;
        }
        return fresh(w, w->views, parts) < 0 ? NULL : w->views;
    }
    /* the one after the last found (the loop walks its cores in order) */
    if (i >= w->nviews || i >= PyList_GET_SIZE(w->cores)
            || PyList_GET_ITEM(w->cores, i) != core) {
        /* else at its index, normally */
        index = SLOT(core, C.index);
        if (index == NULL || !small_int(index, &i) || i < 0
                || i >= w->nviews || i >= PyList_GET_SIZE(w->cores)
                || PyList_GET_ITEM(w->cores, i) != core) {
            for (i = 0; i < w->nviews && i < PyList_GET_SIZE(w->cores); i++)
                if (PyList_GET_ITEM(w->cores, i) == core)
                    break;
            if (i == w->nviews || i == PyList_GET_SIZE(w->cores)) {
                PyErr_SetString(PyExc_TypeError, "compiled window: a core "
                                "not in machine.cores");
                return NULL;
            }
        }
    }
    w->hint = i + 1;
    return view_at(w, i, parts);
}

/* the hart's ``rename`` is *list* (Hart.reserve_for_fork) */
static void
view_set_rename(HartView *hv, PyObject *list)
{
    set_obj(hv->hart, H.rename, list);
    hv->rename = list;
    hv->gates |= G(rename);
}

/* Store the view's *value* in the int slot: never_obj, the window's boxes
 * of cycle and cycle + 1, or a new int. */
static inline int
flush_int(Window *w, PyObject *obj, Py_ssize_t off, int64_t value)
{
    PyObject *box, *old;
    if (value == never_val)
        box = new_ref(never_obj);
    else if (value == w->cycle || value == w->cycle + 1) {
        if ((box = value == w->cycle ? cycle_box(w) : next_box(w)) == NULL)
            return -1;
        Py_INCREF(box);
    } else if ((box = PyLong_FromLongLong(value)) == NULL)
        return -1;
    old = SLOT(obj, off);
    SLOT(obj, off) = box;
    Py_XDECREF(old);
    return 0;
}

/* the view's object goes to its slot: the slot's reference when the view
 * owned it */
static inline void
flush_obj(PyObject *obj, Py_ssize_t off, PyObject *value)
{
    PyObject *old = SLOT(obj, off);
    SLOT(obj, off) = value;
    Py_XDECREF(old);
}

/* Store dirty field *name* of a core (C), a hart (H), its HartStats (S) or
 * the CoreCounters (K), whose dirty bits are *d*; a failed box leaves that
 * field and the ones after it dirty. */
#define FLUSH_INT(obj, T, into, name, dirty, bit) \
    if (d & (bit) && flush_int(w, obj, T.name, (into)->name) < 0) { \
        dirty = d & ~((bit) - 1); \
        return -1; \
    }
#define FLUSH_C_BOOL(name) \
    if (d & G(name)) set_bool(v->core, C.name, v->name);
#define FLUSH_C_INT(name) FLUSH_INT(v->core, C, v, name, v->dirty, G(name))
#define FLUSH_C_BOXED(name) \
    if (d & G(name) && v->name##_box != NULL) { \
        flush_obj(v->core, C.name, v->name##_box); \
        v->name##_box = NULL; \
        d &= ~G(name); \
    }
#define FLUSH_H_OBJ(name) \
    if (d & G(name)) flush_obj(hv->hart, H.name, hv->name);
#define FLUSH_H_BOOL(name) \
    if (d & G(name)) set_bool(hv->hart, H.name, hv->name);
#define FLUSH_H_INT(name) FLUSH_INT(hv->hart, H, hv, name, hv->dirty, G(name))
#define FLUSH_S_INT(name) FLUSH_INT(hv->stats, S, hv, name, hv->dirty, G(name))
#define FLUSH_K_INT(name) \
    FLUSH_INT(v->counters, K, v, name, v->kdirty, 1u << KBIT_##name)

/* Store every field C wrote since the load in its slot, in bit order
 * (objects and flags first: only an int's box can fail). */
static int
view_flush(Window *w, CoreView *v)
{
    int h;
    unsigned d;
    for (h = 0; h < 4; h++) {
        HartView *hv = &v->h[h];
        if ((d = hv->dirty) == 0)
            continue;
        HV_OBJS(FLUSH_H_OBJ)
        HV_BOOLS(FLUSH_H_BOOL)
        HV_INTS(FLUSH_H_INT)
        STATS_SLOTS(FLUSH_S_INT)
        hv->dirty = 0;
    }
    if ((d = v->dirty) != 0) {
        FLUSH_C_BOXED(_tag)
        FLUSH_C_BOXED(_wb_wake)
        CV_BOOLS(FLUSH_C_BOOL)
        CV_INTS(FLUSH_C_INT)
        v->dirty = 0;
    }
    if ((d = v->kdirty) != 0) {
        COUNTER_SLOTS(FLUSH_K_INT)
        v->kdirty = 0;
    }
    return 0;
}

/* Flush every view loaded since the last flush. */
static int
views_flush(Window *w)
{
    Py_ssize_t i;
    for (i = 0; i < w->ntouched; i++)
        if (view_flush(w, &w->views[w->touched[i]]) < 0)
            return -1;
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
        if (cycle_box(w) == NULL
                || PyObject_SetAttr(w->machine, s_cycle, w->cycle_obj) < 0)
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

/* About to call into Python, which reads the slots and "now", and may
 * write what refresh() re-reads and any slot: the views are flushed, and
 * loaded again when next needed. */
static int
leave_c(Window *w)
{
    if (views_flush(w) < 0)
        return -1;
    w->ntouched = 0;
    w->calls++;
    return publish_now(w);
}

/* Every way out of a call: the views are flushed.  The exception being
 * raised, if any, stays the one raised. */
static int
views_close(Window *w)
{
    Raised first;
    SET_ASIDE(&first);
    if (views_flush(w) < 0)
        keep_first(&first);
    w->ntouched = 0;
    if (!RAISED(&first))
        return 0;
    RAISE_AGAIN(&first);
    return -1;
}

/* Python ran: re-read what it may have written, and move in what it
 * posted. */
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
    return absorb(w);
}

/* ``machine.stats.per_core``, read once per call: borrowed */
static PyObject *
per_core(Window *w)
{
    PyObject *stats;
    if (w->per_core == NULL) {
        if ((stats = PyObject_GetAttr(w->machine, s_stats)) == NULL)
            return NULL;
        w->per_core = attr_list(stats, s_per_core);
        Py_DECREF(stats);
    }
    return w->per_core;
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
        || attr_int(value, s_link_hop_latency, &w->hop_latency, NULL) < 0
        || attr_int(value, s_num_cores, &w->num_cores, NULL) < 0
        || attr_int(value, s_cv_write_latency, &w->cv_latency, NULL) < 0
        || attr_int(value, s_num_result_buffers, &w->result_buffers,
                    NULL) < 0 ? -1 : 0;
    Py_DECREF(value);
    if (status < 0 || per_core(w) == NULL
            || (w->owned = PyObject_GetAttr(w->machine, s__owned)) == NULL)
        return -1;
    w->context = 1;
    return 1;
}

/* 1 while ``type(core)``'s (``type(machine)``'s, for send_fork_req)
 * method *site* is the function bind() found, else 0: looked up once per
 * core class between two calls into Python, as a handler is */
static int
method_is_native(Window *w, PyObject *core, enum method site)
{
    int k;
    unsigned live = 0;
    PyObject *owner, *found;
    if (Py_TYPE(core) != w->method_type
            || w->methods_checked != w->calls + 1) {
        for (k = 0; k < METHOD_COUNT; k++) {
            owner = (PyObject *)Py_TYPE(k == M_send_fork_req ? w->machine
                                        : core);
            if ((found = PyObject_GetAttr(owner, *method_name[k])) == NULL)
                return -1;
            if (found == bound_method[k])
                live |= 1u << k;
            Py_DECREF(found);
        }
        w->method_type = Py_TYPE(core);
        w->methods_checked = w->calls + 1;
        w->methods_live = live;
    }
    return w->methods_live >> site & 1;
}

/* May the window spell the tick's call-back site *site* for the core being
 * ticked?  1 yes; 0 no: no window (Core.tick called on its own), an
 * observer (access_context), or a replaced method -- the call is made. */
static int
window_native(Tick *t, enum method site)
{
    int status;
    if (t->w->alone)
        return 0;
    if ((status = access_context(t->w)) <= 0)
        return status;
    return method_is_native(t->w, t->core, site);
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

/* LBP.post of the native kind *kind* from *origin*'s domain to domain *dst*:
 * the key takes the origin's next ``_seq``, and a shard worker diverts an
 * event for a domain it does not own to ``_outbox``.  Steals *args*. */
static int
post(Window *w, CoreView *origin, int64_t dst, int64_t when, int kind,
     PyObject *args)
{
    int status = -1, mine = 1;
    int64_t seq;
    PyObject *seq_obj = NULL, *dst_obj = NULL, *when_obj = NULL, *event;
    if (args == NULL)
        return -1;
    if (fresh(w, origin, 0) < 0 || cgate(origin, G(_seq)) < 0)
        goto fail;
    seq = origin->_seq + 1;
    CSET(origin, _seq, seq);
    if (w->owned != Py_None
            && ((dst_obj = PyLong_FromLongLong(dst)) == NULL
                || (mine = PySequence_Contains(w->owned, dst_obj)) < 0))
        goto fail;
    if (mine) {
        if (heap_room(w, 1) < 0)
            goto fail;
        w->heap[w->size] = (Event){when, origin->index, seq, dst, kind,
                                   *kind_name[kind], args, NULL};
        heap_push(w);
        args = NULL;  /* the heap's */
        status = 0;
    } else {
        PyObject *outbox;
        if ((seq_obj = PyLong_FromLongLong(seq)) == NULL
                || (when_obj = PyLong_FromLongLong(when)) == NULL
                || (outbox = attr_list(w->machine, s__outbox)) == NULL)
            goto fail;
        event = PyTuple_Pack(6, when_obj, origin->index_obj, seq_obj,
                             dst_obj, *kind_name[kind], args);
        status = event == NULL ? -1 : PyList_Append(outbox, event);
        Py_XDECREF(event);
        Py_DECREF(outbox);
    }
fail:
    Py_XDECREF(seq_obj);
    Py_XDECREF(dst_obj);
    Py_XDECREF(when_obj);
    Py_XDECREF(args);
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

/* ResultBuffer.occupy(entry) for the load *entry* of *hv*'s hart */
static int
occupy(HartView *hv, PyObject *entry, PyObject *low)
{
    PyObject *rb = hv->rb, *tag, *rd;
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

/* ``hart.stats.stores`` (*store*) or ``loads`` += 1, *hv* a hart of *v* */
static int
count_access(Window *w, CoreView *v, HartView *hv, int store)
{
    if (fresh(w, v, V_PIPE) < 0
            || gate(v, HNUM(v, hv), G(stats) | (store ? G(stores) : G(loads)))
            < 0)
        return -1;
    if (store)
        HSET(hv, stores, hv->stores + 1);
    else
        HSET(hv, loads, hv->loads + 1);
    return 0;
}

/* The issue of an access to the ticked core's own *bank* (its local bank,
 * or its shared one when *shared*) through *port*: Port.reserve, the bank
 * event(s) posted to this domain. */
static int
own_access(Tick *t, HartView *hv, PyObject *entry, PyObject *low,
           enum access kind, PyObject *addr_obj, PyObject *port, int shared)
{
    Window *w = t->w;
    CoreView *v = t->v;
    int status = -1;
    int64_t next_free, when;
    PyObject *tag, *width_obj;
    PyObject *after_obj = NULL, *ref = NULL;

    /* Port.reserve(now + local_mem_latency) */
    CHECK(port, port_type);
    GETI(next_free, port, P.next_free);
    when = t->cycle + w->latency;
    if (next_free > when)
        when = next_free;
    if ((after_obj = PyLong_FromLongLong(when + 1)) == NULL)
        goto fail;
    set_obj(port, P.next_free, after_obj);
    if (shared) {
        if (fresh(w, v, V_COUNTERS) < 0)
            goto fail;
        KSET(v, local_accesses, v->local_accesses + 1);
    }
    GETO(tag, entry, E.tag);
    GETO(width_obj, low, L.width);
    if ((ref = PyTuple_Pack(2, shared ? s_shared : s_local, v->index_obj))
            == NULL)
        goto fail;
    if (kind == ACC_STORE) {
        PyObject *value;
        GETO(value, entry, E.val1);
        HSET(hv, outstanding_mem, hv->outstanding_mem + 1);
        if (post(w, v, v->index, when, EV_store_write,
                 PyTuple_Pack(7, ref, addr_obj, value, width_obj,
                              v->index_obj, hv->gid_obj, tag)) < 0
                || count_access(w, v, hv, 1) < 0)
            goto fail;
    } else {
        PyObject *mnemonic;
        GETO(mnemonic, low, L.mnemonic);
        /* the read is done at when + 1: the port's next free cycle */
        if (occupy(hv, entry, low) < 0)
            goto fail;
        HSET(hv, outstanding_mem, hv->outstanding_mem + 1);
        if (post(w, v, v->index, when, EV_load_read,
                 PyTuple_Pack(7, ref, addr_obj, width_obj, mnemonic,
                              after_obj, v->index_obj, hv->gid_obj)) < 0
                || post(w, v, v->index, when + 1, EV_load_done,
                        PyTuple_Pack(1, hv->gid_obj)) < 0
                || (kind == ACC_LOAD && count_access(w, v, hv, 0) < 0))
            goto fail;
    }
    status = 1;
fail:
    Py_XDECREF(after_obj);
    Py_XDECREF(ref);
    return status;
}

/* one link of a path: ``(tag, index)``, the tag by its LINK_TAGS code */
typedef struct {
    int code;
    int64_t index;
} Hop;

/* the longest path: up to r4 and down again */
#define MAX_HOPS 8

/* router.request_path(src, dst) into *path*; the number of hops */
static int
request_path(int64_t src, int64_t dst, Hop *path)
{
    int n = 0;
    path[n++] = (Hop){LINK_c_r1, src};
    if (src / 4 == dst / 4) {
        path[n++] = (Hop){LINK_r1_m, dst};
        return n;
    }
    path[n++] = (Hop){LINK_r1_r2, src / 4};
    if (src / 16 != dst / 16) {
        path[n++] = (Hop){LINK_r2_r3, src / 16};
        if (src / 64 != dst / 64) {
            path[n++] = (Hop){LINK_r3_r4, src / 64};
            path[n++] = (Hop){LINK_r4_r3, dst / 64};
        }
        path[n++] = (Hop){LINK_r3_r2, dst / 16};
    }
    path[n++] = (Hop){LINK_r2_r1, dst / 4};
    path[n++] = (Hop){LINK_r1_m, dst};
    return n;
}

/* router.reply_path(src, dst): the reply to *src* from *dst*'s bank */
static int
reply_path(int64_t src, int64_t dst, Hop *path)
{
    int n = 0;
    path[n++] = (Hop){LINK_m_r1, dst};
    if (src / 4 == dst / 4) {
        path[n++] = (Hop){LINK_r1_c, src};
        return n;
    }
    path[n++] = (Hop){LINK_r1_lt_r2, dst / 4};
    if (src / 16 != dst / 16) {
        path[n++] = (Hop){LINK_r2_lt_r3, dst / 16};
        if (src / 64 != dst / 64) {
            path[n++] = (Hop){LINK_r3_lt_r4, dst / 64};
            path[n++] = (Hop){LINK_r4_lt_r3, src / 64};
        }
        path[n++] = (Hop){LINK_r3_lt_r2, src / 16};
    }
    path[n++] = (Hop){LINK_r2_lt_r1, src / 4};
    path[n++] = (Hop){LINK_r1_c, src};
    return n;
}

/* The first use of link *hop* on *links*, whose ``_links`` is *table*:
 * its tag's row of ``((num_cores - 1) >> shift) + 1`` Nones if the tag
 * has none yet, then its ``Port()``, as LinkScheduler.port makes them.  A
 * new reference. */
static NOINLINE PyObject *
first_port(Window *w, PyObject *links, PyObject *table, const Hop *hop)
{
    int64_t cores;
    Py_ssize_t i, size;
    PyObject *row = PyList_GET_ITEM(table, hop->code), *port = NULL;
    if (row == Py_None) {
        GETI(cores, links, LS.num_cores);
        size = cores < 1 ? 0 : ((cores - 1) >> link_shifts[hop->code]) + 1;
        if ((row = PyList_New(size)) == NULL)
            return NULL;
        for (i = 0; i < size; i++)
            PyList_SET_ITEM(row, i, new_ref(Py_None));
        PyList_SetItem(table, hop->code, row);  /* steals it */
    }
    if (!PyList_Check(row)) {
        wrong_type("list of link ports");
        return NULL;
    }
    row = new_ref(row);  /* Port() is Python */
    if (hop->index < 0 || hop->index >= PyList_GET_SIZE(row))
        PyErr_Format(PyExc_ValueError, "no link ('%s', %lld): index "
                     "outside [0, %zd)", link_tags[hop->code],
                     (long long)hop->index, PyList_GET_SIZE(row));
    else if (leave_c(w) == 0
             && (port = PyObject_CallNoArgs((PyObject *)port_type)) != NULL) {
        if (hop->index < PyList_GET_SIZE(row)) {
            PyList_SetItem(row, hop->index, new_ref(port));  /* steals */
        } else {
            wrong_type("list of link ports");
            Py_CLEAR(port);
        }
    }
    Py_DECREF(row);
    return port;
fail:
    return NULL;
}

/* The port of link *hop* on the scheduler *links*, whose ``_links`` is
 * *table*: row ``code``, slot ``index``; a new reference.  The sizes are
 * checked on every hop, as Python may have run since the caller looked. */
static PyObject *
link_port(Window *w, PyObject *links, PyObject *table, const Hop *hop)
{
    PyObject *row, *port;
    if (hop->code >= PyList_GET_SIZE(table)) {
        wrong_type("list of link port rows");
        return NULL;
    }
    row = PyList_GET_ITEM(table, hop->code);
    if (PyList_Check(row) && hop->index >= 0
            && hop->index < PyList_GET_SIZE(row)
            && (port = PyList_GET_ITEM(row, hop->index)) != Py_None)
        return new_ref(port);
    return first_port(w, links, table, hop);
}

/* Metrics.link_wait(index, delay) by *observer*, a metered link
 * scheduler's: router queueing held a path of core *index_obj* up */
static int
link_wait(Window *w, PyObject *observer, PyObject *index_obj, int64_t delay)
{
    int native = 0, status;
    int64_t index;
    PyObject *slot, *delay_obj;
    if (observer == w->metrics && (native = window_charges(w)) < 0)
        return -1;
    if (native) {
        index = as_int(index_obj);
        if ((index == -1 && PyErr_Occurred())
                || (slot = telemetry(observer, index)) == NULL)
            return -1;
        return add_int(slot, TS.link_wait, delay);
    }
    if ((delay_obj = PyLong_FromLongLong(delay)) == NULL)
        return -1;
    {
        PyObject *call[] = {observer, index_obj, delay_obj};
        status = call_method(w, s_link_wait, call, 3);
    }
    Py_DECREF(delay_obj);
    return status;
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
    PyObject *held = NULL, *table = NULL, *port = NULL;
    PyObject *observer, *index;
    CHECK(links, links_type);
    held = new_ref(links);  /* Port() and link_wait are Python */
    GETI(hop, links, LS.hop_latency);
    GETO(table, links, LS._links);
    if (!PyList_Check(table)) {
        table = NULL;
        wrong_type("list of link port rows");
        goto fail;
    }
    Py_INCREF(table);
    for (i = 0; i < count; i++) {
        /* Port.reserve(time + hop_latency) */
        if ((port = link_port(w, links, table, &path[i])) == NULL)
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
        GETO(index, links, LS._core_index);
        if (link_wait(w, observer, index, time - (start + hop * count)) < 0)
            goto fail;
    }
    *out = time;
    status = 0;
fail:
    Py_XDECREF(port);
    Py_XDECREF(table);
    Py_XDECREF(held);
    return status;
}

/* Metrics.remote_issue(index, gid, now, owner) for an access of hart *gid*
 * of the ticked core to core *owner_obj*'s bank (None: a CV write to the
 * next core), *rtt* its uncontended round trip -- for a bank access both
 * paths' links, the bank access and the cycle the reply fills in: its
 * completion eta joins the hart's FIFO.  (Not inlined: the unmetered issue
 * stays as compact as it was.) */
static NOINLINE int
remote_issue(Tick *t, PyObject *gid, PyObject *owner_obj, int64_t rtt)
{
    Window *w = t->w;
    int native, status = -1;
    PyObject *slot, *fifos, *fifo, *eta = NULL;
    if ((native = window_charges(w)) <= 0) {
        PyObject *call[] = {w->metrics, t->v->index_obj, gid, cycle_box(w),
                            owner_obj};
        return native < 0 || call[3] == NULL ? -1
            : call_method(w, s_remote_issue, call, 5);
    }
    if ((slot = telemetry(w->metrics, t->v->index)) == NULL
            || (eta = PyLong_FromLongLong(t->cycle + rtt)) == NULL)
        goto fail;
    GETO(fifos, slot, TS.remote_inflight);
    if (!PyDict_Check(fifos)) {
        wrong_type("dict of remote etas");
        goto fail;
    }
    if ((fifo = PyDict_GetItemWithError(fifos, gid)) == NULL
            && PyErr_Occurred())
        goto fail;
    if (fifo == NULL || fifo == Py_None) {
        if ((fifo = PyList_New(1)) == NULL)
            goto fail;
        PyList_SET_ITEM(fifo, 0, new_ref(eta));
        status = PyDict_SetItem(fifos, gid, fifo);
        Py_DECREF(fifo);
    } else if (!PyList_Check(fifo))
        wrong_type("list of remote etas");
    else
        status = PyList_Append(fifo, eta);
fail:
    Py_XDECREF(eta);
    return status;
}

/* The issue of an access to core *owner*'s shared bank: the request crosses
 * the router tree to the owner's domain (rreq_load / rreq_store). */
static int
remote_access(Tick *t, HartView *hv, PyObject *entry, PyObject *low,
              enum access kind, PyObject *addr_obj, int64_t owner)
{
    Window *w = t->w;
    CoreView *v = t->v;
    int status = -1, count;
    int64_t index = v->index, t_up;
    Hop path[MAX_HOPS], back[MAX_HOPS];
    PyObject *gid = hv->gid_obj, *width_obj, *links = NULL;
    PyObject *owner_obj = NULL, *args = NULL;

    if (fresh(w, v, V_COUNTERS) < 0)
        goto fail;
    GETO(width_obj, low, L.width);
    GETO(links, t->core, C.links);
    /* the request's args hold what they carry across the calls below */
    if ((owner_obj = PyLong_FromLongLong(owner)) == NULL)
        goto fail;
    if (kind == ACC_STORE) {
        PyObject *value, *tag;
        GETO(value, entry, E.val1);
        GETO(tag, entry, E.tag);
        args = PyTuple_Pack(7, v->index_obj, gid, owner_obj, addr_obj, value,
                            width_obj, tag);
    } else {
        PyObject *mnemonic;
        GETO(mnemonic, low, L.mnemonic);
        args = PyTuple_Pack(6, v->index_obj, gid, owner_obj, addr_obj,
                            width_obj, mnemonic);
    }
    if (args == NULL || (kind != ACC_STORE && occupy(hv, entry, low) < 0))
        goto fail;
    KSET(v, remote_accesses, v->remote_accesses + 1);
    HSET(hv, outstanding_mem, hv->outstanding_mem + 1);
    Py_INCREF(links);
    count = request_path(index, owner, path);
    if (w->metered
            && remote_issue(t, gid, owner_obj,
                            (count + reply_path(index, owner, back))
                            * w->hop_latency + w->bank_latency + 1) < 0)
        goto release;
    if (reserve_path(w, links, path, count, t->cycle, &t_up) < 0)
        goto release;
    status = post(w, v, owner, t_up,
                  kind == ACC_STORE ? EV_rreq_store : EV_rreq_load, args);
    args = NULL;  /* post took it */
    if (status == 0 && kind != ACC_LWCV)
        status = count_access(w, v, hv, kind == ACC_STORE);
    if (status == 0)
        status = 1;
release:
    Py_DECREF(links);
fail:
    Py_XDECREF(owner_obj);
    Py_XDECREF(args);
    return status;
}

/* The issue of a LOAD / STORE / p_lwcv by the core being ticked, once
 * window_native said yes.  1: it is an access spelled here and is issued;
 * 0: it is not, nothing is changed and the caller calls Core._execute. */
static int
mem_access(Tick *t, HartView *hv, PyObject *entry, PyObject *low,
           enum access kind)
{
    Window *w = t->w;
    int status, shared = 0;
    int64_t imm, addr, width, owner = -1;
    char *at;
    PyObject *mem, *bank, *port = NULL, *addr_obj;

    GETI(imm, low, L.imm);
    if (kind == ACC_LWCV) {
        /* machine.cv_address: the hart's own CV area, not masked */
        if (hv->index < 0 || hv->index > 3)
            return 0;
        addr = cv_base[hv->index] + imm;
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
            PyObject *core;
            if (addr < global_base)
                return 0;
            owner = (addr - global_base) / global_bank_size;
            if (owner >= w->num_cores || owner == t->v->index
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
            ? own_access(t, hv, entry, low, kind, addr_obj, port, shared)
            : remote_access(t, hv, entry, low, kind, addr_obj, owner);
    else if (status > 0)
        status = 0;  /* a device's: the Python path talks to it */
    Py_DECREF(addr_obj);
    return status;
fail:
    return -1;
}

/* ---- the memory-access event kinds (NATIVE_KINDS) ---------------------------------- */

/* hart *gid_obj* of this machine: the view of its core and its part of it;
 * 0: no such hart */
static int
hart_of(Window *w, PyObject *gid_obj, CoreView **v, HartView **hv)
{
    int64_t gid = PyLong_Check(gid_obj) ? as_int(gid_obj) : -1;
    if (gid < 0 || (gid >> 2) >= PyList_GET_SIZE(w->cores)) {
        PyErr_Clear();  /* an id beyond int64 is no hart either */
        return 0;
    }
    if ((*v = view_at(w, gid >> 2, V_PIPE)) == NULL
            || gate(*v, (int)(gid & 3), HART_ALL) < 0)
        return -1;
    *hv = &(*v)->h[gid & 3];
    return 1;
}

/* an exact int in [0, bound), or -1 (the Python handler deals with
 * anything else) */
static int64_t
index_in(PyObject *obj, Py_ssize_t bound)
{
    int64_t value;
    return small_int(obj, &value) && value >= 0 && value < bound ? value : -1;
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
    uint64_t value = small_int(value_obj, &small) ? (uint64_t)small
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

/* ResultBuffer.fill(value, ready_at) on *hv*'s hart, of core *v*,
 * *ready_obj* holding *ready_at* */
static int
fill(CoreView *v, HartView *hv, uint32_t value, PyObject *ready_obj,
     int64_t ready_at)
{
    SETI(hv->rb, R.value, value);
    set_obj(hv->rb, R.ready_at, ready_obj);
    return lower_wb_wake(v, ready_at, ready_obj);
fail:
    return -1;
}

/* _rob_by_tag: 1 and *entry* (borrowed) when *hv*'s ROB holds *tag_obj*,
 * else 0 (the Python handler words the assertion) */
static int
rob_entry(HartView *hv, PyObject *tag_obj, PyObject **entry)
{
    int same = 0;
    int64_t tag = as_int(tag_obj);
    Py_ssize_t i;
    PyObject *rob = hv->rob;
    if (tag == -1 && PyErr_Occurred())
        goto fail;
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

/* ``machine.metrics.remote_done(src, hart_gid)`` on a metered machine: the
 * oldest eta of the hart's FIFO goes.  (An empty or missing FIFO is a
 * machine resumed from an unmetered snapshot: nothing to pop.) */
static int
remote_done(Window *w, PyObject *src, PyObject *gid)
{
    int native;
    int64_t index;
    PyObject *slots, *slot, *fifos, *fifo;
    if (!w->metered)
        return 0;
    if ((native = window_charges(w)) < 0)
        return -1;
    if (native) {
        GETLIST(slots, w->metrics, MX._slots);
        if ((index = index_in(src, PyList_GET_SIZE(slots))) >= 0) {
            slot = PyList_GET_ITEM(slots, index);
            CHECK(slot, telemetry_type);
            GETO(fifos, slot, TS.remote_inflight);
            if (PyDict_Check(fifos)) {
                if ((fifo = PyDict_GetItemWithError(fifos, gid)) == NULL)
                    return PyErr_Occurred() ? -1 : 0;
                if (PyList_Check(fifo)) {
                    if (PyList_GET_SIZE(fifo))
                        Py_DECREF(list_take(fifo, 0));
                    return 0;
                }
            }
        }
        /* anything else (no such core, no FIFO): the hook words it */
    }
    {
        PyObject *call[] = {w->metrics, src, gid};
        return call_method(w, s_remote_done, call, 3);
    }
fail:
    return -1;
}

/* _ev_load_read(bank_ref, addr, width, mnemonic, t_done, core_index,
 * hart_gid): the bank-side read fills the hart's writeback buffer */
static int
ev_load_read(Window *w, CoreView *Py_UNUSED(domain), PyObject *args)
{
    int status;
    int64_t width, ready_at;
    char *at;
    CoreView *v;
    HartView *hv;
    PyObject *mnemonic, *done_obj;
    if (PyTuple_GET_SIZE(args) != 7
            || !PyUnicode_Check(mnemonic = PyTuple_GET_ITEM(args, 3))
            || !PyLong_Check(done_obj = PyTuple_GET_ITEM(args, 4)))
        return 0;
    if ((status = event_bytes(w, PyTuple_GET_ITEM(args, 0),
                              PyTuple_GET_ITEM(args, 1),
                              PyTuple_GET_ITEM(args, 2), &at, &width)) <= 0
            || (status = hart_of(w, PyTuple_GET_ITEM(args, 6), &v, &hv)) <= 0)
        return status;
    ready_at = as_int(done_obj);
    if ((ready_at == -1 && PyErr_Occurred())
            || fill(v, hv, load_value(mnemonic, read_bytes(at, width)),
                    done_obj, ready_at) < 0)
        return -1;
    return 1;
}

/* _ev_load_done(hart_gid) */
static int
ev_load_done(Window *w, CoreView *Py_UNUSED(domain), PyObject *args)
{
    int status;
    CoreView *v;
    HartView *hv;
    if (PyTuple_GET_SIZE(args) != 1)
        return 0;
    if ((status = hart_of(w, PyTuple_GET_ITEM(args, 0), &v, &hv)) <= 0)
        return status;
    HSET(hv, outstanding_mem, hv->outstanding_mem - 1);
    return 1;
}

/* _ev_store_write(bank_ref, addr, value, width, core_index, hart_gid, tag):
 * the bank-side write completes the store's ROB entry */
static int
ev_store_write(Window *w, CoreView *Py_UNUSED(domain), PyObject *args)
{
    int status;
    int64_t width;
    char *at;
    CoreView *v;
    HartView *hv;
    PyObject *value_obj, *tag_obj, *entry;
    if (PyTuple_GET_SIZE(args) != 7
            || !PyLong_Check(value_obj = PyTuple_GET_ITEM(args, 2))
            || !PyLong_Check(tag_obj = PyTuple_GET_ITEM(args, 6)))
        return 0;
    if ((status = event_bytes(w, PyTuple_GET_ITEM(args, 0),
                              PyTuple_GET_ITEM(args, 1),
                              PyTuple_GET_ITEM(args, 3), &at, &width)) <= 0
            || (status = hart_of(w, PyTuple_GET_ITEM(args, 5), &v, &hv)) <= 0
            || (status = rob_entry(hv, tag_obj, &entry)) <= 0)
        return status;
    if (write_bytes(at, value_obj, width) < 0)
        return -1;
    HSET(hv, outstanding_mem, hv->outstanding_mem - 1);
    set_bool(entry, E.done, 1);
    return 1;
}

/* The arrival of a request (src, hart_gid, owner, ...) at the owner's router
 * port, common to rreq_load and rreq_store: *src* and *owner*, the bank slot
 * *t_bank* and the cycle *t_back* the reply, reserved from it, leaves its
 * last link. */
static int
arrive(Window *w, PyObject *args, int64_t *src, int64_t *owner,
       int64_t *t_bank, int64_t *t_back)
{
    int count;
    int64_t next_free;
    Hop path[MAX_HOPS];
    PyObject *core, *mem, *port, *links;
    if ((*src = index_in(PyTuple_GET_ITEM(args, 0),
                         PyList_GET_SIZE(w->cores))) < 0
            || (*owner = index_in(PyTuple_GET_ITEM(args, 2),
                                  PyList_GET_SIZE(w->cores))) < 0)
        return 0;
    core = PyList_GET_ITEM(w->cores, *owner);
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
    count = reply_path(*src, *owner, path);
    return reserve_path(w, links, path, count, *t_bank, t_back) < 0 ? -1 : 1;
fail:
    return -1;
}

/* _ev_rreq_load(src, hart_gid, owner, addr, width, mnemonic): the bank read
 * is booked, and with it the reply's way back */
static int
ev_rreq_load(Window *w, CoreView *domain, PyObject *args)
{
    int status, i;
    int64_t src, owner, t_bank, t_back;
    PyObject *done_obj, *a[6];
    if (PyTuple_GET_SIZE(args) != 6)
        return 0;
    if ((status = arrive(w, args, &src, &owner, &t_bank, &t_back)) <= 0)
        return status;
    for (i = 0; i < 6; i++)
        a[i] = PyTuple_GET_ITEM(args, i);
    if ((done_obj = PyLong_FromLongLong(t_back + 1)) == NULL)
        return -1;
    status = post(w, domain, owner, t_bank, EV_bank_read,
                  PyTuple_Pack(7, a[0], a[1], a[2], a[3], a[4], a[5],
                               done_obj));
    Py_DECREF(done_obj);
    return status < 0 ? -1 : 1;
}

/* _ev_bank_read(src, hart_gid, owner, addr, width, mnemonic, t_done): the
 * owner's bank is read, the value travels back as rrep_load */
static int
ev_bank_read(Window *w, CoreView *domain, PyObject *args)
{
    int status;
    int64_t src, t_done, width;
    char *at;
    PyObject *mnemonic, *value;
    if (PyTuple_GET_SIZE(args) != 7
            || !PyUnicode_Check(mnemonic = PyTuple_GET_ITEM(args, 5))
            || (src = index_in(PyTuple_GET_ITEM(args, 0),
                               PyList_GET_SIZE(w->cores))) < 0
            || !small_int(PyTuple_GET_ITEM(args, 6), &t_done) || t_done < 0)
        return 0;
    if ((status = bank_bytes(w, PyTuple_GET_ITEM(args, 2), 1,
                             PyTuple_GET_ITEM(args, 3),
                             PyTuple_GET_ITEM(args, 4), &at, &width)) <= 0)
        return status;
    if ((value = PyLong_FromUnsignedLong(
             load_value(mnemonic, read_bytes(at, width)))) == NULL)
        return -1;
    status = post(w, domain, src, t_done, EV_rrep_load,
                  PyTuple_Pack(4, PyTuple_GET_ITEM(args, 0),
                               PyTuple_GET_ITEM(args, 1),
                               PyTuple_GET_ITEM(args, 3), value));
    Py_DECREF(value);
    return status < 0 ? -1 : 1;
}

/* _ev_rrep_load(src, hart_gid, addr, value): the reply fills the hart's
 * writeback buffer, ready now */
static int
ev_rrep_load(Window *w, CoreView *Py_UNUSED(domain), PyObject *args)
{
    int status;
    int64_t small;
    uint32_t value;
    CoreView *v;
    HartView *hv;
    PyObject *value_obj, *now;
    if (PyTuple_GET_SIZE(args) != 4
            || !PyLong_Check(value_obj = PyTuple_GET_ITEM(args, 3)))
        return 0;
    if ((status = hart_of(w, PyTuple_GET_ITEM(args, 1), &v, &hv)) <= 0)
        return status;
    value = (uint32_t)(small_int(value_obj, &small) ? (uint64_t)small
                       : PyLong_AsUnsignedLongLongMask(value_obj));
    if (PyErr_Occurred() || (now = cycle_box(w)) == NULL
            || fill(v, hv, value, now, w->cycle) < 0)
        return -1;
    HSET(hv, outstanding_mem, hv->outstanding_mem - 1);
    return remote_done(w, PyTuple_GET_ITEM(args, 0),
                       PyTuple_GET_ITEM(args, 1)) < 0 ? -1 : 1;
}

/* _ev_rreq_store(src, hart_gid, owner, addr, value, width, tag): the bank
 * write is booked, and the ack's way back */
static int
ev_rreq_store(Window *w, CoreView *domain, PyObject *args)
{
    int status, i;
    int64_t src, owner, t_bank, t_back;
    PyObject *a[7];
    if (PyTuple_GET_SIZE(args) != 7)
        return 0;
    if ((status = arrive(w, args, &src, &owner, &t_bank, &t_back)) <= 0)
        return status;
    for (i = 0; i < 7; i++)
        a[i] = PyTuple_GET_ITEM(args, i);
    if (post(w, domain, owner, t_bank, EV_bank_write,
             PyTuple_Pack(4, a[2], a[3], a[4], a[5])) < 0
            || post(w, domain, src, t_back + 1, EV_rack_store,
                    PyTuple_Pack(5, a[0], a[1], a[3], a[4], a[6])) < 0)
        return -1;
    return 1;
}

/* _ev_bank_write(owner, addr, value, width) */
static int
ev_bank_write(Window *w, CoreView *Py_UNUSED(domain), PyObject *args)
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

/* _remote_done(src, hart_gid, tag) of an ack whose *args* are (src,
 * hart_gid, ...) with the tag at *tag_at*: the store or CV write of that
 * ROB entry completes */
static int
remote_ack(Window *w, PyObject *args, Py_ssize_t tag_at)
{
    int status;
    CoreView *v;
    HartView *hv;
    PyObject *tag_obj, *entry;
    if (!PyLong_Check(tag_obj = PyTuple_GET_ITEM(args, tag_at)))
        return 0;
    if ((status = hart_of(w, PyTuple_GET_ITEM(args, 1), &v, &hv)) <= 0
            || (status = rob_entry(hv, tag_obj, &entry)) <= 0)
        return status;
    Py_INCREF(entry);  /* remote_done is Python */
    HSET(hv, outstanding_mem, hv->outstanding_mem - 1);
    if (remote_done(w, PyTuple_GET_ITEM(args, 0),
                    PyTuple_GET_ITEM(args, 1)) < 0)
        status = -1;
    else
        set_bool(entry, E.done, 1);
    Py_DECREF(entry);
    return status;
}

/* _ev_rack_store(src, hart_gid, addr, value, tag): the owner wrote */
static int
ev_rack_store(Window *w, CoreView *Py_UNUSED(domain), PyObject *args)
{
    return PyTuple_GET_SIZE(args) == 5 ? remote_ack(w, args, 4) : 0;
}

/* ---- the idle settlement ------------------------------------------------------------ */

/* Core.settle_idle(now), compiled: the gated-off cycles [idle_since, now)
 * of the core of *v* are charged in one step -- ``skipped_cycles``, the
 * gated-idle charge, then ``idle_since`` -- by a window before an event
 * runs in a gated core's domain, or for a call from Python.  The charge is
 * made here for a Core under native charges; a ReferenceCore's is the
 * call to ``Metrics.idle`` its reference tick makes too. */
static int
settle(Window *w, CoreView *v, int64_t now)
{
    int status = -1, native;
    int64_t since;
    PyObject *index_obj, *since_obj = NULL, *delta_obj = NULL;
    if (fresh(w, v, 0) < 0 || cgate(v, G(idle_since)) < 0)
        return -1;
    if (now - (since = v->idle_since) <= 0)
        return 0;
    if (w->metrics == NULL   /* a settlement called from Python */
            && (w->metrics = PyObject_GetAttr(w->machine, s_metrics)) == NULL)
        return -1;
    if (fresh(w, v, V_COUNTERS) < 0)
        return -1;
    KSET(v, skipped_cycles, v->skipped_cycles + now - since);
    index_obj = new_ref(v->index_obj);  /* held across the calls below */
    if (w->metrics != Py_None) {
        if (Py_TYPE(v->core) != core_type)
            native = 0;
        else if ((native = window_charges(w)) < 0)
            goto release;
        if (native) {
            if (charge_idle(w, w->metrics, index_obj, since, now - since) < 0)
                goto release;
        } else if ((since_obj = PyLong_FromLongLong(since)) == NULL
                   || (delta_obj = PyLong_FromLongLong(now - since)) == NULL
                   || called(callback(w, w->metrics, s_idle, index_obj,
                                      since_obj, delta_obj)) < 0)
            goto release;
        if (fresh(w, v, 0) < 0)
            goto release;
    }
    CSET(v, idle_since, now);
    status = 0;
release:
    Py_DECREF(index_obj);
    Py_XDECREF(since_obj);
    Py_XDECREF(delta_obj);
    return status;
}

/* The settlement of gated *v*'s core before an event runs in its domain:
 * the compiled one while ``type(core).settle_idle`` is the descriptor
 * bind() made (looked up again after a call into Python), else whatever
 * replaced it, called the way Python calls it. */
static int
settle_of(Window *w, CoreView *v)
{
    PyObject *found, *core = v->core, *now;
    if (Py_TYPE(core) != w->settle_type
            || w->settle_checked != w->calls + 1) {
        if ((found = PyObject_GetAttr((PyObject *)Py_TYPE(core),
                                      s_settle_idle)) == NULL)
            return -1;
        w->settle_type = Py_TYPE(core);
        w->settle_direct = found == settle_descr;
        w->settle_checked = w->calls + 1;
        Py_DECREF(found);
    }
    if (w->settle_direct)
        return settle(w, v, w->cycle);
    if ((now = cycle_box(w)) == NULL || leave_c(w) < 0)
        return -1;
    return called(PyObject_CallMethodOneArg(core, s_settle_idle, now));
}

/* ---- the team protocol --------------------------------------------------------------
 * The X_PAR messages (p_fc / p_fn forks and the fork token, p_swcv,
 * p_swre / p_lwre, the start pc of p_jal / p_jalr), the p_ret commit and
 * the eleven event kinds they post: processor.py's and core.py's
 * spelling, step for step.  A step is spelled here only when nothing
 * observes it and its method or handler is bind()'s (window_native,
 * handler_is_native), and only when it is one the Python spelling carries
 * out without an error: every check that spelling words as a machine
 * error (or raises on) is made first, and a step that fails one is handed
 * to Python before anything has changed. */

/* Hart.is_free */
static int
is_free(const HartView *hv)
{
    int flag;
    if (hv->pc != Py_None || hv->reserved)
        return 0;
    GETB(flag, hv->hart, H.waiting_join);
    if (flag || hv->fetch_buf != Py_None || PyList_GET_SIZE(hv->it)
            || PyList_GET_SIZE(hv->rob))
        return 0;
    GETB(flag, hv->rb, R.busy);
    return !flag;
fail:
    return -1;
}

/* Core.alloc_free_hart over the harts of *v*: the index of the lowest free
 * one, 4 when none is */
static int
free_hart(Window *w, CoreView *v)
{
    int h, found;
    for (h = 0; h < 4; h++) {
        if (fresh(w, v, V_PIPE) < 0 || gate(v, h, HART_ALL) < 0
                || (found = is_free(&v->h[h])) < 0)
            return -1;
        if (found)
            return h;
    }
    return 4;
}

/* A new list of *n* Nones */
static PyObject *
none_list(Py_ssize_t n)
{
    Py_ssize_t i;
    PyObject *list = PyList_New(n);
    for (i = 0; list != NULL && i < n; i++)
        PyList_SET_ITEM(list, i, new_ref(Py_None));
    return list;
}

/* ``value & 0xFFFFFFFF`` of an int */
static int
low32(PyObject *value, uint32_t *out)
{
    int64_t small;
    *out = (uint32_t)(small_int(value, &small) ? (uint64_t)small
                      : PyLong_AsUnsignedLongLongMask(value));
    return PyErr_Occurred() ? -1 : 0;
}

/* Can wake_re_waiters run on *hv*'s hart for *slot* (every slot when -1)?
 * Each queue a list, each queue's head a 6-tuple descriptor; 0 when not
 * (the Python spelling deals with it). */
static int
waiters_ok(const HartView *hv, int64_t slot)
{
    Py_ssize_t i, end;
    PyObject *lists, *queue;
    GETO(lists, hv->hart, H.re_waiters);
    if (!PyList_Check(lists) || slot >= PyList_GET_SIZE(lists))
        return 0;
    end = slot < 0 ? PyList_GET_SIZE(lists) : slot + 1;
    for (i = slot < 0 ? 0 : slot; i < end; i++) {
        queue = PyList_GET_ITEM(lists, i);
        if (!PyList_Check(queue))
            return 0;
        if (PyList_GET_SIZE(queue)
                && !(PyTuple_Check(PyList_GET_ITEM(queue, 0))
                     && PyTuple_GET_SIZE(PyList_GET_ITEM(queue, 0)) == 6))
            return 0;
    }
    return 1;
fail:
    return -1;
}

/* LBP.wake_re_waiters(hart, slot), *v* being the hart's core (and the
 * domain running): the oldest parked p_swre delivery of *slot* (of every
 * slot when -1) is posted again, marked parked.  waiters_ok said yes. */
static int
wake_re_waiters(Window *w, CoreView *v, const HartView *hv, int64_t slot)
{
    Py_ssize_t i, k, end;
    PyObject *lists, *queue, *desc, *args;
    GETO(lists, hv->hart, H.re_waiters);
    end = slot < 0 ? PyList_GET_SIZE(lists) : slot + 1;
    for (i = slot < 0 ? 0 : slot; i < end; i++) {
        queue = PyList_GET_ITEM(lists, i);
        if (!PyList_GET_SIZE(queue))
            continue;
        desc = list_take(queue, 0);  /* ``tuple(desc) + (True,)`` */
        if ((args = PyTuple_New(7)) != NULL) {
            for (k = 0; k < 6; k++)
                PyTuple_SET_ITEM(args, k,
                                 new_ref(PyTuple_GET_ITEM(desc, k)));
            PyTuple_SET_ITEM(args, 6, new_ref(Py_True));
        }
        Py_DECREF(desc);
        if (post(w, v, v->index, w->cycle + 1, EV_re_deliver, args) < 0)
            goto fail;
    }
    return 0;
fail:
    return -1;
}

/* Hart.reserve_for_fork(parent): *hv*'s hart is allocated to hart
 * *parent* */
static int
reserve_for_fork(HartView *hv, PyObject *parent)
{
    PyObject *buffers, *list, *sp;
    GETLIST(buffers, hv->hart, H.re_buffers);
    if (hv->index < 0 || hv->index > 3 || list_item(hv->regs, 2) == NULL) {
        if (!PyErr_Occurred())
            wrong_type("hart of index 0-3");
        goto fail;
    }
    HSET(hv, reserved, 1);
    if ((list = none_list(32)) == NULL)
        goto fail;
    view_set_rename(hv, list);
    Py_DECREF(list);
    if ((sp = PyLong_FromLongLong(cv_base[hv->index])) == NULL
            || PyList_SetItem(hv->regs, 2, sp) < 0)  /* steals sp */
        goto fail;
    if ((list = none_list(PyList_GET_SIZE(buffers))) == NULL)
        goto fail;
    set_obj(hv->hart, H.re_buffers, list);
    Py_DECREF(list);
    set_obj(hv->hart, H.pred, parent);
    HSET(hv, pred_done, 0);
    HSET(hv, fetch_ok, 0);
    return 0;
fail:
    return -1;
}

/* Core.activate() of *v*'s core, in the window */
static int
activate(Window *w, CoreView *v)
{
    if (cgate(v, G(active)) < 0)
        return -1;
    if (v->active)
        return 0;
    if (settle_of(w, v) < 0
            || (w->calls != w->seen && refresh(w) < 0)
            || fresh(w, v, 0) < 0)
        return -1;
    CSET(v, active, 1);
    w->num_active++;
    Py_CLEAR(w->active);  /* the loop rebuilds its list */
    if (set_attr_int(w->machine, s__num_active, w->num_active) < 0
            || PyObject_SetAttr(w->machine, s__active_cores, Py_None) < 0)
        return -1;
    return 0;
}

/* Hart.start(pc, now) on *hv*'s hart of *v*'s core */
static int
hart_start(Window *w, CoreView *v, HartView *hv, PyObject *pc)
{
    HSET_OBJ(hv, pc, pc);
    HSET(hv, reserved, 0);
    set_bool(hv->hart, H.waiting_join, 0);
    HSET(hv, awaiting_nextpc, 0);
    HSET(hv, syncm_block, 0);
    HSET(hv, fetch_ready_at, w->cycle + 1);
    HSET(hv, fetch_ok, hv->fetch_buf == Py_None);
    return activate(w, v);
}

/* Hart.end() */
static void
hart_end(HartView *hv)
{
    HSET_OBJ(hv, pc, Py_None);
    HSET(hv, awaiting_nextpc, 0);
    HSET(hv, syncm_block, 0);
    HSET(hv, reserved, 0);
    set_bool(hv->hart, H.waiting_join, 0);
    HSET(hv, fetch_ok, 0);
}

/* links.reserve_path(forward_links(src, dst), start) for *dst* src or
 * src + 1 (the caller checked) */
static int
reserve_forward(Window *w, PyObject *links, int64_t src, int64_t dst,
                int64_t start, int64_t *out)
{
    Hop hop = {LINK_fwd, src};
    return reserve_path(w, links, &hop, dst != src, start, out);
}

/* links.reserve_path(backward_links(src, dst), start) for *dst* <= src
 * (the caller checked): the line ``("bwd", src)`` down to dst + 1 */
static int
reserve_backward(Window *w, PyObject *links, int64_t src, int64_t dst,
                 int64_t start, int64_t *out)
{
    int status;
    int64_t i, count = src - dst;
    Hop near[MAX_HOPS], *path = near;
    if (count > MAX_HOPS
            && (path = PyMem_Malloc(count * sizeof(Hop))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < count; i++)
        path[i] = (Hop){LINK_bwd, src - i};
    status = reserve_path(w, links, path, (int)count, start, out);
    if (path != near)
        PyMem_Free(path);
    return status;
}

/* ``core.links`` with a reference of its own (the paths' Port() and
 * link_wait calls are Python) */
static PyObject *
links_of(PyObject *core)
{
    PyObject *links;
    GETO(links, core, C.links);
    return new_ref(links);
fail:
    return NULL;
}

/* *args* posted as *kind* from the domain of *v* to core *dst*, one cycle
 * after its path *forward* (or back) from v's core to dst is free.  Steals
 * *args*.  (The view may need loading again after: the path may have run
 * Python.) */
static int
send_along(Window *w, CoreView *v, int64_t dst, int forward, int kind,
           PyObject *args)
{
    int status = -1;
    int64_t when, index = v->index;
    PyObject *links;
    if (args == NULL)
        return -1;
    if ((links = links_of(v->core)) != NULL
            && (forward ? reserve_forward(w, links, index, dst, w->cycle,
                                          &when)
                : reserve_backward(w, links, index, dst, w->cycle,
                                   &when)) == 0) {
        status = post(w, v, dst, when + 1, kind, args);
        args = NULL;
    }
    Py_XDECREF(links);
    Py_XDECREF(args);
    return status;
}

/* LBP.grant_fork(core, child, src, parent): *child* (a hart of domain
 * *v*) is allocated to hart *parent_obj* of core *src* (no later core
 * than this one: the caller checked), its token sent along the backward
 * line.
 * waiters_ok(child) said yes. */
static int
grant_fork(Window *w, CoreView *v, HartView *child, int64_t src,
           PyObject *parent_obj)
{
    PyObject *gid = child->gid_obj;
    if (reserve_for_fork(child, parent_obj) < 0
            || wake_re_waiters(w, v, child, -1) < 0)
        return -1;
    return send_along(w, v, src, 0, EV_fork_grant,
                      PyTuple_Pack(2, parent_obj, gid));
}

/* core._fork, the tail p_fc and p_fn share: hart *target* (an int) is
 * *hv*'s successor and the instruction's result */
static int
fork_to(Tick *t, HartView *hv, PyObject *entry, PyObject *low,
        PyObject *target)
{
    uint32_t gid;
    CoreView *v = t->v;
    if (fresh(t->w, v, V_PIPE | V_COUNTERS) < 0
            || gate(v, HNUM(v, hv), G(stats) | G(forks)) < 0
            || low32(target, &gid) < 0)
        return -1;
    set_obj(hv->hart, H.succ, target);
    HSET(hv, forks, hv->forks + 1);
    KSET(v, forks, v->forks + 1);
    return finish_at(t, hv, entry, low, gid, t->cycle + 1) < 0 ? -1 : 1;
}

/* _exec_p_fc: the lowest free hart of this core is allocated */
static int
exec_p_fc(Tick *t, HartView *hv, PyObject *entry, PyObject *low)
{
    int h, ok;
    HartView *target;
    if ((h = free_hart(t->w, t->v)) < 0)
        return -1;
    if (h == 4)
        return 0;  /* none (issue checked there was): Python raises */
    target = &t->v->h[h];
    if ((ok = waiters_ok(target, -1)) <= 0)
        return ok;
    if (reserve_for_fork(target, hv->gid_obj) < 0
            || wake_re_waiters(t->w, t->v, target, -1) < 0)
        return -1;
    return fork_to(t, hv, entry, low, target->gid_obj);
}

/* _exec_p_fn: the oldest fork token granted by the next core */
static int
exec_p_fn(Tick *t, HartView *hv, PyObject *entry, PyObject *low)
{
    int status;
    PyObject *tokens, *token;
    GETLIST(tokens, hv->hart, H.fork_tokens);
    if (!PyList_GET_SIZE(tokens) || !PyLong_Check(PyList_GET_ITEM(tokens, 0)))
        return 0;  /* none (issue checked there was): Python raises */
    token = list_take(tokens, 0);
    status = fork_to(t, hv, entry, low, token);
    Py_DECREF(token);
    return status;
fail:
    return -1;
}

/* LBP.schedule_cv_write: p_swcv into hart ``rs1 & 0xFFFF``'s CV area, on
 * this core (one cv_write event) or over the forward link to the next
 * (rreq_cv); any other hart is an error Python words */
static int
exec_p_swcv(Tick *t, HartView *hv, PyObject *entry, PyObject *low)
{
    Window *w = t->w;
    CoreView *v = t->v;
    int status = -1;
    int64_t index = v->index, target, dst, offset, when, next_free;
    PyObject *gid = hv->gid_obj, *value, *offset_obj, *tag, *mem, *port;
    PyObject *target_obj = NULL, *addr_obj = NULL, *args = NULL;
    PyObject *links = NULL;
    GETI(target, entry, E.val0);
    target &= 0xFFFF;
    dst = target >> 2;
    if (dst >= PyList_GET_SIZE(w->cores) || (dst != index && dst != index + 1))
        return 0;
    GETO(value, entry, E.val1);
    GETO(offset_obj, low, L.imm);
    GETI(offset, low, L.imm);
    GETO(tag, entry, E.tag);
    if ((target_obj = PyLong_FromLongLong(target)) == NULL)
        goto fail;
    if (dst == index) {
        /* local_port.reserve(now + cv_write_latency) */
        GETO(mem, t->core, C.mem);
        CHECK(mem, mem_type);
        GETO(port, mem, M.local_port);
        CHECK(port, port_type);
        GETI(next_free, port, P.next_free);
        when = t->cycle + w->cv_latency;
        if (next_free > when)
            when = next_free;
        SETI(port, P.next_free, when + 1);
        if ((addr_obj = PyLong_FromLongLong(cv_base[target & 3] + offset))
                == NULL)
            goto fail;
        HSET(hv, outstanding_mem, hv->outstanding_mem + 1);
        status = post(w, v, index, when, EV_cv_write,
                      PyTuple_Pack(8, v->index_obj, addr_obj, value,
                                   v->index_obj, gid, target_obj, offset_obj,
                                   tag));
    } else {
        /* the message holds what it carries across the calls below */
        if ((args = PyTuple_Pack(6, v->index_obj, gid, target_obj,
                                 offset_obj, value, tag)) == NULL
                || (links = links_of(t->core)) == NULL)
            goto fail;
        if ((!w->metered
             || remote_issue(t, gid, Py_None,
                             2 * w->hop_latency + w->cv_latency + 1) == 0)
                && reserve_forward(w, links, index, dst, t->cycle, &when) == 0
                && fresh(w, v, V_PIPE) == 0
                && gate(v, HNUM(v, hv), HART_ALL) == 0) {
            HSET(hv, outstanding_mem, hv->outstanding_mem + 1);
            status = post(w, v, dst, when + w->cv_latency, EV_rreq_cv, args);
            args = NULL;
        }
    }
    if (status == 0)
        status = 1;
fail:
    Py_XDECREF(target_obj);
    Py_XDECREF(addr_obj);
    Py_XDECREF(args);
    Py_XDECREF(links);
    return status;
}

/* LBP.schedule_re_send: p_swre to result buffer ``imm % buffers`` of hart
 * ``rs1 & 0xFFFF`` on this core or an earlier one, along the backward line;
 * a later core is an error Python words */
static int
exec_p_swre(Tick *t, HartView *hv, PyObject *entry, PyObject *low)
{
    Window *w = t->w;
    int status = -1;
    int64_t target, dst, slot;
    PyObject *value, *tag, *target_obj = NULL, *slot_obj = NULL;
    GETI(target, entry, E.val0);
    target &= 0xFFFF;
    dst = target >> 2;
    if (dst >= PyList_GET_SIZE(w->cores) || dst > t->v->index
            || w->result_buffers < 1)
        return 0;
    GETI(slot, low, L.imm);
    slot %= w->result_buffers;  /* Python's %: never negative */
    if (slot < 0)
        slot += w->result_buffers;
    GETO(value, entry, E.val1);
    GETO(tag, entry, E.tag);
    if ((target_obj = PyLong_FromLongLong(target)) != NULL
            && (slot_obj = PyLong_FromLongLong(slot)) != NULL)
        status = send_along(w, t->v, dst, 0, EV_re_deliver,
                            PyTuple_Pack(7, t->v->index_obj, hv->gid_obj,
                                         target_obj, slot_obj, value, tag,
                                         Py_False));
    Py_XDECREF(target_obj);
    Py_XDECREF(slot_obj);
    return status < 0 ? -1 : 1;
fail:
    return -1;
}

/* _exec_p_lwre: the hart takes its filled result buffer, which a parked
 * delivery may refill */
static int
exec_p_lwre(Tick *t, HartView *hv, PyObject *entry, PyObject *low)
{
    int ok;
    uint32_t bits;
    int64_t slot;
    PyObject *buffers, *value;
    GETI(slot, low, L.re_slot);
    GETLIST(buffers, hv->hart, H.re_buffers);
    if (slot < 0 || slot >= PyList_GET_SIZE(buffers)
            || !PyLong_Check(value = PyList_GET_ITEM(buffers, slot)))
        return 0;
    if ((ok = waiters_ok(hv, slot)) <= 0)
        return ok;
    if (low32(value, &bits) < 0 || list_set(buffers, slot, Py_None) < 0
            || wake_re_waiters(t->w, t->v, hv, slot) < 0
            || finish_at(t, hv, entry, low, bits, t->cycle + 1) < 0)
        goto fail;
    return 1;
fail:
    return -1;
}

/* LBP.send_start_pc for p_jal / p_jalr: hart ``rs1 & 0xFFFF``, on this
 * core or the next, starts at pc + 4.  0: another hart (Python words it). */
static int
send_start_pc(Tick *t, PyObject *entry)
{
    int64_t index = t->v->index, target, dst, pc;
    PyObject *target_obj, *pc_obj, *args;
    GETI(target, entry, E.val0);
    target &= 0xFFFF;
    dst = target >> 2;
    if (dst >= PyList_GET_SIZE(t->w->cores)
            || (dst != index && dst != index + 1))
        return 0;
    GETI(pc, entry, E.pc);
    target_obj = PyLong_FromLongLong(target);
    pc_obj = PyLong_FromLongLong(pc + 4);
    args = target_obj == NULL || pc_obj == NULL ? NULL
        : PyTuple_Pack(2, target_obj, pc_obj);
    Py_XDECREF(target_obj);
    Py_XDECREF(pc_obj);
    return send_along(t->w, t->v, dst, 1, EV_start_pc, args) < 0 ? -1 : 1;
fail:
    return -1;
}

/* _exec_p_jal / _exec_p_jalr (its non-p_ret form): the start pc goes, rd
 * gets 0, and p_jalr resumes fetch at rs2 */
static int
exec_p_jal(Tick *t, HartView *hv, PyObject *entry, PyObject *low,
           int register_target)
{
    int sent;
    int64_t target = 0;
    if (register_target)
        GETI(target, entry, E.val1);
    if ((sent = send_start_pc(t, entry)) <= 0)
        return sent;
    if (tick_hart(t, HNUM(t->v, hv)) == NULL
            || (register_target
                && resolve_pc(t, hv, target & 0xFFFFFFFE) < 0)
            || finish_at(t, hv, entry, low, 0, t->cycle + 1) < 0)
        goto fail;
    return 1;
fail:
    return -1;
}

/* The execute step of an X_PAR message class, once window_native said
 * yes: 1 issued, 0 not one spelled here (Core._execute is called), -1 */
static int
team_execute(Tick *t, HartView *hv, PyObject *entry, PyObject *low,
             int64_t cls)
{
    if (cls == cls_p_swcv)
        return exec_p_swcv(t, hv, entry, low);
    if (cls == cls_p_jalr)
        return exec_p_jal(t, hv, entry, low, 1);
    if (cls == cls_p_fc)
        return exec_p_fc(t, hv, entry, low);
    if (cls == cls_p_jal)
        return exec_p_jal(t, hv, entry, low, 0);
    if (cls == cls_p_fn)
        return exec_p_fn(t, hv, entry, low);
    if (cls == cls_p_swre)
        return exec_p_swre(t, hv, entry, low);
    if (cls == cls_p_lwre)
        return exec_p_lwre(t, hv, entry, low);
    return 0;
}

/* LBP.send_fork_req at the decode of a p_fn: the next core is asked for a
 * hart.  Past the last core, or not spelled here, the Python call. */
static int
send_fork_req(Tick *t, HartView *hv)
{
    int native;
    int64_t index = t->v->index;
    PyObject *dst_obj;
    if ((native = window_native(t, M_send_fork_req)) < 0)
        return -1;
    if (native && index + 1 < PyList_GET_SIZE(t->w->cores)) {
        if ((dst_obj = PyLong_FromLongLong(index + 1)) == NULL)
            return -1;
        native = send_along(t->w, t->v, index + 1, 1, EV_fork_req,
                            PyTuple_Pack(3, dst_obj, t->v->index_obj,
                                         hv->gid_obj));
        Py_DECREF(dst_obj);
        return native;
    }
    return called(callback(t->w, t->machine, s_send_fork_req, t->core,
                           hv->hart, NULL));
}

/* p_ret's ending cases, as ret_action spells them */
enum { ACT_EXIT, ACT_WAIT, ACT_END, ACT_JOIN };

/* the ACT_ index of a ret_action kind, or -1 */
static int
action_kind(PyObject *name)
{
    PyObject *const names[] = {s_exit, s_wait, s_end, s_join};
    int k;
    for (k = 0; k < 4; k++)
        if (name == names[k])
            return k;
    /* a ret_action read back from a snapshot holds equal strings */
    if (PyUnicode_CheckExact(name))
        for (k = 0; k < 4; k++)
            if (PyUnicode_Compare(name, names[k]) == 0)
                return k;
    return -1;
}

/* Is the head of *v*'s core's fork queue a request the grant can serve
 * (``(src, parent)``, src no later core), and may each of its harts be the
 * child?  1 yes (or an empty queue), 0 no. */
static int
fork_queue_ok(const CoreView *v)
{
    int h, ok;
    PyObject *queue, *request;
    GETLIST(queue, v->core, C.fork_queue);
    if (!PyList_GET_SIZE(queue))
        return 1;
    request = PyList_GET_ITEM(queue, 0);
    if (!PyTuple_Check(request) || PyTuple_GET_SIZE(request) != 2
            || index_in(PyTuple_GET_ITEM(request, 0), v->index + 1) < 0)
        return 0;
    for (h = 0; h < 4; h++)
        if ((ok = waiters_ok(&v->h[h], -1)) <= 0)
            return ok;
    return 1;
fail:
    return -1;
}

/* After a p_ret frees a hart: the oldest queued p_fn request of *v*'s core
 * gets the lowest free hart, if there is one (fork_queue_ok said the
 * request is one grant_fork serves) */
static int
grant_queued(Window *w, CoreView *v)
{
    int h, status;
    PyObject *queue, *request;
    GETLIST(queue, v->core, C.fork_queue);
    if (!PyList_GET_SIZE(queue))
        return 0;
    if ((h = free_hart(w, v)) < 0)
        return -1;
    if (h == 4)
        return 0;
    request = list_take(queue, 0);
    status = grant_fork(w, v, &v->h[h], as_int(PyTuple_GET_ITEM(request, 0)),
                        PyTuple_GET_ITEM(request, 1));
    Py_DECREF(request);
    return status;
fail:
    return -1;
}

/* Core._commit_p_ret: the committed p_ret *head* of *hv*'s hart consumes
 * its predecessor link, sends the ending signal to its successor and ends,
 * waits, joins or exits; a queued p_fn request may take the freed hart.
 * The Python call when not spelled here. */
static int
commit_p_ret(Tick *t, HartView *hv, PyObject *head)
{
    Window *w = t->w;
    CoreView *v = t->v;
    int native, kind, step, status = -1;
    int64_t index = v->index, gid = hv->gid, succ = -1, joiner = -1, cores;
    PyObject *action, *succ_obj, *pending;
    if ((native = window_native(t, M_commit_p_ret)) <= 0)
        goto python;
    /* every check the Python spelling could fail, before anything */
    cores = PyList_GET_SIZE(w->cores);
    GETO(action, head, E.ret_action);
    if (!PyTuple_Check(action) || PyTuple_GET_SIZE(action) != 3
            || (kind = action_kind(PyTuple_GET_ITEM(action, 0))) < 0)
        goto python;
    GETO(succ_obj, hv->hart, H.succ);
    if (succ_obj != Py_None
            && ((succ = index_in(succ_obj, 4 * cores)) < 0
                || (succ >> 2 != index && succ >> 2 != index + 1)))
        goto python;
    if (kind == ACT_JOIN
            && (!small_int(PyTuple_GET_ITEM(action, 1), &joiner)
                || (joiner != gid
                    && (joiner < 0 || joiner >> 2 >= cores
                        || joiner >> 2 > index))))
        goto python;
    if ((native = fork_queue_ok(v)) <= 0)
        goto python;
    if (fresh(w, v, V_COUNTERS) < 0)
        goto fail;
    Py_INCREF(action);
    set_none(hv->hart, H.pred);
    HSET(hv, pred_done, 0);
    if (succ >= 0) {
        /* LBP.send_ending_signal */
        if (send_along(w, v, succ >> 2, 1, EV_ending_signal,
                       PyTuple_Pack(3, v->index_obj, hv->index_obj,
                                    succ_obj)) < 0
                || fresh(w, v, V_PIPE | V_COUNTERS) < 0
                || gate(v, HNUM(v, hv), HART_ALL) < 0)
            goto release;
        set_none(hv->hart, H.succ);
    }
    if (kind == ACT_WAIT) {
        HSET_OBJ(hv, pc, Py_None);
        set_bool(hv->hart, H.waiting_join, 1);
        if ((pending = SLOT(hv->hart, H.pending_join)) != NULL
                && pending != Py_None) {
            Py_INCREF(pending);
            set_none(hv->hart, H.pending_join);
            step = hart_start(w, v, hv, pending);
            Py_DECREF(pending);
            if (step < 0)
                goto release;
        }
    } else if (kind != ACT_EXIT) {
        hart_end(hv);
        if (kind == ACT_JOIN) {
            PyObject *addr = PyTuple_GET_ITEM(action, 2);
            KSET(v, joins, v->joins + 1);
            if (joiner == gid)  /* a one-member team: the join hart resumes */
                step = hart_start(w, v, hv, addr);
            else  /* LBP.send_join */
                step = send_along(w, v, joiner >> 2, 0, EV_join,
                                  PyTuple_Pack(2, PyTuple_GET_ITEM(action, 1),
                                               addr));
            if (step < 0)
                goto release;
        }
    }
    /* after the restarts above, so a self-resuming hart is never stolen;
     * the halt last, its one call into Python changing nothing here */
    if (fresh(w, v, V_PIPE) < 0 || grant_queued(w, v) < 0
            || (kind == ACT_EXIT
                && called(callback(w, t->machine, s_halt, s_exit, NULL,
                                   NULL)) < 0))
        goto release;
    status = 0;
release:
    Py_DECREF(action);
    return status;
fail:
    return -1;
python:
    if (native < 0)
        return -1;
    return called(callback(w, t->core, s_commit_p_ret, hv->hart, head,
                           NULL));
}

/* ---- the team-message event kinds (NATIVE_KINDS) --------------------------------- */

/* The four bytes of core *index_obj*'s local bank at *addr_obj* (a CV
 * word), as bank_bytes */
static int
cv_word(Window *w, PyObject *index_obj, PyObject *addr_obj, char **at)
{
    int status;
    int64_t width;
    PyObject *four = PyLong_FromLong(4);
    if (four == NULL)
        return -1;
    status = bank_bytes(w, index_obj, 0, addr_obj, four, at, &width);
    Py_DECREF(four);
    return status;
}

/* _ev_cv_write(target_core_index, addr, value, core_index, hart_gid,
 * target_gid, offset, tag): a same-core p_swcv writes and completes */
static int
ev_cv_write(Window *w, CoreView *Py_UNUSED(domain), PyObject *args)
{
    int status;
    char *at;
    CoreView *v;
    HartView *hv;
    PyObject *value, *tag, *entry;
    if (PyTuple_GET_SIZE(args) != 8
            || !PyLong_Check(value = PyTuple_GET_ITEM(args, 2))
            || !PyLong_Check(tag = PyTuple_GET_ITEM(args, 7)))
        return 0;
    if ((status = cv_word(w, PyTuple_GET_ITEM(args, 0),
                          PyTuple_GET_ITEM(args, 1), &at)) <= 0
            || (status = hart_of(w, PyTuple_GET_ITEM(args, 4), &v, &hv)) <= 0
            || (status = rob_entry(hv, tag, &entry)) <= 0)
        return status;
    if (write_bytes(at, value, 4) < 0)
        return -1;
    HSET(hv, outstanding_mem, hv->outstanding_mem - 1);
    set_bool(entry, E.done, 1);
    return 1;
}

/* _ev_rreq_cv(src, hart_gid, target_gid, offset, value, tag): a CV write
 * from the previous core reaches the target's local port; the ack goes
 * back along the backward line */
static int
ev_rreq_cv(Window *w, CoreView *domain, PyObject *args)
{
    int status = -1;
    int64_t target, dst, src, offset, t_bank, t_ack;
    CoreView *v;
    PyObject *mem, *port, *links = NULL, *addr_obj;
    if (PyTuple_GET_SIZE(args) != 6
            || (target = index_in(PyTuple_GET_ITEM(args, 2),
                                  4 * PyList_GET_SIZE(w->cores))) < 0
            || (src = index_in(PyTuple_GET_ITEM(args, 0),
                               (target >> 2) + 1)) < 0
            || !small_int(PyTuple_GET_ITEM(args, 3), &offset))
        return 0;
    dst = target >> 2;
    if ((v = view_at(w, dst, 0)) == NULL)
        return -1;
    GETO(mem, v->core, C.mem);
    CHECK(mem, mem_type);
    GETO(port, mem, M.local_port);
    CHECK(port, port_type);
    if ((links = links_of(v->core)) == NULL)
        goto fail;
    /* local_port.reserve(now) */
    GETI(t_bank, port, P.next_free);
    if (t_bank < w->cycle)
        t_bank = w->cycle;
    SETI(port, P.next_free, t_bank + 1);
    if ((addr_obj = PyLong_FromLongLong(cv_base[target & 3] + offset))
            == NULL)
        goto fail;
    status = post(w, domain, dst, t_bank, EV_cv_apply,
                  PyTuple_Pack(3, v->index_obj, addr_obj,
                               PyTuple_GET_ITEM(args, 4)));
    Py_DECREF(addr_obj);
    if (status == 0
            && (status = reserve_backward(w, links, dst, src, t_bank,
                                          &t_ack)) == 0)
        status = post(w, domain, src, t_ack + 1, EV_rack_cv,
                      new_ref(args));
fail:
    Py_XDECREF(links);
    return status < 0 ? -1 : 1;
}

/* _ev_cv_apply(core_index, addr, value) */
static int
ev_cv_apply(Window *w, CoreView *Py_UNUSED(domain), PyObject *args)
{
    int status;
    char *at;
    PyObject *value;
    if (PyTuple_GET_SIZE(args) != 3
            || !PyLong_Check(value = PyTuple_GET_ITEM(args, 2)))
        return 0;
    if ((status = cv_word(w, PyTuple_GET_ITEM(args, 0),
                          PyTuple_GET_ITEM(args, 1), &at)) <= 0)
        return status;
    return write_bytes(at, value, 4) < 0 ? -1 : 1;
}

/* _ev_rack_cv(src, hart_gid, target_gid, offset, value, tag) */
static int
ev_rack_cv(Window *w, CoreView *Py_UNUSED(domain), PyObject *args)
{
    return PyTuple_GET_SIZE(args) == 6 ? remote_ack(w, args, 5) : 0;
}

/* _ev_re_deliver(core_index, hart_gid, target_gid, slot, value, tag,
 * parked): a p_swre reaches its result buffer, or parks behind the value
 * there (at the head of the queue when it had parked before) */
static int
ev_re_deliver(Window *w, CoreView *domain, PyObject *args)
{
    int status, parked;
    uint32_t bits;
    int64_t slot, src;
    CoreView *v;
    HartView *target;
    PyObject *buffers, *lists, *queue, *desc, *value;
    if (PyTuple_GET_SIZE(args) != 7)
        return 0;
    if ((status = hart_of(w, PyTuple_GET_ITEM(args, 2), &v, &target)) <= 0)
        return status;
    GETLIST(buffers, target->hart, H.re_buffers);
    if ((slot = index_in(PyTuple_GET_ITEM(args, 3),
                         PyList_GET_SIZE(buffers))) < 0)
        return 0;
    if (PyList_GET_ITEM(buffers, slot) != Py_None) {
        GETO(lists, target->hart, H.re_waiters);
        if (!PyList_Check(lists) || slot >= PyList_GET_SIZE(lists)
                || !PyList_Check(queue = PyList_GET_ITEM(lists, slot)))
            return 0;
        if ((parked = truth(PyTuple_GET_ITEM(args, 6))) < 0
                || (desc = PyTuple_GetSlice(args, 0, 6)) == NULL)
            return -1;
        status = parked ? PyList_Insert(queue, 0, desc)
            : PyList_Append(queue, desc);
        Py_DECREF(desc);
        return status < 0 ? -1 : 1;
    }
    if (!PyLong_Check(PyTuple_GET_ITEM(args, 4))
            || (src = index_in(PyTuple_GET_ITEM(args, 0),
                               PyList_GET_SIZE(w->cores))) < 0)
        return 0;
    if (low32(PyTuple_GET_ITEM(args, 4), &bits) < 0
            || (value = PyLong_FromUnsignedLong(bits)) == NULL)
        return -1;
    status = list_set(buffers, slot, value);
    Py_DECREF(value);
    if (status < 0
            || post(w, domain, src, w->cycle + re_ack_latency, EV_re_ack,
                    PyTuple_GetSlice(args, 0, 6)) < 0)
        return -1;
    return 1;
fail:
    return -1;
}

/* _ev_re_ack(core_index, hart_gid, target_gid, slot, value, tag): the
 * delivery's ack completes the p_swre */
static int
ev_re_ack(Window *w, CoreView *Py_UNUSED(domain), PyObject *args)
{
    int status;
    int64_t index;
    CoreView *v, *src;
    HartView *hv;
    PyObject *entry;
    if (PyTuple_GET_SIZE(args) != 6
            || !PyLong_Check(PyTuple_GET_ITEM(args, 5))
            || (index = index_in(PyTuple_GET_ITEM(args, 0),
                                 PyList_GET_SIZE(w->per_core))) < 0
            || index >= PyList_GET_SIZE(w->cores))
        return 0;
    if ((status = hart_of(w, PyTuple_GET_ITEM(args, 1), &v, &hv)) <= 0
            || (status = rob_entry(hv, PyTuple_GET_ITEM(args, 5),
                                   &entry)) <= 0)
        return status;
    if ((src = view_at(w, index, V_COUNTERS)) == NULL)
        return -1;
    set_bool(entry, E.done, 1);
    KSET(src, re_messages, src->re_messages + 1);
    return 1;
}

/* _ev_fork_req(target_core_index, src_core_index, parent_gid): a p_fn's
 * request is granted a free hart now, or queued */
static int
ev_fork_req(Window *w, CoreView *Py_UNUSED(domain), PyObject *args)
{
    int h = 4, ok;
    int64_t index, src = -1;
    CoreView *v;
    PyObject *queue, *request;
    if (PyTuple_GET_SIZE(args) != 3
            || (index = index_in(PyTuple_GET_ITEM(args, 0),
                                 PyList_GET_SIZE(w->cores))) < 0)
        return 0;
    if ((v = view_at(w, index, V_PIPE)) == NULL)
        return -1;
    GETLIST(queue, v->core, C.fork_queue);
    if (!PyList_GET_SIZE(queue)) {
        if ((h = free_hart(w, v)) < 0)
            return -1;
        if (h < 4
                && ((src = index_in(PyTuple_GET_ITEM(args, 1),
                                    index + 1)) < 0
                    || (ok = waiters_ok(&v->h[h], -1)) <= 0))
            return src < 0 ? 0 : ok;
    }
    if (h < 4)
        return grant_fork(w, v, &v->h[h], src,
                          PyTuple_GET_ITEM(args, 2)) < 0 ? -1 : 1;
    if ((request = PyTuple_GetSlice(args, 1, 3)) == NULL)
        return -1;
    ok = PyList_Append(queue, request);
    Py_DECREF(request);
    return ok < 0 ? -1 : 1;
fail:
    return -1;
}

/* _ev_fork_grant(parent_gid, child_gid): the token reaches the parent */
static int
ev_fork_grant(Window *w, CoreView *Py_UNUSED(domain), PyObject *args)
{
    int status;
    CoreView *v;
    HartView *hv;
    PyObject *tokens;
    if (PyTuple_GET_SIZE(args) != 2)
        return 0;
    if ((status = hart_of(w, PyTuple_GET_ITEM(args, 0), &v, &hv)) <= 0)
        return status;
    GETLIST(tokens, hv->hart, H.fork_tokens);
    return PyList_Append(tokens, PyTuple_GET_ITEM(args, 1)) < 0 ? -1 : 1;
fail:
    return -1;
}

/* _ev_start_pc(target_gid, pc): an allocated hart starts */
static int
ev_start_pc(Window *w, CoreView *Py_UNUSED(domain), PyObject *args)
{
    int status;
    CoreView *v;
    HartView *hv;
    if (PyTuple_GET_SIZE(args) != 2)
        return 0;
    if ((status = hart_of(w, PyTuple_GET_ITEM(args, 0), &v, &hv)) <= 0)
        return status;
    if (!hv->reserved)
        return 0;  /* not allocated: Python words the error */
    return hart_start(w, v, hv, PyTuple_GET_ITEM(args, 1)) < 0 ? -1 : 1;
}

/* _ev_ending_signal(core_index, hart_index, succ_gid) */
static int
ev_ending_signal(Window *w, CoreView *Py_UNUSED(domain), PyObject *args)
{
    int status;
    CoreView *v;
    HartView *hv;
    if (PyTuple_GET_SIZE(args) != 3)
        return 0;
    if ((status = hart_of(w, PyTuple_GET_ITEM(args, 2), &v, &hv)) <= 0)
        return status;
    HSET(hv, pred_done, 1);
    return 1;
}

/* _ev_join(target_gid, addr): the join hart resumes, now if it waits,
 * else when its p_ret commits */
static int
ev_join(Window *w, CoreView *Py_UNUSED(domain), PyObject *args)
{
    int status, waiting;
    CoreView *v;
    HartView *hv;
    if (PyTuple_GET_SIZE(args) != 2)
        return 0;
    if ((status = hart_of(w, PyTuple_GET_ITEM(args, 0), &v, &hv)) <= 0)
        return status;
    GETB(waiting, hv->hart, H.waiting_join);
    if (!waiting) {
        set_obj(hv->hart, H.pending_join, PyTuple_GET_ITEM(args, 1));
        return 1;
    }
    return hart_start(w, v, hv, PyTuple_GET_ITEM(args, 1)) < 0 ? -1 : 1;
fail:
    return -1;
}

/* NATIVE_KINDS' spellings, in that order */
#define KIND_SPELLING(kind) ev_##kind,
static const NativeEvent native_event[NATIVE_COUNT] = {
    NATIVE_KINDS(KIND_SPELLING)};

/* ---- the loop --------------------------------------------------------------------- */

/* The cycle of the earliest pending event, never_val when there is none. */
static inline int64_t
next_event(const Window *w)
{
    return w->size ? w->heap[0].cycle : never_val;
}

/* Pop the earliest event and run its handler in its domain. */
static int
dispatch(Window *w)
{
    int status = -1, handled = 0;
    Py_ssize_t i, count;
    Event event;
    CoreView *v;
    PyObject *core = NULL, *handler, *call = NULL;

    heap_pop(w, &event);
    if ((v = view_at(w, event.dst, 0)) == NULL)
        goto fail;
    core = new_ref(v->core);  /* the domain posts from it after calls */
    Py_XSETREF(w->origin, new_ref(v->index_obj));
    w->origin_synced = 0;
    /* the handler may change what this domain's stages see */
    CSET(v, sleep_until, 0);
    /* on a metered machine it may also charge link_wait to a gated core's
     * current window: close the idle span up to now first */
    if (w->metered && (cgate(v, G(active)) < 0
                       || (!v->active && settle_of(w, v) < 0)))
        goto fail;
    if (event.kind >= 0) {
        if ((handled = handler_is_native(w, event.kind)) > 0
                && (handled = access_context(w)) > 0
                && (handled = fresh(w, v, 0)) == 0)
            handled = native_event[event.kind](w, v, event.args);
        if (handled < 0)
            goto fail;
    }
    if (!handled) {
        /* EVENT_HANDLERS[kind](machine, *args) */
        if ((handler = PyDict_GetItemWithError(event_handlers,
                                               event.name)) == NULL) {
            if (!PyErr_Occurred())
                PyErr_SetObject(PyExc_KeyError, event.name);
            goto fail;
        }
        count = PyTuple_GET_SIZE(event.args);
        if ((call = PyTuple_New(count + 1)) == NULL || leave_c(w) < 0)
            goto fail;
        PyTuple_SET_ITEM(call, 0, new_ref(w->machine));
        for (i = 0; i < count; i++)
            PyTuple_SET_ITEM(call, i + 1,
                             new_ref(PyTuple_GET_ITEM(event.args, i)));
        if (called(PyObject_Call(handler, call, NULL)) < 0)
            goto fail;
    }
    status = 0;
fail:
    Py_XDECREF(call);
    Py_XDECREF(core);
    release(&event);
    return status;
}

/* ``_active_cores = [core for core in cores if core.active]`` */
static int
list_active(Window *w, PyObject *cores)
{
    Py_ssize_t i;
    CoreView *v;
    PyObject *list = PyList_New(0);
    if (list == NULL)
        return -1;
    for (i = 0; i < PyList_GET_SIZE(cores); i++) {
        PyObject *core = PyList_GET_ITEM(cores, i);
        CHECK(core, core_type);
        if ((v = view_for(w, core, 0)) == NULL || cgate(v, G(active)) < 0
                || (v->active && PyList_Append(list, core) < 0))
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
tick_of(Window *w, Tick *t, CoreView *v)
{
    PyObject *found, *core = v->core;
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
        t->v = v;
        return tick_core(t);
    }
    if (leave_c(w) < 0
            || (found = PyObject_CallMethodNoArgs(core, s_tick)) == NULL)
        return -1;
    busy = truth(found);
    Py_DECREF(found);
    return busy;
}

/* The views of a window over *cores* (a list): one per core, none loaded */
static int
views_open(Window *w, Py_ssize_t count)
{
    w->nviews = count;
    if (count == 0)
        count = 1;
    w->views = PyMem_Calloc(count, sizeof(CoreView));
    w->touched = PyMem_Malloc(count * sizeof(Py_ssize_t));
    if (w->views == NULL || w->touched == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return 0;
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
    w.cycle = t.cycle = cycle;
    if ((w.events = attr_list(machine, s__events)) == NULL
            || (w.cores = attr_list(machine, s_cores)) == NULL
            || views_open(&w, PyList_GET_SIZE(w.cores)) < 0
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
            if ((due = next_event(&w)) < target)
                target = due;
            if (w.halt_at < target)
                target = w.halt_at;
            if (target > cycle) {
                cycle = target;
                continue;
            }
        }
        /* handlers, ticks and Core.activate read machine.cycle as "now";
         * a box of ``cycle + 1`` made this cycle is the next one's "now" */
        if (cycle != w.cycle) {
            if (w.next_obj != NULL && cycle == w.cycle + 1) {
                Py_XSETREF(w.cycle_obj, w.next_obj);
                w.next_obj = NULL;
            } else {
                Py_CLEAR(w.cycle_obj);
                Py_CLEAR(w.next_obj);
            }
            w.cycle = t.cycle = cycle;
        }
        w.cycle_synced = 0;
        while (next_event(&w) <= cycle) {
            if (dispatch(&w) < 0 || (w.calls != w.seen && refresh(&w) < 0))
                goto fail;
        }
        if (w.active == NULL && list_active(&w, cores) < 0)
            goto fail;
        /* the list is walked to its end even if a wakeup or a gate-off
         * inside the walk makes it stale for the next cycle */
        scan = new_ref(w.active);
        for (i = 0; i < PyList_GET_SIZE(scan); i++) {
            PyObject *core = PyList_GET_ITEM(scan, i);
            CoreView *v;
            int busy;
            CHECK(core, core_type);
            if ((v = view_for(&w, core, 0)) == NULL
                    || cgate(v, G(sleep_until)) < 0)
                goto fail;
            if (v->sleep_until > cycle)
                continue;
            Py_XSETREF(w.origin, new_ref(v->index_obj));
            w.origin_synced = 0;
            if ((busy = tick_of(&w, &t, v)) < 0
                    || (w.calls != w.seen && refresh(&w) < 0))
                goto fail;
            if (!busy) {
                /* gate the core off; Hart.start wakes it */
                if (fresh(&w, v, 0) < 0)
                    goto fail;
                CSET(v, active, 0);
                CSET(v, idle_since, cycle + 1);
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
    /* every way out: the views go back to the slots, the pending events
     * to machine._events */
    if (w.views != NULL && views_close(&w) < 0)
        Py_CLEAR(result);
    if (w.events != NULL && write_back(&w) < 0)
        Py_CLEAR(result);
    PyMem_Free(w.heap);
    PyMem_Free(w.views);
    PyMem_Free(w.touched);
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

/* ---- Core.tick and Core.settle_idle called on their own ---------------------------- */

/* A window over *core* alone, "now" being *now* (owned by the window):
 * no event heap, every call-back site the Python call. */
#define ALONE(w, view, touched, core) \
    CoreView view = {.core = core}; \
    Py_ssize_t touched; \
    Window w = {.alone = 1, .cycle_synced = 1, .origin_synced = 1, \
                .views = &view, .nviews = 1, .touched = &touched}

/* Core.tick() called on its own (a test, a wrapper around it): "now" is
 * what the machine's attributes say. */
static PyObject *
core_tick(PyObject *core, PyObject *Py_UNUSED(ignored))
{
    ALONE(w, view, touched, core);
    Tick t = {.core = core, .v = &view, .w = &w};
    PyObject *result = NULL;
    int busy = -1;

    GETO(t.machine, core, C.machine);
    w.machine = t.machine;
    if ((t.metrics = PyObject_GetAttr(t.machine, s_metrics)) == NULL
            || (t.lowered = PyObject_GetAttr(t.machine, s_lowered)) == NULL
            || (w.cycle_obj = PyObject_GetAttr(t.machine, s_cycle)) == NULL)
        goto fail;
    w.cycle = t.cycle = PyLong_AsLongLong(w.cycle_obj);
    w.metrics = t.metrics;
    w.metered = t.metrics != Py_None;
    if (!(t.cycle == -1 && PyErr_Occurred()))
        busy = tick_core(&t);
    if (views_close(&w) < 0)
        busy = -1;
    if (busy >= 0)
        result = new_ref(busy ? Py_True : Py_False);
fail:
    Py_XDECREF(t.metrics);
    Py_XDECREF(t.lowered);
    Py_XDECREF(w.cycle_obj);
    Py_XDECREF(w.next_obj);
    Py_XDECREF(w.per_core);
    return result;
}

static PyMethodDef tick_def = {
    "tick", core_tick, METH_NOARGS,
    "Run the five stages for one cycle (commit-side first); the compiled "
    "tick, machine/_tick.c."};

static PyObject *
core_settle_idle(PyObject *core, PyObject *now)
{
    ALONE(w, view, touched, core);
    int status = -1;
    w.cycle = as_int(now);
    if (w.cycle == -1 && PyErr_Occurred())
        return NULL;
    w.cycle_obj = new_ref(now);  /* what idle_since becomes */
    GETO(w.machine, core, C.machine);
    status = settle(&w, &view, w.cycle);
    if (views_close(&w) < 0)
        status = -1;
fail:
    Py_XDECREF(w.metrics);
    Py_DECREF(w.cycle_obj);
    Py_XDECREF(w.next_obj);
    Py_XDECREF(w.per_core);
    if (status < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef settle_def = {
    "settle_idle", core_settle_idle, METH_O,
    "settle_idle(now): charge the gated-off cycles [idle_since, now) in one "
    "step (skipped_cycles and the metrics' gated_idle stall); the compiled "
    "one, machine/_window.h."};
