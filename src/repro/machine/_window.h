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
 * exception).  An event posted here is a struct, not a tuple: its args are
 * C data, typed as its kind's shape says, and a tuple is made only where
 * it leaves C -- the write-back, the call into its Python handler, a shard
 * worker's ``_outbox`` ("events at rest").  A tuple moved in is typed once,
 * and keeps its tuple for the write-back.
 *
 * The core views.  The same rule holds for the cores' pipeline scalars
 * and each hart's instruction ring (_tick.c says which): one ``CoreView``
 * per core of ``machine.cores``, loaded whole from the slots (a hart's pc
 * and fetch buffer typed, each ring record read from its Entry) the first
 * time C touches it in the call or after a call into Python (``fresh``),
 * flushed back -- only what C wrote, and an ``Entry`` for each
 * instruction that has none -- before every call into Python and on every
 * way out.  Its core's memory -- the banks' bytes, the ports, the link
 * scheduler -- is loaded whole too, when an access first needs it
 * (``mem_view``); each Port the window reserves has a cursor of the
 * window's, flushed with the views ("the memory view").  The decode
 * records are the window's, each read once per call (nothing writes a
 * ``LoweredInstr`` or ``machine.lowered`` during a run), and so are the
 * boxes the flush made.  A window-less ``Core.tick`` or ``settle_idle`` has
 * one view of its own.
 *
 * The contract with the Python it calls (handlers, ticks that are not
 * ours, everything behind the tick's ``callback``):
 *   - the views are flushed first, and load again after: the view
 *     reloads after a call;
 *   - ``machine.cycle`` and ``machine._origin`` are written lazily: before
 *     every call into Python (``leave_c``) and when the window returns, so
 *     Python never sees an old "now" and a cycle that stays in C pays for
 *     neither;
 *   - ``_halt_at``, ``_error``, ``_num_active`` and ``_active_cores`` are
 *     cached and re-read after every call into Python (``refresh``; only
 *     Python writes the first two, ``Core.activate`` the others); the
 *     window's own writes (gate-off, the rebuilt active list) go to the
 *     attribute at once;
 *   - which function a name holds is looked at only for
 *     ``type(core).tick`` (``tick_of``): a native kind's event, a call-back
 *     site and a metrics charge are spelled here by the rules below,
 *     whatever ``EVENT_HANDLERS``, ``Core``, ``LBP`` or ``Metrics`` hold,
 *     and where the window calls Python it calls the handler or method by
 *     name;
 *   - ``_events``, ``cores``, ``metrics``, ``lowered`` are read once per
 *     call, as the Python loop reads them; the trace and the sanitizer
 *     (``observers``), ``mmio``, ``params``, ``stats.per_core`` and
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
 * ``bank_write`` + ``rack_store`` across the router tree, when the address
 * is no device's (on the issuing side for a request, on the owner's side
 * for the bank operation) and the bytes lie inside the bank.  The
 * observers ride along: the trace events and sanitizer records the Python
 * spelling makes at a step, the window appends itself, the same tuples to
 * the same buffers in the same order ("events at rest": ``trace_event``,
 * ``sanitize``).  A metered run makes the charges the Python spelling's
 * hooks make at the same points itself: the eta push of ``remote_issue`` (the round trip
 * from the two paths' lengths), the scheduler's ``link_wait``, the FIFO
 * pop of ``remote_done``; so does the settlement of a gated core before an
 * event runs in its domain (``settle``: ``skipped_cycles``, the gated-idle
 * charge, ``idle_since``).  Python is called only at a window edge inside
 * an idle span (``_emit``).  Every other case (code bank, device, out of
 * range, unmapped, a malformed event) is *not* spelled here: the window
 * calls the Python ``_execute`` or handler for that one access or event,
 * before it has changed or recorded anything.
 *
 * The team protocol.  The X_PAR messages -- p_fc / p_fn and the fork
 * token, p_swcv on the core and over the forward link, p_swre / p_lwre,
 * the start pc of p_jal / p_jalr --, issue's free-hart probe, decode's
 * fork request and the p_ret commit, and the eleven event kinds they post
 * (``cv_write``, ``rreq_cv`` -> ``cv_apply`` + ``rack_cv``,
 * ``re_deliver`` -> ``re_ack``, ``fork_req`` -> ``fork_grant``,
 * ``start_pc``, ``ending_signal``, ``join``) are spelled here by the same
 * rule.  A metered run's CV write
 * to the next core pushes and pops its eta here too.  Every check the
 * Python spelling words as a machine error (a hart id outside the
 * machine, a core beyond the forward link's reach, p_fn on the last core,
 * a start pc for an unallocated hart, a join or p_swre to a later core)
 * is made before anything changes, and a step that fails one is handed
 * to Python whole: each message is worded once, in processor.py.  Only
 * the halt of an ``exit`` stays a call, once a run.
 */

/* The event kinds spelled here: every kind of ``EVENT_HANDLERS``
 * (native_kinds() returns them for the test that checks that), each with
 * the shape of its args, one letter per arg of its processor.py handler:
 * ``i`` an int, ``r`` a ``("local" | "shared", core)`` bank reference,
 * ``m`` a load mnemonic, ``b`` a bool.  Each native spelling takes the
 * domain running the event (the core its posts come from) and the event;
 * it returns 1 when it handled the event, 0 when the event is not one it
 * spells (nothing is changed; the caller calls the Python handler, which
 * also words every error), -1 on an exception. */
#define NATIVE_KINDS(X) \
    X(load_read, "riimiii") X(load_done, "i") X(store_write, "riiiiii") \
    X(cv_write, "iiiiiiii") X(rreq_load, "iiiiim") X(bank_read, "iiiiimi") \
    X(rrep_load, "iiii") X(rreq_store, "iiiiiii") X(bank_write, "iiii") \
    X(rack_store, "iiiii") X(rreq_cv, "iiiiii") X(cv_apply, "iii") \
    X(rack_cv, "iiiiii") X(re_deliver, "iiiiiib") X(re_ack, "iiiiii") \
    X(fork_req, "iii") X(fork_grant, "ii") X(start_pc, "ii") \
    X(ending_signal, "iii") X(join, "ii")
#define KIND_INDEX(kind, shape) EV_##kind,
enum { NATIVE_KINDS(KIND_INDEX) NATIVE_COUNT };
#define KIND_NAME(kind, shape) &s_##kind,
static PyObject **const kind_name[NATIVE_COUNT] = {NATIVE_KINDS(KIND_NAME)};
#define KIND_SHAPE(kind, shape) shape,
static const char *const kind_shape[NATIVE_COUNT] = {
    NATIVE_KINDS(KIND_SHAPE)};
#define KIND_ARITY(kind, shape) (int)sizeof(shape) - 1,
static const int kind_arity[NATIVE_COUNT] = {NATIVE_KINDS(KIND_ARITY)};
/* the most args a native kind has */
#define MAX_ARGS 8

/* the trace kinds the window records (machine/trace.py's KINDS) */
#define TRACE_KINDS(X) \
    X(mem_load_req) X(mem_store_req) X(mem_load) X(mem_store) X(cv_write) \
    X(re_send) X(fork) X(start) X(ending_signal) X(join) X(p_ret)
#define TRACE_INDEX(kind) T_##kind,
enum { TRACE_KINDS(TRACE_INDEX) TRACE_COUNT };
#define TRACE_NAME(kind) &s_##kind,
static PyObject **const trace_name[TRACE_COUNT] = {TRACE_KINDS(TRACE_NAME)};

/* the args of a post, typed as its kind's shape says, or of a record */
#define ARGS(...) ((const int64_t[]){__VA_ARGS__})

/* a bank reference, typed: the core's index doubled, plus 1 for its shared
 * bank */
#define REF(shared, index) ((index) * 2 + (shared))
#define REF_SHARED(ref) ((int)((ref) & 1))
#define REF_CORE(ref) ((ref) >> 1)

/* the load mnemonics (isa/semantics.py's LOAD_WIDTH), each with the width
 * load_value sign-extends from (0: none); a mnemonic, typed, is its
 * position here */
#define MNEMONICS(X) \
    X(lb, 8) X(lh, 16) X(lw, 0) X(lbu, 0) X(lhu, 0) X(p_lwcv, 0)
#define MNEMONIC_NAME(name, bits) &s_##name,
static PyObject **const mnemonic_name[] = {MNEMONICS(MNEMONIC_NAME)};
#define MNEMONIC_BITS(name, bits) bits,
static const uint32_t mnemonic_bits[] = {MNEMONICS(MNEMONIC_BITS)};
#define MNEMONIC_COUNT ((int)(sizeof(mnemonic_bits) / sizeof(uint32_t)))

#ifdef TICK_COUNTS
static long long posts[NATIVE_COUNT];  /* events posted, by kind */
/* calls into Python, and calls of the window (``_simulate``) */
static long long python_calls, windows;
#endif

/* One pending event of the window's heap: its key, its kind and its args,
 * typed as the kind's shape says.  Moved in from ``machine._events``, it
 * also holds the tuple it was, which is what goes back; posted here, it
 * holds no object at all, and a tuple is made for it only if it leaves C
 * (the events at rest, below).  An event of a kind not spelled here, or
 * whose args are not of its kind's shape, is Python's: kind -1, and only
 * its tuple. */
typedef struct {
    int64_t cycle, origin, oseq, dst;   /* (cycle, origin, oseq): the key */
    int kind;                   /* a NATIVE_KINDS index, or -1 */
    PyObject *tuple;            /* owned, or NULL */
    int64_t a[MAX_ARGS];
} Event;

/* A Port's ``next_free`` while C runs: read from the slot when the window
 * first reserves the port after the call started or after a call into
 * Python, stored back (when C moved it) before every call into Python and
 * on every way out (the memory view, below). */
typedef struct {
    PyObject *port;             /* borrowed: the key; NULL, an empty cell */
    int64_t stamp;              /* the window's calls + 1 when read */
    int64_t next_free;
    int dirty;
} Cursor;

/* the flush's int boxes kept per call (Window.boxes) */
#define BOXES 256

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
    /* the observers, resolved with the context: the trace when it is on
     * and its buffers, the kinds it records (a bit per TRACE_KINDS index),
     * whether C recorded one since Python last could look; the sanitizer's
     * buffers (owned, NULL for none) */
    PyObject *trace, *trace_buffers, *san_buffers;
    unsigned trace_kinds;
    int recorded;
    /* the core class whose ``tick`` was looked up last, and the answer */
    PyTypeObject *tick_type;
    int tick_direct;
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
    /* the decode records made in this call: a table on (pc, instruction),
     * open addressing, ``dcap`` a power of two */
    Decode **decodes;
    Py_ssize_t dcap, dcount;
    /* the last int the flush boxed for each value modulo BOXES (owned, or
     * NULL), so that a tag or a register value it stores in several slots
     * is one object */
    PyObject *boxes[BOXES];
    int64_t boxed[BOXES];
    /* no window: Core.tick / settle_idle called on their own, every site
     * the Python call */
    int alone;
    /* the ports' cursors: a table on the Port, open addressing, ``ccap`` a
     * power of two; ``cdirty`` of them moved since the last flush */
    Cursor *cursors;
    Py_ssize_t ccap, ccount, cdirty;
};

typedef int (*NativeEvent)(Window *w, CoreView *domain, const Event *event);

static PyObject *event_handlers;  /* processor.EVENT_HANDLERS */
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

/* *table*, EVENT_HANDLERS, kept when it has a handler for every native
 * kind */
static int
keep_handlers(PyObject *table)
{
    int k;
    for (k = 0; k < NATIVE_COUNT; k++)
        if (PyDict_GetItemWithError(table, *kind_name[k]) == NULL) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_KeyError,
                             "EVENT_HANDLERS lacks the kind %R",
                             *kind_name[k]);
            return -1;
        }
    KEEP(event_handlers, table);
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
    Py_XDECREF(event->tuple);
}

/* ---- events at rest --------------------------------------------------------------
 * ``machine._events`` holds ``(cycle, origin, oseq, dst, kind, args)``
 * tuples.  Only these functions read such a tuple or make one: an event
 * moves in (event_in: the args typed, the tuple kept), goes back
 * (event_out), goes to a shard worker's ``_outbox`` (post, through
 * event_out) or to its Python handler (call_handler), and hands a slice of
 * its args to a list of the hart state (event_args).  The observers'
 * records leave C here too: a trace event or a sanitizer observation is
 * the tuple the Python spelling appends, appended to the same buffer
 * (trace_event, sanitize). */

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

/* 1 and *out* when *obj* is an exact ``int`` within int64, else 0 */
static int
exact_int(PyObject *obj, int64_t *out)
{
    int overflow;
    if (small_int(obj, out))
        return 1;
    if (!PyLong_CheckExact(obj))
        return 0;
    *out = PyLong_AsLongLongAndOverflow(obj, &overflow);
    return !overflow;
}

/* The MNEMONICS position of *name*, or -1 */
static int
mnemonic_code(PyObject *name)
{
    int k;
    for (k = 0; k < MNEMONIC_COUNT; k++)
        if (name == *mnemonic_name[k])
            return k;
    if (PyUnicode_CheckExact(name))
        for (k = 0; k < MNEMONIC_COUNT; k++)
            if (PyUnicode_Compare(name, *mnemonic_name[k]) == 0)
                return k;
    return -1;
}

/* 1 and the bank reference *ref*, typed, in *out*; 0 when it is no
 * ``("local" | "shared", core)`` tuple */
static int
ref_in(PyObject *ref, int64_t *out)
{
    int shared;
    int64_t index;
    PyObject *bank;
    if (!PyTuple_CheckExact(ref) || PyTuple_GET_SIZE(ref) != 2
            || !exact_int(PyTuple_GET_ITEM(ref, 1), &index)
            || index < 0 || index > INT64_MAX / 2)
        return 0;
    bank = PyTuple_GET_ITEM(ref, 0);
    if (bank == s_shared || bank == s_local)
        shared = bank == s_shared;
    else if (!PyUnicode_CheckExact(bank))
        return 0;
    else if (PyUnicode_Compare(bank, s_shared) == 0)
        shared = 1;
    else if (PyUnicode_Compare(bank, s_local) == 0)
        shared = 0;
    else
        return 0;
    *out = REF(shared, index);
    return 1;
}

/* 1 and the *n* objects *items*, typed by *shape*, in *a*; 0 when they are
 * not of that shape (so many of them, each of its letter's type) */
static int
args_in(PyObject *const *items, Py_ssize_t n, const char *shape, int64_t *a)
{
    Py_ssize_t i;
    if (n != (Py_ssize_t)strlen(shape))
        return 0;
    for (i = 0; i < n; i++) {
        switch (shape[i]) {
        case 'b':
            if (items[i] != Py_True && items[i] != Py_False)
                return 0;
            a[i] = items[i] == Py_True;
            break;
        case 'm':
            if ((a[i] = mnemonic_code(items[i])) < 0)
                return 0;
            break;
        case 'r':
            if (!ref_in(items[i], &a[i]))
                return 0;
            break;
        default:
            if (!exact_int(items[i], &a[i]))
                return 0;
        }
    }
    return 1;
}

/* arg *i* of *event* as its tuple holds it: a new reference */
static PyObject *
arg_out(const Event *event, int i)
{
    int64_t value = event->a[i];
    PyObject *index, *ref;
    switch (kind_shape[event->kind][i]) {
    case 'b':
        return new_ref(value ? Py_True : Py_False);
    case 'm':
        return new_ref(*mnemonic_name[value]);
    case 'r':
        if ((index = PyLong_FromLongLong(REF_CORE(value))) == NULL)
            return NULL;
        ref = PyTuple_Pack(2, REF_SHARED(value) ? s_shared : s_local, index);
        Py_DECREF(index);
        return ref;
    }
    return PyLong_FromLongLong(value);
}

/* ``args[start:stop]`` of *event*: its tuple's own items, or objects made
 * from its typed args (the ones its post would have made).  A new
 * reference. */
static PyObject *
event_args(const Event *event, Py_ssize_t start, Py_ssize_t stop)
{
    Py_ssize_t i;
    PyObject *args, *item;
    if (event->tuple != NULL)
        return PyTuple_GetSlice(PyTuple_GET_ITEM(event->tuple, 5), start,
                                stop);
    if (stop > kind_arity[event->kind])
        stop = kind_arity[event->kind];
    if ((args = PyTuple_New(stop - start)) == NULL)
        return NULL;
    for (i = start; i < stop; i++) {
        if ((item = arg_out(event, (int)i)) == NULL) {
            Py_DECREF(args);
            return NULL;
        }
        PyTuple_SET_ITEM(args, i - start, item);
    }
    return args;
}

/* ``event[i]`` as the int64 *out* */
static inline int
key_field(PyObject *event, Py_ssize_t i, int64_t *out)
{
    *out = as_int(PyTuple_GET_ITEM(event, i));
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* *into*: the heap entry for the tuple *event*, holding it, its args typed
 * when they are of its kind's shape. */
static int
event_in(PyObject *event, Event *into)
{
    PyObject *args;
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
    args = PyTuple_GET_ITEM(event, 5);
    into->kind = kind_index(PyTuple_GET_ITEM(event, 4));
    if (into->kind >= 0
            && !args_in(((PyTupleObject *)args)->ob_item,
                        PyTuple_GET_SIZE(args), kind_shape[into->kind],
                        into->a))
        into->kind = -1;  /* Python's: its handler words what is wrong */
    into->tuple = new_ref(event);
    return 0;
}

/* The heap entry *event* as the tuple ``machine._events`` holds: a new
 * reference, or NULL.  The tuple the entry held is the result's. */
static PyObject *
event_out(Event *event)
{
    int64_t key[4] = {event->cycle, event->origin, event->oseq, event->dst};
    PyObject *tuple, *item;
    int i;
    if (event->tuple != NULL)
        return event->tuple;
    if ((tuple = PyTuple_New(6)) == NULL)
        return NULL;
    PyTuple_SET_ITEM(tuple, 4, new_ref(*kind_name[event->kind]));
    for (i = 0; i < 6; i++) {
        if (i == 4)
            continue;
        if ((item = i < 4 ? PyLong_FromLongLong(key[i])
             : event_args(event, 0, MAX_ARGS)) == NULL) {
            Py_DECREF(tuple);
            return NULL;
        }
        PyTuple_SET_ITEM(tuple, i, item);
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

/* ``EVENT_HANDLERS[kind](machine, *args)``: *event* as Python spells it */
static int
call_handler(Window *w, const Event *event)
{
    Py_ssize_t i, count;
    PyObject *name = event->tuple != NULL ? PyTuple_GET_ITEM(event->tuple, 4)
        : *kind_name[event->kind];
    PyObject *handler, *args, *call = NULL;
    int status = -1;
    if ((handler = PyDict_GetItemWithError(event_handlers, name)) == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, name);
        return -1;
    }
    handler = new_ref(handler);
    if ((args = event_args(event, 0, PY_SSIZE_T_MAX)) != NULL
            && (call = PyTuple_New(PyTuple_GET_SIZE(args) + 1)) != NULL
            && leave_c(w) == 0) {
        count = PyTuple_GET_SIZE(args);
        PyTuple_SET_ITEM(call, 0, new_ref(w->machine));
        for (i = 0; i < count; i++)
            PyTuple_SET_ITEM(call, i + 1, new_ref(PyTuple_GET_ITEM(args, i)));
        status = called(PyObject_Call(handler, call, NULL));
    }
    Py_XDECREF(call);
    Py_XDECREF(args);
    Py_DECREF(handler);
    return status;
}

/* The list ``buffers[domain]`` (a dict's, made when missing), borrowed */
static PyObject *
domain_buffer(PyObject *buffers, int64_t domain)
{
    PyObject *key = PyLong_FromLongLong(domain), *list = NULL;
    if (key == NULL)
        return NULL;
    if ((list = PyDict_GetItemWithError(buffers, key)) == NULL
            && !PyErr_Occurred() && (list = PyList_New(0)) != NULL) {
        if (PyDict_SetItem(buffers, key, list) < 0)
            Py_CLEAR(list);
        Py_XDECREF(list);  /* (the dict holds it) */
    }
    Py_DECREF(key);
    if (list != NULL && !PyList_Check(list)) {
        wrong_type("list of observations");
        return NULL;
    }
    return list;
}

/* *record* (stolen; NULL: making it failed) joins ``buffers[domain]`` */
static int
observe(PyObject *buffers, int64_t domain, PyObject *record)
{
    PyObject *list;
    int status = -1;
    if (record != NULL && (list = domain_buffer(buffers, domain)) != NULL)
        status = PyList_Append(list, record);
    Py_XDECREF(record);
    return status;
}

/* ``Trace.record(cycle, core, hart, kind, args, domain)``: the event
 * ``(cycle, core, hart, kind, args)`` joins the buffer of *domain* when
 * the trace records *kind* (a TRACE_KINDS index); *args* the *n* ints *a*,
 * or *obj* when *n* is -1 */
static int
trace_event(Window *w, int kind, int64_t domain, int64_t core, int64_t hart,
            int n, const int64_t *a, PyObject *obj)
{
    int i;
    int64_t head[3] = {0, core, hart};  /* (the cycle: its box) */
    PyObject *event, *args, *item;
    if (!(w->trace_kinds >> kind & 1))
        return 0;
    if (cycle_box(w) == NULL || (event = PyTuple_New(5)) == NULL)
        return -1;
    PyTuple_SET_ITEM(event, 0, new_ref(w->cycle_obj));
    PyTuple_SET_ITEM(event, 3, new_ref(*trace_name[kind]));
    if (n < 0)
        PyTuple_SET_ITEM(event, 4, new_ref(obj));
    else if ((args = PyTuple_New(n)) != NULL) {
        PyTuple_SET_ITEM(event, 4, args);
        for (i = 0; i < n; i++) {
            if ((item = PyLong_FromLongLong(a[i])) == NULL)
                goto fail;
            PyTuple_SET_ITEM(args, i, item);
        }
    } else
        goto fail;
    for (i = 1; i < 3; i++) {
        if ((item = PyLong_FromLongLong(head[i])) == NULL)
            goto fail;
        PyTuple_SET_ITEM(event, i, item);
    }
    w->recorded = 1;
    return observe(w->trace_buffers, domain, event);
fail:
    Py_DECREF(event);
    return -1;
}

#define TRACE_INTS(w, kind, domain, core, hart, ...) \
    trace_event(w, T_##kind, domain, core, hart, \
                (int)(sizeof(ARGS(__VA_ARGS__)) / sizeof(int64_t)), \
                ARGS(__VA_ARGS__), NULL)

/* ``Sanitizer.record(domain, (cycle, kind, *a))``, the *n* ints *a*, when
 * a sanitizer is attached */
static int
sanitize(Window *w, int64_t domain, PyObject *kind, int n, const int64_t *a)
{
    int i;
    PyObject *record, *item;
    if (w->san_buffers == NULL)
        return 0;
    if (cycle_box(w) == NULL || (record = PyTuple_New(n + 2)) == NULL)
        return -1;
    PyTuple_SET_ITEM(record, 0, new_ref(w->cycle_obj));
    PyTuple_SET_ITEM(record, 1, new_ref(kind));
    for (i = 0; i < n; i++) {
        if ((item = PyLong_FromLongLong(a[i])) == NULL) {
            Py_DECREF(record);
            return -1;
        }
        PyTuple_SET_ITEM(record, i + 2, item);
    }
    return observe(w->san_buffers, domain, record);
}

#define SANITIZE(w, domain, kind, ...) \
    sanitize(w, domain, s_##kind, \
             (int)(sizeof(ARGS(__VA_ARGS__)) / sizeof(int64_t)), \
             ARGS(__VA_ARGS__))

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
static inline int
read_int(PyObject *value, int64_t *out)
{
    *out = as_int(value);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

/* *out*: the slot as an int64, as GETI reads it */
static inline int
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
static inline int
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
static inline int
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

static int registers_load(HartView *hv);
static int buffer_load(HartView *hv);
static int window_load(Window *w, HartView *hv);

/* Hart *hart* into *hv*: its scalars, its pc and fetch buffer (``(pc,
 * low)`` as its decode record), its HartStats, its registers, its
 * writeback buffer and its ring */
static int
hart_load(Window *w, HartView *hv, PyObject *hart)
{
    int64_t pc;
    PyObject *pc_slot, *buf;
    if (!PyObject_TypeCheck(hart, hart_type)) {
        wrong_type(hart_type->tp_name);
        return -1;
    }
    hv->hart = hart;
    if (load_obj(hart, H.rob, &PyList_Type, &hv->rob) < 0
            || load_obj(hart, H.rb, rb_type, &hv->rb) < 0
            || load_obj(hart, H.regs, &PyList_Type, &hv->regs) < 0
            || load_obj(hart, H.rename, &PyList_Type, &hv->rename) < 0
            || load_obj(hart, H.it, &PyList_Type, &hv->it) < 0
            || load_obj(hart, H.pc, NULL, &pc_slot) < 0
            || (pc_slot != Py_None && read_int(pc_slot, &hv->pc) < 0)
            || load_obj(hart, H.fetch_buf, NULL, &buf) < 0)
        return -1;
    hv->has_pc = pc_slot != Py_None;
    hv->fetch_buf = NULL;
    if (buf != Py_None) {
        if (!PyTuple_Check(buf) || PyTuple_GET_SIZE(buf) != 2) {
            wrong_type("(pc, low) tuple");
            return -1;
        }
        if (read_int(PyTuple_GET_ITEM(buf, 0), &pc) < 0)
            return -1;
        hv->fetch_buf = decode_of(w, pc, PyTuple_GET_ITEM(buf, 1));
        if (hv->fetch_buf == NULL)
            return -1;
    }
    if (load_obj(hart, H.gid, NULL, &hv->gid_obj) < 0
            || read_int(hv->gid_obj, &hv->gid) < 0
            || load_obj(hart, H.index, NULL, &hv->index_obj) < 0
            || read_int(hv->index_obj, &hv->index) < 0
            || load_obj(hart, H.stats, stats_type, &hv->stats) < 0)
        return -1;
    HV_INTS(LOAD_H_INT)
    HV_BOOLS(LOAD_H_BOOL)
    STATS_SLOTS(LOAD_S_INT)
    hv->dirty = 0;
    return registers_load(hv) < 0 || buffer_load(hv) < 0
        || window_load(w, hv) < 0 ? -1 : 0;
}

/* The core's scalars and harts into *v* */
static int
pipe_load(Window *w, CoreView *v)
{
    int h;
    PyObject *harts;
    CV_INTS(LOAD_C_INT)
    CV_BOOLS(LOAD_C_BOOL)
    LOAD_C_INT(_rob_size)
    if (load_obj(v->core, C.harts, &PyList_Type, &harts) < 0)
        return -1;
    if (PyList_GET_SIZE(harts) != 4) {
        wrong_type("list of four harts");
        return -1;
    }
    for (h = 0; h < 4; h++)
        if (hart_load(w, &v->h[h], PyList_GET_ITEM(harts, h)) < 0)
            return -1;
    return 0;
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

/* The view of its core, whole, from the slots: the one load of a view in
 * a call of the window or after a call into Python (the flush before that
 * call left nothing dirty). */
static NOINLINE int
view_load(Window *w, CoreView *v)
{
    v->stamp = w->calls + 1;
    v->dirty = v->kdirty = 0;
    w->touched[w->ntouched++] = v - w->views;
    return load_obj(v->core, C.index, NULL, &v->index_obj) < 0
        || read_int(v->index_obj, &v->index) < 0
        || pipe_load(w, v) < 0 || load_counters(w, v) < 0 ? -1 : 0;
}

static inline int
fresh(Window *w, CoreView *v)
{
    return v->stamp == w->calls + 1 ? 0 : view_load(w, v);
}

/* The view of ``cores[i]``, fresh, or NULL. */
static CoreView *
view_at(Window *w, int64_t i)
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
    return fresh(w, v) < 0 ? NULL : v;
}

static CoreView *
view_for(Window *w, PyObject *core)
{
    int64_t i = w->hint;
    PyObject *index;
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
    return view_at(w, i);
}


/* the hart's ``rename`` is *list* (Hart.reserve_for_fork) */
static void
view_set_rename(HartView *hv, PyObject *list)
{
    set_obj(hv->hart, H.rename, list);
    hv->rename = list;
    /* its 32 Nones, none of them written since */
    hv->ren_set = hv->ren_dirty = 0;
}

/* *value* as an int object, a new reference (see Window.boxes) */
static PyObject *
box(Window *w, int64_t value)
{
    Py_ssize_t k = (Py_ssize_t)((uint64_t)value & (BOXES - 1));
    if (value >= -5 && value <= 256)  /* CPython's own small ints */
        return PyLong_FromLongLong(value);
    if (w->boxes[k] == NULL || w->boxed[k] != value) {
        PyObject *made = PyLong_FromLongLong(value);
        if (made == NULL)
            return NULL;
        Py_XSETREF(w->boxes[k], made);
        w->boxed[k] = value;
    }
    return new_ref(w->boxes[k]);
}

/* ``obj.<off> = value`` with the window's box of it */
static inline int
set_box(Window *w, PyObject *obj, Py_ssize_t off, int64_t value)
{
    PyObject *boxed = box(w, value);
    if (boxed == NULL)
        return -1;
    Py_XSETREF(SLOT(obj, off), boxed);
    return 0;
}

/* Store the view's *value* in the int slot: never_obj, the window's boxes
 * of cycle and cycle + 1, or its box of the value. */
static inline int
flush_int(Window *w, PyObject *obj, Py_ssize_t off, int64_t value)
{
    PyObject *boxed, *old;
    if (value == never_val)
        boxed = new_ref(never_obj);
    else if (value == w->cycle || value == w->cycle + 1) {
        if ((boxed = value == w->cycle ? cycle_box(w) : next_box(w)) == NULL)
            return -1;
        Py_INCREF(boxed);
    } else if ((boxed = box(w, value)) == NULL)
        return -1;
    old = SLOT(obj, off);
    SLOT(obj, off) = boxed;
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

/* ---- the memory view: a core's banks and ports, its link scheduler ----------------
 * Read as one unit when an access or a message first needs it after the
 * view was loaded: the CoreMemory and its ports, each bank's base and
 * bytes (a pointer into the bytearray, which only Python can resize), the
 * LinkScheduler's latency, rows and observer.  Each Port the window
 * reserves has a cursor of the window's (Cursor), read when first reserved
 * and stored back, if C moved it, with the views.  These and the view's
 * load are the only functions that read or write a CoreMemory's, a Bank's
 * or a Port's slots. */

/* ``bank[shared]`` of *v*, whose CoreMemory is loaded */
static int
bank_load(CoreView *v, int shared)
{
    PyObject *bank, *data;
    if (load_obj(v->mem, shared ? M.shared : M.local, bank_type, &bank) < 0
            || load_int(bank, B.base, &v->bank[shared].base) < 0
            || load_obj(bank, B.data, &PyByteArray_Type, &data) < 0)
        return -1;
    v->bank[shared].data = PyByteArray_AS_STRING(data);
    v->bank[shared].size = PyByteArray_GET_SIZE(data);
    return 0;
}

static int
links_load(CoreView *v)
{
    PyObject *links;
    if (load_obj(v->core, C.links, links_type, &links) < 0
            || load_int(links, LS.hop_latency, &v->hop_latency) < 0
            || load_obj(links, LS._links, NULL, &v->link_rows) < 0)
        return -1;
    if (!PyList_Check(v->link_rows)) {
        wrong_type("list of link port rows");
        return -1;
    }
    if (load_obj(links, LS._metrics, NULL, &v->link_observer) < 0
            || load_obj(links, LS._core_index, NULL, &v->link_core) < 0)
        return -1;
    v->links = links;
    return 0;
}

/* *v*'s memory view, current (not loaded with the view: the slot traffic
 * tests/integration/test_tick_counts.py bounds has no room for the banks
 * of a core that only ticks) */
static int
mem_view(Window *w, CoreView *v)
{
    if (v->mem_stamp == w->calls + 1)
        return 0;
    v->mem_stamp = w->calls + 1;
    if (load_obj(v->core, C.mem, mem_type, &v->mem) < 0
            || load_obj(v->mem, M.local_port, NULL,
                        &v->ports[PORT_LOCAL]) < 0
            || load_obj(v->mem, M.shared_local_port, NULL,
                        &v->ports[PORT_SHARED_LOCAL]) < 0
            || load_obj(v->mem, M.shared_router_port, NULL,
                        &v->ports[PORT_SHARED_ROUTER]) < 0)
        return -1;
    return bank_load(v, 0) < 0 || bank_load(v, 1) < 0 || links_load(v) < 0
        ? -1 : 0;
}

/* the table's home cell of *port* */
static inline Py_ssize_t
cursor_home(const Window *w, PyObject *port)
{
    return (Py_ssize_t)((((uintptr_t)port >> 4) * 0x9E3779B1u)
                        & (uintptr_t)(w->ccap - 1));
}

/* Room for one more cursor: the table doubled when it is half full */
static int
cursors_room(Window *w)
{
    Cursor *old = w->cursors;
    Py_ssize_t i, j, cap = w->ccap;
    if (2 * (w->ccount + 1) <= w->ccap)
        return 0;
    w->ccap = cap ? 2 * cap : 64;
    if ((w->cursors = PyMem_Calloc(w->ccap, sizeof(Cursor))) == NULL) {
        w->cursors = old;
        w->ccap = cap;
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < cap; i++)
        if (old[i].port != NULL) {
            for (j = cursor_home(w, old[i].port); w->cursors[j].port != NULL;
                 j = (j + 1) & (w->ccap - 1))
                ;
            w->cursors[j] = old[i];
        }
    PyMem_Free(old);
    return 0;
}

/* The cursor of *port*, current -- a Port (checked) whose ``next_free`` is
 * read when it is first reserved after the call started or after a call
 * into Python -- or NULL.  Good until the next cursor_of. */
static Cursor *
cursor_of(Window *w, PyObject *port)
{
    Py_ssize_t i;
    Cursor *c;
    if (cursors_room(w) < 0)
        return NULL;
    for (i = cursor_home(w, port); (c = &w->cursors[i])->port != port;
         i = (i + 1) & (w->ccap - 1))
        if (c->port == NULL) {
            c->port = port;
            c->stamp = 0;
            w->ccount++;
            break;
        }
    if (c->stamp != w->calls + 1) {
        if (!PyObject_TypeCheck(port, port_type)) {
            wrong_type(port_type->tp_name);
            return NULL;
        }
        if (load_int(port, P.next_free, &c->next_free) < 0)
            return NULL;
        c->stamp = w->calls + 1;
        c->dirty = 0;
    }
    return c;
}

/* ``port.reserve(earliest)`` (Port.reserve) on *port*'s cursor: *slot* the
 * cycle reserved */
static int
reserve(Window *w, PyObject *port, int64_t earliest, int64_t *slot)
{
    Cursor *c = cursor_of(w, port);
    if (c == NULL)
        return -1;
    if (c->next_free > earliest)
        earliest = c->next_free;
    c->next_free = earliest + 1;
    if (!c->dirty) {
        c->dirty = 1;
        w->cdirty++;
    }
    *slot = earliest;
    return 0;
}

/* Store every cursor C moved since the last flush in its Port's slot. */
static int
cursors_flush(Window *w)
{
    Py_ssize_t i;
    Cursor *c;
    for (i = 0; w->cdirty > 0 && i < w->ccap; i++)
        if ((c = &w->cursors[i])->dirty) {
            if (flush_int(w, c->port, P.next_free, c->next_free) < 0)
                return -1;
            c->dirty = 0;
            w->cdirty--;
        }
    w->cdirty = 0;
    return 0;
}

/* ``Port()``: ``next_free = 0``, in the one slot bind checked a Port has.
 * A new reference. */
static PyObject *
new_port(void)
{
    PyObject *port;
    if ((port = port_type->tp_alloc(port_type, 0)) != NULL)
        SLOT(port, P.next_free) = new_ref(zero_obj);
    return port;
}

/* ---- the instruction ring: decode records, load, flush ---------------------------
 * _tick.c says what the ring holds.  These are the only functions that read
 * or write an Entry's or a ResultBuffer's slots, or ``regs`` / ``rename`` /
 * ``it`` / ``rob``. */

/* *value* as a register value, an int in [0, 2**32) */
static int
load_u32(PyObject *value, uint32_t *out)
{
    int64_t number;
    if (read_int(value, &number) < 0)
        return -1;
    if (number < 0 || number > MASK32) {
        PyErr_Format(PyExc_ValueError, "compiled tick: a register value "
                     "outside [0, 2**32): %lld", (long long)number);
        return -1;
    }
    *out = (uint32_t)number;
    return 0;
}

#define LOAD_L_INT(name) \
    if (load_int(low, L.name, &d->name) < 0) return -1;
#define LOAD_L_BOOL(name) \
    if (load_bool(low, L.name, &d->name) < 0) return -1;

/* *d*'s fields, read from its instruction's slots */
static int
decode_read(Decode *d)
{
    PyObject *low = d->low, *mnemonic;
    LOAD_L_INT(cls) LOAD_L_INT(rd) LOAD_L_INT(imm) LOAD_L_INT(nreads)
    LOAD_L_INT(r1) LOAD_L_INT(r2) LOAD_L_INT(alu_op) LOAD_L_INT(br_op)
    LOAD_L_INT(latency) LOAD_L_INT(re_slot) LOAD_L_INT(dec_kind)
    LOAD_L_INT(issue_kind) LOAD_L_INT(trap) LOAD_L_INT(width)
    LOAD_L_BOOL(writes) LOAD_L_BOOL(store_like)
    if (load_obj(low, L.mnemonic, NULL, &mnemonic) < 0)
        return -1;
    /* what a load's events carry of it (the mnemonic of anything else is
     * -1 too, and never read) */
    d->mnem = mnemonic_code(mnemonic);
    return 0;
}

/* the table's home slot of *pc* */
static inline Py_ssize_t
decode_home(const Window *w, int64_t pc)
{
    return (Py_ssize_t)(((uint64_t)pc >> 2) * 0x9E3779B97F4A7C15ull >> 40)
        & (w->dcap - 1);
}

/* Room in the table for one more record: grown, every record moved to its
 * slot of the larger table */
static int
decodes_room(Window *w)
{
    Py_ssize_t i, j, old = w->dcap, cap = old ? 2 * old : 256;
    Decode *d, **grown, **table;
    if (2 * (w->dcount + 1) <= w->dcap)
        return 0;
    if ((grown = PyMem_Calloc(cap, sizeof(Decode *))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    table = w->decodes;
    w->decodes = grown;
    w->dcap = cap;
    for (j = 0; j < old; j++)
        if ((d = table[j]) != NULL) {
            for (i = decode_home(w, d->pc); grown[i] != NULL;
                 i = (i + 1) & (cap - 1))
                ;
            grown[i] = d;
        }
    PyMem_Free(table);
    return 0;
}

static Decode *
decode_of(Window *w, int64_t pc, PyObject *low)
{
    Py_ssize_t i;
    Decode *d;
    if (!PyObject_TypeCheck(low, low_type)) {
        wrong_type(low_type->tp_name);
        return NULL;
    }
    if (decodes_room(w) < 0)
        return NULL;
    for (i = decode_home(w, pc); (d = w->decodes[i]) != NULL;
         i = (i + 1) & (w->dcap - 1))
        if (d->pc == pc && d->low == low)
            return d;
    if ((d = PyMem_Calloc(1, sizeof(Decode))) == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    d->pc = pc;
    d->low = low;
    if (decode_read(d) < 0) {
        PyMem_Free(d);
        return NULL;
    }
    w->decodes[i] = d;
    w->dcount++;
    Py_INCREF(low);
    return d;
}

static Decode *
decode_fetch(Window *w, PyObject *lowered, int64_t pc)
{
    Py_ssize_t i;
    Decode *d;
    PyObject *pc_box, *low;
    if (!PyDict_Check(lowered))
        return NULL;
    if (w->dcap)
        for (i = decode_home(w, pc); (d = w->decodes[i]) != NULL;
             i = (i + 1) & (w->dcap - 1))
            if (d->pc == pc && d->in_lowered)
                return d;
    if ((pc_box = PyLong_FromLongLong(pc)) == NULL)
        return NULL;
    low = PyDict_GetItemWithError(lowered, pc_box);
    Py_DECREF(pc_box);
    if (low == NULL || (d = decode_of(w, pc, low)) == NULL)
        return NULL;
    d->in_lowered = 1;
    return d;
}

/* The window's decode records go. */
static void
decodes_free(Window *w)
{
    Py_ssize_t i;
    Decode *d;
    for (i = 0; i < w->dcap; i++)
        if ((d = w->decodes[i]) != NULL) {
            Py_DECREF(d->low);
            PyMem_Free(d);
        }
    PyMem_Free(w->decodes);
}

/* The 32 registers and rename entries of *hv*, from ``regs`` / ``rename``
 * (an IndexError when one is shorter) */
static int
registers_load(HartView *hv)
{
    int r;
    PyObject *item;
    hv->reg_dirty = hv->ren_dirty = hv->ren_set = 0;
    if (PyList_GET_SIZE(hv->regs) < 32 || PyList_GET_SIZE(hv->rename) < 32) {
        PyErr_SetString(PyExc_IndexError, "list index out of range");
        return -1;
    }
    for (r = 0; r < 32; r++) {
        if (load_u32(PyList_GET_ITEM(hv->regs, r), &hv->regv[r]) < 0)
            return -1;
        if ((item = PyList_GET_ITEM(hv->rename, r)) == Py_None)
            continue;
        if (read_int(item, &hv->ren[r]) < 0)
            return -1;
        hv->ren_set |= 1u << r;
    }
    return 0;
}

/* a slot that holds an int or None */
static inline int
store_opt(Window *w, PyObject *obj, Py_ssize_t off, int has, int64_t value)
{
    if (has)
        return set_box(w, obj, off, value);
    set_none(obj, off);
    return 0;
}

/* *rec*'s fields C changed since the load into its Entry */
static int
entry_store(Window *w, Instr *rec)
{
    PyObject *entry = rec->obj;
    unsigned d = rec->dirty;
    if ((d & D_VAL0 && store_opt(w, entry, E.val0, rec->has_val[0],
                                 rec->val[0]) < 0)
            || (d & D_VAL1 && store_opt(w, entry, E.val1, rec->has_val[1],
                                        rec->val[1]) < 0)
            || (d & D_WAIT0 && store_opt(w, entry, E.wait0, rec->has_wait[0],
                                         rec->wait[0]) < 0)
            || (d & D_WAIT1 && store_opt(w, entry, E.wait1, rec->has_wait[1],
                                         rec->wait[1]) < 0)
            || (d & D_NWAITS && set_box(w, entry, E.nwaits, rec->nwaits) < 0))
        return -1;
    if (d & D_ISSUED)
        set_bool(entry, E.issued, rec->issued);
    if (d & D_DONE)
        set_bool(entry, E.done, rec->done);
    if (d & D_RET)
        set_obj(entry, E.ret_action,
                rec->ret_action != NULL ? rec->ret_action : Py_None);
    rec->dirty = 0;
    return 0;
}

/* A new Entry for *rec*, slot by slot (bind checked these are all) */
static PyObject *
entry_new(Window *w, const Instr *rec)
{
    const Decode *d = rec->dec;
    PyObject *entry = entry_type->tp_alloc(entry_type, 0);
    if (entry == NULL)
        return NULL;
    set_obj(entry, E.low, d->low);
    set_bool(entry, E.issued, rec->issued);
    set_bool(entry, E.done, rec->done);
    set_obj(entry, E.ret_action,
            rec->ret_action != NULL ? rec->ret_action : Py_None);
    if (set_box(w, entry, E.pc, rec->pc) < 0
            || set_box(w, entry, E.tag, rec->tag) < 0
            || store_opt(w, entry, E.val0, rec->has_val[0], rec->val[0]) < 0
            || store_opt(w, entry, E.val1, rec->has_val[1], rec->val[1]) < 0
            || store_opt(w, entry, E.wait0, rec->has_wait[0], rec->wait[0]) < 0
            || store_opt(w, entry, E.wait1, rec->has_wait[1], rec->wait[1]) < 0
            || set_box(w, entry, E.nwaits, rec->nwaits) < 0)
        goto fail;
    return entry;
fail:
    Py_DECREF(entry);
    return NULL;
}

/* *rec*'s Entry, made if it has none, holds what C left in the record */
static int
record_store(Window *w, Instr *rec)
{
    if (rec->obj == NULL) {
        if ((rec->obj = entry_new(w, rec)) == NULL)
            return -1;
        rec->dirty = 0;
        return 0;
    }
    return rec->dirty ? entry_store(w, rec) : 0;
}

static PyObject *
record_entry(Window *w, Instr *rec)
{
    return record_store(w, rec) < 0 ? NULL : new_ref(rec->obj);
}

static int
record_retire(Window *w, Instr *rec)
{
    int status = rec->obj != NULL && rec->dirty ? entry_store(w, rec) : 0;
    Py_CLEAR(rec->obj);
    Py_CLEAR(rec->ret_action);
    return status;
}

/* The records of *hv*'s ring let go of their objects and go. */
static void
ring_clear(HartView *hv)
{
    Py_ssize_t i;
    for (i = 0; i < hv->count; i++) {
        Py_CLEAR(AT(hv, i)->obj);
        Py_CLEAR(AT(hv, i)->ret_action);
    }
    hv->count = hv->first = 0;
}

/* The ring of *hv* lets go of what it holds; loaded again when next
 * needed. */
static void
window_release(HartView *hv)
{
    ring_clear(hv);
    hv->rb_entry = NULL;
    hv->reordered = 0;
    hv->rb_dirty = 0;
}

/* The writeback buffer of *hv* (whose rb is loaded), its producer as the
 * Entry the slot holds */
static int
buffer_load(HartView *hv)
{
    PyObject *rb = hv->rb, *value;
    hv->rb_entry = NULL;
    if (load_bool(rb, R.busy, &hv->rb_busy) < 0
            || load_int(rb, R.reg, &hv->rb_reg) < 0
            || load_int(rb, R.ready_at, &hv->rb_ready_at) < 0
            || load_obj(rb, R.tag, NULL, &value) < 0
            || (value != Py_None && read_int(value, &hv->rb_tag) < 0))
        return -1;
    hv->rb_has_tag = value != Py_None;
    if (load_obj(rb, R.value, NULL, &value) < 0
            || (value != Py_None && load_u32(value, &hv->rb_value) < 0)
            || load_obj(rb, R.entry, NULL, &hv->rb_entry_obj) < 0)
        return -1;
    hv->rb_has_value = value != Py_None;
    return 0;
}

/* *rec*'s fields, read from its Entry */
static int
record_read(Window *w, Instr *rec)
{
    int j, flag[2];
    PyObject *entry = rec->obj, *low, *value;
    if (load_int(entry, E.tag, &rec->tag) < 0
            || load_obj(entry, E.low, low_type, &low) < 0
            || load_int(entry, E.pc, &rec->pc) < 0
            || (rec->dec = decode_of(w, rec->pc, low)) == NULL
            || load_int(entry, E.nwaits, &rec->nwaits) < 0
            || load_bool(entry, E.issued, &flag[0]) < 0
            || load_bool(entry, E.done, &flag[1]) < 0)
        return -1;
    rec->issued = (unsigned char)flag[0];
    rec->done = (unsigned char)flag[1];
    for (j = 0; j < 2; j++) {
        if (load_obj(entry, j ? E.val1 : E.val0, NULL, &value) < 0
                || (value != Py_None && load_u32(value, &rec->val[j]) < 0))
            return -1;
        rec->has_val[j] = value != Py_None;
        if (load_obj(entry, j ? E.wait1 : E.wait0, NULL, &value) < 0
                || (value != Py_None && read_int(value, &rec->wait[j]) < 0))
            return -1;
        rec->has_wait[j] = value != Py_None;
    }
    if (load_obj(entry, E.ret_action, NULL, &value) < 0)
        return -1;
    rec->ret_action = value != Py_None ? new_ref(value) : NULL;
    return 0;
}

/* The ring of *hv* (whose rob, it and rb are loaded) from those objects:
 * every Entry of ``rob`` a record read from it that keeps it as its obj,
 * the ones of ``it`` flagged -- in the ROB's order, as rename and issue
 * leave them -- and the buffer's producer found among them. */
static int
window_load(Window *w, HartView *hv)
{
    Py_ssize_t i, j, n = PyList_GET_SIZE(hv->rob), cap;
    PyObject *entry;
    ring_clear(hv);  /* (an earlier load of the call: flushed, let go) */
    for (cap = hv->cap ? hv->cap : 8; cap < n; cap *= 2)
        ;
    if (cap != hv->cap) {
        PyMem_Free(hv->ring);
        hv->cap = 0;
        if ((hv->ring = PyMem_Malloc(cap * sizeof(Instr))) == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        hv->cap = cap;
    }
    for (i = 0; i < n; i++) {
        entry = PyList_GET_ITEM(hv->rob, i);
        if (!PyObject_TypeCheck(entry, entry_type)) {
            wrong_type(entry_type->tp_name);
            return -1;
        }
        hv->ring[i] = (Instr){.obj = new_ref(entry)};
        hv->count = i + 1;  /* what a failure below leaves is released */
        if (record_read(w, &hv->ring[i]) < 0)
            return -1;
    }
    /* ``it`` is the unissued part of ``rob``, in its order */
    for (i = j = 0; i < PyList_GET_SIZE(hv->it); i++) {
        entry = PyList_GET_ITEM(hv->it, i);
        if (!PyObject_TypeCheck(entry, entry_type)) {
            wrong_type(entry_type->tp_name);
            return -1;
        }
        while (j < n && hv->ring[j].obj != entry)
            j++;
        if (j == n) {
            PyErr_SetString(PyExc_TypeError, "compiled tick: an "
                            "instruction-table entry not in the ROB, in its "
                            "order");
            return -1;
        }
        hv->ring[j++].in_it = 1;
    }
    /* the buffer's producer (loaded with it, unchanged since) */
    if ((entry = hv->rb_entry_obj) != Py_None) {
        for (i = 0; i < n && hv->ring[i].obj != entry; i++)
            ;
        if (i == n || hv->ring[i].done) {
            PyErr_SetString(PyExc_TypeError, "compiled tick: the writeback "
                            "buffer's entry is not an undone ROB entry");
            return -1;
        }
        hv->rb_entry = &hv->ring[i];
    }
    return 0;
}

/* ``list[:] = [rec.obj for the records]`` (*it_only*: those still in the
 * instruction table), the list object kept */
static int
list_refill(PyObject *list, const HartView *hv, int it_only)
{
    Py_ssize_t i, n = 0, size = PyList_GET_SIZE(list);
    for (i = 0; i < hv->count; i++) {
        PyObject *entry = AT(hv, i)->obj;
        if (it_only && !AT(hv, i)->in_it)
            continue;
        if (n >= size) {
            if (PyList_Append(list, entry) < 0)
                return -1;
        } else if (PyList_GET_ITEM(list, n) != entry)
            list_set(list, n, entry);
        n++;
    }
    return n < size ? PyList_SetSlice(list, n, size, NULL) : 0;
}

/* What C wrote of *hv*'s registers, into ``regs`` / ``rename`` */
static int
registers_flush(Window *w, HartView *hv)
{
    int r;
    PyObject *boxed;
    for (r = 0; r < 32 && hv->reg_dirty; r++)
        if (hv->reg_dirty >> r & 1) {
            if ((boxed = box(w, hv->regv[r])) == NULL)
                return -1;
            PyList_SetItem(hv->regs, r, boxed);  /* steals */
            hv->reg_dirty &= ~(1u << r);
        }
    for (r = 0; r < 32 && hv->ren_dirty; r++)
        if (hv->ren_dirty >> r & 1) {
            if (!(hv->ren_set >> r & 1))
                list_set(hv->rename, r, Py_None);
            else if ((boxed = box(w, hv->ren[r])) == NULL)
                return -1;
            else
                PyList_SetItem(hv->rename, r, boxed);
            hv->ren_dirty &= ~(1u << r);
        }
    return 0;
}

/* The ring of *hv* back to the objects: every record an Entry holding its
 * fields, ``rob`` / ``it`` their records' Entries, the buffer what C left
 * in it; then the ring lets go. */
static int
window_flush(Window *w, HartView *hv)
{
    Py_ssize_t i;
    unsigned d = hv->rb_dirty;
    PyObject *rb = hv->rb;
    for (i = 0; i < hv->count; i++)
        if (record_store(w, AT(hv, i)) < 0)
            return -1;
    if (hv->reordered) {
        if (list_refill(hv->rob, hv, 0) < 0 || list_refill(hv->it, hv, 1) < 0)
            return -1;
        hv->reordered = 0;
    }
    if (d & RB_BUSY)
        set_bool(rb, R.busy, hv->rb_busy);
    if (d & RB_ENTRY)
        set_obj(rb, R.entry, hv->rb_entry != NULL ? hv->rb_entry->obj
                : Py_None);
    if ((d & RB_TAG && store_opt(w, rb, R.tag, hv->rb_has_tag, hv->rb_tag) < 0)
            || (d & RB_REG && set_box(w, rb, R.reg, hv->rb_reg) < 0)
            || (d & RB_VALUE && store_opt(w, rb, R.value, hv->rb_has_value,
                                          hv->rb_value) < 0)
            || (d & RB_READY
                && flush_int(w, rb, R.ready_at, hv->rb_ready_at) < 0))
        return -1;
    window_release(hv);
    return 0;
}

/* Every ring of the window lets go, and its memory and the cursors' are
 * freed (the views are flushed or given up). */
static void
rings_free(Window *w)
{
    Py_ssize_t i;
    int h;
    /* (a window over no cores has one view all the same) */
    Py_ssize_t n = w->views == NULL ? 0 : w->nviews ? w->nviews : 1;
    for (i = 0; i < n; i++)
        for (h = 0; h < 4; h++) {
            HartView *hv = &w->views[i].h[h];
            if (hv->ring != NULL)
                window_release(hv);
            PyMem_Free(hv->ring);
            hv->ring = NULL;
        }
    for (i = 0; i < BOXES; i++)
        Py_CLEAR(w->boxes[i]);
    decodes_free(w);
    PyMem_Free(w->cursors);
    w->cursors = NULL;
    w->ccap = w->ccount = w->cdirty = 0;
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
    if (d & DIRTY(name)) set_bool(v->core, C.name, v->name);
#define FLUSH_C_INT(name) FLUSH_INT(v->core, C, v, name, v->dirty, DIRTY(name))
#define FLUSH_H_BOOL(name) \
    if (d & DIRTY(name)) set_bool(hv->hart, H.name, hv->name);
#define FLUSH_H_INT(name) FLUSH_INT(hv->hart, H, hv, name, hv->dirty, DIRTY(name))
#define FLUSH_S_INT(name) FLUSH_INT(hv->stats, S, hv, name, hv->dirty, DIRTY(name))
#define FLUSH_K_INT(name) \
    FLUSH_INT(v->counters, K, v, name, v->kdirty, 1u << KBIT_##name)

/* Store every field C wrote since the load in its slot, in bit order (the
 * pc and fetch buffer, flags, ints: a failed box or pair leaves its field
 * and the ones after it dirty). */
static int
view_flush(Window *w, CoreView *v)
{
    int h;
    unsigned d;
    for (h = 0; h < 4; h++) {
        HartView *hv = &v->h[h];
        if (window_flush(w, hv) < 0
                || ((hv->reg_dirty | hv->ren_dirty)
                    && registers_flush(w, hv) < 0))
            return -1;
        if ((d = hv->dirty) == 0)
            continue;
        if (d & DIRTY(pc)
                && store_opt(w, hv->hart, H.pc, hv->has_pc, hv->pc) < 0)
            return -1;
        if (d & DIRTY(fetch_buf)) {
            PyObject *buf = hv->fetch_buf == NULL ? new_ref(Py_None)
                : own_pair(hv->fetch_buf);
            if (buf == NULL) {
                hv->dirty = d & ~DIRTY(pc);
                return -1;
            }
            flush_obj(hv->hart, H.fetch_buf, buf);
        }
        HV_BOOLS(FLUSH_H_BOOL)
        HV_INTS(FLUSH_H_INT)
        STATS_SLOTS(FLUSH_S_INT)
        hv->dirty = 0;
    }
    if ((d = v->dirty) != 0) {
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

/* Flush every view loaded since the last flush, and the ports' cursors. */
static int
views_flush(Window *w)
{
    Py_ssize_t i;
    if (w->cdirty && cursors_flush(w) < 0)
        return -1;
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

static int trace_seen(Window *w);

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
    if (views_flush(w) < 0 || trace_seen(w) < 0)
        return -1;
    w->ntouched = 0;
    w->calls++;
#ifdef TICK_COUNTS
    python_calls++;
#endif
    return publish_now(w);
}

/* Every way out of a call: the views are flushed.  The exception being
 * raised, if any, stays the one raised. */
static int
views_close(Window *w)
{
    Raised first;
    SET_ASIDE(&first);
    if (views_flush(w) < 0 || trace_seen(w) < 0)
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

/* ``obj._buffers``, a new reference to a dict */
static PyObject *
buffers_of(PyObject *obj)
{
    PyObject *buffers = PyObject_GetAttr(obj, s__buffers);
    if (buffers != NULL && !PyDict_Check(buffers)) {
        Py_DECREF(buffers);
        wrong_type("dict of observation buffers");
        return NULL;
    }
    return buffers;
}

/* What the observers record into, read once per call: the trace (an exact
 * Trace; only when it is on) with its buffers and kinds, the sanitizer's
 * buffers.  C records what the Python spelling records, where it does. */
static int
observers(Window *w)
{
    int k, on, has = 1;
    PyObject *trace, *value;
    if ((trace = PyObject_GetAttr(w->machine, s_trace)) == NULL)
        return -1;
    w->trace = trace;  /* (kept when it is on) */
    if (Py_TYPE(trace) != trace_type) {
        PyErr_Format(PyExc_TypeError, "compiled window: machine.trace is a "
                     "%s, not a Trace", Py_TYPE(trace)->tp_name);
        return -1;
    }
    if ((value = PyObject_GetAttr(trace, s_enabled)) == NULL)
        return -1;
    on = PyObject_IsTrue(value);
    Py_DECREF(value);
    if (on < 0)
        return -1;
    if (on) {
        if ((value = PyObject_GetAttr(trace, s_kinds)) == NULL)
            return -1;
        for (k = 0; k < TRACE_COUNT && has >= 0; k++)
            if (value == Py_None
                    || (has = PySequence_Contains(value, *trace_name[k])) > 0)
                w->trace_kinds |= 1u << k;
        Py_DECREF(value);
        if (has < 0 || (w->trace_buffers = buffers_of(trace)) == NULL)
            return -1;
    } else
        Py_CLEAR(w->trace);
    if ((value = PyObject_GetAttr(w->machine, s_sanitizer)) == NULL)
        return -1;
    if (value != Py_None)
        w->san_buffers = buffers_of(value);
    Py_DECREF(value);
    return PyErr_Occurred() ? -1 : 0;
}

/* Python is about to look, or the call returns: ``trace._merged`` is
 * dropped when C recorded since (Trace.record drops it each time). */
static int
trace_seen(Window *w)
{
    if (!w->recorded)
        return 0;
    w->recorded = 0;
    return PyObject_SetAttr(w->trace, s__merged, Py_None);
}

/* May this call of the window take the native memory-access path?  1 yes,
 * 0 no (``mmio`` is no dict: the Python spelling reads it). */
static int
access_context(Window *w)
{
    PyObject *value;
    int status;
    if (w->context)
        return w->context == 1;
    if (observers(w) < 0
            || (w->mmio = PyObject_GetAttr(w->machine, s_mmio)) == NULL)
        return -1;
    if (!PyDict_Check(w->mmio)) {
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

/* May the window spell the tick's call-back sites for the core being
 * ticked?  1 yes; 0 no: no window (Core.tick called on its own) or no
 * context (access_context) -- the call is made. */
static int
window_native(Tick *t)
{
    return t->w->alone ? 0 : access_context(t->w);
}

/* ---- the memory access ------------------------------------------------------------ */

/* Does bank *shared* of *v* (loaded) hold the *width* bytes at *addr*?  1
 * and *at -> the bytes, or 0: not this bank, or not all of them (the
 * Python path reports that). */
static inline int
bank_holds(const CoreView *v, int shared, int64_t addr, int64_t width,
           char **at)
{
    int64_t base = v->bank[shared].base;
    if (addr < base || addr - base + width > v->bank[shared].size)
        return 0;
    *at = v->bank[shared].data + (addr - base);
    return 1;
}

/* 1 when *addr* is a device's (the Python path talks to it) */
static int
is_device(Window *w, int64_t addr)
{
    int found;
    PyObject *key;
    if (!PyDict_GET_SIZE(w->mmio))
        return 0;
    if ((key = PyLong_FromLongLong(addr)) == NULL)
        return -1;
    found = PyDict_Contains(w->mmio, key);
    Py_DECREF(key);
    return found;
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


/* LBP.post of the native kind *kind* with the args *a* from *origin*'s
 * domain to domain *dst*: the key takes the origin's next ``_seq``, and a
 * shard worker diverts an event for a domain it does not own to
 * ``_outbox``. */
static int
post(Window *w, CoreView *origin, int64_t dst, int64_t when, int kind,
     const int64_t *a)
{
    int status = -1, mine = 1;
    int64_t seq;
    PyObject *dst_obj = NULL, *outbox, *tuple;
    Event *event, away;
    if (fresh(w, origin) < 0)
        return -1;
    seq = origin->_seq + 1;
    CSET(origin, _seq, seq);
#ifdef TICK_COUNTS
    posts[kind]++;
#endif
    if (w->owned != Py_None
            && ((dst_obj = PyLong_FromLongLong(dst)) == NULL
                || (mine = PySequence_Contains(w->owned, dst_obj)) < 0))
        goto fail;
    if (mine) {
        if (heap_room(w, 1) < 0)
            goto fail;
        event = &w->heap[w->size];
    } else
        event = &away;
    *event = (Event){when, origin->index, seq, dst, kind, NULL, {0}};
    memcpy(event->a, a, kind_arity[kind] * sizeof(int64_t));
    if (mine) {
        heap_push(w);
        status = 0;
    } else if ((outbox = attr_list(w->machine, s__outbox)) != NULL) {
        tuple = event_out(&away);
        status = tuple == NULL ? -1 : PyList_Append(outbox, tuple);
        Py_XDECREF(tuple);
        Py_DECREF(outbox);
    }
fail:
    Py_XDECREF(dst_obj);
    return status;
}

/* ``hart.stats.stores`` (*store*) or ``loads`` += 1 */
static void
count_access(HartView *hv, int store)
{
    if (store)
        HSET(hv, stores, hv->stores + 1);
    else
        HSET(hv, loads, hv->loads + 1);
}

/* The issue of an access to *addr* in the ticked core's own local bank,
 * or shared one when *shared*, through its port: Port.reserve, the bank
 * event(s) posted to this domain. */
static int
own_access(Tick *t, HartView *hv, Instr *rec, enum access kind, int64_t addr,
           int shared)
{
    Window *w = t->w;
    CoreView *v = t->v;
    const Decode *d = rec->dec;
    int64_t when, stored, ref = REF(shared, v->index);

    /* Port.reserve(now + local_mem_latency) */
    if (reserve(w, v->ports[shared ? PORT_SHARED_LOCAL : PORT_LOCAL],
                t->cycle + w->latency, &when) < 0)
        return -1;
    if (shared)
        KSET(v, local_accesses, v->local_accesses + 1);
    if (kind == ACC_STORE) {
        if (operand(rec, 1, &stored) < 0)
            return -1;
        HSET(hv, outstanding_mem, hv->outstanding_mem + 1);
        if (post(w, v, v->index, when, EV_store_write,
                 ARGS(ref, addr, stored, d->width, v->index, hv->gid,
                      rec->tag)) < 0)
            return -1;
    } else {
        /* the read is done at when + 1: the port's next free cycle */
        rb_occupy(hv, rec);
        HSET(hv, outstanding_mem, hv->outstanding_mem + 1);
        if (post(w, v, v->index, when, EV_load_read,
                 ARGS(ref, addr, d->width, d->mnem, when + 1, v->index,
                      hv->gid)) < 0
                || post(w, v, v->index, when + 1, EV_load_done,
                        ARGS(hv->gid)) < 0)
            return -1;
    }
    return 1;
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
 * has none yet, then its ``Port()``, as LinkScheduler.port makes them.
 * Borrowed from the row. */
static NOINLINE PyObject *
first_port(PyObject *links, PyObject *table, const Hop *hop)
{
    int64_t cores;
    Py_ssize_t i, size;
    PyObject *row = PyList_GET_ITEM(table, hop->code), *port;
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
    if (hop->index < 0 || hop->index >= PyList_GET_SIZE(row)) {
        PyErr_Format(PyExc_ValueError, "no link ('%s', %lld): index "
                     "outside [0, %zd)", link_tags[hop->code],
                     (long long)hop->index, PyList_GET_SIZE(row));
        return NULL;
    }
    if ((port = new_port()) != NULL)
        PyList_SetItem(row, hop->index, port);  /* steals it */
    return port;
fail:
    return NULL;
}

/* The port of link *hop* on the scheduler *links*, whose ``_links`` is
 * *table*: row ``code``, slot ``index``; borrowed. */
static PyObject *
link_port(PyObject *links, PyObject *table, const Hop *hop)
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
        return port;
    return first_port(links, table, hop);
}

/* Metrics.link_wait(index, delay) by *observer*, a metered link
 * scheduler's: router queueing held a path of core *index_obj* up.  The
 * observer is the machine's metrics (LBP._attach_metrics), checked at entry. */
static int
link_wait(Window *w, PyObject *observer, PyObject *index_obj, int64_t delay)
{
    int64_t index;
    PyObject *slot;
    if (observer != w->metrics) {
        PyErr_SetString(PyExc_TypeError, "compiled tick: a link scheduler "
                        "observes other than machine.metrics");
        return -1;
    }
    index = as_int(index_obj);
    if ((index == -1 && PyErr_Occurred())
            || (slot = telemetry(observer, index)) == NULL)
        return -1;
    return add_int(slot, TS.link_wait, delay);
}

/* LinkScheduler.reserve_path(path, start) on the link scheduler of *v*'s
 * core: *out* the cycle the message leaves the last link.  A metered
 * scheduler is told how long the path held the message up
 * (``_metrics.link_wait``). */
static int
reserve_path(Window *w, CoreView *v, const Hop *path, int count,
             int64_t start, int64_t *out)
{
    int i;
    int64_t hop, time = start;
    PyObject *port;
    if (fresh(w, v) < 0 || mem_view(w, v) < 0)
        return -1;
    hop = v->hop_latency;
    for (i = 0; i < count; i++)
        /* Port.reserve(time + hop_latency) */
        if ((port = link_port(v->links, v->link_rows, &path[i])) == NULL
                || reserve(w, port, time + hop, &time) < 0)
            return -1;
    if (v->link_observer != Py_None && count
            && time - (start + hop * count) > 0
            && link_wait(w, v->link_observer, v->link_core,
                         time - (start + hop * count)) < 0)
        return -1;
    *out = time;
    return 0;
}

/* Metrics.remote_issue(index, gid, now, owner) for an access of *hv*'s
 * hart of the ticked core to another core's bank or a CV write to the next
 * core, *rtt* its uncontended round trip -- for a bank access both paths'
 * links, the bank access and the cycle the reply fills in: its completion
 * eta joins the hart's FIFO.  (Not inlined: the
 * unmetered issue stays as compact as it was.) */
static NOINLINE int
remote_issue(Tick *t, HartView *hv, int64_t rtt)
{
    Window *w = t->w;
    int status = -1;
    PyObject *slot, *fifos, *fifo, *eta = NULL, *gid = hv->gid_obj;
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

/* The issue of an access to *addr* in core *owner*'s shared bank: the
 * request crosses the router tree to the owner's domain (rreq_load /
 * rreq_store). */
static int
remote_access(Tick *t, HartView *hv, Instr *rec, enum access kind,
              int64_t addr, int64_t owner)
{
    Window *w = t->w;
    CoreView *v = t->v;
    const Decode *d = rec->dec;
    int count;
    int64_t index = v->index, gid = hv->gid, stored = 0, t_up;
    Hop path[MAX_HOPS], back[MAX_HOPS];

    if (kind == ACC_STORE && operand(rec, 1, &stored) < 0)
        return -1;
    if (kind != ACC_STORE)
        rb_occupy(hv, rec);
    KSET(v, remote_accesses, v->remote_accesses + 1);
    HSET(hv, outstanding_mem, hv->outstanding_mem + 1);
    count = request_path(index, owner, path);
    if ((w->metered
         && remote_issue(t, hv, (count + reply_path(index, owner, back))
                         * w->hop_latency + w->bank_latency + 1) < 0)
            || reserve_path(w, v, path, count, t->cycle, &t_up) < 0
            || (kind == ACC_STORE
                ? post(w, v, owner, t_up, EV_rreq_store,
                       ARGS(index, gid, owner, addr, stored, d->width,
                            rec->tag))
                : post(w, v, owner, t_up, EV_rreq_load,
                       ARGS(index, gid, owner, addr, d->width, d->mnem))) < 0)
        return -1;
    return 1;
}

/* The issue of a LOAD / STORE / p_lwcv by the core being ticked, once
 * window_native said yes.  1: it is an access spelled here and is issued;
 * 0: it is not, nothing is changed and the caller calls Core._execute. */
static int
mem_access(Tick *t, HartView *hv, Instr *rec, enum access kind)
{
    Window *w = t->w;
    CoreView *v = t->v, *home;
    int status, shared = 0;
    int64_t addr, width = rec->dec->width, owner = -1;
    char *at;

    if (kind != ACC_STORE && rec->dec->mnem < 0)
        return 0;  /* no load mnemonic load_value knows: Python's */
    if (kind == ACC_LWCV) {
        /* machine.cv_address: the hart's own CV area, not masked */
        if (hv->index < 0 || hv->index > 3)
            return 0;
        addr = cv_base[hv->index] + rec->dec->imm;
    } else {
        int64_t base;
        GETV(base, rec, 0);
        addr = (base + rec->dec->imm) & MASK32;
    }
    if (fresh(w, v) < 0 || mem_view(w, v) < 0)
        return -1;
    if (!bank_holds(v, 0, addr, width, &at)) {
        if (bank_holds(v, 1, addr, width, &at))
            shared = 1;
        else {
            /* memmap.owner_core_of: another core's shared bank?  (Not
             * the code bank, nothing unmapped, no bytes past the end of
             * this core's own bank: Python reports those.) */
            if (addr < global_base)
                return 0;
            owner = (addr - global_base) / global_bank_size;
            if (owner >= w->num_cores || owner == v->index
                    || owner >= PyList_GET_SIZE(w->cores))
                return 0;
            if ((home = view_at(w, owner)) == NULL
                    || mem_view(w, home) < 0)
                return -1;
            if (!bank_holds(home, 1, addr, width, &at))
                return 0;
        }
    }
    if ((status = is_device(w, addr)) != 0)
        return status < 0 ? -1 : 0;  /* a device's: the Python path's */
    /* what _exec_p_lwcv and schedule_access record of it */
    if ((kind == ACC_LWCV
         && SANITIZE(w, v->index, lwcv, hv->gid, rec->tag, rec->dec->imm) < 0)
            || trace_event(w, kind == ACC_STORE ? T_mem_store_req
                           : T_mem_load_req, v->index, v->index, hv->index, 2,
                           ARGS(addr, owner < 0 ? REF(shared, v->index)
                                : REF(1, owner)), NULL) < 0
            || (addr >= global_base
                && SANITIZE(w, v->index, acc, hv->gid, rec->tag, addr, width,
                            kind == ACC_STORE, rec->pc) < 0))
        return -1;
    if ((owner < 0 ? own_access(t, hv, rec, kind, addr, shared)
         : remote_access(t, hv, rec, kind, addr, owner)) < 0)
        return -1;
    if (kind != ACC_LWCV)
        count_access(hv, kind == ACC_STORE);
    return 1;
fail:
    return -1;
}

/* ---- the memory-access event kinds (NATIVE_KINDS) ---------------------------------- */

/* hart *gid* of this machine: the view of its core and its part of it;
 * 0: no such hart */
static int
hart_of(Window *w, int64_t gid, CoreView **v, HartView **hv)
{
    if (gid < 0 || (gid >> 2) >= PyList_GET_SIZE(w->cores))
        return 0;
    if ((*v = view_at(w, gid >> 2)) == NULL)
        return -1;
    *hv = &(*v)->h[gid & 3];
    return 1;
}

/* *value* when it is in [0, bound), or -1 (the Python handler deals with
 * anything else) */
static inline int64_t
index_in(int64_t value, Py_ssize_t bound)
{
    return value >= 0 && value < bound ? value : -1;
}

/* The bytes core *index*'s local bank, or shared one when *shared*, holds
 * at *addr*, *width* wide: 1 and *at, or 0 (no such core, a device's
 * address, out of range...). */
static int
bank_bytes(Window *w, int64_t index, int shared, int64_t addr, int64_t width,
           char **at)
{
    int status;
    CoreView *v;
    if (index_in(index, PyList_GET_SIZE(w->cores)) < 0
            || (width != 1 && width != 2 && width != 4))
        return 0;
    if ((v = view_at(w, index)) == NULL || mem_view(w, v) < 0)
        return -1;
    if (!bank_holds(v, shared, addr, width, at))
        return 0;
    if ((status = is_device(w, addr)) != 0)
        return status < 0 ? -1 : 0;
    return 1;
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

/* Bank.write: the low *width* bytes of *value*, little-endian */
static void
write_bytes(char *at, int64_t value, int64_t width)
{
    for (; width--; value = (int64_t)((uint64_t)value >> 8))
        *at++ = (char)(value & 0xFF);
}

/* isa/semantics.py's load_value for the mnemonic *mnem* (a MNEMONICS
 * position): lb and lh sign-extend, every other one keeps the low 32
 * bits */
static uint32_t
load_value(int64_t mnem, uint32_t raw)
{
    uint32_t bits = mnemonic_bits[mnem];
    if (bits && raw & (1u << (bits - 1)))
        raw -= 1u << bits;
    return raw;
}

/* ResultBuffer.fill(value, ready_at) on *hv*'s hart, of core *v* */
static void
fill(CoreView *v, HartView *hv, uint32_t value, int64_t ready_at)
{
    rb_fill(hv, value, ready_at);
    lower_wb_wake(v, ready_at);
}

/* ``machine.metrics.remote_done(src, gid)`` on a metered machine, *hv*
 * the hart *gid*: the oldest eta of the hart's FIFO goes.  (An empty or
 * missing FIFO is a machine resumed from an unmetered snapshot: nothing to
 * pop.) */
static int
remote_done(Window *w, int64_t src, int64_t gid, const HartView *hv)
{
    int status = -1;
    PyObject *slot, *fifos, *fifo, *gid_obj;
    if (!w->metered)
        return 0;
    if ((slot = telemetry(w->metrics, src)) == NULL)
        return -1;
    GETO(fifos, slot, TS.remote_inflight);
    if (!PyDict_Check(fifos)) {
        wrong_type("dict of remote etas");
        return -1;
    }
    /* (the hart's own object, as a rule: no box) */
    if ((gid_obj = hv->gid == gid ? new_ref(hv->gid_obj)
         : PyLong_FromLongLong(gid)) == NULL)
        return -1;
    if ((fifo = PyDict_GetItemWithError(fifos, gid_obj)) == NULL
            || fifo == Py_None)
        status = PyErr_Occurred() ? -1 : 0;
    else if (!PyList_Check(fifo))
        wrong_type("list of remote etas");
    else {
        if (PyList_GET_SIZE(fifo))
            Py_DECREF(list_take(fifo, 0));
        status = 0;
    }
    Py_DECREF(gid_obj);
    return status;
fail:
    return -1;
}

/* _ev_load_read(bank_ref, addr, width, mnemonic, t_done, core_index,
 * hart_gid): the bank-side read fills the hart's writeback buffer */
static int
ev_load_read(Window *w, CoreView *Py_UNUSED(domain), const Event *event)
{
    const int64_t *a = event->a;
    int status;
    uint32_t value;
    char *at;
    CoreView *v;
    HartView *hv;
    if ((status = bank_bytes(w, REF_CORE(a[0]), REF_SHARED(a[0]), a[1], a[2],
                             &at)) <= 0
            || (status = hart_of(w, a[6], &v, &hv)) <= 0)
        return status;
    value = load_value(a[3], read_bytes(at, a[2]));
    fill(v, hv, value, a[4]);
    return TRACE_INTS(w, mem_load, a[5], a[5], hv->index, a[1], value) < 0
        ? -1 : 1;
}

/* _ev_load_done(hart_gid) */
static int
ev_load_done(Window *w, CoreView *Py_UNUSED(domain), const Event *event)
{
    int status;
    CoreView *v;
    HartView *hv;
    if ((status = hart_of(w, event->a[0], &v, &hv)) <= 0)
        return status;
    HSET(hv, outstanding_mem, hv->outstanding_mem - 1);
    return 1;
}

/* _ev_store_write(bank_ref, addr, value, width, core_index, hart_gid, tag):
 * the bank-side write completes the store's ROB entry */
static int
ev_store_write(Window *w, CoreView *Py_UNUSED(domain), const Event *event)
{
    const int64_t *a = event->a;
    int status;
    char *at;
    CoreView *v;
    HartView *hv;
    Instr *rec;
    if ((status = bank_bytes(w, REF_CORE(a[0]), REF_SHARED(a[0]), a[1], a[3],
                             &at)) <= 0
            || (status = hart_of(w, a[5], &v, &hv)) <= 0
            || (status = ring_find(hv, a[6], &rec)) <= 0)
        return status;
    write_bytes(at, a[2], a[3]);
    HSET(hv, outstanding_mem, hv->outstanding_mem - 1);
    ISET(rec, done, 1, D_DONE);
    return TRACE_INTS(w, mem_store, a[4], a[4], hv->index, a[1],
                      a[2] & MASK32) < 0 ? -1 : 1;
}

/* The arrival of a request (src, hart_gid, owner, ...) at the owner's router
 * port, common to rreq_load and rreq_store: *src* and *owner*, the bank slot
 * *t_bank* and the cycle *t_back* the reply, reserved from it, leaves its
 * last link. */
static int
arrive(Window *w, const int64_t *a, int64_t *src, int64_t *owner,
       int64_t *t_bank, int64_t *t_back)
{
    int count;
    Hop path[MAX_HOPS];
    CoreView *v;
    if ((*src = index_in(a[0], PyList_GET_SIZE(w->cores))) < 0
            || (*owner = index_in(a[2], PyList_GET_SIZE(w->cores))) < 0)
        return 0;
    /* shared_router_port.reserve(now + bank_access_latency) */
    if ((v = view_at(w, *owner)) == NULL || mem_view(w, v) < 0
            || reserve(w, v->ports[PORT_SHARED_ROUTER],
                       w->cycle + w->bank_latency, t_bank) < 0)
        return -1;
    count = reply_path(*src, *owner, path);
    return reserve_path(w, v, path, count, *t_bank, t_back) < 0 ? -1 : 1;
}

/* _ev_rreq_load(src, hart_gid, owner, addr, width, mnemonic): the bank read
 * is booked, and with it the reply's way back */
static int
ev_rreq_load(Window *w, CoreView *domain, const Event *event)
{
    const int64_t *a = event->a;
    int status;
    int64_t src, owner, t_bank, t_back;
    if ((status = arrive(w, a, &src, &owner, &t_bank, &t_back)) <= 0)
        return status;
    return post(w, domain, owner, t_bank, EV_bank_read,
                ARGS(a[0], a[1], a[2], a[3], a[4], a[5], t_back + 1)) < 0
        ? -1 : 1;
}

/* _ev_bank_read(src, hart_gid, owner, addr, width, mnemonic, t_done): the
 * owner's bank is read, the value travels back as rrep_load */
static int
ev_bank_read(Window *w, CoreView *domain, const Event *event)
{
    const int64_t *a = event->a;
    int status;
    char *at;
    if (index_in(a[0], PyList_GET_SIZE(w->cores)) < 0 || a[6] < 0)
        return 0;
    if ((status = bank_bytes(w, a[2], 1, a[3], a[4], &at)) <= 0)
        return status;
    return post(w, domain, a[0], a[6], EV_rrep_load,
                ARGS(a[0], a[1], a[3], load_value(a[5], read_bytes(at, a[4]))))
        < 0 ? -1 : 1;
}

/* _ev_rrep_load(src, hart_gid, addr, value): the reply fills the hart's
 * writeback buffer, ready now */
static int
ev_rrep_load(Window *w, CoreView *Py_UNUSED(domain), const Event *event)
{
    const int64_t *a = event->a;
    int status;
    CoreView *v;
    HartView *hv;
    if ((status = hart_of(w, a[1], &v, &hv)) <= 0)
        return status;
    fill(v, hv, (uint32_t)a[3], w->cycle);
    HSET(hv, outstanding_mem, hv->outstanding_mem - 1);
    return remote_done(w, a[0], a[1], hv) < 0
        || TRACE_INTS(w, mem_load, a[0], a[0], hv->index, a[2],
                      (uint32_t)a[3]) < 0 ? -1 : 1;
}

/* _ev_rreq_store(src, hart_gid, owner, addr, value, width, tag): the bank
 * write is booked, and the ack's way back */
static int
ev_rreq_store(Window *w, CoreView *domain, const Event *event)
{
    const int64_t *a = event->a;
    int status;
    int64_t src, owner, t_bank, t_back;
    if ((status = arrive(w, a, &src, &owner, &t_bank, &t_back)) <= 0)
        return status;
    if (post(w, domain, owner, t_bank, EV_bank_write,
             ARGS(a[2], a[3], a[4], a[5])) < 0
            || post(w, domain, src, t_back + 1, EV_rack_store,
                    ARGS(a[0], a[1], a[3], a[4], a[6])) < 0)
        return -1;
    return 1;
}

/* _ev_bank_write(owner, addr, value, width) */
static int
ev_bank_write(Window *w, CoreView *Py_UNUSED(domain), const Event *event)
{
    const int64_t *a = event->a;
    int status;
    char *at;
    if ((status = bank_bytes(w, a[0], 1, a[1], a[3], &at)) <= 0)
        return status;
    write_bytes(at, a[2], a[3]);
    return 1;
}

/* _remote_done(src, hart_gid, tag) of an ack: the store or CV write of that
 * ROB entry completes, and is traced as *kind* with the two or three
 * ints *a* */
static int
remote_ack(Window *w, int64_t src, int64_t gid, int64_t tag, int kind, int n,
           const int64_t *a)
{
    int status;
    CoreView *v;
    HartView *hv;
    Instr *rec;
    if ((status = hart_of(w, gid, &v, &hv)) <= 0
            || (status = ring_find(hv, tag, &rec)) <= 0)
        return status;
    HSET(hv, outstanding_mem, hv->outstanding_mem - 1);
    if (remote_done(w, src, gid, hv) < 0)
        return -1;
    ISET(rec, done, 1, D_DONE);
    return trace_event(w, kind, src, src, hv->index, n, a, NULL) < 0 ? -1 : 1;
}

/* _ev_rack_store(src, hart_gid, addr, value, tag): the owner wrote */
static int
ev_rack_store(Window *w, CoreView *Py_UNUSED(domain), const Event *event)
{
    const int64_t *a = event->a;
    return remote_ack(w, a[0], a[1], a[4], T_mem_store, 2,
                      ARGS(a[2], a[3] & MASK32));
}

/* ---- the idle settlement ------------------------------------------------------------ */

/* Core.settle_idle(now), compiled: the gated-off cycles [idle_since, now)
 * of the core of *v* are charged in one step -- ``skipped_cycles``, the
 * gated-idle charge, then ``idle_since`` -- by a window before an event
 * runs in a gated core's domain, or for a call from Python.  (A
 * ReferenceCore has the Python one, reference.py.) */
static int
settle(Window *w, CoreView *v, int64_t now)
{
    int status;
    int64_t since;
    PyObject *index_obj;
    if (fresh(w, v) < 0)
        return -1;
    if (now - (since = v->idle_since) <= 0)
        return 0;
    if (w->metrics == NULL   /* a settlement called from Python */
            && (w->metrics = machine_metrics(w->machine)) == NULL)
        return -1;
    KSET(v, skipped_cycles, v->skipped_cycles + now - since);
    if (w->metrics != Py_None) {
        index_obj = new_ref(v->index_obj);  /* held across _emit */
        status = charge_idle(w, w->metrics, index_obj, since, now - since);
        Py_DECREF(index_obj);
        if (status < 0 || fresh(w, v) < 0)
            return -1;
    }
    CSET(v, idle_since, now);
    return 0;
}

/* ---- the team protocol --------------------------------------------------------------
 * The X_PAR messages (p_fc / p_fn forks and the fork token, p_swcv,
 * p_swre / p_lwre, the start pc of p_jal / p_jalr), the p_ret commit and
 * the eleven event kinds they post: processor.py's and core.py's
 * spelling, step for step, with its trace and sanitizer records.  A step
 * is spelled here only when the window may (window_native), and only when
 * it is one the Python spelling carries out without an error: every check
 * that spelling words as a machine error (or raises on) is made first, and
 * a step that fails one is handed to Python before anything has changed. */

/* Hart.is_free */
static int
is_free(const HartView *hv)
{
    int flag;
    if (hv->has_pc || hv->reserved)
        return 0;
    GETB(flag, hv->hart, H.waiting_join);
    /* (``it`` is part of the ROB) */
    return !flag && hv->fetch_buf == NULL && hv->count == 0
        && !hv->rb_busy;
fail:
    return -1;
}

/* Core.alloc_free_hart over the harts of *v*: the index of the lowest free
 * one, 4 when none is */
static int
free_hart(const CoreView *v)
{
    int h, found;
    for (h = 0; h < 4; h++) {
        if ((found = is_free(&v->h[h])) < 0)
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

/* 1 and *a*: the head of the queue *queue* is a parked p_swre delivery's
 * descriptor, a tuple of six ints, typed; 0 when it is not */
static int
desc_in(PyObject *queue, int64_t *a)
{
    PyObject *desc = PyList_GET_ITEM(queue, 0);
    return PyTuple_Check(desc)
        && args_in(((PyTupleObject *)desc)->ob_item, PyTuple_GET_SIZE(desc),
                   "iiiiii", a);
}

/* Can wake_re_waiters run on *hv*'s hart for *slot* (every slot when -1)?
 * Each queue a list, each queue's head a descriptor (desc_in); 0 when not
 * (the Python spelling deals with it). */
static int
waiters_ok(const HartView *hv, int64_t slot)
{
    Py_ssize_t i, end;
    int64_t a[MAX_ARGS];
    PyObject *lists, *queue;
    GETO(lists, hv->hart, H.re_waiters);
    if (!PyList_Check(lists) || slot >= PyList_GET_SIZE(lists))
        return 0;
    end = slot < 0 ? PyList_GET_SIZE(lists) : slot + 1;
    for (i = slot < 0 ? 0 : slot; i < end; i++) {
        queue = PyList_GET_ITEM(lists, i);
        if (!PyList_Check(queue))
            return 0;
        if (PyList_GET_SIZE(queue) && !desc_in(queue, a))
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
    Py_ssize_t i, end;
    int64_t a[MAX_ARGS];
    PyObject *lists, *queue;
    GETO(lists, hv->hart, H.re_waiters);
    end = slot < 0 ? PyList_GET_SIZE(lists) : slot + 1;
    for (i = slot < 0 ? 0 : slot; i < end; i++) {
        queue = PyList_GET_ITEM(lists, i);
        if (!PyList_GET_SIZE(queue))
            continue;
        desc_in(queue, a);  /* ``tuple(desc) + (True,)`` */
        a[6] = 1;
        Py_DECREF(list_take(queue, 0));
        if (post(w, v, v->index, w->cycle + 1, EV_re_deliver, a) < 0)
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
    uint32_t sp;
    PyObject *buffers, *list;
    GETLIST(buffers, hv->hart, H.re_buffers);
    if (hv->index < 0 || hv->index > 3 || reg_read(hv, 2, &sp) < 0) {
        if (!PyErr_Occurred())
            wrong_type("hart of index 0-3");
        goto fail;
    }
    HSET(hv, reserved, 1);
    if ((list = none_list(32)) == NULL)
        goto fail;
    view_set_rename(hv, list);
    Py_DECREF(list);
    reg_write(hv, 2, (uint32_t)cv_base[hv->index]);
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
    if (v->active)
        return 0;
    if (settle(w, v, w->cycle) < 0
            || (w->calls != w->seen && refresh(w) < 0)
            || fresh(w, v) < 0)
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
hart_start(Window *w, CoreView *v, HartView *hv, int64_t pc)
{
    HSET_PC(hv, 1, pc);
    HSET(hv, reserved, 0);
    set_bool(hv->hart, H.waiting_join, 0);
    HSET(hv, awaiting_nextpc, 0);
    HSET(hv, syncm_block, 0);
    HSET(hv, fetch_ready_at, w->cycle + 1);
    HSET(hv, fetch_ok, hv->fetch_buf == NULL);
    return activate(w, v);
}

/* Hart.end() */
static void
hart_end(HartView *hv)
{
    HSET_PC(hv, 0, 0);
    HSET(hv, awaiting_nextpc, 0);
    HSET(hv, syncm_block, 0);
    HSET(hv, reserved, 0);
    set_bool(hv->hart, H.waiting_join, 0);
    HSET(hv, fetch_ok, 0);
}

/* links.reserve_path(forward_links(src, dst), start) on the links of
 * *v*'s core, src, for *dst* src or src + 1 (the caller checked) */
static int
reserve_forward(Window *w, CoreView *v, int64_t src, int64_t dst,
                int64_t start, int64_t *out)
{
    Hop hop = {LINK_fwd, src};
    return reserve_path(w, v, &hop, dst != src, start, out);
}

/* links.reserve_path(backward_links(src, dst), start) on the links of
 * *v*'s core, src, for *dst* <= src (the caller checked): the line
 * ``("bwd", src)`` down to dst + 1 */
static int
reserve_backward(Window *w, CoreView *v, int64_t src, int64_t dst,
                 int64_t start, int64_t *out)
{
    int status;
    int64_t i, count = src - dst;
    /* (set: reserve_path reads none of a path of no hops, which gcc -O2
     * cannot tell) */
    Hop near[MAX_HOPS] = {{0, 0}}, *path = near;
    if (count > MAX_HOPS
            && (path = PyMem_Malloc(count * sizeof(Hop))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (i = 0; i < count; i++)
        path[i] = (Hop){LINK_bwd, src - i};
    status = reserve_path(w, v, path, (int)count, start, out);
    if (path != near)
        PyMem_Free(path);
    return status;
}

/* The args *a* posted as *kind* from the domain of *v* to core *dst*, one
 * cycle after its path *forward* (or back) from v's core to dst is free. */
static int
send_along(Window *w, CoreView *v, int64_t dst, int forward, int kind,
           const int64_t *a)
{
    int64_t when, index = v->index;
    if ((forward ? reserve_forward(w, v, index, dst, w->cycle, &when)
         : reserve_backward(w, v, index, dst, w->cycle, &when)) < 0)
        return -1;
    return post(w, v, dst, when + 1, kind, a);
}

/* LBP.grant_fork(core, child, src, parent): *child* (a hart of domain
 * *v*) is allocated to hart *parent* of core *src* (no later core than
 * this one: the caller checked), its token sent along the backward line.
 * waiters_ok(child) said yes. */
static int
grant_fork(Window *w, CoreView *v, HartView *child, int64_t src,
           int64_t parent)
{
    int status;
    int64_t gid = child->gid;
    PyObject *parent_obj = PyLong_FromLongLong(parent);
    if (parent_obj == NULL)
        return -1;
    status = reserve_for_fork(child, parent_obj);
    Py_DECREF(parent_obj);
    if (status < 0 || wake_re_waiters(w, v, child, -1) < 0)
        return -1;
    return send_along(w, v, src, 0, EV_fork_grant, ARGS(parent, gid));
}

/* core._fork, the tail p_fc and p_fn share: hart *target* (an int) is
 * *hv*'s successor and the instruction's result */
static int
fork_to(Tick *t, HartView *hv, Instr *rec, PyObject *target)
{
    uint32_t gid;
    CoreView *v = t->v;
    if (low32(target, &gid) < 0)
        return -1;
    set_obj(hv->hart, H.succ, target);
    HSET(hv, forks, hv->forks + 1);
    KSET(v, forks, v->forks + 1);
    if (TRACE_INTS(t->w, fork, v->index, v->index, hv->index, gid) < 0
            || SANITIZE(t->w, v->index, fork, hv->gid, rec->tag, gid) < 0)
        return -1;
    return finish_at(t, hv, rec, gid, t->cycle + 1) < 0 ? -1 : 1;
}

/* _exec_p_fc: the lowest free hart of this core is allocated */
static int
exec_p_fc(Tick *t, HartView *hv, Instr *rec)
{
    int h, ok;
    HartView *target;
    if ((h = free_hart(t->v)) < 0)
        return -1;
    if (h == 4)
        return 0;  /* none (issue checked there was): Python raises */
    target = &t->v->h[h];
    if ((ok = waiters_ok(target, -1)) <= 0)
        return ok;
    if (reserve_for_fork(target, hv->gid_obj) < 0
            || wake_re_waiters(t->w, t->v, target, -1) < 0)
        return -1;
    return fork_to(t, hv, rec, target->gid_obj);
}

/* _exec_p_fn: the oldest fork token granted by the next core */
static int
exec_p_fn(Tick *t, HartView *hv, Instr *rec)
{
    int status;
    PyObject *tokens, *token;
    GETLIST(tokens, hv->hart, H.fork_tokens);
    if (!PyList_GET_SIZE(tokens) || !PyLong_Check(PyList_GET_ITEM(tokens, 0)))
        return 0;  /* none (issue checked there was): Python raises */
    token = list_take(tokens, 0);
    status = fork_to(t, hv, rec, token);
    Py_DECREF(token);
    return status;
fail:
    return -1;
}

/* LBP.schedule_cv_write: p_swcv into hart ``rs1 & 0xFFFF``'s CV area, on
 * this core (one cv_write event) or over the forward link to the next
 * (rreq_cv); any other hart is an error Python words */
static int
exec_p_swcv(Tick *t, HartView *hv, Instr *rec)
{
    Window *w = t->w;
    CoreView *v = t->v;
    int64_t index = v->index, gid = hv->gid, target, dst, offset, when;
    int64_t stored;
    GETV(target, rec, 0);
    target &= 0xFFFF;
    dst = target >> 2;
    if (dst >= PyList_GET_SIZE(w->cores) || (dst != index && dst != index + 1))
        return 0;
    GETV(stored, rec, 1);
    offset = rec->dec->imm;
    if (SANITIZE(w, index, swcv, gid, rec->tag, target, offset) < 0)
        return -1;
    if (dst == index) {
        /* local_port.reserve(now + cv_write_latency) */
        if (mem_view(w, v) < 0
                || reserve(w, v->ports[PORT_LOCAL], t->cycle + w->cv_latency,
                           &when) < 0)
            return -1;
        HSET(hv, outstanding_mem, hv->outstanding_mem + 1);
        return post(w, v, index, when, EV_cv_write,
                    ARGS(index, cv_base[target & 3] + offset, stored, index,
                         gid, target, offset, rec->tag)) < 0 ? -1 : 1;
    }
    if ((w->metered
         && remote_issue(t, hv, 2 * w->hop_latency + w->cv_latency + 1) < 0)
            || reserve_forward(w, v, index, dst, t->cycle, &when) < 0)
        return -1;
    HSET(hv, outstanding_mem, hv->outstanding_mem + 1);
    return post(w, v, dst, when + w->cv_latency, EV_rreq_cv,
                ARGS(index, gid, target, offset, stored, rec->tag)) < 0
        ? -1 : 1;
fail:
    return -1;
}

/* LBP.schedule_re_send: p_swre to result buffer ``imm % buffers`` of hart
 * ``rs1 & 0xFFFF`` on this core or an earlier one, along the backward line;
 * a later core is an error Python words */
static int
exec_p_swre(Tick *t, HartView *hv, Instr *rec)
{
    Window *w = t->w;
    int64_t target = 0, dst, slot, stored = 0;  /* (0: see decide_p_ret) */
    GETV(target, rec, 0);
    target &= 0xFFFF;
    dst = target >> 2;
    if (dst >= PyList_GET_SIZE(w->cores) || dst > t->v->index
            || w->result_buffers < 1)
        return 0;
    slot = rec->dec->imm % w->result_buffers;  /* Python's %: never < 0 */
    if (slot < 0)
        slot += w->result_buffers;
    GETV(stored, rec, 1);
    if (SANITIZE(w, t->v->index, swre, hv->gid, rec->tag, target, slot) < 0)
        return -1;
    return send_along(w, t->v, dst, 0, EV_re_deliver,
                      ARGS(t->v->index, hv->gid, target, slot, stored,
                           rec->tag, 0)) < 0 ? -1 : 1;
fail:
    return -1;
}

/* _exec_p_lwre: the hart takes its filled result buffer, which a parked
 * delivery may refill */
static int
exec_p_lwre(Tick *t, HartView *hv, Instr *rec)
{
    int ok;
    uint32_t bits;
    int64_t slot = rec->dec->re_slot;
    PyObject *buffers, *value;
    GETLIST(buffers, hv->hart, H.re_buffers);
    if (slot < 0 || slot >= PyList_GET_SIZE(buffers)
            || !PyLong_Check(value = PyList_GET_ITEM(buffers, slot)))
        return 0;
    if ((ok = waiters_ok(hv, slot)) <= 0)
        return ok;
    if (low32(value, &bits) < 0 || list_set(buffers, slot, Py_None) < 0
            || SANITIZE(t->w, t->v->index, lwre, hv->gid, rec->tag, slot) < 0
            || wake_re_waiters(t->w, t->v, hv, slot) < 0
            || finish_at(t, hv, rec, bits, t->cycle + 1) < 0)
        goto fail;
    return 1;
fail:
    return -1;
}

/* LBP.send_start_pc for p_jal / p_jalr: hart ``rs1 & 0xFFFF``, on this
 * core or the next, starts at pc + 4.  0: another hart (Python words it). */
static int
send_start_pc(Tick *t, const HartView *hv, const Instr *rec)
{
    int64_t index = t->v->index, target, dst;
    GETV(target, rec, 0);
    target &= 0xFFFF;
    dst = target >> 2;
    if (dst >= PyList_GET_SIZE(t->w->cores)
            || (dst != index && dst != index + 1))
        return 0;
    if (SANITIZE(t->w, index, jsend, hv->gid, rec->tag, target) < 0)
        return -1;
    return send_along(t->w, t->v, dst, 1, EV_start_pc,
                      ARGS(target, rec->pc + 4)) < 0 ? -1 : 1;
fail:
    return -1;
}

/* _exec_p_jal / _exec_p_jalr (its non-p_ret form): the start pc goes, rd
 * gets 0, and p_jalr resumes fetch at rs2 */
static int
exec_p_jal(Tick *t, HartView *hv, Instr *rec, int register_target)
{
    int sent;
    int64_t target = 0;
    if (register_target)
        GETV(target, rec, 1);
    if ((sent = send_start_pc(t, hv, rec)) <= 0)
        return sent;
    if (register_target)
        resolve_pc(t, hv, target & 0xFFFFFFFE);
    if (finish_at(t, hv, rec, 0, t->cycle + 1) < 0)
        goto fail;
    return 1;
fail:
    return -1;
}

/* The execute step of an X_PAR message class, once window_native said
 * yes: 1 issued, 0 not one spelled here (Core._execute is called), -1 */
static int
team_execute(Tick *t, HartView *hv, Instr *rec, int64_t cls)
{
    if (cls == cls_p_swcv)
        return exec_p_swcv(t, hv, rec);
    if (cls == cls_p_jalr)
        return exec_p_jal(t, hv, rec, 1);
    if (cls == cls_p_fc)
        return exec_p_fc(t, hv, rec);
    if (cls == cls_p_jal)
        return exec_p_jal(t, hv, rec, 0);
    if (cls == cls_p_fn)
        return exec_p_fn(t, hv, rec);
    if (cls == cls_p_swre)
        return exec_p_swre(t, hv, rec);
    if (cls == cls_p_lwre)
        return exec_p_lwre(t, hv, rec);
    return 0;
}

/* LBP.send_fork_req at the decode of a p_fn: the next core is asked for a
 * hart.  Past the last core, or not spelled here, the Python call. */
static int
send_fork_req(Tick *t, HartView *hv)
{
    int native;
    int64_t index = t->v->index;
    if ((native = window_native(t)) < 0)
        return -1;
    if (native && index + 1 < PyList_GET_SIZE(t->w->cores))
        return send_along(t->w, t->v, index + 1, 1, EV_fork_req,
                          ARGS(index + 1, index, hv->gid));
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

/* 1 and the head of the fork queue *queue* (non-empty), typed in *a*,
 * when it is a request the grant can serve: ``(src, parent)``, ints, src a
 * core no later than *index*; 0 when it is not */
static int
request_in(PyObject *queue, int64_t index, int64_t *a)
{
    PyObject *request = PyList_GET_ITEM(queue, 0);
    return PyTuple_Check(request)
        && args_in(((PyTupleObject *)request)->ob_item,
                   PyTuple_GET_SIZE(request), "ii", a)
        && index_in(a[0], index + 1) >= 0;
}

/* Is the head of *v*'s core's fork queue a request the grant can serve
 * (request_in), and may each of its harts be the child?  1 yes (or an
 * empty queue), 0 no. */
static int
fork_queue_ok(const CoreView *v)
{
    int h, ok;
    int64_t a[2];
    PyObject *queue;
    GETLIST(queue, v->core, C.fork_queue);
    if (!PyList_GET_SIZE(queue))
        return 1;
    if (!request_in(queue, v->index, a))
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
    int h;
    int64_t a[2];
    PyObject *queue;
    GETLIST(queue, v->core, C.fork_queue);
    if (!PyList_GET_SIZE(queue))
        return 0;
    if ((h = free_hart(v)) < 0)
        return -1;
    if (h == 4)
        return 0;
    request_in(queue, v->index, a);
    Py_DECREF(list_take(queue, 0));
    return grant_fork(w, v, &v->h[h], a[0], a[1]);
fail:
    return -1;
}

/* Core._commit_p_ret: the committed p_ret *head* (out of the ring: the
 * record is retired here) of *hv*'s hart consumes its predecessor link,
 * sends the ending signal to its successor and ends, waits, joins or exits;
 * a queued p_fn request may take the freed hart.  The Python call, given
 * the record's Entry, when not spelled here. */
static int
commit_p_ret(Tick *t, HartView *hv, Instr *head)
{
    Window *w = t->w;
    CoreView *v = t->v;
    int native, kind, step, status = -1;
    int64_t index = v->index, gid = hv->gid, succ = -1, joiner = -1, cores;
    int64_t addr = 0, tag = head->tag;  /* (addr: a join's or wait's pc) */
    PyObject *action = head->ret_action, *succ_obj, *pred, *pending, *entry;
    if ((native = window_native(t)) <= 0)
        goto python;
    /* every check the Python spelling could fail, before anything */
    cores = PyList_GET_SIZE(w->cores);
    if (!PyTuple_Check(action) || PyTuple_GET_SIZE(action) != 3
            || (kind = action_kind(PyTuple_GET_ITEM(action, 0))) < 0)
        goto python;
    GETO(succ_obj, hv->hart, H.succ);
    if (succ_obj != Py_None
            && (!small_int(succ_obj, &succ)
                || index_in(succ, 4 * cores) < 0
                || (succ >> 2 != index && succ >> 2 != index + 1)))
        goto python;
    if (kind == ACT_JOIN
            && (!small_int(PyTuple_GET_ITEM(action, 1), &joiner)
                || !exact_int(PyTuple_GET_ITEM(action, 2), &addr)
                || (joiner != gid
                    && (joiner < 0 || joiner >> 2 >= cores
                        || joiner >> 2 > index))))
        goto python;
    /* a wait resumes at once at a join that came first */
    pending = kind == ACT_WAIT ? SLOT(hv->hart, H.pending_join) : NULL;
    if (pending == Py_None)
        pending = NULL;
    if (pending != NULL && !exact_int(pending, &addr))
        goto python;
    if ((native = fork_queue_ok(v)) <= 0)
        goto python;
    /* the predecessor's signal is received before ours is sent */
    GETO(pred, hv->hart, H.pred);
    if (trace_event(w, T_p_ret, index, index, hv->index, -1, NULL,
                    PyTuple_GET_ITEM(action, 0)) < 0
            || (pred != Py_None && SANITIZE(w, index, pred, gid, tag) < 0)
            || (succ >= 0 && SANITIZE(w, index, esig, gid, tag, succ) < 0))
        goto fail;
    Py_INCREF(action);
    if (record_retire(w, head) < 0)
        goto release;
    set_none(hv->hart, H.pred);
    HSET(hv, pred_done, 0);
    if (succ >= 0) {
        /* LBP.send_ending_signal */
        if (send_along(w, v, succ >> 2, 1, EV_ending_signal,
                       ARGS(index, hv->index, succ)) < 0)
            goto release;
        set_none(hv->hart, H.succ);
    }
    if (kind == ACT_WAIT) {
        HSET_PC(hv, 0, 0);
        set_bool(hv->hart, H.waiting_join, 1);
        if (pending != NULL) {
            set_none(hv->hart, H.pending_join);
            if (SANITIZE(w, index, jrecv, gid, tag) < 0
                    || hart_start(w, v, hv, addr) < 0)
                goto release;
        }
    } else if (kind != ACT_EXIT) {
        hart_end(hv);
        if (kind == ACT_JOIN) {
            KSET(v, joins, v->joins + 1);
            if (joiner == gid)  /* a one-member team: the join hart resumes */
                step = hart_start(w, v, hv, addr);
            else if ((step = SANITIZE(w, index, jretsend, gid, tag,
                                      joiner)) == 0)  /* LBP.send_join */
                step = send_along(w, v, joiner >> 2, 0, EV_join,
                                  ARGS(joiner, addr));
            if (step < 0)
                goto release;
        }
    }
    /* after the restarts above, so a self-resuming hart is never stolen;
     * the halt last, its one call into Python changing nothing here */
    if (grant_queued(w, v) < 0
            || (kind == ACT_EXIT
                && called(callback(w, t->machine, s_halt, s_exit, NULL,
                                   NULL)) < 0))
        goto release;
    status = 0;
release:
    Py_DECREF(action);
    return status;
fail:
    record_retire(w, head);
    return -1;
python:
    if (native < 0 || (entry = record_entry(w, head)) == NULL) {
        record_retire(w, head);
        return -1;
    }
    if (record_retire(w, head) < 0)
        status = -1;
    else
        status = called(callback(w, t->core, s_commit_p_ret, hv->hart, entry,
                                 NULL));
    Py_DECREF(entry);
    return status;
}

/* ---- the team-message event kinds (NATIVE_KINDS) --------------------------------- */

/* _ev_cv_write(target_core_index, addr, value, core_index, hart_gid,
 * target_gid, offset, tag): a same-core p_swcv writes and completes */
static int
ev_cv_write(Window *w, CoreView *Py_UNUSED(domain), const Event *event)
{
    const int64_t *a = event->a;
    int status;
    char *at;
    CoreView *v;
    HartView *hv;
    Instr *rec;
    if ((status = bank_bytes(w, a[0], 0, a[1], 4, &at)) <= 0
            || (status = hart_of(w, a[4], &v, &hv)) <= 0
            || (status = ring_find(hv, a[7], &rec)) <= 0)
        return status;
    write_bytes(at, a[2], 4);
    HSET(hv, outstanding_mem, hv->outstanding_mem - 1);
    ISET(rec, done, 1, D_DONE);
    return TRACE_INTS(w, cv_write, a[3], a[3], hv->index, a[5], a[6],
                      a[2] & MASK32) < 0 ? -1 : 1;
}

/* _ev_rreq_cv(src, hart_gid, target_gid, offset, value, tag): a CV write
 * from the previous core reaches the target's local port; the ack goes
 * back along the backward line */
static int
ev_rreq_cv(Window *w, CoreView *domain, const Event *event)
{
    const int64_t *a = event->a;
    int64_t target, dst, src, t_bank, t_ack;
    CoreView *v;
    if ((target = index_in(a[2], 4 * PyList_GET_SIZE(w->cores))) < 0
            || (src = index_in(a[0], (target >> 2) + 1)) < 0)
        return 0;
    dst = target >> 2;
    /* local_port.reserve(now) */
    if ((v = view_at(w, dst)) == NULL || mem_view(w, v) < 0
            || reserve(w, v->ports[PORT_LOCAL], w->cycle, &t_bank) < 0
            || post(w, domain, dst, t_bank, EV_cv_apply,
                    ARGS(dst, cv_base[target & 3] + a[3], a[4])) < 0
            || reserve_backward(w, v, dst, src, t_bank, &t_ack) < 0
            || post(w, domain, src, t_ack + 1, EV_rack_cv,
                    ARGS(a[0], a[1], a[2], a[3], a[4], a[5])) < 0)
        return -1;
    return 1;
}

/* _ev_cv_apply(core_index, addr, value) */
static int
ev_cv_apply(Window *w, CoreView *Py_UNUSED(domain), const Event *event)
{
    const int64_t *a = event->a;
    int status;
    char *at;
    if ((status = bank_bytes(w, a[0], 0, a[1], 4, &at)) <= 0)
        return status;
    write_bytes(at, a[2], 4);
    return 1;
}

/* _ev_rack_cv(src, hart_gid, target_gid, offset, value, tag) */
static int
ev_rack_cv(Window *w, CoreView *Py_UNUSED(domain), const Event *event)
{
    const int64_t *a = event->a;
    return remote_ack(w, a[0], a[1], a[5], T_cv_write, 3,
                      ARGS(a[2], a[3], a[4] & MASK32));
}

/* _ev_re_deliver(core_index, hart_gid, target_gid, slot, value, tag,
 * parked): a p_swre reaches its result buffer, or parks behind the value
 * there (a re-posted one that finds it full is Python's internal error) */
static int
ev_re_deliver(Window *w, CoreView *domain, const Event *event)
{
    const int64_t *a = event->a;
    int status;
    int64_t slot, src;
    CoreView *v;
    HartView *target;
    PyObject *buffers, *lists, *queue, *desc, *value;
    if ((status = hart_of(w, a[2], &v, &target)) <= 0)
        return status;
    GETLIST(buffers, target->hart, H.re_buffers);
    if ((slot = index_in(a[3], PyList_GET_SIZE(buffers))) < 0)
        return 0;
    if (PyList_GET_ITEM(buffers, slot) != Py_None) {
        GETO(lists, target->hart, H.re_waiters);
        if (a[6] || !PyList_Check(lists) || slot >= PyList_GET_SIZE(lists)
                || !PyList_Check(queue = PyList_GET_ITEM(lists, slot)))
            return 0;
        if ((desc = event_args(event, 0, 6)) == NULL)
            return -1;
        status = PyList_Append(queue, desc);
        Py_DECREF(desc);
        return status < 0 ? -1 : 1;
    }
    if ((src = index_in(a[0], PyList_GET_SIZE(w->cores))) < 0)
        return 0;
    if ((value = PyLong_FromUnsignedLong((uint32_t)a[4])) == NULL)
        return -1;
    status = list_set(buffers, slot, value);
    Py_DECREF(value);
    if (status < 0 || SANITIZE(w, v->index, refill, a[2], slot, a[1]) < 0
            || post(w, domain, src, w->cycle + re_ack_latency, EV_re_ack,
                    a) < 0)
        return -1;
    return 1;
fail:
    return -1;
}

/* _ev_re_ack(core_index, hart_gid, target_gid, slot, value, tag): the
 * delivery's ack completes the p_swre */
static int
ev_re_ack(Window *w, CoreView *Py_UNUSED(domain), const Event *event)
{
    const int64_t *a = event->a;
    int status;
    int64_t index;
    CoreView *v, *src;
    HartView *hv;
    Instr *rec;
    if ((index = index_in(a[0], PyList_GET_SIZE(w->per_core))) < 0
            || index >= PyList_GET_SIZE(w->cores))
        return 0;
    if ((status = hart_of(w, a[1], &v, &hv)) <= 0
            || (status = ring_find(hv, a[5], &rec)) <= 0)
        return status;
    if ((src = view_at(w, index)) == NULL)
        return -1;
    ISET(rec, done, 1, D_DONE);
    KSET(src, re_messages, src->re_messages + 1);
    return TRACE_INTS(w, re_send, index, index, hv->index, a[2], a[3],
                      a[4] & MASK32) < 0 ? -1 : 1;
}

/* _ev_fork_req(target_core_index, src_core_index, parent_gid): a p_fn's
 * request is granted a free hart now, or queued */
static int
ev_fork_req(Window *w, CoreView *Py_UNUSED(domain), const Event *event)
{
    const int64_t *a = event->a;
    int h = 4, ok;
    int64_t index, src = -1;
    CoreView *v;
    PyObject *queue, *request;
    if ((index = index_in(a[0], PyList_GET_SIZE(w->cores))) < 0)
        return 0;
    if ((v = view_at(w, index)) == NULL)
        return -1;
    GETLIST(queue, v->core, C.fork_queue);
    if (!PyList_GET_SIZE(queue)) {
        if ((h = free_hart(v)) < 0)
            return -1;
        if (h < 4
                && ((src = index_in(a[1], index + 1)) < 0
                    || (ok = waiters_ok(&v->h[h], -1)) <= 0))
            return src < 0 ? 0 : ok;
    }
    if (h < 4)
        return grant_fork(w, v, &v->h[h], src, a[2]) < 0 ? -1 : 1;
    if ((request = event_args(event, 1, 3)) == NULL)
        return -1;
    ok = PyList_Append(queue, request);
    Py_DECREF(request);
    return ok < 0 ? -1 : 1;
fail:
    return -1;
}

/* _ev_fork_grant(parent_gid, child_gid): the token reaches the parent */
static int
ev_fork_grant(Window *w, CoreView *Py_UNUSED(domain), const Event *event)
{
    int status;
    CoreView *v;
    HartView *hv;
    PyObject *tokens, *token;
    if ((status = hart_of(w, event->a[0], &v, &hv)) <= 0)
        return status;
    GETLIST(tokens, hv->hart, H.fork_tokens);
    if ((token = PyLong_FromLongLong(event->a[1])) == NULL)
        return -1;
    status = PyList_Append(tokens, token);
    Py_DECREF(token);
    return status < 0 ? -1 : 1;
fail:
    return -1;
}

/* _ev_start_pc(target_gid, pc): an allocated hart starts */
static int
ev_start_pc(Window *w, CoreView *Py_UNUSED(domain), const Event *event)
{
    int status;
    CoreView *v;
    HartView *hv;
    if ((status = hart_of(w, event->a[0], &v, &hv)) <= 0)
        return status;
    if (!hv->reserved)
        return 0;  /* not allocated: Python words the error */
    /* (recorded first: the start changes nothing they read) */
    if (TRACE_INTS(w, start, v->index, v->index, hv->index,
                          event->a[1]) < 0
            || SANITIZE(w, v->index, start, event->a[0], v->_tag) < 0)
        return -1;
    return hart_start(w, v, hv, event->a[1]) < 0 ? -1 : 1;
}

/* _ev_ending_signal(core_index, hart_index, succ_gid) */
static int
ev_ending_signal(Window *w, CoreView *Py_UNUSED(domain), const Event *event)
{
    int status;
    CoreView *v;
    HartView *hv;
    const int64_t *a = event->a;
    if ((status = hart_of(w, a[2], &v, &hv)) <= 0)
        return status;
    HSET(hv, pred_done, 1);
    /* the sender's line, in the receiving domain's buffer */
    return TRACE_INTS(w, ending_signal, v->index, a[0], a[1], a[2]) < 0
        ? -1 : 1;
}

/* _ev_join(target_gid, addr): the join hart resumes, now if it waits,
 * else when its p_ret commits */
static int
ev_join(Window *w, CoreView *Py_UNUSED(domain), const Event *event)
{
    int status, waiting;
    CoreView *v;
    HartView *hv;
    PyObject *addr;
    if ((status = hart_of(w, event->a[0], &v, &hv)) <= 0)
        return status;
    GETB(waiting, hv->hart, H.waiting_join);
    if (TRACE_INTS(w, join, v->index, v->index, hv->index,
                          event->a[1]) < 0)
        return -1;
    if (waiting)
        return SANITIZE(w, v->index, jstart, event->a[0], v->_tag) < 0
            || hart_start(w, v, hv, event->a[1]) < 0 ? -1 : 1;
    if ((addr = PyLong_FromLongLong(event->a[1])) == NULL)
        return -1;
    set_obj(hv->hart, H.pending_join, addr);
    Py_DECREF(addr);
    return 1;
fail:
    return -1;
}

/* NATIVE_KINDS' spellings, in that order */
#define KIND_SPELLING(kind, shape) ev_##kind,
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
    Event event;
    CoreView *v;
    PyObject *core = NULL;

    heap_pop(w, &event);
    if ((v = view_at(w, event.dst)) == NULL)
        goto fail;
    core = new_ref(v->core);  /* the domain posts from it after calls */
    Py_XSETREF(w->origin, new_ref(v->index_obj));
    w->origin_synced = 0;
    /* the handler may change what this domain's stages see */
    CSET(v, sleep_until, 0);
    /* on a metered machine it may also charge link_wait to a gated core's
     * current window: close the idle span up to now first */
    if (w->metered && !v->active && settle(w, v, w->cycle) < 0)
        goto fail;
    if (event.kind >= 0) {
        if ((handled = access_context(w)) > 0
                && (handled = fresh(w, v)) == 0)
            handled = native_event[event.kind](w, v, &event);
        if (handled < 0)
            goto fail;
    }
    if (!handled && call_handler(w, &event) < 0)
        goto fail;
    status = 0;
fail:
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
        if ((v = view_for(w, core)) == NULL
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
    w->views = PyMem_Calloc(count, sizeof(CoreView));
    w->touched = PyMem_Malloc(count * sizeof(Py_ssize_t));
    if (w->views == NULL || w->touched == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    while (count--)
        w->views[count].w = w;
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
#ifdef TICK_COUNTS
    windows++;
#endif
    if ((w.events = attr_list(machine, s__events)) == NULL
            || (w.cores = attr_list(machine, s_cores)) == NULL
            || views_open(&w, PyList_GET_SIZE(w.cores)) < 0
            || (t.metrics = machine_metrics(machine)) == NULL
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
         * inside the walk leaves it out of date for the next cycle */
        scan = new_ref(w.active);
        for (i = 0; i < PyList_GET_SIZE(scan); i++) {
            PyObject *core = PyList_GET_ITEM(scan, i);
            CoreView *v;
            int busy;
            CHECK(core, core_type);
            if ((v = view_for(&w, core)) == NULL)
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
                if (fresh(&w, v) < 0)
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
    rings_free(&w);
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
    Py_XDECREF(w.trace);
    Py_XDECREF(w.trace_buffers);
    Py_XDECREF(w.san_buffers);
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
                .views = &view, .nviews = 1, .touched = &touched}; \
    view.w = &w

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
    if ((t.metrics = machine_metrics(t.machine)) == NULL
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
    rings_free(&w);
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
    rings_free(&w);
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
