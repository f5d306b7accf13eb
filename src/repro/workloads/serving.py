"""A deterministic request/response *server* running on LBP harts.

The in-simulator analogue of serving heavy user traffic: a dedicated
controller hart (the paper's fig. 16-17 I/O-controller placement — last
team member, last core) paces a seeded, pre-generated request schedule
and dispatches each request to a worker hart over the intercore backward
line (``p_swre``); workers block on ``p_lwre``, service the request (a
configurable mix of echo / compute-loop / xor-mix / table-lookup work)
and store the response.  Sustained traffic pushes the ``p_swre``
flow-control machinery exactly the way PR 1's wake-on-drain path is
meant to be pushed: when a worker falls behind, dispatches to its
result-buffer slot queue up and drain in referential order.

Everything is deterministic and **device-free**: the arrival schedule
(inter-arrival gaps, request mix, worker assignment) comes from a seeded
generator at *source-generation* time and is baked into the program as
initialized arrays, so the workload snapshots, shards and golden-digests
like any other program — no MMIO attach, which the snapshot layer and
the sharded engine both refuse.

Observability: the controller stamps a marker store into ``issued[r]``
at dispatch and the serving worker stores the response into
``results[r]``; with tracing enabled the two ``mem_store`` events give
per-request dispatch→completion latency, from which the benchmark layer
derives p50/p99 latency and throughput curves per core count.
"""

import random

MASK32 = 0xFFFFFFFF

#: request kinds and their service semantics (mirrored in C and Python)
KIND_ECHO, KIND_SUM, KIND_XMIX, KIND_LUT = range(4)

#: default request mix: (kind, weight) — mostly light echo/lookup traffic
#: with a tail of heavier compute requests, like a real serving mix
DEFAULT_MIX = ((KIND_ECHO, 4), (KIND_LUT, 3), (KIND_SUM, 2), (KIND_XMIX, 1))

_XMIX_CONST = 23297


class Request:
    __slots__ = ("index", "worker", "kind", "arg", "gap")

    def __init__(self, index, worker, kind, arg, gap):
        self.index = index
        self.worker = worker
        self.kind = kind
        self.arg = arg
        self.gap = gap

    @property
    def payload(self):
        """The 32-bit request word: [idx:14][kind:4][arg:12]."""
        return (self.index << 16) | (self.kind << 12) | self.arg


class ServingWorkload:
    """One serving scenario: schedule + generated source + references.

    ``cores`` fixes the machine (``4*cores - 1`` workers + the
    controller); ``seed`` drives the request mix, arguments, arrival
    gaps and (for ``assignment="random"``) the load-balancing draw.
    """

    def __init__(self, cores, num_requests, seed=0, mix=DEFAULT_MIX,
                 gap_range=(4, 40), assignment="rr"):
        if num_requests >= 1 << 14:
            raise ValueError("request index must fit in 14 bits")
        self.cores = cores
        self.harts = 4 * cores
        self.workers = self.harts - 1
        self.num_requests = num_requests
        self.seed = seed
        rng = random.Random(seed)
        kinds = [kind for kind, _w in mix]
        weights = [weight for _k, weight in mix]
        self.lut = [rng.randrange(1 << 16) for _ in range(16)]
        self.requests = []
        for index in range(num_requests):
            if assignment == "rr":
                worker = index % self.workers
            elif assignment == "random":
                worker = rng.randrange(self.workers)
            else:
                raise ValueError("assignment must be 'rr' or 'random'")
            kind = rng.choices(kinds, weights)[0]
            arg = rng.randrange(4096)
            gap = rng.randrange(gap_range[0], gap_range[1] + 1)
            self.requests.append(Request(index, worker, kind, arg, gap))

    @property
    def race_sync(self):
        """Polling-protocol cells for the race detector: the worker
        registration words are intentionally timing-racy (controller
        polls until every worker has announced its hart id)."""
        return (("reg", self.workers),)

    # ---- generated program ---------------------------------------------------

    @property
    def source(self):
        """DetC source of the full server (workers + controller team)."""
        nr, nw, h = self.num_requests, self.workers, self.harts
        per_worker = [0] * nw
        for request in self.requests:
            per_worker[request.worker] += 1

        def ints(values):
            return ", ".join(str(v) for v in values)

        return """
#include <det_omp.h>
#define NR %(nr)d
#define NW %(nw)d
#define H  %(h)d
int req_worker[NR] = {%(req_worker)s};
int req_payload[NR] = {%(req_payload)s};
int req_gap[NR] = {%(req_gap)s};
int wq[NW] = {%(wq)s};
int lut[16] = {%(lut)s};
int reg[NW] __bank(%(last)d) = {[0 ... %(nw_max)d] = -1};
int issued[NR];
int results[NR];

void worker(int w) {
    int n, req, idx, kind, arg, acc, i;
    reg[w] = __hart_id();
    for (n = 0; n < wq[w]; n++) {
        req = __p_lwre(0);
        idx = (req >> 16) & 16383;
        kind = (req >> 12) & 15;
        arg = req & 4095;
        if (kind == 0)
            acc = arg;
        else if (kind == 1) {
            acc = 0;
            for (i = 0; i <= (arg & 63); i++)
                acc += i * 3 + 1;
        } else if (kind == 2) {
            acc = arg;
            for (i = 0; i < (arg & 31) + 1; i++)
                acc = ((acc << 1) + i) ^ %(xmix)d;
        } else
            acc = lut[arg & 15] + arg;
        results[idx] = acc;
    }
}

void controller(void) {
    int r, w, d;
    int targets[NW];
    for (w = 0; w < NW; w++) {
        while (reg[w] == -1)
            ;                       /* §6 request-word poll, own bank */
        targets[w] = reg[w];
    }
    for (r = 0; r < NR; r++) {
        for (d = 0; d < req_gap[r]; d++)
            ;                       /* seeded inter-arrival pacing */
        issued[r] = r + 1;          /* dispatch timestamp marker */
        __p_swre(targets[req_worker[r]], 0, req_payload[r]);
    }
}

void main() {
    int t;
    omp_set_num_threads(H);
    #pragma omp parallel for
    for (t = 0; t < H; t++) {
        if (t == H - 1)
            controller();
        else
            worker(t);
    }
}
""" % {
            "nr": nr, "nw": nw, "h": h, "nw_max": nw - 1,
            "last": self.cores - 1,
            "req_worker": ints(r.worker for r in self.requests),
            "req_payload": ints(r.payload for r in self.requests),
            "req_gap": ints(r.gap for r in self.requests),
            "wq": ints(per_worker),
            "lut": ints(self.lut),
            "xmix": _XMIX_CONST,
        }

    # ---- reference implementation (self-checking) ----------------------------

    def expected_response(self, request):
        """Reference service function — bit-exact 32-bit mirror of the C."""
        arg = request.arg
        if request.kind == KIND_ECHO:
            return arg
        if request.kind == KIND_SUM:
            acc = 0
            for i in range((arg & 63) + 1):
                acc = (acc + i * 3 + 1) & MASK32
            return acc
        if request.kind == KIND_XMIX:
            acc = arg
            for i in range((arg & 31) + 1):
                acc = ((((acc << 1) & MASK32) + i) & MASK32) ^ _XMIX_CONST
            return acc
        return (self.lut[arg & 15] + arg) & MASK32

    def verify(self, machine, program):
        """Check every response word; raises AssertionError on mismatch."""
        base = program.symbol("results")
        for request in self.requests:
            actual = machine.read_word(base + 4 * request.index)
            expected = self.expected_response(request)
            if actual != expected:
                raise AssertionError(
                    "serving: request %d (worker %d kind %d arg %d) "
                    "response is %d, expected %d"
                    % (request.index, request.worker, request.kind,
                       request.arg, actual, expected))
        return True

    # ---- latency/throughput extraction ---------------------------------------

    def latencies(self, machine, program):
        """Per-request (dispatch_cycle, completion_cycle) from the trace.

        Needs a machine built with ``LBP(..., trace=True)``; the
        dispatch marker is the controller's store into ``issued[r]``,
        completion is the worker's store into ``results[r]``.  Returns a
        list of ``(request, dispatch, completion)`` in request order.
        """
        nr = self.num_requests
        issued_base = program.symbol("issued")
        results_base = program.symbol("results")
        dispatch = {}
        complete = {}
        for cycle, _core, _hart, kind, args in machine.trace.events:
            if kind != "mem_store":
                continue
            addr = args[0]
            if issued_base <= addr < issued_base + 4 * nr:
                dispatch.setdefault((addr - issued_base) // 4, cycle)
            elif results_base <= addr < results_base + 4 * nr:
                complete.setdefault((addr - results_base) // 4, cycle)
        missing = [i for i in range(nr) if i not in dispatch or i not in complete]
        if missing:
            raise AssertionError(
                "serving: no trace timestamps for requests %r (trace "
                "disabled, or the run did not finish?)" % missing[:8])
        return [(self.requests[i], dispatch[i], complete[i])
                for i in range(nr)]

    def latency_summary(self, machine, program, stats):
        """{p50, p99, max, mean, throughput_rp kc} over the whole run."""
        samples = sorted(done - issue
                         for _r, issue, done in self.latencies(machine, program))
        count = len(samples)

        def pct(q):
            return samples[min(count - 1, int(q * count))]

        return {
            "requests": count,
            "lat_p50": pct(0.50),
            "lat_p99": pct(0.99),
            "lat_max": samples[-1],
            "lat_mean": round(sum(samples) / count, 1),
            "throughput_rpkc": round(1000.0 * count / stats.cycles, 3),
        }


def serving_source(cores, num_requests, seed=0, **kwargs):
    """DetC source of one serving scenario (convenience wrapper)."""
    return ServingWorkload(cores, num_requests, seed=seed, **kwargs).source
