"""The paper's §6 I/O architecture: controller harts, request words, DMA.

Figure 17: a dedicated *input controller* hart polls the input devices;
a hart that wants an input writes a request word into the controller's
shared bank (a plain ``sw``), then executes ``p_lwre``; once the device
produces the value, the controller forwards it over the intercore
backward line with ``p_swre``, and the requester's out-of-order engine
wakes the blocked ``p_lwre`` through the result-buffer RAW dependency.
"Once the data is available to the input controller, within a few cycles
it is received by the requesting hart."

The same pattern builds a **DMA unit** (§6 last paragraph): one hart
streams a structured input into the distributed shared banks, then
synchronises each consumer with a ``p_swre``/``p_lwre`` token instead of
an interrupt.

Both generators place the controller as the *last* team member (the
paper puts it on the last core), so every ``p_swre`` travels backward —
"a data cannot go back in time".
"""

from repro import memmap

#: device window inside the controller core's bank
DEVICE_OFFSET = 0x90000


def stream_device_addr(num_cores):
    """MMIO base of the streamed input device (last core's bank)."""
    return memmap.global_bank_base(num_cores - 1) + DEVICE_OFFSET


def controller_source(num_cores, num_workers):
    """Request/response I/O through a controller hart (figure 17).

    ``num_workers`` worker sections each publish their hart id in the
    request array (in the controller's core bank), then block on
    ``p_lwre``.  The controller polls the device once per request, reads
    the value, and ``p_swre``-forwards it to the requester.  Worker w
    stores its received value into ``results[w]``.
    """
    device = stream_device_addr(num_cores)
    total = num_workers + 1
    worker_sections = "\n".join(
        """        #pragma omp section
        { worker(%d); }""" % w for w in range(num_workers)
    )
    return """
#include <det_omp.h>
#define NWORKERS %(workers)d
int requests[NWORKERS] __bank(%(last)d) = {[0 ... %(wmax)d] = -1};
int results[NWORKERS];

void worker(int w) {
    *(requests + w) = __hart_id();      /* request word: who is asking */
    results[w] = __p_lwre(0);           /* blocks until the p_swre lands */
}

void controller(void) {
    int i, who, value;
    for (i = 0; i < NWORKERS; i++) {
        while (*(requests + i) == -1)
            ;                            /* wait for the request word */
        who = *(requests + i);
        while (*(int*)%(status)dU == 0)
            ;                            /* active wait on the device */
        value = *(int*)%(value)dU;
        __p_swre(who, 0, value);         /* backward line, a few cycles */
    }
}

void main() {
    #pragma omp parallel sections
    {
%(sections)s
        #pragma omp section
        { controller(); }
    }
}
""" % {
        "workers": num_workers,
        "wmax": num_workers - 1,
        "last": num_cores - 1,
        "status": device,
        "value": device + 4,
        "sections": worker_sections,
        "total": total,
    }


def dma_source(num_cores, words_per_core):
    """DMA fill + token synchronisation (§6 last paragraph).

    The controller (last team member) streams ``num_cores ×
    words_per_core`` values from the device and scatters them chunk by
    chunk into the banks (the DMA) — consumer c's chunk goes to the bank
    of the core consumer c runs on (member c → core c/4), so after the
    fill each consumer's data is core-local.  The controller then sends
    one completion token per consumer over the backward line; consumer c
    blocks on ``p_lwre``, then sums its local chunk into ``sums[c]``.
    """
    device = stream_device_addr(num_cores)
    consumer_sections = "\n".join(
        """        #pragma omp section
        { consumer(%d); }""" % c for c in range(num_cores)
    )
    return """
#include <det_omp.h>
#define NCONS %(cores)d
#define WORDS %(words)d
#define GB %(gb)dU
#define CHUNK(c) ((int*)(GB + (((unsigned)(c) >> 2) << 20) + %(chunk_off)d \\
                  + ((c) & 3) * (WORDS * 4)))
int tokens[NCONS] __bank(%(last)d) = {[0 ... %(cmax)d] = -1};
int sums[NCONS];

void consumer(int c) {
    int i, acc;
    int *p = CHUNK(c);
    *(tokens + c) = __hart_id();        /* register with the DMA hart */
    __p_lwre(1);                        /* wait for the completion token */
    __p_syncm();                        /* no chunk load issues before it */
    acc = 0;
    for (i = 0; i < WORDS; i++)
        acc += p[i];                    /* the chunk is core-local now */
    sums[c] = acc;
}

void controller(void) {
    int c, i, value;
    for (c = 0; c < NCONS; c++)         /* the DMA fill */
        for (i = 0; i < WORDS; i++) {
            while (*(int*)%(status)dU == 0)
                ;
            value = *(int*)%(value)dU;
            CHUNK(c)[i] = value;
        }
    __p_syncm();                        /* all DMA stores are in the banks */
    for (c = 0; c < NCONS; c++) {
        while (*(tokens + c) == -1)
            ;
        __p_swre(*(tokens + c), 1, 1);  /* completion token, no interrupt */
    }
}

void main() {
    #pragma omp parallel sections
    {
%(sections)s
        #pragma omp section
        { controller(); }
    }
}
""" % {
        "cores": num_cores,
        "words": words_per_core,
        "cmax": num_cores - 1,
        "last": num_cores - 1,
        "gb": memmap.GLOBAL_BASE,
        "chunk_off": 0x60000,
        "status": device,
        "value": device + 4,
        "sections": consumer_sections,
    }
