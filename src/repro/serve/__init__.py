"""`repro serve`: an async simulation-job service over the run cache.

The content-addressed run cache (PR 2) makes identical requests free;
this package adds the serving layer that exploits it at scale — the
same hit/miss + single-flight + bounded-worker-pool shape an inference
stack uses, applied to deterministic simulations:

* :mod:`repro.serve.jobs` — job specs, content keying, the
  single-flight table (N identical concurrent requests → 1 simulation);
* :mod:`repro.serve.quota` — per-tenant token buckets charged per
  *execution* (hits and coalesced joins are free);
* :mod:`repro.serve.pool` — up to ``workers`` warm forked workers
  (the experiment runner's :class:`~repro.eval.runner.ForkedWorker`),
  each reused across jobs, with per-job timeout, bounded retry and
  cancellation;
* :mod:`repro.serve.worker` — the call a worker runs for a miss: rebuild
  the shipped program, run one simulation, stream progress
  (cycle/IPC/top stall) from periodic-snapshot points;
* :mod:`repro.serve.http` — the wire framing, sans-IO: the one
  head parser and the two encoders daemon and client share;
* :mod:`repro.serve.server` — the asyncio daemon (TCP + unix socket):
  the socket-free ``SimServer.handle``, priority scheduling, graceful
  drain, ``/stats`` and the Prometheus ``/metrics`` from one table, and
  end-to-end request tracing (admission spans chained through the
  worker's compile and run spans — see :mod:`repro.observe.spans`);
* :mod:`repro.serve.client` — the one client: blocking, one connection
  per request, behind ``repro submit``, the serve tests and
  ``benchmarks/test_serve_load.py``.

Determinism is the correctness argument for all of it (DESIGN.md §11):
every interleaving of requests yields byte-identical values per key, so
memoization and coalescing are unobservable.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.jobs import Job, JobSpec, JobTable, PRIORITY_CLASSES
from repro.serve.pool import WorkerPool
from repro.serve.quota import QuotaExceeded, QuotaManager, TokenBucket
from repro.serve.server import ServeConfig, ServerThread, SimServer

__all__ = [
    "Job",
    "JobSpec",
    "JobTable",
    "PRIORITY_CLASSES",
    "QuotaExceeded",
    "QuotaManager",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerThread",
    "SimServer",
    "TokenBucket",
    "WorkerPool",
]
