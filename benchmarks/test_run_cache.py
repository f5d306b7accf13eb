"""The content-addressed run cache: warm sweep vs cold sweep.

A figure sweep repeated with an unchanged toolchain simulates nothing:
every version's content key (program + params + inputs + SIM_VERSION) is
unchanged, so the second pass is pure cache hits.  The benchmark runs the
Figure-19 sweep twice through ``run_matmul_figure`` and asserts the hit
and miss counts and that the warm pass is byte-identical.  (What a hit
costs in host time is ``snapshot.cache_get_ms`` and ``serve_hit`` in
``bench/``.)
"""

import json

from conftest import bench_scale
from repro.eval import run_matmul_figure
from repro.snapshot import RunCache
from repro.workloads.matmul import MATMUL_VERSIONS

H = 16
CORES = 4


def test_cache_sweep_warm_vs_cold(tmp_path):
    scale = bench_scale(1)
    versions = len(MATMUL_VERSIONS)
    cache = RunCache(str(tmp_path / "cache"))

    cold = run_matmul_figure(H, CORES, scale, cache=cache)
    assert cache.misses == versions and cache.hits == 0

    warm = run_matmul_figure(H, CORES, scale, cache=cache)
    assert cache.hits == versions and cache.misses == versions

    assert json.dumps(warm, sort_keys=True) == json.dumps(cold, sort_keys=True)
    print("\ncold sweep: %d misses  warm sweep: %d hits, byte-identical"
          % (cache.misses, cache.hits))
