"""The run cache as a *managed store*: atomic writes, LRU gc, stats.

The serving daemon (PR 7) keeps a long-lived cache under concurrent
writers, so the store's contracts harden from "append-only scratch dir"
to: publishes are atomic (temp file + ``os.replace``), concurrent puts
of one key are harmless, ``get`` refreshes recency, and ``gc`` evicts
stale-then-LRU down to a byte budget without ever serving a torn read.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.snapshot.cache import RunCache, _TMP_MARK


def _fill(cache, keys, value_pad=0):
    for key in keys:
        cache.put(key, {"k": key, "pad": "x" * value_pad})


def _set_mtime(cache, key, when):
    os.utime(cache._entry_path(key), (when, when))


KEYS = ["aa" + "0" * 62, "ab" + "0" * 62, "cc" + "0" * 62]


def test_get_bumps_mtime_recency(tmp_path):
    cache = RunCache(str(tmp_path))
    _fill(cache, KEYS[:1])
    past = time.time() - 1000
    _set_mtime(cache, KEYS[0], past)
    assert cache.entries()[0][2] == pytest.approx(past, abs=2)
    cache.get(KEYS[0])
    assert cache.entries()[0][2] == pytest.approx(time.time(), abs=5)


def test_gc_evicts_lru_first_to_byte_budget(tmp_path):
    cache = RunCache(str(tmp_path))
    _fill(cache, KEYS)
    now = time.time()
    # recency order (oldest first): KEYS[1], KEYS[2], KEYS[0]
    _set_mtime(cache, KEYS[1], now - 300)
    _set_mtime(cache, KEYS[2], now - 200)
    _set_mtime(cache, KEYS[0], now - 100)
    per_entry = cache.entries()[0][1]
    summary = cache.gc(max_bytes=2 * per_entry)
    assert summary["evicted"] == 1
    assert cache.get(KEYS[1]) is None  # the LRU entry went first
    assert cache.get(KEYS[2]) is not None and cache.get(KEYS[0]) is not None
    # tighter budget: evicts the *next* least-recently-used (pin mtimes —
    # the gets above bumped both within filesystem timestamp granularity)
    _set_mtime(cache, KEYS[2], now - 200)
    _set_mtime(cache, KEYS[0], now - 100)
    summary = cache.gc(max_bytes=per_entry)
    assert summary["evicted"] == 1 and cache.get(KEYS[2]) is None
    assert cache.evictions == 2  # counter accumulates across sweeps


def test_hit_refreshes_entry_out_of_eviction_order(tmp_path):
    cache = RunCache(str(tmp_path))
    _fill(cache, KEYS[:2])
    old = time.time() - 1000
    _set_mtime(cache, KEYS[0], old)
    _set_mtime(cache, KEYS[1], old - 1)
    cache.get(KEYS[1])  # the older entry is *used*: now the newer one is LRU
    per_entry = cache.entries()[0][1]
    cache.gc(max_bytes=per_entry)
    assert cache.get(KEYS[0]) is None
    assert cache.get(KEYS[1]) is not None


def test_gc_max_age_drops_unused_entries(tmp_path):
    cache = RunCache(str(tmp_path))
    _fill(cache, KEYS)
    now = time.time()
    _set_mtime(cache, KEYS[0], now - 5000)
    summary = cache.gc(max_age_s=3600, now=now)
    assert summary["evicted"] == 1 and summary["remaining"] == 2
    assert cache.get(KEYS[0]) is None


def test_gc_sweeps_stale_tmp_keeps_fresh_tmp(tmp_path):
    cache = RunCache(str(tmp_path))
    _fill(cache, KEYS[:1])
    shard = os.path.dirname(cache._entry_path(KEYS[0]))
    stale = os.path.join(shard, "dead.json.123.0" + _TMP_MARK)
    fresh = os.path.join(shard, "live.json.456.0" + _TMP_MARK)
    for path in (stale, fresh):
        with open(path, "w") as handle:
            handle.write("{")
    os.utime(stale, (time.time() - 600, time.time() - 600))
    summary = cache.gc()
    assert summary["swept_tmp"] == 1
    assert not os.path.exists(stale)
    assert os.path.exists(fresh)  # a live writer's staging file survives
    assert cache.get(KEYS[0]) is not None  # entries untouched by tmp sweep


def test_stats_histogram_and_disk_bytes(tmp_path):
    cache = RunCache(str(tmp_path))
    _fill(cache, KEYS)
    now = time.time()
    _set_mtime(cache, KEYS[0], now - 10)           # <1m
    _set_mtime(cache, KEYS[1], now - 600)          # <1h
    _set_mtime(cache, KEYS[2], now - 8 * 86400)    # >=7d
    stats = cache.stats(now=now)
    assert stats["age_histogram"] == {"<1m": 1, "<1h": 1, "<1d": 0,
                                      "<7d": 0, ">=7d": 1}
    assert stats["entries"] == 3
    assert stats["disk_bytes"] == stats["entry_bytes"] == sum(
        size for _, size, _ in cache.entries())
    assert stats["evictions"] == 0


def _hammer(root, key, rounds):
    cache = RunCache(root)
    for _ in range(rounds):
        cache.put(key, {"k": key, "payload": list(range(32))})
        entry = cache.get(key)
        # no torn read is ever visible, whoever is mid-publish
        assert entry is not None and entry["value"]["payload"] == list(range(32))
    os._exit(0)


def test_concurrent_same_key_puts_are_atomic(tmp_path):
    """Process-pool hammer: N writers republish one key; readers never
    see partial JSON and no staging litter survives."""
    context = multiprocessing.get_context("fork")
    root = str(tmp_path)
    key = KEYS[0]
    workers = [context.Process(target=_hammer, args=(root, key, 40))
               for _ in range(4)]
    for proc in workers:
        proc.start()
    for proc in workers:
        proc.join(60)
        assert proc.exitcode == 0
    cache = RunCache(root)
    entry = cache.get(key)
    assert entry["value"] == {"k": key, "payload": list(range(32))}
    shard = os.path.dirname(cache._entry_path(key))
    leftovers = [name for name in os.listdir(shard)
                 if name.endswith(_TMP_MARK)]
    assert leftovers == []  # every publish either replaced or cleaned up
    # the published file is one complete JSON document
    with open(cache._entry_path(key)) as handle:
        assert json.load(handle)["key"] == key


def test_publish_failure_cleans_staging(tmp_path):
    cache = RunCache(str(tmp_path))
    path = cache._entry_path(KEYS[0])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with pytest.raises(TypeError):
        cache._publish(path, 12345)  # neither bytes nor str
    assert [name for name in os.listdir(os.path.dirname(path))
            if name.endswith(_TMP_MARK)] == []
