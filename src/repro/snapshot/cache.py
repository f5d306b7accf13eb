"""Content-addressed run cache: exact memoization of deterministic runs.

Key derivation (see DESIGN.md, "Snapshots and the run cache")::

    key = SHA-256( canonical JSON of {
        program:     SHA-256 of the canonical program bytes,
        params:      Params.state_dict(),
        inputs:      workload inputs (any JSON-serializable value),
        sim_version: SIM_VERSION,
    } )

Because the simulator is deterministic, two runs with equal keys produce
identical results, so a hit can be returned verbatim — memoization is
*exact*, not best-effort.  Changing any component (one program byte, one
latency knob, one workload input, the model version) changes the key and
forces a miss.

Storage layout under the cache root (``LBP_CACHE_DIR`` overrides)::

    objects/<k[:2]>/<key>.json   result entry (value + metadata)

Values must survive a JSON round-trip unchanged; :meth:`RunCache.put`
refuses (returns None) otherwise, so a hit is byte-identical to the miss
that produced it.

Writes are atomic and concurrency-safe: every writer stages into a
uniquely named temp file in the destination directory and publishes it
with ``os.replace``.  Concurrent ``put`` of the same key is harmless —
the runs are deterministic, so both writers publish identical bytes and
either replace wins.  That makes the store safe under concurrent figure
sweeps and the ``repro serve`` worker pool.

The store is *managed*, not append-only: ``get`` bumps the entry's
mtime (recency), and :meth:`RunCache.gc` evicts least-recently-used
entries down to a byte budget and/or a maximum age, counting evictions
for the service's ``/stats`` endpoint.
"""

import hashlib
import itertools
import json
import os
import shutil
import time

from repro.snapshot.progio import program_bytes
from repro.snapshot.snapshot import SIM_VERSION

_ENTRY_SUFFIX = ".json"
_TMP_MARK = ".tmp"
#: a staging file older than this is a crashed writer's leftover; gc may
#: remove it (no live writer stages for minutes)
_TMP_STALE_S = 300.0
#: labeled upper bounds of the entry-age histogram buckets
_AGE_BUCKETS = (("<1m", 60.0), ("<1h", 3600.0), ("<1d", 86400.0),
                ("<7d", 7 * 86400.0), (">=7d", float("inf")))

_tmp_counter = itertools.count()


def default_cache_root():
    """``$LBP_CACHE_DIR``, else ``$XDG_CACHE_HOME/lbp-repro``, else
    ``~/.cache/lbp-repro``."""
    env = os.environ.get("LBP_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return os.path.join(xdg, "lbp-repro")


def _canonical_json(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class RunCache:
    """A content-addressed store of simulation results on local disk."""

    def __init__(self, root=None):
        self.root = root or default_cache_root()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ---- keys ---------------------------------------------------------------

    def key_for(self, program=None, params=None, inputs=None):
        """Content-addressed key (hex SHA-256) for one run.

        *program* is a Program or its canonical bytes; *params* a Params
        or its state dict; *inputs* any JSON-serializable description of
        the workload inputs (sizes, seeds, version names...).
        """
        if program is not None and not isinstance(program, (bytes, bytearray)):
            program = program_bytes(program)
        if params is not None and not isinstance(params, dict):
            params = params.state_dict()
        material = {
            "program": None if program is None
            else hashlib.sha256(bytes(program)).hexdigest(),
            "params": params,
            "inputs": inputs,
            "sim_version": SIM_VERSION,
        }
        return hashlib.sha256(_canonical_json(material).encode()).hexdigest()

    # ---- store --------------------------------------------------------------

    def _entry_path(self, key):
        return os.path.join(self.root, "objects", key[:2], key + _ENTRY_SUFFIX)

    def get(self, key):
        """The stored entry dict for *key*, or None; counts hit/miss.

        A hit bumps the entry's mtime — recency of *use*, not of
        creation — which is the order :meth:`gc` evicts in.
        """
        path = self._entry_path(key)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, ValueError):
            self.misses += 1
            return None
        self.hits += 1
        try:
            os.utime(path)
        except OSError:
            pass  # evicted between the read and the touch: still a hit
        return entry

    @staticmethod
    def _publish(path, text):
        """Atomically write *text* to *path*.

        The staging name is unique per (pid, call), so concurrent
        writers — even of the same key — never clobber each other's
        half-written files; ``os.replace`` makes the publish atomic and
        last-writer-wins (identical bytes either way for a given key:
        the simulator is deterministic).
        """
        tmp = "%s.%d.%d%s" % (path, os.getpid(), next(_tmp_counter), _TMP_MARK)
        try:
            with open(tmp, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def put(self, key, value):
        """Store *value* under *key*; returns the canonical value.

        Returns None (and stores nothing) when *value* does not survive a
        JSON round-trip unchanged — such a result cannot be returned
        byte-identically on a later hit.
        """
        try:
            canonical = json.loads(json.dumps(value))
        except (TypeError, ValueError):
            return None
        if canonical != value:
            return None
        entry = {"key": key, "value": canonical}
        path = self._entry_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._publish(path, json.dumps(entry, sort_keys=True) + "\n")
        return canonical

    # ---- maintenance / introspection ----------------------------------------

    def _files(self, suffix):
        """Paths of the files under ``objects/`` whose name ends in
        *suffix*, in name order."""
        objects = os.path.join(self.root, "objects")
        if os.path.isdir(objects):
            for shard in sorted(os.listdir(objects)):
                shard_dir = os.path.join(objects, shard)
                if os.path.isdir(shard_dir):
                    for name in sorted(os.listdir(shard_dir)):
                        if name.endswith(suffix):
                            yield os.path.join(shard_dir, name)

    def entries(self):
        """All stored entries as (key, entry_bytes, mtime) rows,
        key-sorted.  mtime is the last *use* (:meth:`get` bumps it)."""
        rows = []
        for path in self._files(_ENTRY_SUFFIX):
            try:
                stat = os.stat(path)
            except OSError:
                continue  # concurrently evicted
            key = os.path.basename(path)[: -len(_ENTRY_SUFFIX)]
            rows.append((key, stat.st_size, stat.st_mtime))
        return rows

    def stats(self, now=None):
        """Footprint + traffic counters + an entry age histogram.

        ``disk_bytes`` is the full on-disk cost (``entry_bytes``: the
        entries are all the store holds); the ``age_histogram`` buckets
        entries by seconds since last use — the input the LRU :meth:`gc`
        policy works from.
        """
        rows = self.entries()
        now = time.time() if now is None else now
        histogram = {label: 0 for label, _ in _AGE_BUCKETS}
        for row in rows:
            age = max(0.0, now - row[2])
            for label, bound in _AGE_BUCKETS:
                if age < bound:
                    histogram[label] += 1
                    break
        entry_bytes = sum(r[1] for r in rows)
        return {
            "root": self.root,
            "entries": len(rows),
            "entry_bytes": entry_bytes,
            "disk_bytes": entry_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "age_histogram": histogram,
        }

    def _evict(self, key):
        """Remove one entry from disk; False when it was already gone."""
        try:
            os.unlink(self._entry_path(key))
        except OSError:
            return False
        return True

    def gc(self, max_bytes=None, max_age_s=None, now=None):
        """Evict entries: stale first, then least-recently-used.

        *max_age_s* drops entries not used for that many seconds;
        *max_bytes* then evicts in LRU order (oldest mtime first — a hit
        refreshes an entry's mtime) until the entries fit the budget.
        Crashed writers' stale ``.tmp`` staging files are always swept.
        Returns a summary dict; evictions accumulate on
        ``self.evictions`` (surfaced by ``repro serve``'s ``/stats``).
        """
        now = time.time() if now is None else now
        swept_tmp = 0
        for path in self._files(_TMP_MARK):
            try:
                if now - os.stat(path).st_mtime >= _TMP_STALE_S:
                    os.unlink(path)
                    swept_tmp += 1
            except OSError:
                pass
        rows = sorted(self.entries(), key=lambda r: (r[2], r[0]))  # LRU first
        evicted = 0
        if max_age_s is not None:
            fresh = []
            for row in rows:
                if now - row[2] >= max_age_s:
                    evicted += self._evict(row[0])
                else:
                    fresh.append(row)
            rows = fresh
        if max_bytes is not None:
            total = sum(r[1] for r in rows)
            index = 0
            while total > max_bytes and index < len(rows):
                row = rows[index]
                index += 1
                evicted += self._evict(row[0])
                total -= row[1]
            rows = rows[index:]
        self.evictions += evicted
        return {
            "evicted": evicted,
            "swept_tmp": swept_tmp,
            "remaining": len(rows),
            "remaining_bytes": sum(r[1] for r in rows),
        }

    def clear(self):
        """Delete every stored object; returns how many entries were removed."""
        count = len(self.entries())
        objects = os.path.join(self.root, "objects")
        if os.path.isdir(objects):
            shutil.rmtree(objects)
        return count
