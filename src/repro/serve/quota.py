"""Per-tenant token-bucket quotas for the simulation-job service.

Cache hits and coalesced single-flight joins are free — they cost the
service almost nothing, and making them free is the whole economics of
serving over a content-addressed cache.  What the bucket meters is the
expensive thing: *new simulations scheduled on the worker pool*.  One
token buys one execution.

A bucket holds at most ``burst`` tokens and refills continuously at
``rate`` tokens/second (``rate=0`` makes the allowance hard: ``burst``
executions ever).  Time is injected for testability; the default clock
is ``time.monotonic``.
"""

import time

__all__ = ["QuotaExceeded", "QuotaManager", "TokenBucket"]


class QuotaExceeded(Exception):
    """A tenant asked for more executions than its bucket holds."""

    def __init__(self, tenant, retry_after_s):
        super().__init__("quota exceeded for tenant %r (retry in %.3fs)"
                         % (tenant, retry_after_s))
        self.tenant = tenant
        self.retry_after_s = retry_after_s


class TokenBucket:
    """A continuously refilling token bucket.

    ``take(n)`` spends *n* tokens if available, else returns how long
    until they would be; fractional tokens accumulate, so a rate of 0.5
    grants one execution every two seconds.
    """

    def __init__(self, rate, burst, clock=None):
        # "not >": a NaN is refused too
        if not burst > 0:
            raise ValueError("burst must be > 0")
        if not rate >= 0:
            raise ValueError("rate must be >= 0")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock or time.monotonic
        self.tokens = self.burst
        self._stamp = self._clock()

    def _refill(self):
        now = self._clock()
        elapsed = max(0.0, now - self._stamp)
        self._stamp = now
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)

    def take(self, n=1):
        """Spend *n* tokens; returns 0.0 on success, else seconds until
        the bucket would hold *n* (``inf`` when it never will)."""
        self._refill()
        if self.tokens + 1e-9 >= n:
            self.tokens -= n
            return 0.0
        shortfall = n - self.tokens
        if self.rate <= 0 or n > self.burst:
            return float("inf")
        return shortfall / self.rate

    def peek(self):
        self._refill()
        return self.tokens


class QuotaManager:
    """Tenant name → bucket, with a configurable default allowance.

    *limits* maps tenant names to ``(rate, burst)`` pairs (or dicts with
    ``rate``/``burst`` keys — the JSON-config shape).  *default* is the
    allowance for tenants not listed; ``None`` means unmetered.  A bad
    spec is a ValueError here, not at the tenant's first charge.
    """

    def __init__(self, limits=None, default=None, clock=None):
        self._clock = clock
        if not isinstance(limits or {}, dict):
            raise ValueError("quotas must map tenant names to rate/burst "
                             "specs, not %r" % (limits,))
        self._specs = {}
        for tenant, spec in (limits or {}).items():
            try:
                self._specs[tenant] = self._parse(spec)
            except ValueError as exc:
                raise ValueError("tenant %r: %s" % (tenant, exc)) from None
        self._default = self._parse(default) if default is not None else None
        self._buckets = {}

    @staticmethod
    def _parse(spec):
        try:
            if isinstance(spec, dict):
                spec = spec["rate"], spec["burst"]
            rate, burst = map(float, spec)
        except (KeyError, TypeError, ValueError):
            raise ValueError("%r is not a rate and a burst" % (spec,)) from None
        TokenBucket(rate, burst)  # its checks, before any charge
        return rate, burst

    def _bucket(self, tenant):
        bucket = self._buckets.get(tenant)
        if bucket is None:
            spec = self._specs.get(tenant, self._default)
            if spec is None:
                return None  # unmetered tenant
            bucket = TokenBucket(spec[0], spec[1], clock=self._clock)
            self._buckets[tenant] = bucket
        return bucket

    def charge(self, tenant, n=1):
        """Spend *n* execution tokens or raise :class:`QuotaExceeded`."""
        bucket = self._bucket(tenant)
        if bucket is None:
            return
        retry_after = bucket.take(n)
        if retry_after:
            raise QuotaExceeded(tenant, retry_after)

    def snapshot(self):
        """{tenant: remaining tokens} for every metered tenant seen."""
        return {tenant: round(bucket.peek(), 3)
                for tenant, bucket in sorted(self._buckets.items())}
