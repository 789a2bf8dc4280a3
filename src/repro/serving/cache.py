"""Plan/schedule cache shared by the serving backends.

Compiling an execution plan is a per-shape cost (one vectorized pass, plus
the seeded random-table draws for BigBird-style configs).  A served system
repeating the same shapes millions of times should pay it once:
:class:`PlanCache` memoises ``(config fingerprint, seq_len) ->``
:class:`~repro.core.plan.ExecutionPlan` with an LRU bound, hit/miss/eviction
counters and thread-safe lookup (callers may share one cache across threads).
:meth:`PlanCache.lookup` is its one entry point: every consumer (simulator,
model-plan compiler, serving backends, experiments) resolves plans through
it, so wrapping it on an instance observes every plan resolution.

Entries are the compact compiled plan arrays — a few dense numpy vectors
and matrices — so a hit hands the simulator something it can execute
directly.

The cached schedule is deterministic — the random-attention table is a
design-time parameter fixed by ``config.random_seed`` — so a cache hit is
bit-identical to a rebuild, which the test-suite asserts end to end on
:class:`~repro.core.simulator.SimulationResult.output`.

:class:`KVResidency` is the decode-serving counterpart: a per-request K/V
residency model the continuous engine drives — one miss when a decode's
prompt cache loads at admission, one hit per subsequent decode step against
the resident K/V, released at retirement.  It is an accounting model (no
data, no eviction): deterministic counters and a peak-bytes watermark that
surface through :class:`~repro.serving.stats.ServingStats`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.core.config import SWATConfig
from repro.core.plan import ExecutionPlan, compile_plan
from repro.telemetry.bus import NULL_BUS
from repro.telemetry.events import PlanCacheLookup

__all__ = ["config_fingerprint", "KVResidency", "PlanCache"]


def config_fingerprint(config: SWATConfig) -> "tuple[object, ...]":
    """Hashable fingerprint of every config field the schedule depends on.

    Thin alias of :meth:`repro.core.config.SWATConfig.schedule_fingerprint`
    (kept as the serving-layer name for the cache key).
    """
    return config.schedule_fingerprint()


class PlanCache:
    """LRU cache of compiled execution plans keyed by (config fingerprint, seq_len).

    ``bus`` (an :class:`~repro.telemetry.bus.EventBus`) makes every lookup
    emit a :class:`~repro.telemetry.events.PlanCacheLookup` event — outside
    the lock, so instrumentation never extends the critical section.
    ``run_id`` stamps those events, so a multi-run log (one cache per run)
    attributes lookups to the right run.
    """

    def __init__(self, max_entries: int = 64, bus=None, run_id: int = 0):
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, ExecutionPlan]" = OrderedDict()
        self._lock = threading.Lock()
        self._bus = bus if bus is not None else NULL_BUS
        self._run_id = run_id
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def lookup(self, config: SWATConfig, seq_len: int) -> ExecutionPlan:
        """Return the compiled plan for ``(config, seq_len)``, compiling it on a miss.

        A hit returns the identical :class:`~repro.core.plan.ExecutionPlan`
        object the miss compiled.  Batched dispatch resolves one plan per
        ``(config, seq_len)`` group and stacks every head of the group onto
        it (:class:`repro.core.plan.PlanBatch`) — one lookup per group, not
        per request.
        """
        key = (config_fingerprint(config), seq_len)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
            else:
                self.misses += 1
            size = len(self._entries)
        if entry is not None:
            if self._bus.active:
                self._bus.emit(
                    PlanCacheLookup(seq_len=seq_len, hit=True, entries=size, run_id=self._run_id)
                )
            return entry
        if self._bus.active:
            self._bus.emit(
                PlanCacheLookup(seq_len=seq_len, hit=False, entries=size, run_id=self._run_id)
            )
        # Compile outside the lock: plan compilation is the expensive part
        # and concurrent workers must not serialise on it.  A racing double
        # build is benign (both results are identical); last write wins.
        entry = compile_plan(config, seq_len)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        return entry

    def check_bus(self, bus, run_id: int) -> None:
        """Reject serving run ``run_id`` on an active ``bus`` this cache does not publish to.

        The run's stats count this cache's hits and misses, but its lookup
        events would land on another bus (or none), or carry another run's
        ``run_id``, so the run's event log could not reproduce the counters
        and strict replay would fail.
        """
        if not bus.active:
            return
        if self._bus is not bus:
            raise ValueError(
                "plan_cache publishes its lookups on another bus than the run's, so the "
                "event log would miss them; pass PlanCache(bus=bus) or omit plan_cache"
            )
        if self._run_id != run_id:
            raise ValueError(
                f"plan_cache stamps its lookups with run_id {self._run_id}, not the run's "
                f"{run_id}, so the run's replay would miss them; pass "
                "PlanCache(bus=bus, run_id=run_id) or omit plan_cache"
            )

    def clear(self) -> None:
        """Drop all entries (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def counters(self) -> "dict[str, int]":
        """Snapshot of the hit/miss/eviction counters plus current size."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
            }


class KVResidency:
    """Per-request K/V residency accounting for decode serving.

    The continuous engine drives three calls per decode:

    * :meth:`admit` when the request is admitted — the prompt's K/V loads
      into device memory (one *miss*), and the request's final-context bytes
      become resident;
    * :meth:`touch` at retirement, once per decode step after the first —
      every step re-reads the resident K/V instead of re-prefilling (one
      *hit* per step);
    * :meth:`release` at retirement — the bytes leave residency.

    No data is held and nothing is evicted: the model assumes device memory
    fits the trace's working set, and the point is the deterministic
    hit/miss split and the ``peak_bytes`` watermark (both scheduler-order
    independent for a fixed trace, so they stay bit-identical between the
    event and reference schedulers).
    """

    def __init__(self):
        self._resident: "dict[int, int]" = {}
        self.hits = 0
        self.misses = 0
        self.resident_bytes = 0
        self.peak_bytes = 0

    def admit(self, request_id: int, resident_bytes: int) -> None:
        """Load a decode's prompt K/V and pin its final-context bytes."""
        if request_id in self._resident:
            raise ValueError(f"request {request_id} is already resident")
        if resident_bytes < 0:
            raise ValueError(f"resident bytes must be non-negative, got {resident_bytes}")
        self._resident[request_id] = resident_bytes
        self.misses += 1
        self.resident_bytes += resident_bytes
        if self.resident_bytes > self.peak_bytes:
            self.peak_bytes = self.resident_bytes

    def touch(self, request_id: int, steps: int) -> None:
        """Count ``steps`` decode steps served against the resident K/V."""
        if request_id not in self._resident:
            raise ValueError(f"request {request_id} is not resident")
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        self.hits += steps

    def release(self, request_id: int) -> None:
        """Retire a decode: its K/V leaves device residency."""
        resident = self._resident.pop(request_id, None)
        if resident is None:
            raise ValueError(f"request {request_id} is not resident")
        self.resident_bytes -= resident

    @property
    def hit_rate(self) -> float:
        """Fraction of K/V lookups served by residency (0.0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> "dict[str, int]":
        """Snapshot: hits, misses, current and peak resident bytes."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "resident_bytes": self.resident_bytes,
            "peak_bytes": self.peak_bytes,
        }
