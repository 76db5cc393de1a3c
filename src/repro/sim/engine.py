"""Event loop for the discrete-event simulator.

Events are ordered by ``(time, priority, sequence)`` so simultaneous events
fire in a deterministic order (FIFO within a priority class).  Everything in
the repo shares one :class:`Simulator` per experiment, which also owns the
RNG registry and the tracer so that a single seed makes a whole experiment
reproducible.

The queue is a single binary heap of ``(time, priority, seq, event)``
tuples, so comparisons stay in C and the pop order is exactly that total
order.  Cancellation is O(1): the entry is tombstoned in place, skipped
when it reaches the head, and the heap is rebuilt without its tombstones
once more than half of it is dead.  A live-event counter makes
:meth:`Simulator.pending` O(1).
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter
from typing import Any, Callable, Iterator, Optional

from repro.obs.hub import Observability
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, running a finished sim)."""


class Event:
    """A scheduled callback.

    Instances are returned by :meth:`Simulator.schedule` and may be
    cancelled; cancellation is O(1) (the entry is tombstoned).

    A handle is in exactly one of three states — pending, fired, or
    cancelled — and protocol code may inspect it (``handle.pending``)
    to decide whether a resend/maintenance timer is still armed.  The
    realtime kernel's handle exposes the identical surface.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled",
                 "fired", "_sim")

    def __init__(self, time: float, priority: int, seq: int,
                 fn: Callable[..., Any], args: tuple):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim: Optional["Simulator"] = None

    @property
    def pending(self) -> bool:
        """True while the callback is still scheduled to run."""
        return not self.cancelled and not self.fired

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent, and a no-op on an
        already-fired event (late cleanup of a completed timer must not
        re-decrement the kernel's live-event count)."""
        if not self.cancelled and not self.fired:
            self.cancelled = True
            if self._sim is not None:
                self._sim._note_cancel()

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.priority, self.seq) < (
            other.time, other.priority, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self.cancelled
                 else "fired" if self.fired else "pending")
        return f"<Event t={self.time:.6f} {getattr(self.fn, '__name__', self.fn)} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for all RNG streams (see :class:`RngRegistry`).
    trace:
        When true, a :class:`Tracer` records events emitted via
        :meth:`Simulator.trace`.
    trace_max_records:
        Per-category cap on retained tracer records (None = unbounded);
        see :class:`~repro.sim.trace.Tracer`.
    metrics:
        When true (default) the simulator's :class:`~repro.obs.hub.
        Observability` hub records metrics; span tracing and the flight
        recorder stay opt-in either way.
    """

    #: rebuild the heap when it holds more dead than live entries (and is
    #: big enough for the rebuild to be worth the copy)
    _COMPACT_MIN = 64

    def __init__(self, seed: int = 0, trace: bool = True,
                 trace_max_records: Optional[int] = None,
                 metrics: bool = True):
        self.now: float = 0.0
        # heap entries are (time, priority, seq, Event): tuple comparison
        # stays in C (seq is unique, so the Event itself is never compared)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._running = False
        self._stopped = False
        self.events_processed = 0
        #: True while an event callback is executing (used by subsystems
        #: that coalesce work until the end of the current event)
        self.executing = False
        #: optional :class:`~repro.obs.prof.KernelProfiler` — when set,
        #: :meth:`step` wall-times every stride-th handler into it
        #: (read-only: attaching one never changes the event trajectory)
        self.profiler = None
        #: lazy-compaction sweeps performed so far (kernel-health signal)
        self.compactions = 0
        self.rng = RngRegistry(seed)
        self.tracer = Tracer(enabled=trace, max_records=trace_max_records)
        #: metrics registry + span collector + flight recorder (see
        #: :mod:`repro.obs`); metrics default on, spans/recorder opt-in
        self.obs = Observability(self, metrics=metrics)
        self._live = 0                      # non-cancelled events queued
        self._heap_dead = 0                 # tombstones inside self._queue
        # -- shared per-simulator services (see :meth:`shared`) ---------
        self._shared: dict[Any, Any] = {}

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"negative/NaN delay: {delay!r}")
        return self.schedule_at(self.now + delay, fn, *args, priority=priority)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any,
                    priority: int = 0) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self.now}")
        ev = Event(time, priority, self._seq, fn, args)
        ev._sim = self
        self._seq += 1
        self._live += 1
        heapq.heappush(self._queue, (time, priority, ev.seq, ev))
        return ev

    # ------------------------------------------------------------------
    # queue maintenance
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """O(1) bookkeeping for a cancellation; compact the heap lazily."""
        self._live -= 1
        self._heap_dead += 1
        if (self._heap_dead > self._COMPACT_MIN
                and self._heap_dead * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Drop tombstones and re-heapify.  Pop order is unchanged: the
        heap's pop sequence depends only on the (totally ordered) element
        set, not on its internal layout."""
        self._queue = [e for e in self._queue if not e[3].cancelled]
        heapq.heapify(self._queue)
        self._heap_dead = 0
        self.compactions += 1

    def _head(self) -> Optional[Event]:
        """The next live event (without popping), or None.  Pops any
        tombstones sitting at the head of the heap."""
        queue = self._queue
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)
            self._heap_dead -= 1
        return queue[0][3] if queue else None

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False when queue is empty."""
        ev = self._head()
        if ev is None:
            return False
        heapq.heappop(self._queue)
        if ev.time < self.now:  # pragma: no cover - defensive
            raise SimulationError("event queue corrupted: time went backwards")
        self.now = ev.time
        self.events_processed += 1
        self._live -= 1
        ev.fired = True
        self.executing = True
        prof = self.profiler
        if prof is None:
            try:
                ev.fn(*ev.args)
            finally:
                self.executing = False
        else:
            # sampling stride: every stride-th event is wall-timed and
            # attributed; the rest pay one decrement (KernelProfiler
            # scales the samples back into totals)
            tick = prof._stride_tick - 1
            if tick:
                prof._stride_tick = tick
                try:
                    ev.fn(*ev.args)
                finally:
                    self.executing = False
            else:
                prof._stride_tick = prof.stride
                t0 = perf_counter()
                try:
                    ev.fn(*ev.args)
                finally:
                    self.executing = False
                    prof.account(ev.fn, perf_counter() - t0, self)
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` fired.  Returns the final simulation time."""
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stopped = False
        fired = 0
        try:
            while not self._stopped:
                if max_events is not None and fired >= max_events:
                    break
                head = self._head()
                if head is None:
                    if until is not None:
                        self.now = max(self.now, until)
                    break
                if until is not None and head.time > until:
                    self.now = until
                    break
                self.step()
                fired += 1
        finally:
            self._running = False
        return self.now

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    @property
    def trace_on(self) -> bool:
        """True when :meth:`trace` will store records.  Hot call sites
        guard on this *before* building their kwargs dict, making a
        disabled-tracing run allocation-free (record counts are then
        skipped too — durable tallies live in subsystem counters like
        ``Internet.drops`` and ``node.stats``)."""
        return self.tracer.enabled

    def trace(self, category: str, **data: Any) -> None:
        """Record a trace entry stamped with the current time."""
        self.tracer.record(self.now, category, data)

    def shared(self, key: Any, factory: Callable[["Simulator"], Any]) -> Any:
        """Per-simulator service registry: return the object registered
        under ``key``, creating it via ``factory(self)`` on first use.

        Subsystems that want exactly one instance *per kernel* (e.g. the
        batched :class:`SweepWheel` shared by every node on a shard) go
        through here instead of module globals, so a sharded simulation
        gets one instance per shard and two simulators in one process
        never share state."""
        try:
            return self._shared[key]
        except KeyError:
            obj = self._shared[key] = factory(self)
            return obj

    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    def iter_pending(self) -> Iterator[Event]:
        """Iterate live queued events in arbitrary (not chronological)
        order."""
        for entry in self._queue:
            if not entry[3].cancelled:
                yield entry[3]


class SweepWheel:
    """Batched periodic work: many registrants share one kernel timer.

    n nodes each rescheduling a keep-alive every ``ping_interval/2``
    put 2n/ping_interval events per simulated second through the kernel
    — at 10k nodes the heap traffic dominates the overlay itself.  The
    sweep wheel quantizes registrations into buckets of ``granularity``
    seconds and fires **one** kernel event per occupied bucket, walking
    that bucket's due entries in key order.  Registrants key themselves
    by ring address, so a sweep walks due connections in address order.

    Cancellation is tombstone-free: every key carries a generation
    counter; :meth:`cancel` (and re-registration) bump it, and an entry
    whose captured generation is stale is simply skipped at fire time —
    no bucket-list scan, no kernel-event cancellation.

    Quantization rounds *up* to the bucket edge, so work is never run
    early — a registrant asking for ``delay`` seconds runs within
    ``[delay, delay + granularity)``.  Batching therefore perturbs
    timing by design; it is opt-in via ``BrunetConfig.batch_timers``
    (off by default, keeping default trajectories byte-identical) and
    meant for the 10k-node scaling runs where per-node timer precision
    is irrelevant.
    """

    def __init__(self, sim: Simulator, granularity: float = 1.0):
        if granularity <= 0:
            raise SimulationError("granularity must be positive")
        self.sim = sim
        self.granularity = granularity
        #: bucket index -> [(key, generation, fn), ...] (unsorted until fire)
        self._buckets: dict[int, list[tuple]] = {}
        #: current generation per key (bumped on schedule/cancel)
        self._gen: dict[Any, int] = {}
        #: fired sweep buckets (telemetry)
        self.sweeps = 0
        #: entries skipped as stale (telemetry)
        self.skipped = 0

    def schedule(self, key: Any, delay: float, fn: Callable[[], Any]) -> None:
        """Run ``fn()`` at the first bucket edge at or after now+``delay``.
        Any earlier registration under the same key is implicitly
        cancelled (one live entry per key)."""
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"negative/NaN delay: {delay!r}")
        gen = self._gen.get(key, 0) + 1
        self._gen[key] = gen
        t = self.sim.now + delay
        g = self.granularity
        bucket = -int(-t // g)  # ceil: never early
        entries = self._buckets.get(bucket)
        if entries is None:
            self._buckets[bucket] = [(key, gen, fn)]
            self.sim.schedule_at(bucket * g, self._fire, bucket)
        else:
            entries.append((key, gen, fn))

    def cancel(self, key: Any) -> None:
        """Invalidate the key's live entry (O(1); idempotent).  The entry
        stays in its bucket and is discarded, not run, at fire time."""
        if key in self._gen:
            self._gen[key] += 1

    def pending(self, key: Any) -> bool:
        """True when the key has a live (not cancelled/fired) entry."""
        return self._gen.get(key, 0) > 0 and any(
            e[0] == key and e[1] == self._gen[key]
            for entries in self._buckets.values() for e in entries)

    def _fire(self, bucket: int) -> None:
        entries = self._buckets.pop(bucket, [])
        entries.sort(key=lambda e: e[0])  # address order within the sweep
        self.sweeps += 1
        gen = self._gen
        for key, g, fn in entries:
            if gen.get(key) != g:
                self.skipped += 1
                continue
            fn()


def sweep_wheel(sim: Simulator, granularity: float = 1.0) -> SweepWheel:
    """The simulator's shared :class:`SweepWheel` (one per kernel/shard;
    the first caller's ``granularity`` wins)."""
    return sim.shared("sweep_wheel",
                      lambda s: SweepWheel(s, granularity=granularity))
