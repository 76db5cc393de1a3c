"""RealtimeKernel: the simulator surface, backed by asyncio + wall clock.

Protocol code (``BrunetNode``, the linker, the overlords, ``IpopRouter``)
consumes a narrow slice of :class:`~repro.sim.engine.Simulator`:

- ``now`` and ``schedule(delay, fn, *args)`` returning a cancellable handle
- ``rng`` — the named-stream :class:`~repro.sim.rng.RngRegistry`
- ``obs`` — metrics / spans / flight recorder
- ``tracer`` / ``trace()`` / ``trace_on``

This class implements exactly that slice over a running asyncio event
loop, so the identical node objects drive real UDP sockets.  Time is
relative to kernel creation (``loop.time() - t0``), which keeps timer
arithmetic in the same small-positive-float regime the simulator uses.

It is intentionally *not* a subclass of ``Simulator`` — the discrete
event queue and ``run()`` make no sense under a wall clock.  Anything
outside the slice above raises ``AttributeError`` loudly rather than
silently misbehaving.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Any, Callable, Optional

from repro.obs.hub import Observability
from repro.sim.rng import RngRegistry
from repro.sim.trace import Tracer


class _Handle:
    """Duck-type of :class:`repro.sim.engine.Event` over ``call_later``.

    Mirrors the sim handle's three states (pending / fired / cancelled):
    protocol code that inspects a handle to decide whether a resend or
    maintenance timer is still armed must read the same answer live as
    in sim.  The kernel marks ``fired`` when the callback runs.
    """

    __slots__ = ("_timer", "cancelled", "fired")

    def __init__(self):
        self._timer: Optional[asyncio.TimerHandle] = None
        self.cancelled = False
        self.fired = False

    @property
    def pending(self) -> bool:
        """True while the callback is still scheduled to run."""
        return not self.cancelled and not self.fired

    def cancel(self) -> None:
        """Idempotent; a no-op once the handle has fired (matching
        :meth:`repro.sim.engine.Event.cancel`)."""
        if not self.cancelled and not self.fired:
            self.cancelled = True
            self._timer.cancel()


class RealtimeKernel:
    """Wall-clock stand-in for ``Simulator`` (see module docstring)."""

    def __init__(self, seed: int = 0,
                 loop: Optional[asyncio.AbstractEventLoop] = None):
        self.loop = loop or asyncio.get_running_loop()
        self._t0 = self.loop.time()
        self.rng = RngRegistry(seed)
        self.tracer = Tracer(enabled=False)
        self.obs = Observability(self, metrics=True)
        self.events_processed = 0
        #: mirrors ``Simulator.executing``; subsystems use it to coalesce
        #: work until the end of the current callback
        self.executing = False
        #: optional :class:`~repro.obs.prof.KernelProfiler` (same hook
        #: contract as ``Simulator.profiler``: every fired callback is
        #: counted, every stride-th one wall-timed into it)
        self.profiler = None

    # -- clock ----------------------------------------------------------
    @property
    def now(self) -> float:
        """Seconds since kernel creation (monotonic)."""
        return self.loop.time() - self._t0

    # -- scheduling ------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 priority: int = 0) -> _Handle:
        """Run ``fn(*args)`` after ``delay`` wall-clock seconds."""
        handle = _Handle()
        handle._timer = self.loop.call_later(
            max(0.0, delay), self._fire, handle, fn, args)
        return handle

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any,
                    priority: int = 0) -> _Handle:
        """Run ``fn(*args)`` at absolute kernel time ``time``."""
        return self.schedule(time - self.now, fn, *args, priority=priority)

    def _fire(self, handle: _Handle, fn: Callable[..., Any],
              args: tuple) -> None:
        handle.fired = True
        self.events_processed += 1
        self.executing = True
        prof = self.profiler
        if prof is None:
            try:
                fn(*args)
            finally:
                self.executing = False
        else:
            tick = prof._stride_tick - 1
            if tick:
                prof._stride_tick = tick
                try:
                    fn(*args)
                finally:
                    self.executing = False
            else:
                prof._stride_tick = prof.stride
                t0 = perf_counter()
                try:
                    fn(*args)
                finally:
                    self.executing = False
                    prof.account(fn, perf_counter() - t0, self)

    # -- tracing ---------------------------------------------------------
    @property
    def trace_on(self) -> bool:
        """Always False: the structured tracer is a sim-analysis tool."""
        return self.tracer.enabled

    def trace(self, category: str, **data: Any) -> None:
        """No-op under the wall clock (tracer is constructed disabled)."""
        self.tracer.record(self.now, category, data)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RealtimeKernel t={self.now:.3f}>"
