"""Kernel event-loop semantics."""

import pytest

from repro.sim import Simulator, SimulationError


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, "c")
    sim.schedule(1.0, order.append, "a")
    sim.schedule(2.0, order.append, "b")
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_simultaneous_events_fifo():
    sim = Simulator()
    order = []
    for tag in range(5):
        sim.schedule(1.0, order.append, tag)
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_priority_orders_simultaneous_events():
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "low", priority=5)
    sim.schedule(1.0, order.append, "high", priority=-5)
    sim.run()
    assert order == ["high", "low"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    hits = []
    ev = sim.schedule(1.0, hits.append, 1)
    ev.cancel()
    sim.run()
    assert hits == []
    assert sim.pending() == 0


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run(until=4.0)
    assert sim.now == 4.0
    assert sim.pending() == 1
    sim.run()
    assert sim.now == 10.0


def test_run_until_with_empty_queue_advances_clock():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_in_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_nan_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


def test_events_scheduled_during_run_fire():
    sim = Simulator()
    hits = []

    def chain(n):
        hits.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert hits == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_stop_halts_run():
    sim = Simulator()
    hits = []
    sim.schedule(1.0, hits.append, 1)
    sim.schedule(2.0, sim.stop)
    sim.schedule(3.0, hits.append, 3)
    sim.run()
    assert hits == [1]
    assert sim.now == 2.0
    sim.run()
    assert hits == [1, 3]


def test_max_events_bound():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i), lambda: None)
    sim.run(max_events=4)
    assert sim.events_processed == 4


def test_not_reentrant():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_events_processed_counts():
    sim = Simulator()
    for i in range(7):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 7


def test_fifo_order_within_priority_across_scheduling_times():
    """Events due at the same time and priority fire in scheduling order,
    even when one is scheduled later, from inside another event."""
    sim = Simulator()
    order = []
    sim.schedule(5.0, order.append, "a")
    sim.schedule(5.0, order.append, "b")
    sim.schedule(5.0, order.append, "hi", priority=-1)
    sim.schedule(0.2, lambda: sim.schedule(4.8, order.append, "c"))
    sim.run()
    assert order == ["hi", "a", "b", "c"]


def test_pending_counter_matches_brute_force():
    sim = Simulator(trace=False)
    events = []
    for i in range(500):
        events.append(sim.schedule(float(i % 50) + (i % 7) * 10.0,
                                   lambda: None))
    for ev in events[::3]:
        ev.cancel()
    for ev in events[::3]:
        ev.cancel()  # idempotent: no double decrement
    assert sim.pending() == sum(1 for _ in sim.iter_pending())
    assert sim.pending() == len(events) - len(events[::3])
    sim.run(until=25.0)
    assert sim.pending() == sum(1 for _ in sim.iter_pending())
    sim.run()
    assert sim.pending() == 0


def test_lazy_compaction_keeps_heap_small():
    """Cancelling most of a large heap triggers a rebuild that sheds the
    tombstones without losing or reordering the survivors."""
    sim = Simulator(trace=False)
    keep, cancelled = [], []
    for i in range(2000):
        ev = sim.schedule(float(i) * 0.01, (keep if i % 10 == 0
                                            else cancelled).append, i)
        if i % 10 != 0:
            ev.cancel()
    assert len(sim._queue) < 2000  # compaction ran
    sim.run()
    assert cancelled == []
    assert keep == list(range(0, 2000, 10))


def test_cancel_from_earlier_event_never_fires():
    sim = Simulator(trace=False)
    hits = []
    far = sim.schedule(50.0, hits.append, "far")
    sim.schedule(49.0, far.cancel)
    sim.schedule(51.0, hits.append, "after")
    sim.run()
    assert hits == ["after"]
