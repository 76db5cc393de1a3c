"""OverlayTransfer: path-aware flows, re-pathing, stall/resume."""

import pytest

from repro.ipop import OverlayTransfer
from repro.ipop.bandwidth import BandwidthBroker
from repro.ipop.transfer import MTU
from repro.sim.units import KB, MB
from repro.wire import encap_overhead
from tests.conftest import make_mini_testbed
from tests.transport.test_sim_transport import _build_overlay


@pytest.fixture(scope="module")
def bed():
    return make_mini_testbed(seed=42)


def test_transfer_completes_and_reports_rate(bed):
    sim, tb = bed
    broker = tb.deployment.broker
    a, b = tb.vm(3), tb.vm(4)  # both UFL
    xfer = OverlayTransfer(broker, a.addr, b.addr, MB(2.0), name="t1")
    sim.run(until=sim.now + 600)
    assert xfer.completed
    assert xfer.mean_rate() > KB(50)


def test_transfer_uses_direct_path_when_shortcut_exists(bed):
    sim, tb = bed
    broker = tb.deployment.broker
    a, b = tb.vm(5), tb.vm(6)
    xfer = OverlayTransfer(broker, a.addr, b.addr, MB(8.0), name="t2")
    sim.run(until=sim.now + 600)
    assert xfer.completed
    # the flow itself triggers shortcut creation; by the end it must have
    # been re-pathed to a single hop
    assert xfer.hop_count == 1 or xfer.mean_rate() > KB(500)


def test_rate_cap_respected(bed):
    sim, tb = bed
    broker = tb.deployment.broker
    a, b = tb.vm(7), tb.vm(8)
    xfer = OverlayTransfer(broker, a.addr, b.addr, KB(400),
                           rate_cap=KB(10), name="t3")
    t0 = sim.now
    sim.run(until=sim.now + 200)
    assert xfer.completed
    assert xfer.flow.finish_time - t0 >= 39.0  # 400KB at <=10KB/s


def test_transfer_stalls_when_destination_stops(bed):
    sim, tb = bed
    broker = tb.deployment.broker
    a, b = tb.vm(9), tb.vm(10)
    xfer = OverlayTransfer(broker, a.addr, b.addr, MB(40.0), name="t4")
    sim.run(until=sim.now + 20)
    assert not xfer.completed
    b.stop()
    sim.run(until=sim.now + 30)
    assert xfer.flow.paused
    rate_while_down = xfer.flow.rate
    assert rate_while_down == 0.0
    b.restart_ipop()
    sim.run(until=sim.now + 120)
    assert not xfer.flow.paused
    xfer.cancel()


def test_cancel_stops_ticks(bed):
    sim, tb = bed
    broker = tb.deployment.broker
    a, b = tb.vm(11), tb.vm(12)
    xfer = OverlayTransfer(broker, a.addr, b.addr, MB(50.0), name="t5")
    sim.run(until=sim.now + 10)
    xfer.cancel()
    assert xfer.cancelled
    sim.run(until=sim.now + 30)
    assert not xfer.completed


@pytest.mark.parametrize("mode", ["reference", "codec"])
def test_wire_size_charges_encap_overhead_only_in_codec_mode(mode):
    sim, _, nodes = _build_overlay(mode, n=2, until=30.0)
    by_addr = {n.addr: n for n in nodes}
    broker = BandwidthBroker(sim, by_addr.get)
    size = KB(100)
    xfer = OverlayTransfer(broker, nodes[0].addr, nodes[1].addr, size)
    if mode == "reference":
        assert xfer.wire_size == size
    else:
        assert xfer.wire_size == size * (1 + encap_overhead() / MTU)
        assert xfer.wire_size > size
    assert xfer.flow.size == xfer.wire_size
    sim.run(until=sim.now + 60.0)
    assert xfer.completed
