"""Hosts, the latency model, endpoints/allocators."""

import numpy as np
import pytest

from repro.phys import Internet, Site
from repro.phys.endpoints import Endpoint, IpAllocator, ip_in_subnet
from repro.phys.latency import LatencyModel
from repro.sim import Simulator
from repro.sim.units import ms


def test_endpoint_str():
    assert str(Endpoint("1.2.3.4", 80)) == "1.2.3.4:80"


def test_ip_in_subnet_requires_dot_boundary():
    assert ip_in_subnet("10.5.1.7", "10.5.1")
    assert not ip_in_subnet("10.51.1.7", "10.5.1")


def test_allocator_sequential_and_bounded():
    alloc = IpAllocator("10.1.0.")
    assert alloc.allocate() == "10.1.0.2"
    assert alloc.allocate() == "10.1.0.3"
    for _ in range(300):
        try:
            alloc.allocate()
        except ValueError:
            break
    else:
        pytest.fail("allocator never exhausted")


def test_allocator_hands_out_every_host_address_through_254():
    alloc = IpAllocator("10.0.0.")
    assert [alloc.allocate() for _ in range(253)] == [
        f"10.0.0.{i}" for i in range(2, 255)]
    with pytest.raises(ValueError, match="exhausted"):
        alloc.allocate()


class TestHost:
    def setup_method(self):
        self.sim = Simulator(seed=1)
        self.net = Internet(self.sim)
        self.site = Site(self.net, "pub")
        self.host = self.site.add_host("h", cpu_speed=2.0)

    def test_compute_time_inverse_speed(self):
        assert self.host.compute_time(10.0) == pytest.approx(5.0)

    def test_load_scales_compute(self):
        self.host.load = 1.5
        assert self.host.compute_time(10.0) == pytest.approx(12.5)

    def test_double_bind_rejected(self):
        self.host.bind_udp(5, lambda *a: None)
        with pytest.raises(ValueError):
            self.host.bind_udp(5, lambda *a: None)

    def test_ephemeral_ports_unique(self):
        ports = {self.host.ephemeral_port() for _ in range(100)}
        assert len(ports) == 100

    def test_closed_socket_raises_on_send(self):
        sock = self.host.bind_udp(6, lambda *a: None)
        sock.close()
        with pytest.raises(RuntimeError):
            sock.send(Endpoint("1.1.1.1", 1), "x")
        assert 6 not in self.host.sockets

    def test_processing_delay_zero_when_unloaded_model(self):
        rng = self.sim.rng.stream("t")
        assert self.host.processing_delay(rng) == 0.0
        loaded = self.site.add_host("pl", proc_delay_mean=ms(8.0))
        delays = [loaded.processing_delay(rng) for _ in range(500)]
        assert np.mean(delays) == pytest.approx(ms(8.0), rel=0.25)


class TestLatencyModel:
    def test_pair_override_and_default(self):
        rng = np.random.default_rng(0)
        lm = LatencyModel(rng, default_wan_latency=ms(25.0))
        lm.set_pair("a", "b", ms(10.0))
        assert lm.base_latency("a", "b") == ms(10.0)
        assert lm.base_latency("b", "a") == ms(10.0)  # symmetric
        assert lm.base_latency("a", "c") == ms(25.0)

    def test_intra_site_base_rejected(self):
        rng = np.random.default_rng(0)
        lm = LatencyModel(rng)
        with pytest.raises(ValueError):
            lm.base_latency("a", "a")

    def test_sampled_delay_positive_and_near_base(self):
        sim = Simulator(seed=9)
        net = Internet(sim)
        a_site, b_site = Site(net, "a"), Site(net, "b")
        net.latency.set_pair("a", "b", ms(20.0))
        a, b = a_site.add_host("a0"), b_site.add_host("b0")
        samples = [net.latency.sample_delay(a, b) for _ in range(300)]
        assert all(s > 0 for s in samples)
        assert np.mean(samples) == pytest.approx(ms(20.0), rel=0.15)

    def test_loss_probability_per_pair(self):
        rng = np.random.default_rng(0)
        lm = LatencyModel(rng, default_loss=0.0)
        lm.set_pair("a", "b", ms(5.0), loss=1.0)
        assert lm.loss_probability("a", "b") == 1.0
        assert lm.loss_probability("a", "c") == 0.0
        assert lm.loss_probability("a", "a") == 0.0
