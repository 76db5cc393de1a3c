"""Live-socket checks: real asyncio UDP sockets on localhost.

Focused unit checks on UdpTransport framing and the realtime kernel.  The
full two-node bootstrap + CTM + linking + tunnelled-ping scenario runs
over two daemons in ``tests/apps/test_daemon.py``.
"""

import asyncio

from repro.brunet.messages import PingRequest
from repro.ipop.mapping import addr_for_ip
from repro.transport.runtime import RealtimeKernel
from repro.transport.udp import UdpTransport


def test_udp_transport_roundtrip_real_sockets():
    async def scenario():
        kernel = RealtimeKernel(seed=0)
        a = await UdpTransport.create(kernel, "127.0.0.1", 0, name="a")
        b = await UdpTransport.create(kernel, "127.0.0.1", 0, name="b")
        got = asyncio.get_running_loop().create_future()
        b.open(lambda msg, src, size: got.done() or got.set_result(
            (msg, src, size)))
        a.open(lambda *args: None)
        sent = PingRequest(7, addr_for_ip("10.128.0.2"))
        a.send(b.local_endpoint, sent, size_hint=96)
        msg, src, size = await asyncio.wait_for(got, timeout=5.0)
        a.close()
        b.close()
        return sent, msg, src, size

    sent, msg, src, size = asyncio.run(scenario())
    assert msg == sent and msg is not sent  # crossed the wire by value
    assert src.ip == "127.0.0.1"
    assert size > 28  # measured frame + UDP/IP headers, not a constant


def test_udp_transport_drops_garbage_with_counted_metric():
    async def scenario():
        kernel = RealtimeKernel(seed=0)
        b = await UdpTransport.create(kernel, "127.0.0.1", 0, name="b")
        delivered = []
        b.open(lambda msg, src, size: delivered.append(msg))
        loop = asyncio.get_running_loop()
        garbage_tx, _ = await loop.create_datagram_endpoint(
            asyncio.DatagramProtocol, local_addr=("127.0.0.1", 0))
        ep = b.local_endpoint
        garbage_tx.sendto(b"not a frame", (ep.ip, ep.port))
        await asyncio.sleep(0.2)
        errs = kernel.obs.metrics.counter("wire.decode_error",
                                          node="b").value
        garbage_tx.close()
        b.close()
        return delivered, errs

    delivered, errs = asyncio.run(scenario())
    assert delivered == []
    assert errs == 1


def test_socket_errors_do_not_pollute_codec_health():
    """Regression: an OS-level socket error (ICMP port-unreachable — a
    churning swarm generates these constantly) was counted into
    ``wire.decode_error``, corrupting the codec-health metric.  It must
    land in its own ``wire.socket_error`` counter."""
    from repro.transport.udp import _Protocol

    async def scenario():
        kernel = RealtimeKernel(seed=0)
        t = await UdpTransport.create(kernel, "127.0.0.1", 0, name="t")
        proto = _Protocol(t)
        proto.error_received(OSError(111, "Connection refused"))
        proto.error_received(OSError(111, "Connection refused"))
        metrics = kernel.obs.metrics
        decode = metrics.counter("wire.decode_error", node="t").value
        sock = metrics.counter("wire.socket_error", node="t").value
        t.close()
        return decode, sock

    decode, sock = asyncio.run(scenario())
    assert decode == 0
    assert sock == 2


def test_realtime_kernel_schedule_and_cancel():
    async def scenario():
        kernel = RealtimeKernel(seed=0)
        fired = []
        kernel.schedule(0.01, fired.append, "a")
        handle = kernel.schedule(0.01, fired.append, "b")
        handle.cancel()
        await asyncio.sleep(0.1)
        assert kernel.now > 0.0
        return fired, kernel.events_processed

    fired, processed = asyncio.run(scenario())
    assert fired == ["a"]
    assert processed == 1
