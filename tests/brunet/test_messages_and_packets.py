"""Message plumbing and datagram path accounting."""

from repro.brunet.messages import CtmRequest, LinkRequest, RoutedPacket
from repro.phys.endpoints import Endpoint
from repro.phys.packet import HEADER_BYTES, Datagram


def test_datagram_size_includes_header():
    d = Datagram(Endpoint("1.1.1.1", 1), Endpoint("2.2.2.2", 2), "x",
                 size=100)
    assert d.size == 100 + HEADER_BYTES
    d2 = Datagram(Endpoint("1.1.1.1", 1), Endpoint("2.2.2.2", 2), "x")
    assert d2.size == HEADER_BYTES


def test_datagram_records_traversal_path():
    d = Datagram(Endpoint("10.0.0.2", 1), Endpoint("2.2.2.2", 2), "x", 10)
    assert d.orig_src == Endpoint("10.0.0.2", 1)
    d.hop("snat:campus")
    d.src = Endpoint("200.0.0.1", 20000)
    d.hop("core")
    assert d.path == ["snat:campus", "core"]
    assert d.orig_src.ip == "10.0.0.2"  # original preserved for tests


def test_routed_packet_defaults():
    pkt = RoutedPacket(src=1, dest=2, payload="x", size=10)
    assert not pkt.exact
    assert not pkt.exclude_dest_link
    assert pkt.approach is None
    assert pkt.hops == 0 and pkt.via == []


def test_ctm_request_join_fields():
    msg = CtmRequest(1, 1, [], "structured.near",
                     reply_via=42, fanout=1)
    assert msg.reply_via == 42 and msg.fanout == 1
    plain = CtmRequest(2, 1, [], "shortcut")
    assert plain.reply_via is None and plain.fanout == 0


def test_link_request_carries_uri_list_snapshot():
    from repro.brunet.uri import Uri
    uris = [Uri.udp("1.1.1.1", 1)]
    msg = LinkRequest(3, 5, uris, "leaf")
    assert msg.sender_uris == uris
