"""WowDaemon: control protocol, cached-peer bootstrap, graceful drain.

Everything runs in-process over real loopback UDP sockets and unix
control sockets — the same code paths ``python -m repro.apps.daemon``
exercises, minus the subprocess spawn (tests/apps/test_swarm.py covers
the process-level path).
"""

from __future__ import annotations

import asyncio
import json
import os

from repro.apps import wowctl
from repro.apps.daemon import MAX_CTL_LINE, WowDaemon
from repro.brunet.bootstrap import PeerCache
from repro.brunet.config import BrunetConfig
from repro.brunet.uri import Uri

FAST = BrunetConfig(link_resend_interval=0.1, link_max_retries=3,
                    overlord_interval=0.1, ping_interval=0.5,
                    liveness_timeout=3.0, wire_mode="codec")


async def _ctl(path: str, cmd: str, **params) -> dict:
    reader, writer = await asyncio.open_unix_connection(path)
    writer.write(json.dumps({"cmd": cmd, **params}).encode() + b"\n")
    await writer.drain()
    reply = json.loads(await reader.readline())
    writer.close()
    return reply


async def _wait_for(predicate, timeout: float = 20.0, step: float = 0.05):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(step)
    return False


def test_two_daemons_form_ring_and_answer_control(tmp_path, capsys):
    async def scenario():
        a = WowDaemon("10.128.0.2", config=FAST, name="a",
                      control_path=str(tmp_path / "a.sock"))
        await a.start()
        seed = Uri.udp(*a.transport.local_endpoint)
        b = WowDaemon("10.128.0.3", seed_uris=[seed], config=FAST, name="b",
                      control_path=str(tmp_path / "b.sock"))
        await b.start()
        assert await _wait_for(
            lambda: a.node.in_ring and b.node.in_ring), "ring never formed"

        status = await _ctl(str(tmp_path / "a.sock"), "status")
        assert status["ok"] and status["in_ring"]
        assert status["vip"] == "10.128.0.2"
        assert status["right"] == b.node.addr.hex()

        peers = await _ctl(str(tmp_path / "b.sock"), "peers")
        assert any(p["addr"] == a.node.addr.hex() for p in peers["peers"])

        links = await _ctl(str(tmp_path / "a.sock"), "links")
        assert "in_flight" in links  # linker snapshot is JSON-clean

        ping = await _ctl(str(tmp_path / "a.sock"), "ping",
                          vip="10.128.0.3", timeout=5.0)
        assert ping["replied"] and ping["rtt"] is not None
        # the CLI's --ping-timeout travels in the request, apart from the
        # control socket's own --timeout
        rc = await asyncio.to_thread(wowctl.main, [
            "--sock", str(tmp_path / "a.sock"), "ping", "10.128.0.3",
            "--ping-timeout", "5"])
        assert rc == 0
        assert '"replied": true' in capsys.readouterr().out

        bogus = await _ctl(str(tmp_path / "a.sock"), "no-such-cmd")
        assert not bogus["ok"] and "unknown command" in bogus["error"]

        await b.shutdown("test")
        await a.shutdown("test")

    asyncio.run(scenario())


def test_oversized_control_line_is_refused_not_raised(tmp_path):
    """A request line past the control socket's cap gets an ``ok: false``
    reply and a hang-up; nothing escapes to the loop's exception handler,
    and the daemon keeps serving fresh connections."""
    async def scenario():
        escaped = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: escaped.append(context))
        sock = str(tmp_path / "a.sock")
        a = WowDaemon("10.128.0.2", config=FAST, name="a", control_path=sock)
        await a.start()

        reader, writer = await asyncio.open_unix_connection(sock)
        writer.write(b"x" * (MAX_CTL_LINE + 1) + b"\n")
        await writer.drain()
        raw = await reader.readline()
        writer.close()
        await asyncio.sleep(0.05)  # let the handler task finish
        assert escaped == []
        assert raw, "daemon hung up without a reply"
        reply = json.loads(raw)
        assert not reply["ok"] and "too long" in reply["error"]

        status = await _ctl(sock, "status")
        assert status["ok"] and status["vip"] == "10.128.0.2"
        await a.shutdown("test")

    asyncio.run(scenario())


def test_restart_rejoins_via_peer_cache_with_seeds_dead(tmp_path):
    """The tentpole drill, in-process: a node that cached its peers
    rejoins after restart even though its only configured seed is dead."""
    async def scenario():
        seed = WowDaemon("10.128.0.2", config=FAST, name="seed")
        await seed.start()
        seed_uri = Uri.udp(*seed.transport.local_endpoint)
        # a second stable node that will outlive the seed
        survivor = WowDaemon("10.128.0.3", seed_uris=[seed_uri],
                             config=FAST, name="survivor")
        await survivor.start()
        victim = WowDaemon("10.128.0.4", seed_uris=[seed_uri], config=FAST,
                           name="victim",
                           peer_cache_path=str(tmp_path / "v.json"))
        await victim.start()
        all_up = [seed, survivor, victim]
        assert await _wait_for(
            lambda: all(d.node.in_ring for d in all_up)), "no initial ring"

        await victim.shutdown("drill")  # persists its peer cache
        cached = PeerCache(str(tmp_path / "v.json")).load()
        assert cached, "graceful shutdown saved no peers"

        await seed.shutdown("killed")  # every configured seed is now gone
        await asyncio.sleep(0.2)       # let the port actually release

        reborn = WowDaemon("10.128.0.4", seed_uris=[seed_uri], config=FAST,
                           name="reborn",
                           peer_cache_path=str(tmp_path / "v.json"))
        await reborn.start()
        # the cached (still live) survivor is in the rotation, so the
        # dead configured seed is no longer a single point of failure
        survivor_uri = Uri.udp(*survivor.transport.local_endpoint)
        assert survivor_uri in reborn.node.bootstrap_uris
        assert await _wait_for(lambda: reborn.node.in_ring), (
            "restarted node never rejoined through its cached peers")

        await reborn.shutdown("test")
        await survivor.shutdown("test")

    asyncio.run(scenario())


def test_shutdown_notifies_peers_and_drops_state_fast(tmp_path):
    """Graceful drain sends close-notify: the surviving peer drops the
    connection immediately instead of waiting out liveness_timeout."""
    async def scenario():
        a = WowDaemon("10.128.0.2", config=FAST, name="a")
        await a.start()
        seed = Uri.udp(*a.transport.local_endpoint)
        b = WowDaemon("10.128.0.3", seed_uris=[seed], config=FAST, name="b")
        await b.start()
        assert await _wait_for(lambda: a.node.in_ring and b.node.in_ring)

        b_addr = b.node.addr
        await b.shutdown("drill")
        # far sooner than liveness_timeout (3s here, 90s in production)
        assert await _wait_for(
            lambda: b_addr not in a.node.table, timeout=1.0), (
            "close-notify did not drop peer state promptly")
        await a.shutdown("test")

    asyncio.run(scenario())


def test_cache_file_written_on_timer(tmp_path):
    async def scenario():
        a = WowDaemon("10.128.0.2", config=FAST, name="a")
        await a.start()
        seed = Uri.udp(*a.transport.local_endpoint)
        b = WowDaemon("10.128.0.3", seed_uris=[seed], config=FAST, name="b",
                      peer_cache_path=str(tmp_path / "b.json"),
                      cache_interval=0.2)
        await b.start()
        assert await _wait_for(lambda: b.node.in_ring)
        assert await _wait_for(
            lambda: os.path.exists(tmp_path / "b.json"), timeout=5.0), (
            "timer never persisted the peer cache")
        await b.shutdown("test")
        await a.shutdown("test")

    asyncio.run(scenario())
