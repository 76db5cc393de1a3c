"""``python -m repro.apps.daemon`` — one long-running WOW node.

The deployable twin of the simulator's :class:`~repro.brunet.node.
BrunetNode`: the *unmodified* node + :class:`~repro.ipop.router.
IpopRouter` run over a real :class:`~repro.transport.udp.UdpTransport`
socket, driven by the asyncio :class:`~repro.transport.runtime.
RealtimeKernel`, wrapped in the operational plumbing a real deployment
needs (in the style of IPOP's ``gvpn_controller`` / node daemons):

* a **JSON control socket** (unix domain, newline-delimited JSON) with
  status / peers / links / trim / connect / ping / cache / stats /
  shutdown commands — :mod:`repro.apps.wowctl` is the matching CLI;
* a **cached-peer store** (:class:`~repro.brunet.bootstrap.PeerCache`):
  live peer endpoints persist to disk on a timer and on clean shutdown,
  and on restart are tried *before* the configured seed URIs — so a node
  that comes back after every bootstrap seed died still rejoins
  (decentralized bootstrap per PAPERS.md's P2P-bootstrap paper);
* **graceful drain on SIGTERM/SIGINT**: close-notify every peer, save
  the cache, export the observability bundle, exit 0.

Run one by hand::

    PYTHONPATH=src python -m repro.apps.daemon \
        --vip 10.128.0.2 --listen 127.0.0.1:15000 \
        --control /tmp/wow-n0.sock --peer-cache /tmp/wow-n0.peers.json

or let ``python -m repro.apps.swarm`` spawn a whole testbed of them.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
from typing import Any, Optional

from repro.brunet.bootstrap import PeerCache, merge_bootstrap_uris
from repro.brunet.config import BrunetConfig
from repro.brunet.connection import ConnectionType
from repro.brunet.node import BrunetNode
from repro.brunet.uri import Uri
from repro.ipop.ippacket import IcmpEcho, VirtualIpPacket
from repro.ipop.mapping import addr_for_ip
from repro.ipop.router import IpopRouter
from repro.transport.runtime import RealtimeKernel
from repro.transport.udp import UdpTransport

#: deployment timers: tighter than the paper's conservative constants
#: (which target WAN NAT traversal) but far from the sim-demo extremes —
#: a localhost swarm should join in seconds and notice death in a few
DAEMON_CONFIG = BrunetConfig(
    link_resend_interval=0.5,
    link_max_retries=3,
    overlord_interval=0.5,
    ping_interval=2.0,
    liveness_timeout=15.0,
    shortcut_idle_drop=60.0,
    wire_mode="codec",
)

#: control-protocol line cap (one JSON request per line)
MAX_CTL_LINE = 1 << 16


class WowDaemon:
    """One node's runtime: kernel + transport + node + router + plumbing.

    Importable and in-process-testable: ``await start()`` brings the
    overlay endpoint up, ``await wait()`` blocks until a shutdown is
    requested (signal or control command), ``await shutdown()`` drains.
    """

    def __init__(self, vip: str, listen: tuple[str, int] = ("127.0.0.1", 0),
                 seed_uris: Optional[list[Uri]] = None,
                 control_path: Optional[str] = None,
                 peer_cache_path: Optional[str] = None,
                 cache_interval: float = 5.0,
                 config: Optional[BrunetConfig] = None,
                 name: str = "",
                 bundle_out: Optional[str] = None):
        self.vip = vip
        self.listen = listen
        self.seed_uris = list(seed_uris or [])
        self.control_path = control_path
        self.cache_interval = cache_interval
        self.config = config or DAEMON_CONFIG
        self.name = name or f"wow.{vip}"
        self.bundle_out = bundle_out
        self.cache = (PeerCache(peer_cache_path)
                      if peer_cache_path else None)
        self.kernel: Optional[RealtimeKernel] = None
        self.transport: Optional[UdpTransport] = None
        self.node: Optional[BrunetNode] = None
        self.router: Optional[IpopRouter] = None
        self._ctl_server: Optional[asyncio.AbstractServer] = None
        self._ctl_tasks: set[asyncio.Task] = set()
        self._cache_task: Optional[asyncio.Task] = None
        self._ping_seq = 0
        self._ping_waiters: dict[int, asyncio.Future] = {}
        self._shutdown_requested = asyncio.Event()
        self._finished = asyncio.Event()
        self.exit_reason: Optional[str] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket, join the overlay, open the control socket."""
        self.kernel = RealtimeKernel(seed=0)
        self.transport = await UdpTransport.create(
            self.kernel, self.listen[0], self.listen[1], name=self.name)
        self.node = BrunetNode(self.kernel, None, addr_for_ip(self.vip),
                               self.config, transport=self.transport,
                               name=self.name)
        self.router = IpopRouter(self.node, self.vip)
        self.router.bind("icmp", 0, self._on_icmp_reply)
        # `is not None`, not truthiness: PeerCache has __len__, and the
        # in-memory cache is always empty before load()
        cached: list[Uri] = (self.cache.load()
                             if self.cache is not None else [])
        # cached peers first: they were alive recently, the seeds may be
        # long dead (the whole point of decentralized bootstrap)
        self.node.start(merge_bootstrap_uris(self.seed_uris, cached))
        if self.control_path:
            if os.path.exists(self.control_path):
                os.unlink(self.control_path)
            self._ctl_server = await asyncio.start_unix_server(
                self._handle_ctl, path=self.control_path,
                limit=MAX_CTL_LINE)
        if self.cache is not None:
            self._cache_task = asyncio.ensure_future(self._cache_loop())

    async def wait(self) -> None:
        """Block until a shutdown has been requested and completed."""
        await self._shutdown_requested.wait()
        await self.shutdown(self.exit_reason or "requested")
        await self._finished.wait()

    def request_shutdown(self, reason: str) -> None:
        """Signal-handler-safe shutdown trigger."""
        self.exit_reason = self.exit_reason or reason
        self._shutdown_requested.set()

    async def shutdown(self, reason: str = "shutdown") -> None:
        """Graceful drain: notify peers, persist the cache, export the
        obs bundle, close every socket.  Idempotent."""
        if self._finished.is_set():
            return
        self.exit_reason = self.exit_reason or reason
        if self._cache_task is not None:
            self._cache_task.cancel()
            self._cache_task = None
        if self.cache is not None and self.node is not None:
            self._record_live_peers()
            self.cache.save()
        if self._ctl_server is not None:
            self._ctl_server.close()
            await self._ctl_server.wait_closed()
            self._ctl_server = None
            if self.control_path and os.path.exists(self.control_path):
                os.unlink(self.control_path)
        for task in list(self._ctl_tasks):
            task.cancel()
        if self._ctl_tasks:
            await asyncio.gather(*self._ctl_tasks, return_exceptions=True)
        self._ctl_tasks.clear()
        for fut in self._ping_waiters.values():
            if not fut.done():
                fut.cancel()
        self._ping_waiters.clear()
        if self.node is not None and self.node.active:
            self.node.stop(notify=True)
        elif self.transport is not None:
            self.transport.close()
        if self.bundle_out and self.kernel is not None:
            self.kernel.obs.export(self.bundle_out, seed=0)
        self._finished.set()

    # ------------------------------------------------------------------
    # cached-peer store
    # ------------------------------------------------------------------
    def _record_live_peers(self) -> None:
        """Snapshot every live connection (and what those peers advertise
        about themselves) into the peer cache."""
        node, cache = self.node, self.cache
        uris: list[Uri] = []
        for conn in node.table.all():
            uris.append(Uri("udp", conn.remote_endpoint))
            uris.extend(node.peer_uris.get(conn.peer_addr, ()))
        own = self.transport.local_endpoint
        cache.record([u for u in uris if u.endpoint != own])

    async def _cache_loop(self) -> None:
        """Persist the cache on a timer, so even a SIGKILLed daemon
        restarts with recent peers."""
        while True:
            await asyncio.sleep(self.cache_interval)
            if self.node is not None and len(self.node.table):
                self._record_live_peers()
                self.cache.save()

    # ------------------------------------------------------------------
    # virtual-IP ping plumbing
    # ------------------------------------------------------------------
    def _on_icmp_reply(self, pkt: VirtualIpPacket) -> None:
        echo = pkt.payload
        if not isinstance(echo, IcmpEcho) or not echo.is_reply:
            return
        fut = self._ping_waiters.pop(echo.seq, None)
        if fut is not None and not fut.done():
            fut.set_result(self.kernel.now - echo.sent_at)

    async def ping(self, dst_vip: str, timeout: float = 5.0) -> Optional[float]:
        """One tunnelled ICMP echo; returns RTT seconds or None on loss."""
        self._ping_seq += 1
        seq = self._ping_seq
        fut = asyncio.get_running_loop().create_future()
        self._ping_waiters[seq] = fut
        echo = IcmpEcho(seq, False, self.kernel.now)
        self.router.send_ip(dst_vip, "icmp", 0, echo, 64)
        try:
            return await asyncio.wait_for(fut, timeout)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            self._ping_waiters.pop(seq, None)
            return None

    # ------------------------------------------------------------------
    # control surface
    # ------------------------------------------------------------------
    def status(self) -> dict:
        node = self.node
        left = node.table.left_neighbor()
        right = node.table.right_neighbor()
        return {
            "name": self.name,
            "vip": self.vip,
            "addr": node.addr.hex(),
            "endpoint": str(self.transport.local_endpoint),
            "uri": str(node.uris.local),
            "pid": os.getpid(),
            "uptime": self.kernel.now,
            "active": node.active,
            "in_ring": node.in_ring,
            "connections": len(node.table),
            "left": left.peer_addr.hex() if left else None,
            "right": right.peer_addr.hex() if right else None,
            "bootstrap_uris": [str(u) for u in node.bootstrap_uris],
            "cache": {"path": self.cache.path, "peers": len(self.cache)}
                     if self.cache is not None else None,
            "stats": dict(node.stats),
        }

    def peers(self) -> list[dict]:
        node = self.node
        now = self.kernel.now
        out = []
        for conn in node.table.all():
            out.append({
                "addr": conn.peer_addr.hex(),
                "types": sorted(t.value for t in conn.types),
                "endpoint": str(conn.remote_endpoint),
                "age": now - conn.established_at,
                "last_heard": now - conn.last_heard,
                "packets_sent": conn.packets_sent,
                "packets_received": conn.packets_received,
                "bytes_sent": conn.bytes_sent,
            })
        out.sort(key=lambda p: p["addr"])
        return out

    def trim(self, ttl: float) -> list[str]:
        """Drop pure-shortcut links idle longer than ``ttl`` seconds (the
        IPOP ``BaseTopologyManager`` link-TTL policy).  Ring and far links
        are never trimmed — greedy routing depends on them."""
        node = self.node
        now = self.kernel.now
        dropped = []
        for conn in node.table.all():
            if conn.types != {ConnectionType.SHORTCUT}:
                continue
            if now - conn.last_heard >= ttl:
                dropped.append(conn.peer_addr.hex())
                node.drop_connection(conn, reason="ctl-trim", notify=True)
        return dropped

    async def _dispatch(self, req: dict) -> dict:
        cmd = req.get("cmd")
        if cmd == "status":
            return self.status()
        if cmd == "peers":
            return {"peers": self.peers()}
        if cmd == "links":
            return {"established": self.peers(),
                    "in_flight": self.node.linker.snapshot()}
        if cmd == "cache":
            if self.cache is None:
                return {"cache": None}
            return {"path": self.cache.path, "peers": self.cache.snapshot()}
        if cmd == "save-cache":
            if self.cache is None:
                return {"saved": False}
            self._record_live_peers()
            self.cache.save()
            return {"saved": True, "peers": len(self.cache)}
        if cmd == "trim":
            return {"dropped": self.trim(float(req.get("ttl", 30.0)))}
        if cmd == "connect":
            target = req.get("vip")
            addr = addr_for_ip(target)
            self.node.connect_to(addr, ConnectionType.SHORTCUT)
            return {"requested": addr.hex()}
        if cmd == "rebootstrap":
            uris = [Uri.parse(u) for u in req.get("uris", [])]
            return {"adopted": self.node.rebootstrap(uris)}
        if cmd == "ping":
            rtt = await self.ping(req["vip"],
                                  timeout=float(req.get("timeout", 5.0)))
            return {"vip": req["vip"], "rtt": rtt, "replied": rtt is not None}
        if cmd == "stats":
            from repro.obs.top import build_stats
            return build_stats(self.kernel)
        if cmd == "shutdown":
            self.request_shutdown("control")
            return {"stopping": True}
        raise ValueError(f"unknown command {cmd!r}")

    async def _handle_ctl(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        """One control connection: newline-delimited JSON request/reply."""
        self._ctl_tasks.add(asyncio.current_task())
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    # the stream's limit tripped: answer once, then hang
                    # up rather than resync mid-line
                    writer.write(json.dumps(
                        {"ok": False, "error": "request line too long"}
                    ).encode() + b"\n")
                    await writer.drain()
                    break
                if not line:
                    break
                try:
                    req = json.loads(line)
                    reply = {"ok": True, **await self._dispatch(req)}
                except Exception as exc:  # noqa: BLE001 - report, don't die
                    reply = {"ok": False, "error": str(exc)}
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            pass  # daemon shutting down while a client is attached
        finally:
            self._ctl_tasks.discard(asyncio.current_task())
            writer.close()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _parse_listen(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    return (host or "127.0.0.1", int(port))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.apps.daemon",
        description=__doc__.split("\n")[0])
    parser.add_argument("--vip", required=True,
                        help="virtual IP owned by this node (10.128.x.y)")
    parser.add_argument("--listen", type=_parse_listen,
                        default=("127.0.0.1", 0), metavar="IP:PORT",
                        help="UDP bind address (port 0 = OS-assigned)")
    parser.add_argument("--seed-uri", action="append", default=[],
                        metavar="URI",
                        help="bootstrap seed (brunet.udp:IP:PORT); "
                             "repeatable")
    parser.add_argument("--control", metavar="PATH",
                        help="unix control-socket path (wowctl attaches "
                             "here)")
    parser.add_argument("--peer-cache", metavar="PATH",
                        help="cached-peer store for seedless restart")
    parser.add_argument("--cache-interval", type=float, default=5.0,
                        help="seconds between peer-cache writes")
    parser.add_argument("--name", default="",
                        help="node name in logs/metrics (default wow.VIP)")
    parser.add_argument("--bundle-out", metavar="DIR",
                        help="export the observability bundle here on "
                             "shutdown (audit with repro.check.posthoc)")
    parser.add_argument("--paper-timers", action="store_true",
                        help="use the paper's conservative protocol "
                             "timers instead of the deployment defaults")
    return parser


async def amain(args: argparse.Namespace) -> int:
    daemon = WowDaemon(
        vip=args.vip,
        listen=args.listen,
        seed_uris=[Uri.parse(u) for u in args.seed_uri],
        control_path=args.control,
        peer_cache_path=args.peer_cache,
        cache_interval=args.cache_interval,
        config=(BrunetConfig(wire_mode="codec") if args.paper_timers
                else DAEMON_CONFIG),
        name=args.name,
        bundle_out=args.bundle_out,
    )
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(
            sig, daemon.request_shutdown, signal.Signals(sig).name)
    await daemon.start()
    print(f"{daemon.name}: up on {daemon.transport.local_endpoint} "
          f"addr={daemon.node.addr.hex()[:12]}… "
          f"control={args.control or '-'}", flush=True)
    await daemon.wait()
    print(f"{daemon.name}: drained ({daemon.exit_reason})", flush=True)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return asyncio.run(amain(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        return 0


if __name__ == "__main__":
    sys.exit(main())
