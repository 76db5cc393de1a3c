"""``obs.top`` — a live, refreshing dashboard for a running overlay.

Two attach modes:

* **in-process** — wrap a :class:`Top` around any kernel (a
  :class:`~repro.sim.engine.Simulator` or a
  :class:`~repro.transport.runtime.RealtimeKernel`) and call
  :meth:`Top.render` between simulation slices; ``python -m
  repro.obs.top --sim churn`` does exactly that against an inline churn
  overlay, repainting as simulated time advances;
* **control socket** — ``python -m repro.obs.top --connect SOCK`` polls
  the ``stats`` command of a daemon's unix control socket (``python -m
  repro.apps.daemon … --control SOCK``, the same socket
  :mod:`repro.apps.wowctl` uses), so a long-running live-UDP daemon can
  be watched from another process.

The dashboard shows event rate, kernel health (backlog / tombstones /
compactions), route + IPOP traffic rates, wire decode errors, profiler
category shares and hot nodes (when the kernel profiler is attached),
and address-ring sector health (when a
:class:`~repro.obs.metrics.SectorRollup` is registered) — per-sector,
O(sectors) rows, never O(n) per repaint.

Rendering is plain text (ANSI home+clear between frames); ``--curses``
upgrades to a curses screen when the terminal supports it.  Everything
is read-only: attaching a dashboard never changes a run's trajectory.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any, Optional

from repro.apps.wowctl import ControlError, control_call

#: metric names whose per-node children feed the hot-node table
_NODE_ACTIVITY = ("brunet.route.sent", "brunet.route.forwarded",
                  "brunet.route.delivered")
_NODE_EXTRA = ("wire.decode_error",)


# ---------------------------------------------------------------------------
# snapshot building (shared by in-process mode and the control socket)
# ---------------------------------------------------------------------------

def build_stats(kernel: Any, top_nodes: int = 8) -> dict:
    """One JSON-ready dashboard snapshot from a live kernel.

    Read-only and bounded: aggregate sums are O(series names), the node
    table is capped at ``top_nodes`` rows, sectors at O(sectors), and the
    profiler block at its own top-K.
    """
    obs = kernel.obs
    rows = obs.metrics.snapshot()
    sums: dict[str, float] = {}
    per_node: dict[str, dict[str, float]] = {}
    for row in rows:
        name = row["name"]
        if row["type"] == "histogram":
            sums[name + ".count"] = sums.get(name + ".count", 0) \
                + row["count"]
            continue
        value = row.get("value", 0)
        sums[name] = sums.get(name, 0) + value
        node = row["labels"].get("node")
        if node is not None and (name in _NODE_ACTIVITY
                                 or name in _NODE_EXTRA):
            per_node.setdefault(node, {})[name] = value
    hot = sorted(
        per_node.items(),
        key=lambda kv: (-sum(kv[1].get(n, 0) for n in _NODE_ACTIVITY),
                        kv[0]))[:top_nodes]
    out: dict[str, Any] = {
        "t": kernel.now,
        "events": kernel.events_processed,
        "sums": sums,
        "nodes": [{"node": n, **vals} for n, vals in hot],
    }
    pending = getattr(kernel, "pending", None)
    if pending is not None:
        out["backlog"] = pending()
        queue = getattr(kernel, "_queue", ())
        out["tombstone_ratio"] = (getattr(kernel, "_heap_dead", 0)
                                  / len(queue)) if queue else 0.0
        out["compactions"] = getattr(kernel, "compactions", 0)
    rollup = getattr(obs, "rollup", None)
    if rollup is not None:
        out["sectors"] = rollup.refresh()
    profiler = getattr(obs, "profiler", None)
    if profiler is not None and profiler.events:
        summary = profiler.summary(top_handlers=5)
        out["profile"] = {"categories": summary["categories"],
                          "handlers": summary["handlers"],
                          "hot_nodes": summary["hot_nodes"][:top_nodes],
                          "health": summary["health"],
                          "events": summary["events"],
                          "wall_s": summary["wall_s"]}
    return out


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt_bytes(n: float) -> str:
    for unit in ("B", "kB", "MB", "GB"):
        if abs(n) < 1000:
            return f"{n:.1f}{unit}"
        n /= 1000.0
    return f"{n:.1f}TB"


def _rate(cur: dict, prev: Optional[dict], name: str, dt: float) -> str:
    if prev is None or dt <= 0:
        return ""
    d = cur["sums"].get(name, 0) - prev["sums"].get(name, 0)
    return f" (+{d / dt:.1f}/s)" if d else ""


def _bar(frac: float, width: int = 24) -> str:
    return "#" * max(0, min(width, int(round(frac * width))))


def render_stats(cur: dict, prev: Optional[dict] = None,
                 wall_dt: Optional[float] = None,
                 width: int = 78) -> str:
    """Render one dashboard frame from a snapshot (and its predecessor,
    for rates).  Pure function of its inputs — unit-testable offline."""
    sums = cur["sums"]
    lines: list[str] = []
    dt_sim = (cur["t"] - prev["t"]) if prev else 0.0
    ev = cur["events"] - (prev["events"] if prev else 0)
    rate_bits = []
    if prev and dt_sim > 0:
        rate_bits.append(f"{ev / dt_sim:,.0f} ev/sim-s")
    if prev and wall_dt and wall_dt > 0:
        rate_bits.append(f"{ev / wall_dt:,.0f} ev/wall-s")
    head = (f"wow obs.top  t={cur['t']:.1f}s  "
            f"events={cur['events']:,}"
            + (f"  [{' | '.join(rate_bits)}]" if rate_bits else ""))
    lines.append(head[:width])
    if "backlog" in cur:
        lines.append(
            f"kernel   backlog={cur['backlog']}  "
            f"tombstones={cur.get('tombstone_ratio', 0) * 100:.0f}%  "
            f"compactions={cur.get('compactions', 0)}")
    dt = dt_sim if dt_sim > 0 else (wall_dt or 0.0)
    lines.append(
        "routes   "
        f"sent={sums.get('brunet.route.sent', 0):g}"
        f"{_rate(cur, prev, 'brunet.route.sent', dt)}  "
        f"fwd={sums.get('brunet.route.forwarded', 0):g}  "
        f"dlvd={sums.get('brunet.route.delivered', 0):g}"
        f"{_rate(cur, prev, 'brunet.route.delivered', dt)}")
    lines.append(
        "traffic  "
        f"encap={_fmt_bytes(sums.get('ipop.encap_bytes', 0))}"
        f"{_rate(cur, prev, 'ipop.encap_bytes', dt)}  "
        f"decap={_fmt_bytes(sums.get('ipop.decap_bytes', 0))}  "
        f"link ok/fail="
        f"{sums.get('linking.successes', 0):g}/"
        f"{sums.get('linking.failures', 0):g}")
    lines.append(
        "wire     "
        f"tx={_fmt_bytes(sums.get('wire.tx_bytes', 0))}"
        f"{_rate(cur, prev, 'wire.tx_bytes', dt)}  "
        f"rx={_fmt_bytes(sums.get('wire.rx_bytes', 0))}  "
        f"decode_err={sums.get('wire.decode_error', 0):g}  "
        f"body_drop={sums.get('wire.body_decode_drop', 0):g}  "
        f"opaque={sums.get('wire.opaque_frames', 0):g}")
    prof = cur.get("profile")
    if prof:
        total = prof["wall_s"] or 1e-12
        cats = sorted(prof["categories"].items(),
                      key=lambda kv: -kv[1]["time_s"])
        lines.append("profile  " + "  ".join(
            f"{cat}={agg['time_s'] / total * 100:.0f}%"
            for cat, agg in cats[:6]))
        health = prof["health"]
        lines.append(
            f"         slowest={health['max_handler_ms']:.2f}ms "
            f"{health['max_handler'].rsplit('.', 2)[-1]}  "
            f"hot: " + " ".join(
                f"{h['node']}({h['time_s'] * 1e3:.0f}ms)"
                for h in prof["hot_nodes"][:5]))
    sectors = cur.get("sectors")
    if sectors:
        lines.append(f"ring     {len(sectors)} sectors "
                     "(nodes/conns/dlvd per arc)")
        peak = max((s["conns"] for s in sectors), default=0) or 1
        for s in sectors:
            lines.append(
                f"  [{s['sector']}] n={s['nodes']:<4d} "
                f"c={s['conns']:<5d} d={s['route_dlvd']:<7d} "
                f"{_bar(s['conns'] / peak)}")
    if cur.get("nodes"):
        lines.append("hot nodes  (sent/fwd/dlvd/decode_err)")
        for row in cur["nodes"]:
            lines.append(
                f"  {row['node']:<16s} "
                f"{row.get('brunet.route.sent', 0):>7g} "
                f"{row.get('brunet.route.forwarded', 0):>7g} "
                f"{row.get('brunet.route.delivered', 0):>7g} "
                f"{row.get('wire.decode_error', 0):>5g}")
    return "\n".join(line[:width] for line in lines)


class Top:
    """Stateful in-process dashboard: keeps the previous snapshot so
    successive :meth:`render` calls show rates."""

    def __init__(self, kernel: Any, width: int = 78, top_nodes: int = 8):
        self.kernel = kernel
        self.width = width
        self.top_nodes = top_nodes
        self._prev: Optional[dict] = None
        self._prev_wall: Optional[float] = None

    def render(self) -> str:
        """One frame; read-only against the kernel."""
        wall = time.perf_counter()
        cur = build_stats(self.kernel, top_nodes=self.top_nodes)
        wall_dt = (wall - self._prev_wall
                   if self._prev_wall is not None else None)
        out = render_stats(cur, self._prev, wall_dt, width=self.width)
        self._prev = cur
        self._prev_wall = wall
        return out


# ---------------------------------------------------------------------------
# control-socket client
# ---------------------------------------------------------------------------

def fetch_stats(sock: str, timeout: float = 2.0) -> dict:
    """Poll one snapshot through a daemon's control socket (blocking;
    raises :class:`~repro.apps.wowctl.ControlError` when the daemon is
    gone)."""
    return control_call(sock, "stats", timeout=timeout)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _paint(frame: str, plain: bool, out) -> None:
    if plain:
        print(frame, file=out)
        print(file=out, flush=True)
    else:
        out.write("\x1b[H\x1b[2J" + frame + "\n")
        out.flush()


def _watch_socket(args, out) -> int:
    prev: Optional[dict] = None
    prev_wall: Optional[float] = None
    frames = 0
    while args.frames is None or frames < args.frames:
        try:
            cur = fetch_stats(args.connect, timeout=args.timeout)
        except ControlError as exc:
            print(f"control socket {exc}", file=sys.stderr)
            return 1
        wall = time.perf_counter()
        wall_dt = wall - prev_wall if prev_wall is not None else None
        _paint(render_stats(cur, prev, wall_dt, width=args.width),
               args.plain, out)
        prev, prev_wall = cur, wall
        frames += 1
        if args.frames is None or frames < args.frames:
            time.sleep(args.interval)
    return 0


def _watch_sim(args, out) -> int:
    """Inline demo/smoke mode: run a churn overlay and repaint the
    dashboard as simulated time advances."""
    from repro.brunet.config import BrunetConfig
    from repro.experiments.churn_recovery import _build_overlay
    from repro.sim.engine import Simulator

    sim = Simulator(seed=args.seed, trace=False)
    if args.profile:
        sim.obs.enable_profiler()
    _internet, nodes, _routers = _build_overlay(sim, args.nodes,
                                                BrunetConfig())
    sim.obs.enable_rollup(lambda: [n for n in nodes if n.active],
                          sectors=args.sectors)
    top = Top(sim, width=args.width)
    frames = args.frames if args.frames is not None else 20
    for i in range(frames):
        sim.run(until=sim.now + args.sim_dt)
        _paint(top.render(), args.plain, out)
        if args.interval and i + 1 < frames:
            time.sleep(args.interval)
    return 0


def main(argv: Optional[list[str]] = None, out=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.top",
        description="Live dashboard for a running overlay (in-process "
                    "sim demo or a live daemon's control socket).")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--connect", metavar="SOCK",
                      help="poll a daemon's unix control socket "
                           "(see repro.apps.daemon --control)")
    mode.add_argument("--sim", choices=["churn"],
                      help="run an inline simulated overlay and watch it")
    parser.add_argument("--interval", type=float, default=1.0,
                        help="wall seconds between repaints (default 1)")
    parser.add_argument("--frames", type=int, default=None,
                        help="stop after N frames (default: forever; "
                             "sim mode defaults to 20)")
    parser.add_argument("--timeout", type=float, default=2.0,
                        help="control-socket poll timeout")
    parser.add_argument("--width", type=int, default=78)
    parser.add_argument("--plain", action="store_true",
                        help="append frames instead of clearing the "
                             "screen (logs, CI)")
    parser.add_argument("--curses", action="store_true",
                        help="render inside a curses screen when the "
                             "terminal supports it")
    parser.add_argument("--nodes", type=int, default=12,
                        help="overlay size for --sim (default 12)")
    parser.add_argument("--sectors", type=int, default=8,
                        help="ring sectors for the rollup (default 8)")
    parser.add_argument("--sim-dt", type=float, default=10.0,
                        help="simulated seconds per frame (default 10)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", action="store_true",
                        help="attach the kernel profiler in --sim mode")
    args = parser.parse_args(argv)
    out = out or sys.stdout

    runner = _watch_socket if args.connect else _watch_sim
    if args.curses and out is sys.stdout and sys.stdout.isatty():
        try:
            import curses
        except ImportError:  # pragma: no cover - platform-dependent
            args.curses = False
        else:  # pragma: no cover - needs a real terminal
            class _CursesOut:
                def __init__(self, screen):
                    self.screen = screen

                def write(self, text: str) -> None:
                    self.screen.erase()
                    plain = text.replace("\x1b[H\x1b[2J", "")
                    maxy, maxx = self.screen.getmaxyx()
                    for y, line in enumerate(plain.splitlines()[:maxy - 1]):
                        self.screen.addnstr(y, 0, line, maxx - 1)

                def flush(self) -> None:
                    self.screen.refresh()

            return curses.wrapper(
                lambda screen: runner(args, _CursesOut(screen)))
    return runner(args, out)


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    sys.exit(main())
