"""obs.top dashboard: snapshot building, rendering, the control-socket
client against a live daemon, CLI."""

import asyncio
import io

from repro.obs import top
from repro.sim.engine import Simulator


def _churn_sim(n_nodes=8, warm=120.0, profile=False, rollup=True):
    from repro.brunet.config import BrunetConfig
    from repro.experiments.churn_recovery import _build_overlay

    sim = Simulator(seed=2, trace=False)
    if profile:
        sim.obs.enable_profiler()
    _internet, nodes, _routers = _build_overlay(sim, n_nodes,
                                                BrunetConfig())
    if rollup:
        sim.obs.enable_rollup(lambda: [n for n in nodes if n.active],
                              sectors=4)
    sim.run(until=sim.now + warm)
    return sim, nodes


# ---------------------------------------------------------------------------
# build_stats
# ---------------------------------------------------------------------------

def test_build_stats_shape_and_read_only():
    sim, nodes = _churn_sim(profile=True)
    events_before = sim.events_processed
    pending_before = sim.pending()
    stats = top.build_stats(sim)
    # read-only: no events fired, nothing scheduled or cancelled
    assert sim.events_processed == events_before
    assert sim.pending() == pending_before
    assert stats["t"] == sim.now
    assert stats["events"] == events_before
    assert stats["sums"]["brunet.route.delivered"] > 0
    assert stats["backlog"] == pending_before
    assert len(stats["sectors"]) == 4
    assert stats["profile"]["events"] > 0
    assert stats["nodes"]  # hot-node table populated
    assert len(stats["nodes"]) <= 8
    top_row = stats["nodes"][0]
    assert "node" in top_row and "brunet.route.sent" in top_row


def test_build_stats_is_json_safe():
    import json

    sim, _nodes = _churn_sim(n_nodes=6, warm=60.0, profile=True)
    encoded = json.dumps(top.build_stats(sim), sort_keys=True)
    decoded = json.loads(encoded)
    assert decoded["events"] == sim.events_processed


def test_build_stats_caps_hot_nodes():
    sim, _nodes = _churn_sim(n_nodes=10, warm=60.0, rollup=False)
    stats = top.build_stats(sim, top_nodes=3)
    assert len(stats["nodes"]) == 3
    assert "sectors" not in stats


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_render_stats_panels():
    sim, _nodes = _churn_sim(profile=True)
    cur = top.build_stats(sim)
    text = top.render_stats(cur)
    assert "wow obs.top" in text
    assert "kernel" in text and "backlog=" in text
    assert "routes" in text and "wire" in text
    assert "profile" in text
    assert "ring     4 sectors" in text
    assert "hot nodes" in text
    # width cap holds on every line
    assert all(len(line) <= 78 for line in text.splitlines())


def test_render_stats_rates_between_frames():
    sim, _nodes = _churn_sim(n_nodes=6, warm=60.0)
    t = top.Top(sim)
    first = t.render()
    assert "ev/sim-s" not in first  # no previous frame yet
    sim.run(until=sim.now + 60.0)
    second = t.render()
    assert "ev/sim-s" in second


def test_top_render_is_read_only():
    sim, _nodes = _churn_sim(n_nodes=6, warm=60.0)
    t = top.Top(sim)
    t.render()
    before = sim.events_processed
    t.render()
    assert sim.events_processed == before


# ---------------------------------------------------------------------------
# live daemon (control socket)
# ---------------------------------------------------------------------------

async def _with_daemon(tmp_path, client):
    """Run blocking ``client(sock)`` in a thread against a live daemon's
    control socket; returns its result and the daemon's event count."""
    from repro.apps.daemon import WowDaemon

    sock = str(tmp_path / "n0.sock")
    daemon = WowDaemon("10.128.0.2", control_path=sock, name="n0")
    await daemon.start()
    daemon.kernel.obs.enable_profiler()
    daemon.kernel.schedule(0.0, lambda: None)
    await asyncio.sleep(0.05)
    try:
        result = await asyncio.to_thread(client, sock)
    finally:
        await daemon.shutdown("test")
    return result, daemon.kernel.events_processed


def test_stats_socket_round_trip(tmp_path):
    stats, events = asyncio.run(_with_daemon(tmp_path, top.fetch_stats))
    assert stats["ok"]
    assert 0 < stats["events"] <= events
    assert "sums" in stats and "profile" in stats
    # a frame renders from control-socket data alone
    assert "wow obs.top" in top.render_stats(stats)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_sim_mode_renders_frames():
    out = io.StringIO()
    rc = top.main(["--sim", "churn", "--nodes", "6", "--frames", "2",
                   "--interval", "0", "--sim-dt", "20", "--plain",
                   "--profile"], out=out)
    assert rc == 0
    text = out.getvalue()
    assert text.count("wow obs.top") == 2
    assert "profile" in text


def test_cli_connect_renders_frames_from_a_live_daemon(tmp_path):
    out = io.StringIO()
    rc, _events = asyncio.run(_with_daemon(tmp_path, lambda sock: top.main(
        ["--connect", sock, "--frames", "2", "--interval", "0", "--plain"],
        out=out)))
    assert rc == 0
    assert out.getvalue().count("wow obs.top") == 2


def test_cli_connect_unreachable_fails_cleanly(tmp_path, capsys):
    out = io.StringIO()
    rc = top.main(["--connect", str(tmp_path / "missing.sock"),
                   "--frames", "1", "--timeout", "0.2", "--plain"], out=out)
    assert rc == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "missing.sock" in err
    assert "Traceback" not in err
