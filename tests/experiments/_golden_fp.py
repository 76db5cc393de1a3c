"""Trajectory fingerprints for the pre/post-refactor golden tests.

A fingerprint is a sha256 over the *complete* tracer record stream of a
run (every category, every record, exact float reprs), so any change in
event order, timing, RNG draw sequence, or payload shows up.  The runs
used here are small (seconds each) but exercise joins, CTM handshakes,
linking, greedy routing, shortcut formation, crash-detection and repair —
the full overlay stack.

The module also runs as a script that (re)prints every expected digest::

    PYTHONPATH=src python -m tests.experiments._golden_fp
"""

from __future__ import annotations

import hashlib
import json


def _digest_records(tracer) -> str:
    h = hashlib.sha256()
    for cat in sorted(tracer.records):
        h.update(cat.encode())
        for t, data in tracer.records[cat]:
            h.update(repr((t, sorted(data.items()))).encode())
    return h.hexdigest()


def capture_churn(seed: int = 0) -> str:
    """Small churn_recovery run with tracing forced on (read-only)."""
    import repro.experiments.churn_recovery as churn
    from repro.sim.engine import Simulator

    created: list[Simulator] = []

    class _TracingSim(Simulator):
        def __init__(self, *args, **kwargs):
            kwargs["trace"] = True
            super().__init__(*args, **kwargs)
            created.append(self)

    orig = churn.Simulator
    churn.Simulator = _TracingSim
    try:
        res = churn.run(seed=seed, n_nodes=10, kill_fraction=0.3,
                        settle=200.0, horizon=260.0, sample_every=20.0)
    finally:
        churn.Simulator = orig
    sim = created[0]
    h = hashlib.sha256()
    h.update(_digest_records(sim.tracer).encode())
    h.update(repr((res.recovery_ring, res.recovery_routes,
                   res.n_killed, res.series)).encode())
    return h.hexdigest()


def capture_fig4(seed: int = 0) -> str:
    """One-trial fig4 join profile over a traced testbed."""
    from repro.experiments import fig4_join_profile
    from repro.experiments.common import make_testbed

    setup = make_testbed(seed=seed, scale=0.5, trace=True, settle=90.0)
    profiles = fig4_join_profile.run(seed=seed, trials_per_case=1,
                                     count=40, setup=setup)
    h = hashlib.sha256()
    h.update(_digest_records(setup.sim.tracer).encode())
    for case in sorted(profiles):
        p = profiles[case]
        h.update(repr((case, p.rtt_sum.tobytes(), p.rtt_n.tobytes(),
                       p.lost.tobytes(), p.shortcut_seqs)).encode())
    return h.hexdigest()


def capture_overlay(seed: int = 5) -> str:
    """A 10-node public overlay built one join every 2 s, then one node
    stopped (cancelling its timers, dropping its links) and 60 s of
    repair: joins, pings, drops and shortcut formation, event for event."""
    from repro.brunet import BrunetConfig, BrunetNode, random_address
    from repro.brunet.uri import Uri
    from repro.phys import Internet, Site
    from repro.sim.engine import Simulator

    sim = Simulator(seed=seed, trace=True)
    net = Internet(sim)
    site = Site(net, "pub")
    rng = sim.rng.stream("golden")
    boot = None
    nodes = []
    for i in range(10):
        h = site.add_host(f"h{i}")
        n = BrunetNode(sim, h, random_address(rng), BrunetConfig(),
                       name=f"n{i}")
        n.start([boot] if boot else [])
        if boot is None:
            boot = Uri.udp(h.ip, n.port)
        nodes.append(n)
        sim.run(until=sim.now + 2.0)
    nodes[3].stop()
    sim.run(until=sim.now + 60.0)
    return _digest_records(sim.tracer)


def capture_scaling(seed: int = 3) -> str:
    """Summary of a 32-node scaling point (hops, joins, reachability)."""
    from repro.experiments import scaling

    p = scaling.measure(32, seed=seed, sample_pairs=60)
    return hashlib.sha256(
        json.dumps(p.__dict__, sort_keys=True).encode()).hexdigest()


def capture_joincdf(seed: int = 1) -> str:
    """Per-trial route and direct-link join times over a NAT'd testbed."""
    from repro.experiments import join_latency_cdf

    r = join_latency_cdf.run(seed=seed, scale=0.25, trials=2, window=40.0)
    return hashlib.sha256(
        json.dumps([r.route_times, r.direct_times]).encode()).hexdigest()


if __name__ == "__main__":  # pragma: no cover - maintenance helper
    import time
    for name, capture in (("CHURN_FP", capture_churn),
                          ("FIG4_FP", capture_fig4),
                          ("OVERLAY_FP", capture_overlay),
                          ("SCALING_FP", capture_scaling),
                          ("JOINCDF_FP", capture_joincdf)):
        t0 = time.time()
        digest = capture()
        print(f"{name} = \"{digest}\"  # {time.time() - t0:.1f}s")
