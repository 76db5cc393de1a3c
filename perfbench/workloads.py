"""The three benchmark workloads: what each runs, why it was chosen, which
layers it bypasses, how its outputs are checked, and its fingerprint.

Each workload is reached only through the public entry points of
``repro.experiments`` and ``repro.apps`` and is given only
workload-shaping arguments (sizes, seed, horizons, job counts) — never
kernel, timer or wire-mode switches — so deleting the timer wheel, the
sharded kernel or the UDP demo needs no edit here.

Every workload reports the same end-to-end metrics, all timings in
reference seconds (see ``speed.py``):

* ``setup_s`` — time until the measured phase starts;
* ``wall_s`` — time of the measured phase, a fixed amount of work (a
  fixed job count, a fixed simulated horizon, a fixed batch of echoes);
* ``op_p50_ms`` / ``op_p99_ms`` — time per operation, taken at the
  operation's completion.  On ``live_pair`` an operation is one tunnelled
  ICMP echo, timed from send to reply over loopback.  On the simulated
  workloads it is one slice of simulated time: how long the kernel takes
  to advance the overlay by that much, which shows stalls a mean hides;
* ``peak_rss_mb`` — peak resident set of the process that ran this one
  repetition (each repetition runs in a fresh process, since
  ``ru_maxrss`` only grows).
"""

from __future__ import annotations

import asyncio
import math
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from speed import HostSpeed

#: fig8 band on the shortcut-enabled mean job wall-clock, as asserted by
#: benchmarks/test_bench_fig8.py (paper: 24.1 s ± 6.5)
MEME_PAPER_WALL = 24.1
MEME_WALL_TOL = 4.0
MEME_SCALE = 0.5
MEME_JOBS = 600
MEME_SLICE_S = 0.5

RING_NODES = 1000
RING_SETTLE = 45.0
RING_CHURN = 0.01
RING_HORIZON = 200.0
#: the warm ring's batched timers fire on whole seconds, so a finer
#: slice would alternate between busy and empty
RING_SLICE_S = 1.0

#: echoes kept outstanding by the closed-loop client, echoes per run, and
#: echoes per batch (the host-speed probe runs between batches, never
#: while an echo is in flight)
LIVE_WINDOW = 2
LIVE_ECHOES = 4000
LIVE_BATCH = 250
LIVE_ECHO_TIMEOUT = 1.0
LIVE_SETUP_TIMEOUT = 20.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: layers this workload is expected not to exercise
    bypasses: tuple[str, ...]
    #: what one operation is, for op_p50_ms / op_p99_ms
    op: str
    run: Callable[[int], dict]


class SliceClock:
    """Kernel time per slice of simulated time.

    Wraps ``Simulator.step`` (every shard of a sharded kernel is a
    ``Simulator``) to notice each slice boundary and to take the
    host-speed probe on schedule, and the kernels' ``run`` so that host
    time spent between runs (the experiment's own sampling and audits,
    which ``wall_s`` still counts) is left out of the slices.  The
    wrappers only read clocks, so the event trajectory is unchanged.
    Idle simulated slices cost nothing and are recorded as zero-length.
    """

    def __init__(self, width: float, speed: HostSpeed):
        self.width = width
        self.speed = speed
        #: (host time, boundaries crossed) per crossing
        self.crossings: list[tuple[float, int]] = []
        #: host intervals of the outermost kernel runs
        self.runs: list[tuple[float, float]] = []
        self._next = math.inf
        self._armed_at = 0.0
        self._depth = 0
        self._run_start = 0.0

    def install(self) -> None:
        from repro.sim.engine import Simulator
        from repro.sim.shards import ShardedKernel
        orig_step = Simulator.step
        clock, speed = self, self.speed

        def step(sim):
            ran = orig_step(sim)
            speed.maybe_probe()
            if sim.now >= clock._next:
                clock._cross(sim.now)
            return ran
        Simulator.step = step
        for cls in (Simulator, ShardedKernel):
            cls.run = self._timed_run(cls.run)

    def _timed_run(self, orig):
        clock = self

        def run(kernel, *args, **kwargs):
            clock._depth += 1
            if clock._depth == 1:
                clock._run_start = perf_counter()
            try:
                return orig(kernel, *args, **kwargs)
            finally:
                clock._depth -= 1
                if clock._depth == 0:
                    clock.runs.append((clock._run_start, perf_counter()))
        return run

    def arm(self, sim_now: float) -> None:
        self._armed_at = perf_counter()
        self._next = (math.floor(sim_now / self.width) + 1) * self.width

    def disarm(self) -> None:
        self._next = math.inf

    def _cross(self, now: float) -> None:
        crossed = math.floor((now - self._next) / self.width) + 1
        self.crossings.append((perf_counter(), crossed))
        self._next += crossed * self.width

    def ops_ms(self) -> list[float]:
        """Reference milliseconds of kernel time in each completed slice."""
        out: list[float] = []
        runs = self.runs
        r = 0
        prev = self._armed_at
        for t, crossed in self.crossings:
            while r < len(runs) and runs[r][1] <= prev:
                r += 1
            spent = 0.0
            k = r
            while k < len(runs) and runs[k][0] < t:
                spent += self.speed.ref_seconds(max(prev, runs[k][0]),
                                                min(t, runs[k][1]))
                k += 1
            out.append(spent * 1e3)
            out.extend([0.0] * (crossed - 1))
            prev = t
        return out


# ---------------------------------------------------------------------------
# meme_pbs
# ---------------------------------------------------------------------------
def run_meme_pbs(seed: int) -> dict:
    from repro.experiments import fig8_meme_histogram as fig8
    from repro.experiments.common import make_testbed

    speed = HostSpeed()
    clock = SliceClock(MEME_SLICE_S, speed)
    clock.install()
    try:
        speed.probe()
        t0 = perf_counter()
        setup = make_testbed(seed=seed, scale=MEME_SCALE, shortcuts=True)
        t1 = perf_counter()
        speed.probe()
        clock.arm(setup.sim.now)
        result = fig8.run_one(shortcuts=True, seed=seed, scale=MEME_SCALE,
                              n_jobs=MEME_JOBS, setup=setup)
        t2 = perf_counter()
        clock.disarm()
        speed.probe()
    finally:
        speed.close()
    sim = setup.sim
    return {
        "setup_s": speed.ref_seconds(t0, t1),
        "wall_s": speed.ref_seconds(t1, t2),
        "raw": {"setup_s": t1 - t0, "wall_s": t2 - t1},
        "ops_ms": clock.ops_ms(),
        "attempted": result.n_jobs,
        "failed": result.n_jobs - result.completed,
        "checks": {
            "all_jobs_completed": result.completed == result.n_jobs,
            "job_wall_mean_in_paper_band":
                abs(result.wall_mean - MEME_PAPER_WALL) < MEME_WALL_TOL,
        },
        "fingerprint": {
            "events_processed": sim.events_processed,
            "sim_time": sim.now,
            "job_wall_mean_s": result.wall_mean,
            "jobs_per_min": result.throughput_jpm,
        },
        "info": {},
        "kernel_counts": {"events": sim.events_processed},
        "registries": [sim.obs.metrics],
    }


# ---------------------------------------------------------------------------
# ring_1k
# ---------------------------------------------------------------------------
def run_ring_1k(seed: int) -> dict:
    from repro.experiments import scaling_10k

    speed = HostSpeed()
    clock = SliceClock(RING_SLICE_S, speed)
    clock.install()
    marks: dict = {}
    orig_build = scaling_10k.build_warm_overlay

    def timed_build(kernel, *args, **kwargs):
        speed.probe()
        marks["t0"] = perf_counter()
        out = orig_build(kernel, *args, **kwargs)
        marks["t1"] = perf_counter()
        marks["kernel"] = kernel
        speed.probe()
        clock.arm(kernel.now)
        return out

    scaling_10k.build_warm_overlay = timed_build
    try:
        point = scaling_10k.measure_point(
            RING_NODES, seed=seed, settle=RING_SETTLE,
            churn_fraction=RING_CHURN, churn_horizon=RING_HORIZON)
        t2 = perf_counter()
        clock.disarm()
        speed.probe()
    finally:
        speed.close()
    t0, t1, kernel = marks["t0"], marks["t1"], marks["kernel"]
    churn = point.churn
    return {
        "setup_s": speed.ref_seconds(t0, t1),
        "wall_s": speed.ref_seconds(t1, t2),
        "raw": {"setup_s": t1 - t0, "wall_s": t2 - t1},
        "ops_ms": clock.ops_ms(),
        "attempted": point.sample_pairs,
        "failed": point.unreachable,
        "checks": {
            "no_unreachable_pairs": point.unreachable == 0,
            "ring_recovered_within_horizon":
                churn.recovery_ring is not None
                and churn.recovery_ring <= churn.horizon,
            "all_routable_after_churn": churn.routable_end == 1.0,
            "audit_clean": not point.violations,
        },
        "fingerprint": {
            "events_processed": point.events,
            "sim_time": kernel.now,
            "mean_hops": point.mean_hops,
            "p95_hops": point.p95_hops,
            "recovery_ring_s": churn.recovery_ring,
            "cross_shard": point.cross_shard,
        },
        "info": {},
        "kernel_counts": {"events": point.events,
                          "cross_shard": point.cross_shard,
                          "rounds": point.rounds},
        "registries": [kernel.obs.metrics],
    }


# ---------------------------------------------------------------------------
# live_pair
# ---------------------------------------------------------------------------
def _vips(seed: int) -> tuple[str, str]:
    rng = random.Random(seed)
    a = f"10.128.{rng.randrange(256)}.{rng.randrange(2, 254)}"
    while True:
        b = f"10.128.{rng.randrange(256)}.{rng.randrange(2, 254)}"
        if b != a:
            return a, b


async def _live(seed: int) -> dict:
    from repro.apps.daemon import WowDaemon
    from repro.brunet.uri import Uri
    from repro.ipop.ippacket import IcmpEcho
    from repro.ipop.router import IpopRouter
    from repro.obs.metrics import merge_rows

    vip_a, vip_b = _vips(seed)
    # the seq of every echo each side sends: requests from a, replies
    # from b (b's router answers echoes itself)
    sent: dict[str, list[int]] = {vip_a: [], vip_b: []}
    orig_send_ip = IpopRouter.send_ip

    def send_ip(self, dst_ip, proto, port, payload, size):
        if isinstance(payload, IcmpEcho):
            sent[self.virtual_ip].append(payload.seq)
        return orig_send_ip(self, dst_ip, proto, port, payload, size)
    IpopRouter.send_ip = send_ip

    speed = HostSpeed()
    loop = asyncio.get_running_loop()
    speed.probe()
    t0 = perf_counter()
    a = WowDaemon(vip_a, name="a")
    b = None
    try:
        await a.start()
        b = WowDaemon(vip_b, seed_uris=[Uri.udp(*a.transport.local_endpoint)],
                      name="b")
        await b.start()
        deadline = loop.time() + LIVE_SETUP_TIMEOUT
        while not (a.node.in_ring and b.node.in_ring):
            if loop.time() > deadline:
                raise RuntimeError("live pair never formed a ring")
            await asyncio.sleep(0)
        while await a.ping(vip_b, timeout=LIVE_ECHO_TIMEOUT) is None:
            if loop.time() > deadline:
                raise RuntimeError("no echo answered during set-up")
        t1 = perf_counter()
        speed.probe()
        first_seq = len(sent[vip_a])

        ops_ms: list[float] = []
        state = {"lost": 0, "mismatched": 0, "wall": 0.0, "raw": 0.0}

        async def client(batch: list[float], quota: list[int]) -> None:
            while quota[0] > 0:
                quota[0] -= 1
                s = perf_counter()
                rtt = await a.ping(vip_b, timeout=LIVE_ECHO_TIMEOUT)
                e = perf_counter()
                if rtt is None:
                    state["lost"] += 1
                    batch.append(math.inf)
                    continue
                # the reply that resolved this call must carry this
                # call's own send stamp, so its kernel RTT fits inside
                # the host interval just timed
                if not 0.0 <= rtt <= (e - s) + 1e-3:
                    state["mismatched"] += 1
                batch.append(e - s)

        for _ in range(LIVE_ECHOES // LIVE_BATCH):
            batch: list[float] = []
            quota = [LIVE_BATCH]
            bs = perf_counter()
            await asyncio.gather(*(client(batch, quota)
                                   for _ in range(LIVE_WINDOW)))
            be = perf_counter()
            speed.probe()
            ref = speed.ref_seconds(bs, be)
            state["wall"] += ref
            state["raw"] += be - bs
            scale = ref / (be - bs) * 1e3
            ops_ms.extend(x * scale for x in batch)
        registries = [a.kernel.obs.metrics, b.kernel.obs.metrics]
        decode_errors = sum(merge_rows(r.snapshot(), "wire.decode_error")
                            for r in registries)
    finally:
        IpopRouter.send_ip = orig_send_ip
        if b is not None:
            await b.shutdown("bench")
        await a.shutdown("bench")
        speed.close()

    echoes = LIVE_ECHOES // LIVE_BATCH * LIVE_BATCH
    requests, replies = sent[vip_a][first_seq:], sent[vip_b][first_seq:]
    return {
        "setup_s": speed.ref_seconds(t0, t1),
        "wall_s": state["wall"],
        "raw": {"setup_s": t1 - t0, "wall_s": state["raw"]},
        "ops_ms": ops_ms,
        "attempted": echoes,
        "failed": state["lost"],
        "checks": {
            "reply_seqs_match_requests":
                len(requests) == echoes
                and len(set(replies)) == len(replies)
                and set(replies) <= set(requests)
                and state["mismatched"] == 0,
            "no_decode_errors": decode_errors == 0,
        },
        "fingerprint": {},
        "info": {"pings_per_s": (echoes - state["lost"]) / state["wall"]},
        "kernel_counts": {},
        "registries": registries,
    }


def run_live_pair(seed: int) -> dict:
    return asyncio.run(_live(seed))


WORKLOADS = {
    "meme_pbs": Workload(
        "meme_pbs",
        "the paper's application: MEME jobs at 1/s through PBS and NFS "
        "over ipop, brunet and NAT chains, with the shortcut overlord at "
        "work; set-up is real joins through NAT",
        bypasses=("wire", "transport.udp"),
        op=f"{MEME_SLICE_S:g} s of simulated time",
        run=run_meme_pbs),
    "ring_1k": Workload(
        "ring_1k",
        "a warm 1000-node ring settles, then a 1% crash-churn slice runs "
        "with sampled greedy hops: kernel timers, keep-alives and idle "
        "overlord ticks at scale, repair linking under churn",
        bypasses=("ipop", "middleware", "wire", "transport.udp"),
        op=f"{RING_SLICE_S:g} s of simulated time",
        run=run_ring_1k),
    "live_pair": Workload(
        "live_pair",
        "two daemons on loopback UDP in codec wire mode; a closed-loop "
        f"client keeps {LIVE_WINDOW} tunnelled echoes outstanding, as "
        "callers that wait for each reply do",
        bypasses=("sim", "phys", "middleware"),
        op="one tunnelled ICMP echo, send to reply over loopback",
        run=run_live_pair),
}
