"""Traced mode: a per-layer ledger built from the benchmark's own files.

Nothing under ``src/`` is edited.  :func:`install` replaces a set of the
program's entry points (class attributes and module functions) with
wrappers that open a span on entry and close it on exit; the program's
behaviour is untouched because every wrapper calls the original with the
same arguments and returns its result.  Two kinds of wrap:

* **boundary wrappers** around the calls one layer makes into another
  (``BrunetNode.route``, ``Overlord.tick_safe``, ``IpopRouter.send_ip``,
  ``codec.encode`` / ``codec.decode_lazy``, ``Internet.send``, the
  handler passed to ``Transport.open``, ...);
* **event tagging**: every callback scheduled on a kernel is wrapped at
  schedule time in a span named after the module that owns it, so time
  spent in handlers with no boundary wrapper still lands in the right
  layer instead of inflating the kernel's share.

A layer's self time is the time its spans cover minus the time their
child spans cover.  Spans stay in memory; a sample of whole span trees
(every ``SAMPLE_EVERY``-th unit of work the kernel loop hands out) is
written out as JSON lines at the end.
``obs`` gets no span of its own: its calls are too small for a span not
to swamp them.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

#: owning module prefix -> layer (layers are named after the repo's
#: modules; ``other`` is everything outside them), for callbacks with no boundary wrapper
#: (first match wins, so longer prefixes come first)
MODULE_LAYERS = (
    ("repro.brunet.overlords", "brunet.overlords"),
    ("repro.brunet.linking", "brunet.linking"),
    ("repro.brunet", "brunet.route"),
    ("repro.phys", "phys"),
    ("repro.fault", "phys"),
    ("repro.ipop", "ipop"),
    ("repro.wire", "wire"),
    ("repro.transport", "transport"),
    # the application side above ipop: middleware, the MEME/PBS apps and
    # the VMs that host them
    ("repro.middleware", "middleware"),
    ("repro.apps", "middleware"),
    ("repro.vm", "middleware"),
    ("repro.core", "middleware"),
    ("repro.sim", "sim"),
)

#: keep every N-th span tree for the written-out sample, up to a cap
SAMPLE_EVERY = 50
SAMPLE_CAP = 100_000


def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


def _module_of_file(path: str) -> str:
    """``.../src/repro/middleware/pbs/server.py`` -> ``repro.middleware.pbs.server``."""
    marker = "/repro/"
    i = path.rfind(marker)
    if i < 0:
        return ""
    return "repro." + path[i + len(marker):].removesuffix(".py").replace("/", ".")


class Ledger:
    """Span stack + per-layer and per-name accumulators."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.name_self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # frames are [layer, name, t0, child_time, record_index]
        self._stack: list[list] = []
        self._roots = 0
        self._recording = False
        self.records: list = []
        self._classified: dict = {}
        self.missing: list[str] = []

    # -- spans ------------------------------------------------------------
    def enter(self, layer: str, name: str) -> list:
        stack = self._stack
        if not stack or stack[-1][0] in ("sim", "other"):
            # a new tree: a unit of work the kernel loop or the workload
            # root (see run) hands out
            self._roots += 1
            self._recording = (self._roots % SAMPLE_EVERY == 0
                               and len(self.records) < SAMPLE_CAP)
        rec = -1
        if self._recording:
            rec = len(self.records)
            self.records.append(None)
        frame = [layer, name, perf_counter(), 0.0, rec]
        stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        t1 = perf_counter()
        stack = self._stack
        stack.pop()
        dur = t1 - frame[2]
        own = dur - frame[3]
        self.self_s[frame[0]] += own
        self.name_self_s[frame[1]] += own
        self.calls[frame[1]] += 1
        if stack:
            stack[-1][3] += dur
        if frame[4] >= 0:
            parent = stack[-1][4] if stack else -1
            self.records[frame[4]] = (frame[4], parent, frame[0], frame[1],
                                      frame[2], t1)

    def run(self, fn, *args):
        """Call ``fn(*args)`` under one root span in the ``other`` layer,
        so time outside every named layer (the experiment harness, the
        asyncio loop and its waits) is still accounted for."""
        frame = self.enter("other", "workload")
        try:
            return fn(*args)
        finally:
            self.exit(frame)

    def span(self, layer: str, name: str, fn):
        """``fn`` wrapped in a span (same signature, same result)."""
        enter, exit_ = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)

        wrapper._bench_span = True
        return wrapper

    # -- event tagging ------------------------------------------------------
    def classify(self, fn):
        """(layer, name) for a scheduled callback, or None when the
        callback already opens its own span."""
        target = getattr(fn, "__func__", fn)
        if isinstance(target, functools.partial):
            target = target.func
        if getattr(target, "_bench_span", False):
            return None
        key = getattr(target, "__code__", None) or type(target)
        got = self._classified.get(key)
        if got is None:
            module = getattr(target, "__module__", None) or \
                type(target).__module__
            name = getattr(target, "__qualname__", type(target).__name__)
            got = (layer_of_module(module), name)
            self._classified[key] = got
        return got

    def tag(self, fn):
        got = self.classify(fn)
        if got is None:
            return fn
        layer, name = got
        enter, exit_ = self.enter, self.exit

        def tagged(*args):
            frame = enter(layer, name)
            try:
                return fn(*args)
            finally:
                exit_(frame)
        return tagged

    # -- output -------------------------------------------------------------
    def write_sample(self, path: str) -> int:
        """Write the sampled span trees as JSON lines; returns the count.
        Fields: id, parent id (-1 = root), layer, name, start, end (host
        perf_counter seconds)."""
        n = 0
        with open(path, "w") as fh:
            for rec in self.records:
                if rec is None:  # tree still open when the run ended
                    continue
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "layer", "name", "t0", "t1"), rec))))
                fh.write("\n")
                n += 1
        return n


def _wrap_attr(ledger: Ledger, cls: type, attr: str, layer: str) -> None:
    """Replace ``cls.attr`` with a span-wrapped copy; a hook the program
    no longer has is reported, not fatal."""
    name = f"{cls.__name__}.{attr}"
    fn = cls.__dict__.get(attr)
    if fn is None:
        ledger.missing.append(name)
        return
    setattr(cls, attr, ledger.span(layer, name, fn))


def install() -> Ledger:
    """Wrap the program's layer entry points; returns the live ledger.
    Call before the workload builds anything."""
    from repro import wire
    from repro.brunet import linking, overlords
    from repro.brunet.messages import PingRequest
    from repro.brunet.node import BrunetNode
    from repro.ipop.router import IpopRouter
    from repro.middleware.rpc import RpcClient
    from repro.phys.flows import FlowManager
    from repro.phys.host import Host
    from repro.phys.network import Internet
    from repro.sim import engine, process, shards
    from repro.transport.runtime import RealtimeKernel
    from repro.transport.sim import SimTransport
    from repro.transport.udp import UdpTransport
    from repro.wire import codec

    led = Ledger()

    # -- sim: the kernel loops, schedule-time tagging, cancel counting --
    for owner in (engine.Simulator, shards.ShardedKernel):
        _wrap_attr(led, owner, "run", "sim")

    def tagging(orig):
        def schedule(self, t, fn, *args, priority=0):
            led.counts["sim.scheduled"] += 1
            return orig(self, t, led.tag(fn), *args, priority=priority)
        return schedule

    engine.Simulator.schedule_at = tagging(engine.Simulator.schedule_at)
    # the realtime kernel's schedule_at delegates to schedule
    RealtimeKernel.schedule = tagging(RealtimeKernel.schedule)
    _wrap_attr(led, RealtimeKernel, "_fire", "transport")

    orig_cancel = engine.Event.cancel

    def cancel(self):
        if self.pending:
            led.counts["sim.cancelled"] += 1
        orig_cancel(self)
    engine.Event.cancel = cancel

    # a process runs generator code owned by whichever layer wrote it
    orig_advance = process.Process._advance
    layer_of_code: dict = {}

    def advance(self, value):
        code = getattr(self.gen, "gi_code", None)
        got = layer_of_code.get(code)
        if got is None:
            module = _module_of_file(code.co_filename) if code else ""
            got = layer_of_code[code] = (
                layer_of_module(module),
                getattr(code, "co_qualname", "process"))
        frame = led.enter(*got)
        try:
            orig_advance(self, value)
        finally:
            led.exit(frame)
    advance._bench_span = True
    process.Process._advance = advance

    # -- phys -----------------------------------------------------------
    _wrap_attr(led, Internet, "send", "phys")
    _wrap_attr(led, Host, "deliver", "phys")
    flow_managers: list = []
    orig_fm_init = FlowManager.__init__

    def fm_init(self, *args, **kwargs):
        orig_fm_init(self, *args, **kwargs)
        flow_managers.append(self)
    FlowManager.__init__ = fm_init
    led.flow_managers = flow_managers

    # -- transport: sends, the live receive path, and the receive handler
    #    every transport is opened with (the node's datagram dispatch) --
    for cls in (SimTransport, UdpTransport):
        orig_send = cls.send

        def send(self, dst, msg, size_hint=0, _orig=orig_send):
            if type(msg) is PingRequest:
                led.counts["brunet.ping.keepalives"] += 1
            frame = led.enter("transport", "Transport.send")
            try:
                return _orig(self, dst, msg, size_hint)
            finally:
                led.exit(frame)
        send._bench_span = True
        cls.send = send

        orig_open = cls.open

        def open_(self, handler, _orig=orig_open):
            return _orig(self, led.tag(handler))
        cls.open = open_
    _wrap_attr(led, UdpTransport, "_on_datagram", "transport")

    # -- brunet ---------------------------------------------------------
    _wrap_attr(led, BrunetNode, "route", "brunet.route")
    for attr in ("_ping_tick", "_handle_ping_request", "_handle_ping_reply"):
        _wrap_attr(led, BrunetNode, attr, "brunet.ping")
    _wrap_attr(led, BrunetNode, "inspect_traffic", "brunet.overlords")
    for attr in ("start", "handle_request", "handle_reply", "handle_error"):
        _wrap_attr(led, linking.Linker, attr, "brunet.linking")

    orig_attempt_init = linking.LinkAttempt.__init__

    def attempt_init(self, *args, **kwargs):
        led.counts["brunet.linking.started"] += 1
        orig_attempt_init(self, *args, **kwargs)
    linking.LinkAttempt.__init__ = attempt_init

    orig_tick = overlords.Overlord.tick_safe

    def tick_safe(self):
        # idle = left the table version unchanged and started no attempt
        version = self.node.table.version
        started = led.counts["brunet.linking.started"]
        frame = led.enter("brunet.overlords", "Overlord.tick_safe")
        try:
            orig_tick(self)
        finally:
            led.exit(frame)
            led.counts["brunet.overlords.ticks"] += 1
            if (self.node.table.version == version
                    and led.counts["brunet.linking.started"] == started):
                led.counts["brunet.overlords.idle_ticks"] += 1
    tick_safe._bench_span = True
    overlords.Overlord.tick_safe = tick_safe

    # -- ipop, middleware -------------------------------------------------
    _wrap_attr(led, IpopRouter, "send_ip", "ipop")
    _wrap_attr(led, IpopRouter, "_on_encap", "ipop")
    _wrap_attr(led, RpcClient, "call", "middleware")

    # -- wire: callers reach the codec through module attributes ---------
    orig_encode = codec.encode

    def encode(msg):
        frame = led.enter("wire", "codec.encode")
        try:
            buf = orig_encode(msg)
        finally:
            led.exit(frame)
        led.counts["wire.tx_bytes"] += len(buf)
        return buf
    encode._bench_span = True
    decode_lazy = led.span("wire", "codec.decode_lazy", codec.decode_lazy)
    materialize = led.span("wire", "codec.materialize", codec.materialize)
    for mod in (codec, wire):
        mod.encode = encode
        mod.decode_lazy = decode_lazy
        mod.materialize = materialize
    return led


def _registry_sum(registries, name: str) -> float:
    from repro.obs.metrics import merge_rows
    return sum(merge_rows(reg.snapshot(), name) for reg in registries)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def metrics(led: Ledger, kernel_counts: dict, registries: list) -> dict:
    """The per-layer metrics for one traced repetition.

    ``kernel_counts`` holds the discrete-event kernel's own counters
    (``events``, ``cross_shard``, ``rounds``; zeros when no simulated
    kernel ran) and ``registries`` every ``obs`` metrics registry the
    workload created.
    """
    s = led.self_s
    calls = led.calls
    c = led.counts
    events = kernel_counts.get("events", 0)
    datagrams = calls["Internet.send"]
    hops = calls["BrunetNode.route"]
    attempts = _registry_sum(registries, "linking.attempts")
    frames = calls["codec.encode"]
    decodes = calls["codec.decode_lazy"]
    ticks = c["brunet.overlords.ticks"]
    recomputes = sum(fm.full_recomputes + fm.scoped_recomputes
                     for fm in led.flow_managers)
    out = {
        "sim.events": events,
        "sim.self_s": s["sim"],
        "sim.ns_per_event": _ratio(s["sim"], events, 1e9),
        "sim.cancelled_frac": _ratio(c["sim.cancelled"], c["sim.scheduled"]),
        "sim.cross_shard_frac": _ratio(kernel_counts.get("cross_shard", 0),
                                       events),
        "sim.rounds": kernel_counts.get("rounds", 0),
        "phys.datagrams": datagrams,
        "phys.self_s": s["phys"],
        "phys.us_per_datagram": _ratio(s["phys"], datagrams, 1e6),
        "phys.drops": _registry_sum(registries, "phys.drops"),
        "phys.flow_recomputes": recomputes,
        "brunet.overlords.ticks": ticks,
        "brunet.overlords.idle_tick_frac": _ratio(
            c["brunet.overlords.idle_ticks"], ticks),
        "brunet.overlords.self_s": s["brunet.overlords"],
        "brunet.ping.keepalives": c["brunet.ping.keepalives"],
        "brunet.ping.self_s": s["brunet.ping"],
        "brunet.route.forwarded": _registry_sum(registries,
                                                "brunet.route.forwarded"),
        "brunet.route.delivered": _registry_sum(registries,
                                                "brunet.route.delivered"),
        "brunet.route.self_s": s["brunet.route"],
        "brunet.route.us_per_hop": _ratio(s["brunet.route"], hops, 1e6),
        "brunet.linking.attempts": attempts,
        "brunet.linking.success_frac": _ratio(
            _registry_sum(registries, "linking.successes"), attempts),
        "brunet.linking.self_s": s["brunet.linking"],
        "ipop.packets": _registry_sum(registries, "ipop.encap_packets"),
        "ipop.self_s": s["ipop"],
        "middleware.rpc_calls": calls["RpcClient.call"],
        "middleware.self_s": s["middleware"],
        "wire.frames": frames,
        "wire.bytes_per_frame": _ratio(c["wire.tx_bytes"], frames),
        "wire.encode_us": _ratio(led.name_self_s["codec.encode"], frames,
                                 1e6),
        "wire.decode_us": _ratio(led.name_self_s["codec.decode_lazy"],
                                 decodes, 1e6),
        "wire.decode_error": _registry_sum(registries, "wire.decode_error"),
        "transport.self_s": s["transport"],
        "transport.socket_error": _registry_sum(registries,
                                                "wire.socket_error"),
        "other.self_s": s["other"],
    }
    return {k: float(v) for k, v in out.items()}
