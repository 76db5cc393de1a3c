"""Host-speed normalisation for the benchmark's timings.

On a shared virtual machine one vCPU's speed drifts by up to ~1.6x over
seconds (measured with a fixed loop on a 2-vCPU guest: 84–136 ms for the
same work, the two vCPUs uncorrelated), so raw times from runs made
minutes apart disagree far more than any bound a regression gate could
use.  The benchmark therefore interleaves a fixed probe with the
workload, on the same thread, every ``PERIOD_S`` of host time, and
reports *reference seconds*: host seconds rescaled to a host on which the
probe takes ``REF_PROBE_S``.  The probe has three parts, because each
drifts differently and the workloads spend time in all three:
interpreter arithmetic, memory latency, and the kernel's loopback socket
path.  Adding the third part cut the spread of ten ``live_pair`` runs'
``wall_s`` from 8.4% to 2.8%, and of twelve identical ``meme_pbs``
repetitions from 10.5% to 7.4%.  A change that makes the program slower
still reads slower, because the probe's own work never changes; only the
host's momentary speed cancels.  Probe time itself is excluded.
"""

from __future__ import annotations

import bisect
import socket
from array import array
from time import perf_counter

import numpy as np

#: geometric mean of the probe's parts on the reference host (seconds);
#: about what a quiet 2-vCPU cloud guest measures
REF_PROBE_S = 0.5e-3
#: host seconds between probes
PERIOD_S = 0.1
ARITH_ITERATIONS = 4000
CHASE_ITERATIONS = 8000
#: 2^19 four-byte slots (2 MiB): larger than a core's private caches
CHASE_SLOTS = 1 << 19
LOOPBACK_ROUND_TRIPS = 50


def _arith(n: int = ARITH_ITERATIONS) -> int:
    """Interpreter dispatch and integer arithmetic: tracks vCPU speed."""
    acc = 0
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFF
        acc ^= acc >> 3
    return acc


def _chase(perm: array, n: int = CHASE_ITERATIONS) -> int:
    """Dependent random reads over a buffer larger than private caches:
    tracks the memory latency a cache-hungry neighbour inflicts."""
    i = 0
    for _ in range(n):
        i = perm[i]
    return i


def _cycle(slots: int, seed: int = 1) -> array:
    """A single random cycle through every slot, so the chase never
    settles into a short loop."""
    order = np.random.default_rng(seed).permutation(slots)
    nxt = np.empty(slots, dtype=np.int32)
    nxt[order] = np.roll(order, -1)
    return array("i", nxt.tobytes())


def _loopback(a: socket.socket, b: socket.socket,
              n: int = LOOPBACK_ROUND_TRIPS) -> None:
    """UDP round trips between two loopback sockets: tracks the kernel's
    send/receive path, which a live workload pays on every datagram."""
    to_b, to_a = b.getsockname(), a.getsockname()
    for _ in range(n):
        a.sendto(b"probe", to_b)
        b.recv(64)
        b.sendto(b"probe", to_a)
        a.recv(64)


class HostSpeed:
    """Probe samples over one process's run, and the rescaling they imply.
    The probe's two loopback sockets are released by :meth:`close`."""

    def __init__(self):
        #: (start, end) host times of each probe, in order
        self.starts: list[float] = []
        self.ends: list[float] = []
        #: each probe's duration: geometric mean of its three parts
        self.durations: list[float] = []
        self._perm = _cycle(CHASE_SLOTS)
        self._socks: list[socket.socket] = []
        for _ in range(2):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.settimeout(1.0)
            sock.bind(("127.0.0.1", 0))
            self._socks.append(sock)
        self._last = -1e9

    def close(self) -> None:
        for sock in self._socks:
            sock.close()
        self._socks = []

    def probe(self) -> None:
        t0 = perf_counter()
        _arith()
        t1 = perf_counter()
        _chase(self._perm)
        t2 = perf_counter()
        _loopback(*self._socks)
        t3 = perf_counter()
        self.starts.append(t0)
        self.ends.append(t3)
        self.durations.append(((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1 / 3))
        self._last = t3

    def maybe_probe(self) -> None:
        if perf_counter() - self._last >= PERIOD_S:
            self.probe()

    def _factor(self, i: int, j: int) -> float:
        """Reference seconds per host second between probes i and j."""
        return REF_PROBE_S / ((self.durations[i] + self.durations[j]) / 2.0)

    def ref_seconds(self, a: float, b: float) -> float:
        """Reference seconds in host interval [a, b], probe time excluded.

        Between two probes the factor is the mean of the two; before the
        first or after the last probe the nearest probe's factor holds.
        Callers probe at both ends of a phase so that it is bracketed.
        """
        if b <= a:
            return 0.0
        n = len(self.starts)
        if n == 0:
            raise RuntimeError("no host-speed probe taken")
        total = 0.0
        # gaps between probes: gap k runs from ends[k-1] to starts[k];
        # gap 0 is everything before the first probe, gap n after the last
        k = max(0, bisect.bisect_right(self.ends, a))
        while k <= n:
            lo = self.ends[k - 1] if k > 0 else -float("inf")
            hi = self.starts[k] if k < n else float("inf")
            if lo >= b:
                break
            seg = min(b, hi) - max(a, lo)
            if seg > 0:
                i, j = max(0, k - 1), min(n - 1, k)
                total += seg * self._factor(i, j)
            k += 1
        return total
