"""One repetition of one workload, in its own process.

Prints one JSON object on its last line of standard output.  ``run.py``
starts one of these per repetition so that each reports its own peak
resident set (``ru_maxrss`` never falls within a process).

    python3 perfbench/rep.py --workload meme_pbs --seed 0 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ledger  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None,
                        help="traced runs: write the sampled span trees here")
    args = parser.parse_args(argv)

    run = WORKLOADS[args.workload].run
    led = None
    if args.trace:
        led = ledger.install()
        # probe time is the benchmark's, not the program's
        speed.HostSpeed.probe = led.span("other", "HostSpeed.probe",
                                         speed.HostSpeed.probe)
        out = led.run(run, args.seed)
    else:
        out = run(args.seed)
    registries = out.pop("registries")
    kernel_counts = out.pop("kernel_counts")
    # this process ran nothing else, so its peak is this repetition's
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["traced"] = bool(args.trace)
    if led is not None:
        out["layers"] = ledger.metrics(led, kernel_counts, registries)
        out["missing_hooks"] = led.missing
        if args.spans_out:
            out["spans_written"] = led.write_sample(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
