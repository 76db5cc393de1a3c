"""The repo benchmark: ``meme_pbs``, ``ring_1k`` and ``live_pair``.

    python3 perfbench/run.py --workload all --seed 0 --seconds 40
    python3 perfbench/run.py --workload ring_1k --seed 3 --seconds 40 --trace 1

Each repetition runs in a fresh process (``rep.py``) with the same seed,
so the work is identical; repetitions start until ``--seconds`` is spent
(at least ``MIN_REPS``), and each metric is the median over repetitions.
Every repetition's outputs are checked, and the simulated workloads must
also reproduce the same fingerprint every time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer ledger, the
tracing overhead (traced over untraced ``wall_s``) and fails if a traced
repetition's fingerprint differs from an untraced one.  Sampled span
trees and the full ledger are written under ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when any check fails and 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: every repetition must finish well inside the run's 180 s limit
RUN_LIMIT_S = 170.0
MIN_REPS = 3
#: traced runs need at least this many repetitions of each kind
MIN_REPS_EACH = 2

#: what each end-to-end metric means, for the printed table; names and
#: units come from BENCHMARK.json
MEANING = {
    "setup_s": "reference seconds until the measured phase starts",
    "wall_s": "reference seconds of the measured phase",
    "op_p50_ms": "median reference ms per operation",
    "op_p99_ms": "99th-percentile reference ms per operation",
    "peak_rss_mb": "peak resident set of one repetition",
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); lost operations enter
    as ``inf`` and so miss every latency limit."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _rep(workload: str, seed: int, trace: int, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if trace:
        cmd += ["--spans-out", str(OUT / f"{workload}-seed{seed}.spans.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"repetition exceeded {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"rep.py exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def _plan_next(reps: list[dict], trace: int) -> int:
    """Trace mode of the next repetition: untraced first, then alternate."""
    if not trace:
        return 0
    return 0 if sum(not r["traced"] for r in reps) <= \
        sum(r["traced"] for r in reps) else 1


def _enough(reps: list[dict], trace: int) -> bool:
    if not trace:
        return len(reps) >= MIN_REPS
    traced = sum(r["traced"] for r in reps)
    return traced >= MIN_REPS_EACH and len(reps) - traced >= MIN_REPS_EACH


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 deadline: float) -> dict:
    """Run repetitions for ``seconds``; returns the aggregated result."""
    wl = WORKLOADS[name]
    reps: list[dict] = []
    durations: dict[int, list[float]] = {0: [], 1: []}
    t_start = perf_counter()
    errors: list[str] = []
    while True:
        mode = _plan_next(reps, trace)
        now = perf_counter()
        est = statistics.median(durations[mode]) if durations[mode] else 0.0
        if _enough(reps, trace) and now - t_start + est > seconds:
            break
        if reps and now + est * 1.5 > deadline:
            break
        t0 = perf_counter()
        rep = _rep(name, seed, mode, deadline - t0)
        if "error" in rep:
            errors.append(rep["error"])
            break
        durations[mode].append(perf_counter() - t0)
        reps.append(rep)

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    checks: dict[str, bool] = {}
    for r in reps:
        for k, ok in r["checks"].items():
            checks[k] = checks.get(k, True) and ok
    fingerprints = [json.dumps(r["fingerprint"], sort_keys=True)
                    for r in reps]
    if any(r["fingerprint"] for r in reps):
        checks["fingerprint_repeats"] = len(set(fingerprints)) == 1
        if trace and untraced and traced:
            plain = fingerprints[reps.index(untraced[0])]
            checks["tracing_is_read_only"] = all(
                fp == plain for r, fp in zip(reps, fingerprints)
                if r["traced"])
    if errors:
        checks["repetitions_ran"] = False
    correct = bool(reps) and not errors and all(checks.values())

    result = {"workload": wl, "reps": reps, "checks": checks,
              "errors": errors, "correct": correct,
              "attempted": sum(r["attempted"] for r in untraced or reps),
              "failed": sum(r["failed"] for r in untraced or reps),
              "metrics": {}, "counts": {}, "trace": trace}
    if not untraced:
        return result
    # a percentile per repetition, then the median over repetitions, so
    # one repetition caught in a slow spell cannot move the tail
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "op_p50_ms": statistics.median(percentile(r["ops_ms"], 50)
                                       for r in untraced),
        "op_p99_ms": statistics.median(percentile(r["ops_ms"], 99)
                                       for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    ops = sum(len(r["ops_ms"]) for r in untraced)
    result["counts"] = {"setup_s": len(untraced), "wall_s": len(untraced),
                        "op_p50_ms": ops, "op_p99_ms": ops,
                        "peak_rss_mb": len(untraced)}
    if not trace:
        result["metrics"] = {m["name"]: {"value": values[m["name"]],
                                         "unit": m["unit"]}
                             for m in _spec()["end_to_end"]}
        return result
    result["untraced"] = values
    if traced:
        layers = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in traced[0]["layers"]}
        layers["trace.overhead"] = (
            statistics.median(r["wall_s"] for r in traced) / values["wall_s"])
        result["metrics"] = {m["name"]: {"value": layers[m["name"]],
                                         "unit": m["unit"]}
                             for m in _spec()["per_layer"]}
        result["missing_hooks"] = sorted(
            {h for r in traced for h in r.get("missing_hooks", [])})
    return result


def _fmt(v: float) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(seed: int, res: dict) -> None:
    wl = res["workload"]
    reps = res["reps"]
    n_traced = sum(r["traced"] for r in reps)
    print(f"== {wl.name}  seed={seed}  repetitions={len(reps)} "
          f"(traced {n_traced})")
    print(f"   why: {wl.why}")
    print(f"   expected to bypass: {', '.join(wl.bypasses)}")
    print(f"   operation: {wl.op}")
    for err in res["errors"]:
        print(f"   ERROR: {err}")
    if res["trace"] == 0 and res["metrics"]:
        for name, m in res["metrics"].items():
            print(f"   {name:<14} {_fmt(m['value']):>12} {m['unit']:<5} "
                  f"n={res['counts'][name]:<7} {MEANING[name]}")
    if res["trace"] == 1 and res["metrics"]:
        for name, m in res["metrics"].items():
            print(f"   {name:<34} {_fmt(m['value']):>12} {m['unit']}")
        if res.get("missing_hooks"):
            print(f"   hooks not found: {', '.join(res['missing_hooks'])}")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{wl.name}-seed{seed}.ledger.json"
        path.write_text(json.dumps(
            {"untraced": res.get("untraced"), "metrics": res["metrics"],
             "per_repetition": [r.get("layers") for r in reps if r["traced"]]},
            indent=1, sort_keys=True))
        print(f"   ledger written to {path.relative_to(ROOT)}")
    plain = [r for r in reps if not r["traced"]] or reps
    if plain:
        attempted, failed = res["attempted"], res["failed"]
        frac = failed / attempted if attempted else 0.0
        print(f"   fail_frac      {_fmt(frac):>12} frac  n={attempted:<7} "
              f"failed over attempted operations")
        if "pings_per_s" in plain[0]["info"]:
            pps = statistics.median(r["info"]["pings_per_s"] for r in plain)
            print(f"   pings_per_s    {_fmt(pps):>12} 1/s   n={len(plain):<7} "
                  f"echoes per reference second, loopback")
        raw = {k: statistics.median(r["raw"][k] for r in plain)
               for k in plain[0]["raw"]}
        print("   unnormalised host seconds: "
              + ", ".join(f"{k}={_fmt(v)}" for k, v in raw.items()))
    if reps and reps[0]["fingerprint"]:
        print(f"   fingerprint: {json.dumps(reps[0]['fingerprint'], sort_keys=True)}")
    checks = ", ".join(f"{k}={'ok' if ok else 'FAILED'}"
                       for k, ok in res["checks"].items())
    print(f"   checks: {checks}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="meme_pbs, ring_1k, live_pair or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: program sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    if args.trace:
        OUT.mkdir(exist_ok=True)

    deadline = perf_counter() + RUN_LIMIT_S * len(names)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace,
                           min(deadline, perf_counter() + RUN_LIMIT_S))
        report(args.seed, res)
        results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload'].name}.{k}": m for r in results
                   for k, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, sum(r["attempted"] for r in results)),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
