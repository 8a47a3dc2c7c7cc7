"""Benchmark of the pseudoreal checker: seeded verdict workloads sent
through the CLI entry point, with a traced run for per-module spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one caller, each query is
`pseudoreal.cli.main(["--output", "structured", ...])` in-process):

  moduli-sweep  `moduli` at conductors 3, 5, 8, 12, 16, 24, 40 with rational
                and irrational r^2; L0 and L2 (`stabilizer` makes phi(n)
                `classify_sigma` calls, each a 120-triple `set_maps`), no
                sympy.  Exercises ROADMAP items 2 and 3.
  descent       `weil-check` at conductors 8, 12, 16, 24 with k in {2, 4}:
                full lifts (32 candidates through `extend_cyclic` and
                `cocycle_check`) and lifts with missing roots (sympy
                factorisation in `kth_roots`).  Exercises items 2 and 4.
  cli-geometry  short queries of nine subcommands at conductors 1-12, where
                building elements and documents (certified `approx`, JSON)
                costs more than convolution.  Bypasses items 3 and 4; an L0
                change that adds per-element overhead shows here.

A run is a number of whole rounds (see corpus.py), as close to --seconds as
whole rounds allow.  Every document is compared with the recorded reference
and checked against invariants computed by the benchmark.

--trace 0 reports the end-to-end metrics.  set-up time is measured five
times from process start to the first timed query (four set-up-only
processes, then the workload process) and reported as the median.  Every
timed end-to-end figure is scaled to a host of fixed speed by a
calibration timed in the same run (see hostspeed.py); the raw wall-time
figures are printed beside them.
--trace 1 runs the same rounds untraced and then traced, and reports the
per-layer metrics of the traced rounds, per round, with the tracing
overhead; these are raw wall-time figures.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402

SETUPS = 5
# calibrations before each set-up and after the last set-up-only one
CALIBRATIONS = 3
DEADLINE_S = 170.0

END_TO_END = {
    "verdicts_per_s": "1/s",
    "verdict_p50_ms": "ms",
    "verdict_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count/round"
    if name.endswith(".self_ms"):
        return "ms/round"
    if name.endswith("_verdicts_per_s"):
        return "1/s"
    return {"cli.doc_bytes": "bytes/round",
            "cyclotomic.fixed_field.seeds_per_field": "seeds/field",
            "moebius.set_maps.maps_per_call": "maps/call"}.get(name, "ratio")


class ChildFailed(Exception):
    pass


def _readline(proc, deadline):
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            raise ChildFailed("timed out")
        ready, _, _ = select.select([proc.stdout], [], [], left)
        if ready:
            line = proc.stdout.readline()
            if not line:
                raise ChildFailed(f"exited with {proc.wait()} before answering")
            return line.strip()


def _child(args, deadline, setup_only):
    """Start a worker; returns (perf_counter at start, set-up seconds,
    result dict or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k != "PSEUDOREAL_APPROX_BITS"}
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    try:
        if _readline(proc, deadline) != "ready":
            raise ChildFailed("no ready line")
        setup = time.perf_counter() - start
        result = None if setup_only else json.loads(_readline(proc, deadline))
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        if code != 0:
            raise ChildFailed(f"exited with {code}")
        return start, setup, result
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="pseudoreal benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("moduli-sweep", "descent", "cli-geometry"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    clock = hostspeed.Clock()
    try:
        spans = []     # (start, set-up seconds) of each set-up
        if not args.trace:
            for _ in range(SETUPS - 1):
                for _ in range(CALIBRATIONS):
                    clock.take()
                spans.append(_child(args, deadline, setup_only=True)[:2])
            for _ in range(CALIBRATIONS):
                clock.take()
        start, setup, res = _child(args, deadline, setup_only=False)
        spans.append((start, setup))
    except (ChildFailed, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: workload process failed: {exc}", file=sys.stderr)
        return 1

    env = res["environment"]
    print(f"workload {args.workload} seed {args.seed} rounds {res['rounds']} "
          f"queries {res['attempted']} failed {res['failed']} "
          f"failed_share {res['failed'] / res['attempted']:.4f}")
    print("environment " + json.dumps(env, sort_keys=True))
    for line in res["warmup_failures"] + res["failures"]:
        print(f"FAILED {line}")

    correct = (res["failed"] == 0 and not res["warmup_failures"]
               and res["threads"] == 1)
    if not args.trace:
        setups = [t for _, t in spans]
        # each set-up scaled by the calibrations just before and after it
        scaled = [t * clock.factor(start, start + t) for start, t in spans]
        raw = dict(res["raw"], setup_s=statistics.median(setups))
        run_f, setup_f = res["host_factor"], clock.factor()
        values = dict(res["scaled"], setup_s=statistics.median(scaled),
                      peak_rss_mb=res["peak_rss_mb"])
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}
        print(f"verdict_tail_ms is p{res['verdict_tail_percentile']:.1f} of "
              f"{res['attempted']} samples; setup_s is the median of "
              + ", ".join(f"{s:.3f}" for s in setups))
        print(f"host factor {run_f:.4f} over {res['calibrations']} calibrations "
              f"in the run, {setup_f:.4f} over {len(clock.samples)} around "
              f"set-up (calibration reference {hostspeed.REFERENCE_S} s); raw: "
              + " ".join(f"{k}={v:.4f}" for k, v in raw.items()))
    else:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in sorted(res["per_layer"].items())}
        if res["unexpected_zero"]:
            correct = False
            print("SELF-CHECK FAILED: zero on this workload: "
                  + ", ".join(res["unexpected_zero"]))
        print("trace sites " + json.dumps(res["trace_sites"], sort_keys=True))
    for name, m in metrics.items():
        print(f"{name:45s} {m['value']:14.4f} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
