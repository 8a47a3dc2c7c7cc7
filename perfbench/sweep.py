"""Run the benchmark once per seed and report each metric's median,
quartiles and spread ((q3 - q1) / median), the figures by which the
benchmark's steadiness is judged.

    python3 perfbench/sweep.py --workload NAME --seeds 301-310 [--seconds S]
                               [--trace 0|1] [--baseline]

--baseline stores the figures of this set of runs under the workload in
perfbench/baseline.json (with the traced result when --trace 1).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINE = HERE / "baseline.json"


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=_seeds, required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]

    values, attempted, failed, correct = {}, 0, 0, True
    tails, env, traced = set(), None, None
    for seed in args.seeds:
        res, lines = _run(args.workload, seed, seconds, args.trace)
        attempted += res["attempted"]
        failed += res["failed"]
        correct = correct and res["correct"]
        for line in lines:
            if line.startswith("environment "):
                env = json.loads(line[len("environment "):])
            if "verdict_tail_ms is p" in line:
                tails.add(line.split("verdict_tail_ms is ")[1].split(";")[0])
        for name, m in res["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        shown = " ".join(f"{n}={m['value']:.4g}"
                         for n, m in res["metrics"].items()) if not args.trace else ""
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {shown}", flush=True)
        if args.trace:
            traced = {"seed": seed, "correct": res["correct"],
                      "per_layer": res["metrics"]}

    summary = {}
    for name, (unit, vs) in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0, "unit": unit}
        if not args.trace:
            print(f"{name:24s} median {med:12.4f} {unit:6s} "
                  f"spread {summary[name]['spread']:.3f}")
    print(f"correct={correct} attempted={attempted} failed={failed} "
          f"tail: {', '.join(sorted(tails))}")

    if args.baseline:
        base = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
        base.setdefault("workloads", {})
        entry = base["workloads"].setdefault(args.workload, {})
        if args.trace:
            entry["traced_run"] = traced
        else:
            entry.update({"seeds": args.seeds, "run_seconds": seconds,
                          "correct": correct, "attempted": attempted,
                          "failed": failed, "verdict_tail": sorted(tails),
                          "end_to_end": summary})
        if env is not None:
            base["environment"] = {k: v for k, v in env.items() if k != "seed"}
        BASELINE.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
