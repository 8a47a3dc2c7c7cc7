"""The workload process: set-up, then a closed loop of whole rounds with one
caller, each query sent through `pseudoreal.cli.main` in-process.

Started by run.py, which times set-up from process start to the `ready`
line.  Prints `ready`, then one JSON line with the raw results.  With
`--setup-only` it exits after `ready`.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

import corpus  # noqa: E402  (sibling modules; the script directory is on sys.path)
import hostspeed  # noqa: E402

REFERENCE = HERE / "reference.json"


def _import_program():
    """Import pseudoreal from this checkout's src/ and nowhere else."""
    if not (SRC / "pseudoreal" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import pseudoreal
    import pseudoreal.cli
    if Path(pseudoreal.__file__).resolve().parent != SRC / "pseudoreal":
        raise SystemExit(f"perfbench: imported {pseudoreal.__file__}, "
                         f"not the checkout's copy")
    return pseudoreal


def _environment(seed):
    import mpmath
    import sympy
    digest = hashlib.sha256()
    for path in sorted((SRC / "pseudoreal").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "approx_bits_env": os.environ.get("PSEUDOREAL_APPROX_BITS"),
    }


class Runner:
    """Sends queries and checks the documents that come back."""

    def __init__(self, program, reference):
        self.cli = program.cli
        self.reference = reference
        self.samples = []          # wall time of each timed query, seconds
        self.spans = []            # (start, end) perf_counter of each one
        self.clock = hostspeed.Clock()
        self.attempted = 0
        self.failed = 0
        self.doc_bytes = 0
        self.failures = []

    def send(self, query, state, timed=True):
        # each query starts from a collected heap, as in a fresh CLI process
        gc.collect()
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(list(query.argv))
            error = None
        except SystemExit as exc:
            code, error = exc.code, f"exited with {exc.code}"
        except Exception as exc:  # a raising query is a failed query
            code, error = None, f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        # less the calibrations taken during the query
        elapsed = end - start - self.clock.spent(start, end)
        text = out.getvalue()
        if error is None:
            error = self._check(query, code, text, state)
        if timed:
            self.samples.append(elapsed)
            self.spans.append((start, end))
            self.attempted += 1
            self.doc_bytes += len(text.encode())
            if error is not None:
                self.failed += 1
        if error is not None:
            self.failures.append(f"{query.slot}: {error} [{query.key}]")

    def _check(self, query, code, text, state):
        if code != query.expect_code:
            return f"exit code {code}, expected {query.expect_code}"
        ref = self.reference.get(query.key)
        if ref is None:
            return "no reference document for this query"
        if hashlib.sha256(text.encode()).hexdigest() != ref["sha256"]:
            return "document differs from the reference"
        if query.check is not None:
            return query.check(json.loads(text), state)
        return None


def _warm_kth_roots(program, queries):
    """Pay sympy's import and its per-conductor field set-up in set-up."""
    conductors = sorted({int(q.argv[q.argv.index("--conductor") + 1])
                         for q in queries if q.argv[2] == "weil-check"})
    for m in conductors:
        program.kth_roots(program.CycElt.from_rational(4, m), 2, m)


def _run_rounds(runner, rounds, budget, count=None):
    """Rounds 0, 1, ... until the elapsed time is nearest to `budget` (at
    least one round), or exactly `count` rounds; returns the rounds run."""
    start = time.perf_counter()
    done = 0
    while True:
        state = {}
        for q in rounds.round(done):
            runner.send(q, state)
        done += 1
        elapsed = time.perf_counter() - start
        if count is not None:
            if done >= count:
                return done
        elif elapsed + elapsed / done / 2 >= budget:
            return done


def _tail(samples):
    """Highest percentile with at least 10 samples beyond it, as (value,
    percentile); the minimum, labelled p0, when there are 10 or fewer."""
    s = sorted(samples)
    if len(s) <= 10:
        return s[0], 0.0
    i = len(s) - 11
    return s[i], 100.0 * (i + 1) / len(s)


def _timings(samples, good):
    """End-to-end timing figures of query times `samples`, `good` of
    which returned a correct document."""
    return {"verdicts_per_s": good / sum(samples),
            "verdict_p50_ms": 1000.0 * statistics.median(samples),
            "verdict_tail_ms": 1000.0 * _tail(samples)[0]}


def _per_layer(tr, rounds):
    def per_round(x):
        return x / rounds

    def ms(name):
        return per_round(1000.0 * tr.self_time.get(name, 0.0))

    def calls(name):
        return per_round(tr.calls.get(name, 0))

    def share(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("cyclotomic.mul", "cyclotomic.inverse", "cyclotomic.key",
                 "cyclotomic.kth_roots", "cyclotomic.approx",
                 "moebius.set_maps", "moduli.classify_sigma",
                 "descent.transports_curve"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_ms"] = ms(name)
    for name in ("cyclotomic.galois_apply", "cyclotomic.real_sign",
                 "descent.compose_twist"):
        m[f"{name}.calls"] = calls(name)
    for name in ("cyclotomic.fixed_field", "configurations.u_orbit",
                 "configurations.symmetries", "configurations.equivalent",
                 "family.validate", "family.analyze", "moduli.stabilizer",
                 "moduli.field_of_moduli", "descent.lift_to_monomial",
                 "descent.extend_cyclic", "descent.cocycle_check", "cli.main"):
        m[f"{name}.self_ms"] = ms(name)
    m["cyclotomic.kth_roots.empty_share"] = share(
        tr.values.get("cyclotomic.kth_roots", 0), tr.calls.get("cyclotomic.kth_roots", 0))
    m["cyclotomic.fixed_field.seeds_per_field"] = share(
        tr.edge("cyclotomic.fixed_field", "cyclotomic.min_poly"),
        tr.calls.get("cyclotomic.fixed_field", 0))
    m["moebius.set_maps.maps_per_call"] = share(
        tr.values.get("moebius.set_maps", 0), tr.calls.get("moebius.set_maps", 0))
    m["moduli.stabilizer.hit_share"] = share(
        tr.values.get("moduli.stabilizer", 0),
        tr.edge("moduli.stabilizer", "moduli.classify_sigma"))
    m["descent.closing_share"] = share(
        tr.values.get("descent.cocycle_check", 0),
        tr.calls.get("descent.cocycle_check", 0))
    return m


# per-layer metrics that must read nonzero on each workload
EXPECT_NONZERO = {
    "moduli-sweep": (
        "cyclotomic.mul.calls", "cyclotomic.inverse.calls",
        "cyclotomic.galois_apply.calls", "cyclotomic.key.calls",
        "cyclotomic.fixed_field.self_ms", "cyclotomic.fixed_field.seeds_per_field",
        "moebius.set_maps.calls", "moebius.set_maps.maps_per_call",
        "moduli.classify_sigma.calls", "moduli.stabilizer.self_ms",
        "moduli.stabilizer.hit_share", "moduli.field_of_moduli.self_ms",
        "cli.main.self_ms"),
    "descent": (
        "cyclotomic.mul.calls", "cyclotomic.inverse.calls",
        "cyclotomic.kth_roots.calls", "cyclotomic.kth_roots.self_ms",
        "cyclotomic.kth_roots.empty_share", "moebius.set_maps.calls",
        "moduli.classify_sigma.calls", "descent.lift_to_monomial.self_ms",
        "descent.transports_curve.calls", "descent.transports_curve.self_ms",
        "descent.extend_cyclic.self_ms", "descent.cocycle_check.self_ms",
        "descent.compose_twist.calls", "descent.closing_share",
        "cli.main.self_ms"),
    "cli-geometry": (
        "cyclotomic.mul.calls", "cyclotomic.galois_apply.calls",
        "cyclotomic.key.calls", "cyclotomic.key.self_ms",
        "cyclotomic.approx.calls", "cyclotomic.approx.self_ms",
        "cyclotomic.real_sign.calls", "moebius.set_maps.calls",
        "moebius.set_maps.self_ms", "moebius.set_maps.maps_per_call",
        "configurations.u_orbit.self_ms", "configurations.symmetries.self_ms",
        "configurations.equivalent.self_ms", "family.validate.self_ms",
        "family.analyze.self_ms", "cli.main.self_ms"),
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    # documents must use the default 64-bit enclosures
    os.environ.pop("PSEUDOREAL_APPROX_BITS", None)
    program = _import_program()
    reference = json.loads(REFERENCE.read_text())
    rounds = corpus.Rounds(args.workload, args.seed)
    runner = Runner(program, reference)
    warm = rounds.warmup()
    state = {}
    for q in warm:
        runner.send(q, state, timed=False)
    _warm_kth_roots(program, rounds.round(0))
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {"environment": _environment(args.seed),
              "warmup_failures": list(runner.failures)}
    if not args.trace:
        with runner.clock:
            n_rounds = _run_rounds(runner, rounds, args.seconds)
        good = runner.attempted - runner.failed
        scaled = [t * runner.clock.factor(*span)
                  for t, span in zip(runner.samples, runner.spans)]
        result.update({
            "rounds": n_rounds,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "raw": _timings(runner.samples, good),
            "scaled": _timings(scaled, good),
            "verdict_tail_percentile": _tail(scaled)[1],
            "host_factor": runner.clock.factor(),
            "calibrations": len(runner.clock.samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    else:
        import tracer
        # untraced rounds, then the same rounds traced: the difference in
        # throughput is the tracing overhead
        n_rounds = _run_rounds(runner, rounds, args.seconds / 2)
        untraced = (runner.attempted - runner.failed) / sum(runner.samples)
        mark = len(runner.samples)
        attempted0, failed0, bytes0 = runner.attempted, runner.failed, runner.doc_bytes
        tr = tracer.Tracer().install()
        try:
            _run_rounds(runner, rounds, 0, count=n_rounds)
        finally:
            tr.remove()
        traced_busy = sum(runner.samples[mark:])
        traced = ((runner.attempted - attempted0) - (runner.failed - failed0)) / traced_busy
        metrics = _per_layer(tr, n_rounds)
        metrics["cli.doc_bytes"] = (runner.doc_bytes - bytes0) / n_rounds
        metrics["trace.untraced_verdicts_per_s"] = untraced
        metrics["trace.traced_verdicts_per_s"] = traced
        metrics["trace.overhead_verdicts_per_s"] = traced - untraced
        zero = [k for k in EXPECT_NONZERO[args.workload] if not metrics[k]]
        result.update({
            "rounds": n_rounds,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "per_layer": metrics,
            "trace_sites": tr.sites,
            "unexpected_zero": zero,
        })
    result["failures"] = runner.failures[:20]
    result["threads"] = threading.active_count()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
