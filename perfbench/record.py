"""Record the reference documents: run every query that any seed can draw
and store the SHA-256 of its structured document with its exit code.

    python3 perfbench/record.py [workload ...]

Run at the commit whose behaviour is the contract.  A query whose exit code
or document check fails is reported and the file is not written.  Prints
the median wall time of each slot, which is what round composition is
tuned with.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
import sys
import time

import corpus
from worker import REFERENCE, _import_program


def main(argv):
    os.environ.pop("PSEUDOREAL_APPROX_BITS", None)
    program = _import_program()
    workloads = argv or list(corpus.WORKLOADS)
    out = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    bad = 0
    for workload in workloads:
        times = {}
        state = {}
        for q in corpus.pool(workload):
            buf = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    code = program.cli.main(list(q.argv))
            except SystemExit as exc:
                code = f"exit {exc.code}"
            times.setdefault(q.slot, []).append(time.perf_counter() - start)
            text = buf.getvalue()
            error = None
            if code != q.expect_code:
                error = f"exit code {code}, expected {q.expect_code}"
            elif q.check is not None:
                error = q.check(json.loads(text), state)
            if error:
                bad += 1
                print(f"FAIL {q.slot}: {error} [{q.key}]", file=sys.stderr)
            out[q.key] = {"code": code,
                          "sha256": hashlib.sha256(text.encode()).hexdigest()}
        for slot, ts in times.items():
            print(f"{workload:13s} {slot:24s} n={len(ts):3d} "
                  f"median={1000 * statistics.median(ts):9.1f} ms "
                  f"max={1000 * max(ts):9.1f} ms", flush=True)
    if bad:
        print(f"{bad} queries failed; reference not written", file=sys.stderr)
        return 1
    current = {q.key for w in corpus.WORKLOADS for q in corpus.pool(w)}
    out = {k: v for k, v in out.items() if k in current}
    REFERENCE.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
