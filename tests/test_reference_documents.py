"""The structured documents of the benchmark corpus stay byte-identical.

Every query that any seed of `perfbench/` can draw (`corpus.pool`) is run
in-process through `cli.main`, as `perfbench/record.py` runs it, and its
exit code and the SHA-256 of its document must equal the entry recorded in
`perfbench/reference.json`; the descent documents must come out the same
with the sympy factorization refused.  A round run under the benchmark's
tracer must read nonzero on every per-layer count that its `--trace 1`
self-check requires.  The tests only read `perfbench/`."""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from pseudoreal import cli, cyclotomic

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import corpus  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _run(q) -> dict:
    """The exit code and the SHA-256 of the document of one query."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(q.argv))
    except SystemExit as exc:
        code = f"exit {exc.code}"
    return {"code": code,
            "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


def _differing(workload):
    """The keys of the pool queries whose exit code or document differs
    from the reference."""
    return [q.key for q in corpus.pool(workload)
            if _run(q) != REFERENCE[q.key]]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_documents_match_the_reference(workload, monkeypatch):
    monkeypatch.delenv("PSEUDOREAL_APPROX_BITS", raising=False)
    assert _differing(workload) == []


def test_descent_documents_need_no_factorization(monkeypatch):
    # every k-th root in the descent corpus is of a rational times a root
    # of unity, follows from one, or is certified absent
    def refuse(*args):
        raise AssertionError("x^k - v was factored")

    monkeypatch.delenv("PSEUDOREAL_APPROX_BITS", raising=False)
    monkeypatch.setattr(cyclotomic, "_sympy_roots", refuse)
    assert _differing("descent") == []


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_a_traced_round_reads_every_expected_count(workload, monkeypatch):
    # the self-check of `perfbench/run.py --trace 1` fails a run when a
    # required per-layer metric reads zero, as when a traced function is
    # renamed or bypassed
    monkeypatch.delenv("PSEUDOREAL_APPROX_BITS", raising=False)
    rounds = corpus.Rounds(workload, 7)
    for q in rounds.warmup():
        _run(q)
    tr = tracer.Tracer().install()
    try:
        for q in rounds.round(0):
            _run(q)
    finally:
        tr.remove()
    metrics = worker._per_layer(tr, 1)
    assert [k for k in worker.EXPECT_NONZERO[workload] if not metrics[k]] \
        == []
