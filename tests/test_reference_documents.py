"""The structured documents of the benchmark corpus stay byte-identical.

Every query that any seed of `perfbench/` can draw (`corpus.pool`) is run
in-process through `cli.main`, as `perfbench/record.py` runs it, and its
exit code and the SHA-256 of its document must equal the entry recorded in
`perfbench/reference.json`; the descent documents must come out the same
with the sympy factorization refused.  The tests only read `perfbench/`."""

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

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


def _differing(workload):
    """The keys of the pool queries whose exit code or document differs
    from the reference."""
    differ = []
    for q in corpus.pool(workload):
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(q.argv))
        except SystemExit as exc:
            code = f"exit {exc.code}"
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        if {"code": code, "sha256": digest} != REFERENCE[q.key]:
            differ.append(q.key)
    return differ


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
