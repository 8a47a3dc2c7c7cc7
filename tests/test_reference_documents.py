"""The structured documents of the benchmark corpus stay byte-identical.

Every query that any seed of `perfbench/` can draw (`corpus.pool`) is run
in-process through `cli.main`, as `perfbench/record.py` runs it, and its
exit code and the SHA-256 of its document must equal the entry recorded in
`perfbench/reference.json`.  The test only reads `perfbench/`."""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from pseudoreal import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import corpus  # noqa: E402

REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_documents_match_the_reference(workload, monkeypatch):
    monkeypatch.delenv("PSEUDOREAL_APPROX_BITS", raising=False)
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
    assert differ == []
