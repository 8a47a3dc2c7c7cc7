import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pseudoreal.cli import SUBCOMMANDS, build_parser, main
from pseudoreal.cyclotomic import MAX_CONDUCTOR, MAX_SIZE_BITS, make_element

ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv):
    code, out = run(capsys, "--output", "structured", *argv)
    return code, json.loads(out)


def test_genus(capsys):
    code, doc = run_json(capsys, "genus", "--k", "2")
    assert code == 0
    assert doc["result"]["genus"] == 17
    assert doc["status"] == "ok"


def test_moduli_worked_example(capsys):
    code, doc = run_json(capsys, "moduli", "--conductor", "3", "--k", "2",
                         "--lambda", "-4", "--mu", "2*z")
    assert code == 0
    res = doc["result"]
    assert res["stabilizer"] == [1, 2]
    assert res["moduli_field"]["degree"] == 1
    assert res["min_def_field"]["degree"] == 2
    assert res["min_def_field"]["minpoly"] == "x^2 + x + 1"
    assert res["degree_over_moduli"] == 2


def test_classify(capsys):
    code, doc = run_json(capsys, "classify", "--conductor", "5", "--k", "2",
                         "--lambda", "-4", "--mu", "2*z", "--sigma", "4")
    assert code == 0
    res = doc["result"]
    assert res["matched_rows"] == ["row (4) with sign -"]
    assert res["witness"]["anti"] is False
    # witness is z -> -4/z in canonical projective coordinates
    assert (res["witness"]["a"], res["witness"]["b"],
            res["witness"]["c"], res["witness"]["d"]) == \
        ("0", "1", "-1/4", "0")


def test_crossratio_and_roundtrip(capsys):
    code, doc = run_json(capsys, "crossratio", "--conductor", "3",
                         "inf", "0", "1", "-4")
    assert code == 0
    value = doc["result"]["cross_ratio"]["canonical"]
    assert make_element(value, 3) == -4
    assert doc["result"]["real"] is True


def test_circles_census(capsys):
    code, doc = run_json(capsys, "circles", "--conductor", "3",
                         "--lambda1=-4", "--lambda2=2*z",
                         "--lambda3=-2*z")
    assert code == 0
    assert doc["result"]["count"] == 3


def test_symmetries(capsys):
    code, doc = run_json(capsys, "symmetries", "--conductor", "3",
                         "--lambda1=-4", "--lambda2=2*z",
                         "--lambda3=-2*z")
    assert code == 0
    res = doc["result"]
    assert len(res["conformal"]) == 1
    assert res["conformal"][0]["display"] == "z -> z"
    assert len(res["anticonformal"]) == 1
    assert res["anticonformal"][0]["anti"] is True


def test_equiv(capsys):
    code, doc = run_json(capsys, "equiv", "--conductor", "1",
                         "2", "3", "5", "1/2", "1/3", "1/5")
    assert code == 0
    assert doc["result"]["equivalent"] is True
    w = doc["result"]["witness"]
    assert (w["a"], w["b"], w["c"], w["d"]) == ("0", "1", "1", "0")


def test_validate_rejection_exit_code(capsys):
    code, doc = run_json(capsys, "validate", "--conductor", "4", "--k", "2",
                         "--lambda", "-4", "--mu", "2*z")
    assert code == 1
    assert doc["status"] == "rejected"
    assert doc["error"]["kind"] == "angle_imaginary"


def test_analyze(capsys):
    code, doc = run_json(capsys, "analyze", "--conductor", "3", "--k", "2",
                         "--lambda", "-4", "--mu", "2*z")
    assert code == 0
    res = doc["result"]
    assert res["pseudo_real"] is True
    assert res["genus"] == 17
    assert res["alpha_power_constraints"]["alpha2^2"] == "-4"


def test_lift_over_small_field_reports_missing_roots(capsys):
    code, doc = run_json(capsys, "lift", "--conductor", "8", "--k", "2",
                         "--lambda", "-4", "--mu", "2*z", "--sigma", "3")
    assert code == 0
    res = doc["result"]
    assert res["count"] == 0
    assert len(res["missing_roots"]) == 2


def test_weil_check(capsys):
    code, doc = run_json(capsys, "weil-check", "--conductor", "16",
                         "--k", "2", "--lambda", "-4", "--mu", "2*z^2",
                         "--generator", "3", "--order", "4")
    assert code == 0
    res = doc["result"]
    assert res["candidate_count"] == 32
    assert res["closing_count"] == 32
    assert res["descends"] is True


def test_weil_check_rejects_wrong_order_up_front(capsys):
    # <3> has order 2 mod 8; the lift over Q(zeta_8) has missing roots, so
    # no candidate would ever reach extend_cyclic
    for order in ("7", "1000000000"):
        start = time.perf_counter()
        code, doc = run_json(capsys, "weil-check", "--conductor", "8",
                             "--k", "2", "--lambda", "-4", "--mu", "2*z",
                             "--generator", "3", "--order", order)
        assert time.perf_counter() - start < 10
        assert code == 1
        assert doc["status"] == "rejected"
        assert doc["error"] == {"kind": "domain",
                                "message": f"<3> does not have order {order} "
                                           f"mod 8"}


def test_structured_output_is_deterministic(capsys):
    _, out1 = run(capsys, "--output", "structured", "stabilizer",
                  "--conductor", "5", "--k", "2", "--lambda", "-4",
                  "--mu", "2*z")
    _, out2 = run(capsys, "--output", "structured", "stabilizer",
                  "--conductor", "5", "--k", "2", "--lambda", "-4",
                  "--mu", "2*z")
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["result"]["stabilizer"] == [1, 4]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["genus"])  # missing --k
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["crossratio", "--conductor", "3", "inf", "0", "1", "oops+"])
    assert exc.value.code == 2


def test_human_output_mentions_result(capsys):
    code, out = run(capsys, "genus", "--k", "4")
    assert code == 0
    assert "genus: 1281" in out


def test_approx_bits_env_var(capsys, monkeypatch):
    monkeypatch.setenv("PSEUDOREAL_APPROX_BITS", "96")
    _, doc = run_json(capsys, "crossratio", "--conductor", "5",
                      "inf", "0", "1", "z")
    high = doc["result"]["cross_ratio"]["approx"]
    monkeypatch.setenv("PSEUDOREAL_APPROX_BITS", "16")
    _, doc = run_json(capsys, "crossratio", "--conductor", "5",
                      "inf", "0", "1", "z")
    low = doc["result"]["cross_ratio"]["approx"]
    assert high != low  # interval width tracks the requested precision
    assert high.split("(")[0].startswith(low.split("(")[0][:6])
    monkeypatch.setenv("PSEUDOREAL_APPROX_BITS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["genus", "--k", "2"])
    assert exc.value.code == 2
    assert "PSEUDOREAL_APPROX_BITS must be an integer, got 'abc'" in \
        capsys.readouterr().err


def test_internal_error_is_structured(capsys, monkeypatch):
    # an enumeration that finds no map contradicts the table's row (1)
    monkeypatch.setattr("pseudoreal.moduli.set_maps", lambda *a, **k: [])
    code, doc = run_json(capsys, "classify", "--conductor", "5", "--k", "2",
                         "--lambda", "-4", "--mu", "2*z", "--sigma", "1")
    assert code == 3
    assert doc["status"] == "internal_error"
    assert doc["error"]["kind"] == "internal_error"
    assert doc["error"]["message"].startswith("OracleDisagreement: ")


@pytest.mark.parametrize("conductor, points, clause", [
    ("5000", ("inf", "0", "1", "z"), "conductor_limit"),
    (str(MAX_CONDUCTOR + 1), ("inf", "0", "1", "z"), "conductor_limit"),
    ("1", ("inf", "0", "1", "2^3000000"), "size_limit"),
    ("1", ("inf", "0", "1", "2^-3000000"), "size_limit"),
    ("5", ("inf", "0", "1", "z^5000"), "size_limit"),
    ("1", ("inf", "0", "1", "(2^4000)*(2^4000)"), "size_limit"),
    ("1", ("inf", "0", "1", "3" * 5000), "size_limit"),
    # the conductor is checked before any operand, also when no point
    # parses an element
    ("5000", ("inf", "inf", "inf", "inf"), "conductor_limit"),
    ("0", ("inf", "inf", "inf", "inf"), "domain"),
])
def test_resource_limits_reject_at_once(capsys, conductor, points, clause):
    start = time.perf_counter()
    code, doc = run_json(capsys, "crossratio", "--conductor", conductor,
                         "--", *points)
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert doc["status"] == "rejected"
    assert doc["error"]["kind"] == clause
    if clause == "domain":
        assert doc["error"]["message"] == "conductor must be positive"


def test_resource_limits_admit_their_maximum(capsys):
    start = time.perf_counter()
    code, doc = run_json(capsys, "crossratio", "--conductor",
                         str(MAX_CONDUCTOR), "--", "inf", "0", "1", "z")
    assert time.perf_counter() - start < 2.0
    assert code == 0 and doc["result"]["real"] is False
    code, doc = run_json(capsys, "crossratio", "--conductor", "1",
                         "--", "inf", "0", "1", f"2^{MAX_SIZE_BITS}")
    assert code == 0
    assert doc["result"]["cross_ratio"]["canonical"] == \
        str(2 ** MAX_SIZE_BITS)


@pytest.mark.parametrize("argv, message", [
    (("lift", "--sigma", "2"),
     "sigma does not preserve the configuration class; nothing to lift"),
    (("weil-check", "--generator", "2", "--order", "4"),
     "generator does not preserve the configuration class"),
])
def test_no_witness_is_rejected(capsys, argv, message):
    # sigma_2 does not preserve the class at n = 5: the stabilizer is {1, 4}
    code, doc = run_json(capsys, argv[0], "--conductor", "5", "--k", "2",
                         "--lambda=-4", "--mu=2*z", *argv[1:])
    assert code == 1
    assert doc["status"] == "rejected"
    assert doc["error"] == {"kind": "no_witness", "message": message}
    assert doc["inputs"]["conductor"] == 5


def test_approx_bits_above_the_maximum_is_a_usage_error(capsys, monkeypatch):
    from pseudoreal.cli import MAX_APPROX_BITS
    for bits in (MAX_APPROX_BITS + 1, 10 ** 6):
        monkeypatch.setenv("PSEUDOREAL_APPROX_BITS", str(bits))
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["crossratio", "--conductor", "5", "--", "inf", "0", "1",
                  "z"])
        assert time.perf_counter() - start < 1.0
        assert exc.value.code == 2
        assert (f"PSEUDOREAL_APPROX_BITS must be at most {MAX_APPROX_BITS}, "
                f"got {bits}") in capsys.readouterr().err


def test_result_too_large_to_print_is_a_size_limit(capsys):
    # every input is under MAX_SIZE_BITS, the cross-ratio's numerator is not
    code, doc = run_json(capsys, "crossratio", "--conductor", "1", "--",
                         "2^-4000", "3^2500", "-3^2500", "1/(2^4000)+1")
    assert code == 1
    assert doc["status"] == "rejected"
    assert doc["error"]["kind"] == "size_limit"
    assert doc["error"]["message"].startswith("result too large to print")


def run_module(*argv, timeout):
    """`python -m pseudoreal.cli` in a fresh process, on this checkout."""
    path = filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    env.pop("PSEUDOREAL_APPROX_BITS", None)
    return subprocess.run([sys.executable, "-m", "pseudoreal.cli", *argv],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("output", ["human", "structured"])
def test_integer_too_large_to_print_is_a_size_limit(output):
    # genus(k) of a 1000-digit k has more digits than Python prints
    proc = run_module("--output", output, "genus", "--k", "9" * 1000,
                      timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == ""
    if output == "structured":
        doc = json.loads(proc.stdout)
        assert doc["status"] == "rejected"
        assert doc["error"]["kind"] == "size_limit"
        assert doc["error"]["message"].startswith("result too large to print")
    else:
        assert proc.stdout.startswith("command: genus\nerror:\n"
                                      "  kind: size_limit\n"
                                      "  message: result too large to print")


def test_large_value_at_the_largest_conductor_is_a_prompt_size_limit():
    # its minimal forms, on Fraction vectors, took 175 s
    proc = run_module("--output", "structured", "crossratio", "--conductor",
                      str(MAX_CONDUCTOR), "--", "inf", "0", "1", "z/3+2^4000",
                      timeout=30)
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["error"]["kind"] == "size_limit"


def test_lift_at_conductor_40_reports_its_missing_roots():
    # with x^k - v converted from a sympy expression it ran over 600 s
    proc = run_module("--output", "structured", "lift", "--conductor", "40",
                      "--k", "2", "--lambda=-4", "--mu=2*z", "--sigma", "39",
                      timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)["result"]["missing_roots"]) == 2


# -- human output and error documents, pinned ---------------------------------

FAM5 = ("--conductor", "5", "--k", "2", "--lambda=-4", "--mu=2*z")
CFG3 = ("--conductor", "3", "--lambda1=-4", "--lambda2=2*z", "--lambda3=-2*z")

# sha256 of the output, recorded before the subcommands were declared in one
# table: one human-form query per subcommand
HUMAN_OUTPUT = [
    (("crossratio", "--conductor", "5", "--", "inf", "0", "1", "z"),
     "4d3efda7793c69e7d7048906d09e88b1930577788bf0a2d74bb457a9fa76c917"),
    (("circles", *CFG3),
     "5e6997b0ee9782a019ee551fb1e84c76d1ecc1fc91e166b1d110b48c9211eb57"),
    (("orbit", *CFG3),
     "dde043ead4486613bb883a5995afb33deb85366b20cb094c98b764621e01ccf5"),
    (("equiv", "--conductor", "1", "2", "3", "5", "1/2", "1/3", "1/5"),
     "242fad93b8366030ae65197a8a988ee89721999e89921598d72810457077d804"),
    (("symmetries", *CFG3),
     "087c3f0f05bf349a99e1a280f6deb831fe6fa15a252faaf625293ed3ee58dc2b"),
    (("validate", *FAM5),
     "5c66b9dd88c12cf2bc1239e3f92c202bae591da7c274cb9c45e089d753f54204"),
    (("genus", "--k", "4"),
     "bebb834a6c7e5a9ed3ed9b3c89448f5a7679c075c4612a5174341a2115a0e09b"),
    (("analyze", *FAM5),
     "5cee85428fc7f5f5ac7890565b76dce0d32441925190e537c3945c1f0e8c1047"),
    (("classify", *FAM5, "--sigma", "4"),
     "33b2f9d4b8c820cb20c8ec921f9f9f2dfa201181a96f978773f64729172f741b"),
    (("stabilizer", *FAM5),
     "08370b3526d765657d2cd2959adaeb227bc2d140389cd9eb0f8c0a509babf530"),
    (("moduli", *FAM5),
     "0bd90c5b3b5a0d4b71fa3f52cf842e345eb36edfa74540e4d90cef4f480a074f"),
    (("lift", *FAM5, "--sigma", "4"),
     "0f206930dd50300436ee87287d219870de26feebcded27c1c91b601172f566f4"),
    (("weil-check", "--conductor", "16", "--k", "2", "--lambda=-4",
      "--mu=2*z^2", "--generator", "3", "--order", "4"),
     "41c2def766f75edc16ed4f2e9f13d2114101fdc84da1ca7c49873aeb5b7a96fe"),
]

# (argv, exit code, sha256 of the human and of the structured document)
ERROR_OUTPUT = [
    (("lift", *FAM5, "--sigma", "2"), 1,
     "fb8cbfeabc9f237062aa99f56ac7a506e1abd5e18dd7d073e53332b8bcfae212",
     "92993b86334c320f8cb1e93d1e43525f35a785fdc991aa9626cf91ebd05b72d0"),
    (("weil-check", *FAM5, "--generator", "2", "--order", "4"), 1,
     "1acdfa4d2f84e10c618f6498656c479eaa7453d75bec5da37022bb13d4ab50e9",
     "013bed912cd30cd1b4e52df26117952340d5b172ce606746567c2f02d8d96704"),
    (("validate", "--conductor", "4", "--k", "2", "--lambda=-4",
      "--mu=2*z"), 1,
     "c22b028b086c98a106eaaea0ec4a2bc33fa01dde34f8c1c0486b183513883299",
     "44d31b41d1ce2e97e776525528720d3a73346e6489affff833ff4b4cb0168ec7"),
    (("crossratio", "--conductor", "5000", "--", "inf", "0", "1", "z"), 1,
     "b9c707660a1210a00bef4e46568b8f27d2671c83d7a527502c73e66daec58781",
     "a1e9edbdc3dd85a99f589dec8c71d42412773e83e6ea4ee23e7fe39d73ac97ba"),
]


def _digests(capsys, *argv):
    """(exit code, sha256 of the human output, of the structured output)."""
    code, human = run(capsys, *argv)
    code2, structured = run(capsys, "--output", "structured", *argv)
    assert code == code2
    return (code, hashlib.sha256(human.encode()).hexdigest(),
            hashlib.sha256(structured.encode()).hexdigest())


@pytest.mark.parametrize("argv, digest", HUMAN_OUTPUT,
                         ids=[argv[0] for argv, _ in HUMAN_OUTPUT])
def test_human_output_is_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, code, human, structured", ERROR_OUTPUT,
                         ids=["no_witness-lift", "no_witness-weil-check",
                              "clause", "conductor_limit"])
def test_error_documents_are_pinned(capsys, argv, code, human, structured):
    assert _digests(capsys, *argv) == (code, human, structured)


def test_internal_error_documents_are_pinned(capsys, monkeypatch):
    monkeypatch.setattr("pseudoreal.moduli.set_maps", lambda *a, **k: [])
    assert _digests(capsys, "classify", *FAM5, "--sigma", "1") == (
        3, "c6773b2230c71095842683a816fc655ec89168133e6ab932af215d53ef89556f",
        "6802d35e4acdf99d680c513ee3a7ce18f1bcaab62a285037dfa3dee66848878d")


def test_one_parser_serves_every_query_of_a_process(capsys):
    # build_parser runs once per process; a usage error in between must not
    # change what the next query prints
    assert build_parser() is build_parser()
    for argv, digest in HUMAN_OUTPUT:
        code, out = run(capsys, *argv)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)
    with pytest.raises(SystemExit) as exc:
        main(["classify", *FAM5])  # missing --sigma
    assert exc.value.code == 2
    argv, digest = HUMAN_OUTPUT[0]
    code, out = run(capsys, *argv)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, digest)


# -- the parser that SUBCOMMANDS builds ---------------------------------------

CONDUCTOR = ("--conductor", "ambient cyclotomic field Q(zeta_n)")
FAMILY = [CONDUCTOR, ("--k", "even exponent k >= 2"),
          ("--lambda", "element expression for lambda = -r^2"),
          ("--mu", "element expression for mu = r e^(i theta)")]
CONFIG = [CONDUCTOR, ("--lambda1", None), ("--lambda2", None),
          ("--lambda3", None)]
SIGMA = ("--sigma", "exponent a of zeta -> zeta^a")

# name: (help, [(option string or positional name, help)]), the fields of
# each --help page; lift's --sigma shares classify's, help line included
PARSERS = {
    "crossratio": ("cross-ratio of four points", [
        CONDUCTOR, ("points", "four points (element expressions or 'inf')")]),
    "circles": ("concircular four-point subsets of a configuration", CONFIG),
    "orbit": ("relabeling orbit of a configuration", CONFIG),
    "equiv": ("conformal equivalence of two configurations", [
        CONDUCTOR, ("first", "lambda1 lambda2 lambda3"),
        ("second", "lambda1 lambda2 lambda3")]),
    "symmetries": ("maps preserving the six-point set", CONFIG),
    "validate": ("check family parameters", FAMILY),
    "genus": ("genus of the curve for exponent k", [("--k", None)]),
    "analyze": ("symmetry and pseudo-reality report", FAMILY),
    "classify": ("match one Galois element against the table",
                 FAMILY + [SIGMA]),
    "stabilizer": ("Galois exponents preserving the class", FAMILY),
    "moduli": ("field of moduli and minimal definition field", FAMILY),
    "lift": ("monomial isomorphisms over the witness map", FAMILY + [SIGMA]),
    "weil-check": ("extend a lift along a cyclic group and verify the "
                   "descent cocycle",
                   FAMILY + [("--generator", None), ("--order", None)]),
}


def test_each_subcommand_parser_has_its_options_and_help():
    top = build_parser()
    sub = next(a for a in top._actions
               if isinstance(a, argparse._SubParsersAction))
    helps = {a.dest: a.help for a in sub._choices_actions}
    found = {name: (helps[name], [
        (a.option_strings[0] if a.option_strings else a.dest, a.help)
        for a in parser._actions if not isinstance(a, argparse._HelpAction)])
        for name, parser in sub.choices.items()}
    assert found == PARSERS
    assert list(found) == [entry[0] for entry in SUBCOMMANDS]


def test_readme_lists_the_subcommands_in_table_order():
    lines = (ROOT / "README.md").read_text().splitlines()
    rows = lines[lines.index("| subcommand | purpose |") + 2:]
    names = []
    for line in rows:
        if not line.startswith("| `"):
            break
        names.append(line[3:].split()[0].rstrip("`"))
    assert names == [entry[0] for entry in SUBCOMMANDS]
