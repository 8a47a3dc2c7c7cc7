import json
import time

import pytest

from pseudoreal.cli import main
from pseudoreal.cyclotomic import MAX_CONDUCTOR, MAX_SIZE_BITS, make_element


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
])
def test_resource_limits_reject_at_once(capsys, conductor, points, clause):
    start = time.perf_counter()
    code, doc = run_json(capsys, "crossratio", "--conductor", conductor,
                         "--", *points)
    assert time.perf_counter() - start < 0.5
    assert code == 1
    assert doc["status"] == "rejected"
    assert doc["error"]["kind"] == clause


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
