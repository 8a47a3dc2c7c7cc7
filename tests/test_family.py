import random
from fractions import Fraction

import pytest

from pseudoreal.cyclotomic import CycElt, make_element, real_sign
from pseudoreal.moebius import Moebius, g_orbit
from pseudoreal.family import (
    ParameterError,
    analyze,
    family_cross_ratios,
    genus,
    validate,
)


def test_validate_accepts_worked_parameters():
    p = validate(-4, make_element("2*z", 3), 2)
    assert p.lam == -4 and p.k == 2
    validate(-4, make_element("2*z", 5), 2)
    validate(-4, make_element("2*z", 8), 4)
    # non-rational r^2: mu = 2 + zeta_5 has |mu|^2 = 5 + 2(z + z^4)
    mu = make_element("2 + z", 5)
    validate(-(mu * mu.conjugate()), mu, 2)


def test_validate_makes_no_inversion(monkeypatch):
    # the divided cross-ratios take one inversion each; validate tests
    # them as (numerator, denominator) pairs
    lam, mu = make_element("-4", 8), make_element("2*z", 8)
    inverse, count = CycElt.inverse, [0]

    def counting(self):
        count[0] += 1
        return inverse(self)

    monkeypatch.setattr(CycElt, "inverse", counting)
    family_cross_ratios(lam, mu)
    ratios, count[0] = count[0], 0
    validate(lam, mu, 2)
    assert (ratios, count[0]) == (3, 0)


def test_validate_clause_order_and_diagnostics():
    mu3 = make_element("2*z", 3)
    cases = [
        ((-5, mu3, 2), "modulus"),
        ((Fraction(-1, 4), make_element("z/2", 3), 2), "radius"),
        ((-4, make_element("2", 3), 2), "angle_real"),
        ((-4, make_element("-2", 3), 2), "angle_real"),
        ((-4, make_element("2*z", 4), 2), "angle_imaginary"),
        ((-4, make_element("2*z^3", 4), 2), "angle_imaginary"),
        ((-4, mu3, 3), "k_odd"),
        ((-4, mu3, 1), "k_small"),
        ((-4, mu3, 0), "k_small"),
    ]
    for args, clause in cases:
        with pytest.raises(ParameterError) as err:
            validate(*args)
        assert err.value.clause == clause, args


def test_validate_rejects_critical_radius():
    # theta = pi/3, lambda = -(3 + sqrt5)/2 built from zeta_5 + zeta_5^4,
    # mu = ((1 + sqrt5)/2) zeta_6 inside Q(zeta_30)
    lam = make_element("-(2 + z^6 + z^24)", 30)
    mu = make_element("(1 + z^6 + z^24) * z^5", 30)
    assert mu * mu.conjugate() == -lam
    with pytest.raises(ParameterError) as err:
        validate(lam, mu, 2)
    assert err.value.clause == "critical_radius"


def test_validate_angle_shift_symmetry():
    # accepting (lambda, mu) is the same as accepting (lambda, -mu)
    rng = random.Random(31)
    for n in (3, 5, 7, 8, 12):
        exps = [e for e in range(1, n) if True]
        for _ in range(6):
            q = Fraction(rng.randint(2, 5))
            mu = q * CycElt.zeta(n) ** rng.choice(exps)
            lam = -(mu * mu.conjugate())
            def ok(m):
                try:
                    validate(lam, m, 2)
                    return True
                except ParameterError:
                    return False
            assert ok(mu) == ok(-mu)


def test_genus():
    assert genus(2) == 17
    assert genus(4) == 1281
    assert genus(6) == 11665
    with pytest.raises(ValueError):
        genus(1)


def test_family_cross_ratios():
    p = validate(-4, make_element("2*z", 3), 2)
    cr = family_cross_ratios(p.lam, p.mu)
    assert cr[0] == -4
    assert cr[1] == -1
    assert cr[2] == Fraction(-7, 3)
    orbits = [{v.key() for v in g_orbit(c)} for c in cr]
    assert not (orbits[0] & orbits[1])
    assert not (orbits[0] & orbits[2])
    assert not (orbits[1] & orbits[2])


def test_analyze_worked_examples():
    rep = analyze(validate(-4, make_element("2*z", 3), 2))
    assert rep.aut_trivial and rep.pseudo_real
    assert rep.genus == 17
    assert list(rep.anti_symmetries) == [Moebius(0, -4, 1, 0, conj_first=True)]
    assert rep.alpha_constraints[2] == -4
    assert rep.alpha_constraints[3] == 1
    assert rep.alpha_constraints[5] == make_element("2*z", 3)
    assert rep.alpha_constraints[6] == -make_element("2*z", 3)

    rep = analyze(validate(-4, make_element("2*z", 5), 2))
    assert rep.pseudo_real and rep.genus == 17

    rep = analyze(validate(-4, make_element("2*z", 8), 4))
    assert rep.pseudo_real and rep.genus == 1281


def test_rotated_lambda_expression_is_the_third_cross_ratio():
    # ((1 - mu)/(1 + mu)) ((lambda + mu)/(lambda - mu)) coincides with the
    # cross-ratio [1, lambda, mu, -mu] of the third circular quadruple, so
    # it is real for every admissible parameter pair
    from pseudoreal.moebius import cross_ratio

    rng = random.Random(37)
    samples = 0
    while samples < 12:
        n = rng.choice((3, 5, 7, 8, 12))
        q = Fraction(rng.randint(2, 5))
        mu = q * CycElt.zeta(n) ** rng.randint(1, n - 1)
        lam = -(mu * mu.conjugate())
        try:
            p = validate(lam, mu, 2)
        except ParameterError:
            continue
        samples += 1
        one = CycElt.one(n)
        value = ((one - p.mu) / (one + p.mu)) * \
            ((p.lam + p.mu) / (p.lam - p.mu))
        assert value == cross_ratio(1, p.lam, p.mu, -p.mu)
        assert value.conjugate() == value


def test_family_params_helpers():
    p = validate(-4, make_element("2*z", 3), 2)
    assert p.r_squared() == 4
    assert len(p.config().point_set()) == 6
    assert real_sign(p.r_squared()) == 1
