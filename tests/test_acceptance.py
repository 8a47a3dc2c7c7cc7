"""Acceptance suite: one test per criterion, one printed verdict line each.

Every check is exact (tolerance zero).  Run with `pytest -s` to see the
verdict lines; `pytest -v` shows the same outcomes as test results.

Criterion 7 ends with a clause that is mathematically unattainable (every
sign choice closes the four-step cocycle, because for k = 2 the sign flips
are rational scales entering the recursion an even number of times); the
clause is asserted as stated and is expected to fail.  The README
documents the analysis.
"""

import itertools
import random
from fractions import Fraction

import pytest

from pseudoreal.cyclotomic import (
    CycElt,
    GaloisElement,
    fixing_subgroup,
    make_element,
    same_field,
    units,
)
from pseudoreal.moebius import (
    INF,
    Moebius,
    SpherePoint,
    cross_ratio,
    g_orbit,
    set_maps,
)
from pseudoreal.configurations import (
    concircular_quadruples,
    make_config,
    symmetries,
    u_orbit,
)
from pseudoreal.family import ParameterError, analyze, genus, validate
from pseudoreal.moduli import classify_sigma, field_of_moduli, row_targets, \
    stabilizer
from pseudoreal.descent import cocycle_check, extend_cyclic, lift_to_monomial

from test_descent import transport_checked_once


def verdict(ok, number, label):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number}: {label}"


def six_points(lam, mu):
    return [INF, SpherePoint.of(0), SpherePoint.of(1), SpherePoint.of(lam),
            SpherePoint.of(mu), SpherePoint.of(-mu)]


def test_criterion_1_cross_ratios():
    lam = CycElt.from_rational(-4, 3)
    mu = make_element("2*z", 3)
    values = (
        cross_ratio(INF, 0, 1, lam),
        cross_ratio(INF, 0, mu, -mu),
        cross_ratio(1, lam, mu, -mu),
    )
    ok = (values[0] == -4 and values[1] == -1
          and values[2] == Fraction(-7, 3))
    orbits = [{v.key() for v in g_orbit(c)} for c in values]
    ok = ok and not (orbits[0] & orbits[1]) and not (orbits[0] & orbits[2]) \
        and not (orbits[1] & orbits[2])
    verdict(ok, 1, "cross-ratios -4, -1, -7/3 with disjoint orbits")


def test_criterion_2_concircularity_census():
    mu = make_element("2*z", 3)
    lam = CycElt.from_rational(-4, 3)
    quads = concircular_quadruples(make_config(lam, mu, -mu))
    got = {frozenset(q) for q in quads}
    want = {
        frozenset({INF, SpherePoint.of(0), SpherePoint.of(1),
                   SpherePoint.of(lam)}),
        frozenset({INF, SpherePoint.of(0), SpherePoint.of(mu),
                   SpherePoint.of(-mu)}),
        frozenset({SpherePoint.of(1), SpherePoint.of(lam),
                   SpherePoint.of(mu), SpherePoint.of(-mu)}),
    }
    verdict(got == want, 2, "exactly the three circular quadruples")


def test_criterion_3_symmetry_verdicts():
    mu = make_element("2*z", 3)
    sym = symmetries(make_config(-4, mu, -mu))
    ok = (len(sym.conformal) == 1 and sym.conformal[0].is_identity
          and list(sym.anticonformal) ==
          [Moebius(0, -4, 1, 0, conj_first=True)])
    rep2 = analyze(validate(-4, mu, 2))
    rep4 = analyze(validate(-4, mu, 4))
    ok = ok and rep2.pseudo_real and rep2.genus == 17
    ok = ok and rep4.pseudo_real and rep4.genus == 1281
    verdict(ok, 3, "trivial conformal group, unique anti map, pseudo-real, "
                   "genus 17 / 1281")


def test_criterion_4_table_versus_oracle():
    p = validate(-4, make_element("2*z", 5), 2)
    lam, mu = p.lam, p.mu
    src = six_points(lam, mu)
    ok = True
    for row, sign, want_l, want_m, builder in row_targets(lam, mu):
        tgt = six_points(want_l, want_m)
        witness = builder(want_l, want_m)
        found = set_maps(src, tgt, anti=False)
        ok = ok and found == [witness]
    verdict(ok, 4, "each of the twelve rows is the unique enumerated map")


def test_criterion_5_example_p3():
    p = validate(-4, make_element("2*z", 3), 2)
    res = field_of_moduli(p, 3)
    ok = (res.stabilizer == frozenset({1, 2})
          and res.moduli_field.degree == 1
          and res.min_def_field.degree == 2
          and same_field(res.min_def_field.primitive, CycElt.zeta(3))
          and res.degree_over_moduli == 2)
    verdict(ok, 5, "p = 3: moduli Q, minimal definition field Q(zeta_3), "
                   "degree 2")


def test_criterion_6_example_p5():
    p = validate(-4, make_element("2*z", 5), 2)
    res = field_of_moduli(p, 5)
    golden = make_element("z + z^4", 5)
    ok = (res.stabilizer == frozenset({1, 4})
          and res.moduli_field.degree == 2
          and same_field(res.moduli_field.primitive, golden)
          and res.min_def_field.degree == 4
          and same_field(res.min_def_field.primitive, CycElt.zeta(5))
          and res.degree_over_moduli == 2)
    # quadratic minimal polynomial with discriminant 5 times a square
    c0, c1, c2 = res.moduli_field.minpoly
    disc = c1 * c1 - 4 * c2 * c0
    scaled = disc / 5
    ok = ok and disc > 0 and _is_rational_square(scaled)
    # the quoted radical i sqrt(5 + sqrt5) = sqrt2 (zeta5 - zeta5^4): the
    # field-equality oracle reports whether it generates the same field as
    # zeta_5 inside Q(zeta_40)
    sqrt2 = CycElt.zeta(8) + CycElt.zeta(8) ** 7
    radical = sqrt2 * (CycElt.zeta(5) - CycElt.zeta(5) ** 4)
    same = same_field(radical, CycElt.zeta(5), 40)
    degree_radical = len(units(40)) // len(fixing_subgroup(radical, 40))
    print(f"[report] criterion 6: Q(i sqrt(5 + sqrt5)) has degree "
          f"{degree_radical} and equals Q(zeta_5): {same}")
    ok = ok and (same is False) and degree_radical == 4
    verdict(ok, 6, "p = 5: moduli Q(sqrt5), minimal definition field "
                   "Q(zeta_5), degree 2; radical field differs")


def _is_rational_square(q):
    q = Fraction(q)
    if q < 0:
        return False
    num, den = q.numerator, q.denominator
    rn = int(num ** 0.5 + 0.5)
    rd = int(den ** 0.5 + 0.5)
    return rn * rn == num and rd * rd == den


def test_criterion_7_descent_pipeline():
    # stabilizer and moduli over Q(zeta_8)
    p8 = validate(-4, make_element("2*z", 8), 2)
    res = field_of_moduli(p8, 8)
    ok = res.stabilizer == frozenset({1, 3, 5, 7}) \
        and res.moduli_field.degree == 1
    ok = ok and res.hypothesis_no_negation is False
    # lifting T(z) = -4/z over Q(zeta_8) fails with a radical diagnostic
    lift8 = lift_to_monomial(Moebius(0, -4, 1, 0), p8, GaloisElement(8, 3), 8)
    ok = ok and lift8.isos == () and len(lift8.missing) == 2
    # over Q(zeta_16) the candidates appear
    p16 = validate(-4, make_element("2*z^2", 16), 2)
    rho = GaloisElement(16, 3)
    lift16 = lift_to_monomial(Moebius(0, -4, 1, 0), p16, rho, 16)
    ok = ok and len(lift16.isos) == 32 and lift16.perm == (1, 0, 3, 2, 4, 5)
    # the displayed map with each of the four sign pairs
    i16 = make_element("z^4", 16)
    s5 = make_element("z + z^5", 16)
    closing = []
    for s2, s4 in itertools.product((1, -1), repeat=2):
        from pseudoreal.descent import MonomialIso
        f = MonomialIso((1, 0, 3, 2, 4, 5),
                        [1, s2 * 2 * i16, 1, s4 * 2 * i16, s5, i16 * s5], 2)
        ok = ok and f in lift16.isos
        datum = extend_cyclic(f, 3, 4, p16, 16)
        chk = cocycle_check(datum)
        ok = ok and (chk.ok == datum.closes)
        closing.append(datum.closes)
    # a correct sign pair closes and passes the full pair check
    ok = ok and closing[0] is True
    print(f"[report] criterion 7: closing sign pairs: "
          f"{sum(closing)} of {len(closing)}")
    verdict(ok, 7, "descent pipeline over Q(zeta_8) and Q(zeta_16)")
    # final checklist clause: at least one sign pair fails closure.
    # Exact computation shows all four close (rational sign flips cancel
    # along the recursion), so this assertion is expected to fail.
    at_least_one_fails = not all(closing)
    verdict(at_least_one_fails, 7,
            "at least one of the four sign pairs fails closure")


def random_family_sample(rng, conductors=(3, 5, 7, 8, 12), k=2):
    while True:
        n = rng.choice(conductors)
        q = Fraction(rng.randint(2, 5))
        mu = q * CycElt.zeta(n) ** rng.randint(1, n - 1)
        lam = -(mu * mu.conjugate())
        try:
            return validate(lam, mu, k)
        except ParameterError:
            continue


def test_criterion_8a_cross_ratio_invariance():
    rng = random.Random(80)
    checked = 0
    while checked < 500:
        pts = [Fraction(x) for x in rng.sample(range(-50, 51), 4)]
        co = [rng.randint(-9, 9) for _ in range(4)]
        if co[0] * co[3] - co[1] * co[2] == 0:
            continue
        m = Moebius(*co)
        images = [m(x) for x in pts]
        if len({p.key() for p in images}) < 4:
            continue
        assert cross_ratio(*images) == cross_ratio(*pts)
        checked += 1
    verdict(checked == 500, "8a", "cross-ratio invariance on 500 samples")


def test_criterion_8bc_conjugation_and_composition():
    rng = random.Random(81)
    law = {frozenset((2, 3)): 4, frozenset((2, 4)): 3, frozenset((3, 4)): 2}
    composition_checks = 0
    samples = [random_family_sample(rng) for _ in range(20)]
    # one pair whose lambda has the conjugate 1/lambda, so rows (2) and (3)
    # occur and the composition laws are exercised non-vacuously
    samples.append(validate(make_element("-(3 + 2*(z + z^-1))", 8),
                            make_element("(1 + z + z^-1) * z", 8), 2))
    for p in samples[:20]:
        n = p.conductor
        cls = classify_sigma(p, GaloisElement(n, -1))
        assert {m.row for m in cls.matched_rows} == {4}, \
            "conjugation must match exactly the lambda/mu row"
        assert cls.sigma_mu == -p.lam / p.mu
    for p in samples:
        n = p.conductor
        by_exp = {}
        for a in units(n):
            by_exp[a] = {m.row
                         for m in classify_sigma(p,
                                                 GaloisElement(n, a)
                                                 ).matched_rows}
        for a1 in units(n):
            for a2 in units(n):
                for r1 in by_exp[a1]:
                    for r2 in by_exp[a2]:
                        want = law.get(frozenset((r1, r2)))
                        if want is None or r1 == r2:
                            continue
                        assert want in by_exp[(a1 * a2) % n]
                        composition_checks += 1
    verdict(True, "8b", "conjugation classifies as the lambda/mu row on "
                        "20 samples")
    verdict(composition_checks > 0, "8c",
            f"row composition laws hold ({composition_checks} instances)")


def test_criterion_8d_orbit_symmetry_product():
    rng = random.Random(82)
    half = CycElt.from_rational(Fraction(1, 2))
    cases = [
        make_config(2, 3, 5),
        make_config(-1, 2, half),
        make_config(Fraction(5, 2), -3, 7),
    ]
    while len(cases) < 10:
        p = random_family_sample(rng, conductors=(3, 5, 8))
        cases.append(p.config())
    ok = True
    for cfg in cases:
        product = len(u_orbit(cfg)) * len(symmetries(cfg).conformal)
        ok = ok and product == 720
    verdict(ok, "8d", "orbit size times symmetry order is 720 on 10 samples")


def test_criterion_8e_critical_radius_rejection():
    lam = make_element("-(2 + z^6 + z^24)", 30)
    mu = make_element("(1 + z^6 + z^24) * z^5", 30)
    try:
        validate(lam, mu, 2)
        ok, clause = False, None
    except ParameterError as err:
        clause = err.clause
        ok = clause == "critical_radius"
    verdict(ok, "8e", f"critical-radius rejection (clause: {clause})")


def test_criterion_9_each_even_k():
    # the paper's family exists for every even k: one member each, with
    # mu = 2 zeta_8 written at n = 8k, where sigma_(4k+1) of order 2 lifts
    ok = True
    for k, genus_k, closing in ((2, 17, 32), (4, 1281, 32), (6, 11665, 32)):
        n = 8 * k
        p = validate(-4, make_element(f"2*z^{k}", n), k)
        res = field_of_moduli(p, n)
        ok = ok and genus(k) == genus_k \
            and res.stabilizer == frozenset(units(n)) \
            and res.moduli_field.degree == 1 \
            and res.min_def_field.degree == 4 \
            and same_field(res.min_def_field.primitive, CycElt.zeta(8), n) \
            and res.degree_over_moduli == 4
        g = GaloisElement(n, 4 * k + 1)
        lift = lift_to_monomial(classify_sigma(p, g).witness, p, g, n)
        ok = ok and len(lift.isos) == k ** 5 and not lift.missing
        with transport_checked_once(lift, p, 4 * k + 1, n):
            closes = [cocycle_check(extend_cyclic(f, 4 * k + 1, 2, p, n)).ok
                      for f in lift.isos]
        print(f"[report] criterion 9: k = {k}: {sum(closes)} of "
              f"{len(closes)} candidates close")
        ok = ok and sum(closes) == closing
    verdict(ok, 9, "k = 2, 4, 6: genus, stabilizer, moduli Q, minimal "
                   "definition field Q(zeta_8), k^5 lifts, 32 descend")
