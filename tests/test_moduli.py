import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pseudoreal import cyclotomic, moebius, moduli
from pseudoreal.cyclotomic import (
    CycElt,
    GaloisElement,
    euler_phi,
    make_element,
    min_poly,
    poly_eval,
    same_field,
    units,
)
from pseudoreal.family import ParameterError, _twist, validate
from pseudoreal.moebius import INF, Moebius, SpherePoint, set_maps
from pseudoreal.moduli import (
    OracleDisagreement,
    RowMatch,
    classify_sigma,
    field_of_moduli,
    row_targets,
    stabilizer,
)


def sample_params(rng, n, k=2):
    """A random admissible parameter pair with rational r^2, or None."""
    q = Fraction(rng.randint(2, 5))
    mu = q * CycElt.zeta(n) ** rng.randint(1, n - 1)
    lam = -(mu * mu.conjugate())
    try:
        return validate(lam, mu, k)
    except ParameterError:
        return None


def test_classify_identity():
    p = validate(-4, make_element("2*z", 3), 2)
    cls = classify_sigma(p, GaloisElement(3, 1))
    assert RowMatch(row=1, sign=1) in cls.matched_rows
    assert cls.witness is not None and cls.witness.is_identity
    assert cls.brute_force_agree


def test_classify_conjugation_is_row_four():
    # sigma_2 on Q(zeta_3) is conjugation: sigma(mu) = conj(mu) = -lambda/mu
    p = validate(-4, make_element("2*z", 3), 2)
    cls = classify_sigma(p, GaloisElement(3, 2))
    assert cls.matched_rows == (RowMatch(row=4, sign=-1),)
    assert cls.sigma_mu == -p.lam / p.mu
    assert cls.witness == Moebius(0, -4, 1, 0)


def test_classify_no_match():
    p = validate(-4, make_element("2*z", 5), 2)
    cls = classify_sigma(p, GaloisElement(5, 2))
    assert cls.matched_rows == ()
    assert cls.witness is None
    # and the brute-force enumeration found nothing either
    assert cls.brute_force_agree
    cls = classify_sigma(p, GaloisElement(5, 3))
    assert cls.matched_rows == ()


def test_classify_eighth_roots():
    p = validate(-4, make_element("2*z", 8), 2)
    got = {}
    for a in units(8):
        cls = classify_sigma(p, GaloisElement(8, a))
        got[a] = cls.matched_rows
        assert cls.witness is not None
    assert got[1] == (RowMatch(1, 1),)
    assert got[3] == (RowMatch(4, 1),)   # sigma_3(mu) = +lambda/mu
    assert got[5] == (RowMatch(1, -1),)  # sigma_5(mu) = -mu
    assert got[7] == (RowMatch(4, -1),)  # conjugation
    # witnesses for rows (4) are z -> -4/z
    for a in (3, 7):
        assert classify_sigma(p, GaloisElement(8, a)).witness == \
            Moebius(0, -4, 1, 0)


def test_conjugation_always_matches_row_four():
    rng = random.Random(41)
    seen = 0
    while seen < 20:
        n = rng.choice((3, 5, 7, 8, 12))
        p = sample_params(rng, n)
        if p is None:
            continue
        seen += 1
        cls = classify_sigma(p, GaloisElement(n, -1))
        rows = {m.row for m in cls.matched_rows}
        assert 4 in rows
        assert cls.sigma_mu == -p.lam / p.mu


def test_real_sigma_lambda_stays_in_first_rows():
    rng = random.Random(43)
    seen = 0
    while seen < 20:
        n = rng.choice((3, 5, 7, 8, 12))
        p = sample_params(rng, n)
        if p is None:
            continue
        seen += 1
        for a in units(n):
            cls = classify_sigma(p, GaloisElement(n, a))
            if cls.sigma_lambda.is_real():
                assert all(m.row <= 4 for m in cls.matched_rows)


def unit_norm_sample():
    """lambda = -(3 + 2 sqrt2), mu = (1 + sqrt2) zeta_8: an admissible pair
    whose lambda has a Galois conjugate equal to 1/lambda, so rows (2) and
    (3) actually occur."""
    lam = make_element("-(3 + 2*(z + z^-1))", 8)
    mu = make_element("(1 + z + z^-1) * z", 8)
    return validate(lam, mu, 2)


def test_unit_norm_sample_hits_rows_two_and_three():
    p = unit_norm_sample()
    rows = {a: classify_sigma(p, GaloisElement(8, a)).matched_rows
            for a in units(8)}
    assert rows[1] == (RowMatch(1, 1),)
    assert rows[3] == (RowMatch(3, 1),)
    assert rows[5] == (RowMatch(2, -1),)
    assert rows[7] == (RowMatch(4, -1),)


def test_row_composition_laws():
    # matching rows compose like (2)(3) -> (4), (2)(4) -> (3), (3)(4) -> (2)
    rng = random.Random(47)
    law = {frozenset((2, 3)): 4, frozenset((2, 4)): 3, frozenset((3, 4)): 2}
    checked = 0
    params = [unit_norm_sample()]
    seen = 0
    while seen < 8:
        n = rng.choice((3, 5, 7, 8, 12))
        p = sample_params(rng, n)
        if p is None:
            continue
        seen += 1
        params.append(p)
    for p in params:
        n = p.conductor
        rows_by_exp = {}
        for a in units(n):
            cls = classify_sigma(p, GaloisElement(n, a))
            rows_by_exp[a] = {m.row for m in cls.matched_rows}
        for a1 in units(n):
            for a2 in units(n):
                for r1 in rows_by_exp[a1]:
                    for r2 in rows_by_exp[a2]:
                        want = law.get(frozenset((r1, r2)))
                        if want is None or r1 == r2:
                            continue
                        prod = (a1 * a2) % n
                        assert want in rows_by_exp[prod], \
                            (n, a1, a2, r1, r2, rows_by_exp)
                        checked += 1
    assert checked > 0


def test_row_targets_witnesses_move_the_set():
    # every row's witness really does map the six points onto the twisted
    # six points when the row's formulas are taken as the twist
    p = validate(-4, make_element("2*z", 5), 2)
    lam, mu = p.lam, p.mu
    src = frozenset((INF, SpherePoint.of(0), SpherePoint.of(1),
                     SpherePoint.of(lam), SpherePoint.of(mu),
                     SpherePoint.of(-mu)))
    for row, sign, want_l, want_m, builder in row_targets(lam, mu):
        t = builder(want_l, want_m)
        tgt = frozenset((INF, SpherePoint.of(0), SpherePoint.of(1),
                         SpherePoint.of(want_l), SpherePoint.of(want_m),
                         SpherePoint.of(-want_m)))
        assert frozenset(t.apply(q) for q in src) == tgt, (row, sign)


def test_stabilizers_of_worked_examples():
    p3 = validate(-4, make_element("2*z", 3), 2)
    assert stabilizer(p3, 3) == frozenset({1, 2})
    p5 = validate(-4, make_element("2*z", 5), 2)
    assert stabilizer(p5, 5) == frozenset({1, 4})
    p8 = validate(-4, make_element("2*z", 8), 2)
    assert stabilizer(p8, 8) == frozenset({1, 3, 5, 7})


STABILIZERS = [(5, {1, 4}), (8, {1, 3, 5, 7}), (40, {1, 19, 21, 39})]


def _count_stabilizer_work(n, monkeypatch):
    """Run `stabilizer` on lambda = -4, mu = 2 zeta_n, recording the
    `set_maps` calls (target, maps found), the `classify_sigma` and
    `_table` calls and the exponents `_refuted` was asked about, with its
    answers."""
    p = validate(-4, make_element("2*z", n), 2)
    calls = {"set_maps": [], "classified": [], "tables": 0, "refuted": []}
    set_maps, classify, table, refuted = moduli.set_maps, \
        moduli.classify_sigma, moduli._table, moduli._refuted

    def counting_set_maps(source, target, **kw):
        calls["set_maps"].append((tuple(target), set_maps(source, target,
                                                          **kw)))
        return calls["set_maps"][-1][1]

    def counting_table(*args):
        calls["tables"] += 1
        return table(*args)

    def counting_refuted(lam, mu, a):
        calls["refuted"].append((a, refuted(lam, mu, a)))
        return calls["refuted"][-1][1]

    monkeypatch.setattr(moduli, "set_maps", counting_set_maps)
    monkeypatch.setattr(moduli, "classify_sigma",
                        lambda p, g: calls["classified"].append(g.exponent)
                        or classify(p, g))
    monkeypatch.setattr(moduli, "_table", counting_table)
    monkeypatch.setattr(moduli, "_refuted", counting_refuted)
    return p, stabilizer(p, n), calls


def _cosets(exponents, want, n):
    return {frozenset(a * h % n for h in want) for a in exponents}


@pytest.mark.parametrize("n, want", STABILIZERS)
def test_stabilizer_enumerates_sigma_1_and_one_exponent_per_coset(
        n, want, monkeypatch):
    # the table matches sigma_1 once, in classify_sigma, and every other
    # unit in the stabilizer's one pass.  One exponent of each other coset
    # is enumerated on residues at the split prime, which refute it, so
    # set_maps runs once, on sigma_1, and finds the identity alone
    p, stab, calls = _count_stabilizer_work(n, monkeypatch)
    assert stab == want
    index = euler_phi(n) // len(want)
    assert calls["classified"] == [1]
    assert calls["tables"] == 2
    lam, mu = p.lam.in_conductor(n), p.mu.in_conductor(n)
    [(target, maps)] = calls["set_maps"]
    assert target == tuple(_twist(lam, mu, GaloisElement(n, 1))[2])
    assert len(maps) == 1 and maps[0].is_identity
    # one exponent of each other coset, each refuted; the enumeration
    # agrees that it has no map
    exponents = [a for a, _ in calls["refuted"]]
    assert all(refuted for _, refuted in calls["refuted"])
    assert len(exponents) == index - 1
    assert not set(exponents) & want
    assert len(_cosets(exponents, want, n)) == index - 1
    source = _twist(lam, mu, GaloisElement(n, 1))[2]
    for a in exponents:
        target = _twist(lam, mu, GaloisElement(n, a))[2]
        assert set_maps(source, target) == []


@pytest.mark.parametrize("n, want", STABILIZERS)
def test_stabilizer_without_the_residue_filter_enumerates_each_coset(
        n, want, monkeypatch):
    # with the filter keeping every triple, nothing is refuted, and each
    # coset's representative is enumerated exactly, sigma_1 first
    monkeypatch.setattr(moduli, "_residue_triples",
                        lambda p, res, want: iter(moebius._TRIPLES))
    p, stab, calls = _count_stabilizer_work(n, monkeypatch)
    assert stab == want
    index = euler_phi(n) // len(want)
    assert not any(refuted for _, refuted in calls["refuted"])
    found = [maps for _, maps in calls["set_maps"]]
    assert len(found) == index
    assert len(found[0]) == 1 and found[0][0].is_identity
    assert all(maps == [] for maps in found[1:])
    lam, mu = p.lam.in_conductor(n), p.mu.in_conductor(n)
    twisted = {tuple(_twist(lam, mu, GaloisElement(n, a))[2]): a
               for a in units(n)}
    exponents = [twisted[target] for target, _ in calls["set_maps"]]
    assert exponents[0] == 1
    assert len(_cosets(exponents, want, n)) == index


@pytest.mark.parametrize("n, dropped", [(5, {4}), (8, {5, 7}),
                                        (40, {19, 21})])
def test_a_hit_the_table_drops_is_an_oracle_disagreement(
        n, dropped, monkeypatch):
    # the hits left form a subgroup; the dropped coset has a map, so the
    # residues leave a triple of it and set_maps finds the map
    table = moduli._table
    monkeypatch.setattr(moduli, "_table", lambda *args: [
        (a, [] if a in dropped else rows, twist)
        for a, rows, twist in table(*args)])
    p = validate(-4, make_element("2*z", n), 2)
    with pytest.raises(OracleDisagreement, match="table witnesses \\[\\]"):
        stabilizer(p, n)


def test_the_pinned_n40_member_does_its_no_answers_on_residues(
        monkeypatch):
    # an operation count, the same on every machine, for the slowest
    # moduli-sweep query: lambda = -4, mu = 2 zeta_40
    n = 40
    p = validate(-4, make_element("2*z", n), 2)
    calls = {"set_maps": 0, "exact": 0, "matches": 0, "embed": 0,
             "pairing": 0, "mul": 0}
    inside = {"matches": False, "pairing": False}
    set_maps, matches, pairing = \
        moduli.set_maps, cyclotomic._galois_matches, moduli._pairing
    galois_apply, embed, mul = \
        CycElt.galois_apply, CycElt.embed, CycElt.__mul__

    def counting_set_maps(*args, **kw):
        calls["set_maps"] += 1
        return set_maps(*args, **kw)

    def within(name, fn):
        def call(*args):
            inside[name] = True
            try:
                return fn(*args)
            finally:
                inside[name] = False
        return call

    def counting_matches(v, w):
        out = within("matches", matches)(v, w)
        calls["matches"] += len(out)
        return out

    def counting_galois_apply(self, a):
        calls["exact"] += inside["matches"]
        return galois_apply(self, a)

    def counting_embed(self, m):
        calls["embed"] += inside["pairing"] and m != self.n
        return embed(self, m)

    def counting_pairing(*args):
        calls["pairing"] += 1
        return within("pairing", pairing)(*args)

    def counting_mul(self, other):
        calls["mul"] += 1
        return mul(self, other)

    monkeypatch.setattr(moduli, "set_maps", counting_set_maps)
    monkeypatch.setattr(cyclotomic, "_galois_matches", counting_matches)
    monkeypatch.setattr(moduli, "_galois_matches", counting_matches)
    monkeypatch.setattr(moduli, "_pairing", counting_pairing)
    monkeypatch.setattr(CycElt, "galois_apply", counting_galois_apply)
    monkeypatch.setattr(CycElt, "embed", counting_embed)
    res = field_of_moduli(p, n)
    assert sorted(res.stabilizer) == [1, 19, 21, 39]
    assert not res.hypothesis_no_negation  # sigma_21(mu) = -mu
    # set_maps on sigma_1 alone; every other coset refuted on residues
    assert calls["set_maps"] == 1
    # the exact Galois images of fixing_subgroup and the negation test are
    # the fixers and the hits: 1 for mu, 1 negation and 4 for the moduli
    # field's primitive element; every unit fixes the rational lambda, so
    # its fixing subgroup takes none
    assert calls["exact"] == calls["matches"] == 1 + 1 + 4
    # the pairings of the table's hits take 1 and 0 as scalars
    assert calls["pairing"] == 4 and calls["embed"] == 0
    z = CycElt.zeta(n)
    assert res.min_def_field.primitive == z
    monkeypatch.setattr(CycElt, "__mul__", counting_mul)
    monkeypatch.setattr(CycElt, "__rmul__", counting_mul)
    assert min_poly(z) == res.min_def_field.minpoly
    assert calls["mul"] == 0


@pytest.mark.parametrize("n, lam, mu", [
    (5, "-4", "2*z"), (8, "-4", "2*z"), (40, "-4", "2*z"),
    (8, "-(3 + 2*(z + z^-1))^2", "(3 + 2*(z + z^-1))*z")])
def test_validate_and_stabilizer_invert_no_irrational_element(
        n, lam, mu, monkeypatch):
    # an operation count, the same on every machine; rational inversions,
    # such as the normalization of a rational witness, are free to stay
    lam, mu = make_element(lam, n), make_element(mu, n)
    inverse, irrational = CycElt.inverse, []

    def counting(self):
        if not self.is_rational():
            irrational.append(self)
        return inverse(self)

    monkeypatch.setattr(CycElt, "inverse", counting)
    p = validate(lam, mu, 2)
    assert len(stabilizer(p, n)) == (2 if n == 5 else 4)
    assert irrational == []


def test_field_of_moduli_p3():
    p = validate(-4, make_element("2*z", 3), 2)
    res = field_of_moduli(p, 3)
    assert res.moduli_field.degree == 1
    assert res.min_def_field.degree == 2
    assert res.degree_over_moduli == 2
    assert res.hypothesis_r4_rational and res.hypothesis_no_negation
    assert same_field(res.min_def_field.primitive, CycElt.zeta(3))


def test_field_of_moduli_p5():
    p = validate(-4, make_element("2*z", 5), 2)
    res = field_of_moduli(p, 5)
    assert res.moduli_field.degree == 2
    # the moduli field is the real quadratic field of zeta + zeta^4
    assert same_field(res.moduli_field.primitive,
                      make_element("z + z^4", 5))
    # its minimal polynomial has discriminant 5 times a square
    c0, c1, c2 = res.moduli_field.minpoly
    disc = c1 * c1 - 4 * c2 * c0
    assert disc > 0
    num, den = disc.numerator, disc.denominator
    assert num % 5 == 0
    side = Fraction(num, 5) / den
    assert (side.numerator * side.denominator) == \
        _integer_square(side.numerator * side.denominator)
    assert res.min_def_field.degree == 4
    assert same_field(res.min_def_field.primitive, CycElt.zeta(5))
    assert res.degree_over_moduli == 2
    assert res.hypothesis_r4_rational and res.hypothesis_no_negation


def _integer_square(n):
    r = int(round(n ** 0.5))
    for cand in (r - 1, r, r + 1):
        if cand * cand == n:
            return n
    return None


def test_field_of_moduli_eighth_roots():
    p = validate(-4, make_element("2*z", 8), 2)
    res = field_of_moduli(p, 8)
    assert res.moduli_field.degree == 1
    assert not res.hypothesis_no_negation       # sigma_5(mu) = -mu
    assert res.hypothesis_r4_rational
    assert res.min_def_field.degree == 4
    assert res.degree_over_moduli == 4    # quadratic-extension rule is off
    assert same_field(res.min_def_field.primitive, CycElt.zeta(8))


@st.composite
def admissible_mu(draw):
    """(n, lambda, mu) as expressions at n <= 40: mu = q zeta^j with
    lambda = -q^2, or mu = beta zeta^j with beta = a + b (zeta + zeta^-1)
    real and lambda = -beta^2; not every draw is admissible."""
    n = draw(st.sampled_from([3, 4, 5, 7, 8, 9, 10, 12, 15, 16, 20, 24, 40]))
    j = draw(st.integers(1, n - 1))
    if draw(st.booleans()):
        q = draw(st.integers(2, 5))
        return n, f"-{q * q}", f"{q}*z^{j}"
    beta = f"({draw(st.integers(-3, 3))} + {draw(st.integers(1, 2))}" \
        f"*(z + z^-1))"
    return n, f"-{beta}^2", f"{beta}*z^{j}"


# minimal-polynomial evaluation and unit enumeration agree on whether some
# sigma sends mu to -mu, and field_of_moduli, which enumerates, agrees too
@settings(max_examples=40, deadline=None)
@given(admissible_mu())
@example((5, "-4", "2*z"))
@example((8, "-4", "2*z"))
def test_no_negation_double_entry(member):
    n, lam, mu = member
    try:
        p = validate(make_element(lam, n), make_element(mu, n), 2)
    except ParameterError:
        assume(False)
    by_minpoly = not poly_eval(min_poly(p.mu), -p.mu).is_zero()
    by_enumeration = all(p.mu.galois_apply(a) != -p.mu for a in units(n))
    assert by_minpoly == by_enumeration
    assert field_of_moduli(p, n).hypothesis_no_negation == by_enumeration
    if (n, mu) == (5, "2*z"):
        assert by_enumeration
    if (n, mu) == (8, "2*z"):
        assert not by_enumeration


def test_moduli_field_degree_equals_index():
    rng = random.Random(53)
    seen = 0
    while seen < 5:
        n = rng.choice((3, 5, 8, 12))
        p = sample_params(rng, n)
        if p is None:
            continue
        seen += 1
        res = field_of_moduli(p, n)
        assert res.moduli_field.degree == euler_phi(n) // len(res.stabilizer)
        prim = res.moduli_field.primitive
        assert all(prim.galois_apply(a) == prim for a in res.stabilizer)


def test_classify_requires_galois_element():
    p = validate(-4, make_element("2*z", 3), 2)
    with pytest.raises(TypeError):
        classify_sigma(p, 2)
