import itertools
import random
from fractions import Fraction

import pytest

from pseudoreal.configurations import make_config, symmetries
from pseudoreal.cyclotomic import CycElt, make_element
from pseudoreal.moebius import (
    INF,
    Moebius,
    SpherePoint,
    _apply_raw,
    _normalized_triples,
    _std_raw,
    concircular,
    cross_ratio,
    g_orbit,
    moebius_from_triple,
    set_maps,
    unify_points,
)


def family_points(lam, mu):
    return [INF, SpherePoint.of(0), SpherePoint.of(1),
            SpherePoint.of(lam), SpherePoint.of(mu), SpherePoint.of(-mu)]


def test_cross_ratio_examples():
    for r in (2, 3, Fraction(7, 2)):
        assert cross_ratio(INF, 0, 1, -r * r) == -r * r
    a = make_element("2*z", 5)
    assert cross_ratio(INF, 0, a, -a) == -1
    # derived by solving T(0)=inf, T(1)=0, T(2)=1: T(z) = 2(z-1)/z, T(3) = 4/3
    assert cross_ratio(0, 1, 2, 3) == Fraction(4, 3)
    mu = make_element("2*z", 3)
    assert cross_ratio(1, -4, mu, -mu) == Fraction(-7, 3)


def test_cross_ratio_closed_form_at_family_points():
    # -(r^4 + 2(2 sin^2 - 1) r^2 + 1)/(r^2 + 2 cos r + 1)^2 at r=2,
    # theta = 2 pi/3: cos = -1/2, sin^2 = 3/4, value -21/9 = -7/3
    r = Fraction(2)
    num = r ** 4 + 2 * (2 * Fraction(3, 4) - 1) * r ** 2 + 1
    den = (r ** 2 + 2 * Fraction(-1, 2) * r + 1) ** 2
    assert -num / den == Fraction(-7, 3)


def test_cross_ratio_infinity_positions():
    assert cross_ratio(0, INF, 1, 2) == Fraction(1, 2)
    assert cross_ratio(0, 1, INF, 3) == Fraction(2, 3)
    assert cross_ratio(0, 1, 2, INF) == 2


def test_cross_ratio_rejects_repeats():
    with pytest.raises(ValueError):
        cross_ratio(INF, 0, 1, 1)
    with pytest.raises(ValueError):
        cross_ratio(INF, INF, 0, 1)


def test_cross_ratio_moebius_invariance():
    rng = random.Random(101)
    count = 0
    while count < 100:
        pts = rng.sample(range(-20, 21), 4)
        a, b, c, d = (Fraction(x) for x in pts)
        ma, mb, mc, md = (Fraction(rng.randint(-9, 9)) for _ in range(4))
        if ma * md - mb * mc == 0:
            continue
        m = Moebius(ma, mb, mc, md)
        count += 1
        assert cross_ratio(m(a), m(b), m(c), m(d)) == cross_ratio(a, b, c, d)


def test_cross_ratio_permutation_covariance():
    rng = random.Random(103)
    base = [INF, SpherePoint.of(0), SpherePoint.of(1),
            SpherePoint.of(make_element("2*z", 5))]
    value = cross_ratio(*base)
    orbit = {v.key() for v in g_orbit(value)}
    for perm in itertools.permutations(base):
        assert cross_ratio(*perm).key() in orbit
    for _ in range(20):
        pts = [Fraction(x) for x in rng.sample(range(-30, 30), 4)]
        orbit = {v.key() for v in g_orbit(cross_ratio(*pts))}
        perm = rng.sample(pts, 4)
        assert cross_ratio(*perm).key() in orbit


def test_g_orbit():
    assert {str(v) for v in g_orbit(2)} == {"2", "1/2", "-1"}
    orbit = g_orbit(CycElt.from_rational(Fraction(-7, 3)))
    assert len(orbit) == 6
    strs = {str(v) for v in orbit}
    assert "-3/7" in strs and "10/3" in strs
    z6 = CycElt.zeta(6)
    orbit = g_orbit(z6)
    assert len(orbit) == 2
    assert any(v == 1 / z6 for v in orbit)
    with pytest.raises(ValueError):
        g_orbit(CycElt.one(3))


def test_concircular():
    mu = make_element("2*z", 3)
    assert concircular(INF, 0, 1, -4)
    assert concircular(INF, 0, mu, -mu)
    assert not concircular(INF, 0, 1, mu)
    # permutation invariance
    for perm in itertools.permutations([INF, SpherePoint.of(0),
                                        SpherePoint.of(mu),
                                        SpherePoint.of(-mu)]):
        assert concircular(*perm)


def test_moebius_from_triple():
    assert moebius_from_triple((INF, 0, 1), (INF, 0, 1)).is_identity
    inv = moebius_from_triple((INF, 0, 1), (0, INF, 1))
    assert inv == Moebius(0, 1, 1, 0)
    mu = make_element("2*z", 5)
    smu = make_element("2*z^2", 5)
    t = moebius_from_triple((mu, -mu, INF), (INF, 0, smu))
    assert t == Moebius(smu, smu * mu, 1, -mu)
    for src, dst in [((mu, -mu, INF), (INF, 0, smu)),
                     ((0, 1, INF), (1, 2, 3))]:
        m = moebius_from_triple(src, dst)
        for s, d in zip(src, dst):
            assert m(s) == SpherePoint.of(d)
    with pytest.raises(ValueError):
        moebius_from_triple((0, 0, 1), (INF, 0, 1))


def test_moebius_algebra():
    m = Moebius(1, 2, 3, 4)
    assert (m @ m.inverse()).is_identity
    assert (m.inverse() @ m).is_identity
    anti = Moebius(0, -4, 1, 0, conj_first=True)
    assert anti.square().is_identity
    assert (anti @ anti.inverse()).is_identity
    with pytest.raises(ValueError):
        Moebius(1, 2, 2, 4)  # ad - bc = 0


def test_moebius_composition_matches_pointwise():
    rng = random.Random(107)
    z8 = CycElt.zeta(8)
    samples = [SpherePoint.of(Fraction(x)) for x in range(-3, 4)] + \
        [INF, SpherePoint.of(z8), SpherePoint.of(2 * z8 ** 3)]
    for _ in range(20):
        def rand_map():
            while True:
                co = [rng.randint(-4, 4) for _ in range(4)]
                if co[0] * co[3] - co[1] * co[2] != 0:
                    return Moebius(*co, conj_first=rng.random() < 0.5)
        f, g = rand_map(), rand_map()
        fg = f @ g
        for p in samples:
            assert fg(p) == f(g(p))


def test_canonical_form_composition_closure():
    # projective equality is a congruence: composing canonical forms agrees
    # with canonicalizing the matrix product with arbitrary scaling
    m1 = Moebius(2, 4, 0, 2)
    m2 = Moebius(Fraction(1, 2), 1, 0, Fraction(1, 2))
    assert m1 == m2
    n1 = Moebius(0, 3, 3, 3)
    assert (m1 @ n1) == (m2 @ n1)
    assert (n1 @ m1) == (n1 @ m2)


def test_set_maps_trivial_configuration():
    mu = make_element("2*z", 3)
    pts = family_points(CycElt.from_rational(-4, 3), mu)
    conf = set_maps(pts, pts, anti=False)
    assert len(conf) == 1 and conf[0].is_identity
    anti = set_maps(pts, pts, anti=True)
    assert anti == [Moebius(0, -4, 1, 0, conj_first=True)]


def test_set_maps_row_image():
    # the image of the six-point set under z -> 1/z is the configuration
    # with (lambda', mu') = (1/lambda, 1/mu); enumeration finds exactly 1/z
    lam = CycElt.from_rational(-4, 5)
    mu = make_element("2*z", 5)
    src = family_points(lam, mu)
    dst = family_points(1 / lam, 1 / mu)
    maps = set_maps(src, dst, anti=False)
    assert maps == [Moebius(0, 1, 1, 0)]


def test_set_maps_no_map():
    src = family_points(CycElt.from_rational(-4, 5), make_element("2*z", 5))
    dst = [SpherePoint.of(Fraction(x)) for x in (2, 3, 5, 7, 11)] + [INF]
    assert set_maps(src, dst, anti=False) == []


def test_set_maps_group_closure():
    # maps of a set to itself form a group containing the identity
    half = CycElt.from_rational(Fraction(1, 2))
    pts = [INF, SpherePoint.of(0), SpherePoint.of(1), SpherePoint.of(-1),
           SpherePoint.of(2), SpherePoint.of(half)]
    maps = set_maps(pts, pts, anti=False)
    keys = {m.key() for m in maps}
    assert any(m.is_identity for m in maps)
    for m1 in maps:
        for m2 in maps:
            assert (m1 @ m2).key() in keys
        assert m1.inverse().key() in keys
    assert len(maps) == 12


def test_set_maps_requires_six_points():
    with pytest.raises(ValueError):
        set_maps([INF, SpherePoint.of(0)], [INF, SpherePoint.of(1)])


def test_one_cross_ratio_table_counts_its_products(monkeypatch):
    # the product per image took 461 products and 687 element
    # constructions for this set; the cross-ratio table took 116 and 248,
    # and with its inversions down the norm chain it takes 96 and at most
    # 216 (208 once the chain of conductor 8 is built)
    counts = {"mul": 0, "store": 0}
    mul, store = CycElt.__mul__, CycElt._store

    def counting_mul(self, other):
        counts["mul"] += 1
        return mul(self, other)

    def counting_store(self, *args):
        counts["store"] += 1
        return store(self, *args)

    cfg = make_config(*(make_element(x, 8) for x in ("-4", "2*z", "-2*z")))
    _, pts = unify_points(cfg.points())
    monkeypatch.setattr(CycElt, "__mul__", counting_mul)
    monkeypatch.setattr(CycElt, "__rmul__", counting_mul)
    monkeypatch.setattr(CycElt, "_store", counting_store)
    rows = list(_normalized_triples(pts))
    assert len(rows) == 120
    assert counts["mul"] <= 96
    assert counts["store"] <= 216


def test_symmetries_invert_an_irrational_element_once_per_map(monkeypatch):
    # {inf, 0, 1, i, -i, -1}: 24 rotations and 24 anti-maps, each a triple
    # that the split prime leaves.  Testing a triple divides nothing, so
    # what is inverted is each map's lead coefficient and the squares'
    cfg = make_config(*(make_element(x, 4) for x in ("z", "-z", "-1")))
    inverse, count = CycElt.inverse, [0]

    def counting(self):
        count[0] += not self.is_rational()
        return inverse(self)

    monkeypatch.setattr(CycElt, "inverse", counting)
    sym = symmetries(cfg)
    found = len(sym.conformal) + len(sym.anticonformal)
    assert found == 48
    assert count[0] <= found


def test_set_maps_without_a_map_inverts_only_the_spots(monkeypatch):
    # sigma_3 is outside the stabilizer of this member: the split prime
    # refutes all 120 triples, so the only inversions are the three that
    # put the target's last points at their spots
    lam, mu = make_element("-4", 40), make_element("2*z", 40)
    src = family_points(lam, mu)
    dst = family_points(lam.galois_apply(3), mu.galois_apply(3))
    inverse, count = CycElt.inverse, [0]

    def counting(self):
        count[0] += 1
        return inverse(self)

    monkeypatch.setattr(CycElt, "inverse", counting)
    mat = _std_raw(*unify_points(dst)[1][:3])
    for p in unify_points(dst)[1][3:]:
        _apply_raw(mat, p)
    spots, count[0] = count[0], 0
    assert set_maps(src, dst) == []
    assert count[0] == spots == 3
