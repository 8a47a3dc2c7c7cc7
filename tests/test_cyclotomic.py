import itertools
import math
import random
from fractions import Fraction

import pytest
import sympy

from pseudoreal.cyclotomic import (
    MAX_CONDUCTOR,
    CycElt,
    GaloisElement,
    NonRealError,
    ParseError,
    approx,
    conjugate,
    cyclotomic_polynomial,
    euler_phi,
    fixed_field,
    fixing_subgroup,
    format_poly,
    galois_apply,
    is_subgroup,
    kth_roots,
    make_element,
    min_poly,
    poly_eval,
    real_sign,
    same_field,
    subgroups,
    units,
)


def frac(*a):
    return Fraction(*a)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (frac(-1), frac(1))
    assert cyclotomic_polynomial(2) == (frac(1), frac(1))
    assert cyclotomic_polynomial(3) == (frac(1), frac(1), frac(1))
    assert cyclotomic_polynomial(6) == (frac(1), frac(-1), frac(1))
    assert cyclotomic_polynomial(8) == (frac(1), 0, 0, 0, frac(1))
    assert cyclotomic_polynomial(16) == (frac(1), 0, 0, 0, 0, 0, 0, 0, frac(1))
    x = sympy.symbols("x")
    for n in range(1, MAX_CONDUCTOR + 1):
        poly = cyclotomic_polynomial(n)
        assert all(type(c) is int for c in poly)
        expect = sympy.Poly(sympy.cyclotomic_poly(n, x), x).all_coeffs()
        assert list(poly) == expect[::-1]


def test_parser_basics():
    assert make_element("z + z^2", 3) == CycElt(3, (-1, 0))
    assert make_element("-4", 3) == CycElt.from_rational(-4, 3)
    assert make_element("2*z", 5) == 2 * CycElt.zeta(5)
    assert make_element("1/2 - 3/4*z^2 + z^5", 7) is not None
    assert make_element("conj(z)", 5) == CycElt.zeta(5) ** 4
    assert make_element("z^-1", 5) == CycElt.zeta(5) ** 4
    assert make_element("(1+z)*(1-z)", 8) == 1 - CycElt.zeta(8) ** 2


def test_parser_errors():
    with pytest.raises(ParseError):
        make_element("z +", 3)
    with pytest.raises(ParseError):
        make_element("w", 3)
    with pytest.raises(ParseError):
        make_element("2**3", 3)
    with pytest.raises(ZeroDivisionError):
        make_element("1/(z - z)", 5)
    with pytest.raises(ZeroDivisionError):
        make_element("(z - z)^-1", 5)


def test_parser_roundtrip():
    rng = random.Random(7)
    for n in (1, 3, 5, 8, 12, 16):
        for _ in range(20):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                      for _ in range(euler_phi(n))]
            e = CycElt(n, coeffs)
            assert make_element(str(e), n) == e


def test_field_arithmetic():
    z3 = CycElt.zeta(3)
    assert z3 * z3 ** 2 == 1
    assert 1 / CycElt.zeta(4) == -CycElt.zeta(4)
    # mu * conj(mu) = r^2, reduced mod Phi_5: (2 z)(2 z^4) = 4 z^5 = 4
    mu = make_element("2*z", 5)
    assert mu * mu.conjugate() == 4
    assert (mu - mu) == CycElt.zero(5)
    with pytest.raises(ZeroDivisionError):
        mu / CycElt.zero(5)


def test_cross_conductor_arithmetic_and_equality():
    z3 = CycElt.zeta(3)
    z6 = CycElt.zeta(6)
    assert z3 == z6 ** 2
    assert hash(z3) == hash(z6 ** 2)
    # zeta_3 = zeta_6^2 = zeta_6 - 1, so the sum lands at conductor 6
    total = z3 + z6
    assert total.n == 6
    assert total == 2 * z6 - 1
    # set membership across conductors
    assert z3 in {z6 ** 2}
    # embedding and coming back
    assert z3.embed(12).in_conductor(3) == z3


def test_conjugation():
    assert CycElt.zeta(5).conjugate() == CycElt.zeta(5) ** 4
    assert (2 * CycElt.zeta(3)).conjugate() == 2 * CycElt.zeta(3) ** 2
    q = CycElt.from_rational(frac(7, 3), 8)
    assert q.conjugate() == q
    # involution
    u = make_element("1 + 2*z - z^3", 7)
    assert u.conjugate().conjugate() == u
    # conj(u) * u is a nonnegative real, zero only at zero
    assert real_sign(u * u.conjugate()) == 1
    assert real_sign(CycElt.zero(7) * CycElt.zero(7).conjugate()) == 0


def test_galois_action_examples():
    eta = CycElt.zeta(16)
    assert eta.galois_apply(3) == eta ** 3
    omega = eta ** 2
    assert omega.galois_apply(3) == omega ** 3
    u = make_element("1 + z - z^2", 16)
    assert u.galois_apply(1) == u
    with pytest.raises(ValueError):
        u.galois_apply(2)
    with pytest.raises(ValueError):
        u.galois_apply(GaloisElement(8, 3))


def test_galois_action_is_automorphism():
    rng = random.Random(11)
    for n in (3, 4, 5, 7, 8, 9, 12, 16):
        phi = euler_phi(n)
        for _ in range(5):
            u = CycElt(n, [rng.randint(-5, 5) for _ in range(phi)])
            v = CycElt(n, [rng.randint(-5, 5) for _ in range(phi)])
            for a in units(n):
                assert (u + v).galois_apply(a) == \
                    u.galois_apply(a) + v.galois_apply(a)
                assert (u * v).galois_apply(a) == \
                    u.galois_apply(a) * v.galois_apply(a)
            assert CycElt.one(n).galois_apply(a) == 1


def test_galois_action_composition():
    rng = random.Random(13)
    for n in (5, 8, 12, 16):
        u = CycElt(n, [rng.randint(-4, 4) for _ in range(euler_phi(n))])
        for a in units(n):
            for b in units(n):
                assert u.galois_apply(a).galois_apply(b) == \
                    u.galois_apply((a * b) % n)


def test_real_sign():
    assert real_sign(CycElt.from_rational(-4)) == -1
    assert real_sign(make_element("z + z^4", 5)) == 1  # 2 cos(72 deg) > 0
    assert real_sign(CycElt.zero(5)) == 0
    assert real_sign(make_element("z^2 + z^3", 5)) == -1  # 2 cos(144 deg)
    with pytest.raises(NonRealError):
        real_sign(CycElt.zeta(5))


def test_min_poly():
    assert min_poly(CycElt.zeta(3)) == (frac(1), frac(1), frac(1))
    # hand oracle: (x - 2 zeta_3)(x - 2 zeta_3^2) = x^2 + 2x + 4
    assert min_poly(make_element("2*z", 3)) == (frac(4), frac(2), frac(1))
    assert min_poly(CycElt.from_rational(-4, 3)) == (frac(4), frac(1))
    assert format_poly(min_poly(make_element("2*z", 3))) == "x^2 + 2*x + 4"


def test_min_poly_properties():
    rng = random.Random(17)
    for n in (3, 5, 7, 8, 12, 15, 16):
        for _ in range(4):
            u = CycElt(n, [rng.randint(-3, 3) for _ in range(euler_phi(n))])
            mp = min_poly(u)
            assert poly_eval(mp, u).is_zero()
            assert euler_phi(n) % (len(mp) - 1) == 0
            assert mp[-1] == 1


def test_fixed_field_examples():
    # whole unit group mod 3 fixes exactly Q
    sf = fixed_field(units(3), 3)
    assert sf.degree == 1
    assert sf.primitive.is_rational()
    # {1, 4} mod 5 fixes the real quadratic field generated by z + z^4
    sf = fixed_field({1, 4}, 5)
    assert sf.degree == 2
    assert same_field(sf.primitive, make_element("z + z^4", 5))
    # trivial subgroup fixes everything
    sf = fixed_field({1}, 5)
    assert sf.degree == 4
    assert sf.minpoly == cyclotomic_polynomial(5)


def test_fixed_field_rejects_non_subgroup():
    with pytest.raises(ValueError):
        fixed_field({1, 2}, 5)  # 2*2 = 4 missing


def test_fixed_field_exhaustive_small_conductors():
    # the primitive element is fixed by H and by no unit outside H
    for n in range(1, 17):
        for H in subgroups(n):
            sf = fixed_field(H, n)
            stab = fixing_subgroup(sf.primitive, n)
            assert stab == H
            assert sf.degree == euler_phi(n) // len(H)


def test_subgroup_utilities():
    assert is_subgroup({1, 4}, 5)
    assert not is_subgroup({1, 2}, 5)
    assert not is_subgroup({2, 4}, 5)
    got = {frozenset(h) for h in subgroups(8)}
    assert got == {frozenset({1}), frozenset({1, 3}), frozenset({1, 5}),
                   frozenset({1, 7}), frozenset({1, 3, 5, 7})}
    # every (Z/n)* with n <= 60 has rank <= 3, so the closures of all sets
    # of at most three generators, one per cyclic subgroup, are all the
    # subgroups; (Z/24)* itself needs three
    for n in range(1, 61):
        gens = {}
        for a in units(n):
            gens.setdefault(_closure([a], n), a)
        want = {_closure(c, n) for r in range(4)
                for c in itertools.combinations(gens.values(), r)}
        got = subgroups(n)
        assert len(got) == len(want) and set(got) == want, n
        assert all(is_subgroup(h, n) for h in got)


def _closure(gens, n):
    h = {1 % n}
    frontier = [g % n for g in gens]
    while frontier:
        x = frontier.pop()
        if x not in h:
            h.add(x)
            frontier.extend((x * y) % n for y in h)
    return frozenset(h)


def test_approx_boxes():
    b = approx(CycElt.zeta(4), 32)
    assert b.re_lo <= 0 <= b.re_hi and b.im_lo <= 1 <= b.im_hi
    b = approx(make_element("z + z^2", 3), 32)
    assert b.re_lo <= -1 <= b.re_hi and b.im_lo <= 0 <= b.im_hi
    b = approx(make_element("2*z", 5), 32)
    mid_re, mid_im = b.midpoint()
    assert abs(float(mid_re) - 2 * math.cos(2 * math.pi / 5)) < 1e-9
    assert abs(float(mid_im) - 2 * math.sin(2 * math.pi / 5)) < 1e-9
    with pytest.raises(ValueError):
        approx(CycElt.zeta(4), 4)


def test_approx_boxes_shrink():
    u = make_element("1/3 + 2*z - z^2", 7)
    for bits in (16, 32, 64):
        wide = approx(u, bits)
        narrow = approx(u, bits + 8)
        assert narrow.width() <= wide.width()
        assert wide.width() <= Fraction(1, 2 ** bits)


def test_approx_contains_float_value():
    rng = random.Random(23)
    for n in (5, 8, 12):
        for _ in range(5):
            coeffs = [rng.randint(-4, 4) for _ in range(euler_phi(n))]
            u = CycElt(n, coeffs)
            val = sum(c * complex(math.cos(2 * math.pi * i / n),
                                  math.sin(2 * math.pi * i / n))
                      for i, c in enumerate(coeffs))
            b = approx(u, 48)
            assert float(b.re_lo) - 1e-9 <= val.real <= float(b.re_hi) + 1e-9
            assert float(b.im_lo) - 1e-9 <= val.imag <= float(b.im_hi) + 1e-9


def test_kth_roots():
    # sqrt(2 zeta_16^6) = +-(zeta_16 + zeta_16^5)
    v = make_element("2*z^6", 16)
    roots = kth_roots(v, 2)
    assert len(roots) == 2
    assert make_element("z + z^5", 16) in roots
    for w in roots:
        assert w * w == v
    # no root in the smaller field
    assert kth_roots(make_element("2*z^3", 8), 2) == ()
    # sqrt(-4) = +-2i exists once i does
    roots = kth_roots(CycElt.from_rational(-4, 8), 2, 8)
    assert set(roots) == {2 * CycElt.zeta(8) ** 2, -2 * CycElt.zeta(8) ** 2}
    # roots of unity
    assert set(kth_roots(CycElt.one(8), 2, 8)) == \
        {CycElt.one(8), -CycElt.one(8)}
    # fourth roots of -4 in Q(zeta_8): x^4+4 = (x^2-2x+2)(x^2+2x+2)
    roots = kth_roots(CycElt.from_rational(-4, 8), 4, 8)
    assert len(roots) == 4
    for w in roots:
        assert w ** 4 == -4
    # sqrt(2i) = +-(1 + i): the root of unity in sqrt(2) * zeta_8 is odd
    assert set(kth_roots(make_element("2*z", 4), 2)) == \
        {make_element("1 + z", 4), make_element("-1 - z", 4)}


def test_kth_roots_at_the_largest_conductor():
    # sqrt(30) = sqrt(2) sqrt(3) sqrt(5) at n = 120, with zeta_8 = z^15,
    # zeta_12 = z^10 and zeta_10 = z^12: sqrt(2) = zeta_8 + zeta_8^-1,
    # sqrt(3) = zeta_12 + zeta_12^-1, sqrt(5) = 2 (zeta_10 + zeta_10^-1) - 1
    root30 = make_element(
        "(z^15 + z^105) * (z^10 + z^110) * (2*z^12 + 2*z^108 - 1)", 120)
    assert root30 * root30 == 30
    assert kth_roots(CycElt.from_rational(30, 120), 2) == \
        tuple(sorted([root30, -root30], key=CycElt.key))
    # w^4 = -900: w^2 = +-30i, w = sqrt(30) * zeta_8^j for odd j
    z8 = CycElt.zeta(120) ** 15
    expected = sorted((root30 * z8 ** j for j in (1, 3, 5, 7)),
                      key=CycElt.key)
    assert kth_roots(CycElt.from_rational(-900, 120), 4) == tuple(expected)
    # 7 does not divide 240, and neither 4 nor 4^2 is a cube
    assert kth_roots(CycElt.from_rational(7, 120), 2) == ()
    assert kth_roots(CycElt.from_rational(4, 120), 3) == ()
    # at n = 60 sqrt(2) is missing (8 does not divide 60), sqrt(2i) is not
    assert kth_roots(CycElt.from_rational(2, 60), 2) == ()
    one_plus_i = CycElt.one(60) + CycElt.zeta(60) ** 15
    assert set(kth_roots(2 * CycElt.zeta(60) ** 15, 2)) == \
        {one_plus_i, -one_plus_i}


def test_same_field_oracle():
    z5 = CycElt.zeta(5)
    assert same_field(z5, z5 ** 2)
    assert not same_field(z5, z5 + z5 ** 4)
    # the radical i*sqrt(5 + sqrt 5) = sqrt(2)*(z5 - z5^4) generates a
    # different degree-4 field than zeta_5 inside Q(zeta_40)
    sqrt2 = CycElt.zeta(8) + CycElt.zeta(8) ** 7
    radical = sqrt2 * (z5 - z5 ** 4)
    assert len(fixing_subgroup(radical, 40)) == 4  # degree 4 over Q
    assert not same_field(radical, z5, 40)


def test_canonical_strings():
    assert str(CycElt.zero(5)) == "0"
    assert str(CycElt.from_rational(frac(-3, 2), 5)) == "-3/2"
    assert str(2 * CycElt.zeta(5)) == "2*z"
    assert str(-CycElt.zeta(5) ** 3) == "-z^3"
    assert str(1 - CycElt.zeta(8)) == "1 - z"


def test_galois_element_validation():
    with pytest.raises(ValueError):
        GaloisElement(8, 2)
    g = GaloisElement(8, 11)
    assert g.exponent == 3
    h = GaloisElement(8, 3)
    assert (g * h).exponent == 1


def test_elements_are_immutable():
    u = make_element("2*z - 1/3", 8)
    u.coeffs, u.key()   # fill the lazy slots
    for slot in CycElt.__slots__:
        with pytest.raises(AttributeError):
            setattr(u, slot, None)
    assert (u.n, u.num, u.den) == (8, (-1, 6, 0, 0), 3)
    assert u.coeffs == (frac(-1, 3), frac(2), frac(0), frac(0))


def _count_inverse(monkeypatch, u):
    """(__mul__ calls, galois_apply calls, element constructions) of one
    inverse of u, with the norm chain of its conductor already built."""
    u.inverse()
    counts = {"mul": 0, "galois": 0, "store": 0}
    mul, galois, store = CycElt.__mul__, CycElt.galois_apply, CycElt._store

    def counting(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    with monkeypatch.context() as m:
        m.setattr(CycElt, "__mul__", counting("mul", mul))
        m.setattr(CycElt, "__rmul__", counting("mul", mul))
        m.setattr(CycElt, "galois_apply", counting("galois", galois))
        m.setattr(CycElt, "_store", counting("store", store))
        inv = u.inverse()
    assert u * inv == 1
    return counts["mul"], counts["galois"], counts["store"]


@pytest.mark.parametrize("n, products, images", [(40, 7, 4), (120, 9, 5)])
def test_dense_inverse_counts_its_products(monkeypatch, n, products, images):
    # the product of the phi(n) - 1 conjugates took 17 products and 15
    # Galois images at n = 40, and 33 and 31 at n = 120
    u = CycElt(n, [frac(i * i - 7 * i + 3, 11) for i in range(euler_phi(n))])
    mul, galois, _ = _count_inverse(monkeypatch, u)
    assert mul <= products
    assert galois <= images


def test_rational_inverse_is_one_construction(monkeypatch):
    # the conjugate product took 2 products and 5 constructions
    for q in (frac(-3, 7), frac(5, 2)):
        assert _count_inverse(monkeypatch, CycElt.from_rational(q, 12)) == \
            (0, 0, 1)


@pytest.mark.parametrize("e", [5, 8])
def test_power_stops_after_the_last_bit(monkeypatch, e):
    # squaring once more after the last bit, from one * base, took 5
    # products for both
    u = make_element("1 + 2*z - z^3/3", 12)
    expected = u
    for _ in range(e - 1):
        expected = expected * u
    calls = []
    mul = CycElt.__mul__

    def counting(*args):
        calls.append(args)
        return mul(*args)

    with monkeypatch.context() as m:
        m.setattr(CycElt, "__mul__", counting)
        m.setattr(CycElt, "__rmul__", counting)
        power = u ** e
    assert power == expected
    assert len(calls) == 3
    assert u ** 0 == 1 and u ** 1 == u
