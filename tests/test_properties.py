"""Property tests for the shared elimination, field embedding,
(anti-)Moebius application, field axioms and the Galois action, and
differential tests of set_maps, the stabilizer, the term formatter,
check_order and the k-th root search against the code each replaced, and
of cross_ratio against the normalizing map."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from pseudoreal.configurations import OmegaError, make_config
from pseudoreal.cyclotomic import CycElt, GaloisElement, LimitError, \
    _echelon, _solve_exact, _sympy_field, _sympy_roots, euler_phi, \
    format_poly, make_element, units
from pseudoreal.descent import _in_span, _nullspace, check_order
from pseudoreal.family import validate
from pseudoreal.moduli import classify_sigma, stabilizer
from pseudoreal.moebius import INF, Moebius, SpherePoint, _apply_raw, \
    _normalized_triples, _raw_key, _std_raw, cross_ratio, \
    moebius_from_triple, set_maps, unify_points

SETTINGS = settings(max_examples=100, deadline=None)

coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def elements(n, coeffs=coefficients):
    return st.lists(coeffs, min_size=euler_phi(n), max_size=euler_phi(n)) \
        .map(lambda cs: CycElt(n, cs))


@st.composite
def element_and_multiple(draw):
    """(x, m): x at a conductor d dividing m <= 40."""
    m = draw(st.integers(1, 40))
    d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    return draw(elements(d)), m


@SETTINGS
@given(element_and_multiple())
def test_embed_then_in_conductor_round_trips(pair):
    x, m = pair
    y = x.embed(m)
    back = y.in_conductor(x.n)
    assert back == x and back.coeffs == x.coeffs
    assert y.key() == x.key() == back.key()


small = st.integers(-2, 2).map(Fraction)


@st.composite
def linear_systems(draw):
    """(columns, target): target is a combination of the columns, or an
    arbitrary vector."""
    nrows = draw(st.integers(1, 5))
    vector = st.lists(small, min_size=nrows, max_size=nrows)
    columns = draw(st.lists(vector, min_size=1, max_size=4))
    if draw(st.booleans()):
        xs = draw(st.lists(small, min_size=len(columns),
                           max_size=len(columns)))
        target = [sum(x * c[i] for x, c in zip(xs, columns))
                  for i in range(nrows)]
    else:
        target = draw(vector)
    return columns, target


@SETTINGS
@given(linear_systems())
def test_solve_exact_solves_or_refuses(system):
    columns, target = system
    rows = [[c[i] for c in columns] for i in range(len(target))]
    sol = _solve_exact(columns, target)
    consistent = (len(_echelon(rows)[1])
                  == len(_echelon([r + [t] for r, t in zip(rows, target)])[1]))
    assert (sol is not None) == consistent
    if sol is not None:
        assert [sum(x * v for x, v in zip(sol, r)) for r in rows] == target


@st.composite
def matrices(draw):
    """(n, ncols, rows): independent random rows plus random combinations
    of them, so the rank is often below both dimensions."""
    n = draw(st.sampled_from([1, 3, 4, 5, 8]))
    ncols = draw(st.integers(1, 5))
    row = st.lists(elements(n, small), min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, max_size=3))
    rows = list(base)
    for cs in draw(st.lists(st.lists(elements(n, small), min_size=len(base),
                                     max_size=len(base)), max_size=2)):
        rows.append(_combine(cs, base, n, ncols))
    return n, ncols, draw(st.permutations(rows))


def _combine(cs, rows, n, ncols):
    out = [CycElt.zero(n)] * ncols
    for c, r in zip(cs, rows):
        out = [u + c * v for u, v in zip(out, r)]
    return out


@SETTINGS
@given(matrices())
def test_nullspace_is_annihilated_and_has_full_dimension(case):
    n, ncols, rows = case
    basis = _nullspace(rows, ncols)
    rank = len(_echelon(rows)[1])
    assert len(basis) == ncols - rank
    for v in basis:
        for r in rows:
            assert sum((a * b for a, b in zip(r, v)), CycElt.zero(n)) == 0
    assert len(_echelon(basis)[1]) == len(basis)


@SETTINGS
@given(matrices(), st.data())
def test_in_span_accepts_row_combinations(case, data):
    n, ncols, rows = case
    assume(rows)
    cs = data.draw(st.lists(elements(n, small), min_size=len(rows),
                            max_size=len(rows)))
    assert _in_span(rows, _combine(cs, rows, n, ncols))


@SETTINGS
@given(st.sampled_from([1, 3, 5, 8]).flatmap(
    lambda n: st.tuples(st.lists(elements(n, small), min_size=5, max_size=5),
                        st.booleans())))
def test_anti_map_conjugates_then_applies(case):
    (a, b, c, d, x), at_infinity = case
    assume(not (a * d - b * c).is_zero())
    p = INF if at_infinity else SpherePoint(x)
    anti = Moebius(a, b, c, d, conj_first=True)
    plain = Moebius(a, b, c, d)
    assert anti.apply(p) == plain.apply(p.conjugate())


# -- set_maps against the enumeration it replaced ----------------------------


def reference_triples(pts):
    """Each ordered triple and the other points' images, by one matrix per
    triple (three inversions each)."""
    for idx in itertools.permutations(range(len(pts)), 3):
        triple = tuple(pts[i] for i in idx)
        mat = _std_raw(*triple)
        yield triple, [_apply_raw(mat, p)
                       for i, p in enumerate(pts) if i not in idx]


def reference_set_maps(S, T, anti=False):
    """The earlier set_maps: normalize S's first triple, then try all 120
    ordered triples of T as its image."""
    s_in, t_in = list(S), list(T)
    _, everything = unify_points(s_in + t_in)
    src = sorted({_raw_key(p): p for p in everything[:len(s_in)]}.values(),
                 key=_raw_key)
    tgt = sorted({_raw_key(p): p for p in everything[len(s_in):]}.values(),
                 key=_raw_key)
    assert len(src) == len(tgt) == 6
    if anti:
        src = [p.conjugate() for p in src]
    base, base_images = next(reference_triples(src))
    want = sorted(map(_raw_key, base_images))
    found = {}
    for triple, images in reference_triples(tgt):
        if sorted(map(_raw_key, images)) == want:
            m = moebius_from_triple(base, triple)
            m = Moebius(*m.coefficients(), conj_first=anti)
            found[_map_key(m)] = m
    return [found[k] for k in sorted(found)]


def _map_key(m):
    return (m.conj_first,) + tuple(x.coeffs for x in m.coefficients())


def assert_matches_reference(S, T, anti):
    got = set_maps(S, T, anti=anti)
    assert [_map_key(m) for m in got] == \
        [_map_key(m) for m in reference_set_maps(S, T, anti)]
    return got


small_elements = st.sampled_from([1, 3, 4, 5, 8, 12]).flatmap(
    lambda n: st.lists(elements(n, small), min_size=7, max_size=7))


@settings(max_examples=20, deadline=None)
@given(small_elements, st.booleans(), st.booleans())
def test_set_maps_matches_reference_and_finds_the_map(values, anti, moved):
    l1, l2, l3, a, b, c, d = values
    try:
        cfg = make_config(l1, l2, l3)
    except OmegaError:
        assume(False)
    assume(not (a * d - b * c).is_zero())
    M = Moebius(a, b, c, d, conj_first=anti)
    S = cfg.points()
    # the image of S, or S itself, which M usually does not preserve
    T = [M.apply(p) for p in S] if moved else S
    got = assert_matches_reference(S, T, anti)
    if moved:
        assert M in got


@settings(max_examples=20, deadline=None)
@given(small_elements, st.booleans())
def test_normalized_triples_match_one_matrix_per_triple(values, with_inf):
    _, pts = unify_points(values[:5] + [INF if with_inf else values[5]])
    pts = list({_raw_key(p): p for p in pts}.values())
    got = list(_normalized_triples(pts))
    ref = list(reference_triples(pts))
    assert [t for t, _ in got] == [t for t, _ in ref]
    assert [[_raw_key(q) for q in images] for _, images in got] == \
        [[_raw_key(q) for q in images] for _, images in ref]


# the moduli-sweep parameter forms: mu = q zeta^j with lambda = -q^2, and
# mu = beta zeta^j with beta = a + zeta + zeta^-1 real and lambda = -beta^2
SWEEP = ([(n, "-4", "2*z") for n in (3, 5, 8, 12, 16, 24)]
         + [(n, "-(1 + z + z^-1)^2", "(1 + z + z^-1)*z")
            for n in (5, 8, 12, 16, 24)])


@pytest.mark.parametrize("n, lam, mu", SWEEP)
def test_stabilizer_and_witnesses_match_reference(n, lam, mu):
    p = validate(make_element(lam, n), make_element(mu, n), 2)
    source = make_config(p.lam, p.mu, -p.mu).points()
    hits = set()
    for a in units(n):
        cls = classify_sigma(p, GaloisElement(n, a))
        target = make_config(cls.sigma_lambda, cls.sigma_mu,
                             -cls.sigma_mu).points()
        ref = reference_set_maps(source, target)
        assert cls.in_stabilizer == bool(ref)
        assert (_map_key(cls.witness) if cls.witness else None) == \
            (_map_key(ref[0]) if ref else None)
        if ref:
            hits.add(a)
    assert stabilizer(p, n) == hits


def _points(n, *vectors):
    return make_config(*(CycElt(n, v) for v in vectors)).points()


def test_set_maps_memo_is_keyed_on_exact_source():
    maps = (Moebius(1, 2, 0, 1), Moebius(0, 1, 1, 0))
    # sources A, B, A, each with two targets in a row (a miss, then a hit)
    A = _points(8, (0, 1), (2, 0, 1), (0, 0, 0, 3))
    B = _points(8, (0, 1), (2, 0, 1), (0, 0, 0, -3))
    for S in (A, B, A):
        for M in maps:
            assert M in assert_matches_reference(S, [M(p) for p in S], False)
    # one coefficient vector at conductors 5 and 8, phi = 4 for both
    for n in (5, 8, 5):
        S = _points(n, (0, 1), (1, 1), (0, 2, 0, 1))
        for M in maps:
            assert M in assert_matches_reference(S, [M(p) for p in S], False)
    # plain, then anti, on one non-real source
    S = _points(12, (0, 1), (3,), (1, 0, 2))
    anti = Moebius(0, 1, 1, 0, conj_first=True)
    assert maps[0] in assert_matches_reference(
        S, [maps[0](p) for p in S], False)
    assert anti in assert_matches_reference(S, [anti(p) for p in S], True)
    assert_matches_reference(S, S, True)


# -- the shared term formatter against the two it replaced -------------------


def reference_elt_str(coeffs):
    """The earlier CycElt.__str__."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            var = "z" if i == 1 else f"z^{i}"
            body = var if mag == 1 else f"{mag}*{var}"
        terms.append((c < 0, body))
    if not terms:
        return "0"
    neg, body = terms[0]
    out = ("-" if neg else "") + body
    for neg, body in terms[1:]:
        out += (" - " if neg else " + ") + body
    return out


def reference_format_poly(poly, var="x"):
    """The earlier format_poly."""
    terms = []
    for i, c in enumerate(poly):
        c = Fraction(c)
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            v = var if i == 1 else f"{var}^{i}"
            body = v if mag == 1 else f"{mag}*{v}"
        terms.append((c < 0, body))
    if not terms:
        return "0"
    out = ""
    for idx, (neg, body) in enumerate(reversed(terms)):
        if idx == 0:
            out = ("-" if neg else "") + body
        else:
            out += (" - " if neg else " + ") + body
    return out


# zeros, +-1, other integers and non-integer rationals, all often
printed = st.one_of(st.sampled_from([0, 0, 1, -1]).map(Fraction),
                    st.fractions(min_value=-7, max_value=7,
                                 max_denominator=6))


@SETTINGS
@given(st.sampled_from([1, 3, 4, 5, 7, 8, 12]).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(printed, min_size=euler_phi(n),
                                             max_size=euler_phi(n)))))
def test_element_string_matches_reference(case):
    n, coeffs = case
    assert str(CycElt(n, coeffs)) == reference_elt_str(coeffs)


@SETTINGS
@given(st.lists(st.one_of(printed, st.integers(-3, 3)), max_size=8),
       st.sampled_from(["x", "t"]))
def test_format_poly_matches_reference(poly, var):
    assert format_poly(poly, var) == reference_format_poly(poly, var)


def test_unprintable_result_is_a_size_limit():
    huge = CycElt(1, [Fraction(2) ** 16000])
    with pytest.raises(LimitError) as exc:
        str(huge)
    assert exc.value.clause == "size_limit"
    with pytest.raises(LimitError):
        format_poly((1, -huge.coeffs[0]))


# -- cross_ratio, check_order ------------------------------------------------


@SETTINGS
@given(st.sampled_from([1, 3, 4, 5, 8]).flatmap(
    lambda n: st.lists(elements(n, small), min_size=8, max_size=8)),
    st.sampled_from([None, 0, 1, 2, 3]))
def test_cross_ratio_is_the_normalizing_map_and_is_invariant(values, inf_at):
    # [a,b,c,d] = T(d) for the T that sends (a, b, c) to (inf, 0, 1)
    pts = [SpherePoint(v) for v in values[:4]]
    if inf_at is not None:
        pts[inf_at] = INF
    assume(len({_raw_key(p) for p in unify_points(pts)[1]}) == 4)
    value = cross_ratio(*pts)
    normalized = _apply_raw(_std_raw(*pts[:3]), pts[3]).value
    assert value.n == normalized.n and value.coeffs == normalized.coeffs
    a, b, c, d = values[4:]
    assume(not (a * d - b * c).is_zero())
    M = Moebius(a, b, c, d)
    assert cross_ratio(*map(M, pts)) == value


def brute_order(g, m):
    """The least e >= 1 with g^e = 1 mod m, found by stepping powers."""
    x, e = g % m, 1
    while x != 1 % m:
        x, e = (x * g) % m, e + 1
    return e


def test_check_order_matches_brute_force():
    for m in range(1, 61):
        for g in units(m):
            order = brute_order(g, m)
            check_order(g, order, m)
            check_order(g - m, order, m)
            for wrong in (order - 1, order + 1, 2 * order):
                with pytest.raises(ValueError, match="does not have order"):
                    check_order(g, wrong, m)
        # a non-unit is refused whatever order is claimed
        for g in range(m):
            if math.gcd(g, m) != 1:
                for d in range(1, m + 1):
                    with pytest.raises(ValueError,
                                       match="does not have order"):
                        check_order(g, d, m)


# -- field axioms, Galois homomorphism, eq/hash across conductors -----------


@st.composite
def element_triples(draw):
    n = draw(st.sampled_from([1, 3, 4, 5, 8, 12]))
    return n, draw(st.lists(elements(n), min_size=3, max_size=3))


@SETTINGS
@given(element_triples())
def test_field_axioms(case):
    n, (u, v, w) = case
    zero, one = CycElt.zero(n), CycElt.one(n)
    assert u + v == v + u and u * v == v * u
    assert (u + v) + w == u + (v + w) and (u * v) * w == u * (v * w)
    assert u * (v + w) == u * v + u * w
    assert u + zero == u and u * one == u and u - u == zero
    if not u.is_zero():
        assert u * u.inverse() == one
        assert (v / u) * u == v


@SETTINGS
@given(element_triples(), st.data())
def test_galois_action_is_a_homomorphism(case, data):
    n, (u, v, _) = case
    a = data.draw(st.sampled_from(units(n)))
    b = data.draw(st.sampled_from(units(n)))
    assert (u * v).galois_apply(a) == u.galois_apply(a) * v.galois_apply(a)
    assert (u + v).galois_apply(a) == u.galois_apply(a) + v.galois_apply(a)
    assert u.galois_apply(b).galois_apply(a) == u.galois_apply(a * b)


@SETTINGS
@given(element_and_multiple())
def test_equality_and_hash_agree_across_conductors(pair):
    u, m = pair
    v = u.embed(m)
    assert v == u and u == v
    assert hash(v) == hash(u)
    if u.is_rational():
        assert v == u.as_rational() and hash(v) == hash(u.as_rational())


# -- set_maps does not depend on the order of its target ---------------------


@settings(max_examples=20, deadline=None)
@given(small_elements, st.booleans(), st.booleans(), st.randoms())
def test_set_maps_ignores_the_order_of_its_target(values, anti, moved, rnd):
    l1, l2, l3, a, b, c, d = values
    try:
        cfg = make_config(l1, l2, l3)
    except OmegaError:
        assume(False)
    assume(not (a * d - b * c).is_zero())
    M = Moebius(a, b, c, d, conj_first=anti)
    S = cfg.points()
    T = [M.apply(p) for p in S] if moved else list(S)
    shuffled = list(T)
    rnd.shuffle(shuffled)
    assert [_map_key(m) for m in set_maps(S, shuffled, anti)] == \
        [_map_key(m) for m in set_maps(S, T, anti)]


# -- k-th roots: x^k - v built in the domain against the sympy expression ----


def _old_sympy_roots(coeffs, k, m):
    """The roots of x^k - v as _sympy_roots found them before it built the
    polynomial in the domain: from a sympy expression, which Poly converts
    back into the field through field_isomorphism."""
    import sympy

    field = _sympy_field(m)
    x = sympy.symbols("x")
    val = field.zero
    for i, c in enumerate(coeffs):
        if c:
            val += field.convert(c) * field.unit ** i
    poly = sympy.Poly(x ** k - field.to_sympy(val), x, domain=field)
    out = []
    for factor, _ in poly.factor_list()[1]:
        if factor.degree() != 1:
            continue
        lead, const = factor.rep.to_list()
        root = -const / lead
        desc = root.to_list()  # descending powers of zeta_m
        out.append(tuple(Fraction(c.numerator, c.denominator)
                         for c in reversed(desc)))
    return out


# one-term roots keep the old construction at a few tenths of a second; a
# dense value at n = 24 takes it 10-20 s
@settings(max_examples=16, deadline=None)
@given(st.sampled_from([8, 12, 16, 24]), st.sampled_from([2, 4]),
       st.sampled_from([-2, -1, 1, 2, 3, Fraction(1, 2)]), st.data())
def test_sympy_roots_match_the_expression_construction(n, k, c, data):
    w = c * CycElt.zeta(n) ** data.draw(st.integers(0, n - 1))
    v = w ** k + data.draw(st.sampled_from([0, 0, 1, -3]))
    new = _sympy_roots(v.coeffs, k, n)
    assert sorted(new) == sorted(_old_sympy_roots(v.coeffs, k, n))
    assert all(CycElt(n, r) ** k == v for r in new)
