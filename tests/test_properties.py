"""Property tests for the shared elimination, field embedding,
(anti-)Moebius application, field axioms, inverses of dense values and
the Galois action, and differential tests of set_maps, the cross-ratio
table, u_orbit, the stabilizer,
the term formatter, check_order, the k-th root search and its shortcuts,
the kernel test of curve transport, the integer element arithmetic, the
inverse down the norm chain and validate's collision check against the
code each replaced, and of
cross_ratio against the normalizing map."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from pseudoreal import moebius
from pseudoreal.configurations import OmegaError, make_config, u_orbit
from pseudoreal.cyclotomic import MAX_CONDUCTOR, CycElt, GaloisElement, \
    LimitError, _conjugates, _echelon, _no_root_mod_p, _norm_chain, \
    _reduced, _size_bits, _sympy_field, \
    _sympy_roots, _monomial_roots, _related_roots, cyclotomic_polynomial, euler_phi, \
    format_poly, kth_roots, make_element, subgroups, units
from pseudoreal.descent import _annihilated, _curve_kernel, _nullspace, \
    check_order, curve_rows
from pseudoreal.family import ParameterError, family_cross_ratios, validate
from pseudoreal.moduli import classify_sigma, stabilizer
from pseudoreal.moebius import INF, Moebius, SpherePoint, _apply_raw, \
    _normalized_triples, _orbit_values, _raw_key, _std_raw, _triple_index, \
    cross_ratio, g_orbit, moebius_from_triple, set_maps, unify_points

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


def _solve_exact(columns, target):
    """Solve sum_j x_j * columns[j] = target over Q; None if inconsistent:
    the elimination that CycElt._rewrite_in ran before its cached left
    inverse, and the reference for key() below."""
    rows = len(target)
    ncols = len(columns)
    ech, pivots = _echelon([[columns[j][i] for j in range(ncols)] + [target[i]]
                            for i in range(rows)])
    if pivots and pivots[-1] == ncols:   # a pivot in the target column
        return None
    sol = [Fraction(0)] * ncols
    for row, col in zip(ech, pivots):
        sol[col] = row[ncols]
    # verify (pivot-free columns were forced to zero)
    for i in range(rows):
        if sum(columns[j][i] * sol[j] for j in range(ncols)) != target[i]:
            return None
    return tuple(sol)


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


def _in_span(rows, vec) -> bool:
    """Row-span membership by elimination: the echelon test that
    transports_curve ran on every twisted row before the kernel test."""
    ech, pivots = _echelon(rows)
    v = list(vec)
    for row, col in zip(ech, pivots):
        if not v[col].is_zero():
            f = v[col]
            v = [u - f * w for u, w in zip(v, row)]
    return all(x.is_zero() for x in v)


@SETTINGS
@given(matrices(), st.data())
def test_in_span_accepts_row_combinations(case, data):
    n, ncols, rows = case
    assume(rows)
    cs = data.draw(st.lists(elements(n, small), min_size=len(rows),
                            max_size=len(rows)))
    vec = _combine(cs, rows, n, ncols)
    assert _in_span(rows, vec)
    assert _annihilated(_nullspace(rows, ncols), vec)


@SETTINGS
@given(matrices(), st.data())
def test_kernel_test_matches_elimination(case, data):
    n, ncols, rows = case
    assume(rows)
    vec = data.draw(st.lists(elements(n, small), min_size=ncols,
                             max_size=ncols))
    if data.draw(st.booleans()):   # often in the span, off by one entry
        vec = _combine([CycElt.one(n)] * len(rows), rows, n, ncols)
        vec[data.draw(st.integers(0, ncols - 1))] += data.draw(
            st.sampled_from([0, 1, -2]))
    assert _annihilated(_nullspace(rows, ncols), vec) == _in_span(rows, vec)


@SETTINGS
@given(st.sampled_from([1, 3, 4, 5, 8, 12, 16]).flatmap(
    lambda n: st.tuples(elements(n, small), elements(n, small))), st.data())
def test_curve_kernel_spans_the_nullspace_of_the_curve_rows(pair, data):
    nu, eta = pair
    rows = curve_rows(nu, eta)
    kernel = _curve_kernel(nu, eta)
    assert _echelon(kernel) == _echelon(_nullspace(rows, 6))
    vec = data.draw(st.lists(elements(nu.n, small), min_size=6, max_size=6))
    assert _annihilated(kernel, vec) == _in_span(rows, vec)


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


# -- the cross-ratio table against the product per image it replaced ---------


def reference_normalized_triples(pts):
    """The earlier _normalized_triples: one product per image, 360 in all,
    from the tabulated ratios (x - a)/(x - b)."""
    k = len(pts)
    diff, inv = {}, {}
    for i, j in itertools.combinations(range(k), 2):
        if not (pts[i].is_infinity or pts[j].is_infinity):
            d = pts[i].value - pts[j].value
            diff[i, j], diff[j, i] = d, -d
            inv[i, j] = d.inverse()
            inv[j, i] = -inv[i, j]
    ratio = {}
    for x, a, b in itertools.permutations(range(k), 3):
        if pts[x].is_infinity:
            ratio[x, a, b] = CycElt.one()
        elif pts[a].is_infinity:
            ratio[x, a, b] = inv[x, b]
        elif pts[b].is_infinity:
            ratio[x, a, b] = diff[x, a]
        else:
            ratio[x, a, b] = diff[x, a] * inv[x, b]
    for idx in itertools.permutations(range(k), 3):
        p, q, s = idx
        yield tuple(pts[i] for i in idx), [
            SpherePoint(ratio[x, q, p] * ratio[s, p, q])
            for x in range(k) if x not in idx]


def reference_u_orbit(cfg):
    """The earlier u_orbit: every relabeled triple keyed by its Fraction
    coefficients."""
    _, pts = unify_points(cfg.points())
    seen = {}
    for _, images in reference_normalized_triples(pts):
        assert all(not q.is_infinity for q in images)
        for order in itertools.permutations(images):
            triple = tuple(q.value for q in order)
            key = tuple(v.coeffs for v in triple)
            if key not in seen:
                seen[key] = triple
    return [seen[k] for k in sorted(seen)]


def set_maps_indexed_by(normalize, S, T, anti):
    """set_maps with its source index built by `normalize`."""
    with mock.patch.object(moebius, "_normalized_triples", normalize):
        _triple_index.cache_clear()
        try:
            return set_maps(S, T, anti=anti)
        finally:
            _triple_index.cache_clear()


@st.composite
def point_sets(draw):
    """Six points, repeats dropped, at one of the conductors 1, 3, 4, 5, 8
    and 12, with infinity at any position or absent, conjugated (as set_maps
    conjugates an anti source) or not."""
    n = draw(st.sampled_from([1, 3, 4, 5, 8, 12]))
    pts = [SpherePoint(v) for v in draw(
        st.lists(elements(n), min_size=6, max_size=6))]
    at = draw(st.sampled_from([None, 0, 1, 2, 3, 4, 5]))
    if at is not None:
        pts[at] = INF
    if draw(st.booleans()):
        pts = [p.conjugate() for p in pts]
    _, pts = unify_points(pts)
    return list({_raw_key(p): p for p in pts}.values())


@settings(max_examples=40, deadline=None)
@given(point_sets())
def test_normalized_triples_match_one_matrix_per_triple(pts):
    got = list(_normalized_triples(pts))
    for ref in (reference_triples(pts), reference_normalized_triples(pts)):
        ref = list(ref)
        assert [t for t, _ in got] == [t for t, _ in ref]
        assert [[_raw_key(q) for q in images] for _, images in got] == \
            [[_raw_key(q) for q in images] for _, images in ref]
    # the images are shared points, one per distinct cross-ratio: 90 for
    # six points
    assert len({id(q) for _, images in got for q in images}) == \
        6 * math.comb(len(pts), 4)


def _orbit_key(orbit):
    return [tuple(v.coeffs for v in t) for t in orbit]


# relabeling orbits under 720: 60, 30, 180 and 360 triples
SYMMETRIC = [(1, ("-1", "2", "1/2")), (4, ("-1", "z", "-z")),
             (4, ("2", "z+1", "1-z")), (3, ("z", "z^2", "-1")),
             (6, ("z", "z^-1", "-1")), (1, ("2", "3", "2/3"))]


@pytest.mark.parametrize("n, triple", SYMMETRIC)
def test_u_orbit_of_symmetric_configurations_matches_reference(n, triple):
    cfg = make_config(*(make_element(x, n) for x in triple))
    for c in (cfg, cfg.conjugate()):
        orbit = u_orbit(c)
        assert len(orbit) < 720
        assert _orbit_key(orbit) == _orbit_key(reference_u_orbit(c))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 3, 4, 5, 8, 12]).flatmap(
    lambda n: st.lists(elements(n, small), min_size=3, max_size=3)))
def test_u_orbit_matches_reference(values):
    try:
        cfg = make_config(*values)
    except OmegaError:
        assume(False)
    assert _orbit_key(u_orbit(cfg)) == _orbit_key(reference_u_orbit(cfg))


@settings(max_examples=25, deadline=None)
@given(point_sets(), st.booleans(), st.data())
def test_set_maps_on_the_table_match_the_product_per_image(S, anti, data):
    assume(len(S) == 6)
    n = next(p.value.n for p in S if not p.is_infinity)
    a, b, c, d = data.draw(st.lists(elements(n, small), min_size=4,
                                    max_size=4))
    assume(not (a * d - b * c).is_zero())
    M = Moebius(a, b, c, d, conj_first=anti)
    T = [M.apply(p) for p in S]
    got = set_maps(S, T, anti=anti)
    assert M in got
    assert [_map_key(m) for m in got] == [_map_key(m) for m in (
        set_maps_indexed_by(reference_normalized_triples, S, T, anti))]


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


# -- k-th root shortcuts against the factorization --------------------------


def _canonical(n, coeff_lists):
    return tuple(sorted({CycElt(n, c) for c in coeff_lists}, key=CycElt.key))


def _distinct(roots):
    return tuple(sorted(set(roots), key=CycElt.key))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 12, 16, 24])
@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_roots_of_one_match_the_factorization(n, k):
    one = CycElt.one(n)
    expected = _canonical(n, _sympy_roots(one.coeffs, k, n))
    assert _distinct(_monomial_roots(one, k, n)) == expected
    assert kth_roots(one, k, n) == expected


# rational multiples of roots of unity and their k-th powers: the
# written-down roots against the factorization
@settings(max_examples=80, deadline=None)
@given(st.sampled_from([1, 2, 3, 5, 8, 12, 16]), st.sampled_from([2, 3, 4]),
       st.sampled_from([1, -1, 2, -4, 9, -9, 8, Fraction(1, 4),
                        Fraction(-16, 81), Fraction(3, 2)]),
       st.data())
def test_monomial_roots_match_the_factorization(n, k, q, data):
    t = data.draw(st.integers(0, 2 * n - 1))
    v = q * CycElt.zeta(n) ** t
    if data.draw(st.booleans()):
        v = v ** k
    found = _monomial_roots(v, k, n)
    expected = _canonical(n, _sympy_roots(v.coeffs, k, n))
    assert _distinct(found) == expected
    assert kth_roots(v, k, n) == expected


# q with q^2 = c^k but |q| no k-th power (2, -4, 8, -27, 1/4, 12, 16, 9/2
# for some k): roots sqrt(c) * xi through Gauss sums, against the
# factorization; 0.1-0.15 s a draw, nearly all of it in sympy
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20, 24]),
       st.sampled_from([2, 3, 4, 6, 8]),
       st.sampled_from([2, -4, 8, -27, Fraction(1, 4), 12, 16, -3, 5,
                        Fraction(9, 2)]),
       st.data())
def test_monomial_roots_through_square_roots_match_the_factorization(
        n, k, q, data):
    v = q * CycElt.zeta(n) ** data.draw(st.integers(0, 2 * n - 1))
    found = _monomial_roots(v, k, n)
    assert _distinct(found) == _canonical(n, _sympy_roots(v.coeffs, k, n))


def test_monomial_roots_decline_other_values():
    assert _monomial_roots(make_element("1 + z", 8), 2, 8) is None
    # the descent corpus values whose rational is no k-th power are
    # decided, with the factorization's roots
    for text, n, k in (("2*z^6", 16, 2), ("-4", 8, 4)):
        v = make_element(text, n)
        assert _distinct(_monomial_roots(v, k, n)) == \
            _canonical(n, _sympy_roots(v.coeffs, k, n))


# roots carried over from u to v = u * q * zeta against the factorization,
# for u with roots (2*z^6 at n = 16, 1 + i at n = 8) and without
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(16, "2*z^6", 2), (16, "3*z^2", 2), (8, "-4", 4),
                        (8, "1 + z^2", 2), (8, "3*z", 4), (12, "2 + z", 2)]),
       st.sampled_from([1, -1, 4, -9, 16, Fraction(1, 16), 2, -3]),
       st.data())
def test_related_roots_match_the_factorization(case, q, data):
    n, text, k = case
    u = make_element(text, n)
    v = q * u * CycElt.zeta(n) ** data.draw(st.integers(0, 2 * n - 1))
    found = _related_roots(v, u, kth_roots(u, k, n), k)
    expected = _canonical(n, _sympy_roots(v.coeffs, k, n))
    if found is not None:
        assert found == expected
    # |q| a k-th power: v / u is of the form that decides, when u has roots
    powers = {2: (1, 4, 9, 16, Fraction(1, 16)), 4: (1, 16, Fraction(1, 16))}
    if abs(q) in powers[k] and kth_roots(u, k, n):
        assert found is not None


# a certificate is a proof, so it may only fire where the factorization
# finds no root; on the root-free values of the descent corpus it fires
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 3, 4, 8, 12, 16]), st.sampled_from([2, 4]),
       st.sampled_from([-9, -4, -2, -1, 2, 3, Fraction(1, 2), Fraction(-4, 9)]),
       st.data())
def test_no_root_certificate_agrees_with_the_factorization(n, k, c, data):
    v = c * CycElt.zeta(n) ** data.draw(st.integers(0, n - 1))
    if data.draw(st.booleans()):
        v = v ** k
    v = v + data.draw(st.sampled_from([0, 0, 0, 1]))
    assume(not v.is_zero())
    certified = _no_root_mod_p(v, k, n)
    roots = _sympy_roots(v.coeffs, k, n)
    if certified:
        assert roots == []
    if roots:
        assert kth_roots(v, k, n) != ()


@pytest.mark.parametrize("n, value", [
    (8, "3*z"), (8, "-3*z"), (8, "-9"), (8, "2*z^3"),
    (16, "3*z^2"), (16, "-3*z^2"), (16, "3*z^6"), (16, "-3*z^10")])
def test_no_root_certificate_catches_the_corpus_root_free_values(n, value):
    v = make_element(value, n)
    k = 4 if value in ("3*z", "-3*z", "-9") else 2
    assert _sympy_roots(v.coeffs, k, n) == []
    assert _no_root_mod_p(v, k, n)


# -- integer numerators over one denominator against the Fraction vectors
# they replaced ---------------------------------------------------------------


def _ref_trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _ref_padd(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _ref_trim(out)


def _ref_pneg(p):
    return tuple(-c for c in p)


def _ref_pmul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _ref_trim(out)


def _ref_pdivmod(p, q):
    rem = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq = len(q) - 1
    for i in range(len(rem) - 1, dq - 1, -1):
        if rem[i]:
            f = rem[i] / q[-1]
            quot[i - dq] = f
            for j, b in enumerate(q):
                rem[i - dq + j] -= f * b
    return _ref_trim(quot), _ref_trim(rem)


def ref_vec(n, poly):
    """The earlier CycElt(n, poly).coeffs: Fractions reduced mod Phi_n."""
    phi = euler_phi(n)
    poly = _ref_trim(Fraction(c) for c in poly)
    if len(poly) > phi:
        poly = _ref_pdivmod(poly, cyclotomic_polynomial(n))[1]
    return tuple(poly) + (Fraction(0),) * (phi - len(poly))


def ref_scaled_product(u, *vecs):
    """u.den times the reference product of u and vecs, run on u's integer
    numerators: Fraction products would spend their time in gcds on the
    large coordinates of a quotient."""
    out = ref_vec(u.n, u.num)
    for vec in vecs:
        out = ref_vec(u.n, _ref_pmul(out, vec))
    return out


def ref_scatter(p, mult, m):
    out = [Fraction(0)] * m
    for i, c in enumerate(p):
        out[(i * mult) % m] += c
    return ref_vec(m, out)


def ref_key(n, p):
    """The earlier key(): the smallest conductor d | n holding the element,
    and its coordinates there."""
    for d in (d for d in range(1, n) if n % d == 0):
        kernel = [a for a in units(n) if a % d == 1 % d]
        if all(ref_scatter(p, a, n) == p for a in kernel):
            basis = [ref_scatter(ref_vec(d, [0] * j + [1]), n // d, n)
                     for j in range(euler_phi(d))]
            vec = _solve_exact(basis, p)
            if vec is not None:
                return d, vec
    return n, p


def ref_size_bits(p):
    den = math.lcm(*(c.denominator for c in p))
    return math.log2(max(sum(abs(c.numerator) * (den // c.denominator)
                             for c in p), den))


def assert_canonical(u, vec):
    """u holds vec, as phi(n) ints over one positive denominator that
    shares no factor with all of them."""
    assert len(u.num) == euler_phi(u.n) and u.den > 0
    assert math.gcd(u.den, *u.num) == 1
    assert all(type(x) is int for x in (*u.num, u.den))
    assert u.coeffs == vec
    try:
        text = reference_elt_str(vec)
    except ValueError:  # past Python's int-to-string limit
        with pytest.raises(LimitError):
            str(u)
    else:
        assert str(u) == text


CORE_CONDUCTORS = [1, 2, 3, 4, 5, 8, 12, 16, 24, 40, 120]
huge = st.integers(-2 ** 1000, 2 ** 1000)
core_rationals = st.one_of(
    coefficients, huge.map(Fraction),
    st.builds(Fraction, huge, st.integers(1, 2 ** 1000)))


@st.composite
def raw_coefficients(draw, n):
    """A coefficient list of any length up to 2 phi(n) + 1, so that the
    constructor reduces it, with at most four nonzero entries (small or
    1000-bit): the Fraction reference is slow on dense 1000-bit vectors."""
    length = draw(st.integers(0, 2 * euler_phi(n) + 1))
    vec = [0] * length
    if length:
        for i in draw(st.lists(st.integers(0, length - 1), max_size=4)):
            vec[i] = draw(core_rationals)
    return vec


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CORE_CONDUCTORS), st.data())
def test_integer_core_matches_fraction_vectors(n, data):
    ra, rb = data.draw(raw_coefficients(n)), data.draw(raw_coefficients(n))
    u, v = CycElt(n, ra), CycElt(n, rb)
    a, b = ref_vec(n, ra), ref_vec(n, rb)
    assert_canonical(u, a)
    assert_canonical(v, b)
    q = data.draw(core_rationals)
    qv = ref_vec(n, [q])
    expected = [
        (u + v, ref_vec(n, _ref_padd(a, b))),
        (u - v, ref_vec(n, _ref_padd(a, _ref_pneg(b)))),
        (-u, ref_vec(n, _ref_pneg(a))),
        (u * v, ref_vec(n, _ref_pmul(a, b))),
        (u + q, ref_vec(n, _ref_padd(a, qv))),
        (q - u, ref_vec(n, _ref_padd(qv, _ref_pneg(a)))),
        (q * u, ref_vec(n, _ref_pmul(qv, a))),
        (u ** 3, ref_vec(n, _ref_pmul(a, _ref_pmul(a, a)))),
        (u ** 0, ref_vec(n, [1])),
    ]
    if not v.is_zero():
        # a quotient is the one element whose reference product with v is
        # u; a reference inverse (extended Euclid, or elimination on the
        # multiplication matrix) ran 10 to over 100 times longer than the
        # library's inverse on the 1000-bit draws
        quotient, square = u / v, v ** -2
        assert ref_scaled_product(quotient, b) == \
            tuple(quotient.den * c for c in a)
        assert ref_scaled_product(square, b, b) == ref_vec(n, [square.den])
        expected += [(quotient, quotient.coeffs), (square, square.coeffs)]
    g = data.draw(st.sampled_from(units(n)))
    expected.append((u.galois_apply(g), ref_scatter(a, g, n)))
    m = n * data.draw(st.sampled_from([1, 2, 3]))
    expected.append((u.embed(m), ref_scatter(a, m // n, m)))
    for w, vec in expected:
        assert_canonical(w, vec)
    assert _size_bits(u) == ref_size_bits(a)
    assert (u == v) == (a == b) and (u == q) == (a == qv)
    assert u.embed(m) == u and hash(u.embed(m)) == hash(u)
    if u.is_rational():
        assert u == a[0] and hash(u) == hash(a[0])


@st.composite
def dense_elements(draw, n):
    """An element with all phi(n) coordinates drawn: ints of up to b bits
    over one denominator of up to b bits, for b from 1 to 64."""
    bound = 2 ** draw(st.integers(1, 64))
    num = draw(st.lists(st.integers(-bound, bound), min_size=euler_phi(n),
                        max_size=euler_phi(n)))
    den = draw(st.integers(1, bound))
    return CycElt(n, [Fraction(x, den) for x in num])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(CORE_CONDUCTORS).flatmap(dense_elements))
def test_inverse_of_dense_values(u):
    # every coordinate drawn, small or up to 64 bits: the extended Euclid
    # took 6 s for one such inverse at n = 120
    assume(not u.is_zero())
    inv = u.inverse()
    assert u * inv == 1
    assert inv.inverse() == u
    assert_canonical(inv, inv.coeffs)


# -- the inverse down the norm chain against the conjugate product ----------


def reference_inverse(u):
    """The earlier CycElt.inverse: 1/u = den * P / N(w) for the integral
    w = den * u, P the product of the distinct conjugates of w other than
    w."""
    w = _reduced(u.n, list(u.num))
    p = math.prod(_conjugates(w)[1:], start=CycElt.one(u.n))
    norm = w * p
    assert norm.is_rational()
    return p * Fraction(u.den, norm.num[0])


def test_norm_chain_climbs_the_unit_group_in_prime_steps():
    for n in range(1, MAX_CONDUCTOR + 1):
        group = {1 % n}
        for b, p in _norm_chain(n):
            assert p > 1 and all(p % q for q in range(2, p))
            # b has order p modulo the subgroup generated so far
            assert b not in group and pow(b, p, n) in group
            grown = {h * pow(b, j, n) % n for h in group for j in range(p)}
            assert len(grown) == p * len(group)
            group = grown
        assert math.prod(p for _, p in _norm_chain(n)) == euler_phi(n)
        assert group == set(units(n))


# chains with steps of order 2 (all), 3 (7, 9, 21) and 5 (11)
CHAIN_CONDUCTORS = [5, 7, 9, 11, 12, 21, 40, 120]


@st.composite
def invertible_values(draw):
    """A nonzero element at a CHAIN_CONDUCTORS conductor: a raw vector, its
    trace over a random subgroup (which lies in a subfield, so that steps
    of the chain are skipped), or a rational of either sign."""
    n = draw(st.sampled_from(CHAIN_CONDUCTORS))
    u = CycElt(n, draw(raw_coefficients(n)))
    kind = draw(st.sampled_from(["raw", "trace", "rational"]))
    if kind == "trace":
        H = draw(st.sampled_from(subgroups(n)))
        u = sum((u.galois_apply(h) for h in H), CycElt.zero(n))
    elif kind == "rational":
        u = CycElt.from_rational(draw(core_rationals), n)
    assume(not u.is_zero())
    return u


@settings(max_examples=100, deadline=None)
@given(invertible_values())
def test_inverse_matches_the_conjugate_product(u):
    inv, ref = u.inverse(), reference_inverse(u)
    assert (inv.num, inv.den) == (ref.num, ref.den)
    assert_canonical(inv, inv.coeffs)


@pytest.mark.parametrize("n, text, norm", [
    (5, "z + z^4", -1), (8, "z + z^7", -2), (12, "z + z^11 - 1", -2),
    (7, "z + z^6", 1), (5, "-3/4", Fraction(-3, 4))])
def test_inverse_where_chain_steps_are_skipped(n, text, norm):
    # a real u is fixed by conjugation, whose step is skipped, so the chain
    # can end at a negative norm: -1 for z + z^4 at n = 5, where the full
    # norm is 1
    u = make_element(text, n)
    w = _reduced(n, list(u.num))
    x = w
    for b, p in _norm_chain(n):
        if x.galois_apply(b) != x:
            x = math.prod((x.galois_apply(pow(b, j, n)) for j in range(p)),
                          start=CycElt.one(n))
    assert x == norm * u.den
    assert u.inverse() == reference_inverse(u)
    assert u * u.inverse() == 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 4, 5, 8, 12, 16, 24, 40]), st.data())
def test_key_matches_the_fraction_minimal_form(n, data):
    # sums of Galois conjugates over a random subgroup fall into subfields
    u = CycElt(n, data.draw(raw_coefficients(n)))
    H = data.draw(st.sampled_from(subgroups(n)))
    t = sum((u.galois_apply(h) for h in H), CycElt.zero(n))
    for w in (u, t):
        assert w.key() == ref_key(n, w.coeffs)


# -- validate's collision check against the minimal-form keys ----------------


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5, 8, 12]).flatmap(elements))
def test_collision_check_matches_the_key_based_intersection(mu):
    lam = -(mu * mu.conjugate())
    try:
        validate(lam, mu, 2)
        collided = False
    except ParameterError as exc:
        assume(exc.clause == "cross_ratio_collision")
        collided = True
    cr = family_cross_ratios(lam, mu)
    exact = [{(v.num, v.den) for v in _orbit_values(c)} for c in cr]
    by_key = [{v.key() for v in g_orbit(c)} for c in cr]
    pairs = list(itertools.combinations(range(3), 2))
    assert [len(exact[i] & exact[j]) for i, j in pairs] == \
        [len(by_key[i] & by_key[j]) for i, j in pairs]
    assert collided == any(by_key[i] & by_key[j] for i, j in pairs)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5, 8, 12]).flatmap(
    lambda n: st.lists(elements(n), min_size=2, max_size=2)), st.data())
def test_exact_orbit_intersection_matches_the_key_based_one(values, data):
    c, other = values
    assume(not c.is_zero() and c != 1)
    # an orbit mate of c, or an unrelated value
    d = data.draw(st.sampled_from(_orbit_values(c) + [other]))
    assume(not d.is_zero() and d != 1)
    exact = [{(v.num, v.den) for v in _orbit_values(x)} for x in (c, d)]
    by_key = [{v.key() for v in g_orbit(x)} for x in (c, d)]
    assert len(exact[0] & exact[1]) == len(by_key[0] & by_key[1])
