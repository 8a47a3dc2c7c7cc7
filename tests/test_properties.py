"""Property tests for the shared elimination, field embedding,
(anti-)Moebius application, and differential tests of set_maps and the
stabilizer against the enumeration that set_maps replaced."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from pseudoreal.configurations import OmegaError, make_config
from pseudoreal.cyclotomic import CycElt, GaloisElement, _echelon, \
    _solve_exact, euler_phi, make_element, units
from pseudoreal.descent import _in_span, _nullspace
from pseudoreal.family import validate
from pseudoreal.moduli import classify_sigma, stabilizer
from pseudoreal.moebius import INF, Moebius, SpherePoint, _apply_raw, \
    _normalized_triples, _raw_key, _std_raw, moebius_from_triple, set_maps, \
    unify_points

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
