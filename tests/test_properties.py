"""Property tests for the shared elimination, field embedding,
(anti-)Moebius application, field axioms, inverses of dense values and
the Galois action, and differential tests of set_maps (also through a
tiny split prime, against the exact 120-triple index), the cross-ratio
table, u_orbit, the stabilizer, the residue-first row matcher (also at
the least split prime) against the divided row table, the term
formatter, check_order, the k-th root search and its shortcuts, the
kernel test of span membership and curve transport on the curve's
line pushed forward, the integer element arithmetic and its short-cuts
for rational and zero operands, the inverse down the norm chain, the
lift as products of coset roots, the scale powers written down from the
witness, the cocycle check from its recursion and closure, every
candidate's verdict from the deck-group torsor, the map check by
cross-multiplication, minimal forms one prime at a time and each
closed-form subfield step, and validate's collision check on
(numerator, denominator) pairs against the code each replaced, and of
cross_ratio against the normalizing map and its pair form against the
division in each branch; set_maps on symmetric sets against the exact
index, u_orbit's int triples against their rank tuples, and the
structured renderer against json.dumps with indent; min_poly from
power sums, and fixed_field on every subgroup up to conductor 40,
against the product over the Galois orbit, with the seed 1 tried only
for Q; the integer printer, keys, hashes and order against the Fraction
printer and the Fraction tuples; validate's residue step against the
exact orbit test; and fixing_subgroup and the Galois matches against the
exact loop over every unit, the residue refutation of a stabilizer coset
against set_maps, min_poly of zeta_n against the orbit product at every
conductor, and products, sums and equality with scalar operands against
the wrapped-and-embedded arithmetic."""

import functools
import itertools
import json
import math
import operator
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pseudoreal import cyclotomic, descent, family, moduli, moebius
from pseudoreal.cli import _render, _structured, build_parser
from pseudoreal.configurations import OmegaError, make_config, u_orbit
from pseudoreal.cyclotomic import MAX_CONDUCTOR, CycElt, GaloisElement, \
    LimitError, Subfield, _cyclic, _is_prime, _no_root_mod_p, \
    _norm_chain, _reduced, _root_of_unity_mod, _size_bits, _split_prime, \
    _sympy_field, _sympy_roots, _monomial_roots, _related_roots, \
    common_field, cyclotomic_polynomial, euler_phi, fixed_field, \
    format_poly, is_subgroup, kth_roots, make_element, min_poly, \
    subgroups, units
from pseudoreal.descent import CocycleResult, LiftResult, MonomialIso, \
    WeilDatum, _curve_kernel, check_order, cocycle_check, \
    compose_twist, curve_rows, extend_cyclic, lift_to_monomial, \
    torsor_verdicts, transports_curve
from pseudoreal.family import ParameterError, _circular_quadruples, \
    _configuration, _twist, family_cross_ratios, validate
from pseudoreal.moduli import OracleDisagreement, classify_sigma, stabilizer
from pseudoreal.moebius import INF, Moebius, SpherePoint, _apply_raw, \
    _cross_ratio_pair, _in_orbit, _normalized_triples, _orbit_values, \
    _pairing, _raw_key, _std_raw, _unrefuted_triples, cross_ratio, g_orbit, \
    moebius_from_triple, set_maps, unify_points

from test_descent import transport_checked_once
from test_moduli import admissible_mu

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import corpus  # noqa: E402

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


def _echelon(rows):
    """Reduced row echelon form of a matrix over a field; returns (nonzero
    rows, pivot columns).  Entries may be Fractions or CycElts: only
    `!= 0`, `*`, `-` and `1 / x` are used.  The row reduction behind the
    references below: the library ran it for its scale powers, its span
    tests and its minimal forms until each got a closed form."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(mat):
            break
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [u - f * v for u, v in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat[:r], pivots


def _solve_exact(columns, target):
    """Solve sum_j x_j * columns[j] = target over Q; None if inconsistent:
    the elimination that rewrote an element in a subfield before the
    closed-form steps of CycElt._step_down, and the reference for key()
    below."""
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


def _nullspace(rows, ncols: int):
    """A basis of the nullspace of rows by elimination: the solve that
    lift_to_monomial ran for its scale powers before it wrote them down
    from the Moebius witness."""
    ech, pivots = _echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    n = ech[0][0].n if ech else 1
    basis = []
    for f in free:
        v = [CycElt.zero(n)] * ncols
        v[f] = CycElt.one(n)
        for row, col in zip(ech, pivots):
            v[col] = -row[f]
        basis.append(tuple(v))
    return basis


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


def _annihilated(kernel, vec) -> bool:
    """True iff vec . u = 0 for every u in kernel.  The row space of a
    matrix is the annihilator of its kernel, so with kernel a basis of the
    nullspace of some rows this is membership in their span: the test
    that transports_curve ran on every twisted row before it tested the
    pushed-forward line."""
    return all(sum((a * b for a, b in zip(vec, u) if not a.is_zero()),
                   CycElt.zero(vec[0].n)).is_zero() for u in kernel)


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


# -- curve transport on the curve's line pushed forward against each twisted
# equation pulled back and tested by elimination ----------------------------


def reference_transports(f, p, g):
    """Curve transport as decided before the kernel was pulled forward:
    each twisted equation, pulled back through y_i -> c_i^k y_perm(i), is
    tested for row-span membership by elimination."""
    m = g.conductor
    lam, mu = p.lam.in_conductor(m), p.mu.in_conductor(m)
    rows = curve_rows(lam, mu)
    zero = CycElt.zero(m)
    for row in curve_rows(lam.galois_apply(g), mu.galois_apply(g)):
        pulled = [zero] * 6
        for i in range(6):
            pulled[f.perm[i]] = row[i] * f.scales[i].in_conductor(m) ** f.k
        if not _in_span(rows, pulled):
            return False
    return True


# (n, lambda, mu, k, a): sigma_a lifts with every root in the field
TRANSPORT_LIFTS = [(16, "-4", "2*z^2", 2, 3), (16, "-4", "2*z^2", 2, 5),
                   (12, "-4", "2*z", 2, 11), (24, "-4", "2*z^3", 2, 13),
                   (40, "-4", "2*z", 2, 21), (32, "-4", "2*z^4", 4, 5)]


@functools.cache
def transport_lift(member):
    n, lam, mu, k, a = member
    p = validate(make_element(lam, n), make_element(mu, n), k)
    g = GaloisElement(n, a)
    return p, g, lift_to_monomial(classify_sigma(p, g).witness, p, g, n)


@SETTINGS
@given(st.sampled_from(TRANSPORT_LIFTS), st.data())
def test_transports_curve_matches_the_pulled_back_rows(member, data):
    # a lift's map, which transports, or one with a scale multiplied by a
    # drawn element or with two slots of its permutation swapped
    p, g, lift = transport_lift(member)
    f = lift.isos[data.draw(st.integers(0, len(lift.isos) - 1))]
    change = data.draw(st.sampled_from(["none", "scale", "perm"]))
    perm, scales = list(f.perm), list(f.scales)
    if change == "scale":
        x = data.draw(elements(g.conductor, small))
        assume(not x.is_zero())
        scales[data.draw(st.integers(1, 5))] *= x
    elif change == "perm":
        i, j = data.draw(st.permutations(range(6)))[:2]
        perm[i], perm[j] = perm[j], perm[i]
    f = MonomialIso(perm, scales, f.k)
    assert transports_curve(f, p, g) == reference_transports(f, p, g)
    if change == "none":
        assert transports_curve(f, p, g)


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


def reference_index_set_maps(S, T, anti=False,
                             normalize=_normalized_triples):
    """The set_maps before the split-prime filter: every ordered triple of
    S normalized exactly by `normalize` and filed under the sorted raw keys
    of its images, then looked up by the spots of T's base triple."""
    s_in, t_in = list(S), list(T)
    _, everything = unify_points(s_in + t_in)
    src = sorted({_raw_key(p): p for p in everything[:len(s_in)]}.values(),
                 key=_raw_key)
    tgt = everything[len(s_in):]
    if anti:
        tgt = [p.conjugate() for p in tgt]
    tgt = list({_raw_key(p): p for p in tgt}.values())
    assert len(src) == len(tgt) == 6
    index = {}
    for triple, images in normalize(src):
        index.setdefault(tuple(sorted(map(_raw_key, images))), []).append(
            triple)
    mat = _std_raw(*tgt[:3])
    spots = tuple(sorted(_raw_key(_apply_raw(mat, p)) for p in tgt[3:]))
    found = {}
    for triple in index.get(spots, ()):
        m = moebius_from_triple(triple, tgt[:3])
        if anti:
            m = Moebius(*(x.conjugate() for x in m.coefficients()),
                        conj_first=True)
        found[_map_key(m)] = m
    return [found[k] for k in sorted(found)]


def _map_key(m):
    return (m.conj_first,) + tuple(x.coeffs for x in m.coefficients())


def assert_matches_reference(S, T, anti):
    got = set_maps(S, T, anti=anti)
    keys = [_map_key(m) for m in got]
    assert keys == [_map_key(m) for m in reference_set_maps(S, T, anti)]
    assert keys == [_map_key(m) for m in reference_index_set_maps(S, T, anti)]
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


def reference_rank_u_orbit(cfg):
    """The u_orbit before its triples were ints: the relabeled triples
    deduplicated and sorted as tuples of the ranks of their values."""
    _, pts = unify_points(cfg.points())
    values, rows = {}, []
    for _, images in _normalized_triples(pts):
        assert all(not q.is_infinity for q in images)
        rows.append([_raw_key(q) for q in images])
        for key, q in zip(rows[-1], images):
            values.setdefault(key, q.value)
    common = math.lcm(*(v.den for v in values.values()))
    ranked = sorted(values, key=lambda key: [
        c * (common // values[key].den) for c in values[key].num])
    rank = {key: i for i, key in enumerate(ranked)}
    triples = {tuple(rank[key] for key in order)
               for row in rows for order in itertools.permutations(row)}
    return [tuple(values[ranked[i]] for i in t) for t in sorted(triples)]


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
        assert _orbit_key(orbit) == _orbit_key(reference_u_orbit(c)) == \
            _orbit_key(reference_rank_u_orbit(c))
        # the triples share their values, one object per distinct value
        assert len({id(v) for t in orbit for v in t}) == \
            len({v.coeffs for t in orbit for v in t})


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([1, 3, 4, 5, 8, 12]).flatmap(
    lambda n: st.lists(elements(n, small), min_size=3, max_size=3)))
def test_u_orbit_matches_reference(values):
    try:
        cfg = make_config(*values)
    except OmegaError:
        assume(False)
    orbit = _orbit_key(u_orbit(cfg))
    assert orbit == _orbit_key(reference_u_orbit(cfg))
    assert orbit == _orbit_key(reference_rank_u_orbit(cfg))


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
    got = [_map_key(m) for m in set_maps(S, T, anti=anti)]
    assert _map_key(M) in got
    for normalize in (_normalized_triples, reference_normalized_triples):
        assert got == [_map_key(m) for m in reference_index_set_maps(
            S, T, anti, normalize)]


# -- set_maps on symmetric sets, where many triples carry a map --------------


# {inf, 0, 1, i, -i, -1}, the vertices of an octahedron: 24 rotations and
# 24 anti-maps
OCTAHEDRAL = (4, ("z", "-z", "-1"))


@pytest.mark.parametrize("anti", [False, True])
@pytest.mark.parametrize("n, triple", [OCTAHEDRAL, *SYMMETRIC])
def test_set_maps_of_symmetric_sets_match_the_exact_index(n, triple, anti):
    S = make_config(*(make_element(x, n) for x in triple)).points()
    z = CycElt.zeta(max(n, 3))
    for T in (S, [Moebius(z, 1, 1, 2).apply(p) for p in S]):
        got = [_map_key(m) for m in set_maps(S, T, anti=anti)]
        assert got == [_map_key(m)
                       for m in reference_index_set_maps(S, T, anti)]
        if (n, triple) == OCTAHEDRAL:
            assert len(got) == 24


# -- set_maps through the split prime against the exact index ---------------


def _images(S, anti, data, n):
    """A target for S: its image under a drawn (anti-)map, which carries S
    onto it; S itself; or that image with one point moved, which usually
    has no map."""
    a, b, c, d, x = data.draw(st.lists(elements(n, small), min_size=5,
                                       max_size=5))
    assume(not (a * d - b * c).is_zero())
    T = [Moebius(a, b, c, d, conj_first=anti).apply(p) for p in S]
    kind = data.draw(st.sampled_from(["image", "itself", "moved"]))
    if kind == "itself":
        return S
    if kind == "moved":
        T[data.draw(st.integers(0, 5))] = SpherePoint(x)
        assume(len({_raw_key(p) for p in unify_points(T)[1]}) == 6)
    return T


@settings(max_examples=40, deadline=None)
@given(point_sets(), st.booleans(), st.data())
def test_set_maps_match_the_exact_index(S, anti, data):
    assume(len(S) == 6)
    n = next(p.value.n for p in S if not p.is_infinity)
    T = _images(S, anti, data, n)
    assert [_map_key(m) for m in set_maps(S, T, anti=anti)] == \
        [_map_key(m) for m in reference_index_set_maps(S, T, anti)]


# a family member and its twists at n = 40, the largest conductor of the
# corpus, and at the limit n = 120, plain and anti, and their images under
# a sparse map
@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(40, "-4", "2*z"), (40, "-4", "2*z^3"),
                        (120, "-4", "2*z"), (120, "-9", "3*z^5")]),
       st.booleans(), st.data())
def test_set_maps_match_the_exact_index_at_conductors_40_and_120(
        member, anti, data):
    n, lam, mu = member
    lam, mu = make_element(lam, n), make_element(mu, n)
    S = make_config(lam, mu, -mu).points()
    a = data.draw(st.sampled_from(units(n)))
    T = make_config(lam.galois_apply(a), mu.galois_apply(a),
                    -mu.galois_apply(a)).points()
    if data.draw(st.booleans()):
        z = CycElt.zeta(n)
        T = [Moebius(z, 1, 1, -z).apply(p) for p in T]
    assert [_map_key(m) for m in set_maps(S, T, anti=anti)] == \
        [_map_key(m) for m in reference_index_set_maps(S, T, anti)]


def _tiny_prime(n, p):
    """`_split_prime` with the prime p at conductor n: its residues collide
    often, and the spots may have none."""
    def split(m):
        return (p, _root_of_unity_mod(n, p)) if m == n else _split_prime(m)
    return mock.patch.object(moebius, "_split_prime", split)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(12, 13), (16, 17)]).flatmap(lambda np: st.tuples(
    st.just(np), st.lists(elements(np[0], small), min_size=6, max_size=6),
    st.sampled_from([None, 0, 3, 5]))), st.booleans(), st.data())
def test_a_tiny_split_prime_finds_the_same_maps(case, anti, data):
    (n, p), values, at = case
    S = [SpherePoint(v) for v in values]
    if at is not None:
        S[at] = INF
    assume(len({_raw_key(q) for q in S}) == 6)
    T = _images(S, anti, data, n)
    want = [_map_key(m) for m in set_maps(S, T, anti=anti)]
    with _tiny_prime(n, p):
        assert [_map_key(m) for m in set_maps(S, T, anti=anti)] == want
    assert want == [_map_key(m) for m in reference_index_set_maps(S, T, anti)]


def test_a_collision_at_the_split_prime_rejects_no_triple():
    # mod 13, 0 and 13 share a residue; the spots 13, z and z^2 + 2 have
    # residues, so the filter runs, refutes triples away from 0 and 13, and
    # passes on the map's own triple (inf, 0, 1), which holds 0
    S = [INF] + [SpherePoint(make_element(x, 12))
                 for x in ("0", "1", "13", "z", "z^2 + 2")]
    M = Moebius(1, make_element("z", 12), 0, 1)
    T = [M.apply(q) for q in S]
    n, src = unify_points(S)
    mat = _std_raw(*T[:3])
    spots = [_apply_raw(mat, q) for q in T[3:]]
    with _tiny_prime(12, 13):
        survivors = [t[:3] for t in _unrefuted_triples(n, src, spots)]
        maps = set_maps(S, T)
    assert (0, 1, 2) in survivors and len(survivors) < 120
    assert [t[:3] for t in _unrefuted_triples(n, src, spots)] == [(0, 1, 2)]
    assert maps == set_maps(S, T) == reference_index_set_maps(S, T) == [M]


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


# -- the stabilizer coset by coset against classify_sigma on every unit ------


def reference_stabilizer(p, n):
    """The earlier stabilizer: classify_sigma, table against enumeration,
    on every unit of (Z/n)*."""
    hits = frozenset(a for a in units(n)
                     if classify_sigma(p, GaloisElement(n, a)).in_stabilizer)
    assert is_subgroup(hits, n)
    return hits


@settings(max_examples=40, deadline=None)
@given(admissible_mu())
@example((40, "-4", "2*z"))
def test_stabilizer_matches_reference_over_admissible_members(member):
    n, lam, mu = member
    try:
        p = validate(make_element(lam, n), make_element(mu, n), 2)
    except ParameterError:
        assume(False)
    assert stabilizer(p, n) == reference_stabilizer(p, n)


def test_stabilizer_matches_reference_on_the_moduli_pool():
    queries = corpus.pool("moduli-sweep")
    for q in queries:
        args = build_parser().parse_args(list(q.argv))
        n = args.conductor
        p = validate(make_element(args.lam, n), make_element(args.mu, n),
                     args.k)
        assert stabilizer(p, n) == reference_stabilizer(p, n), q.key
    assert queries


# -- the value form of the shape table against the quotient-form table ----


def reference_row_targets(lam, mu):
    """The earlier table: (row, sign, sigma_lambda, sigma_mu) of the twelve
    shapes, each quotient taken by its own division."""
    one = CycElt.one(lam.n)
    p = (one - mu) / (one + mu)
    q = (lam + mu) / (lam - mu)
    pq = p * q
    inv_pq = one / pq
    rows = []
    for sign in (1, -1):
        rows += [(1, sign, lam, sign * mu),
                 (2, sign, one / lam, sign * mu / lam),
                 (3, sign, one / lam, sign / mu),
                 (4, sign, lam, sign * lam / mu)]
    return rows + [(5, None, pq, p), (6, None, inv_pq, one / q),
                   (7, None, pq, -p), (8, None, inv_pq, -one / q),
                   (9, None, inv_pq, one / p), (10, None, pq, q),
                   (11, None, inv_pq, -one / p), (12, None, pq, -q)]


@settings(max_examples=40, deadline=None)
@given(admissible_mu())
@example((40, "-4", "2*z"))
def test_row_targets_match_the_quotient_form_table(member):
    n, lam, mu = member
    try:
        p = validate(make_element(lam, n), make_element(mu, n), 2)
    except ParameterError:
        assume(False)
    # as validate leaves them, and in the conductor the stabilizer uses
    for lam, mu in ((p.lam, p.mu),
                    (p.lam.in_conductor(n), p.mu.in_conductor(n))):
        assert [t[:4] for t in moduli.row_targets(lam, mu)] == \
            reference_row_targets(lam, mu)


# -- the residue-first matcher against the divided table ---------------------


def reference_table(lam, mu, source, a):
    """The earlier matcher on sigma_a: exact equality with each row of the
    divided table `reference_row_targets`, each match's map built by the
    row's builder and checked to carry the set."""
    slam, smu, target = _twist(lam, mu, GaloisElement(lam.n, a))
    builders = [t[4] for t in moduli.row_targets(lam, mu)]
    rows = []
    for (row, sign, want_l, want_m), build in zip(
            reference_row_targets(lam, mu), builders):
        if slam == want_l and smu == want_m:
            t = build(slam, smu)
            assert _pairing(t, source, target) is not None
            rows.append(((row, sign), t))
    return rows


def assert_table_matches_reference(lam, mu):
    """`_table` on every unit against `reference_table`: the same (row,
    sign) list and the same maps.  Returns the units it built a twist for,
    which it does only for those whose residues leave a row."""
    n = lam.n
    source = _configuration(lam, mu).points()
    out = moduli._table(lam, mu, source, units(n))
    assert [a for a, _, _ in out] == list(units(n))
    built = []
    for a, rows, twist in out:
        assert [((m.row, m.sign), Moebius(*t)) for m, t in rows] == \
            reference_table(lam, mu, source, a)
        if twist is None:
            assert rows == []
        else:
            assert twist == _twist(lam, mu, GaloisElement(n, a))
            built.append(a)
    return built


def _least_split_prime():
    """`_split_prime` of the matcher at the least prime p = 1 (mod n): its
    residues collide often, quantities vanish mod p and p may divide a
    denominator, so the exact test decides more rows."""
    def split(n):
        p = n + 1
        while not _is_prime(p):
            p += n
        return p, _root_of_unity_mod(n, p)
    return mock.patch.object(moduli, "_split_prime", split)


@settings(max_examples=40, deadline=None)
@given(admissible_mu(), st.booleans())
@example((40, "-4", "2*z"), False)
@example((8, "-(3 + 2*(z + z^-1))^2", "(3 + 2*(z + z^-1))*z"), False)
@example((5, "-(-3 + z + z^-1)^2", "(-3 + z + z^-1)*z"), True)
def test_residue_first_table_matches_the_divided_table(member, least):
    n, lam, mu = member
    try:
        p = validate(make_element(lam, n), make_element(mu, n), 2)
    except ParameterError:
        assume(False)
    lam, mu = p.lam.in_conductor(n), p.mu.in_conductor(n)
    if least:
        with _least_split_prime():
            assert_table_matches_reference(lam, mu)
    else:
        built = assert_table_matches_reference(lam, mu)
        # at the large prime only the hits are built
        assert built == sorted(stabilizer(p, n))


def test_collisions_and_missing_residues_fall_back_to_the_exact_test():
    # mod 11 the residues of units 2 and 3 of this member leave rows that
    # the exact test refutes; the large prime refutes them
    p = validate(make_element("-(-3 + z + z^-1)^2", 5),
                 make_element("(-3 + z + z^-1)*z", 5), 2)
    with _least_split_prime():
        assert assert_table_matches_reference(p.lam, p.mu) == [1, 2, 3, 4]
    assert assert_table_matches_reference(p.lam, p.mu) == [1, 4]
    # 11 divides the denominator of lambda = -(23/11)^2 and of mu: no
    # residues, so every unit is tested exactly
    p = validate(make_element("-529/121", 5), make_element("23/11*z", 5), 2)
    with _least_split_prime():
        assert assert_table_matches_reference(p.lam, p.mu) == [1, 2, 3, 4]
    assert assert_table_matches_reference(p.lam, p.mu) == [1, 4]
    assert stabilizer(p, 5) == frozenset({1, 4})


# each (row, sign) of the table that admissible members at n <= 24 match,
# on a member where it is the only row that some sigma matches; rows 5-12
# matched none of them
ROW_MEMBERS = [
    ((1, 1), 3, "-4", "2*z"),
    ((1, -1), 8, "-4", "2*z"),
    ((2, 1), 8, "-(3 + 2*(z + z^-1))^2", "(3 + 2*(z + z^-1))*z"),
    ((2, -1), 8, "-(1 + z + z^-1)^2", "(1 + z + z^-1)*z"),
    ((3, 1), 8, "-(1 + z + z^-1)^2", "(1 + z + z^-1)*z"),
    ((3, -1), 8, "-(3 + 2*(z + z^-1))^2", "(3 + 2*(z + z^-1))*z"),
    ((4, 1), 8, "-4", "2*z"),
    ((4, -1), 3, "-4", "2*z"),
]


@pytest.mark.parametrize("row, n, lam, mu", ROW_MEMBERS)
def test_a_table_without_a_matching_row_never_shrinks_the_stabilizer(
        row, n, lam, mu):
    p = validate(make_element(lam, n), make_element(mu, n), 2)
    matched = {tuple((m.row, m.sign) for m in
                     classify_sigma(p, GaloisElement(n, a)).matched_rows)
               for a in units(n)}
    assert (row,) in matched
    without_row = tuple(t for t in moduli._SHAPES if t[:2] != row)
    assert len(without_row) == len(moduli._SHAPES) - 1

    with mock.patch.object(moduli, "_SHAPES", without_row):
        # OracleDisagreement, or the AssertionError of a table whose hits
        # are no subgroup
        with pytest.raises(AssertionError) as exc:
            stabilizer(p, n)
    assert exc.type is OracleDisagreement or \
        "is not a subgroup" in str(exc.value)


def _points(n, *vectors):
    return make_config(*(CycElt(n, v) for v in vectors)).points()


def test_set_maps_in_a_row_match_the_reference():
    # calls in a row keep nothing but the split prime of each conductor
    maps = (Moebius(1, 2, 0, 1), Moebius(0, 1, 1, 0))
    # sources A, B, A, which differ in one coefficient, two targets each
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


# -- the pairing by cross-multiplication against apply-then-compare --------


def reference_same_points(A, B) -> bool:
    """The earlier point-set comparison: raw keys in one common field."""
    a, b = list(A), list(B)
    _, pts = unify_points(a + b)
    return ({_raw_key(p) for p in pts[:len(a)]}
            == {_raw_key(p) for p in pts[len(a):]})


def reference_pairing(t, A, B):
    """The earlier check: apply t to each point of A, which inverts once
    for each finite image, compare the images with B as sets, then look
    each image up in B."""
    images = [t.apply(x) for x in A]
    if not reference_same_points(images, B):
        return None
    return [list(B).index(y) for y in images]


PAIRING_CONDUCTORS = [1, 3, 4, 5, 8]


@st.composite
def pairing_cases(draw):
    """(t, A, B): six distinct points A at one conductor, infinity among
    them or not; a plain or anti map t at another, which may send a point
    of A to infinity; and B, the images of A shuffled and embedded in a
    larger field, one of them moved off the image set or not."""
    n, m = (draw(st.sampled_from(PAIRING_CONDUCTORS)) for _ in range(2))
    A = [SpherePoint(x) for x in draw(st.lists(elements(n), min_size=6,
                                                max_size=6))]
    if draw(st.booleans()):
        A[draw(st.integers(0, 5))] = INF
    assume(all(A[i] != A[j] for i, j in itertools.combinations(range(6), 2)))
    a, b, c, d = draw(st.lists(elements(m), min_size=4, max_size=4))
    anti = draw(st.booleans())
    pole = draw(st.sampled_from([None, *range(6)]))
    if pole is not None and not A[pole].is_infinity and not c.is_zero():
        x = A[pole].value
        d = -c * (x.conjugate() if anti else x)
    assume(not (a * d - b * c).is_zero())
    t = Moebius(a, b, c, d, conj_first=anti)
    B = [t.apply(x) for x in A]
    B = draw(st.permutations(B))
    scale = math.lcm(n, m) * draw(st.sampled_from([1, 2, 3]))
    B = [y if y.is_infinity else SpherePoint(y.value.embed(scale))
         for y in B]
    if draw(st.booleans()):
        moved = SpherePoint(draw(elements(n)))
        assume(moved not in B)
        B[draw(st.integers(0, 5))] = moved
    return t, A, B


@settings(max_examples=60, deadline=None)
@given(pairing_cases())
def test_pairing_matches_apply_then_compare(case):
    t, A, B = case
    assert _pairing(t, A, B) == reference_pairing(t, A, B)


def _rational_coefficient(q, kind):
    """q as an int (when integral), a Fraction or a CycElt at conductor 1."""
    if kind == "int" and q.denominator == 1:
        return int(q)
    return CycElt.from_rational(q) if kind == "conductor 1" else q


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5, 8, 12]), st.data())
def test_pairing_takes_rational_coefficients_as_given(n, data):
    # the witnesses hand _pairing int coefficients and the points sit at
    # conductor n: each product embeds its own operands
    kinds = ["int", "Fraction", "conductor 1"]
    coeffs = [_rational_coefficient(q, data.draw(st.sampled_from(kinds)))
              for q in data.draw(st.lists(coefficients, min_size=4,
                                          max_size=4))]
    a, b, c, d = coeffs
    assume(a * d - b * c != 0)
    A = [SpherePoint(x) for x in data.draw(
        st.lists(elements(n), min_size=6, max_size=6))]
    if data.draw(st.booleans()):
        A[data.draw(st.integers(0, 5))] = INF
    assume(all(A[i] != A[j] for i, j in itertools.combinations(range(6), 2)))
    t = Moebius(*coeffs)
    B = data.draw(st.permutations([t.apply(x) for x in A]))
    if data.draw(st.booleans()):
        moved = SpherePoint(data.draw(elements(n)))
        assume(moved not in B)
        B[data.draw(st.integers(0, 5))] = moved
    assert _pairing(tuple(coeffs), A, B) == reference_pairing(t, A, B)


def test_a_wrong_row_map_is_an_oracle_disagreement():
    lam, mu = make_element("-4", 8), make_element("2*z", 8)
    source = _configuration(lam, mu).points()
    [(_, rows, twist)] = moduli._table(lam, mu, source, [1])
    assert rows and twist == _twist(lam, mu, GaloisElement(8, 1))
    # z -> 1/z sends -4 to -1/4, off the set
    wrong = [(*row[:4], lambda sl, sm, mu: (0, 1, 1, 0))
             for row in moduli._SHAPES]
    with mock.patch.object(moduli, "_SHAPES", wrong), \
            pytest.raises(OracleDisagreement, match="does not carry"):
        moduli._table(lam, mu, source, [1])


def test_row_and_witness_checks_make_no_inversion(monkeypatch):
    # through Moebius.apply each finite image was inverted once: up to six
    # inversions a check
    n, a = 16, GaloisElement(16, 3)
    p = validate(make_element("-4", n), make_element("2*z^2", n), 2)
    witness = classify_sigma(p, a).witness
    # [pairings, inversions inside them] of each module
    counts, inside = {moduli: [0, 0], descent: [0, 0]}, []
    inverse = CycElt.inverse

    def counting_inverse(self):
        if inside:
            counts[inside[-1]][1] += 1
        return inverse(self)

    def counted(module, pairing):
        def call(*args):
            counts[module][0] += 1
            inside.append(module)
            try:
                return pairing(*args)
            finally:
                inside.pop()
        return call

    monkeypatch.setattr(CycElt, "inverse", counting_inverse)
    for module in counts:
        monkeypatch.setattr(module, "_pairing",
                            counted(module, module._pairing))
    assert len(stabilizer(p, n)) == 8
    assert len(lift_to_monomial(witness, p, a, n).isos) == 32
    # eight table hits, sigma_1's among them, which classify_sigma matches
    # once for the stabilizer
    assert counts == {moduli: [8, 0], descent: [1, 0]}


# -- the structured renderer against json.dumps with indent -----------------


json_scalars = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(min_value=-2 ** 200, max_value=2 ** 200),
    # non-ASCII and control characters among them
    st.text(st.characters(), max_size=6),
    st.text(st.sampled_from("a\n\t\x00\x1f\"\\/\u00e9\u2028\U0001f600"),
            max_size=4),
    # no float reaches a document; json.dumps writes it
    st.floats())
json_keys = st.text(st.characters(), max_size=5)
json_trees = st.recursive(json_scalars, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(json_keys, children, max_size=4),
    # keys that json converts, through json.dumps
    st.dictionaries(st.integers(-5, 5), children, max_size=3)), max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(json_trees)
@example([])
@example({})
@example({"a": [[], {}, ()], "": {"b": [{}]}})
def test_structured_renderer_matches_json_dumps(doc):
    want = json.dumps(doc, indent=2, sort_keys=True)
    assert _structured(doc) == want
    if isinstance(doc, dict):
        assert _render(doc, "structured") == want + "\n"


def test_structured_renderer_refuses_what_json_refuses():
    # an integer past the int-to-string limit, which main turns into the
    # size_limit rejection, and a key order that sort_keys cannot decide
    huge = {"x": [10 ** (sys.get_int_max_str_digits() + 1)]}
    for doc, error in ((huge, ValueError), ({1: 0, "a": 1}, TypeError),
                       ({"a": object()}, TypeError)):
        with pytest.raises(error):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(error):
            _structured(doc)


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


def reference_cross_ratio(a, b, c, d):
    """The earlier cross_ratio: a division in each infinity branch."""
    a, b, c, d = (p.value for p in (a, b, c, d))
    if a is None:
        return (d - b) / (c - b)
    if b is None:
        return (c - a) / (d - a)
    if c is None:
        return (d - b) / (d - a)
    if d is None:
        return (c - a) / (c - b)
    return ((c - a) * (d - b)) / ((c - b) * (d - a))


@pytest.mark.parametrize("inf_at", [None, 0, 1, 2, 3])
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1, 3, 4, 5, 8]).flatmap(
    lambda n: st.lists(elements(n, small), min_size=4, max_size=4)))
def test_cross_ratio_pair_divides_to_the_earlier_cross_ratio(inf_at, values):
    pts = [SpherePoint(v) for v in values]
    if inf_at is not None:
        pts[inf_at] = INF
    assume(len({_raw_key(p) for p in unify_points(pts)[1]}) == 4)
    num, den = _cross_ratio_pair(*pts)
    value, want = cross_ratio(*pts), reference_cross_ratio(*pts)
    assert not den.is_zero() and num == want * den
    assert value.n == want.n and value.coeffs == want.coeffs


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
    return tuple(sorted({CycElt(n, c) for c in coeff_lists},
                        key=CycElt.sort_key))


def _distinct(roots):
    return tuple(sorted(set(roots), key=CycElt.sort_key))


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


# -- a lift as the products of its coset roots against the k^6 build it
# replaced -------------------------------------------------------------------


def reference_lift_isos(lift, p, g, m):
    """Every choice of a k-th root per scale power, normalized to c_1 = 1,
    deduplicated and sorted by key, each map checked for curve transport:
    the enumeration that lift_to_monomial ran before it took c_1 = 1."""
    roots = [kth_roots(d, p.k, m) for d in lift.powers]
    isos = {}
    for chosen in itertools.product(*roots):
        iso = MonomialIso(lift.perm, chosen, p.k)
        isos[iso.key()] = iso
    ordered = [isos[key] for key in sorted(isos)]
    for iso in ordered:
        assert transports_curve(iso, p, g)
    return tuple(ordered)


def assert_lift_matches_reference(T, p, g, m):
    lift = lift_to_monomial(T, p, g, m)
    if lift.missing:
        assert lift.isos == ()
        return lift
    expected = reference_lift_isos(lift, p, g, m)
    assert lift.isos == expected
    assert [str(f) for f in lift.isos] == [str(f) for f in expected]
    return lift


def _witness_lift(p, n, a):
    g = GaloisElement(n, a)
    return assert_lift_matches_reference(classify_sigma(p, g).witness, p,
                                         g, n)


# the full lifts of the descent corpus, and the paper's k = 4 family member
@pytest.mark.parametrize("n, lam, mu, k, a, count", [
    (16, "-4", "2*z^2", 2, 3, 32), (12, "-9", "3*z^2", 2, 7, 32),
    (24, "-4", "2*z", 2, 13, 32), (32, "-4", "2*z^4", 4, 17, 1024)])
def test_lift_matches_the_normalized_k6_build(n, lam, mu, k, a, count):
    p = validate(make_element(lam, n), make_element(mu, n), k)
    assert len(_witness_lift(p, n, a).isos) == count


def test_identity_lift_matches_the_normalized_k6_build():
    p = validate(-4, make_element("2*z^2", 16), 2)
    lift = assert_lift_matches_reference(Moebius.identity(), p,
                                         GaloisElement(16, 1), 16)
    assert len(lift.isos) == 32


# a full lift at k = 4 holds 1024 maps, and its reference builds 4096
@settings(max_examples=10, deadline=None)
@given(st.sampled_from([8, 12, 16, 24]), st.sampled_from([2, 4]),
       st.sampled_from([2, 3]), st.data())
def test_lift_in_the_stabilizer_matches_the_normalized_k6_build(n, k, q,
                                                                 data):
    j = data.draw(st.integers(1, n - 1))
    try:
        p = validate(make_element(f"-{q * q}", n),
                     make_element(f"{q}*z^{j}", n), k)
    except ParameterError:
        assume(False)
    _witness_lift(p, n, data.draw(st.sampled_from(sorted(stabilizer(p, n)))))


# -- scale powers written down from the witness against the nullspace solve
# they replaced ---------------------------------------------------------------


def reference_scale_powers(lift, p, g):
    """The d with d_1 = 1 for which every twisted equation, pulled back
    through y_i -> d_i y_perm(i), lies in the span of the original four:
    the 8 conditions in 6 unknowns that lift_to_monomial solved before it
    wrote the powers down from the witness."""
    m = g.conductor
    lam, mu = p.lam.in_conductor(m), p.mu.in_conductor(m)
    kernel = _curve_kernel(lam, mu)
    conditions = [tuple(row[i] * u[lift.perm[i]] for i in range(6))
                  for row in curve_rows(lam.galois_apply(g),
                                        mu.galois_apply(g))
                  for u in kernel]
    sols = _nullspace(conditions, 6)
    assert len(sols) == 1
    d = sols[0]
    assert not any(x.is_zero() for x in d)
    return tuple(x / d[0] for x in d)


def assert_powers_match_reference(T, p, g):
    lift = lift_to_monomial(T, p, g, g.conductor)
    assert lift.powers == reference_scale_powers(lift, p, g)
    assert [str(x) for x in lift.powers] == \
        [str(x) for x in reference_scale_powers(lift, p, g)]
    return lift


# the powers do not depend on the root search, which is refused here: each
# lift then ends at its missing roots, with the powers written down and
# certified
@settings(max_examples=30, deadline=None)
@given(admissible_mu(), st.sampled_from([2, 4]))
def test_scale_powers_of_the_stabilizer_match_the_nullspace(member, k):
    n, lam, mu = member
    try:
        p = validate(make_element(lam, n), make_element(mu, n), k)
    except ParameterError:
        assume(False)
    with mock.patch.object(descent, "kth_roots", lambda *args: ()):
        for a in sorted(stabilizer(p, n)):
            g = GaloisElement(n, a)
            assert_powers_match_reference(classify_sigma(p, g).witness, p, g)


def test_scale_powers_of_the_descent_pool_match_the_nullspace():
    missing = full = 0
    for q in corpus.pool("descent"):
        args = build_parser().parse_args(list(q.argv))
        n = args.conductor
        p = validate(make_element(args.lam, n), make_element(args.mu, n),
                     args.k)
        g = GaloisElement(n, args.generator)
        lift = assert_powers_match_reference(classify_sigma(p, g).witness,
                                             p, g)
        missing += bool(lift.missing)
        full += bool(lift.isos)
    assert (missing, full) == (29, 3)


def test_scale_powers_of_a_non_monomial_member_match_the_nullspace():
    # mu = 1 + 2i is no rational times a root of unity
    p = validate(-5, make_element("1+2*z", 4), 2)
    g = GaloisElement(4, 3)
    lift = assert_powers_match_reference(classify_sigma(p, g).witness, p, g)
    assert [str(x) for x in lift.powers] == \
        ["1", "-5", "1", "-5", "1 - 2*z", "-1 + 2*z"]
    assert len(lift.missing) == 4


# -- the cocycle from its recursion and closure against the pair table it
# replaced -------------------------------------------------------------------


def reference_cocycle_check(datum):
    """Curve transport for every map in sorted order, then every pair of
    the table in sorted order: the check cocycle_check ran before it used
    the recursion and its closure."""
    m = datum.conductor
    for e, f in sorted(datum.maps.items()):
        if not descent.transports_curve(f, datum.params, GaloisElement(m, e)):
            return CocycleResult(
                ok=False, failing=None,
                reason=f"map for exponent {e} does not transport the curve")
    exps = sorted(datum.maps)
    for tau in exps:
        for sigma in exps:
            if not _pair_holds(datum, tau, sigma):
                return CocycleResult(
                    ok=False, failing=(tau, sigma),
                    reason=f"f_({tau}*{sigma}) != f_{sigma}^{tau} o f_{tau}")
    if not datum.closure.is_identity:
        return CocycleResult(ok=False, failing=None,
                             reason="closure map is not the identity")
    return CocycleResult(ok=True, failing=None, reason=None)


def _pair_holds(datum, tau, sigma):
    m = datum.conductor
    return datum.maps[(tau * sigma) % m] == compose_twist(
        datum.maps[sigma], datum.maps[tau], GaloisElement(m, tau))


def _family_lift(n, lam, mu, k, a):
    p = validate(make_element(lam, n), make_element(mu, n), k)
    g = GaloisElement(n, a)
    return p, lift_to_monomial(classify_sigma(p, g).witness, p, g, n)


# the descent corpus's worked queries (n = 8 misses its roots, n = 16 has
# order 4) and full lifts, and the paper's k = 4 family member
@pytest.mark.parametrize("n, lam, mu, k, a, count, closing", [
    (8, "-4", "2*z", 2, 3, 0, 0), (16, "-4", "2*z^2", 2, 3, 32, 32),
    (12, "-9", "3*z^2", 2, 7, 32, 32), (24, "-4", "2*z", 2, 13, 32, 16),
    (32, "-4", "2*z^4", 4, 17, 1024, 32)])
def test_cocycle_check_matches_the_pair_table(n, lam, mu, k, a, count,
                                              closing):
    p, lift = _family_lift(n, lam, mu, k, a)
    d = brute_order(a, n)
    results = []
    for f in lift.isos:
        datum = extend_cyclic(f, a, d, p, n)
        results.append(cocycle_check(datum))
        assert results[-1] == reference_cocycle_check(datum)
    assert len(results) == count
    assert sum(r.ok for r in results) == closing


# the worked order-4 datum at n = 16 and an order-8 datum of the k = 4
# member, with one map replaced by a deck translate (which transports) or
# by a map off the curve
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(16, "-4", "2*z^2", 2, 3), (32, "-4", "2*z^4", 4, 5)]),
       st.booleans(), st.data())
def test_cocycle_check_on_a_tampered_datum_agrees_with_the_pair_table(
        case, transports, data):
    n, lam, mu, k, a = case
    p, lift = _family_lift(n, lam, mu, k, a)
    d = brute_order(a, n)
    # an index, not sampled_from(lift.isos), which hashes all 1024 maps of
    # the k = 4 member to probe them, each hash six minimal forms
    f = lift.isos[data.draw(st.integers(0, len(lift.isos) - 1))]
    datum = extend_cyclic(f, a, d, p, n)
    e = pow(a, data.draw(st.integers(0, d - 1)), n)
    if transports:
        coords = data.draw(st.sets(st.integers(1, 5), min_size=1))
        zeta = CycElt.zeta(math.gcd(n, k))
        delta = MonomialIso(range(6), [zeta if i in coords else 1
                                       for i in range(6)], k)
        wrong = datum.maps[e].compose(delta)
    else:
        wrong = datum.maps[e].compose(MonomialIso(
            range(6), [1, 1, 1, 1, 1, 2], k))
    assume(wrong != datum.maps[e])
    tampered = WeilDatum(conductor=n, generator=a, order=d, params=p,
                         maps={**datum.maps, e: wrong},
                         closure=datum.closure)
    got = cocycle_check(tampered)
    assert got.ok == reference_cocycle_check(tampered).ok
    if got.failing is not None:
        assert not _pair_holds(tampered, *got.failing)
    elif not got.ok:
        bad = int(got.reason.removeprefix("map for exponent ").split()[0])
        assert not transports_curve(tampered.maps[bad], p,
                                    GaloisElement(n, bad))


# with transport accepted, random generator maps along <g> of order 1 to 8:
# mostly non-closing data, where the failing pair is read off the closure;
# from g = 11 mod 16 and 13 mod 32 the least exponent other than 1 is g^(d-1)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(16, 1), (16, 7), (24, 5), (16, 3), (16, 11),
                        (32, 5), (32, 13)]),
       st.permutations(range(6)), st.lists(st.integers(0, 7), min_size=5,
                                           max_size=5), st.booleans())
def test_cocycle_check_failing_pair_matches_the_pair_table(case, perm, powers,
                                                           rational):
    n, a = case
    zeta = CycElt.zeta(n)
    scales = [1] + [(j + 1 if rational else zeta ** j) for j in powers]
    p = validate(-4, make_element("2*z^2", 16), 2)
    with mock.patch.object(descent, "transports_curve", lambda *args: True):
        datum = extend_cyclic(MonomialIso(perm, scales, 2), a,
                              brute_order(a, n), p, n)
        assert cocycle_check(datum) == reference_cocycle_check(datum)


# -- every candidate's verdict from the deck-group torsor against its own
# datum -----------------------------------------------------------------------


def oracle_verdicts(lift, p, a, d, n):
    """(closes, cocycle_ok, failing_pair) of each candidate from its own
    extend_cyclic datum and cocycle_check: the per-candidate path that
    weil-check ran before the torsor, with transport checked once for the
    lift."""
    out = []
    with transport_checked_once(lift, p, a, n):
        for f in lift.isos:
            datum = extend_cyclic(f, a, d, p, n)
            chk = cocycle_check(datum)
            out.append((datum.closes, chk.ok, chk.failing))
    return out


def assert_torsor_matches_oracle(p, lift, a, d, n):
    got = (torsor_verdicts(lift, extend_cyclic(lift.isos[0], a, d, p, n))
           if lift.isos else [])
    assert got == oracle_verdicts(lift, p, a, d, n)
    return got


# the descent corpus's worked n = 16 query (order 4) and full lifts at
# n = 12 and 24; the paper's k = 4 member at orders 2 and 8 (w = k = 4);
# a k = 8 member at n = 12, where w = 4 < k and sigma_7 sends i to -i; and
# generators given unreduced
@pytest.mark.parametrize("n, lam, mu, k, a, count, closing", [
    (16, "-4", "2*z^2", 2, 3, 32, 32), (12, "-9", "3*z^2", 2, 7, 32, 32),
    (24, "-4", "2*z", 2, 13, 32, 16), (32, "-4", "2*z^4", 4, 17, 1024, 32),
    (32, "-4", "2*z^4", 4, 5, 1024, 1024), (12, "-4", "2*z", 8, 7, 1024, 256),
    (16, "-4", "2*z^2", 2, -13, 32, 32), (16, "-4", "2*z^2", 2, 19, 32, 32),
    (24, "-4", "2*z", 2, 37, 32, 16)])
def test_torsor_verdicts_match_each_candidates_datum(n, lam, mu, k, a, count,
                                                     closing):
    p, lift = _family_lift(n, lam, mu, k, a)
    got = assert_torsor_matches_oracle(p, lift, a, brute_order(a, n), n)
    assert len(got) == count
    assert sum(ok for _, ok, _ in got) == closing


# admissible members at n <= 40 with every element of the stabilizer as the
# generator; at n = 15, sigma_4 fixes -1 although 4 is even, so s = 1 there
# and g mod w = 0
@settings(max_examples=25, deadline=None)
@given(admissible_mu(), st.sampled_from([2, 4]))
@example((15, "-4", "2*z^5"), 2)
@example((12, "-4", "2*z"), 4)
def test_torsor_verdicts_of_the_stabilizer_match_each_candidates_datum(
        member, k):
    n, lam, mu = member
    try:
        p = validate(make_element(lam, n), make_element(mu, n), k)
    except ParameterError:
        assume(False)
    for a in sorted(stabilizer(p, n)):
        g = GaloisElement(n, a)
        lift = lift_to_monomial(classify_sigma(p, g).witness, p, g, n)
        assert_torsor_matches_oracle(p, lift, a, brute_order(a, n), n)


# a lift of any permutation, each root set up to two roots of one coset of
# mu_w in any order, curve transport accepted.  The family's own
# permutations are involutions, so this is where a walk of the permutation
# in the wrong direction shows.  Where `closing` is drawn, the cycles divide
# the order and the cosets are mu_w itself, so f0's closure has a trivial
# permutation and scales in mu_w, and the linear part decides.  sigma_7 and
# sigma_11 send i to -i at n = 16 and 12, sigma_2 at n = 9 is of order 6
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(16, 3), (16, 7), (12, 11), (9, 2), (9, 4), (7, 3),
                        (15, 2), (24, 5)]),
       st.sampled_from([2, 4, 6, 8]), st.booleans(), st.data())
def test_torsor_verdicts_of_any_permutation_match_each_candidates_datum(
        case, k, closing, data):
    n, a = case
    d = brute_order(a, n)
    points = data.draw(st.permutations(range(6)))
    if closing:
        perm = list(range(6))
        while points:
            size = data.draw(st.sampled_from(
                [c for c in range(1, len(points) + 1) if d % c == 0]))
            cycle, points = points[:size], points[size:]
            for x, y in zip(cycle, cycle[1:] + cycle[:1]):
                perm[x] = y
    else:
        perm = points
    omega, unity = _roots_of_unity(n, k)
    roots = []
    for _ in range(5):
        if closing:
            base = data.draw(st.sampled_from(unity))
        else:
            base = data.draw(st.sampled_from([1, 2])) * omega ** data.draw(
                st.integers(0, math.lcm(2, n) - 1))
        chosen = data.draw(st.permutations(unity))[:2]
        roots.append(tuple(base * u for u in chosen))
    assert_torsor_matches_oracle_on_any_lift(perm, roots, k, a, d, n)


# the walk of a 4-cycle: with w | 24 every unit s has s^2 = 1 mod w, so
# walking the permutation backwards gives the same verdicts; at n = 5 and
# k = 10, w = 10 and sigma_a sends zeta_10 to zeta_10^s with s = 7 or 3
@pytest.mark.parametrize("a", [2, 3])
def test_torsor_verdicts_walk_a_four_cycle_forwards(a):
    n, k = 5, 10
    _, unity = _roots_of_unity(n, k)
    roots = [tuple(unity[t] for t in (0, 3, 4))] * 5
    got = assert_torsor_matches_oracle_on_any_lift(
        (0, 2, 3, 4, 1, 5), roots, k, a, 4, n)
    assert 0 < sum(ok for _, ok, _ in got) < len(got)


def _roots_of_unity(n, k):
    """omega, a generator of the roots of unity in Q(zeta_n), and mu_w, the
    k-th roots of unity there, as its powers."""
    big = math.lcm(2, n)
    w = math.gcd(k, big)
    omega = CycElt.zeta(n) if n % 2 == 0 else -CycElt.zeta(n)
    return omega, [omega ** (t * big // w) for t in range(w)]


def assert_torsor_matches_oracle_on_any_lift(perm, roots, k, a, d, n):
    """The torsor against the oracle on the lift whose maps are the
    products of the given root sets, with curve transport accepted."""
    isos = tuple(MonomialIso(perm, (1, *rest), k)
                 for rest in itertools.product(*roots))
    lift = LiftResult(isos=isos, missing=(), perm=tuple(perm), powers=(),
                      roots=tuple(roots))
    p = validate(-4, make_element("2*z^2", 16), 2)
    with mock.patch.object(descent, "transports_curve", lambda *args: True):
        return assert_torsor_matches_oracle(p, lift, a, d, n)


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


small_or_huge_ints = st.one_of(st.integers(-3, 3), huge)


@st.composite
def sparse_operands(draw, m):
    """(x, n, vec): an operand x at a conductor n dividing m, of a kind
    that the rational and zero short-cuts of the integer core take, and its
    Fraction coordinates vec at n.  The kinds: zero at 1 or at d, an int,
    a Fraction (1000-bit included), a rational element at 1 or at d, a
    monomial q z^t and a sparse raw vector at d.  A plain int or Fraction
    is at conductor 1."""
    d = draw(st.sampled_from([d for d in range(1, m + 1) if m % d == 0]))
    scalars = st.one_of(small_or_huge_ints, core_rationals)
    kinds = [
        st.just((CycElt.zero(), 1, ref_vec(1, []))),
        st.just((CycElt.zero(d), d, ref_vec(d, []))),
        small_or_huge_ints.map(lambda q: (q, 1, ref_vec(1, [q]))),
        core_rationals.map(lambda q: (q, 1, ref_vec(1, [q]))),
        scalars.map(lambda q: (CycElt.from_rational(q), 1, ref_vec(1, [q]))),
        scalars.map(lambda q: (CycElt.from_rational(q, d), d,
                               ref_vec(d, [q]))),
        st.builds(lambda t, q: (CycElt(d, [0] * t + [q]), d,
                                ref_vec(d, [0] * t + [q])),
                  st.integers(0, d - 1), core_rationals),
        raw_coefficients(d).map(lambda c: (CycElt(d, c), d, ref_vec(d, c))),
    ]
    return draw(st.one_of(kinds))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CORE_CONDUCTORS), st.data())
def test_rational_and_zero_operands_match_fraction_vectors(m, data):
    # products and sums with a rational or zero side scale or return the
    # other side, and embed and galois_apply write a rational down
    # directly; each result must still be canonical at the lcm conductor
    operands = [data.draw(sparse_operands(m)) for _ in range(2)]
    (u, nu, a), (v, nv, b) = operands
    assume(isinstance(u, CycElt) or isinstance(v, CycElt))
    big = math.lcm(nu, nv)
    a, b = ref_scatter(a, big // nu, big), ref_scatter(b, big // nv, big)
    for w, poly in [(u * v, _ref_pmul(a, b)), (v * u, _ref_pmul(b, a)),
                    (u + v, _ref_padd(a, b)),
                    (u - v, _ref_padd(a, _ref_pneg(b))),
                    (v - u, _ref_padd(b, _ref_pneg(a)))]:
        assert w.n == big
        assert_canonical(w, ref_vec(big, poly))
    for x, n, vec in operands:
        if not isinstance(x, CycElt):
            continue
        assert x.n == n
        assert_canonical(x, vec)
        g = data.draw(st.sampled_from(units(n)))
        image = x.galois_apply(g)
        assert image.n == n
        assert_canonical(image, ref_scatter(vec, g, n))
        non_units = [k for k in range(n) if math.gcd(k, n) != 1]
        if non_units:
            with pytest.raises(ValueError, match="not a unit"):
                x.galois_apply(data.draw(st.sampled_from(non_units)))
        w = x.embed(m)
        assert w.n == m
        assert_canonical(w, ref_scatter(vec, m // n, m))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CORE_CONDUCTORS), st.data())
def test_reduced_reduces_pads_and_cancels_as_needed(n, data):
    # the mod-Phi_n pass runs on lists longer than phi(n), padding on
    # shorter ones, and the gcd only at den != 1
    phi = euler_phi(n)
    length = data.draw(st.one_of(st.integers(0, phi - 1), st.just(phi),
                                 st.integers(phi + 1, 2 * phi + 1)))
    num = data.draw(st.lists(small_or_huge_ints, min_size=length,
                             max_size=length))
    den = 1
    kind = data.draw(st.sampled_from(["den 1", "shared factor", "zero"]))
    if kind != "den 1":
        g = data.draw(st.integers(2, 2 ** 64))
        den = g * data.draw(st.integers(1, 2 ** 64))
        num = [0] * length if kind == "zero" else [g * x for x in num]
    w = _reduced(n, list(num), den)
    assert_canonical(w, ref_vec(n, [Fraction(x, den) for x in num]))
    if kind == "zero":
        assert (w.num, w.den) == ((0,) * phi, 1)


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
    p = math.prod(reference_conjugates(w)[1:], start=CycElt.one(u.n))
    norm = w * p
    assert norm.is_rational()
    return p * Fraction(u.den, norm.num[0])


def reference_conjugates(u):
    """The distinct Galois conjugates of u in Q(zeta_n), u first; [u] when
    u is rational."""
    out, seen = [u], {(u.num, u.den)}
    for a in units(u.n)[1:]:
        v = u.galois_apply(a)
        if (v.num, v.den) not in seen:
            seen.add((v.num, v.den))
            out.append(v)
    return out


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


@functools.cache
def _subfield_echelon(d, n):
    """(D, ((pivot, row), ...)): the reduced echelon form of the power
    basis of Q(zeta_d) embedded in Q(zeta_n), one row per basis element
    z^j followed by the j-th unit vector, so that the tail of each row
    writes its head in that basis; the rows as ints over one common
    denominator D."""
    size = euler_phi(d)
    ech, pivots = _echelon(
        [list(CycElt(d, [0] * j + [1]).embed(n).coeffs)
         + [Fraction(int(i == j)) for i in range(size)] for j in range(size)])
    assert len(pivots) == size and pivots[-1] < euler_phi(n)
    den = math.lcm(*(c.denominator for row in ech for c in row))
    return den, tuple((col, [c.numerator * (den // c.denominator)
                             for c in row]) for row, col in zip(ech, pivots))


def _solve_in_subfield(d, u):
    """The coordinates at d of u, by elimination against the basis of
    Q(zeta_d) row-reduced once per (d, n); None when u is outside its
    span.  In reduced form every pivot column is zero outside its own row,
    so u's pivot coordinates are the weights of the rows."""
    den, rows = _subfield_echelon(d, u.n)
    size = euler_phi(u.n)
    total = [0] * (size + euler_phi(d))
    for col, row in rows:
        f = u.num[col]
        if f:
            total = [t + f * c for t, c in zip(total, row)]
    if total[:size] != [den * x for x in u.num]:
        return None
    return tuple(Fraction(t, den * u.den) for t in total[size:])


def reference_minimal_form(u):
    """The earlier minimal form, a loop over the divisors d of n: the
    least d whose kernel units a = 1 mod d all fix u, and u's
    coordinates at d."""
    n = u.n
    for d in (d for d in range(1, n) if n % d == 0):
        kernel = [a for a in units(n) if a % d == 1 % d]
        if all(u.galois_apply(a) == u for a in kernel):
            vec = _solve_in_subfield(d, u)
            if vec is not None:
                return d, vec
    return n, u.coeffs


def fraction_key(u):
    """u.key() in the earlier form: the least conductor holding u and u's
    coordinates there as Fractions, read from the int key (n, num, den)."""
    n, num, den = u.key()
    return n, tuple(Fraction(c, den) for c in num)


def _subfield_values(n, u, subgroups_of_n):
    """A rational, u and u's trace over each subgroup: sums of Galois
    conjugates over a subgroup fall into subfields."""
    return [CycElt.from_rational(Fraction(-3, 7), n), u] + [
        sum((u.galois_apply(h) for h in H), CycElt.zero(n))
        for H in subgroups_of_n]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, MAX_CONDUCTOR), st.data())
def test_key_matches_the_fraction_minimal_form(n, data):
    u = CycElt(n, data.draw(raw_coefficients(n)))
    H = data.draw(st.sampled_from(subgroups(n)))
    for w in _subfield_values(n, u, [H]):
        assert fraction_key(w) == ref_key(n, w.coeffs) == \
            reference_minimal_form(w)


def test_key_matches_the_divisor_loop_at_every_conductor():
    # n = 2 (mod 4) included, where Q(zeta_n) = Q(zeta_(n/2))
    for n in range(1, MAX_CONDUCTOR + 1):
        u = CycElt(n, [Fraction(i * i - 5 * i + 2, 3)
                       for i in range(euler_phi(n))])
        for w in _subfield_values(n, u, subgroups(n)):
            assert fraction_key(w) == reference_minimal_form(w), (n, w)


# -- the closed-form subfield steps against the kernel units they replaced --


def reference_step_units(n, d, p):
    """Units that generate the kernel of (Z/n)* -> (Z/(d/p))* together
    with the kernel of (Z/n)* -> (Z/d)*, for a prime p | d | n: an element
    of Q(zeta_d), which the second kernel fixes, lies in Q(zeta_(d/p)) iff
    these units fix it too.  The span walk whose table the minimal form
    read before CycElt._step_down."""
    e = d // p
    span, gens = {a for a in units(n) if a % d == 1 % d}, []
    for a in units(n):
        if a % e == 1 % e and a not in span:
            gens.append(a)
            span = {s * b % n for s in span for b in _cyclic(a, n)}
    return tuple(gens)


def assert_step(w, p):
    """The step from w's conductor n down to n/p refuses exactly when a
    unit a = 1 (mod n/p) moves w, and otherwise embeds back to w."""
    n = w.n
    step = w._step_down(p)
    moved = any(w.galois_apply(a) != w for a in reference_step_units(n, n, p))
    assert (step is None) == moved, (n, p, w)
    if step is not None:
        assert step.n == n // p and step.embed(n) == w, (n, p, w)


def _primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, MAX_CONDUCTOR), st.data())
def test_step_down_matches_the_kernel_units(n, data):
    u = CycElt(n, data.draw(raw_coefficients(n)))
    H = data.draw(st.sampled_from(subgroups(n)))
    p = data.draw(st.sampled_from(_primes(n)))
    for w in _subfield_values(n, u, [H]):
        assert_step(w, p)


def test_step_down_matches_the_kernel_units_at_every_conductor():
    # both rules: p | n/p (no arithmetic) and p prime to n/p (one Galois
    # image and the trace), p = 2 at n = 2 (mod 4) included
    for n in range(2, MAX_CONDUCTOR + 1):
        u = CycElt(n, [Fraction(i * i - 5 * i + 2, 3)
                       for i in range(euler_phi(n))])
        for w in _subfield_values(n, u, subgroups(n)):
            for p in _primes(n):
                assert_step(w, p)


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
@given(*[st.sampled_from([3, 4, 5, 8, 12]).flatmap(elements)] * 4)
def test_product_orbit_test_takes_every_mate_and_matches_the_keys(
        c, other, s, t):
    # on pairs: c as (c s, s) and each value v as (v t, t)
    assume(not c.is_zero() and c != 1)
    assume(not s.is_zero() and not t.is_zero())
    pair = (c * s, s)
    assert all(_in_orbit((v * t, t), pair) for v in _orbit_values(c))
    # an unrelated value, also at another conductor
    assert _in_orbit((other * t, t), pair) == \
        (other.key() in {v.key() for v in g_orbit(c)})


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5, 8, 12]).flatmap(
    lambda n: st.lists(elements(n), min_size=4, max_size=4)), st.data())
def test_pair_orbit_test_matches_the_divided_orbit_values(values, data):
    e, f, other, t = values
    assume(not e.is_zero() and not f.is_zero() and e != f
           and not t.is_zero())
    c = e / f
    # an orbit mate of c or an unrelated value, over the denominator t
    v = data.draw(st.sampled_from(_orbit_values(c) + [other]))
    assert _in_orbit((v * t, t), (e, f)) == (v in _orbit_values(c))


# members whose circular cross-ratios do collide: [1, lam, mu, -mu] is lam
# at the critical radius (x + 1)^2 + y^2 = 2 of mu = x + iy, 1/lam at
# (x - 1)^2 + y^2 = 2, and -1 = [inf, 0, mu, -mu] for imaginary mu.  An
# earlier clause rejects each: [1, lam, mu, -mu] = (2 x - r^2 - 1)/(2 x +
# r^2 + 1) with x = r cos(theta) meets the other two orbits nowhere else
COLLIDING = [(4, "-2 + z"), (4, "2 + z"), (12, "-2 + z^3"), (4, "2*z"),
             (8, "3*z^2")]


@pytest.mark.parametrize("n, mu", COLLIDING)
def test_pair_orbit_test_finds_the_collisions_of_rejected_members(n, mu):
    mu = make_element(mu, n)
    lam = -(mu * mu.conjugate())
    with pytest.raises(ParameterError) as exc:
        validate(lam, mu, 2)
    assert exc.value.clause in ("critical_radius", "angle_imaginary")
    pairs = [_cross_ratio_pair(*q) for q in _circular_quadruples(lam, mu)]
    cr = family_cross_ratios(lam, mu)
    ij = list(itertools.combinations(range(3), 2))
    collide = [_in_orbit(pairs[j], pairs[i]) for i, j in ij]
    assert collide == [cr[j] in _orbit_values(cr[i]) for i, j in ij]
    assert any(collide)


@pytest.mark.parametrize("reported", range(3))
def test_the_collision_clause_and_message_divide_only_on_the_error_path(
        reported):
    # no admissible member collides, so the residue step is made to keep
    # every pair and the orbit test to report the reported-th one; the
    # message holds the divided cross-ratios in one field, as before
    lam = make_element("-(3 + 2*(z + z^-1))^2", 8)
    mu = make_element("(3 + 2*(z + z^-1))*z", 8)
    calls = []

    def report(v, c):
        calls.append((v, c))
        return len(calls) == reported + 1

    with mock.patch.object(family, "_collision_suspects",
                           lambda lam, mu: list(family._PAIRS)), \
            mock.patch.object(family, "_in_orbit", report), \
            pytest.raises(ParameterError) as exc:
        validate(lam, mu, 2)
    i, j = list(itertools.combinations(range(3), 2))[reported]
    _, cr = common_field((cross_ratio(INF, 0, 1, lam),
                          cross_ratio(INF, 0, mu, -mu),
                          cross_ratio(1, lam, mu, -mu)))
    assert exc.value.clause == "cross_ratio_collision"
    assert str(exc.value) == f"cross-ratios {cr[i]} and {cr[j]} share an orbit"
    assert [v[0] / v[1] for v in calls[-1]] == [cr[j], cr[i]]


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


# -- min_poly from power sums against the product over the orbit ------------


def reference_min_poly(u):
    """The earlier min_poly: prod(x - v) over the distinct conjugates v of
    u, multiplied out over the field, with rational coefficients."""
    poly = [CycElt.one(u.n)]
    for v in reference_conjugates(u):
        nxt = [CycElt.zero(u.n)] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * v
        poly = nxt
    assert all(c.is_rational() for c in poly)
    return tuple(c.as_rational() for c in poly)


@st.composite
def min_poly_values(draw):
    """A value at a conductor n up to 120 of one of four kinds: a
    rational; a vector over a denominator above 1; the trace of such a
    vector over a random subgroup, fixed by every unit of it; or a vector
    of coordinates up to 60 bits over a denominator up to 60 bits.  The
    reference takes seconds on a dense value of high degree, so phi(n) is
    at most 32, and above conductor 40 at most two coordinates are nonzero
    and a trace has degree at most 16."""
    n = draw(st.sampled_from([n for n in range(1, MAX_CONDUCTOR + 1)
                              if euler_phi(n) <= 32]))
    kind = draw(st.sampled_from(["rational", "fraction", "trace", "large"]))
    if kind == "rational":
        return CycElt.from_rational(draw(core_rationals), n)
    phi, bound = euler_phi(n), 2 ** 60 if kind == "large" else 5
    num = [0] * phi
    for i in draw(st.lists(st.integers(0, phi - 1), min_size=1,
                           max_size=phi if n <= 40 else 2)):
        num[i] = draw(st.integers(-bound, bound))
    den = draw(st.integers(1 if kind == "large" else 2, bound))
    u = CycElt(n, [Fraction(x, den) for x in num])
    if kind == "trace":
        H = draw(st.sampled_from([h for h in subgroups(n)
                                  if n <= 40 or 16 * len(h) >= phi]))
        u = sum((u.galois_apply(h) for h in H), CycElt.zero(n))
    return u


@SETTINGS
@given(min_poly_values())
@example(CycElt.zeta(40))
@example(make_element("z + 3*z^7", 120))
def test_min_poly_matches_the_orbit_product(u):
    mp = min_poly(u)
    assert mp == reference_min_poly(u)
    assert all(type(c) is Fraction for c in mp)


def reference_seed_candidates(n):
    """The seeds of fixed_field in order, with every power of zeta built
    before the first seed, as the earlier generator built them."""
    yield CycElt.one(n)
    powers = [CycElt.zeta(n) ** t for t in range(1, n)]
    yield from powers
    for x, y in itertools.combinations(powers, 2):
        yield x + y
    for x, y in itertools.combinations(powers, 2):
        yield x + 2 * y
        yield x - y
    for x, y, z in itertools.combinations(powers, 3):
        yield x + 2 * y + 3 * z


def reference_fixed_field(H, n):
    """The Subfield of the first H-trace of a seed whose orbit product has
    the degree of the fixed field of H."""
    for seed in reference_seed_candidates(n):
        t = sum((seed.galois_apply(a) for a in H), CycElt.zero(n))
        mp = reference_min_poly(t)
        if len(mp) - 1 == euler_phi(n) // len(H):
            return Subfield(conductor=n, subgroup=frozenset(H), primitive=t,
                            minpoly=mp)


def test_fixed_field_matches_the_reference_on_every_subgroup():
    for n in range(1, 41):
        for H in subgroups(n):
            assert fixed_field(H, n) == reference_fixed_field(H, n)


def test_fixed_field_tries_the_seed_1_only_for_q():
    # the H-trace of 1 is the rational |H|, so past Q the search starts at
    # z; every other seed is tried as before, in the same order
    for n in range(1, 41):
        for H in subgroups(n):
            want = euler_phi(n) // len(H)
            traces = []
            for seed in reference_seed_candidates(n):
                traces.append(sum((seed.galois_apply(a) for a in H),
                                  CycElt.zero(n)))
                if len(min_poly(traces[-1])) - 1 == want:
                    break
            tried = []
            with mock.patch.object(cyclotomic, "min_poly",
                                   lambda t: tried.append(t) or min_poly(t)):
                sf = fixed_field(H, n)
            assert tried == (traces[1:] if want > 1 else traces[:1])
            assert sf.primitive == traces[-1]


# -- printing, keys, hashes and the order on the integer numerators ----------


def reference_str(u):
    """The Fraction printer that CycElt.__str__ replaced: the terms of the
    coordinates as reduced Fractions, and the size_limit rejection where
    Python refuses to convert an integer of one of them to a string."""
    try:
        return reference_elt_str(u.coeffs)
    except ValueError:
        raise LimitError("size_limit", "result too large to print: a "
                         "coefficient passes Python's "
                         f"{sys.get_int_max_str_digits()}-digit limit for "
                         "integer strings") from None


MIXED = [1, 3, 4, 5, 7, 8, 12, 24]


@SETTINGS
@given(st.sampled_from(MIXED).flatmap(lambda n: elements(n, printed)),
       st.sampled_from([1, 2, 3]))
def test_integer_printer_matches_the_fraction_printer(u, mult):
    for v in (u, u.embed(mult * u.n), -u, u * Fraction(5, 6)):
        assert str(v) == reference_str(v)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(MIXED).flatmap(
    lambda n: st.tuples(elements(n), st.integers(0, euler_phi(n) - 1))),
    st.sampled_from(["numerator", "denominator", "both"]), st.booleans())
def test_integer_printer_raises_the_fraction_printers_size_limit(
        case, where, negative):
    # 7^k has more than k * 0.8 decimal digits
    u, i = case
    huge = 7 ** (2 * sys.get_int_max_str_digits() + 10)
    c = {"numerator": Fraction(huge, 3), "denominator": Fraction(2, huge),
         "both": Fraction(huge, huge + 1)}[where]
    coeffs = list(u.coeffs)
    coeffs[i] = -c if negative else c
    v = CycElt(u.n, coeffs)
    if not sys.get_int_max_str_digits():  # no limit: both print
        assert str(v) == reference_str(v)
        return
    with pytest.raises(LimitError) as want:
        reference_str(v)
    with pytest.raises(LimitError) as got:
        str(v)
    assert got.value.clause == want.value.clause == "size_limit"
    assert str(got.value) == str(want.value)


def fraction_tuple(u):
    """The earlier tuple order of an element as it is: (n, coeffs)."""
    return u.n, u.coeffs


@st.composite
def related_values(draw):
    """Elements at mixed conductors, with equal values at several
    conductors, repeats, and values that differ in one coordinate."""
    drawn = draw(st.lists(element_and_multiple(), min_size=1, max_size=3))
    values = [x for x, _ in drawn] + [x.embed(m) for x, m in drawn]
    x = draw(st.sampled_from(values))
    bump = [0] * euler_phi(x.n)
    bump[draw(st.integers(0, len(bump) - 1))] = draw(coefficients)
    return values + [x, -x, x + CycElt(x.n, bump)]


@SETTINGS
@given(related_values())
def test_canonical_order_is_the_order_of_the_fraction_tuples(values):
    for x in values:
        for y in values:
            a, b = fraction_tuple(x), fraction_tuple(y)
            assert cyclotomic._compare((x.n, x.num, x.den),
                                       (y.n, y.num, y.den)) == \
                (a > b) - (a < b)
    # on minimal forms: the order of the earlier keys, ties included
    assert [fraction_key(v) for v in sorted(values, key=CycElt.sort_key)] \
        == sorted(map(fraction_key, values))


@SETTINGS
@given(related_values())
def test_key_and_hash_agree_with_equality(values):
    keys = [(x.key(), hash(x)) for x in values]
    for x, (key, digest) in zip(values, keys):
        for y, (other, other_digest) in zip(values, keys):
            assert (x == y) == (key == other)
            if x == y:
                assert digest == other_digest


@SETTINGS
@given(st.fractions(min_value=-9, max_value=9, max_denominator=8),
       st.sampled_from(MIXED))
def test_rationals_hash_like_int_and_fraction(q, n):
    u = CycElt.from_rational(q, n)
    assert hash(u) == hash(q) == hash(Fraction(q))
    if q.denominator == 1:
        assert hash(u) == hash(int(q)) and {int(q): u}[u] == u
    assert {q: n}[u] == n


# -- validate's residue step against the exact orbit test --------------------


def assert_suspects_cover_the_collisions(lam, mu):
    """Every pair of circular cross-ratios that the exact test finds in one
    orbit is a suspect of the residue step, and `_circular_pairs` holds
    the cross-ratios as `_cross_ratio_pair` forms them.  Returns the pairs
    that collide."""
    exact = [_cross_ratio_pair(*q) for q in _circular_quadruples(lam, mu)]
    closed = family._circular_pairs(lam, mu)
    assert all(a * d == b * c for (a, b), (c, d) in zip(exact, closed))
    collide = [(i, j) for i, j in family._PAIRS
               if _in_orbit(exact[j], exact[i])]
    suspects = family._collision_suspects(lam, mu)
    assert set(collide) <= set(suspects)
    return collide, suspects


@SETTINGS
@given(st.sampled_from([3, 4, 5, 8, 12]).flatmap(
    lambda n: st.tuples(elements(n), elements(n))),
    st.sampled_from(["free", "-1", "2", "1/2", "mu^2"]),
    st.sampled_from([None, "lam", "mu"]))
def test_residue_step_keeps_every_pair_the_exact_test_accepts(
        values, force, blow):
    # lambda in {-1, 2, 1/2}, the orbit of -1 = [inf, 0, mu, -mu], and
    # lambda = mu^2, where [1, lambda, mu, -mu] = -1, force orbit mates;
    # a term z/p puts the split prime p into a denominator
    lam, mu = values
    n = mu.n
    p = _split_prime(n)[0]
    if blow == "mu":
        mu = mu + CycElt.zeta(n) * Fraction(1, p)
    lam = {"free": lam, "-1": -1, "2": 2, "1/2": Fraction(1, 2),
           "mu^2": mu * mu}[force]
    lam = CycElt.from_rational(lam, n) if not isinstance(lam, CycElt) \
        else lam
    if blow == "lam":
        lam = lam + CycElt.zeta(n) * Fraction(1, p)
    points = [CycElt.zero(n), CycElt.one(n), lam, mu, -mu]
    assume(len({(x.num, x.den) for x in points}) == 5)
    collide, suspects = assert_suspects_cover_the_collisions(lam, mu)
    if force in ("-1", "2", "1/2") and blow != "lam":
        assert (0, 1) in collide
    elif force == "mu^2" and blow != "lam":
        assert (1, 2) in collide
    if blow:
        assert suspects == list(family._PAIRS)


@pytest.mark.parametrize("n, mu", COLLIDING)
@pytest.mark.parametrize("blow", [False, True])
def test_residue_step_keeps_the_collisions_of_rejected_members(n, mu, blow):
    mu = make_element(mu, n)
    lam = -(mu * mu.conjugate())
    if blow:
        lam = lam + Fraction(1, _split_prime(n)[0])
    collide, _ = assert_suspects_cover_the_collisions(lam, mu)
    assert collide or blow


def test_admissible_members_run_no_exact_orbit_test():
    # the residue step refutes every pair of the moduli-sweep members
    exact, members = [], 0
    with mock.patch.object(family, "_in_orbit",
                           lambda v, c: exact.append(v) or _in_orbit(v, c)):
        for q in corpus.pool("moduli-sweep"):
            args = dict(a.split("=", 1) for a in q.argv if "=" in a)
            n = int(q.argv[q.argv.index("--conductor") + 1])
            validate(make_element(args["--lambda"], n),
                     make_element(args["--mu"], n), 2)
            members += 1
    assert members >= 40 and exact == []


# -- Galois fixers, refuted cosets, Phi_n and scalar operands against the
# -- exact loops and the wrapped-and-embedded arithmetic they replaced -------


def reference_fixing_subgroup(u, n):
    """The earlier fixing_subgroup: every unit tested by an exact Galois
    image."""
    v = u.in_conductor(n)
    return frozenset(a for a in units(n) if v.galois_apply(a) == v)


@st.composite
def fixed_values(draw):
    """(u, m): a value at a conductor n <= 120 and a multiple m <= 120 of
    n.  The value is a rational, a sparse vector, or its trace over a
    random subgroup, fixed by every unit of it; with a denominator that
    the split prime of n or of m divides, when drawn, so that it has no
    residue there."""
    n = draw(st.integers(1, MAX_CONDUCTOR))
    m = draw(st.sampled_from(range(n, MAX_CONDUCTOR + 1, n)))
    kind = draw(st.sampled_from(["rational", "vector", "trace"]))
    den = draw(st.integers(1, 6)) * draw(st.sampled_from(
        [1, _split_prime(n)[0], _split_prime(m)[0]]))
    if kind == "rational":
        return CycElt.from_rational(Fraction(draw(st.integers(-9, 9)), den),
                                    n), m
    phi = euler_phi(n)
    num = [0] * phi
    for i in draw(st.lists(st.integers(0, phi - 1), min_size=1,
                           max_size=4)):
        num[i] = draw(st.integers(-5, 5))
    u = CycElt(n, [Fraction(x, den) for x in num])
    if kind == "trace":
        H = draw(st.sampled_from(subgroups(n)))
        u = sum((u.galois_apply(h) for h in H), CycElt.zero(n))
    return u, m


@SETTINGS
@given(fixed_values(), st.data())
@example((CycElt.from_rational(-4, 40), 40), None)
@example((make_element("2*z", 40), 40), None)
@example((CycElt(5, [0, Fraction(1, _split_prime(5)[0])]), 40), None)
def test_fixing_subgroup_matches_the_exact_loop(case, data):
    u, m = case
    assert cyclotomic.fixing_subgroup(u, m) == reference_fixing_subgroup(u, m)
    # sigma_a(v) = w for w = -v and a conjugate of v: the negation test of
    # field_of_moduli and any other target
    v = u.in_conductor(m)
    b = data.draw(st.sampled_from(units(m))) if data else 1
    for w in (-v, v.galois_apply(b)):
        assert cyclotomic._galois_matches(v, w) == frozenset(
            a for a in units(m) if v.galois_apply(a) == w)


@settings(max_examples=30, deadline=None)
@given(admissible_mu(), st.booleans())
@example((40, "-4", "2*z"), False)
@example((5, "-529/121", "23/11*z"), True)
@example((5, "-(-3 + z + z^-1)^2", "(-3 + z + z^-1)*z"), True)
def test_a_refuted_coset_has_no_map(member, least):
    # every unit whose residues the filter refutes, at the large split
    # prime or at the least one, where residues collide and p may divide a
    # denominator, has no map onto its twist; the stabilizer is never
    # refuted
    n, lam, mu = member
    try:
        p = validate(make_element(lam, n), make_element(mu, n), 2)
    except ParameterError:
        assume(False)
    lam, mu = p.lam.in_conductor(n), p.mu.in_conductor(n)
    source = _configuration(lam, mu).points()
    if least:
        with _least_split_prime():
            refuted = [a for a in units(n) if moduli._refuted(lam, mu, a)]
    else:
        refuted = [a for a in units(n) if moduli._refuted(lam, mu, a)]
    for a in refuted:
        assert set_maps(source, _twist(lam, mu, GaloisElement(n, a))[2]) \
            == []
    assert not set(refuted) & stabilizer(p, n)


def reference_cyclotomic_orbit_product(n):
    """prod(x - zeta_n^a) over the units a mod n, multiplied out with
    coefficients in Z[y]/(y^n - 1), where a product with zeta_n^a is a
    rotation, and each coefficient then taken into Q(zeta_n), where it
    must be rational.  The product over the field (`reference_min_poly`)
    takes seconds at the large prime conductors."""
    poly = [[1] + [0] * (n - 1)]
    for a in units(n):
        nxt = [[0] * n for _ in range(len(poly) + 1)]
        for i, c in enumerate(poly):
            for j, x in enumerate(c):
                nxt[i + 1][j] += x
                nxt[i][(j + a) % n] -= x
        poly = nxt
    coeffs = [CycElt(n, c) for c in poly]
    assert all(c.is_rational() for c in coeffs)
    return tuple(c.as_rational() for c in coeffs)


def test_min_poly_of_zeta_matches_the_orbit_product_at_every_conductor():
    for n in range(1, MAX_CONDUCTOR + 1):
        z = CycElt.zeta(n)
        mp = min_poly(z)
        assert all(type(c) is Fraction for c in mp)
        assert mp == reference_cyclotomic_orbit_product(n), n
        if euler_phi(n) <= 32:
            assert mp == reference_min_poly(z), n
        if n <= 40:
            # neighbours of zeta_n go the power-sum way
            for v in (z * Fraction(1, 2), -z, z + 1):
                assert min_poly(v) == reference_min_poly(v), (n, v)


def reference_wrapped(op, u, v):
    """(n, num, den) of op(u, v) by the earlier route: an int or Fraction
    side wrapped as an element at the other side's conductor, both sides
    embedded at the lcm, and their Fraction vectors combined and reduced
    mod Phi_n."""
    if not isinstance(u, CycElt):
        u = CycElt.from_rational(u, v.n)
    if not isinstance(v, CycElt):
        v = CycElt.from_rational(v, u.n)
    n = math.lcm(u.n, v.n)
    a, b = u.embed(n).coeffs, v.embed(n).coeffs
    poly = {"*": lambda: _ref_pmul(a, b), "+": lambda: _ref_padd(a, b),
            "-": lambda: _ref_padd(a, _ref_pneg(b))}[op]()
    vec = ref_vec(n, poly)
    den = math.lcm(*(c.denominator for c in vec))
    return n, tuple(c.numerator * (den // c.denominator) for c in vec), den


@st.composite
def scalar_operands(draw):
    """(x, q): an element x at a conductor m <= 40 (a sparse vector, a
    rational or zero) and an operand q that is an int, a Fraction, or a
    rational element (zero included) at conductor 1, at a divisor of m
    or at a conductor that does not divide m."""
    m = draw(st.sampled_from([2, 3, 4, 5, 8, 12, 15, 20, 24, 40]))
    phi = euler_phi(m)
    num = [0] * phi
    for i in draw(st.lists(st.integers(0, phi - 1), max_size=3)):
        num[i] = draw(small_or_huge_ints)
    x = CycElt(m, [Fraction(c, draw(st.integers(1, 6))) for c in num])
    scalar = st.one_of(small_or_huge_ints, core_rationals)
    q = draw(scalar)
    where = draw(st.sampled_from(["int or Fraction", "1", "dividing",
                                  "non-dividing"]))
    if where == "int or Fraction":
        return x, q
    e = {"1": 1,
         "dividing": draw(st.sampled_from(
             [d for d in range(1, m + 1) if m % d == 0])),
         "non-dividing": draw(st.sampled_from(
             [d for d in range(2, 13) if m % d and math.lcm(m, d) <= 120]))
         }[where]
    return x, CycElt.from_rational(q, e)


@settings(max_examples=150, deadline=None)
@given(scalar_operands())
@example((make_element("2*z", 40), CycElt.one()))
@example((make_element("2*z", 40), CycElt.zero(5)))
@example((make_element("2*z", 8), CycElt.from_rational(Fraction(-1, 3), 3)))
@example((CycElt.from_rational(7, 12), CycElt.from_rational(2, 8)))
@example((make_element("3 + z", 5), CycElt.from_rational(3)))
@example((CycElt.from_rational(3, 4), CycElt.from_rational(3, 3)))
def test_scalar_operands_match_the_wrapped_and_embedded_reference(case):
    # equality too: a rational against an element of another conductor
    # compares with no embedding
    x, q = case
    for op, u, v in [("*", x, q), ("*", q, x), ("+", x, q), ("+", q, x),
                     ("-", x, q), ("-", q, x)]:
        w = {"*": operator.mul, "+": operator.add, "-": operator.sub}[op](
            u, v)
        assert (w.n, w.num, w.den) == reference_wrapped(op, u, v)
    _, gap, _ = reference_wrapped("-", x, q)
    assert (x == q) == (q == x) == (not any(gap))
