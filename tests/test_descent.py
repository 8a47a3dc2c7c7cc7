import contextlib
import itertools
from unittest import mock

import pytest

from pseudoreal import descent

from pseudoreal.cyclotomic import CycElt, GaloisElement, make_element
from pseudoreal.family import validate
from pseudoreal.moebius import Moebius
from pseudoreal.descent import (
    MonomialIso,
    WeilDatum,
    check_order,
    cocycle_check,
    compose_twist,
    curve_rows,
    extend_cyclic,
    lift_to_monomial,
    torsor_verdicts,
    transports_curve,
)
from pseudoreal.moduli import classify_sigma


def pi4_params(m=16):
    """r = 2, theta = pi/4 inside Q(zeta_m): mu = 2 zeta_8."""
    if m == 16:
        return validate(-4, make_element("2*z^2", 16), 2)
    if m == 8:
        return validate(-4, make_element("2*z", 8), 2)
    raise ValueError(m)


def swap_iso(s2=1, s4=1):
    """The coordinate-swap isomorphism with scales
    (1, +-2i, 1, +-2i, sqrt2 w^(3/2), i sqrt2 w^(3/2)) over Q(zeta_16)."""
    i16 = make_element("z^4", 16)
    s5 = make_element("z + z^5", 16)
    return MonomialIso((1, 0, 3, 2, 4, 5),
                       [1, s2 * 2 * i16, 1, s4 * 2 * i16, s5, i16 * s5], 2)


def test_monomial_iso_projective_equality():
    f = MonomialIso(range(6), [2, 2, 2, 2, 2, 2], 2)
    assert f.is_identity
    g = MonomialIso((1, 0, 2, 3, 4, 5), [3, 6, 3, 3, 3, 3], 4)
    h = MonomialIso((1, 0, 2, 3, 4, 5), [1, 2, 1, 1, 1, 1], 4)
    assert g == h
    with pytest.raises(ValueError):
        MonomialIso(range(6), [0, 1, 1, 1, 1, 1], 2)
    with pytest.raises(ValueError):
        MonomialIso((0, 0, 2, 3, 4, 5), [1] * 6, 2)


def test_monomial_iso_composition():
    f = swap_iso()
    ident = MonomialIso.identity(2)
    assert f.compose(ident) == f
    assert ident.compose(f) == f
    # composing the swap with itself straightens the permutation
    ff = f.compose(f)
    assert ff.perm == tuple(range(6))


def test_curve_rows_shape():
    p = pi4_params()
    rows = curve_rows(p.lam, p.mu)
    assert len(rows) == 4 and all(len(r) == 6 for r in rows)
    assert rows[1][0] == p.lam
    assert rows[2][0] == p.mu
    assert rows[3][0] == -p.mu


def test_transports_identity_and_subgroup():
    p = pi4_params()
    one = GaloisElement(16, 1)
    assert transports_curve(MonomialIso.identity(2), p, one)
    # every scale pattern from the deck group transports for the identity
    for signs in itertools.product((1, -1), repeat=5):
        h = MonomialIso(range(6), [1, *signs], 2)
        assert transports_curve(h, p, one)


def test_transports_rejects_wrong_map():
    p = pi4_params()
    one = GaloisElement(16, 1)
    bad = MonomialIso(range(6), [1, 1, 1, 1, 2, 1], 2)
    assert not transports_curve(bad, p, one)
    # the coordinate-swap map transports for rho but not for the identity
    f = swap_iso()
    rho = GaloisElement(16, 3)
    assert transports_curve(f, p, rho)
    assert not transports_curve(f, p, one)


def test_lift_twists_once_and_tests_transport_on_the_line(monkeypatch):
    # the lift takes sigma(lambda), sigma(mu) and the twisted branch points
    # from one family._twist call and hands the first two to _transports,
    # which pushes the curve's line forward in 12 products and tests it on
    # the twisted line in 4; against every twisted equation it took 36
    p = pi4_params()
    twist, transports = descent._twist, descent._transports
    twists, calls = [], []
    monkeypatch.setattr(descent, "_twist",
                        lambda *a: twists.append(twist(*a)) or twists[-1])
    monkeypatch.setattr(descent, "_transports",
                        lambda *a: calls.append(a) or transports(*a))
    lift = lift_to_monomial(Moebius(0, -4, 1, 0), p, GaloisElement(16, 3), 16)
    assert lift.ok and len(twists) == 1 and len(calls) == 1
    assert all(x is y for x, y in zip(calls[0][2:4], twists[0][:2]))
    products = []
    mul = CycElt.__mul__
    monkeypatch.setattr(CycElt, "__mul__",
                        lambda u, v: products.append(v) or mul(u, v))
    assert transports(*calls[0])
    assert len(products) == 16


def test_lift_identity_contains_deck_translates():
    p = pi4_params()
    lift = lift_to_monomial(Moebius.identity(), p, GaloisElement(16, 1), 16)
    assert lift.ok
    assert len(lift.isos) == 32          # 2^6 sign patterns, projectively
    assert any(f.is_identity for f in lift.isos)
    assert all(f.perm == tuple(range(6)) for f in lift.isos)
    assert list(lift.powers) == [CycElt.one(16)] * 6


def test_lift_pi4_over_zeta16():
    p = pi4_params()
    rho = GaloisElement(16, 3)
    lift = lift_to_monomial(Moebius(0, -4, 1, 0), p, rho, 16)
    assert lift.ok and not lift.missing
    assert lift.perm == (1, 0, 3, 2, 4, 5)
    # solved scale powers: (1, lambda, 1, lambda, sigma(mu), -sigma(mu))
    smu = p.mu.galois_apply(rho)
    assert list(lift.powers) == [CycElt.one(16), p.lam.in_conductor(16),
                                 CycElt.one(16), p.lam.in_conductor(16),
                                 smu, -smu]
    assert len(lift.isos) == 32
    for s2, s4 in itertools.product((1, -1), repeat=2):
        assert swap_iso(s2, s4) in lift.isos
    for f in lift.isos:
        assert transports_curve(f, p, rho)


def test_lift_pi4_over_zeta8_reports_missing_radicals():
    p = pi4_params(8)
    rho = GaloisElement(8, 3)
    lift = lift_to_monomial(Moebius(0, -4, 1, 0), p, rho, 8)
    assert not lift.ok and lift.isos == ()
    coords = {miss.coordinate for miss in lift.missing}
    assert coords == {5, 6}
    for miss in lift.missing:
        assert miss.k == 2 and miss.conductor == 8
        assert "no 2-th root" in str(miss)
    # the blocked powers are sigma(mu) and -sigma(mu)
    smu = p.mu.galois_apply(rho)
    assert {m.value for m in lift.missing} == {smu, -smu}


def test_torsor_of_a_lift_with_missing_roots_names_the_cause():
    # the n = 8 lift has no maps, so there is no f0 to read verdicts from,
    # whatever datum comes with it
    lift = lift_to_monomial(Moebius(0, -4, 1, 0), pi4_params(8),
                            GaloisElement(8, 3), 8)
    datum = extend_cyclic(swap_iso(), 3, 4, pi4_params(), 16)
    with pytest.raises(ValueError, match="missing roots"):
        torsor_verdicts(lift, datum)


def test_lift_builds_its_maps_without_rechecking_them():
    # the k = 4 lift at n = 32 holds its 1024 maps' scales at one conductor
    # already, so none goes through common_field
    p = validate(-4, make_element("2*z^4", 32), 4)
    g = GaloisElement(32, 17)
    witness = classify_sigma(p, g).witness
    with mock.patch.object(descent, "common_field",
                           wraps=descent.common_field) as counted:
        lift = lift_to_monomial(witness, p, g, 32)
    assert len(lift.isos) == 1024 and counted.call_count == 0


def test_lift_builds_its_maps_without_comparing_c1_with_one():
    # each of the 1024 maps has c_1 = 1 by construction; the lift makes 96
    # comparisons in all, and made 1120 when every map compared its c_1
    # with 1
    p = validate(-4, make_element("2*z^4", 32), 4)
    g = GaloisElement(32, 17)
    witness = classify_sigma(p, g).witness
    compared = []
    eq = CycElt.__eq__
    with mock.patch.object(CycElt, "__eq__",
                           lambda u, v: compared.append(v) or eq(u, v)):
        lift = lift_to_monomial(witness, p, g, 32)
    assert len(lift.isos) == 1024 and len(compared) < 1024
    assert all(f.scales[0] == 1 for f in lift.isos)
    # a product and the checking constructor still divide by the first scale
    f = MonomialIso((1, 0, 2, 3, 4, 5), [1, 2, 3, 4, 5, 6], 4)
    ff = f.compose(f)
    assert ff.scales[0] == 1
    assert ff == MonomialIso(range(6), [2, 2, 9, 16, 25, 36], 4)
    assert MonomialIso(f.perm, [2 * c for c in f.scales], 4) == f


def test_lift_requires_matching_mobius():
    p = pi4_params()
    with pytest.raises(ValueError):
        lift_to_monomial(Moebius(1, 1, 0, 1), p, GaloisElement(16, 3), 16)
    with pytest.raises(ValueError):
        lift_to_monomial(Moebius(0, -4, 1, 0, conj_first=True), p,
                         GaloisElement(16, 3), 16)


def test_compose_twist():
    p = pi4_params()
    f = swap_iso()
    ident = MonomialIso.identity(2)
    assert compose_twist(ident, f, GaloisElement(16, 1)) == f
    # twisting by -1 conjugates every scale
    tw = f.twist(GaloisElement(16, -1))
    for c, d in zip(f.scales, tw.scales):
        assert d == c.conjugate()
    # iterated twists compose exponents
    s = GaloisElement(16, 3)
    t = GaloisElement(16, 5)
    assert f.twist(s).twist(t) == f.twist(GaloisElement(16, 15))


def test_extend_cyclic_trivial():
    p = pi4_params()
    datum = extend_cyclic(MonomialIso.identity(2), 1, 1, p, 16)
    assert datum.closes
    assert cocycle_check(datum).ok


def test_extend_cyclic_validates_order():
    p = pi4_params()
    with pytest.raises(ValueError):
        extend_cyclic(swap_iso(), 3, 2, p, 16)  # <3> has order 4 mod 16
    with pytest.raises(ValueError):
        extend_cyclic(MonomialIso.identity(2), 3, 4, p, 16)  # no transport
    check_order(3, 4, 16)
    check_order(5, 1, 1)
    for g, d in ((3, 2), (3, 8), (3, 10 ** 12), (2, 4), (3, 0), (1, -1)):
        with pytest.raises(ValueError, match="does not have order"):
            check_order(g, d, 16)


def test_all_four_sign_pairs_close():
    # every sign choice closes f_rho^4 = I: sign flips are rational scales,
    # and along the four-step recursion each enters an even number of times
    p = pi4_params()
    closing = []
    for s2, s4 in itertools.product((1, -1), repeat=2):
        datum = extend_cyclic(swap_iso(s2, s4), 3, 4, p, 16)
        chk = cocycle_check(datum)
        assert datum.closes == chk.ok
        closing.append(chk.ok)
    assert closing == [True, True, True, True]


def test_closure_set_equals_cocycle_pass_set_by_exhaustion():
    # among every candidate lift, the data that close are exactly the data
    # whose full pair table passes
    p = pi4_params()
    rho = GaloisElement(16, 3)
    lift = lift_to_monomial(Moebius(0, -4, 1, 0), p, rho, 16)
    outcomes = set()
    for f in lift.isos:
        datum = extend_cyclic(f, 3, 4, p, 16)
        chk = cocycle_check(datum)
        assert chk.ok == datum.closes
        outcomes.add(chk.ok)
    assert outcomes == {True}


def test_cocycle_check_flags_tampered_datum():
    p = pi4_params()
    datum = extend_cyclic(swap_iso(), 3, 4, p, 16)
    # swap one interior map for a wrong one that still transports: the
    # deck-translate differs from the recursion's value
    i16 = make_element("z^4", 16)
    wrong = datum.maps[9].compose(
        MonomialIso(range(6), [1, -1, 1, 1, 1, 1], 2))
    tampered = WeilDatum(conductor=16, generator=3, order=4, params=p,
                         maps={**datum.maps, 9: wrong},
                         closure=datum.closure)
    chk = cocycle_check(tampered)
    assert not chk.ok
    assert chk.failing is not None
    tau, sigma = chk.failing
    assert tau in tampered.maps and sigma in tampered.maps

    # break transport instead: scale whose square is not 1
    broken = WeilDatum(conductor=16, generator=3, order=4, params=p,
                       maps={**datum.maps,
                             9: MonomialIso(range(6), [1, i16, 1, 1, 1, 1], 2)},
                       closure=datum.closure)
    chk = cocycle_check(broken)
    assert not chk.ok and chk.failing is None
    assert "transport" in chk.reason


def test_order_one_datum_requires_identity():
    # for the trivial group the only closing datum carries the identity
    p = pi4_params()
    h = MonomialIso(range(6), [1, -1, 1, 1, 1, 1], 2)
    datum = extend_cyclic(h, 1, 1, p, 16)
    assert not datum.closes
    chk = cocycle_check(datum)
    assert not chk.ok and "closure" in chk.reason


def test_cocycle_check_rejects_maps_off_the_group():
    # the maps must be indexed by exactly <g>: a missing or extra exponent
    # is malformed data, not a failing pair
    p = pi4_params()
    datum = extend_cyclic(swap_iso(), 3, 4, p, 16)

    def with_maps(maps, order=4):
        return WeilDatum(conductor=16, generator=3, order=order, params=p,
                         maps=maps, closure=datum.closure)

    short = with_maps({e: datum.maps[e] for e in (1, 3)})
    with pytest.raises(ValueError, match=r"missing exponents \[9, 11\], "
                                         r"extra exponents \[\]"):
        cocycle_check(short)
    extra = with_maps({**datum.maps, 5: datum.maps[3], 7: datum.maps[3]})
    with pytest.raises(ValueError, match=r"missing exponents \[\], "
                                         r"extra exponents \[5, 7\]"):
        cocycle_check(extra)
    with pytest.raises(ValueError, match="does not have order"):
        cocycle_check(with_maps(datum.maps, order=2))


def test_lift_maps_carry_their_scale_powers():
    # each lift map's c_i^k is the written-down d_i at the lift's conductor,
    # each transports the curve, and the checking constructor builds the
    # same map from its scales
    p, g = pi4_params(), GaloisElement(16, 3)
    lift = lift_to_monomial(Moebius(0, -4, 1, 0), p, g, 16)
    assert len(lift.isos) == 2 ** 5
    for f in lift.isos:
        assert [c.in_conductor(16) ** f.k for c in f.scales] \
            == list(lift.powers)
        assert transports_curve(f, p, g)
        assert MonomialIso(f.perm, f.scales, f.k) == f


@pytest.mark.parametrize("g, d", [(3, 4), (9, 2), (1, 1)])
def test_order_d_candidate_costs_2d_minus_2_compositions(g, d):
    # extend_cyclic builds d - 1 maps by compose_twist and cocycle_check
    # checks the recursion and the closure with d - 1 more; each checks the
    # transport of f_g once
    p = pi4_params()
    f = extend_cyclic(swap_iso(), 3, 4, p, 16).maps[g]
    counted = {}
    for name in ("compose_twist", "transports_curve"):
        counted[name] = mock.patch.object(
            descent, name, wraps=getattr(descent, name)).start()
    try:
        assert cocycle_check(extend_cyclic(f, g, d, p, 16)).ok
    finally:
        mock.patch.stopall()
    assert counted["compose_twist"].call_count == 2 * (d - 1)
    assert counted["transports_curve"].call_count == 2


@contextlib.contextmanager
def transport_checked_once(lift, p, a, m):
    """Within the block, `transports_curve` checks each distinct map once
    for p, and the maps of the lift under sigma_a once in all.  Transport
    reads only a map's permutation and scale powers, and every map of a
    lift has the lift's (`test_lift_maps_carry_their_scale_powers`), so the
    candidates' data need no check of their own for their generator map,
    nor for the identity that an order-1 datum checks."""
    check, gen = descent.transports_curve, GaloisElement(m, a)
    ids, verdicts = {id(f) for f in lift.isos}, {}

    def once(f, params, t):
        if params is not p:
            return check(f, params, t)
        key = lift.perm if id(f) in ids and t == gen else (f, t)
        if key not in verdicts:
            verdicts[key] = check(f, params, t)
        return verdicts[key]

    with mock.patch.object(descent, "transports_curve", once):
        yield


def test_transport_checked_once_gives_every_candidates_verdict():
    # the pi/4 lift at n = 16 under sigma_3 of order 4: the per-candidate
    # data decide the same with one transport check for the lift
    p, a = pi4_params(), 3
    lift = lift_to_monomial(Moebius(0, -4, 1, 0), p, GaloisElement(16, a), 16)

    def verdicts():
        out = []
        for f in lift.isos:
            datum = extend_cyclic(f, a, 4, p, 16)
            out.append((datum.closes, cocycle_check(datum)))
        return out

    want = verdicts()
    with mock.patch.object(descent, "transports_curve",
                           wraps=descent.transports_curve) as counted:
        with transport_checked_once(lift, p, a, 16):
            assert verdicts() == want
    assert counted.call_count == 1
