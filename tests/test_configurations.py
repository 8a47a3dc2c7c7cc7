import ast
from fractions import Fraction
from pathlib import Path

import pytest

from pseudoreal import moebius
from pseudoreal.cyclotomic import CycElt, make_element
from pseudoreal.moebius import INF, Moebius, SpherePoint
from pseudoreal.configurations import (
    OmegaError,
    concircular_quadruples,
    equivalent,
    make_config,
    symmetries,
    u_orbit,
)


def family_config(lam, mu):
    return make_config(lam, mu, -mu)


def test_make_config():
    mu = make_element("2*z", 3)
    cfg = make_config(-4, mu, -mu)
    assert len(cfg.point_set()) == 6
    with pytest.raises(OmegaError) as err:
        make_config(1, 2, 3)
    assert err.value.clause == "one"
    with pytest.raises(OmegaError) as err:
        make_config(2, 2, 3)
    assert err.value.clause == "repeated"
    with pytest.raises(OmegaError) as err:
        make_config(0, 2, 3)
    assert err.value.clause == "zero"


def test_u_orbit_generic():
    cfg = make_config(2, 3, 5)
    orbit = u_orbit(cfg)
    assert len(orbit) == 720
    keys = {tuple(v.key() for v in t) for t in orbit}
    l1, l2, l3 = cfg.triple()
    a_image = (l3 / (l3 - 1), l3 / (l3 - l1), l3 / (l3 - l2))
    b_image = (1 / l1, 1 / l2, 1 / l3)
    assert tuple(v.key() for v in a_image) in keys
    assert tuple(v.key() for v in b_image) in keys
    assert tuple(v.key() for v in cfg.triple()) in keys


def test_u_orbit_rejects_an_image_at_infinity(monkeypatch):
    monkeypatch.setattr("pseudoreal.configurations._normalized_triples",
                        lambda pts: iter([((), [INF, INF, INF])]))
    with pytest.raises(AssertionError):
        u_orbit(make_config(2, 3, 5))


def test_library_checks_survive_optimization():
    # python -O strips assert statements; the library raises AssertionError
    # itself
    src = Path(__file__).resolve().parent.parent / "src" / "pseudoreal"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_orbit_size_times_symmetries():
    half = CycElt.from_rational(Fraction(1, 2))
    mu3 = make_element("2*z", 3)
    cases = [
        make_config(2, 3, 5),
        make_config(-1, 2, half),
        family_config(CycElt.from_rational(-4, 3), mu3),
    ]
    for cfg in cases:
        orbit = u_orbit(cfg)
        sym = symmetries(cfg)
        assert len(orbit) * len(sym.conformal) == 720


def test_equivalent_reflexive_and_witnessed():
    cfg = make_config(2, 3, 5)
    w = equivalent(cfg, cfg)
    assert w is not None and w.is_identity

    # same six-point set under mu <-> -mu (swap of the last two labels)
    mu = make_element("2*z", 5)
    c1 = family_config(CycElt.from_rational(-4, 5), mu)
    c2 = family_config(CycElt.from_rational(-4, 5), -mu)
    assert c1.point_set() == c2.point_set()
    w = equivalent(c1, c2)
    assert w is not None and w.is_identity

    third = CycElt.from_rational(Fraction(1, 3))
    fifth = CycElt.from_rational(Fraction(1, 5))
    w = equivalent(make_config(2, 3, 5),
                   make_config(half := CycElt.from_rational(Fraction(1, 2)),
                               third, fifth))
    assert w == Moebius(0, 1, 1, 0)


def test_equivalent_symmetric_and_transitive():
    c1 = make_config(2, 3, 5)
    l1, l2, l3 = c1.triple()
    c2 = make_config(1 / l1, 1 / l2, 1 / l3)
    c3 = make_config(l3 / (l3 - 1), l3 / (l3 - l1), l3 / (l3 - l2))
    w12 = equivalent(c1, c2)
    w23 = equivalent(c2, c3)
    assert w12 is not None and w23 is not None
    # inverse witnesses go back
    back = w12.inverse()
    assert {back(p) for p in c2.points()} == set(c1.points())
    # composed witness lands on the third set
    comp = w23 @ w12
    assert {comp(p) for p in c1.points()} == set(c3.points())
    assert equivalent(c1, c3) is not None


def test_equivalent_negative():
    assert equivalent(make_config(2, 3, 5), make_config(2, 3, 7)) is None


def test_conjugate_config_matches_negated_angle():
    mu = make_element("2*z", 5)
    cfg = family_config(CycElt.from_rational(-4, 5), mu)
    conj_cfg = cfg.conjugate()
    neg = family_config(CycElt.from_rational(-4, 5), mu.conjugate())
    assert conj_cfg.point_set() == neg.point_set()


def test_symmetries_family_configuration():
    mu = make_element("2*z", 3)
    sym = symmetries(family_config(CycElt.from_rational(-4, 3), mu))
    assert sym.conformal_trivial
    assert list(sym.anticonformal) == [Moebius(0, -4, 1, 0, conj_first=True)]
    assert all(m.is_identity for m in sym.anticonformal_squares)


def test_symmetries_imaginary_angle_has_plain_conjugation():
    mu = make_element("2*z", 4)  # theta = pi/2: not a family parameter,
    sym = symmetries(make_config(-4, mu, -mu))  # but a fine configuration
    conj = Moebius(1, 0, 0, 1, conj_first=True)
    assert conj in sym.anticonformal
    assert len(sym.conformal) > 1  # extra conformal symmetries appear


def test_symmetries_test_only_their_maps_exactly(monkeypatch):
    # the split prime refutes every ordered triple that carries no map, so
    # only the two maps' triples are tested exactly, and neither call
    # normalizes the source as a whole
    unrefuted, survivors = moebius._unrefuted_triples, []

    def counting(*args):
        for triple in unrefuted(*args):
            survivors.append(triple)
            yield triple

    def refuse(pts):
        raise AssertionError("the source was normalized")

    monkeypatch.setattr(moebius, "_unrefuted_triples", counting)
    monkeypatch.setattr(moebius, "_normalized_triples", refuse)
    mu = make_element("2*z", 5)
    sym = symmetries(family_config(CycElt.from_rational(-4, 5), mu))
    assert list(sym.conformal) == [Moebius.identity()]
    assert list(sym.anticonformal) == [Moebius(0, -4, 1, 0, conj_first=True)]
    assert len(survivors) == 2


def test_symmetries_generic_trivial():
    sym = symmetries(make_config(2, 3, 5))
    assert sym.conformal_trivial
    assert sym.anticonformal == (Moebius(1, 0, 0, 1, conj_first=True),)


def test_concircular_quadruples_family():
    for n, mu_expr in ((3, "2*z"), (8, "2*z")):
        mu = make_element(mu_expr, n)
        cfg = family_config(CycElt.from_rational(-4, n), mu)
        quads = concircular_quadruples(cfg)
        assert len(quads) == 3
        got = {frozenset(q) for q in quads}
        want = {
            frozenset({INF, SpherePoint.of(0), SpherePoint.of(1),
                       SpherePoint.of(CycElt.from_rational(-4, n))}),
            frozenset({INF, SpherePoint.of(0), SpherePoint.of(mu),
                       SpherePoint.of(-mu)}),
            frozenset({SpherePoint.of(1),
                       SpherePoint.of(CycElt.from_rational(-4, n)),
                       SpherePoint.of(mu), SpherePoint.of(-mu)}),
        }
        assert got == want


def test_concircular_quadruples_all_real():
    quads = concircular_quadruples(make_config(2, 3, 5))
    assert len(quads) == 15
