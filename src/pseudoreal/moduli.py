"""Galois classification of family parameters and fields of moduli.

For admissible (lambda, mu) inside Q(zeta_n), an automorphism sigma_a of
the field preserves the configuration class iff the pair (sigma(lambda),
sigma(mu)) matches one of twelve closed-form shapes, each carrying an
explicit Moebius witness:

    ( 1) lambda        , +- mu          , z
    ( 2) 1/lambda      , +- mu/lambda   , sigma(lambda) z
    ( 3) 1/lambda      , +- 1/mu        , 1/z
    ( 4) lambda        , +- lambda/mu   , sigma(lambda)/z
    ( 5)-(12) the eight shapes built from (1 -+ mu)/(1 +- mu) and
          (lambda +- mu)/(lambda -+ mu), with witness
          +- sigma(mu) (z +- mu)/(z -+ mu)

Every classification is double-checked against the brute-force enumeration
of all Moebius maps between the two six-point sets; disagreement is an
internal error, never a result.  The subgroup of matching exponents then
yields the field of moduli as an explicit fixed field, and the subgroup
fixing (lambda, mu) pointwise yields the minimal field of definition
candidate Q(lambda, mu).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

from .cyclotomic import CycElt, GaloisElement, Subfield, _reduced, \
    fixed_field, fixing_subgroup, is_subgroup, min_poly, poly_eval, units
from .moebius import Moebius, _same_points, set_maps
from .configurations import make_config
from .family import FamilyParams

__all__ = [
    "OracleDisagreement",
    "RowMatch",
    "SigmaClassification",
    "ModuliResult",
    "row_targets",
    "classify_sigma",
    "stabilizer",
    "field_of_moduli",
]


class OracleDisagreement(AssertionError):
    """Table-based classification and brute-force enumeration differ."""


@dataclass(frozen=True)
class RowMatch:
    """A matched table row; rows 1-4 carry the resolved sign of sigma(mu)."""

    row: int
    sign: Optional[int]

    def __str__(self):
        if self.sign is None:
            return f"row ({self.row})"
        return f"row ({self.row}) with sign {'+' if self.sign > 0 else '-'}"


@dataclass(frozen=True)
class SigmaClassification:
    sigma: GaloisElement
    sigma_lambda: CycElt
    sigma_mu: CycElt
    matched_rows: tuple
    witness: Optional[Moebius]
    brute_force_agree: bool

    @property
    def in_stabilizer(self) -> bool:
        return bool(self.matched_rows)


def row_targets(lam: CycElt, mu: CycElt):
    """The twelve (row, sign, sigma_lambda, sigma_mu, witness-builder)
    shapes evaluated at (lambda, mu).  Builders take the actual
    (sigma_lambda, sigma_mu) and produce the table's Moebius map."""
    return list(_row_targets(lam.n, lam.num, lam.den, mu.n, mu.num, mu.den))


@functools.lru_cache(maxsize=1)
def _row_targets(n_lam, lam_num, lam_den, n_mu, mu_num, mu_den):
    # one entry, keyed on exact coefficients: the phi(n) calls of one
    # stabilizer share the table
    lam = _reduced(n_lam, list(lam_num), lam_den)
    mu = _reduced(n_mu, list(mu_num), mu_den)
    one = CycElt.one(lam.n)
    p = (one - mu) / (one + mu)        # (1-mu)/(1+mu)
    q = (lam + mu) / (lam - mu)        # (lambda+mu)/(lambda-mu)
    pq = p * q
    inv_pq = one / pq

    def t_id(sl, sm):
        return Moebius.identity()

    def t_scale(sl, sm):
        return Moebius(sl, 0, 0, 1)

    def t_inv(sl, sm):
        return Moebius(0, 1, 1, 0)

    def t_scale_inv(sl, sm):
        return Moebius(0, sl, 1, 0)

    def t_plus(sl, sm):
        return Moebius(sm, sm * mu, 1, -mu)

    def t_plus_neg(sl, sm):
        return Moebius(-sm, -sm * mu, 1, -mu)

    def t_minus(sl, sm):
        return Moebius(sm, -sm * mu, 1, mu)

    def t_minus_neg(sl, sm):
        return Moebius(-sm, sm * mu, 1, mu)

    rows = []
    for sign in (1, -1):
        rows.append((1, sign, lam, sign * mu, t_id))
        rows.append((2, sign, one / lam, sign * mu / lam, t_scale))
        rows.append((3, sign, one / lam, sign / mu, t_inv))
        rows.append((4, sign, lam, sign * lam / mu, t_scale_inv))
    rows.append((5, None, pq, p, t_plus))
    rows.append((6, None, inv_pq, one / q, t_plus))
    rows.append((7, None, pq, -p, t_plus_neg))
    rows.append((8, None, inv_pq, -one / q, t_plus_neg))
    # rows 9 and 11 pair sigma(mu) = +-(1+mu)/(1-mu) with the witness of
    # matching sign; the set-transport check below pins the pairing
    rows.append((9, None, inv_pq, one / p, t_minus))
    rows.append((10, None, pq, q, t_minus))
    rows.append((11, None, inv_pq, -one / p, t_minus_neg))
    rows.append((12, None, pq, -q, t_minus_neg))
    return tuple(rows)


def classify_sigma(p: FamilyParams, a) -> SigmaClassification:
    """Match sigma_a against the twelve shapes and verify against the
    brute-force map enumeration between the two six-point sets."""
    if isinstance(a, GaloisElement):
        g = a
    else:
        raise TypeError("a must be a GaloisElement (conductor + exponent)")
    n = g.conductor
    lam = p.lam.in_conductor(n)
    mu = p.mu.in_conductor(n)
    slam = lam.galois_apply(g)
    smu = mu.galois_apply(g)

    source = make_config(lam, mu, -mu).points()
    target = make_config(slam, smu, -smu).points()

    matches = []
    table_maps = {}
    for row, sign, want_l, want_m, builder in row_targets(lam, mu):
        if slam == want_l and smu == want_m:
            t = builder(slam, smu)
            if not _same_points(map(t.apply, source), target):
                raise OracleDisagreement(
                    f"row ({row}) matched but its map does not carry the "
                    f"six-point set")
            matches.append(RowMatch(row=row, sign=sign))
            table_maps[t.key()] = t

    oracle = set_maps(source, target, anti=False)
    if {m.key() for m in oracle} != set(table_maps):
        raise OracleDisagreement(
            f"table witnesses {sorted(table_maps)} != enumeration "
            f"{sorted(m.key() for m in oracle)} for sigma_{g.exponent}")

    witness = oracle[0] if oracle else None
    return SigmaClassification(
        sigma=g,
        sigma_lambda=slam,
        sigma_mu=smu,
        matched_rows=tuple(matches),
        witness=witness,
        brute_force_agree=True,
    )


def stabilizer(p: FamilyParams, n: int) -> frozenset:
    """Exponents a mod n whose automorphism preserves the configuration
    class; verified to be a subgroup of (Z/n)*."""
    hits = frozenset(
        a for a in units(n)
        if classify_sigma(p, GaloisElement(n, a)).in_stabilizer)
    if not is_subgroup(hits, n):
        raise AssertionError(f"stabilizer {sorted(hits)} is not a subgroup")
    return hits


@dataclass(frozen=True)
class ModuliResult:
    stabilizer: frozenset
    moduli_field: Subfield
    hypothesis_r4_rational: bool
    hypothesis_no_negation: bool
    min_def_field: Subfield
    degree_over_moduli: int


def field_of_moduli(p: FamilyParams, n: int) -> ModuliResult:
    """Field of moduli (fixed field of the stabilizer) and the minimal
    field of definition candidate Q(lambda, mu), with the two hypotheses
    of the quadratic-extension rule evaluated exactly."""
    lam = p.lam.in_conductor(n)
    mu = p.mu.in_conductor(n)

    stab = stabilizer(p, n)
    moduli = fixed_field(stab, n)

    r4_rational = (lam * lam).is_rational()

    # no sigma sends mu to -mu: decided twice and required to agree
    mp = min_poly(mu)
    by_minpoly = not poly_eval(mp, -mu).is_zero()
    by_enumeration = all(mu.galois_apply(a) != -mu for a in units(n))
    if by_minpoly != by_enumeration:
        raise AssertionError(
            "minimal-polynomial and enumeration tests disagree on "
            "sigma(mu) = -mu")
    no_negation = by_minpoly

    pointwise = fixing_subgroup(lam, n) & fixing_subgroup(mu, n)
    min_def = fixed_field(pointwise, n)

    if min_def.degree % moduli.degree != 0:
        raise AssertionError("field degrees are not nested")
    degree = min_def.degree // moduli.degree
    if r4_rational and no_negation and degree != 2:
        raise AssertionError(
            "both hypotheses hold but the definition field is not a "
            "quadratic extension of the moduli field")
    return ModuliResult(
        stabilizer=stab,
        moduli_field=moduli,
        hypothesis_r4_rational=r4_rational,
        hypothesis_no_negation=no_negation,
        min_def_field=min_def,
        degree_over_moduli=degree,
    )
