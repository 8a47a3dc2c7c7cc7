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

Every matched row's map is checked to carry the six-point set onto its
twist, by cross-multiplication (`moebius._pairing`).  `classify_sigma`
double-checks the table against the brute-force enumeration of all
Moebius maps between the two six-point sets (`set_maps`, which refutes
the ordered triples that carry no map by reduction at a split prime and
tests the others exactly); disagreement is an internal error, never a
result.  The stabilizer
builds the table once and matches it on every exponent, runs
`classify_sigma` on sigma_1 alone, and enumerates one exponent of each
coset of the table's hits outside them, where no map may exist: the hits
are a subgroup of the true stabilizer, so each coset lies wholly inside
it or wholly outside, and a coset the table missed shows up as a
disagreement at its representative.  The stabilizer then yields the
field of moduli as an explicit fixed field, and the subgroup fixing
(lambda, mu) pointwise yields the minimal field of definition candidate
Q(lambda, mu).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .cyclotomic import CycElt, GaloisElement, Subfield, fixed_field, \
    fixing_subgroup, is_subgroup, units
from .moebius import Moebius, _pairing, set_maps
from .family import FamilyParams, _configuration, _twist

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
    (sigma_lambda, sigma_mu) and produce the table's Moebius map.  Each
    of lambda, mu, 1 +- mu and lambda +- mu is inverted once."""
    one = CycElt.one(lam.n)
    inv_lam, inv_mu = lam.inverse(), mu.inverse()
    p = (one - mu) * (one + mu).inverse()      # (1-mu)/(1+mu)
    inv_p = (one + mu) * (one - mu).inverse()
    q = (lam + mu) * (lam - mu).inverse()      # (lambda+mu)/(lambda-mu)
    inv_q = (lam - mu) * (lam + mu).inverse()
    pq = p * q
    inv_pq = inv_p * inv_q
    mu_lam = mu * inv_lam
    lam_mu = lam * inv_mu

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
        rows.append((2, sign, inv_lam, sign * mu_lam, t_scale))
        rows.append((3, sign, inv_lam, sign * inv_mu, t_inv))
        rows.append((4, sign, lam, sign * lam_mu, t_scale_inv))
    rows.append((5, None, pq, p, t_plus))
    rows.append((6, None, inv_pq, inv_q, t_plus))
    rows.append((7, None, pq, -p, t_plus_neg))
    rows.append((8, None, inv_pq, -inv_q, t_plus_neg))
    # rows 9 and 11 pair sigma(mu) = +-(1+mu)/(1-mu) with the witness of
    # matching sign; the set-transport check below pins the pairing
    rows.append((9, None, inv_pq, inv_p, t_minus))
    rows.append((10, None, pq, q, t_minus))
    rows.append((11, None, inv_pq, -inv_p, t_minus_neg))
    rows.append((12, None, pq, -q, t_minus_neg))
    return rows


def _table(table, source, slam, smu, target) -> list:
    """The (RowMatch, map) of every row of the `row_targets` table that
    (sigma(lambda), sigma(mu)) matches.  Each row's map is checked to carry
    the source's six points onto the target's, by cross-multiplication, so
    a match certifies sigma to be in the stabilizer."""
    rows = []
    for row, sign, want_l, want_m, builder in table:
        if slam == want_l and smu == want_m:
            t = builder(slam, smu)
            if _pairing(t, source, target) is None:
                raise OracleDisagreement(
                    f"row ({row}) matched but its map does not carry the "
                    f"six-point set")
            rows.append((RowMatch(row=row, sign=sign), t))
    return rows


def classify_sigma(p: FamilyParams, a) -> SigmaClassification:
    """Match sigma_a against the twelve shapes and verify against the
    brute-force map enumeration between the two six-point sets."""
    if isinstance(a, GaloisElement):
        g = a
    else:
        raise TypeError("a must be a GaloisElement (conductor + exponent)")
    n = g.conductor
    lam, mu = p.lam.in_conductor(n), p.mu.in_conductor(n)
    source = _configuration(lam, mu).points()
    slam, smu, target = _twist(lam, mu, g)

    rows = _table(row_targets(lam, mu), source, slam, smu, target)
    table_keys = {t.key() for _, t in rows}
    oracle = set_maps(source, target, anti=False)
    if {m.key() for m in oracle} != table_keys:
        raise OracleDisagreement(
            f"table witnesses {sorted(table_keys)} != enumeration "
            f"{sorted(m.key() for m in oracle)} for sigma_{g.exponent}")

    witness = oracle[0] if oracle else None
    return SigmaClassification(
        sigma=g,
        sigma_lambda=slam,
        sigma_mu=smu,
        matched_rows=tuple(match for match, _ in rows),
        witness=witness,
        brute_force_agree=True,
    )


def stabilizer(p: FamilyParams, n: int) -> frozenset:
    """Exponents a mod n whose automorphism preserves the configuration
    class, certified coset by coset.

    The table is built once and matched on every unit; its hits H_table
    lie in the true stabilizer H (each row's map is checked) and must form
    a subgroup.  Then `classify_sigma`, table against enumeration, runs on
    sigma_1 (which certifies that the set has no other symmetry), and
    each other coset of H_table has one exponent enumerated: it is no
    table hit, so the enumeration must find no map.  That decides H:
    since H_table <= H and H is a group, a in H gives a H_table <= H, and
    a not in H gives a H_table disjoint from H.  An exponent of H that the
    table missed lies in a coset outside H_table, all of it in H, so that
    coset's representative has a map, which is an `OracleDisagreement`."""
    lam, mu = p.lam.in_conductor(n), p.mu.in_conductor(n)
    source = _configuration(lam, mu).points()
    table = row_targets(lam, mu)
    twists = {a: _twist(lam, mu, GaloisElement(n, a)) for a in units(n)}
    hits = frozenset(a for a, twist in twists.items()
                     if _table(table, source, *twist))
    if not is_subgroup(hits, n):
        raise AssertionError(f"stabilizer {sorted(hits)} is not a subgroup")
    # table against enumeration on sigma_1; a map the table lacks raises
    classify_sigma(p, GaloisElement(n, 1))
    covered = set(hits)
    for a, (_, _, target) in twists.items():  # the least of each coset
        if a not in covered:
            oracle = set_maps(source, target, anti=False)
            if oracle:
                raise OracleDisagreement(
                    f"table witnesses [] != enumeration "
                    f"{sorted(m.key() for m in oracle)} for sigma_{a}")
            covered.update(a * h % n for h in hits)
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
    lam, mu = p.lam.in_conductor(n), p.mu.in_conductor(n)

    stab = stabilizer(p, n)
    moduli = fixed_field(stab, n)

    r4_rational = (lam * lam).is_rational()

    # no sigma sends mu to -mu
    no_negation = all(mu.galois_apply(a) != -mu for a in units(n))

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
