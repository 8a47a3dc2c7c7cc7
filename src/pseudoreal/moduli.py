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

The table is written once (`_SHAPES`), each target a quotient of
products of 1, lambda, mu, 1 +- mu and lambda +- mu; `row_targets` divides
it out, and the matcher `_table` never does.  A row is first refuted or
kept by the residues of lambda and mu at the conductor's split prime, and
a kept row is tested exactly by cross-multiplication, with no inversion.
Every matched row's map is checked to carry the six-point set onto its
twist, by cross-multiplication (`moebius._pairing`).  `classify_sigma`
double-checks the table against the brute-force enumeration of all
Moebius maps between the two six-point sets (`set_maps`, which refutes
the ordered triples that carry no map by reduction at a split prime and
tests the others exactly); disagreement is an internal error, never a
result.  The stabilizer runs `classify_sigma` on sigma_1 once, matches
the table on every other exponent in one pass, and enumerates one
exponent of each coset of the table's hits outside them, where no map may
exist: the hits are a subgroup of the true stabilizer, so each coset lies
wholly inside it or wholly outside, and a coset the table missed shows up
as a disagreement at its representative.  Each such enumeration, and
`classify_sigma`'s on an exponent the table matched no row of, runs first
on residues at the split prime (`_refuted`): a representative whose
residues leave no ordered triple has no map, and `set_maps` runs only
where a triple survives or a residue is undefined.  The stabilizer then
yields the field of moduli as an explicit fixed field, and the subgroup
fixing (lambda, mu) pointwise yields the minimal field of definition
candidate Q(lambda, mu).  Both fixing subgroups and the negation test
(does some sigma send mu to -mu) refute a unit by its residue at the
split prime and test the units left exactly
(`cyclotomic._galois_matches`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cyclotomic import CycElt, GaloisElement, Subfield, _galois_matches, \
    _residue, _split_prime, fixed_field, fixing_subgroup, is_subgroup, units
from .moebius import Moebius, _pairing, _residue_triples, set_maps
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


def _shown(maps) -> list:
    """The maps as the messages of `OracleDisagreement` show them, sorted:
    (conj_first, (n, coordinates)) with each coefficient at its least
    conductor and its coordinates as Fractions."""
    def coordinates(x):
        n, num, den = x.key()
        return n, tuple(Fraction(c, den) for c in num)
    return sorted((m.conj_first, *map(coordinates, m.coefficients()))
                  for m in maps)


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


def _quantities(lam, mu) -> tuple:
    """The quantities each target of `_SHAPES` is a quotient of: 1, lambda,
    mu, 1 - mu, 1 + mu, lambda + mu, lambda - mu, A = (1 - mu)(lambda + mu)
    and B = (1 + mu)(lambda - mu), of elements or of residues (left
    unreduced).  For admissible parameters none is zero: lambda is real
    and nonzero, and mu is not real."""
    one_minus, one_plus = 1 - mu, 1 + mu
    lam_plus, lam_minus = lam + mu, lam - mu
    return (1, lam, mu, one_minus, one_plus, lam_plus, lam_minus,
            one_minus * lam_plus, one_plus * lam_minus)


# indices into `_quantities`
_ONE, _LAM, _MU, _ONE_MINUS, _ONE_PLUS, _LAM_PLUS, _LAM_MINUS, _A, _B = \
    range(9)


def _moved(e, f):
    """The witness z -> e sigma(mu) (z + f mu)/(z - f mu) of rows 5-12."""
    return lambda sl, sm, mu: (e * sm, e * f * sm * mu, 1, -f * mu)


# the twelve shapes as (row, sign, sigma(lambda), sigma(mu), witness), rows
# 1-4 once for each sign of sigma(mu).  Each target (s, num, den) is the
# value s * num/den of two `_quantities`; with p = (1 - mu)/(1 + mu) and
# q = (lambda + mu)/(lambda - mu), pq = A/B.  A witness takes
# (sigma(lambda), sigma(mu), mu) to the coefficients (a, b, c, d) of the
# row's map z -> (a z + b)/(c z + d), up to scale.
_SHAPES = tuple(
    (row, sign, (1, *sl), (sign, *sm), witness)
    for sign in (1, -1)
    for row, sl, sm, witness in (
        (1, (_LAM, _ONE), (_MU, _ONE), lambda sl, sm, mu: (1, 0, 0, 1)),
        (2, (_ONE, _LAM), (_MU, _LAM), lambda sl, sm, mu: (sl, 0, 0, 1)),
        (3, (_ONE, _LAM), (_ONE, _MU), lambda sl, sm, mu: (0, 1, 1, 0)),
        (4, (_LAM, _ONE), (_LAM, _MU), lambda sl, sm, mu: (0, sl, 1, 0)))
) + (
    (5, None, (1, _A, _B), (1, _ONE_MINUS, _ONE_PLUS), _moved(1, 1)),
    (6, None, (1, _B, _A), (1, _LAM_MINUS, _LAM_PLUS), _moved(1, 1)),
    (7, None, (1, _A, _B), (-1, _ONE_MINUS, _ONE_PLUS), _moved(-1, 1)),
    (8, None, (1, _B, _A), (-1, _LAM_MINUS, _LAM_PLUS), _moved(-1, 1)),
    # rows 9 and 11 pair sigma(mu) = +-(1+mu)/(1-mu) with the witness of
    # matching sign; the set-transport check pins the pairing
    (9, None, (1, _B, _A), (1, _ONE_PLUS, _ONE_MINUS), _moved(1, -1)),
    (10, None, (1, _A, _B), (1, _LAM_PLUS, _LAM_MINUS), _moved(1, -1)),
    (11, None, (1, _B, _A), (-1, _ONE_PLUS, _ONE_MINUS), _moved(-1, -1)),
    (12, None, (1, _A, _B), (-1, _LAM_PLUS, _LAM_MINUS), _moved(-1, -1)),
)


def _gap(x, target, q):
    """x den - s num for the target (s, num, den) over the quantities q,
    which is zero iff x = s num/den, as den is nonzero."""
    s, num, den = target
    return x * q[den] - s * q[num]


def row_targets(lam: CycElt, mu: CycElt):
    """The twelve (row, sign, sigma_lambda, sigma_mu, witness-builder)
    shapes of `_SHAPES` evaluated at (lambda, mu).  Builders take the
    actual (sigma_lambda, sigma_mu) and produce the table's Moebius map.
    Each target is divided out; the matcher `_table` cross-multiplies
    instead."""
    q = _quantities(lam, mu)

    def value(s, num, den):
        return s * q[num] / q[den]

    def builder(witness):
        return lambda sl, sm: Moebius(*witness(sl, sm, mu))

    return [(row, sign, value(*sl), value(*sm), builder(witness))
            for row, sign, sl, sm, witness in _SHAPES]


def _table(lam, mu, source, exponents) -> list:
    """For each exponent a in turn, (a, matches, twist): the (RowMatch,
    coefficients) of every row of `_SHAPES` that (sigma_a(lambda),
    sigma_a(mu)) matches, in table order, and sigma_a's `_twist`, None
    where the residues refute every row.  lambda and mu share one
    conductor n; the coefficients are the row's map up to scale.

    A row matches iff sigma(lambda) den = s num for its target s num/den,
    and likewise for sigma(mu) (`_gap`).  Each row is first tested mod the
    split prime p of n (`cyclotomic._split_prime`): zeta_n -> r mod p is a
    ring homomorphism on the elements whose denominator p does not divide,
    and it sends sigma_a(x) to x evaluated at r^a, so a row whose identity
    fails mod p does not match.  The exact test runs on the rows the
    residues leave: the matches, rows whose identity holds mod p by
    coincidence (den and num both 0 mod p among them), and every row when
    p divides the denominator of lambda or mu, which then have no
    residues.  Each exact match's map is checked to carry the source's six
    points onto the twisted ones (`moebius._pairing`), so a match
    certifies sigma_a to be in the stabilizer.  Nothing is inverted."""
    n = lam.n
    p, r = _split_prime(n)
    base = (_residue(lam, r, p), _residue(mu, r, p))
    residues = None if None in base else _quantities(*base)
    exact = None
    out = []
    for a in exponents:
        shapes = _SHAPES
        if residues is not None:
            ra = pow(r, a, p)
            sl, sm = _residue(lam, ra, p), _residue(mu, ra, p)
            shapes = [shape for shape in shapes
                      if _gap(sl, shape[2], residues) % p == 0
                      and _gap(sm, shape[3], residues) % p == 0]
        if not shapes:
            out.append((a, [], None))
            continue
        twist = _twist(lam, mu, GaloisElement(n, a))
        slam, smu, target = twist
        if exact is None:
            exact = _quantities(lam, mu)
        rows = []
        for row, sign, want_l, want_m, witness in shapes:
            if _gap(slam, want_l, exact).is_zero() \
                    and _gap(smu, want_m, exact).is_zero():
                t = witness(slam, smu, mu)
                if _pairing(t, source, target) is None:
                    raise OracleDisagreement(
                        f"row ({row}) matched but its map does not carry "
                        f"the six-point set")
                rows.append((RowMatch(row=row, sign=sign), t))
        out.append((a, rows, twist))
    return out


def _refuted(lam, mu, a: int) -> bool:
    """Whether reduction at the split prime p of the conductor n of lambda
    and mu certifies that no Moebius map carries the configuration of
    (lambda, mu) onto its sigma_a twist; the twist is not built.

    zeta_n -> r mod p (`cyclotomic._split_prime`) is a ring homomorphism on
    the elements whose denominator p does not divide, and it sends
    sigma_a(x) to x evaluated at r^a.  So the source points (inf, 0, 1,
    lambda, mu, -mu) reduce to p (infinity), 0, 1 and lambda, mu and -mu
    at r, and the twisted points off (inf, 0, 1) to lambda, mu and -mu at
    r^a.  A map would leave its triple among `moebius._residue_triples`
    of these residues, as in `set_maps`, so an empty filter refutes it.
    False, leaving the exact enumeration to decide, when p divides the
    denominator of lambda or mu."""
    p, r = _split_prime(lam.n)
    ra = pow(r, a, p)
    res = (_residue(lam, r, p), _residue(mu, r, p),
           _residue(lam, ra, p), _residue(mu, ra, p))
    if None in res:
        return False
    l, m, la, ma = res
    return next(_residue_triples(p, [p, 0, 1, l, m, -m % p],
                                 [la, ma, -ma % p]), None) is None


def classify_sigma(p: FamilyParams, a) -> SigmaClassification:
    """Match sigma_a against the twelve shapes (`_table`) and verify
    against the brute-force map enumeration between the two six-point
    sets.  Where the table matches no row, the enumeration is first run on
    residues at the split prime (`_refuted`): an empty residue filter
    certifies that no map exists, and `set_maps` runs only where a triple
    survives or a residue is undefined, the only places it can find a
    map."""
    if isinstance(a, GaloisElement):
        g = a
    else:
        raise TypeError("a must be a GaloisElement (conductor + exponent)")
    n = g.conductor
    lam, mu = p.lam.in_conductor(n), p.mu.in_conductor(n)
    source = _configuration(lam, mu).points()
    [(_, rows, twist)] = _table(lam, mu, source, [g.exponent])
    slam, smu, target = twist or _twist(lam, mu, g)

    table = [Moebius(*t) for _, t in rows]
    oracle = [] if not rows and _refuted(lam, mu, g.exponent) \
        else set_maps(source, target, anti=False)
    if set(oracle) != set(table):
        raise OracleDisagreement(
            f"table witnesses {_shown(table)} != enumeration "
            f"{_shown(oracle)} for sigma_{g.exponent}")

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

    `classify_sigma`, table against enumeration, runs on sigma_1 first,
    which certifies that the set has no other symmetry and puts 1 among
    the hits.  The table then matches every other unit in one pass
    (`_table`): residues at the conductor's split prime refute almost
    every row, the rows they leave are tested exactly by
    cross-multiplication, and the twisted set is built only for a unit
    with such a row.  The hits H_table lie in the true stabilizer H (each
    row's map is checked) and must form a subgroup.  Each other coset of
    H_table has one exponent enumerated: it is no table hit, so the
    enumeration must find no map.  Its residues at the split prime are
    enumerated first (`_refuted`), which certifies that no map exists for
    almost every representative; `set_maps` runs, with its twisted set,
    only where a triple survives or a residue is undefined, which is
    wherever a map exists.  That decides H: since H_table <= H and
    H is a group, a in H gives a H_table <= H, and a not in H gives
    a H_table disjoint from H.  An exponent of H that the table missed
    lies in a coset outside H_table, all of it in H, so that coset's
    representative has a map, which is an `OracleDisagreement`."""
    lam, mu = p.lam.in_conductor(n), p.mu.in_conductor(n)
    source = _configuration(lam, mu).points()
    # table against enumeration on sigma_1; a map the table lacks raises
    hits = {1} if classify_sigma(p, GaloisElement(n, 1)).in_stabilizer \
        else set()
    twists = {}
    for a, rows, twist in _table(lam, mu, source,
                                 [a for a in units(n) if a != 1]):
        twists[a] = twist
        if rows:
            hits.add(a)
    hits = frozenset(hits)
    if not is_subgroup(hits, n):
        raise AssertionError(f"stabilizer {sorted(hits)} is not a subgroup")
    covered = set(hits)
    for a in units(n):  # the least of each coset
        if a not in covered:
            if not _refuted(lam, mu, a):
                _, _, target = twists[a] or \
                    _twist(lam, mu, GaloisElement(n, a))
                oracle = set_maps(source, target, anti=False)
                if oracle:
                    raise OracleDisagreement(
                        f"table witnesses [] != enumeration "
                        f"{_shown(oracle)} for sigma_{a}")
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

    # no sigma sends mu to -mu; residues refute almost every unit
    no_negation = not _galois_matches(mu, -mu)

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
