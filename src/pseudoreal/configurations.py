"""Six-point configurations {inf, 0, 1, l1, l2, l3} on the sphere.

A configuration is an ordered triple (l1, l2, l3) with every l_j outside
{0, 1} and the three values pairwise distinct, so the six-point set has
cardinality six.  Two configurations are conformally equivalent iff some
Moebius map carries one six-point set onto the other; the orbit of a
triple under relabeling (generically of size 720, the order of the
symmetric group on six letters) is enumerated directly by sending each
ordered choice of three of the six points to (inf, 0, 1).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

from .cyclotomic import CycElt, common_field
from .moebius import INF, Moebius, SpherePoint, concircular, set_maps, \
    unify_points
from .moebius import _normalized_triples, _raw_key

__all__ = [
    "OmegaError",
    "Configuration",
    "SymmetryReport",
    "make_config",
    "u_orbit",
    "equivalent",
    "symmetries",
    "concircular_quadruples",
]


class OmegaError(ValueError):
    """A triple violates the parameter-region constraints."""

    def __init__(self, clause: str, message: str):
        super().__init__(message)
        self.clause = clause


@dataclass(frozen=True)
class Configuration:
    lambda1: CycElt
    lambda2: CycElt
    lambda3: CycElt

    def triple(self):
        return (self.lambda1, self.lambda2, self.lambda3)

    def points(self):
        """The six-point set (inf, 0, 1, l1, l2, l3) as SpherePoints."""
        return (INF, SpherePoint.of(0), SpherePoint.of(1),
                SpherePoint.of(self.lambda1), SpherePoint.of(self.lambda2),
                SpherePoint.of(self.lambda3))

    def point_set(self):
        return frozenset(self.points())

    def conjugate(self) -> "Configuration":
        return make_config(self.lambda1.conjugate(), self.lambda2.conjugate(),
                           self.lambda3.conjugate())

    def __str__(self):
        return f"({self.lambda1}, {self.lambda2}, {self.lambda3})"


def make_config(l1, l2, l3) -> Configuration:
    """Validate a triple against the parameter region and build it."""
    _, vals = common_field((l1, l2, l3))
    for i, v in enumerate(vals, start=1):
        if v.is_zero():
            raise OmegaError("zero", f"lambda{i} = 0")
        if v == 1:
            raise OmegaError("one", f"lambda{i} = 1")
    for i, j in itertools.combinations(range(3), 2):
        if vals[i] == vals[j]:
            raise OmegaError(
                "repeated", f"lambda{i + 1} = lambda{j + 1}")
    return Configuration(*vals)


def u_orbit(cfg: Configuration) -> list:
    """All triples equivalent to cfg's by relabeling: send each ordered
    choice of three of the six points to (inf, 0, 1), read the remaining
    three in each order; deduplicated and canonically sorted (720 triples
    when the configuration has no symmetries).  The triples draw on at most
    90 distinct values, which are ranked once by their coefficients.  A
    triple of ranks (a, b, c), each below the number K of values, is the
    int (a K + b) K + c, so the triples are deduplicated and sorted as
    ints, which order as the rank tuples and so as the coefficient tuples
    do, and decoded once into the ranked elements, which they share."""
    _, pts = unify_points(cfg.points())
    rows = [images for _, images in _normalized_triples(pts)]
    # the rows share their images, one point per distinct cross-ratio
    shared = {id(q): q for row in rows for q in row}
    if any(q.is_infinity for q in shared.values()):
        raise AssertionError("a relabeling sent a point to infinity")
    values = {}
    for q in shared.values():
        values.setdefault(_raw_key(q), q.value)
    # the values share one conductor: their int numerators scaled to one
    # common denominator order as their Fraction coefficients do
    common = math.lcm(*(v.den for v in values.values()))
    ranked = sorted(values, key=lambda key: [
        c * (common // values[key].den) for c in values[key].num])
    order = {key: i for i, key in enumerate(ranked)}
    rank = {i: order[_raw_key(q)] for i, q in shared.items()}
    K = len(ranked)
    codes = set()
    for row in rows:
        a, b, c = (rank[id(q)] for q in row)
        aK, bK, cK = a * K, b * K, c * K
        codes.update(((aK + b) * K + c, (aK + c) * K + b, (bK + a) * K + c,
                      (bK + c) * K + a, (cK + a) * K + b, (cK + b) * K + a))
    elements = [values[key] for key in ranked]
    out = []
    for code in sorted(codes):
        ab, c = divmod(code, K)
        a, b = divmod(ab, K)
        out.append((elements[a], elements[b], elements[c]))
    return out


def equivalent(c1: Configuration, c2: Configuration) -> Optional[Moebius]:
    """A Moebius witness carrying c1's six-point set onto c2's, if any."""
    maps = set_maps(c1.points(), c2.points(), anti=False)
    return maps[0] if maps else None


@dataclass(frozen=True)
class SymmetryReport:
    conformal: tuple
    anticonformal: tuple
    anticonformal_squares: tuple

    @property
    def conformal_trivial(self) -> bool:
        return len(self.conformal) == 1 and self.conformal[0].is_identity


def symmetries(cfg: Configuration) -> SymmetryReport:
    """All (anti-)Moebius maps preserving the six-point set; anticonformal
    maps come with their squares so involutions are visible."""
    pts = cfg.points()
    conf = tuple(set_maps(pts, pts, anti=False))
    anti = tuple(set_maps(pts, pts, anti=True))
    return SymmetryReport(conformal=conf, anticonformal=anti,
                          anticonformal_squares=tuple(m.square() for m in anti))


def concircular_quadruples(cfg: Configuration) -> list:
    """The four-point subsets of the six-point set lying on a generalized
    circle, each as a canonically sorted tuple of points."""
    pts = sorted(cfg.points(), key=SpherePoint.sort_key)
    return [quad for quad in itertools.combinations(pts, 4)
            if concircular(*quad)]
