"""The two-real-parameter family of curves branched over
{inf, 0, 1, -r^2, r e^(i theta), -r e^(i theta)}.

Parameters are carried exactly as the pair (lambda, mu) = (-r^2, r e^(i
theta)) of cyclotomic field elements together with an even exponent k >= 2.
The admissibility clauses are encoded without square roots:

  * mu * conj(mu) = -lambda            (|mu|^2 = r^2)
  * lambda real, sign(lambda + 1) = -1 (r > 1)
  * conj(mu) not in {mu, -mu}          (e^(i theta) not in {+-1, +-i})
  * lambda + 1 +- (mu + conj(mu)) != 0 (r avoids the critical radius: the
    excluded radii are the roots > 0 of r^2 +- 2 cos(theta) r - 1, and
    -(lambda + 1) = r^2 - 1, mu + conj(mu) = 2 r cos(theta))

For admissible parameters the configuration has a trivial conformal
symmetry group and a unique anticonformal symmetry z -> lambda/conj(z)
whose square is the identity on the sphere; the curve upstairs is
pseudo-real because any anticonformal involution would need a real scale
alpha with alpha^k = lambda < 0, impossible for even k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .cyclotomic import CycElt, common_field, real_sign
from .moebius import INF, Moebius, _orbit_values, cross_ratio
from .configurations import Configuration, make_config, symmetries

__all__ = [
    "ParameterError",
    "FamilyParams",
    "FamilyReport",
    "validate",
    "genus",
    "analyze",
    "family_cross_ratios",
]


class ParameterError(ValueError):
    """Parameter rejection; `clause` names the first violated condition."""

    def __init__(self, clause: str, message: str):
        super().__init__(message)
        self.clause = clause


@dataclass(frozen=True)
class FamilyParams:
    lam: CycElt
    mu: CycElt
    k: int

    @property
    def conductor(self) -> int:
        return math.lcm(self.lam.n, self.mu.n)

    def config(self) -> Configuration:
        return make_config(self.lam, self.mu, -self.mu)

    def r_squared(self) -> CycElt:
        return -self.lam

    def __str__(self):
        return f"(lambda={self.lam}, mu={self.mu}, k={self.k})"


def family_cross_ratios(lam: CycElt, mu: CycElt):
    """Cross-ratios of the three circular quadruples: [inf,0,1,lam],
    [inf,0,mu,-mu], [1,lam,mu,-mu]."""
    return (
        cross_ratio(INF, 0, 1, lam),
        cross_ratio(INF, 0, mu, -mu),
        cross_ratio(1, lam, mu, -mu),
    )


def validate(lam, mu, k: int) -> FamilyParams:
    """Check every admissibility clause; raise ParameterError naming the
    first violated one."""
    _, (lam, mu) = common_field((lam, mu))
    if mu.is_zero():
        raise ParameterError("mu_zero", "mu = 0")
    if mu * mu.conjugate() != -lam:
        raise ParameterError(
            "modulus", "mu * conj(mu) != -lambda (|mu|^2 must equal r^2)")
    # lambda is now real automatically; r > 1 means lambda + 1 < 0
    if real_sign(lam + 1) != -1:
        raise ParameterError("radius", "lambda + 1 >= 0 (needs r > 1)")
    conj_mu = mu.conjugate()
    if conj_mu == mu:
        raise ParameterError("angle_real", "mu is real (e^(i theta) = +-1)")
    if conj_mu == -mu:
        raise ParameterError(
            "angle_imaginary", "mu is purely imaginary (e^(i theta) = +-i)")
    trace = mu + conj_mu
    if (lam + 1 + trace).is_zero() or (lam + 1 - trace).is_zero():
        raise ParameterError(
            "critical_radius",
            "r equals the excluded radius for this angle "
            "(lambda + 1 = -+ (mu + conj(mu)))")
    if k < 2:
        raise ParameterError("k_small", f"k = {k} < 2")
    if k % 2 != 0:
        raise ParameterError("k_odd", f"k = {k} is odd")
    # defensive exactness check: the three circular cross-ratios must be
    # pairwise inequivalent under the six-map group; compared on exact
    # coefficients in one field, which needs no minimal forms
    _, cr = common_field(family_cross_ratios(lam, mu))
    orbits = [{(v.num, v.den) for v in _orbit_values(c)} for c in cr]
    for i in range(3):
        for j in range(i + 1, 3):
            if orbits[i] & orbits[j]:
                raise ParameterError(
                    "cross_ratio_collision",
                    f"cross-ratios {cr[i]} and {cr[j]} share an orbit")
    return FamilyParams(lam=lam, mu=mu, k=k)


def genus(k: int) -> int:
    """Genus of the curve with exponent k: 1 + (2k - 3) k^4."""
    if k < 2:
        raise ValueError("k must be at least 2")
    return 1 + (2 * k - 3) * k ** 4


@dataclass(frozen=True)
class FamilyReport:
    aut_trivial: bool
    anti_symmetries: tuple
    pseudo_real: bool
    alpha_constraints: Mapping[int, CycElt]
    genus: int
    obstruction: str


def analyze(p: FamilyParams) -> FamilyReport:
    """Symmetry verdict and pseudo-reality report for admissible parameters.

    The k-th powers of the six coordinate scales of any anticonformal
    automorphism are forced to (1, lambda, 1, lambda, mu, -mu); they are
    reported symbolically, never as extracted roots.
    """
    sym = symmetries(p.config())
    aut_trivial = sym.conformal_trivial
    expected_anti = Moebius(0, p.lam, 1, 0, conj_first=True)
    if not aut_trivial or list(sym.anticonformal) != [expected_anti]:
        raise AssertionError(
            "admissible parameters must have trivial conformal symmetries "
            "and the single anticonformal symmetry z -> lambda/conj(z)")
    if not all(m.is_identity for m in sym.anticonformal_squares):
        raise AssertionError("anticonformal witness must square to the identity")
    one = CycElt.one(p.lam.n)
    alphas = {1: one, 2: p.lam, 3: one, 4: p.lam, 5: p.mu, 6: -p.mu}
    # an anticonformal involution upstairs would need a real alpha_2 with
    # alpha_2^k = lambda; lambda < 0 rules that out for even k
    lam_negative = real_sign(p.lam) == -1
    pseudo_real = aut_trivial and lam_negative and p.k % 2 == 0
    obstruction = (
        f"an involution needs a real scale alpha with alpha^{p.k} = "
        f"{p.lam} < 0; impossible for even k")
    return FamilyReport(
        aut_trivial=aut_trivial,
        anti_symmetries=sym.anticonformal,
        pseudo_real=pseudo_real,
        alpha_constraints=alphas,
        genus=genus(p.k),
        obstruction=obstruction,
    )
