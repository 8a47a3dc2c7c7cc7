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

These clauses also keep the orbits of the three circular cross-ratios
under the six maps generated by z -> 1/z and z -> z/(z - 1) disjoint.  With
s = r^2 > 1 and t = mu + conj(mu), t^2 <= 4s < (s + 1)^2, and the values
[inf, 0, 1, lambda], [inf, 0, mu, -mu] and [1, lambda, mu, -mu] are -s, -1
and c = (t - s - 1)/(t + s + 1).  The orbit of -1 is {-1, 2, 1/2}: -s < -1
is not in it, c = -1 iff t = 0 (purely imaginary mu), and c = 2 or 1/2
needs |t| = 3(s + 1).  In the orbit of -s, c = -s iff t = 1 - s and c = -1/s
iff t = s - 1 (the critical radius); c = 1 + s or 1/(1 + s) needs
|t| = (s + 1)(s + 2)/s, and c = (1 + s)/s or s/(1 + s) needs
|t| = (s + 1)(2s + 1), both above s + 1.

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
from .moebius import INF, Moebius, cross_ratio
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
        return _configuration(self.lam, self.mu)

    def r_squared(self) -> CycElt:
        return -self.lam

    def __str__(self):
        return f"(lambda={self.lam}, mu={self.mu}, k={self.k})"


def _configuration(lam, mu) -> Configuration:
    """The configuration of (lambda, mu), whose points are in branch order
    (inf, 0, 1, lambda, mu, -mu)."""
    return make_config(lam, mu, -mu)


def _twist(lam, mu, g):
    """(sigma(lambda), sigma(mu), the twisted six-point set in branch order
    (inf, 0, 1, sigma(lambda), sigma(mu), -sigma(mu)))."""
    slam = lam.galois_apply(g)
    smu = mu.galois_apply(g)
    return slam, smu, _configuration(slam, smu).points()


def _circular_quadruples(lam, mu) -> tuple:
    """The three circular quadruples [inf,0,1,lam], [inf,0,mu,-mu] and
    [1,lam,mu,-mu]."""
    return ((INF, 0, 1, lam), (INF, 0, mu, -mu), (1, lam, mu, -mu))


def family_cross_ratios(lam: CycElt, mu: CycElt):
    """Cross-ratios of the three circular quadruples: [inf,0,1,lam],
    [inf,0,mu,-mu], [1,lam,mu,-mu]."""
    return tuple(cross_ratio(*q) for q in _circular_quadruples(lam, mu))


def validate(lam, mu, k: int) -> FamilyParams:
    """Check every admissibility clause; raise ParameterError naming the
    first violated one.  Admissible parameters have circular cross-ratios
    in disjoint orbits (see the module docstring), so no clause tests
    them."""
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
