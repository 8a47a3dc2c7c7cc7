"""Monomial isomorphisms between curves of the family and Galois descent
cocycle verification.

A curve of the family with parameters (nu, eta) is cut out in P^5 by four
equations that are linear in the k-th powers y_j = x_j^k:

    y1 + y2 + y3 = 0,   nu y1 + y2 + y4 = 0,
    eta y1 + y2 + y5 = 0,   -eta y1 + y2 + y6 = 0.

Coordinate j vanishes exactly on the fiber over the j-th branch value in
the order (inf, 0, 1, nu, eta, -eta), so a Moebius map carrying branch
sets forces the coordinate permutation of any compatible monomial map
[x_1 : ... : x_6] -> [c_1 x_perm(1) : ... : c_6 x_perm(6)], and the values
d_i = c_i^k are pinned, up to one global scale, by requiring each twisted
equation to pull back into the span of the original four.  The scales
themselves are whatever k-th roots of the d_i the ambient cyclotomic
field contains; missing roots are reported, never adjoined.

A family of such maps indexed by a cyclic Galois group is a Weil datum
when f_{tau sigma} = f_sigma^tau o f_tau for all pairs; `cocycle_check`
verifies this projectively together with curve transport for every map.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .cyclotomic import CycElt, GaloisElement, common_field, kth_roots, units
from .cyclotomic import _cyclic, _echelon, _monomial_form, _reduced, \
    _related_roots
from .moebius import Moebius, _same_points
from .configurations import make_config
from .family import FamilyParams

__all__ = [
    "MonomialIso",
    "MissingRoot",
    "LiftResult",
    "WeilDatum",
    "CocycleResult",
    "curve_rows",
    "transports_curve",
    "lift_to_monomial",
    "compose_twist",
    "check_order",
    "extend_cyclic",
    "cocycle_check",
]


class MonomialIso:
    """[x_1 : ... : x_6] -> [c_1 x_perm(1) : ... : c_6 x_perm(6)].

    `perm` is 0-based (output slot i reads source coordinate perm[i]); the
    scale vector is normalized so c_1 = 1, which makes projective equality
    plain equality.
    """

    __slots__ = ("perm", "scales", "k")

    def __init__(self, perm: Sequence[int], scales: Sequence, k: int):
        perm = tuple(perm)
        if sorted(perm) != list(range(6)):
            raise ValueError("perm must be a permutation of 0..5")
        _, vals = common_field(scales)
        if len(vals) != 6:
            raise ValueError("need six scales")
        if any(v.is_zero() for v in vals):
            raise ValueError("scales must be nonzero")
        if vals[0] != 1:
            inv = vals[0].inverse()
            vals = [v * inv for v in vals]
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "scales", tuple(vals))
        object.__setattr__(self, "k", int(k))

    def __setattr__(self, *a):
        raise AttributeError("MonomialIso is immutable")

    @classmethod
    def identity(cls, k: int) -> "MonomialIso":
        return cls(range(6), [1] * 6, k)

    @property
    def is_identity(self) -> bool:
        return (self.perm == tuple(range(6))
                and all(c == 1 for c in self.scales))

    def twist(self, t: GaloisElement) -> "MonomialIso":
        """Apply a field automorphism to every scale."""
        return MonomialIso(
            self.perm,
            [c.in_conductor(t.conductor).galois_apply(t) for c in self.scales],
            self.k)

    def compose(self, other: "MonomialIso") -> "MonomialIso":
        """(self @ other)(x) = self(other(x))."""
        if self.k != other.k:
            raise ValueError("exponent mismatch")
        perm = tuple(other.perm[self.perm[i]] for i in range(6))
        scales = [self.scales[i] * other.scales[self.perm[i]]
                  for i in range(6)]
        return MonomialIso(perm, scales, self.k)

    __matmul__ = compose

    def key(self):
        return (self.perm, tuple(c.key() for c in self.scales), self.k)

    def __eq__(self, other):
        if not isinstance(other, MonomialIso):
            return NotImplemented
        return (self.perm == other.perm and self.k == other.k
                and self.scales == other.scales)

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        parts = []
        for i in range(6):
            c = self.scales[i]
            x = f"x{self.perm[i] + 1}"
            parts.append(x if c == 1 else f"({c})*{x}")
        return "[" + " : ".join(parts) + "]"

    def __repr__(self):
        return f"MonomialIso<{self}>"


def curve_rows(nu: CycElt, eta: CycElt):
    """Coefficient rows of the four defining equations in y = x^k space."""
    nu, eta = nu._unify(eta)
    one = CycElt.one(nu.n)
    zero = CycElt.zero(nu.n)
    return (
        (one, one, one, zero, zero, zero),
        (nu, one, zero, one, zero, zero),
        (eta, one, zero, zero, one, zero),
        (-eta, one, zero, zero, zero, one),
    )


def _annihilated(kernel, vec) -> bool:
    """True iff vec . u = 0 for every u in kernel.  The row space of a
    matrix is the annihilator of its kernel, so with kernel a basis of the
    nullspace of some rows this is membership in their span."""
    return all(sum((a * b for a, b in zip(vec, u) if not a.is_zero()),
                   CycElt.zero(vec[0].n)).is_zero() for u in kernel)


def _curve_kernel(nu: CycElt, eta: CycElt):
    """A basis of the nullspace of curve_rows(nu, eta).  The last four
    columns of the rows are the identity, so the rank is 4 and the two
    vectors below, which every row annihilates, span the nullspace."""
    nu, eta = nu._unify(eta)
    one = CycElt.one(nu.n)
    zero = CycElt.zero(nu.n)
    return ((one, zero, -one, -nu, -eta, eta),
            (zero, one, -one, -one, -one, -one))


def _nullspace(rows, ncols: int):
    ech, pivots = _echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    if not ech:
        field_zero = CycElt.zero()
        field_one = CycElt.one()
    else:
        n = ech[0][0].n
        field_zero = CycElt.zero(n)
        field_one = CycElt.one(n)
    basis = []
    for f in free:
        v = [field_zero] * ncols
        v[f] = field_one
        for row, col in zip(ech, pivots):
            v[col] = -row[f]
        basis.append(tuple(v))
    return basis


def transports_curve(f: MonomialIso, p: FamilyParams, a: GaloisElement) -> bool:
    """True iff f carries the curve with parameters (lambda, mu) onto the
    sigma_a-twisted curve: every twisted equation, pulled back through
    y_j -> c_j^k y_perm(j), stays inside the span of the original four."""
    m = a.conductor
    lam = p.lam.in_conductor(m)
    mu = p.mu.in_conductor(m)
    d = tuple((x.num, x.den)
              for x in (c.in_conductor(m) ** f.k for c in f.scales))
    return _transports(m, lam.num, lam.den, mu.num, mu.den, a.exponent,
                       f.perm, d)


@functools.lru_cache(maxsize=64)
def _transports(n, lam_num, lam_den, mu_num, mu_den, e, perm, d):
    # keyed on exact coefficients and on d = c^k, all that the answer
    # depends on: the candidates of one lift differ by k-th roots of unity,
    # so they share d, and so do the maps of their cocycles at each exponent
    lam = _reduced(n, list(lam_num), lam_den)
    mu = _reduced(n, list(mu_num), mu_den)
    kernel = _curve_kernel(lam, mu)
    d = [_reduced(n, list(num), den) for num, den in d]
    zero = CycElt.zero(n)
    for row in curve_rows(lam.galois_apply(e), mu.galois_apply(e)):
        pulled = [zero] * 6
        for i in range(6):
            pulled[perm[i]] = row[i] * d[i]
        if not _annihilated(kernel, pulled):
            return False
    return True


@dataclass(frozen=True)
class MissingRoot:
    coordinate: int       # 1-based output slot
    value: CycElt         # the k-th power that has no root in the field
    k: int
    conductor: int

    def __str__(self):
        return (f"coordinate x{self.coordinate}: no {self.k}-th root of "
                f"{self.value} in Q(zeta_{self.conductor})")


@dataclass(frozen=True)
class LiftResult:
    isos: tuple
    missing: tuple
    perm: tuple
    powers: tuple         # the solved d_i = c_i^k, normalized d_1 = 1

    @property
    def ok(self) -> bool:
        return bool(self.isos)


def lift_to_monomial(T: Moebius, p: FamilyParams, a: GaloisElement,
                     m: int) -> LiftResult:
    """All monomial isomorphisms over Q(zeta_m) covering the Moebius map T
    between the branch sets of (lambda, mu) and its sigma_a twist.

    The coordinate permutation is forced by T's action on branch values;
    the k-th powers of the scales are solved exactly; the scale vector
    itself exists only when the field contains the needed k-th roots.
    When roots are missing the result is empty and lists them.
    """
    if T.conj_first:
        raise ValueError("T must be a plain Moebius map")
    lam = p.lam.in_conductor(m)
    mu = p.mu.in_conductor(m)
    g = GaloisElement(m, _restrict(a, m))
    slam = lam.galois_apply(g)
    smu = mu.galois_apply(g)
    tgt_branch = make_config(slam, smu, -smu).points()
    images = [T.apply(b) for b in make_config(lam, mu, -mu).points()]
    if not _same_points(images, tgt_branch):
        raise ValueError("T does not carry the branch set onto its twist")
    # output slot i reads the source coordinate whose branch value T sends
    # to the i-th target branch value
    perm = tuple(images.index(tb) for tb in tgt_branch)

    tgt = curve_rows(slam, smu)
    kernel = _curve_kernel(lam, mu)
    # linear conditions on d: sum_i tgt[l][i] * u[perm[i]] * d_i = 0
    conditions = []
    for row in tgt:
        for u in kernel:
            conditions.append(tuple(row[i] * u[perm[i]] for i in range(6)))
    sols = _nullspace(conditions, 6)
    if len(sols) != 1:
        raise AssertionError(
            f"scale powers are not projectively unique (dim {len(sols)})")
    d = list(sols[0])
    if any(x.is_zero() for x in d):
        raise AssertionError("degenerate scale powers")
    d = [x / d[0] for x in d]

    roots = []
    missing = []
    # kth_roots decides a rational times a root of unity (d_1 = 1) by
    # itself; the other powers often repeat, or differ from an earlier one
    # by such a factor, so their roots follow from earlier ones
    searched = []
    for i, di in enumerate(d):
        r = None
        if _monomial_form(di) is None:
            for u, u_roots in searched:
                r = u_roots if u == di else \
                    _related_roots(di, u, u_roots, p.k)
                if r is not None:
                    break
        if r is None:
            r = kth_roots(di, p.k, m)
            searched.append((di, r))
        if not r:
            missing.append(MissingRoot(coordinate=i + 1, value=di,
                                       k=p.k, conductor=m))
        roots.append(r)
    if missing:
        return LiftResult(isos=(), missing=tuple(missing), perm=perm,
                          powers=tuple(d))

    isos = {}
    def build(i, chosen):
        if i == 6:
            iso = MonomialIso(perm, chosen, p.k)
            isos[iso.key()] = iso
            return
        for w in roots[i]:
            build(i + 1, chosen + [w])
    build(0, [])
    ordered = [isos[k] for k in sorted(isos)]
    for iso in ordered:
        if not transports_curve(iso, p, g):
            raise AssertionError("constructed map fails curve transport")
    return LiftResult(isos=tuple(ordered), missing=(), perm=perm,
                      powers=tuple(d))


def _restrict(a: GaloisElement, m: int) -> int:
    if a.conductor == m:
        return a.exponent
    if a.conductor % m == 0:
        return a.exponent % m
    if m % a.conductor == 0:
        # any preimage acts the same on Q(zeta_{a.conductor}); pick one
        for b in units(m):
            if b % a.conductor == a.exponent:
                return b
    raise ValueError(f"cannot restrict exponent {a.exponent} mod "
                     f"{a.conductor} to conductor {m}")


def compose_twist(g: MonomialIso, f: MonomialIso,
                  t: GaloisElement) -> MonomialIso:
    """g^t o f: twist every scale of g by sigma_t, then compose with f."""
    return g.twist(t).compose(f)


@dataclass(frozen=True)
class WeilDatum:
    conductor: int
    generator: int
    order: int
    params: FamilyParams
    maps: Mapping[int, MonomialIso]   # exponent of g^j mod conductor -> map
    closure: MonomialIso              # f_{g^order}

    @property
    def closes(self) -> bool:
        return self.closure.is_identity


def check_order(g: int, d: int, m: int) -> None:
    """Raise ValueError unless g is a unit of multiplicative order d mod m;
    the order is found by at most m multiplications, whatever d is."""
    if math.gcd(g, m) != 1 or len(_cyclic(g, m)) != d:
        raise ValueError(f"<{g}> does not have order {d} mod {m}")


def extend_cyclic(f_gen: MonomialIso, g: int, d: int,
                  p: FamilyParams, m: int) -> WeilDatum:
    """Extend a generator map along the cyclic group <g> of order d inside
    (Z/m)* by f_{g^j} = (f_{g^(j-1)})^g o f_{g}; the datum carries
    f_{g^d}, which is the identity exactly when the cocycle closes."""
    gen = GaloisElement(m, g)
    check_order(g, d, m)
    if not transports_curve(f_gen, p, gen):
        raise ValueError("generator map does not transport the curve")
    maps = {1 % m: MonomialIso.identity(p.k)}
    current = f_gen
    exponent = g % m
    for j in range(1, d):
        maps[exponent] = current
        current = compose_twist(current, f_gen, gen)
        exponent = (exponent * g) % m
    closure = current   # f_{g^d}
    return WeilDatum(conductor=m, generator=g, order=d, params=p,
                     maps=dict(maps), closure=closure)


@dataclass(frozen=True)
class CocycleResult:
    ok: bool
    failing: Optional[tuple]   # (tau exponent, sigma exponent)
    reason: Optional[str]

    def __bool__(self):
        return self.ok


def cocycle_check(datum: WeilDatum) -> CocycleResult:
    """Verify f_{tau sigma} = f_sigma^tau o f_tau projectively for every
    pair, plus curve transport for every map in the datum."""
    m = datum.conductor
    for e, f in sorted(datum.maps.items()):
        if not transports_curve(f, datum.params, GaloisElement(m, e)):
            return CocycleResult(
                ok=False, failing=None,
                reason=f"map for exponent {e} does not transport the curve")
    exps = sorted(datum.maps)
    for tau in exps:
        for sigma in exps:
            prod = (tau * sigma) % m
            lhs = datum.maps[prod]
            rhs = compose_twist(datum.maps[sigma], datum.maps[tau],
                                GaloisElement(m, tau))
            if lhs != rhs:
                return CocycleResult(
                    ok=False, failing=(tau, sigma),
                    reason=f"f_({tau}*{sigma}) != f_{sigma}^{tau} o f_{tau}")
    if not datum.closure.is_identity:
        # reachable only for order-1 data, where no pair exposes the closure
        return CocycleResult(ok=False, failing=None,
                             reason="closure map is not the identity")
    return CocycleResult(ok=True, failing=None, reason=None)
