"""Monomial isomorphisms between curves of the family and Galois descent
cocycle verification.

A curve of the family with parameters (nu, eta) is cut out in P^5 by four
equations that are linear in the k-th powers y_j = x_j^k:

    y1 + y2 + y3 = 0,   nu y1 + y2 + y4 = 0,
    eta y1 + y2 + y5 = 0,   -eta y1 + y2 + y6 = 0.

Coordinate j vanishes exactly on the fiber over the j-th branch value in
the order (inf, 0, 1, nu, eta, -eta), so a Moebius map carrying branch
sets forces the coordinate permutation of any compatible monomial map
[x_1 : ... : x_6] -> [c_1 x_perm(1) : ... : c_6 x_perm(6)].  The curve's
image in y-space is a line, y_1 = W, y_2 = -Z and y_j = Z - z_j W over
(Z : W), so the values d_i = c_i^k, up to one global scale, are written
down from the witness: each is the ratio of a twisted form composed with
the map to the form it must become.  Curve transport is decided on that
line alone: the map must push it onto the twisted line.  The scales
themselves are whatever k-th roots of the d_i the ambient cyclotomic
field contains; missing roots are reported, never adjoined.

A family of such maps indexed by a cyclic Galois group is a Weil datum
when f_{tau sigma} = f_sigma^tau o f_tau for all pairs; `cocycle_check`
verifies this projectively together with curve transport for every map,
from the recursion f_{g^j} = f_{g^(j-1)}^g o f_g and its closure.

The lifts over one witness are delta o f0, with f0 the first and delta in
the deck group of diagonal maps whose scales are k-th roots of unity; the
curve's generalized Fermat group is unique (Gonzalez-Diez, Hidalgo and
Leyton, J. Algebra 321, 2009), so these are all the isomorphisms onto the
twist.  Along <g> the closure of delta o f0 is the twisted norm of delta
times the closure of f0, a linear map over Z/w on exponent vectors, so
`torsor_verdicts` reads every candidate's verdict from one closure of f0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .cyclotomic import CycElt, GaloisElement, LimitError, common_field, \
    kth_roots, units
from .cyclotomic import _cyclic, _monomial_form, _related_roots, \
    _unity_exponent
from .moebius import Moebius, _pairing
from .family import FamilyParams, _configuration, _twist

__all__ = [
    "MAX_LIFTS",
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
    "torsor_verdicts",
]

# The most maps of one lift that LiftResult.texts prints (clause lift_limit;
# the library never lists them), the count of the k = 8 lift at conductor 64
MAX_LIFTS = 8 ** 5


def _normalized(vals: list) -> list:
    """Six nonzero scales at one conductor, divided by the first."""
    if vals[0] != 1:
        inv = vals[0].inverse()
        vals = [v * inv for v in vals]
    return vals


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
        self._store(perm, _normalized(vals), int(k))

    def _store(self, perm: tuple, vals: list, k: int) -> None:
        # vals: six nonzero scales at one conductor with c_1 = 1
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "scales", tuple(vals))
        object.__setattr__(self, "k", k)

    @classmethod
    def _of(cls, perm: tuple, vals: list, k: int) -> "MonomialIso":
        """The map of a permutation and six nonzero scales at one
        conductor with c_1 = 1, which need no checks: the normalized product
        or twist of maps, or a lift's map built from its roots."""
        f = object.__new__(cls)
        f._store(perm, vals, k)
        return f

    def __setattr__(self, *a):
        raise AttributeError("MonomialIso is immutable")

    @classmethod
    def identity(cls, k: int) -> "MonomialIso":
        return cls._of(tuple(range(6)), [CycElt.one()] * 6, int(k))

    @property
    def is_identity(self) -> bool:
        return (self.perm == tuple(range(6))
                and all(c == 1 for c in self.scales))

    def twist(self, t: GaloisElement) -> "MonomialIso":
        """Apply a field automorphism to every scale."""
        return MonomialIso._of(
            self.perm,
            _normalized([c.in_conductor(t.conductor).galois_apply(t)
                         for c in self.scales]),
            self.k)

    def compose(self, other: "MonomialIso") -> "MonomialIso":
        """(self @ other)(x) = self(other(x))."""
        if self.k != other.k:
            raise ValueError("exponent mismatch")
        perm = tuple(other.perm[self.perm[i]] for i in range(6))
        scales = [self.scales[i] * other.scales[self.perm[i]]
                  for i in range(6)]
        return MonomialIso._of(perm, _normalized(scales), self.k)

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
        return _display(_slot(None if c == 1 else str(c), j)
                        for c, j in zip(self.scales, self.perm))

    def __repr__(self):
        return f"MonomialIso<{self}>"


def _slot(scale: Optional[str], source: int) -> str:
    """One output slot of a map's display: (c)*x_j, or x_j when c = 1
    (scale None)."""
    x = f"x{source + 1}"
    return x if scale is None else f"({scale})*{x}"


def _display(slots) -> str:
    return "[" + " : ".join(slots) + "]"


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


def _curve_kernel(nu: CycElt, eta: CycElt):
    """A basis of the nullspace of curve_rows(nu, eta).  The last four
    columns of the rows are the identity, so the rank is 4 and the two
    vectors below, which every row annihilates, span the nullspace."""
    nu, eta = nu._unify(eta)
    one = CycElt.one(nu.n)
    zero = CycElt.zero(nu.n)
    return ((one, zero, -one, -nu, -eta, eta),
            (zero, one, -one, -one, -one, -one))


def transports_curve(f: MonomialIso, p: FamilyParams, a: GaloisElement) -> bool:
    """True iff f carries the curve with parameters (lambda, mu) onto the
    sigma_a-twisted curve: the curve's line, pushed forward through
    y_j -> c_j^k y_perm(j), is the twisted curve's line."""
    m = a.conductor
    lam, mu = p.lam.in_conductor(m), p.mu.in_conductor(m)
    return _transports(lam, mu, lam.galois_apply(a), mu.galois_apply(a),
                       f.perm, [c.in_conductor(m) ** f.k for c in f.scales])


def _transports(lam: CycElt, mu: CycElt, slam: CycElt, smu: CycElt,
                perm: tuple, d) -> bool:
    """True iff the monomial map of permutation perm whose scales have the
    k-th powers d carries the curve of (lambda, mu) onto that of its twist
    (slam, smu), all at one conductor.  It pushes the curve's line forward
    to the span of the v = (d_i u_perm(i)), u in `_curve_kernel`; the
    twisted line's basis is the identity on coordinates 1 and 2, so v lies
    on it iff v_3 = -(v_1 + v_2), v_4 = -(slam v_1 + v_2), v_5 = -(smu v_1
    + v_2) and v_6 = smu v_1 - v_2: 12 products, and 4 to test them."""
    for u in _curve_kernel(lam, mu):
        v1, v2, v3, v4, v5, v6 = (di * u[j] for di, j in zip(d, perm))
        s = smu * v1
        if not ((v1 + v2 + v3).is_zero() and (slam * v1 + v2 + v4).is_zero()
                and (s + v2 + v5).is_zero() and (s - v2 - v6).is_zero()):
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
    """The lifts over one witness as root sets: with c_1 = 1, the `count`
    maps of `perm` taking one root of each set, in product order; `first`
    (f0) takes the first of each, and is None when roots are missing."""
    first: Optional[MonomialIso]
    missing: tuple
    perm: tuple
    powers: tuple         # the d_i = c_i^k, normalized d_1 = 1
    roots: tuple          # the k-th roots of d_2, ..., d_6, each sorted

    @property
    def ok(self) -> bool:
        return self.first is not None

    @property
    def count(self) -> int:
        return math.prod(len(r) for r in self.roots)

    def maps(self):
        """Every map of the lift, in canonical order."""
        for rest in itertools.product(*self.roots):
            yield MonomialIso._of(self.perm, [self.first.scales[0], *rest],
                                  self.first.k)

    def texts(self) -> list:
        """str(f) for every map, in order, each distinct scale printed once;
        more than MAX_LIFTS maps is the lift_limit rejection."""
        if self.count > MAX_LIFTS:
            raise LimitError("lift_limit", f"the lift has {self.count} "
                             f"monomial isomorphisms, more than the maximum "
                             f"{MAX_LIFTS}")
        shown = {}

        def slot(c, source):
            key = (c.num, c.den)
            if key not in shown:
                shown[key] = None if c == 1 else str(c)
            return _slot(shown[key], source)

        columns = [[slot(c, self.perm[i]) for c in r]
                   for i, r in enumerate(self.roots, 1)]
        first = _slot(None, self.perm[0])
        return [_display((first, *rest))
                for rest in itertools.product(*columns)]


def lift_to_monomial(T: Moebius, p: FamilyParams, a: GaloisElement,
                     m: int) -> LiftResult:
    """The monomial isomorphisms over Q(zeta_m), as root sets, covering the
    Moebius map T between the branch sets of (lambda, mu) and its twist.

    The coordinate permutation is forced by T's action on branch values;
    the k-th powers of the scales are written down from the witness T and
    certified by one curve-transport check; the scale vector itself exists
    only when the field contains the needed k-th roots.  When roots are
    missing the result has no first map and lists them.
    """
    if T.conj_first:
        raise ValueError("T must be a plain Moebius map")
    lam, mu = p.lam.in_conductor(m), p.mu.in_conductor(m)
    slam, smu, tgt_branch = _twist(lam, mu, GaloisElement(m, _restrict(a, m)))
    pairing = _pairing(T, _configuration(lam, mu).points(), tgt_branch)
    if pairing is None:
        raise ValueError("T does not carry the branch set onto its twist")
    # output slot i reads the source coordinate whose branch value T sends
    # to the i-th target branch value
    perm = tuple(pairing.index(i) for i in range(6))

    # the curve is the line y_1 = W, y_2 = -Z, y_j = Z - z_j W in (Z : W),
    # and T = (a b; c d) acts on (Z, W); y'_i o T vanishes where y_perm(i)
    # does, so d_i is the ratio of their coefficients, with d_1 = 1
    ta, tb, tc, td = (x.in_conductor(m) for x in T.coefficients())
    ratios = []
    for i, j in enumerate(perm):
        if i == 0:
            zc, wc = tc, td
        elif i == 1:
            zc, wc = -ta, -tb
        else:
            z = tgt_branch[i].value
            zc, wc = ta - z * tc, tb - z * td
        ratios.append(wc if j == 0 else -zc if j == 1 else zc)
    inv = ratios[0].inverse()
    d = [r * inv for r in ratios]
    # every lift has c_i^k = d_i, all that curve transport depends on
    if not _transports(lam, mu, slam, smu, perm, d):
        raise AssertionError("written-down scale powers fail curve transport")

    roots = []
    missing = []
    # c_1 = 1, so d_1 needs no search, and each root set of d_2..d_6 is a
    # coset of the k-th roots of unity.  The powers often repeat, or differ
    # from an earlier one by a rational times a root of unity, so their
    # roots follow from earlier ones; kth_roots decides such a value by
    # itself
    searched = []
    for i, di in enumerate(d[1:], start=2):
        r = next((u_roots for u, u_roots in searched if u == di), None)
        if r is None and _monomial_form(di) is None:
            for u, u_roots in searched:
                r = _related_roots(di, u, u_roots, p.k)
                if r is not None:
                    break
        if r is None:
            r = kth_roots(di, p.k, m)
            searched.append((di, r))
        if not r:
            missing.append(MissingRoot(coordinate=i, value=di,
                                       k=p.k, conductor=m))
        roots.append(r)
    first = None if missing else MonomialIso._of(
        perm, [CycElt.one(m), *(r[0] for r in roots)], p.k)
    return LiftResult(first=first, missing=tuple(missing), perm=perm,
                      powers=tuple(d), roots=tuple(roots))


def _restrict(a: GaloisElement, m: int) -> int:
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
    return WeilDatum(conductor=m, generator=g, order=d, params=p,
                     maps=maps, closure=current)   # current = f_{g^d}


@dataclass(frozen=True)
class CocycleResult:
    ok: bool
    failing: Optional[tuple]   # (tau exponent, sigma exponent)
    reason: Optional[str]

    def __bool__(self):
        return self.ok


def cocycle_check(datum: WeilDatum) -> CocycleResult:
    """Verify f_{tau sigma} = f_sigma^tau o f_tau projectively for every
    pair, plus curve transport for every map in the datum (ValueError
    unless the maps are indexed by exactly <g>, of order d).

    Weil's criterion for a cyclic group: if f_1 = id and f_{g^j} =
    f_{g^(j-1)}^g o f_g, then f_{g^(i+j)} = f_{g^j}^{g^i} o f_{g^i} for
    i + j < d, every map transports the curve when f_g does, and, g^d
    acting trivially, the pair (g^i, g^j) with i + j >= d holds iff the
    closure f_{g^(d-1)}^g o f_g is the identity.  Where the recursion
    breaks, every map's transport is checked and the first break is the
    failing pair."""
    m, d = datum.conductor, datum.order
    check_order(datum.generator, d, m)
    powers = [pow(datum.generator, j, m) for j in range(d)]
    exps = sorted(datum.maps)
    if exps != sorted(powers):
        missing = sorted(set(powers) - set(exps))
        extra = sorted(set(exps) - set(powers))
        raise ValueError(f"the maps are not indexed by <{datum.generator}> "
                         f"mod {m}: missing exponents {missing}, extra "
                         f"exponents {extra}")
    maps, g = datum.maps, datum.generator % m
    gen, f_g = GaloisElement(m, g), maps[g]
    # the first j with f_{g^j} != f_{g^(j-1)}^g o f_g; at j = 1 that is
    # f_1 != id
    if not maps[powers[0]].is_identity:
        broken = 1
    else:
        broken = next((j for j in range(2, d) if maps[powers[j]]
                       != compose_twist(maps[powers[j - 1]], f_g, gen)),
                      None)
    if broken is not None or not transports_curve(f_g, datum.params, gen):
        for e in exps:
            if not transports_curve(maps[e], datum.params,
                                    GaloisElement(m, e)):
                return CocycleResult(
                    ok=False, failing=None,
                    reason=f"map for exponent {e} does not transport the "
                           f"curve")
    if broken is not None:
        return _failing_pair(g, powers[broken - 1])
    if d > 1 and not compose_twist(maps[powers[-1]], f_g, gen).is_identity:
        return _failing_pair(*_closure_pair(g, d, m))
    if not datum.closure.is_identity:
        # reachable only for order-1 data, where no pair exposes the closure
        return CocycleResult(ok=False, failing=None,
                             reason="closure map is not the identity")
    return CocycleResult(ok=True, failing=None, reason=None)


def _failing_pair(tau: int, sigma: int) -> CocycleResult:
    return CocycleResult(
        ok=False, failing=(tau, sigma),
        reason=f"f_({tau}*{sigma}) != f_{sigma}^{tau} o f_{tau}")


def _closure_pair(g: int, d: int, m: int) -> tuple:
    """The first failing pair of the sorted table of an order-d datum on
    <g> (d > 1) that follows the recursion but does not close: the least
    tau other than 1, then the least sigma with idx tau + idx sigma >= d,
    over the reduced exponents of <g>."""
    powers = [pow(g, j, m) for j in range(d)]
    idx = {e: j for j, e in enumerate(powers)}
    exps = sorted(powers)
    tau = exps[1]
    return tau, next(s for s in exps if idx[tau] + idx[s] >= d)


def torsor_verdicts(lift: LiftResult, datum: WeilDatum) -> list:
    """(closes, cocycle_ok, failing_pair) of the datum that `extend_cyclic`
    builds from each map of lift.maps(), in order, read from `datum`, the
    one built from f0 = lift.first (a lift with missing roots has none).

    The roots of unity of Q(zeta_m) are the omega^j, j mod M = lcm(2, m)
    (`cyclotomic._unity_exponent`).  Candidate e, e_1 = 0, has the scales
    of f0 times omega^e_i.  Its closure f^(g^(d-1)) o ... o f^g o f is f0's
    closure times omega^E(e), with E(e)_i = sum over j < d of
    s^(d-1-j) e_(P_j[i]) plus beta_i: P_j walks f0's permutation j times,
    sigma_g(omega) = omega^s, and f0's closure has scales omega^beta_i.  So
    a candidate closes iff the closure's permutation is trivial, f0's
    closure has scales that are roots of unity and E(e) is constant mod M;
    its datum follows the recursion and f_g transports the curve, so it is
    a cocycle iff it closes, and fails first at the closure pair
    otherwise."""
    if lift.missing:
        raise ValueError("the lift has missing roots, so no maps")
    m, g, d = datum.conductor, datum.generator % datum.conductor, datum.order
    f0 = lift.first
    if (datum.closure if d == 1 else datum.maps[g]) != f0:
        raise ValueError("the datum is not extended from the lift's first map")
    big = math.lcm(2, m)
    zeta = CycElt.zeta(m)
    # sigma_g(omega) = omega^s
    s = _unity_exponent((-zeta if m % 2 else zeta).galois_apply(g))
    pair = _closure_pair(g, d, m) if d > 1 else None
    beta = [_unity_exponent(c) for c in datum.closure.scales]
    if datum.closure.perm != tuple(range(6)) or None in beta:
        return [(False, False, pair)] * lift.count
    # the exponent of each root against the first of its coset, in the
    # order that maps() takes the product of the root sets
    exponents = []
    for r in lift.roots:
        inv = r[0].inverse()
        exponents.append([_unity_exponent(c * inv) for c in r])
    # E(e) - E(e)_1 as rows over Z/M, one per slot 2..6, with a column
    # per coordinate 2..6 (e_1 = 0)
    norm = [[0] * 6 for _ in range(6)]
    walk = list(range(6))
    for j in range(d):
        weight = pow(s, d - 1 - j, big)
        for i in range(6):
            norm[i][walk[i]] += weight
        walk = [f0.perm[x] for x in walk]
    rows = [[(a - b) % big for a, b in zip(norm[i][1:], norm[0][1:])]
            for i in range(1, 6)]
    offsets = [(b - beta[0]) % big for b in beta[1:]]
    # each root's contribution to the five rows, summed per candidate
    columns = [[tuple(row[c] * t for row in rows) for t in exps]
               for c, exps in enumerate(exponents)]
    closing, failing = (True, True, None), (False, False, pair)
    return [closing if all(sum(r) % big == 0 for r in zip(*parts, offsets))
            else failing for parts in itertools.product(*columns)]
