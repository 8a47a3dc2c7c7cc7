"""The projective line over Q(zeta_n): points, (anti-)Moebius maps,
cross-ratios, generalized-circle membership, and exhaustive enumeration of
maps between six-point sets.

A transformation is stored as projective coefficients (a, b, c, d) for
z -> (a z + b)/(c z + d), normalized so the first nonzero coefficient is 1;
equality of transformations is equality of normalized coefficients.  An
anti-Moebius map conjugates its argument first: z -> (a conj(z) + b)/(c
conj(z) + d).  Composition is the usual right-to-left one: (F @ G)(z) =
F(G(z)).
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

from .cyclotomic import CycElt, _reduced, common_field

__all__ = [
    "SpherePoint",
    "INF",
    "Moebius",
    "cross_ratio",
    "g_orbit",
    "concircular",
    "moebius_from_triple",
    "set_maps",
]


class SpherePoint:
    """A point of the sphere: either infinity or a field element."""

    __slots__ = ("value",)

    def __init__(self, value: Optional[CycElt]):
        object.__setattr__(self, "value", value)

    def __setattr__(self, *a):
        raise AttributeError("SpherePoint is immutable")

    @classmethod
    def of(cls, x) -> "SpherePoint":
        if isinstance(x, SpherePoint):
            return x
        if isinstance(x, CycElt):
            return cls(x)
        return cls(CycElt.from_rational(x))

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def key(self):
        if self.value is None:
            return (0,)
        return (1, self.value.key())

    def conjugate(self) -> "SpherePoint":
        if self.value is None:
            return self
        return SpherePoint(self.value.conjugate())

    def __eq__(self, other):
        if not isinstance(other, SpherePoint):
            return NotImplemented
        if self.value is None or other.value is None:
            return self.value is None and other.value is None
        return self.value == other.value

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        return "inf" if self.value is None else str(self.value)

    def __repr__(self):
        return f"SpherePoint({str(self)!r})"


INF = SpherePoint(None)


def _as_points(items) -> list:
    return [SpherePoint.of(x) for x in items]


class Moebius:
    """Projective map z -> (a z + b)/(c z + d); anti-map if conj_first."""

    __slots__ = ("a", "b", "c", "d", "conj_first")

    def __init__(self, a, b, c, d, conj_first: bool = False):
        _, coeffs = common_field((a, b, c, d))
        det = coeffs[0] * coeffs[3] - coeffs[1] * coeffs[2]
        if det.is_zero():
            raise ValueError("degenerate transformation (ad - bc = 0)")
        lead_inv = next(x for x in coeffs if not x.is_zero()).inverse()
        coeffs = [x * lead_inv for x in coeffs]
        for name, x in zip(("a", "b", "c", "d"), coeffs):
            object.__setattr__(self, name, x)
        object.__setattr__(self, "conj_first", bool(conj_first))

    def __setattr__(self, *a):
        raise AttributeError("Moebius is immutable")

    @classmethod
    def identity(cls) -> "Moebius":
        return cls(1, 0, 0, 1)

    @property
    def is_identity(self) -> bool:
        return (not self.conj_first and self.a == 1 and self.b.is_zero()
                and self.c.is_zero() and self.d == 1)

    def coefficients(self):
        return (self.a, self.b, self.c, self.d)

    def apply(self, p) -> SpherePoint:
        p = SpherePoint.of(p)
        if self.conj_first:
            p = p.conjugate()
        return _apply_raw(self.coefficients(), p)

    __call__ = apply

    def compose(self, other: "Moebius") -> "Moebius":
        """(self @ other)(z) = self(other(z))."""
        oa, ob, oc, od = other.coefficients()
        if self.conj_first:
            oa, ob, oc, od = (x.conjugate() for x in (oa, ob, oc, od))
        return Moebius(
            self.a * oa + self.b * oc,
            self.a * ob + self.b * od,
            self.c * oa + self.d * oc,
            self.c * ob + self.d * od,
            conj_first=self.conj_first != other.conj_first,
        )

    __matmul__ = compose

    def inverse(self) -> "Moebius":
        a, b, c, d = self.d, -self.b, -self.c, self.a
        if self.conj_first:
            a, b, c, d = (x.conjugate() for x in (a, b, c, d))
        return Moebius(a, b, c, d, conj_first=self.conj_first)

    def square(self) -> "Moebius":
        return self.compose(self)

    def key(self):
        return (self.conj_first, self.a.key(), self.b.key(),
                self.c.key(), self.d.key())

    def __eq__(self, other):
        if not isinstance(other, Moebius):
            return NotImplemented
        return (self.conj_first == other.conj_first
                and self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        var = "conj(z)" if self.conj_first else "z"

        def side(u, v):
            if u.is_zero():
                return str(v)
            head = var if u == 1 else f"({u})*{var}"
            if v.is_zero():
                return head
            return f"{head} + ({v})"

        num = side(self.a, self.b)
        den = side(self.c, self.d)
        if self.c.is_zero() and self.d == 1:
            return f"z -> {num}"
        return f"z -> ({num})/({den})"

    def __repr__(self):
        return f"Moebius<{self}>"


def _require_distinct(pts):
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] == pts[j]:
                raise ValueError("points must be pairwise distinct")


def cross_ratio(a, b, c, d) -> CycElt:
    """[a,b,c,d] = T(d) for the unique Moebius T with T(a)=inf, T(b)=0,
    T(c)=1; computed as ((c-a)/(c-b))*((d-b)/(d-a)) with the usual limits
    when one point is infinity (drop both factors containing it)."""
    a, b, c, d = _as_points((a, b, c, d))
    _require_distinct([a, b, c, d])
    if a.is_infinity:
        return (d.value - b.value) / (c.value - b.value)
    if b.is_infinity:
        return (c.value - a.value) / (d.value - a.value)
    if c.is_infinity:
        return (d.value - b.value) / (d.value - a.value)
    if d.is_infinity:
        return (c.value - a.value) / (c.value - b.value)
    return ((c.value - a.value) * (d.value - b.value)) / (
        (c.value - b.value) * (d.value - a.value))


def _orbit_values(c) -> list:
    """The images of a cross-ratio value under the six maps generated by
    z -> 1/z and z -> z/(z-1), repeats included, all at c's conductor."""
    if not isinstance(c, CycElt):
        c = CycElt.from_rational(c)
    if c.is_zero() or c == 1:
        raise ValueError("orbit undefined for 0 and 1")
    one = CycElt.one(c.n)
    return [c, one / c, one - c, one / (one - c), (c - one) / c, c / (c - one)]


def g_orbit(c: CycElt) -> list:
    """Orbit of a cross-ratio value under the six maps generated by
    z -> 1/z and z -> z/(z-1); at most six values, canonically sorted."""
    out = []
    seen = set()
    for v in _orbit_values(c):
        k = v.key()
        if k not in seen:
            seen.add(k)
            out.append(v)
    out.sort(key=lambda v: v.key())
    return out


def concircular(a, b, c, d) -> bool:
    """True iff the four (distinct) points lie on a generalized circle,
    i.e. their cross-ratio is real."""
    value = cross_ratio(a, b, c, d)
    return value.conjugate() == value


def _std_raw(p, q, s):
    """Raw (non-normalized) matrix of the map p -> inf, q -> 0, s -> 1."""
    one = CycElt.one()
    zero = CycElt.zero()
    if p.is_infinity:
        return (one, -q.value, zero, s.value - q.value)
    if q.is_infinity:
        return (zero, s.value - p.value, one, -p.value)
    if s.is_infinity:
        return (one, -q.value, one, -p.value)
    return (s.value - p.value, -q.value * (s.value - p.value),
            s.value - q.value, -p.value * (s.value - q.value))


def _apply_raw(mat, p: SpherePoint) -> SpherePoint:
    a, b, c, d = mat
    if p.is_infinity:
        if c.is_zero():
            return INF
        return SpherePoint(a / c)
    den = c * p.value + d
    if den.is_zero():
        return INF
    return SpherePoint((a * p.value + b) / den)


def moebius_from_triple(src, dst) -> Moebius:
    """The unique Moebius map sending src[i] to dst[i] for i = 0, 1, 2."""
    src = _as_points(src)
    dst = _as_points(dst)
    if len(src) != 3 or len(dst) != 3:
        raise ValueError("need exactly three source and three target points")
    _require_distinct(src)
    _require_distinct(dst)
    sa, sb, sc, sd = _std_raw(*src)
    a, b, c, d = _std_raw(*dst)
    ia, ib, ic, id_ = d, -b, -c, a
    return Moebius(ia * sa + ib * sc, ia * sb + ib * sd,
                   ic * sa + id_ * sc, ic * sb + id_ * sd)


def unify_points(points):
    """Embed points into one common cyclotomic field; returns (m, list)."""
    pts = [SpherePoint.of(p) for p in points]
    m, values = common_field(p.value for p in pts if not p.is_infinity)
    values = iter(values)
    return m, [p if p.is_infinity else SpherePoint(next(values)) for p in pts]


def _normalized_triples(pts):
    """For each ordered triple (p, q, s) of the points (itertools.permutations
    order), the triple and the images of the other points, in their order,
    under the map sending the triple to (inf, 0, 1):

        x -> ((x - q)/(x - p)) * ((s - p)/(s - q)),

    each factor that holds infinity dropped.  The ratios (x - a)/(x - b)
    are tabulated first, so six points cost at most 15 inversions, not
    360."""
    k = len(pts)
    diff, inv = {}, {}
    for i, j in itertools.combinations(range(k), 2):
        if not (pts[i].is_infinity or pts[j].is_infinity):
            d = pts[i].value - pts[j].value
            diff[i, j], diff[j, i] = d, -d
            inv[i, j] = d.inverse()
            inv[j, i] = -inv[i, j]
    ratio = {}
    for x, a, b in itertools.permutations(range(k), 3):
        if pts[x].is_infinity:
            ratio[x, a, b] = CycElt.one()
        elif pts[a].is_infinity:
            ratio[x, a, b] = inv[x, b]
        elif pts[b].is_infinity:
            ratio[x, a, b] = diff[x, a]
        else:
            ratio[x, a, b] = diff[x, a] * inv[x, b]
    for idx in itertools.permutations(range(k), 3):
        p, q, s = idx
        yield tuple(pts[i] for i in idx), [
            SpherePoint(ratio[x, q, p] * ratio[s, p, q])
            for x in range(k) if x not in idx]


def _raw_key(p: SpherePoint):
    # sort/dedup key valid among points of one common conductor
    return (0,) if p.is_infinity else (1, p.value.num, p.value.den)


def _same_points(A, B) -> bool:
    """Whether A and B hold the same points, decided on exact coefficients
    in one common field (no minimal forms, unlike hashing)."""
    a, b = list(A), list(B)
    _, pts = unify_points(a + b)
    return ({_raw_key(p) for p in pts[:len(a)]}
            == {_raw_key(p) for p in pts[len(a):]})


@functools.lru_cache(maxsize=1)
def _triple_index(n: int, keys: tuple) -> dict:
    """The six points with raw keys `keys` at conductor n, indexed for
    set_maps: each ordered triple is filed under the sorted raw keys of
    the images of the other three points when the triple goes to
    (inf, 0, 1).  One entry, so the phi(n) calls of one stabilizer share
    the source's normalization."""
    pts = [INF if key == (0,) else SpherePoint(_reduced(n, list(key[1]),
                                                          key[2]))
           for key in keys]
    index = {}
    for triple, images in _normalized_triples(pts):
        spots = tuple(sorted(map(_raw_key, images)))
        index.setdefault(spots, []).append(triple)
    return index


def set_maps(S, T, anti: bool = False) -> list:
    """All Moebius (or anti-Moebius) maps sending the six-point set S onto
    the six-point set T; duplicate-free and canonically sorted.  An empty
    list means no such map exists.

    Every map sends some ordered triple of S to a fixed base triple of T,
    and it does so iff normalizing both triples to (inf, 0, 1) puts the
    remaining three points of each set at the same spots.  So the 120
    ordered triples of S are normalized once (and kept for the next call
    with the same source) and looked up by the spots of T's base triple;
    the witness matrix is only assembled for the triples found.
    """
    s_in, t_in = list(S), list(T)
    n, everything = unify_points(s_in + t_in)
    src = everything[:len(s_in)]
    if anti:
        src = [p.conjugate() for p in src]
    src = tuple(sorted({_raw_key(p) for p in src}))
    # the base triple is T's first three distinct points: (inf, 0, 1) for a
    # configuration, whose normalization costs least
    tgt = list({_raw_key(p): p for p in everything[len(s_in):]}.values())
    if len(src) != 6 or len(tgt) != 6:
        raise ValueError("both sets must contain exactly six points")
    base, mat = tgt[:3], _std_raw(*tgt[:3])
    spots = tuple(sorted(_raw_key(_apply_raw(mat, p)) for p in tgt[3:]))
    found = {}
    for triple in _triple_index(n, src).get(spots, ()):
        m = moebius_from_triple(triple, base)
        if anti:
            m = Moebius(*m.coefficients(), conj_first=True)
        found[(m.conj_first, *((x.num, x.den) for x in m.coefficients()))] = m
    return sorted(found.values(), key=lambda m: (
        m.conj_first, *(x.coeffs for x in m.coefficients())))
