"""The projective line over Q(zeta_n): points, (anti-)Moebius maps,
cross-ratios, generalized-circle membership, and exhaustive enumeration of
maps between six-point sets.  The enumeration reduces the source's ordered
triples at a split prime, which refutes almost all of them, and tests the
rest exactly, with no division per triple; it keeps nothing from one call
to the next.  Whether a given map carries one point set onto another
(`_pairing`), and whether a value lies in the orbit of a cross-ratio
(`_in_orbit`, on cross-ratios kept as (numerator, denominator) pairs by
`_cross_ratio_pair`), are decided by cross-multiplication, with no
inversion; each product embeds its own operands, except a rational one,
which scales the other with no embedding.

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
import operator
from typing import Optional

from .cyclotomic import CycElt, _ordered, _residue, _split_prime, \
    common_field

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

    def sort_key(self):
        """Infinity first, then the values in the canonical order."""
        if self.value is None:
            return (0,)
        return (1, self.value.sort_key())

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


def _cross_ratio_pair(a, b, c, d) -> tuple:
    """(N, D) with [a, b, c, d] = N / D and D != 0: N = (c - a)(d - b) and
    D = (c - b)(d - a), each factor that holds infinity dropped."""
    a, b, c, d = _as_points((a, b, c, d))
    _require_distinct([a, b, c, d])
    if a.is_infinity:
        return d.value - b.value, c.value - b.value
    if b.is_infinity:
        return c.value - a.value, d.value - a.value
    if c.is_infinity:
        return d.value - b.value, d.value - a.value
    if d.is_infinity:
        return c.value - a.value, c.value - b.value
    return ((c.value - a.value) * (d.value - b.value),
            (c.value - b.value) * (d.value - a.value))


def cross_ratio(a, b, c, d) -> CycElt:
    """[a,b,c,d] = T(d) for the unique Moebius T with T(a)=inf, T(b)=0,
    T(c)=1; computed as ((c-a)/(c-b))*((d-b)/(d-a)) with the usual limits
    when one point is infinity (drop both factors containing it)."""
    num, den = _cross_ratio_pair(a, b, c, d)
    return num / den


def _orbit_values(c) -> list:
    """The images of a cross-ratio value under the six maps generated by
    z -> 1/z and z -> z/(z-1), repeats included, all at c's conductor."""
    if not isinstance(c, CycElt):
        c = CycElt.from_rational(c)
    if c.is_zero() or c == 1:
        raise ValueError("orbit undefined for 0 and 1")
    one = CycElt.one(c.n)
    return [c, one / c, one - c, one / (one - c), (c - one) / c, c / (c - one)]


def _orbit_sides(v: tuple, c: tuple) -> tuple:
    """The six pairs (x, y) of products, x = y for one of them iff the
    value of the pair v = (a, b), a/b, is one of the `_orbit_values` of
    c = e/f for the pair c = (e, f) (neither 0 nor 1), with six products
    and no inversion: a/b is c, 1/c, 1 - c = (f - e)/f, 1/(1 - c),
    (c - 1)/c or c/(c - 1) iff af = eb, ae = bf, af = (f - e)b,
    a(f - e) = bf, ae = -(f - e)b or -a(f - e) = eb.  Both denominators
    are nonzero.  The entries may be field elements or their residues."""
    a, b = v
    e, f = c
    g = f - e
    af, eb, ae, bf, gb, ag = a * f, e * b, a * e, b * f, g * b, a * g
    return (af, eb), (ae, bf), (af, gb), (ag, bf), (ae, -gb), (-ag, eb)


def _in_orbit(v: tuple, c: tuple) -> bool:
    """Whether a/b for the pair v = (a, b) lies in the orbit of e/f for the
    pair c = (e, f), decided exactly by cross-multiplication
    (`_orbit_sides`)."""
    return any(x == y for x, y in _orbit_sides(v, c))


def g_orbit(c: CycElt) -> list:
    """Orbit of a cross-ratio value under the six maps generated by
    z -> 1/z and z -> z/(z-1); at most six values, canonically sorted.
    Each value's key is found once: it drops the repeats, and it orders
    the values."""
    by_key = {}
    for v in _orbit_values(c):
        by_key.setdefault(v.key(), v)
    return [by_key[k] for k in sorted(by_key, key=_ordered)]


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
    return Moebius(*_carry_raw(_std_raw(*src), _std_raw(*dst)))


def _carry_raw(src_mat, dst_mat) -> tuple:
    """Coefficients, up to scale, of the map sending the triple behind the
    raw matrix src_mat to the one behind dst_mat: the adjugate of dst_mat,
    which inverts it up to scale, times src_mat (eight products)."""
    sa, sb, sc, sd = src_mat
    a, b, c, d = dst_mat
    return (d * sa - b * sc, d * sb - b * sd,
            a * sc - c * sa, a * sd - c * sb)


def unify_points(points):
    """Embed points into one common cyclotomic field; returns (m, list)."""
    pts = [SpherePoint.of(p) for p in points]
    m, values = common_field(p.value for p in pts if not p.is_infinity)
    values = iter(values)
    return m, [p if p.is_infinity else SpherePoint(next(values)) for p in pts]


def _normalized_triples(pts):
    """For each ordered triple (p, q, s) of the points (itertools.permutations
    order), the triple and the images of the other points, in their order,
    under the map sending the triple to (inf, 0, 1).  The image of x is the
    cross-ratio

        [p, q, s, x] = ((x - q)/(x - p)) * ((s - p)/(s - q)),

    each factor that holds infinity dropped.  The double transpositions of
    (p, q, s, x) fix it, and swapping q and s takes it to 1 - [p, q, s, x],
    so six points have 90 distinct cross-ratios, which the rows share as
    points.  Each pair (v, 1 - v) costs one subtraction and at most three
    products of tabulated differences and inverses, so six points cost at
    most 15 inversions and 135 products (75 with infinity among them).  The
    points share one conductor, as unify_points leaves them."""
    k = len(pts)
    diff, inv = {}, {}
    for i, j in itertools.combinations(range(k), 2):
        if not (pts[i].is_infinity or pts[j].is_infinity):
            d = pts[i].value - pts[j].value
            diff[i, j], diff[j, i] = d, -d
            inv[i, j] = d.inverse()
            inv[j, i] = -inv[i, j]
    one = CycElt.one(max((p.value.n for p in pts if not p.is_infinity),
                         default=1))
    cross = {}

    def file(p, q, s, x, value):
        point = SpherePoint(value)
        for key in ((p, q, s, x), (x, s, q, p), (s, x, p, q), (q, p, x, s)):
            cross[key] = point

    for x, *rest in itertools.combinations(range(k), 4):
        for p, q, s in itertools.permutations(rest):
            if q < s:
                v = functools.reduce(operator.mul, [
                    table[i, j] for table, i, j in (
                        (diff, x, q), (inv, x, p), (diff, s, p), (inv, s, q))
                    if (i, j) in table])
                file(p, q, s, x, v)
                file(p, s, q, x, one - v)
    for idx in itertools.permutations(range(k), 3):
        yield tuple(pts[i] for i in idx), [
            cross[(*idx, x)] for x in range(k) if x not in idx]


def _raw_key(p: SpherePoint):
    # sort/dedup key valid among points of one common conductor
    return (0,) if p.is_infinity else (1, p.value.num, p.value.den)


def _pairing(t, A, B) -> Optional[list]:
    """For each point of A, the index in B of its image under t; None when
    some image is not in B.  The points of A are taken distinct, and so are
    those of B.  t is a Moebius map, or the coefficients (a, b, c, d) of a
    plain map z -> (a z + b)/(c z + d) taken up to scale, which need not be
    normalized.  A degenerate map (ad = bc) pairs no two sets of three or
    more points: it sends every point but at most one to one value.

    Decided by cross-multiplication, with no inversion: t(x) = (N : D),
    with (N, D) = (a x + b, c x + d) for finite x (x conjugated first for
    an anti-map) and (a, c) for x = inf, is inf iff D = 0 and the finite
    point y iff D != 0 and N = y D.  Nothing is embedded up front: each
    product and comparison embeds its own operands, and a rational one,
    such as a coefficient 1 or the point 0, is taken as a scalar with no
    embedding; only coefficients given as ints or Fractions are made field
    elements."""
    if isinstance(t, Moebius):
        coefficients, anti = t.coefficients(), t.conj_first
    else:
        coefficients, anti = t, False
    a, b, c, d = (x if isinstance(x, CycElt) else CycElt.from_rational(x)
                  for x in coefficients)
    free = dict(enumerate(_as_points(B)))
    out = []
    for x in _as_points(A):
        if anti:
            x = x.conjugate()
        if x.is_infinity:
            num, den = a, c
        else:
            num, den = a * x.value + b, c * x.value + d
        if den.is_zero():
            hit = next((j for j, y in free.items() if y.is_infinity), None)
        else:
            hit = next((j for j, y in free.items()
                        if not y.is_infinity and num == y.value * den), None)
        if hit is None:
            return None
        del free[hit]
        out.append(hit)
    return out


# the ordered triples (a, b, c) of six indices, in itertools.permutations
# order, each with the other three: (a, b, c, rest)
_TRIPLES = [(*t, tuple(x for x in range(6) if x not in t))
            for t in itertools.permutations(range(6), 3)]


def _unrefuted_triples(n: int, src: list, spots: list):
    """The entries of `_TRIPLES` for the ordered triples of the six points
    src that reduction at the split prime of conductor n leaves possible:
    those whose images under the map to (inf, 0, 1) may be the points
    `spots`, which lie off inf, 0 and 1: the points are reduced, and
    their residues filtered (`_residue_triples`); every triple is yielded
    when a point or spot has no residue."""
    p, r = _split_prime(n)
    # infinity reduces to p, the point at infinity of P^1(F_p)
    res = [p if q.is_infinity else _residue(q.value, r, p) for q in src]
    want = [_residue(q.value, r, p) for q in spots]
    if None in res or None in want:
        yield from _TRIPLES
    else:
        yield from _residue_triples(p, res, want)


def _residue_triples(p: int, res: list, want: list):
    """The entries of `_TRIPLES` for the ordered triples of six points with
    the residues `res` (p for infinity) whose images under the map to
    (inf, 0, 1) may be three points with the residues `want`.

    Reduction zeta_n -> r mod p (`cyclotomic._split_prime`) sends each
    element whose denominator p does not divide to its residue in F_p, and
    is a ring homomorphism there.  The image of x under the triple (u, v, w)
    is the cross-ratio ((x - v)/(x - u)) * ((w - u)/(w - v)), each factor
    that holds infinity dropped.  When u, v, w and x have distinct residues
    in P^1(F_p), every factor is a unit at the prime, so the image reduces
    to the cross-ratio of the residues.  A triple whose images are the
    spots then has the spots' residues as the residues of its images, so a
    triple whose image residues differ from `want` is refuted.  Any other
    triple is yielded, among them every one with two of its four points
    on one residue: a triple that carries the points onto the spots is
    never refuted, so a triple-free result certifies that no map does."""
    want = sorted(want)
    # x - y and its inverse, 1 where infinity drops the factor; `clash`
    # holds the points that share a residue with another
    diff, inv, clash = {}, {}, set()
    for i, j in itertools.combinations(range(6), 2):
        if p in (res[i], res[j]):
            diff[i, j] = diff[j, i] = inv[i, j] = inv[j, i] = 1
        elif res[i] == res[j]:
            clash.update((i, j))
        else:
            d = res[i] - res[j]
            diff[i, j], diff[j, i] = d, -d
            inv[i, j] = pow(d, -1, p)
            inv[j, i] = -inv[i, j]
    wanted = set(want)
    for a, b, c, rest in _TRIPLES:
        # a point of the triple and its partner lie under one image
        if clash and (a in clash or b in clash or c in clash):
            yield a, b, c, rest
            continue
        h = diff[c, a] * inv[c, b] % p
        images = []
        for x in rest:
            image = diff[x, b] * inv[x, a] * h % p
            if image not in wanted:
                break
            images.append(image)
        else:
            if sorted(images) == want:
                yield a, b, c, rest


def set_maps(S, T, anti: bool = False) -> list:
    """All Moebius (or anti-Moebius) maps sending the six-point set S onto
    the six-point set T; duplicate-free and canonically sorted.  An empty
    list means no such map exists.

    Every map sends some ordered triple of S to a fixed base triple of T,
    and it does so iff normalizing both triples to (inf, 0, 1) puts the
    remaining three points of each set at the same spots.  The base triple
    is normalized exactly, once.  The 120 ordered triples of S are first
    reduced at a split prime (`_unrefuted_triples`).  Reduction is a ring
    homomorphism on the elements whose denominator p does not divide, so a
    triple whose images reduce to other residues than the spots is
    certified to carry no map.  A triple with two of the points behind an
    image on one residue, or with a value that has no residue, is not
    refuted, so one prime is enough.  The filter reads residues alone
    (`_residue_triples`), so `moduli` runs it before it builds a twist:
    when it leaves no triple, this call would find no map.
    No remaining triple is divided through: the map sending it to the base
    triple has the coefficients adj(B) S up to scale (`_carry_raw`), for
    the raw matrices S and B of the two triples to (inf, 0, 1), and it is
    a map of the sets iff it sends S's other three points onto T's, which
    `_pairing` decides by cross-multiplication.  Only a map that passes is
    normalized, which inverts its lead coefficient.  An anti-map
    z -> M(conj z) carries S onto T iff conj(M) carries S onto conj(T), so
    anti maps conjugate the target and the source is reduced as it is.
    """
    s_in, t_in = list(S), list(T)
    n, everything = unify_points(s_in + t_in)
    src = list({_raw_key(p): p for p in everything[:len(s_in)]}.values())
    tgt = everything[len(s_in):]
    if anti:
        tgt = [p.conjugate() for p in tgt]
    # the base triple is T's first three distinct points: (inf, 0, 1) for a
    # configuration, whose normalization costs least
    tgt = list({_raw_key(p): p for p in tgt}.values())
    if len(src) != 6 or len(tgt) != 6:
        raise ValueError("both sets must contain exactly six points")
    base = _std_raw(*tgt[:3])
    spots = [_apply_raw(base, p) for p in tgt[3:]]
    found = {}
    for a, b, c, rest in _unrefuted_triples(n, src, spots):
        mat = _carry_raw(_std_raw(src[a], src[b], src[c]), base)
        if _pairing(mat, [src[x] for x in rest], tgt[3:]) is None:
            continue
        m = Moebius(*mat)
        if anti:
            m = Moebius(*(x.conjugate() for x in m.coefficients()),
                        conj_first=True)
        found[(m.conj_first, *((x.num, x.den) for x in m.coefficients()))] = m
    # the maps share one conductor, so the canonical order on their
    # coefficients as they are is the order of their Fraction coordinates
    return sorted(found.values(), key=lambda m: (m.conj_first, *(
        _ordered((x.n, x.num, x.den)) for x in m.coefficients())))
