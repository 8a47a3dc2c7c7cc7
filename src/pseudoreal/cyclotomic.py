"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is stored by its coordinates in the power basis
1, z, ..., z^(phi(n)-1) of Q[x]/Phi_n(x), where z stands for
zeta_n = exp(2*pi*i/n): phi(n) Python-int numerators `num` over one
positive int denominator `den`.  Products are reduced mod Phi_n in one
integer pass (Phi_n is monic and integral).  The representation at a
fixed conductor is canonical (reduced mod Phi_n, gcd(den, *num) = 1, zero
is 0/1), so two elements of the same conductor are equal iff their
(num, den) pairs are equal; elements of different conductors are compared
after embedding both into the lcm field via zeta_n = zeta_lcm^(lcm/n).
`coeffs`, the coordinates as Fractions, is a view derived on first use;
sorting keys, printing, enclosures and minimal forms read it.  `inverse`
stays on the ints: 1/u = den * P / N for the integral w = den * u, where
x = w * P is taken down a chain of prime-order Galois steps (`_norm_chain`)
until it is fixed by the whole group, that is, a rational integer N.

The embedding zeta_n -> exp(2*pi*i/n) is fixed once and for all; every
statement about conjugation, signs and ordering of real elements refers
to it.

Supported operations: field arithmetic, the Galois action zeta -> zeta^a
for units a mod n, complex conjugation (a = -1), sign determination of
real elements (symbolic zero test, then certified interval refinement),
minimal polynomials over Q via Galois orbits, fixed fields of subgroups
of (Z/n)* with explicit primitive elements, k-th roots inside a given
cyclotomic field, and certified complex interval enclosures.
"""

from __future__ import annotations

import decimal
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

__all__ = [
    "CycError",
    "ParseError",
    "NonRealError",
    "SeedSearchExhausted",
    "LimitError",
    "MAX_CONDUCTOR",
    "MAX_SIZE_BITS",
    "CycElt",
    "GaloisElement",
    "Subfield",
    "Box",
    "make_element",
    "check_conductor",
    "common_field",
    "conjugate",
    "galois_apply",
    "real_sign",
    "min_poly",
    "poly_eval",
    "format_poly",
    "fixed_field",
    "fixing_subgroup",
    "same_field",
    "approx",
    "kth_roots",
    "units",
    "euler_phi",
    "cyclotomic_polynomial",
    "is_subgroup",
    "subgroups",
]


class CycError(Exception):
    """Base class for errors raised by the exact arithmetic layer."""


class ParseError(CycError):
    """Malformed element expression."""


class NonRealError(CycError):
    """A real number was required but the element is not conjugation-fixed."""


class SeedSearchExhausted(CycError):
    """The bounded search for a primitive element of a fixed field failed."""


class LimitError(CycError):
    """An element expression passes a resource limit; `clause` names it."""

    def __init__(self, clause: str, message: str):
        super().__init__(message)
        self.clause = clause


# ---------------------------------------------------------------------------
# cyclotomic polynomials and unit groups

def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


@functools.cache
def cyclotomic_polynomial(n: int) -> tuple:
    """Int coefficients (ascending) of the n-th cyclotomic polynomial Phi_n."""
    if n < 1:
        raise ValueError("conductor must be positive")
    # Phi_n = (x^n - 1) / prod(Phi_d : d | n, d < n); each Phi_d is monic
    # and integral, so the division stays in ints
    num = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n)[:-1]:
        q = cyclotomic_polynomial(d)
        dq = len(q) - 1
        quot = [0] * (len(num) - dq)
        for i in range(len(num) - 1, dq - 1, -1):
            f = quot[i - dq] = num[i]
            if f:
                for j, c in enumerate(q):
                    num[i - dq + j] -= f * c
        if any(num[:dq]):
            raise AssertionError("cyclotomic recursion left a remainder")
        num = quot
    return tuple(num)


@functools.cache
def units(n: int) -> tuple:
    """Representatives in range(n) of the unit group (Z/n)*."""
    if n < 1:
        raise ValueError("conductor must be positive")
    return tuple(a for a in range(n) if math.gcd(a, n) == 1)


def euler_phi(n: int) -> int:
    return len(units(n))


def is_subgroup(H: Iterable[int], n: int) -> bool:
    """True iff H (exponents mod n) is a subgroup of (Z/n)*."""
    hs = {a % n for a in H}
    if not hs or 1 % n not in hs:
        return False
    if any(math.gcd(a, n) != 1 for a in hs):
        return False
    return all((a * b) % n in hs for a in hs for b in hs)


def _cyclic(a: int, n: int) -> frozenset:
    """The cyclic subgroup <a> of (Z/n)*."""
    h = {1 % n}
    x = a % n
    while x not in h:
        h.add(x)
        x = (x * a) % n
    return frozenset(h)


@functools.cache
def _norm_chain(n: int) -> tuple:
    """Steps (b_1, p_1), ..., (b_s, p_s) up (Z/n)*: each b_i has prime order
    p_i modulo the subgroup H_(i-1) generated by the b's before it, and
    H_s = (Z/n)*, so the p_i multiply to phi(n).

    `inverse` multiplies an element of the fixed field of H_(i-1) at step
    i, with coordinates that double in size at every step, so the chain is
    chosen from the top: each H_(i-1) is the subgroup of prime index in H_i
    whose fixed field uses the fewest power-basis coordinates."""
    subs = subgroups(n)
    group, steps = frozenset(units(n)), []
    while len(group) > 1:
        below = [h for h in subs
                 if h < group and _is_prime(len(group) // len(h))]
        h = min(below, key=lambda h: (_fixed_support(h, n), sorted(h)))
        steps.append((min(group - h), len(group) // len(h)))
        group = h
    return tuple(reversed(steps))


def _fixed_support(h: frozenset, n: int) -> int:
    """The number of power-basis coordinates in use in the fixed field of
    the subgroup h of (Z/n)*.  The field is spanned by the h-traces of the
    z^i, and the trace of z^i is a multiple of the sum of z^t over the
    orbit of i under h."""
    powers, used, seen = _powers_of_zeta(n), set(), set()
    for i in range(euler_phi(n)):
        if i not in seen:
            orbit = {i * a % n for a in h}
            seen |= orbit
            used.update(j for j, c in enumerate(
                map(sum, zip(*(powers[t] for t in orbit)))) if c)
    return len(used)


def subgroups(n: int) -> list:
    """All subgroups of (Z/n)*: the cyclic ones and their iterated joins
    (in an abelian group the join of H and K is the product set HK)."""
    cyclic = {_cyclic(a, n) for a in units(n)}
    found = set(cyclic)
    frontier = cyclic
    while frontier:
        frontier = {frozenset((h * c) % n for h in H for c in C)
                    for H in frontier for C in cyclic} - found
        found |= frontier
    return sorted(found, key=lambda h: (len(h), sorted(h)))


# ---------------------------------------------------------------------------
# field elements


def _coerce_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {type(x).__name__} into a rational coefficient")


@functools.cache
def _reduction_table(n: int) -> tuple:
    """(phi(n), ((j, c_j), ...)) for the nonzero lower coefficients c_j of
    the monic integral Phi_n = x^phi + sum_j c_j x^j."""
    poly = cyclotomic_polynomial(n)
    return len(poly) - 1, tuple((j, c) for j, c in enumerate(poly[:-1]) if c)


def _reduced(n: int, num: list, den: int = 1) -> "CycElt":
    """The element (sum_i num[i] z^i) / den of Q(zeta_n), for a list of ints
    of any length (reduced in place) and a positive int den."""
    u = object.__new__(CycElt)
    u._store(n, num, den)
    return u


class CycElt:
    """Element of Q(zeta_n): integer numerators over one positive
    denominator, canonical in the power basis mod Phi_n."""

    __slots__ = ("n", "num", "den", "_coeffs", "_min")

    def __init__(self, n: int, coeffs: Sequence):
        if n < 1:
            raise ValueError("conductor must be positive")
        fracs = [_coerce_fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in fracs))
        self._store(n, [c.numerator * (den // c.denominator) for c in fracs],
                    den)

    def _store(self, n: int, num: list, den: int):
        # top down, x^i = -sum_j c_j x^(i - phi + j); Phi_n is monic, so no
        # division
        phi, table = _reduction_table(n)
        for i in range(len(num) - 1, phi - 1, -1):
            t = num[i]
            if t:
                base = i - phi
                for j, c in table:
                    num[base + j] -= t * c
        del num[phi:]
        num.extend([0] * (phi - len(num)))
        # canonical: gcd(den, *num) = 1, so zero is (0, ..., 0) / 1
        g = math.gcd(den, *num)
        if g != 1:
            num = [x // g for x in num]
            den //= g
        _set_n(self, n)
        _set_num(self, tuple(num))
        _set_den(self, den)
        _set_coeffs(self, None)
        _set_min(self, None)

    def __setattr__(self, *a):
        raise AttributeError("CycElt is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int = 1) -> "CycElt":
        return _reduced(n, [])

    @classmethod
    def one(cls, n: int = 1) -> "CycElt":
        return _reduced(n, [1])

    @classmethod
    def from_rational(cls, q, n: int = 1) -> "CycElt":
        q = Fraction(q)
        return _reduced(n, [q.numerator], q.denominator)

    @classmethod
    def zeta(cls, n: int) -> "CycElt":
        return _reduced(n, [0, 1])

    # -- representation helpers ---------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates as Fractions (num[i] / den), built
        on first use."""
        c = self._coeffs
        if c is None:
            c = tuple(Fraction(x, self.den) for x in self.num)
            _set_coeffs(self, c)
        return c

    def embed(self, m: int) -> "CycElt":
        """Rewrite the element in Q(zeta_m); requires n | m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"cannot embed conductor {self.n} into {m}")
        return self._scatter(m // self.n, m)

    def _scatter(self, mult: int, m: int) -> "CycElt":
        """sum_i c_i zeta_m^(i * mult) for the coefficients c_i of self:
        the embedding (mult = m/n) and the Galois action (m = n)."""
        out = [0] * m
        for i, c in enumerate(self.num):
            if c:
                out[(i * mult) % m] += c
        return _reduced(m, out, self.den)

    def _unify(self, other: "CycElt"):
        if self.n == other.n:
            return self, other
        m = math.lcm(self.n, other.n)
        return self.embed(m), other.embed(m)

    def in_conductor(self, m: int) -> "CycElt":
        """Express the element in Q(zeta_m) if it lies there, else raise."""
        if self.n == m:
            return self
        if m % self.n == 0:
            return self.embed(m)
        d, vec = self._minimal_form()
        if m % d == 0:
            return CycElt(d, vec).embed(m)
        raise ValueError(
            f"element of conductor {d} does not lie in Q(zeta_{m})")

    def _minimal_form(self):
        """(d, coeffs) at the smallest conductor d | n containing the element."""
        cached = object.__getattribute__(self, "_min")
        if cached is not None:
            return cached
        result = (self.n, self.coeffs)
        for d in _divisors(self.n)[:-1]:
            # the element lies in Q(zeta_d) iff it is fixed by every unit
            # a = 1 mod d of (Z/n)*
            kernel = [a for a in units(self.n) if a % d == 1 % d]
            if all(self.galois_apply(a) == self for a in kernel):
                vec = self._rewrite_in(d)
                if vec is not None:
                    result = (d, vec)
                    break
        _set_min(self, result)
        return result

    def _rewrite_in(self, d: int):
        """Coordinates of self in the power basis of Q(zeta_d), as
        Fractions; None when self does not lie in Q(zeta_d)."""
        rows, scale = _subfield_rows(d, self.n)
        vec = tuple(Fraction(sum(c * self.num[i] for i, c in row),
                             scale * self.den) for row in rows)
        if CycElt(d, vec).embed(self.n) != self:
            return None
        return vec

    def key(self):
        """Canonical sort/hash key: minimal conductor + coefficients there."""
        d, vec = self._minimal_form()
        return (d, vec)

    @property
    def conductor(self) -> int:
        return self.n

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise CycError("element is not rational")
        return Fraction(self.num[0], self.den)

    def is_real(self) -> bool:
        return self.conjugate() == self

    # -- arithmetic -----------------------------------------------------------

    @staticmethod
    def _coerce(x, n):
        if isinstance(x, CycElt):
            return x
        if isinstance(x, (int, Fraction)):
            return CycElt.from_rational(x, n)
        return None

    def _combine(self, other, sign: int):
        """self + sign * other over one common denominator."""
        o = self._coerce(other, self.n)
        if o is None:
            return NotImplemented
        a, b = self._unify(o)
        den = math.lcm(a.den, b.den)
        fa, fb = den // a.den, sign * (den // b.den)
        return _reduced(a.n, [x * fa + y * fb for x, y in zip(a.num, b.num)],
                        den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _reduced(self.n, [-x for x in self.num], self.den)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __mul__(self, other):
        o = self._coerce(other, self.n)
        if o is None:
            return NotImplemented
        a, b = self._unify(o)
        # integer convolution over the nonzero terms, reduced once
        terms = [(j, y) for j, y in enumerate(b.num) if y]
        out = [0] * (2 * len(a.num) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in terms:
                    out[i + j] += x * y
        return _reduced(a.n, out, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycElt":
        if self.is_zero():
            raise ZeroDivisionError("division by zero element")
        n = self.n
        if self.is_rational():
            top = self.num[0]
            return _reduced(n, [self.den if top > 0 else -self.den], abs(top))
        # 1/u = den * P / N for the integral w = den * u, where x = w * P
        # (P the cofactor) is taken down the norm chain of (Z/n)*: after
        # each step (b, p), x is fixed by b and every earlier step, so at
        # the end it is a rational integer N.  A step multiplies x by y, the
        # product of its images under b, ..., b^(p - 1); when b already
        # fixes x, it is skipped.  w is integral, and so are its images, P
        # and N
        w = _reduced(n, list(self.num))
        x, cofactor = w, None
        for b, p in _norm_chain(n):
            image = x.galois_apply(b)
            if image == x:
                continue
            y = image
            for _ in range(p - 2):
                image = image.galois_apply(b)
                y = y * image
            cofactor = y if cofactor is None else cofactor * y
            # x from w * P, not x * y, which was up to twice as slow on
            # sparse values with large coordinates
            x = w * cofactor
        if not x.is_rational():
            raise AssertionError("norm is not rational")
        norm = x.num[0]
        scale = self.den if norm > 0 else -self.den
        return _reduced(n, [scale * c for c in cofactor.num], abs(norm))

    def __truediv__(self, other):
        o = self._coerce(other, self.n)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other, self.n)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        out, base = None, self
        while e:
            if e & 1:
                out = base if out is None else out * base
            e >>= 1
            if e:
                base = base * base
        return CycElt.one(self.n) if out is None else out

    # -- Galois action ---------------------------------------------------------

    def galois_apply(self, a) -> "CycElt":
        """Image under zeta_n -> zeta_n^a for a unit a mod n."""
        if isinstance(a, GaloisElement):
            if a.conductor != self.n:
                raise ValueError(
                    f"Galois element has conductor {a.conductor}, "
                    f"element lives at {self.n}")
            a = a.exponent
        a %= self.n
        if math.gcd(a, self.n) != 1:
            raise ValueError(f"{a} is not a unit mod {self.n}")
        return self._scatter(a, self.n)

    def conjugate(self) -> "CycElt":
        return self.galois_apply(-1)

    # -- comparison / hashing ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return (self.num[0] == other.numerator
                    and self.den == other.denominator and self.is_rational())
        if not isinstance(other, CycElt):
            return NotImplemented
        a, b = self._unify(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        if self.is_rational():
            return hash(self.as_rational())  # agree with int/Fraction hashing
        return hash(self.key())

    # -- display --------------------------------------------------------------

    def __str__(self):
        return _join_terms(_terms(self.coeffs, "z"))

    def __repr__(self):
        return f"CycElt({self.n}, {str(self)!r})"


# the setters of CycElt's slot descriptors, which write past its
# immutability guard
_set_n, _set_num, _set_den, _set_coeffs, _set_min = (
    getattr(CycElt, slot).__set__ for slot in CycElt.__slots__)


def _terms(coeffs, var: str) -> list:
    """(negative, body) for each nonzero c_i * var^i, ascending in i.
    LimitError (clause size_limit) when a coefficient has more digits than
    Python converts to a string."""
    terms = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        try:
            body = str(abs(c))
        except ValueError:  # past sys.get_int_max_str_digits()
            raise _print_limit("a coefficient") from None
        if i:
            v = var if i == 1 else f"{var}^{i}"
            body = v if body == "1" else f"{body}*{v}"
        terms.append((c < 0, body))
    return terms


def _print_limit(what: str) -> LimitError:
    """The size_limit rejection of a result holding an integer with more
    digits than Python converts to a string; `what` names the integer."""
    return LimitError("size_limit", f"result too large to print: {what} "
                      f"passes Python's {sys.get_int_max_str_digits()}-digit "
                      "limit for integer strings")


def _join_terms(terms) -> str:
    """Join (negative, body) terms: '-a + b - c'; '0' when there are none."""
    if not terms:
        return "0"
    out = ("-" if terms[0][0] else "") + terms[0][1]
    for neg, body in terms[1:]:
        out += (" - " if neg else " + ") + body
    return out


def common_field(values) -> tuple:
    """Coerce ints and Fractions to CycElt and embed every value into
    Q(zeta_m), m the lcm of their conductors; returns (m, list of values)."""
    vals = [x if isinstance(x, CycElt) else CycElt.from_rational(x)
            for x in values]
    m = math.lcm(*(x.n for x in vals))
    return m, [x.embed(m) for x in vals]


def _echelon(rows):
    """Reduced row echelon form of a matrix over a field; returns (nonzero
    rows, pivot columns).  Entries may be Fractions or CycElts: only
    `!= 0`, `*`, `-` and `1 / x` are used."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(mat):
            break
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [u - f * v for u, v in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat[:r], pivots


@functools.cache
def _subfield_rows(d: int, n: int) -> tuple:
    """A left inverse of the embedding Q(zeta_d) -> Q(zeta_n) on power-basis
    coordinates, as (rows, scale): coordinate j at conductor d is
    sum(c * x[i] for i, c in rows[j]) / scale for an element of Q(zeta_d)
    with coordinates x at conductor n."""
    width = euler_phi(d)
    basis = [CycElt(d, [0] * j + [1]).embed(n).coeffs for j in range(width)]
    # phi(d) coordinates at n on which the embedded basis is invertible
    # (its pivot columns), then the inverse of that square block
    _, picked = _echelon(basis)
    ech, _ = _echelon([[basis[j][i] for j in range(width)]
                       + [Fraction(int(r == c)) for c in range(width)]
                       for r, i in enumerate(picked)])
    left = [row[width:] for row in ech]
    scale = math.lcm(*(c.denominator for row in left for c in row))
    return (tuple(tuple((picked[r], int(c * scale))
                        for r, c in enumerate(row) if c) for row in left),
            scale)


# ---------------------------------------------------------------------------
# Galois elements


@dataclass(frozen=True)
class GaloisElement:
    """The automorphism zeta_n -> zeta_n^a of Q(zeta_n), a a unit mod n."""

    conductor: int
    exponent: int

    def __post_init__(self):
        if self.conductor < 1:
            raise ValueError("conductor must be positive")
        object.__setattr__(self, "exponent", self.exponent % self.conductor)
        if math.gcd(self.exponent, self.conductor) != 1:
            raise ValueError(
                f"{self.exponent} is not a unit mod {self.conductor}")

    def __mul__(self, other: "GaloisElement") -> "GaloisElement":
        if self.conductor != other.conductor:
            raise ValueError("conductor mismatch")
        return GaloisElement(self.conductor, self.exponent * other.exponent)

    def apply(self, u: CycElt) -> CycElt:
        return u.galois_apply(self)

    def __str__(self):
        return f"zeta -> zeta^{self.exponent} (mod {self.conductor})"


# ---------------------------------------------------------------------------
# expression parser (grammar: integers, rationals p/q, z, + - * / ^,
# parentheses, conj(...); whitespace insignificant)

# Limits on parsed input, so that no expression runs unboundedly long:
# the largest conductor (crossratio takes well under a second there), and
# the largest size of an element, in bits (see _size_bits)
MAX_CONDUCTOR = 120
MAX_SIZE_BITS = 4096


def _size_bits(u: CycElt) -> float:
    """log2 of the larger of the common denominator D of the coefficients
    and the sum of |numerators| over D: it bounds every coefficient's
    numerator and denominator, and u^e has about e times as many bits."""
    return math.log2(max(sum(map(abs, u.num)), u.den))


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.pos = 0
        self.n = n

    def error(self, msg):
        raise ParseError(f"{msg} at position {self.pos} in {self.text!r}")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> CycElt:
        v = self.expr()
        if self.peek():
            self.error("trailing input")
        return v

    def expr(self):
        v = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                v = self.bounded(v + self.term())
            elif ch == "-":
                self.pos += 1
                v = self.bounded(v - self.term())
            else:
                return v

    def term(self):
        v = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                v = self.bounded(v * self.factor())
            elif ch == "/":
                self.pos += 1
                d = self.factor()
                if d.is_zero():
                    raise ZeroDivisionError("division by zero element")
                v = self.bounded(v / d)
            else:
                return v

    def factor(self):
        ch = self.peek()
        if ch == "-":
            self.pos += 1
            return -self.factor()
        if ch == "+":
            self.pos += 1
            return self.factor()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            e = self.signed_int()
            if e < 0:
                if base.is_zero():
                    raise ZeroDivisionError("division by zero element")
                base, e = base.inverse(), -e
            if e > MAX_SIZE_BITS / max(1.0, _size_bits(base)):
                raise LimitError(
                    "size_limit", f"power ^{e} before position {self.pos} "
                    f"would exceed {MAX_SIZE_BITS} bits")
            return base ** e
        return base

    def bounded(self, v):
        if _size_bits(v) > MAX_SIZE_BITS:
            raise LimitError("size_limit", f"value before position "
                             f"{self.pos} exceeds {MAX_SIZE_BITS} bits")
        return v

    def signed_int(self):
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        if not self.peek().isdigit():
            self.error("expected integer exponent")
        return sign * self.integer()

    def integer(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        # a decimal digit carries more than 3 bits
        if 3 * (self.pos - start) > MAX_SIZE_BITS:
            raise LimitError("size_limit", f"integer at position {start} "
                             f"exceeds {MAX_SIZE_BITS} bits")
        return int(self.text[start:self.pos])

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            v = self.expr()
            self.eat(")")
            return v
        if ch.isdigit():
            return CycElt.from_rational(self.integer(), self.n)
        if self.text.startswith("conj", self.pos):
            self.pos += 4
            self.eat("(")
            v = self.expr()
            self.eat(")")
            return v.conjugate()
        if ch == "z":
            self.pos += 1
            return CycElt.zeta(self.n)
        self.error("unexpected input")


def check_conductor(n: int) -> None:
    """ValueError unless n is positive; LimitError (clause conductor_limit)
    when n exceeds MAX_CONDUCTOR."""
    if n < 1:
        raise ValueError("conductor must be positive")
    if n > MAX_CONDUCTOR:
        raise LimitError("conductor_limit", f"conductor {n} exceeds the "
                         f"maximum {MAX_CONDUCTOR}")


def make_element(expr: str, n: int) -> CycElt:
    """Parse an element expression; `z` binds to zeta_n = exp(2*pi*i/n).
    The conductor is checked first (check_conductor); LimitError (clause
    size_limit) when a literal, power, sum, product or quotient in the
    expression exceeds MAX_SIZE_BITS."""
    check_conductor(n)
    return _Parser(expr, n).parse()


# ---------------------------------------------------------------------------
# module-level operation wrappers


def conjugate(u: CycElt) -> CycElt:
    return u.conjugate()


def galois_apply(u: CycElt, a) -> CycElt:
    return u.galois_apply(a)


# ---------------------------------------------------------------------------
# certified interval enclosures (backed by mpmath interval contexts)


@dataclass(frozen=True)
class Box:
    """Axis-aligned rational box in C, certified to contain a value."""

    re_lo: Fraction
    re_hi: Fraction
    im_lo: Fraction
    im_hi: Fraction

    def width(self) -> Fraction:
        return max(self.re_hi - self.re_lo, self.im_hi - self.im_lo)

    def contains_zero(self) -> bool:
        return (self.re_lo <= 0 <= self.re_hi
                and self.im_lo <= 0 <= self.im_hi)

    def midpoint(self):
        return ((self.re_lo + self.re_hi) / 2, (self.im_lo + self.im_hi) / 2)

    def __str__(self):
        rm, im = self.midpoint()
        return (f"{_fmt(rm, '.12g')} + {_fmt(im, '.12g')}i "
                f"(+/- {_fmt(self.width(), '.3g')})")


def _fmt(x: Fraction, spec: str) -> str:
    """format(float(x), spec), also for |x| beyond the float range."""
    try:
        return format(float(x), spec)
    except OverflowError:
        return format(decimal.Decimal(x.numerator) / x.denominator, spec)


def _mpf_to_fraction(x):
    from mpmath.libmp import to_rational

    p, q = to_rational(x)
    return Fraction(int(p), int(q))


def _enclose(u: CycElt, prec: int) -> Box:
    from mpmath.ctx_iv import MPIntervalContext

    ctx = MPIntervalContext()
    ctx.prec = prec
    two_pi = 2 * ctx.pi
    re = ctx.mpf(0)
    im = ctx.mpf(0)
    for i, c in enumerate(u.coeffs):
        if c == 0:
            continue
        coef = ctx.mpf(c.numerator) / c.denominator
        if i == 0:
            re += coef
            continue
        ang = two_pi * i / u.n
        re += coef * ctx.cos(ang)
        im += coef * ctx.sin(ang)
    rl, rh = re._mpi_
    il, ih = im._mpi_
    return Box(_mpf_to_fraction(rl), _mpf_to_fraction(rh),
               _mpf_to_fraction(il), _mpf_to_fraction(ih))


def approx(u: CycElt, bits: int) -> Box:
    """Certified box containing the embedded value, width <= 2^-bits."""
    if bits < 8:
        raise ValueError("bits must be at least 8")
    goal = Fraction(1, 2 ** bits)
    prec = bits + 16
    while True:
        box = _enclose(u, prec)
        if box.width() <= goal:
            return box
        prec *= 2


def real_sign(u: CycElt) -> int:
    """Sign (-1, 0, +1) of a real element under the fixed embedding."""
    if not u.is_real():
        raise NonRealError(f"{u} is not fixed by conjugation")
    if u.is_zero():
        return 0
    if u.is_rational():
        q = u.as_rational()
        return -1 if q < 0 else 1
    bits = 16
    while True:
        box = _enclose(u, bits)
        if box.re_lo > 0:
            return 1
        if box.re_hi < 0:
            return -1
        bits *= 2


# ---------------------------------------------------------------------------
# minimal polynomials and fixed fields


def _conjugates(u: CycElt) -> list:
    """The distinct Galois conjugates of u in Q(zeta_n), u first; [u] when
    u is rational.  min_poly multiplies out x - v over them."""
    out = [u]
    if u.is_rational():
        return out
    seen = {(u.num, u.den)}
    for a in units(u.n)[1:]:
        v = u.galois_apply(a)
        if (v.num, v.den) not in seen:
            seen.add((v.num, v.den))
            out.append(v)
    return out


def min_poly(u: CycElt) -> tuple:
    """Monic irreducible polynomial over Q vanishing at u (ascending coeffs).

    Computed as prod(x - v) over the distinct Galois orbit of u inside
    Q(zeta_n); irreducibility comes for free since the orbit is full.
    """
    # poly with CycElt coefficients, ascending
    poly = [CycElt.one(u.n)]
    for v in _conjugates(u):
        nxt = [CycElt.zero(u.n) for _ in range(len(poly) + 1)]
        for i, c in enumerate(poly):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * v
        poly = nxt
    out = []
    for c in poly:
        if not c.is_rational():
            raise AssertionError("orbit product has a non-rational coefficient")
        out.append(c.as_rational())
    return tuple(out)


def poly_eval(poly: Sequence, x: CycElt) -> CycElt:
    """Evaluate a rational polynomial (ascending coeffs) at a field element."""
    acc = CycElt.zero(x.n)
    for c in reversed(list(poly)):
        acc = acc * x + CycElt.from_rational(c, x.n)
    return acc


def format_poly(poly: Sequence, var: str = "x") -> str:
    """A rational polynomial (ascending coeffs), highest power first."""
    return _join_terms(_terms(map(Fraction, poly), var)[::-1])


@dataclass(frozen=True)
class Subfield:
    """A subfield of Q(zeta_n): the fixed field of `subgroup` <= (Z/n)*.

    `primitive` generates the field over Q and `minpoly` is its minimal
    polynomial; the degree of the field is phi(n)/|subgroup|.
    """

    conductor: int
    subgroup: frozenset
    primitive: CycElt
    minpoly: tuple

    @property
    def degree(self) -> int:
        return len(self.minpoly) - 1

    def __str__(self):
        return (f"degree-{self.degree} subfield of Q(zeta_{self.conductor}), "
                f"primitive {self.primitive}, minpoly {format_poly(self.minpoly)}")


def _seed_candidates(n: int):
    z = CycElt.zeta(n)
    yield CycElt.one(n)
    powers = [z ** j for j in range(1, n)]
    yield from powers
    for i, j in itertools.combinations(range(len(powers)), 2):
        yield powers[i] + powers[j]
    for i, j in itertools.combinations(range(len(powers)), 2):
        yield powers[i] + 2 * powers[j]
        yield powers[i] - powers[j]
    for i, j, k in itertools.combinations(range(len(powers)), 3):
        yield powers[i] + 2 * powers[j] + 3 * powers[k]


# seeds tried by fixed_field before it gives up
_SEED_BUDGET = 2000


def fixed_field(H: Iterable[int], n: int) -> Subfield:
    """Fixed field of the subgroup H <= (Z/n)* with a primitive element.

    The primitive element is an H-trace sum_{a in H} sigma_a(seed) over a
    deterministic list of small seeds, accepted once its minimal polynomial
    has the right degree phi(n)/|H|.
    """
    hs = frozenset(a % n for a in H)
    if not is_subgroup(hs, n):
        raise ValueError("H is not a subgroup of (Z/n)*")
    want = euler_phi(n) // len(hs)
    for seed in itertools.islice(_seed_candidates(n), _SEED_BUDGET):
        t = CycElt.zero(n)
        for a in hs:
            t = t + seed.galois_apply(a)
        mp = min_poly(t)
        if len(mp) - 1 == want:
            return Subfield(conductor=n, subgroup=hs, primitive=t, minpoly=mp)
    raise SeedSearchExhausted(
        f"no primitive element found for |H|={len(hs)}, n={n} "
        f"within {_SEED_BUDGET} seeds")


def fixing_subgroup(u: CycElt, n: Optional[int] = None) -> frozenset:
    """Units a mod n with sigma_a(u) = u; Q(u) is the fixed field of this."""
    if n is None:
        n = u.n
    v = u.in_conductor(n)
    return frozenset(a for a in units(n) if v.galois_apply(a) == v)


def same_field(u: CycElt, v: CycElt, n: Optional[int] = None) -> bool:
    """True iff Q(u) = Q(v) inside Q(zeta_n), by comparing fixed subgroups."""
    m = math.lcm(u.n, v.n) if n is None else n
    return fixing_subgroup(u, m) == fixing_subgroup(v, m)


# ---------------------------------------------------------------------------
# k-th roots inside a fixed cyclotomic field


def kth_roots(v: CycElt, k: int, conductor: Optional[int] = None) -> tuple:
    """All w in Q(zeta_m) with w^k = v, in canonical order.

    A rational times a root of unity has its roots written down, or is
    shown to have none (`_monomial_roots`).  For any other v, a few split
    primes may certify that there is no root (`_no_root_mod_p`); otherwise
    the search factors x^k - v over Q(zeta_m) (sympy does the
    factorization).  Each candidate root is then re-verified here by exact
    arithmetic.  An empty result certifies that no k-th root lies in the
    field.
    """
    if k < 1:
        raise ValueError("k must be positive")
    m = conductor if conductor is not None else v.n
    v = v.in_conductor(m)
    if v.is_zero():
        return (CycElt.zero(m),)
    if k == 1:
        return (v,)
    roots = _monomial_roots(v, k, m)
    if roots is None:
        if _no_root_mod_p(v, k, m):
            return ()
        roots = [CycElt(m, c) for c in _sympy_roots(v.coeffs, k, m)]
    return _checked_roots(roots, v, k)


def _related_roots(v: CycElt, u: CycElt, u_roots: tuple, k: int):
    """kth_roots(v) from u_roots = kth_roots(u), u and v nonzero at one
    conductor, when v / u is a rational times a root of unity; None when
    that quotient leaves the answer open.

    With eta^k = v / u, the roots of v are w * eta for one root w of u.
    If only one of v / u and u has roots, v has none: a root of v would
    give one of the other."""
    ratio = _monomial_roots(v * u.inverse(), k, u.n)
    if ratio is None:
        return None
    if ratio and u_roots:
        w = u_roots[0]
        return _checked_roots([w * eta for eta in ratio], v, k)
    if ratio or u_roots:
        return ()
    return None


def _checked_roots(roots, v: CycElt, k: int) -> tuple:
    """The distinct roots, each verified to be a k-th root of v, in
    canonical order."""
    out = []
    seen = set()
    for w in roots:
        if w ** k != v:
            raise AssertionError("root search returned a non-root")
        if (w.num, w.den) not in seen:
            seen.add((w.num, w.den))
            out.append(w)
    out.sort(key=lambda w: w.key())
    return tuple(out)


def _monomial_form(v: CycElt):
    """(q, t) with v = q * zeta_m^t for a rational q, m = v.n, when v is a
    nonzero rational times a root of unity; None otherwise."""
    i = next(j for j, c in enumerate(v.num) if c)
    for t, power in enumerate(_powers_of_zeta(v.n)):
        c = power[i]
        if c and all(x * c == y * v.num[i] for x, y in zip(v.num, power)):
            return Fraction(v.num[i], c * v.den), t
    return None


def _monomial_roots(v: CycElt, k: int, m: int):
    """Every k-th root of v in Q(zeta_m) when v = q * zeta_m^t with q
    rational (a list, empty when there is none); None for any other v.

    The roots of unity of Q(zeta_m) are the powers of omega, of order
    M = lcm(2, m) (omega = zeta_m, or -zeta_m for odd m).  When |q| is the
    k-th power of a rational r, v = r^k * omega^t and a root w has
    (w / r)^k = omega^t, so the roots are the r * omega^u with
    u * k = t (mod M).  Otherwise w^(kM) = q^M, so by Schinzel's theorem
    on abelian binomials (Acta Arith. 32, 1977) q^2 = c^k for a rational
    c > 0, and w^2 / c is a root of unity of Q(zeta_m): w = sqrt(c) * xi
    with xi in mu_2M.  So sqrt(c) lies in Q(zeta_2M), and the roots are
    the sqrt(c) * zeta_2M^s with s * k = t' (mod 2M), where
    v = |q| * zeta_2M^t', that lie in Q(zeta_m)."""
    form = _monomial_form(v)
    if form is None:
        return None
    q, t = form
    big = math.lcm(2, m)
    top = _exact_root(abs(q.numerator), k)
    bottom = _exact_root(q.denominator, k)
    if top and bottom:
        # sign(q) * zeta_m^t = omega^t
        if m % 2 == 0:
            t = t if q > 0 else (t + m // 2) % m
        elif (t % 2 == 0) != (q > 0):
            t += m
        out = []
        for u in range(big):
            if (u * k - t) % big == 0:
                sign = -1 if m % 2 and u % 2 else 1
                out.append(_reduced(m, [0] * (u % m) + [sign * top], bottom))
        return out
    a = _exact_root(q.numerator ** 2, k)
    b = _exact_root(q.denominator ** 2, k)
    wide = 2 * big
    root = _square_root(a * b, wide) if a and b else None
    # sqrt(2) (conductor 8) is missing from Q(zeta_2M) for 4 not dividing m
    if root is None or wide % root.n:
        return []
    # v = |q| * zeta_2M^t, and sqrt(c) = sqrt(a * b) / b
    t = (t * (wide // m) + (big if q < 0 else 0)) % wide
    root = root.embed(wide)
    out = []
    for s in range(wide):
        if (s * k - t) % wide == 0:
            w = _reduced(wide, [0] * s + list(root.num), root.den * b)
            try:
                out.append(w.in_conductor(m))
            except ValueError:
                pass
    return out


def _square_root(a: int, top: int):
    """sqrt(a) for an int a > 0, as a product of Gauss sums
    (`_sqrt_prime`) for the primes of top, when the other primes of a occur
    to even powers; None otherwise (then sqrt(a) is not in Q(zeta_top))."""
    scale, root = 1, CycElt.one()
    for p in range(2, top + 1):
        if top % p == 0 and _is_prime(p):
            e = 0
            while a % p == 0:
                a, e = a // p, e + 1
            scale *= p ** (e // 2)
            if e % 2:
                root = root * _sqrt_prime(p)
    rest = math.isqrt(a)
    if rest * rest != a:
        return None
    return root * (scale * rest)


@functools.cache
def _sqrt_prime(p: int) -> CycElt:
    """The positive square root of a prime p: z8 - z8^3 for p = 2, else the
    Gauss sum g = sum_a (a|p) zeta_p^a, which is sqrt(p) for p = 1
    (mod 4) and i * sqrt(p) for p = 3 (mod 4), written at conductor 4p."""
    if p == 2:
        return _reduced(8, [0, 1, 0, -1])
    # -i = zeta_4p^(3p)
    shift = 0 if p % 4 == 1 else 3 * p
    num = [0] * (4 * p)
    for a in range(1, p):
        num[(4 * a + shift) % (4 * p)] = 1 if pow(a, p // 2, p) == 1 else -1
    return _reduced(4 * p, num)


@functools.cache
def _powers_of_zeta(m: int) -> tuple:
    """Integer coordinates of zeta_m^t, t = 0, ..., m - 1."""
    return tuple(_reduced(m, [0] * t + [1]).num for t in range(m))


def _exact_root(a: int, k: int) -> int:
    """The k-th root of a >= 0 if it is an integer, else 0."""
    if a < 2:
        return a
    if k >= a.bit_length():     # 1 < a < 2^k
        return 0
    x = 1 << -(-a.bit_length() // k)    # above the root
    while True:
        y = ((k - 1) * x + a // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x ** k == a else 0


# split primes that _no_root_mod_p tries, and the terms of the progression
# 1 + j * lcm(m, k) that it scans for them, all below _PRIME_LIMIT
_CERT_PRIMES = 6
_CERT_SCAN = 1000
# _is_prime is exact below this bound
_PRIME_LIMIT = 3 * 10 ** 24


def _no_root_mod_p(v: CycElt, k: int, m: int) -> bool:
    """True when a prime p = 1 (mod lcm(m, k)) shows that v, at conductor
    m, has no k-th root in Q(zeta_m).

    Each primitive m-th root of unity r mod p gives a reduction
    zeta_m -> r onto F_p.  Where the image of v is nonzero, v is a unit
    there, and so is any w with w^k = v; so w would reduce to a k-th root
    of v's image.  An image that Euler's criterion finds to be no k-th
    power thus certifies that no root exists.  False means only that the
    primes tried found no such image.
    """
    step = math.lcm(m, k)
    p = 1
    tried = 0
    for _ in range(_CERT_SCAN):
        p += step
        if p >= _PRIME_LIMIT:
            break
        if v.den % p == 0 or not _is_prime(p):
            continue
        r = _root_of_unity_mod(m, p)
        scale = pow(v.den, -1, p)
        for a in units(m):
            x = pow(r, a, p)
            image = 0
            for c in reversed(v.num):
                image = (image * x + c) % p
            image = image * scale % p
            if image and pow(image, (p - 1) // k, p) != 1:
                return True
        tried += 1
        if tried == _CERT_PRIMES:
            break
    return False


def _is_prime(p: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, which is exact
    below _PRIME_LIMIT."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2:
        return False
    for b in bases:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _root_of_unity_mod(m: int, p: int) -> int:
    """A primitive m-th root of unity mod a prime p = 1 (mod m)."""
    primes = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    for x in range(2, p):
        r = pow(x, (p - 1) // m, p)
        if all(pow(r, m // q, p) != 1 for q in primes):
            return r
    raise AssertionError(f"no primitive {m}-th root of unity mod {p}")


@functools.cache
def _sympy_field(m: int):
    import sympy

    field = sympy.QQ.algebraic_field(sympy.exp(2 * sympy.I * sympy.pi / m))
    # the generator must be zeta_m itself in the power basis mod Phi_m
    mod = [Fraction(c.numerator, c.denominator) for c in field.mod.to_list()]
    expect = list(reversed(cyclotomic_polynomial(m)))
    if mod != expect:
        raise AssertionError(f"unexpected generator for Q(zeta_{m})")
    return field


def _sympy_roots(coeffs, k: int, m: int):
    import sympy

    field = _sympy_field(m)
    x = sympy.symbols("x")
    val = field.zero
    for i, c in enumerate(coeffs):
        if c:
            val += field.convert(c) * field.unit ** i
    # built in the domain: a sympy expression would be converted back
    # through field_isomorphism, which takes seconds at n = 24 and longer
    poly = sympy.Poly.from_list([field.one] + [field.zero] * (k - 1) + [-val],
                                x, domain=field)
    out = []
    for factor, _ in poly.factor_list()[1]:
        if factor.degree() != 1:
            continue
        lead, const = factor.rep.to_list()
        root = -const / lead
        desc = root.to_list()  # descending powers of zeta_m
        out.append(tuple(Fraction(c.numerator, c.denominator)
                         for c in reversed(desc)))
    return out
