"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is stored as its coordinate vector in the power basis
1, z, ..., z^(phi(n)-1) of Q[x]/Phi_n(x), with Fraction coefficients,
where z stands for zeta_n = exp(2*pi*i/n).  The representation at a fixed
conductor is canonical (reduced mod Phi_n), so two elements of the same
conductor are equal iff their coefficient vectors are equal; elements of
different conductors are compared after embedding both into the lcm field
via zeta_n = zeta_lcm^(lcm/n).

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
# polynomials over Q, represented as tuples of Fractions (ascending powers)

def _trim(p):
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _padd(p, q):
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _trim(out)


def _pneg(p):
    return tuple(-c for c in p)


def _psub(p, q):
    return _padd(p, _pneg(q))


def _pmul(p, q):
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] += a * b
    return _trim(out)


def _pdivmod(p, q):
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq = len(q) - 1
    lead = q[-1]
    for i in range(len(rem) - 1, dq - 1, -1):
        if rem[i]:
            f = rem[i] / lead
            quot[i - dq] = f
            for j, b in enumerate(q):
                rem[i - dq + j] -= f * b
    return _trim(quot), _trim(rem)


def _pmod(p, q):
    return _pdivmod(p, q)[1]


def _divisors(n):
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


@functools.cache
def cyclotomic_polynomial(n: int) -> tuple:
    """Coefficients (ascending) of the n-th cyclotomic polynomial Phi_n."""
    if n < 1:
        raise ValueError("conductor must be positive")
    # Phi_n = (x^n - 1) / prod(Phi_d : d | n, d < n)
    num = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]
    num = tuple(num)
    for d in _divisors(n)[:-1]:
        num, rem = _pdivmod(num, cyclotomic_polynomial(d))
        if rem:
            raise AssertionError("cyclotomic recursion left a remainder")
    return num


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


class CycElt:
    """Element of Q(zeta_n), canonical in the power basis mod Phi_n."""

    __slots__ = ("n", "coeffs", "_min")

    def __init__(self, n: int, coeffs: Sequence):
        if n < 1:
            raise ValueError("conductor must be positive")
        phi = euler_phi(n)
        poly = _trim(_coerce_fraction(c) for c in coeffs)
        if len(poly) > phi:
            poly = _pmod(poly, cyclotomic_polynomial(n))
        vec = list(poly) + [Fraction(0)] * (phi - len(poly))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", tuple(vec))
        object.__setattr__(self, "_min", None)

    def __setattr__(self, *a):
        raise AttributeError("CycElt is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, n: int = 1) -> "CycElt":
        return cls(n, ())

    @classmethod
    def one(cls, n: int = 1) -> "CycElt":
        return cls(n, (1,))

    @classmethod
    def from_rational(cls, q, n: int = 1) -> "CycElt":
        return cls(n, (Fraction(q),))

    @classmethod
    def zeta(cls, n: int) -> "CycElt":
        return cls(n, (0, 1))

    # -- representation helpers ---------------------------------------------

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
        out = [Fraction(0)] * m
        for i, c in enumerate(self.coeffs):
            if c:
                out[(i * mult) % m] += c
        return CycElt(m, out)

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
        object.__setattr__(self, "_min", result)
        return result

    def _rewrite_in(self, d: int):
        """Solve for coordinates of self in the power basis of Q(zeta_d)."""
        basis = [CycElt(d, [0] * j + [1]).embed(self.n).coeffs
                 for j in range(euler_phi(d))]
        return _solve_exact(basis, self.coeffs)

    def key(self):
        """Canonical sort/hash key: minimal conductor + coefficients there."""
        d, vec = self._minimal_form()
        return (d, vec)

    @property
    def conductor(self) -> int:
        return self.n

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise CycError("element is not rational")
        return self.coeffs[0]

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

    def __add__(self, other):
        o = self._coerce(other, self.n)
        if o is None:
            return NotImplemented
        a, b = self._unify(o)
        return CycElt(a.n, _padd(a.coeffs, b.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return CycElt(self.n, _pneg(self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other, self.n)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other, self.n)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other, self.n)
        if o is None:
            return NotImplemented
        a, b = self._unify(o)
        return CycElt(a.n, _pmul(a.coeffs, b.coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "CycElt":
        if self.is_zero():
            raise ZeroDivisionError("division by zero element")
        # extended Euclid in Q[x] against Phi_n
        r0, r1 = cyclotomic_polynomial(self.n), _trim(self.coeffs)
        s0, s1 = (), (Fraction(1),)
        while r1:
            q, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(s0, _pmul(q, s1))
        # r0 = gcd is a nonzero constant since Phi_n is irreducible
        if len(r0) != 1:
            raise AssertionError("gcd with Phi_n is not constant")
        inv = tuple(c / r0[0] for c in s0)
        return CycElt(self.n, inv)

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
        out = CycElt.one(self.n)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

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
            return self.coeffs[0] == other and self.is_rational()
        o = self._coerce(other, self.n)
        if o is None:
            return NotImplemented
        if self.n == o.n:
            return self.coeffs == o.coeffs
        a, b = self._unify(o)
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])  # agree with int/Fraction hashing
        return hash(self.key())

    # -- display --------------------------------------------------------------

    def __str__(self):
        return _join_terms(_terms(self.coeffs, "z"))

    def __repr__(self):
        return f"CycElt({self.n}, {str(self)!r})"


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


def _solve_exact(columns, target):
    """Solve sum_j x_j * columns[j] = target over Q; None if inconsistent."""
    rows = len(target)
    ncols = len(columns)
    ech, pivots = _echelon([[columns[j][i] for j in range(ncols)] + [target[i]]
                            for i in range(rows)])
    if pivots and pivots[-1] == ncols:   # a pivot in the target column
        return None
    sol = [Fraction(0)] * ncols
    for row, col in zip(ech, pivots):
        sol[col] = row[ncols]
    # verify (pivot-free columns were forced to zero)
    for i in range(rows):
        if sum(columns[j][i] * sol[j] for j in range(ncols)) != target[i]:
            return None
    return tuple(sol)


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
    den = math.lcm(*(c.denominator for c in u.coeffs))
    height = sum(abs(c.numerator) * (den // c.denominator) for c in u.coeffs)
    return math.log2(max(height, den))


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


def min_poly(u: CycElt) -> tuple:
    """Monic irreducible polynomial over Q vanishing at u (ascending coeffs).

    Computed as prod(x - v) over the distinct Galois orbit of u inside
    Q(zeta_n); irreducibility comes for free since the orbit is full.
    """
    orbit = []
    seen = set()
    for a in units(u.n):
        v = u.galois_apply(a)
        if v.coeffs not in seen:
            seen.add(v.coeffs)
            orbit.append(v)
    # poly with CycElt coefficients, ascending
    poly = [CycElt.one(u.n)]
    for v in orbit:
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

    The search factors x^k - v over Q(zeta_m) (sympy does the factorization;
    each candidate root is then re-verified here by exact arithmetic).
    An empty result certifies that no k-th root lies in the field.
    """
    if k < 1:
        raise ValueError("k must be positive")
    m = conductor if conductor is not None else v.n
    v = v.in_conductor(m)
    if v.is_zero():
        return (CycElt.zero(m),)
    if k == 1:
        return (v,)
    roots = _sympy_roots(v.coeffs, k, m)
    out = []
    seen = set()
    for coeffs in roots:
        w = CycElt(m, coeffs)
        if w ** k != v:
            raise AssertionError("factorization returned a non-root")
        if w.coeffs not in seen:
            seen.add(w.coeffs)
            out.append(w)
    out.sort(key=lambda w: w.key())
    return tuple(out)


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
