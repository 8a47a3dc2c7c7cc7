"""Exact arithmetic in cyclotomic fields Q(zeta_n).

An element is stored by its coordinates in the power basis
1, z, ..., z^(phi(n)-1) of Q[x]/Phi_n(x), where z stands for
zeta_n = exp(2*pi*i/n): phi(n) Python-int numerators `num` over one
positive int denominator `den`.  The representation at a fixed conductor
is canonical (reduced mod Phi_n, gcd(den, *num) = 1, zero is 0/1), so two
elements of the same conductor are equal iff their (num, den) pairs are
equal; elements of different conductors are compared after embedding both
into the lcm field via zeta_n = zeta_lcm^(lcm/n).  Construction does only
the work that can change the value: a list longer than phi(n) (a
convolution, a scatter) is reduced mod Phi_n in one integer pass (Phi_n is
monic and integral), a shorter one is padded, and the gcd is taken only
when den != 1, since gcd(1, *num) = 1.  Most operands in the geometry are
rational (the 0/1 entries of Moebius matrices, lambda = -4).  An int, a
Fraction, or a rational element whose conductor divides the other
operand's is a scalar (`CycElt._scalar`), taken before any embedding: a
product scales the other operand's numerators and a sum shifts its
constant coordinate, at the other operand's conductor, which is the lcm,
with no wrapper built and no embedding made.  A rational and an element
of another conductor compare with no embedding, and `embed` and
`galois_apply` write a rational down as it is; none of these convolves,
scatters or reduces.
Printing, keys, hashes and the canonical order read the ints: a
coordinate is printed from num[i] and den with one gcd when den != 1, the
key of an element is (n, num, den) at the least conductor that holds it,
and two keys are ordered by cross-multiplying their coordinates
(`_compare`).  That least conductor is reached from n one prime p at a
time by a closed-form step down to n/p (`CycElt._step_down`): a slice of
the coordinates when p | n/p, else one Galois image and a trace.
`coeffs`, the coordinates as Fractions, is built on each read, for the
enclosures and the sympy bridge only.  `inverse`
stays on the ints: 1/u = den * P / N for the integral w = den * u, where
x = w * P is taken down a chain of prime-order Galois steps (`_norm_chain`)
until it is fixed by the whole group, that is, a rational integer N.

The embedding zeta_n -> exp(2*pi*i/n) is fixed once and for all; every
statement about conjugation, signs and ordering of real elements refers
to it.

Supported operations: field arithmetic, the Galois action zeta -> zeta^a
for units a mod n and the units whose action fixes an element or sends it
to a given one (residues at a split prime refute a unit, and the units
left are tested exactly), complex conjugation (a = -1), sign
determination of real elements (symbolic zero test, then certified
interval refinement), minimal polynomials over Q from the traces of the
powers of the integral den * u by Newton's identities (Phi_n for zeta_n),
fixed fields of subgroups of (Z/n)* with explicit primitive elements,
k-th roots inside a given cyclotomic field, and certified complex
interval enclosures.
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
    return [d for d in range(1, n + 1) if n % d == 0]


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
    if 1 % n not in hs or any(math.gcd(a, n) != 1 for a in hs):
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

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs: Sequence):
        if n < 1:
            raise ValueError("conductor must be positive")
        fracs = [_coerce_fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in fracs))
        self._store(n, [c.numerator * (den // c.denominator) for c in fracs],
                    den)

    def _store(self, n: int, num: list, den: int):
        phi, table = _reduction_table(n)
        if len(num) > phi:
            # top down, x^i = -sum_j c_j x^(i - phi + j); Phi_n is monic, so
            # no division
            for i in range(len(num) - 1, phi - 1, -1):
                t = num[i]
                if t:
                    base = i - phi
                    for j, c in table:
                        num[base + j] -= t * c
            del num[phi:]
        elif len(num) < phi:
            num.extend([0] * (phi - len(num)))
        # canonical: gcd(den, *num) = 1, so zero is (0, ..., 0) / 1; at
        # den = 1 the gcd is 1
        if den != 1:
            g = math.gcd(den, *num)
            if g != 1:
                num = [x // g for x in num]
                den //= g
        _set_n(self, n)
        _set_num(self, tuple(num))
        _set_den(self, den)

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
        if type(q) is int:
            return _reduced(n, [q])
        q = Fraction(q)
        return _reduced(n, [q.numerator], q.denominator)

    @classmethod
    def zeta(cls, n: int) -> "CycElt":
        return _reduced(n, [0, 1])

    # -- representation helpers ---------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The power-basis coordinates as Fractions (num[i] / den)."""
        return tuple(Fraction(x, self.den) for x in self.num)

    def embed(self, m: int) -> "CycElt":
        """Rewrite the element in Q(zeta_m); requires n | m."""
        if m == self.n:
            return self
        if m % self.n != 0:
            raise ValueError(f"cannot embed conductor {self.n} into {m}")
        if self.is_rational():
            return _reduced(m, [self.num[0]], self.den)
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
        x = self._minimal_form()
        if m % x.n == 0:
            return x.embed(m)
        raise ValueError(
            f"element of conductor {x.n} does not lie in Q(zeta_{m})")

    def _minimal_form(self) -> "CycElt":
        """The element at the smallest conductor d | n containing it.

        Q(zeta_d) and Q(zeta_e) meet in Q(zeta_gcd(d, e)), so the d | n
        with the element in Q(zeta_d) are closed under gcd: the least one
        divides all others and is reached one prime at a time, from d = n
        (d = 1 for a rational) down to d/p while the element lies in
        Q(zeta_(d/p)).  A prime that fails at d fails at every later d,
        which divides this one with the same power of p, so each prime
        steps until it fails once.  Each step is in closed form
        (`_step_down`): a slice of the coordinates when p | d/p, else one
        Galois image and the trace over p - 1."""
        if self.is_rational():
            return _reduced(1, [self.num[0]], self.den)
        x = self
        for p in [p for p in _divisors(self.n) if _is_prime(p)]:
            while x.n % p == 0:
                y = x._step_down(p)
                if y is None:
                    break
                x = y
        return x

    def _step_down(self, p: int) -> Optional["CycElt"]:
        """The element at conductor e = n/p, for a prime p | n; None when it
        does not lie in Q(zeta_e).

        When p | e, phi(n) = p phi(e) and z = zeta_n is a root of
        x^p - zeta_e, so z^(p j + r) = zeta_e^j z^r, j < phi(e), r < p:
        the power basis of Q(zeta_n) is the basis z^r over Q(zeta_e) times
        the power basis of Q(zeta_e).  The element lies in Q(zeta_e) iff
        its coordinates off the multiples of p are zero, and then those at
        z^(p j) = zeta_e^j are its coordinates there.

        When p does not divide e, Gal(Q(zeta_n)/Q(zeta_e)) is cyclic of
        order p - 1, generated by the unit a = 1 (mod e) that is a
        primitive root r mod p, and the element lies in Q(zeta_e) iff a
        fixes it (for p = 2 the two fields are one).  Then it is its trace
        over p - 1.  With s e + t p = 1, z^i = zeta_e^(t i) zeta_p^(s i),
        and the trace of zeta_p^j is p - 1 when p | j and -1 otherwise, so
        the trace of z^i is (p - 1) zeta_e^(t i) when p | i and
        -zeta_e^(t i) otherwise."""
        num, e = self.num, self.n // p
        if e % p == 0:
            if any(c for i, c in enumerate(num) if i % p):
                return None
            return _reduced(e, list(num[::p]), self.den)
        if p > 2:
            r = _root_of_unity_mod(p - 1, p)
            if self.galois_apply(1 + e * ((r - 1) * pow(e, -1, p) % p)) \
                    != self:
                return None
        t = pow(p, -1, e)
        out = [0] * e
        for i, c in enumerate(num):
            if c:
                out[t * i % e] += c * (p - 1) if i % p == 0 else -c
        return _reduced(e, out, self.den * (p - 1))

    def key(self):
        """Canonical equality and hash key: (n, num, den) at the least
        conductor n that holds the element, where the integer form is
        canonical.  It is no sort key: the canonical order compares keys
        by `_compare` (`sort_key`)."""
        x = self._minimal_form()
        return (x.n, x.num, x.den)

    def sort_key(self):
        """Key of the canonical order, the order of the tuples (n, coeffs)
        of minimal forms: key() under `_compare`."""
        return _ordered(self.key())

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

    def _scalar(self, x) -> Optional[tuple]:
        """(numerator, positive denominator) of x when x is a scalar for
        self: an int, a Fraction, or a rational element whose conductor
        divides self's, which self's conductor holds as it is; None
        otherwise."""
        if isinstance(x, CycElt):
            if self.n % x.n == 0 and not any(x.num[1:]):
                return x.num[0], x.den
            return None
        if isinstance(x, int):
            return x, 1
        if isinstance(x, Fraction):
            return x.numerator, x.denominator
        return None

    def _shifted(self, sign: int, y: int, d: int) -> "CycElt":
        """sign * self + y/d, for sign = +-1 and ints y and d > 0, at
        self's conductor, in one construction."""
        if not y and sign == 1:
            return self
        den = math.lcm(self.den, d)
        f = sign * (den // self.den)
        num = [x * f for x in self.num]
        num[0] += y * (den // d)
        return _reduced(self.n, num, den)

    def _combine(self, other, sign: int):
        """self + sign * other over one common denominator.  A scalar side
        (`_scalar`) shifts the other side's constant coordinate, with no
        wrapper and no embedding."""
        s = self._scalar(other)
        if s is not None:
            return self._shifted(1, sign * s[0], s[1])
        if not isinstance(other, CycElt):
            return NotImplemented
        s = other._scalar(self)
        if s is not None:
            return other._shifted(sign, *s)
        a, b = self._unify(other)
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
        # a scalar factor (`_scalar`, zero included) scales the other one's
        # numerators at its own conductor, the lcm: no wrapper, no
        # embedding, and the product stays in the power basis
        a, s = self, self._scalar(other)
        if s is None:
            if not isinstance(other, CycElt):
                return NotImplemented
            a, s = other, other._scalar(self)
        if s is not None:
            y, d = s
            return _reduced(a.n, [x * y for x in a.num], a.den * d)
        a, b = self._unify(other)
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
        if self.is_rational():
            return self
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
        if self.n != other.n and (self.is_rational() or other.is_rational()):
            # a rational is rational at every conductor, and an element
            # irrational at its own is irrational at every one: no
            # embedding
            return (self.num[0] == other.num[0] and self.den == other.den
                    and self.is_rational() and other.is_rational())
        a, b = self._unify(other)
        return a.num == b.num and a.den == b.den

    def __hash__(self):
        if self.is_rational():
            # agree with int and Fraction hashing
            if self.den == 1:
                return hash(self.num[0])
            return hash(self.as_rational())
        return hash(self.key())

    # -- display --------------------------------------------------------------

    def __str__(self):
        den = self.den
        return _join_terms(_terms(((c, den) for c in self.num), "z"))

    def __repr__(self):
        return f"CycElt({self.n}, {str(self)!r})"


# the setters of CycElt's slot descriptors, which write past its
# immutability guard
_set_n, _set_num, _set_den = (
    getattr(CycElt, slot).__set__ for slot in CycElt.__slots__)


def _terms(pairs, var: str) -> list:
    """(negative, body) for each nonzero c_i * var^i, ascending in i, for
    the int pairs (numerator, positive denominator) of the c_i; a body
    prints c_i in lowest terms, as str(Fraction) does.  LimitError (clause
    size_limit) when a numerator or denominator has more digits than
    Python converts to a string."""
    terms = []
    for i, (c, d) in enumerate(pairs):
        if not c:
            continue
        if d != 1:
            g = math.gcd(c, d)
            c, d = c // g, d // g
        try:
            body = str(abs(c)) if d == 1 else f"{abs(c)}/{d}"
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


def _compare(x: tuple, y: tuple) -> int:
    """-1, 0 or 1 as the element (n, num, den) = x comes before, with or
    after the element y in the order of the tuples (n, coeffs): by
    conductor, then at the first coordinate where the two differ.  Both
    denominators d and e are positive, so a_i / d < b_i / e iff
    a_i e < b_i d, and no Fraction is built."""
    n, x_num, d = x
    m, y_num, e = y
    if n != m:
        return -1 if n < m else 1
    for a, b in zip(x_num, y_num):
        a, b = a * e, b * d
        if a != b:
            return -1 if a < b else 1
    return 0


# the sort key of `_compare`, on (n, num, den) triples: key() orders
# minimal forms, and a triple of an element as it is orders it at its own
# conductor
_ordered = functools.cmp_to_key(_compare)


def common_field(values) -> tuple:
    """Coerce ints and Fractions to CycElt and embed every value into
    Q(zeta_m), m the lcm of their conductors; returns (m, list of values)."""
    vals = [x if isinstance(x, CycElt) else CycElt.from_rational(x)
            for x in values]
    m = math.lcm(*(x.n for x in vals))
    return m, [x.embed(m) for x in vals]


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


# the interval context of `_enclose`, built on its first call; every call
# sets the precision, so one context serves them all
_interval = None


def _enclose(u: CycElt, prec: int) -> Box:
    global _interval
    if _interval is None:
        from mpmath.ctx_iv import MPIntervalContext
        _interval = MPIntervalContext()
    ctx = _interval
    ctx.prec = prec
    two_pi = 2 * ctx.pi
    re = im = ctx.mpf(0)
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
    """Monic irreducible polynomial over Q vanishing at u (ascending
    coeffs): prod(x - v) over the distinct conjugates v of u, which the
    Galois group fixes and every rational polynomial vanishing at u has as
    roots, so of degree d = [Q(u):Q] = phi(n)/s, s = #{a : sigma_a(u) = u}.

    For the integral w = den * u, Tr(w^k)/s is the k-th power sum P_k of
    the conjugates of w.  z^i is a primitive m-th root of unity,
    m = n/gcd(i, n), of trace mu(m) phi(n)/phi(m) (a Ramanujan sum; mu(m)
    is minus the second-highest coefficient of Phi_m).  Newton's identities
    k e_k = sum_(i<=k) (-1)^(i-1) e_(k-i) P_i give ints, as w is integral,
    and x^j has the coefficient (-1)^(d-j) e_(d-j) / den^(d-j).  The powers
    of w and the check that the polynomial vanishes at w, w^d plus the
    lower terms by Horner's rule (`poly_eval`), make 2d - 1 products.

    zeta_n itself, the power-basis vector (0, 1, 0, ..., 0) over 1, is a
    primitive n-th root of unity: its minimal polynomial is Phi_n
    (`cyclotomic_polynomial`), returned with no product.  It is the first
    seed of `fixed_field` and the primitive element of Q(zeta_n)."""
    n, phi = u.n, euler_phi(u.n)
    if u.den == 1 and u.num == (0, 1) + (0,) * (phi - 2):
        return tuple(map(Fraction, cyclotomic_polynomial(n)))
    s = phi if u.is_rational() else len(fixing_subgroup(u))
    d = phi // s
    cycs = [cyclotomic_polynomial(n // math.gcd(i, n)) for i in range(phi)]
    weights = [-c[-2] * phi // (len(c) - 1) for c in cycs]
    w = power = _reduced(n, list(u.num))
    e, sums = [1], []
    for k in range(1, d + 1):
        if k > 1:
            power = power * w
        total, rest = divmod(sum(map(int.__mul__, power.num, weights)), s)
        sums.append(total)
        e_k, rest_k = divmod(sum((-1) ** (i - 1) * e[k - i] * sums[i - 1]
                                 for i in range(1, k + 1)), k)
        if rest or rest_k:
            raise AssertionError("a power sum or e_k is not integral")
        e.append(e_k)
    coeffs = [(-1) ** j * c for j, c in enumerate(e)][::-1]
    if not (power + poly_eval(coeffs[:-1], w)).is_zero():
        raise AssertionError("the polynomial does not vanish at w")
    return tuple(Fraction(c, u.den ** (d - j)) for j, c in enumerate(coeffs))


def poly_eval(poly: Sequence, x: CycElt) -> CycElt:
    """Evaluate a rational polynomial (ascending coeffs) at a field element."""
    acc = CycElt.zero(x.n)
    for c in reversed(list(poly)):
        acc = acc * x + CycElt.from_rational(c, x.n)
    return acc


def format_poly(poly: Sequence, var: str = "x") -> str:
    """A rational polynomial (ascending coeffs), highest power first."""
    return _join_terms(_terms(((c.numerator, c.denominator)
                               for c in map(Fraction, poly)), var)[::-1])


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
    """The seeds of `fixed_field` past 1, each built when it is tried."""
    powers = []
    for num in _powers_of_zeta(n)[1:]:
        powers.append(_reduced(n, list(num)))
        yield powers[-1]
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

    The primitive element is the first H-trace sum_{a in H} sigma_a(seed),
    over a deterministic sequence of small seeds each built when it is
    tried, whose minimal polynomial (one `min_poly` a seed) has the degree
    phi(n)/|H| of the field.  The seeds are 1, z, z^2, ... and small sums
    of powers of z (`_seed_candidates`); the H-trace of 1 is the rational
    |H|, so 1 is tried only when the field is Q, and it is Q's primitive
    element.
    """
    hs = frozenset(a % n for a in H)
    if not is_subgroup(hs, n):
        raise ValueError("H is not a subgroup of (Z/n)*")
    want = euler_phi(n) // len(hs)
    seeds = _seed_candidates(n) if want > 1 else [CycElt.one(n)]
    for seed in itertools.islice(seeds, _SEED_BUDGET):
        t = sum((seed.galois_apply(a) for a in hs), CycElt.zero(n))
        mp = min_poly(t)
        if len(mp) - 1 == want:
            return Subfield(conductor=n, subgroup=hs, primitive=t, minpoly=mp)
    raise SeedSearchExhausted(
        f"no primitive element found for |H|={len(hs)}, n={n} "
        f"within {_SEED_BUDGET} seeds")


def fixing_subgroup(u: CycElt, n: Optional[int] = None) -> frozenset:
    """Units a mod n with sigma_a(u) = u; Q(u) is the fixed field of this.

    Reduction at the split prime p of n is a ring homomorphism on the
    elements whose denominator p does not divide, so a unit under which
    the residue of u moves, u(r^a) != u(r), moves u and is refuted; the
    units left are tested exactly (`_galois_matches`)."""
    v = u.in_conductor(u.n if n is None else n)
    return _galois_matches(v, v)


def _galois_matches(v: CycElt, w: CycElt) -> frozenset:
    """The units a mod n with sigma_a(v) = w, for v and w at one conductor
    n.

    Reduction zeta_n -> r at the split prime p of n (`_split_prime`) is a
    ring homomorphism on the elements whose denominator p does not divide,
    and it sends sigma_a(v) to v evaluated at r^a (`_residue`).  So a unit
    with v(r^a) != w(r) mod p is refuted at once, and only the units left
    are tested exactly by `galois_apply`.  Every unit is tested exactly
    when p divides the denominator of v or w, which then have no
    residue."""
    n = v.n
    p, r = _split_prime(n)
    target = _residue(w, r, p)
    candidates = units(n)
    if target is not None and v.den % p:
        candidates = [a for a in candidates
                      if _residue(v, pow(r, a, p), p) == target]
    return frozenset(a for a in candidates if v.galois_apply(a) == w)


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
    factorization) when it has degree k * phi(m) <= _MAX_ROOT_DEGREE over
    Q and that degree times the size of v in bits is at most
    _MAX_ROOT_WORK.  Each candidate root is then re-verified here by exact
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
        absent = _no_root_mod_p(v, k, m)
        if absent:
            return ()
        if absent is None:
            # x^k - v is past factoring at such k
            raise LimitError("root_limit", f"no prime p = 1 (mod lcm({m}, "
                             f"{k})) below {_PRIME_LIMIT} can decide the "
                             f"{k}-th roots of {v} in Q(zeta_{m})")
        degree = k * euler_phi(m)
        if degree > _MAX_ROOT_DEGREE:
            raise LimitError("root_limit", f"the {k}-th roots of {v} in "
                             f"Q(zeta_{m}) need a factorization of degree "
                             f"{degree} over Q, more than the maximum "
                             f"{_MAX_ROOT_DEGREE}")
        bits = _size_bits(v)
        if degree * bits > _MAX_ROOT_WORK:
            raise LimitError("root_limit", f"the {k}-th roots of {v} in "
                             f"Q(zeta_{m}) need a factorization of degree "
                             f"{degree} over Q of a {bits:.1f}-bit value, "
                             f"{degree * bits:.0f} degree-bits, more than "
                             f"the maximum {_MAX_ROOT_WORK}")
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
    out.sort(key=CycElt.sort_key)
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


def _unity_exponent(v: CycElt) -> Optional[int]:
    """The j < lcm(2, m) with v = omega^j, m = v.n, when v is a root of
    unity; None otherwise.  The roots of unity of Q(zeta_m) are the powers
    of omega = zeta_m for even m and -zeta_m for odd m, of order
    lcm(2, m)."""
    form = _monomial_form(v)
    if form is None or abs(form[0]) != 1:
        return None
    q, t = form
    m = v.n
    if m % 2 == 0:
        return t if q > 0 else (t + m // 2) % m
    # omega^j = (-1)^j zeta_m^j for odd m, so the sign is the parity of j
    return t if (t % 2 == 0) == (q > 0) else t + m


def _monomial_roots(v: CycElt, k: int, m: int):
    """Every k-th root of v in Q(zeta_m) when v = q * zeta_m^t with q
    rational (a list, empty when there is none); None for any other v.

    The roots of unity of Q(zeta_m) are the powers of omega, of order
    M = lcm(2, m) (`_unity_exponent`).  When |q| is the k-th power of a
    rational r, v = r^k * omega^t and a root w has (w / r)^k = omega^t, so
    the roots are the r * omega^u with u * k = t (mod M).  Otherwise w^(kM) = q^M, so by Schinzel's theorem
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
        # v = (top / bottom)^k * omega^t
        t = _unity_exponent(_reduced(m, [0] * t + [1 if q > 0 else -1]))
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
# _is_prime is exact below this bound; a value that no prime can be tried
# on is rejected by kth_roots (clause root_limit)
_PRIME_LIMIT = 3 * 10 ** 24
# the largest degree k * phi(m) of x^k - v over Q that kth_roots factors
# (clause root_limit): at 64 the roots of (2 + z)^32 at m = 4 took 0.6 s,
# of (1 + z)^8 at m = 24 1.8 s and of (1 + z + z^7)^2 at m = 120 6.8 s; at
# 128, of (1 + z)^16 at m = 16, 10-11 s, and at 512, of (2 + z)^256 at
# m = 4, 73 s
_MAX_ROOT_DEGREE = 64
# the largest degree times _size_bits(v) that kth_roots factors (clause
# root_limit): the cost grows with the size of v, most at large m.  At
# degree 64 and m = 120, (1 + z + z^7)^2 (3.2 bits) took 7 s,
# (3^10 + z)^2 (31.7 bits) 15 s, (3^12 + z)^2 (38.0 bits) 19 s,
# (3^20 + z)^2 (63.4 bits) 52 s and (3^40 + z)^2 (127 bits) more than
# 100 s; (3^30 + z)^8 at m = 16 (380 bits) 11 s.  (2 + z)^32 at m = 4,
# 64 times 37.6 bits = 2409, takes about 1 s
_MAX_ROOT_WORK = 2560


def _no_root_mod_p(v: CycElt, k: int, m: int) -> Optional[bool]:
    """True when a prime p = 1 (mod lcm(m, k)) shows that v, at conductor
    m, has no k-th root in Q(zeta_m).

    Each primitive m-th root of unity r mod p gives a reduction
    zeta_m -> r onto F_p.  Where the image of v is nonzero, v is a unit
    there, and so is any w with w^k = v; so w would reduce to a k-th root
    of v's image.  An image that Euler's criterion finds to be no k-th
    power thus certifies that no root exists.  False means only that the
    primes tried found no such image, and None that no prime was tried.
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
        for a in units(m):
            image = _residue(v, pow(r, a, p), p)
            if image and pow(image, (p - 1) // k, p) != 1:
                return True
        tried += 1
        if tried == _CERT_PRIMES:
            break
    return False if tried else None


def _residue(v: CycElt, r: int, p: int) -> Optional[int]:
    """The image of v in F_p under zeta_n -> r, for a prime p and a
    primitive n-th root of unity r mod p (n = v's conductor): sum_i num[i]
    r^i / den.  It is a ring homomorphism on the elements whose
    denominator p does not divide, and None on the others."""
    if v.den % p == 0:
        return None
    image = 0
    for c in reversed(v.num):
        image = (image * r + c) % p
    return image * pow(v.den, -1, p) % p


@functools.cache
def _split_prime(n: int) -> tuple:
    """(p, r) for the least prime p = 1 (mod n) above 2^31 and a primitive
    n-th root of unity r mod p, for `_residue` at conductor n.  The prime is
    large, so that a few elements rarely share a residue."""
    p = (1 << 31) // n * n + 1
    while p < 1 << 31 or not _is_prime(p):
        p += n
    return p, _root_of_unity_mod(n, p)


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
