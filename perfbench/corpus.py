"""Seeded query corpus for the three workloads, with the checks that the
benchmark applies to every returned document.

Each workload is a fixed list of slots.  A slot holds a finite list of
candidate queries of one shape (subcommand, conductor, parameter form)
whose costs are close to each other; a round draws one candidate per slot
with the seeded generator.  The composition of a round therefore does not
depend on the seed, only the parameters do, which keeps the figures of one
seed comparable with those of another.  Worked-example slots have a single
candidate, so every round checks them.

The pool of all candidates is finite, so the structured document of every
query that any seed can produce is recorded once (see record.py) and each
run compares its documents with that record.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

WORKLOADS = ("moduli-sweep", "descent", "cli-geometry")


@dataclass(frozen=True)
class Query:
    slot: str
    argv: tuple
    expect_code: int = 0
    # check(doc, state) -> error message or None; state is shared by the
    # queries of one round so that paired queries can be checked together
    check: Optional[Callable] = field(default=None, compare=False)

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def euler_phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if math.gcd(a, n) == 1)


def units(n: int) -> list:
    return [a for a in range(1, n + 1) if math.gcd(a, n) == 1 and a < n] or [1]


def order_mod(g: int, n: int) -> int:
    d = 1
    while pow(g, d, n) != 1 % n:
        d += 1
    return d


# -- independent numeric evaluation of element expressions -------------------


class _Numeric:
    """Complex value of an element expression (`z` = exp(2 pi i / n)), with
    the grammar of the program's parser.  Used only for checks that must
    not trust the program: equivalence witnesses and relabeling invariants.
    """

    def __init__(self, text: str, n: int):
        self.s = text.replace(" ", "")
        self.i = 0
        self.z = cmath.exp(2j * math.pi / n)

    def parse(self) -> complex:
        v = self.expr()
        if self.i != len(self.s):
            raise ValueError(f"trailing input in {self.s!r}")
        return v

    def peek(self):
        return self.s[self.i] if self.i < len(self.s) else ""

    def expr(self):
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.s[self.i]
            self.i += 1
            v = v + self.term() if op == "+" else v - self.term()
        return v

    def term(self):
        v = self.factor()
        while self.peek() in ("*", "/"):
            op = self.s[self.i]
            self.i += 1
            v = v * self.factor() if op == "*" else v / self.factor()
        return v

    def factor(self):
        if self.peek() == "-":
            self.i += 1
            return -self.factor()
        if self.peek() == "+":
            self.i += 1
            return self.factor()
        base = self.atom()
        if self.peek() == "^":
            self.i += 1
            sign = 1
            if self.peek() == "-":
                sign, self.i = -1, self.i + 1
            start = self.i
            while self.peek().isdigit():
                self.i += 1
            return base ** (sign * int(self.s[start:self.i]))
        return base

    def atom(self):
        ch = self.peek()
        if ch == "(":
            self.i += 1
            v = self.expr()
            self.i += 1
            return v
        if ch.isdigit():
            start = self.i
            while self.peek().isdigit():
                self.i += 1
            return complex(int(self.s[start:self.i]))
        if self.s.startswith("conj(", self.i):
            self.i += 5
            v = self.expr()
            self.i += 1
            return v.conjugate()
        if ch == "z":
            self.i += 1
            return self.z
        raise ValueError(f"cannot evaluate {self.s!r}")


def numeric(text: str, n: int) -> Optional[complex]:
    """Complex value of an expression; None stands for the point inf."""
    return None if text == "inf" else _Numeric(text, n).parse()


def _close(u: Optional[complex], v: Optional[complex]) -> bool:
    if u is None or v is None:
        return u is None and v is None
    return abs(u - v) <= 1e-9 * max(1.0, abs(u), abs(v))


def _six(triple, n):
    return [None, 0j, 1 + 0j] + [numeric(t, n) for t in triple]


def _cross_ratio(a, b, c, d) -> complex:
    """(a, b; c, d) = ((c - a)(d - b)) / ((c - b)(d - a)), inf allowed."""
    def diff(x, y):
        return None if x is None or y is None else x - y
    num = [diff(c, a), diff(d, b)]
    den = [diff(c, b), diff(d, a)]
    # factors containing inf cancel pairwise
    num_f = [x for x in num if x is not None]
    den_f = [x for x in den if x is not None]
    out = 1 + 0j
    for x in num_f:
        out *= x
    for x in den_f:
        out /= x
    return out


def relabel_invariants(points) -> tuple:
    """Power sums of the j-invariants of all four-point subsets: equal for
    six-point sets related by a Moebius map, whatever the labeling."""
    js = []
    for a, b, c, d in itertools.combinations(points, 4):
        lam = _cross_ratio(a, b, c, d)
        js.append(256 * (lam * lam - lam + 1) ** 3 / (lam * lam * (lam - 1) ** 2))
    return tuple(sum(j ** p for j in js) for p in (1, 2))


def _invariants_differ(u, v) -> bool:
    return any(abs(x - y) > 1e-6 * max(1.0, abs(x), abs(y))
               for x, y in zip(u, v))


def _map_image(m: dict, pt: Optional[complex], n: int) -> Optional[complex]:
    a, b, c, d = (numeric(m[k], n) for k in "abcd")
    if pt is None:
        return None if abs(c) < 1e-12 else a / c
    x = pt.conjugate() if m["anti"] else pt
    den = c * x + d
    if abs(den) < 1e-12:
        return None
    return (a * x + b) / den


# -- checks on returned documents ----------------------------------------------


def _stabilizer_invariants(n):
    def check(doc, state):
        res = doc["result"]
        stab = res["stabilizer"]
        if 1 % n not in stab:
            return "stabilizer misses 1"
        for a in stab:
            for b in stab:
                if (a * b) % n not in stab:
                    return f"stabilizer not closed: {a}*{b} mod {n}"
        if res["moduli_field"]["degree"] * len(stab) != euler_phi(n):
            return "moduli degree * |stabilizer| != phi(n)"
        return None
    return check


def _worked_moduli(n):
    base = _stabilizer_invariants(n)

    def check(doc, state):
        err = base(doc, state)
        if err:
            return err
        res = doc["result"]
        if n == 3:
            if res["stabilizer"] != [1, 2] or res["moduli_field"]["degree"] != 1:
                return "n=3: stabilizer must be all of (Z/3)* and the moduli field Q"
            mdf = res["min_def_field"]
            if mdf["degree"] != 2 or mdf["fixing_subgroup"] != [1]:
                return "n=3: minimal definition field must be Q(zeta_3)"
        if n == 5:
            if res["moduli_field"]["minpoly"] != "x^2 + x - 1":
                return "n=5: moduli minpoly must be x^2 + x - 1"
            if res["degree_over_moduli"] != 2:
                return "n=5: degree over moduli must be 2"
        if n == 8:
            if res["hypothesis_no_negation"] is not False:
                return "n=8: hypothesis_no_negation must be false"
            if res["degree_over_moduli"] != 4:
                return "n=8: degree over moduli must be 4"
        return None
    return check


def _descent_consistency(doc, state):
    res = doc["result"]
    cands = res["candidates"]
    closing = sum(1 for c in cands if c["cocycle_ok"])
    if res["candidate_count"] != len(cands) or res["closing_count"] != closing:
        return "candidate or closing count disagrees with the candidate list"
    if res["descends"] != (closing > 0):
        return "descends disagrees with the closing count"
    if res["missing_roots"] and cands:
        return "candidates listed although roots are missing"
    return None


def _worked_descent(n):
    def check(doc, state):
        err = _descent_consistency(doc, state)
        if err:
            return err
        res = doc["result"]
        if n == 8 and len(res["missing_roots"]) != 2:
            return "n=8, generator 3: expected 2 missing roots"
        if n == 16 and (res["candidate_count"], res["closing_count"]) != (32, 32):
            return "n=16, generator 3: expected 32 candidates, all closing"
        return None
    return check


def _rejected(clause):
    def check(doc, state):
        if doc.get("error", {}).get("kind") != clause:
            return f"expected rejection clause {clause}"
        return None
    return check


def _orbit_size(cfg_key):
    def check(doc, state):
        state[cfg_key] = doc["result"]["size"]
        return None
    return check


def _orbit_times_symmetries(cfg_key):
    def check(doc, state):
        size = state.get(cfg_key)
        conformal = len(doc["result"]["conformal"])
        if size is None or size * conformal != 720:
            return f"orbit size {size} * {conformal} conformal symmetries != 720"
        return None
    return check


def _equiv_true(n, first, second):
    def check(doc, state):
        res = doc["result"]
        if res["equivalent"] is not True or res["witness"] is None:
            return "relabeled pair not reported equivalent"
        src = _six(first, n)
        dst = _six(second, n)
        for p in src:
            img = _map_image(res["witness"], p, n)
            if not any(_close(img, q) for q in dst):
                return "witness does not carry the first six-point set onto the second"
        return None
    return check


def _equiv_false(doc, state):
    res = doc["result"]
    if res["equivalent"] is not False or res["witness"] is not None:
        return "pair from different relabeling orbits reported equivalent"
    return None


def _genus(k):
    def check(doc, state):
        if doc["result"]["genus"] != 1 + (2 * k - 3) * k ** 4:
            return "genus differs from 1 + (2k - 3) k^4"
        return None
    return check


def _analyze(k):
    def check(doc, state):
        res = doc["result"]
        if not (res["pseudo_real"] and res["aut_trivial"]
                and len(res["anticonformal"]) == 1
                and res["genus"] == 1 + (2 * k - 3) * k ** 4):
            return "admissible parameters must give a pseudo-real report"
        return None
    return check


def _classify(doc, state):
    res = doc["result"]
    if res["in_stabilizer"] != bool(res["matched_rows"]):
        return "in_stabilizer disagrees with the matched rows"
    if res["brute_force_agree"] is not True:
        return "table and enumeration disagree"
    return None


def _validate_ok(doc, state):
    return None if doc["result"]["valid"] is True else "admissible parameters rejected"


# -- parameter forms ----------------------------------------------------------


def _rational(q, j):
    """mu = q zeta^j, lambda = -q^2."""
    return f"-{q * q}", f"{q}*z^{j}"


def _irrational(a, b, j):
    """mu = beta zeta^j with beta = a + b (zeta + zeta^-1) real, so
    lambda = -beta^2 is irrational."""
    beta = f"({a} + {b}*(z + z^-1))"
    return f"-{beta}^2", f"{beta}*z^{j}"


def _family(cmd, n, lam, mu, k, *extra):
    # "--opt=value", because argparse takes a value such as -2*z for a flag
    return ("--output", "structured", cmd, "--conductor", str(n),
            "--k", str(k), f"--lambda={lam}", f"--mu={mu}") + tuple(extra)


# -- workloads ------------------------------------------------------------------


def _moduli_slots():
    def moduli(slot, n, lam, mu, check=None):
        return Query(slot, _family("moduli", n, lam, mu, 2),
                     check=check or _stabilizer_invariants(n))

    slots = []
    for n in (3, 5, 8):
        slots.append([moduli(f"worked-n{n}", n, "-4", "2*z", _worked_moduli(n))])
    # Round of 23: six queries of about 0.2 s, a cluster of eleven of about
    # 0.6 s that holds both the tail rank (the 13th) and the median, and six
    # of 0.7-11 s that carry most of the time.
    # The three heaviest slots are pinned to mu = 2 zeta (ROADMAP's corpus):
    # their cost differs between Galois conjugates by up to a tenth, which
    # would move the whole round with the seed.
    rational = {3: ((2, 3, 4, 5), (1, 2)), 8: ((2, 3), (3, 5, 7)),
                12: ((2, 3), (1, 5, 7, 11)), 16: ((2,), (1,)),
                24: ((2,), (1,)), 40: ((2,), (1,))}
    irrational = {5: ((1, 2), (1, 2, 3, 4)), 8: ((1, 2), (1, 3, 5, 7))}
    pools = {}
    for n, (qs, js) in rational.items():
        pools[n, "rational"] = [moduli(f"n{n}-rational", n, *_rational(q, j))
                                for q in qs for j in js]
    for n, (As, js) in irrational.items():
        pools[n, "irrational"] = [moduli(f"n{n}-irrational", n,
                                         *_irrational(a, 1, j))
                                  for a in As for j in js]
    counts = {(3, "rational"): 5, (12, "rational"): 6, (8, "rational"): 4,
              (5, "irrational"): 1, (8, "irrational"): 1, (16, "rational"): 1,
              (24, "rational"): 1, (40, "rational"): 1}
    for key, count in counts.items():
        slots += [pools[key]] * count
    return slots


def _weil(slot, n, lam, mu, g, k, check=_descent_consistency):
    return Query(slot, _family("weil-check", n, lam, mu, k, "--generator",
                               str(g), "--order", str(order_mod(g, n))),
                 check=check)


def _descent_slots():
    def pool(slot, n, rows):
        return [_weil(slot, n, *_rational(q, j), g, k) for q, j, g, k in rows]

    # Round of 17: three lifts with missing roots of 0.3-0.5 s, a cluster
    # of eleven n=16 lifts with missing roots (0.8 s) that holds both the
    # tail rank (the 7th) and the median, and three full lifts of 4-11 s
    # that carry most of the time.  Galois conjugates (mu -> sigma(mu))
    # keep whether roots are missing, so they widen each pool.
    miss8 = pool("n8-missing", 8, [(q, j, g, 4) for q, g in ((2, 3), (2, 7), (3, 3))
                                   for j in (1, 3, 5, 7)])
    miss16 = pool("n16-missing", 16, [(3, j, g, 2) for j in (2, 6, 10, 14)
                                      for g in (3, 7, 11, 15)])
    # the full lifts carry most of the time, so they are pinned like the
    # worked n=16 query: the seed varies the lifts with missing roots
    full12 = pool("n12-full", 12, [(3, 2, 7, 2)])
    full24 = pool("n24-full", 24, [(2, 1, 13, 2)])
    return ([[_weil("worked-n8", 8, "-4", "2*z", 3, 2, _worked_descent(8))],
             [_weil("worked-n16", 16, "-4", "2*z^2", 3, 2, _worked_descent(16))],
             full12, full24] + [miss8] * 2 + [miss16] * 11)


# configurations (lambda1, lambda2, lambda3) per conductor; some, such as
# (-1, 2, 1/2) and (i, -i, -1), have nontrivial symmetry groups, so orbits
# smaller than 720 occur
_CONFIGS = {
    1: [("-1", "2", "1/2"), ("2", "3", "5"), ("-2", "3", "1/3"), ("4", "-3", "1/2")],
    3: [("z", "z^2", "-1"), ("-4", "2*z", "-2*z"), ("z", "2", "-1/2")],
    4: [("z", "-z", "-1"), ("-5", "1 + 2*z", "-1 - 2*z"), ("z", "2", "3*z")],
    5: [("z", "z^2", "z^3"), ("-4", "2*z", "-2*z"), ("2*z", "3", "-z^2")],
    8: [("z", "z^3", "-1"), ("-4", "2*z", "-2*z"), ("z^2", "2*z", "3")],
    12: [("z", "z^5", "2"), ("-4", "2*z", "-2*z"), ("z^4", "3*z", "-2")],
}

# relabelings that fix the set {inf, 0, 1}, as maps on one point; the last
# one moves lambda1 to 0 and 0 to -lambda1/(1 - lambda1)
_RELABEL = (
    lambda x, c: f"1/({x})",
    lambda x, c: f"1 - ({x})",
    lambda x, c: f"({x})/(({x}) - 1)",
    lambda x, c: f"(({x}) - ({c[0]}))/(1 - ({c[0]}))",
)


def _relabeled(cfg, which, perm):
    if which == 3:
        pts = ["0", cfg[1], cfg[2]]
    else:
        pts = list(cfg)
    images = [_RELABEL[which](p, cfg) for p in pts]
    return tuple(images[i] for i in perm)


def _tweaked(cfg, n, shift):
    """A configuration outside cfg's relabeling orbit: lambda3 moved by
    `shift`, kept only when the relabeling invariants differ."""
    other = (cfg[0], cfg[1], f"{cfg[2]} + {shift}")
    vals = [numeric(t, n) for t in other]
    if any(_close(v, w) for v in vals for w in (0j, 1 + 0j)) or \
            any(_close(vals[i], vals[j]) for i, j in ((0, 1), (0, 2), (1, 2))):
        return None
    if not _invariants_differ(relabel_invariants(_six(cfg, n)),
                              relabel_invariants(_six(other, n))):
        return None
    return other


def _config_argv(cmd, n, cfg):
    return ("--output", "structured", cmd, "--conductor", str(n),
            f"--lambda1={cfg[0]}", f"--lambda2={cfg[1]}", f"--lambda3={cfg[2]}")


# family parameters for validate / analyze / classify: (n, lambda, mu)
_FAMILY = [(3, *_rational(2, 1)), (3, *_rational(3, 2)),
           (4, "-5", "1 + 2*z"), (4, "-13", "2 + 3*z"),
           (5, *_rational(2, 1)), (5, *_rational(3, 3)),
           (8, *_rational(2, 1)), (8, *_rational(3, 3)),
           (12, *_rational(2, 1)), (12, *_rational(3, 5))]

# one rejected parameter set per clause of family.validate, in clause order
_REJECT = [
    ("mu_zero", 1, "-4", "0", 2), ("mu_zero", 3, "-9", "0", 2),
    ("modulus", 4, "-4", "z", 2), ("modulus", 3, "-5", "2*z", 2),
    ("radius", 3, "-1", "z", 2), ("radius", 3, "-1/4", "z/2", 2),
    ("angle_real", 1, "-4", "2", 2), ("angle_real", 3, "-4", "-2", 2),
    ("angle_imaginary", 4, "-4", "2*z", 2), ("angle_imaginary", 4, "-4", "2*z^3", 2),
    ("critical_radius", 4, "-5", "2 + z", 2), ("critical_radius", 4, "-5", "-2 + z", 2),
    ("k_small", 3, "-4", "2*z", 0), ("k_small", 5, "-4", "2*z", 1),
    ("k_odd", 3, "-4", "2*z", 3), ("k_odd", 8, "-4", "2*z", 5),
]


def _geometry_slots():
    configs = [(n, cfg) for n in sorted(_CONFIGS) for cfg in _CONFIGS[n]]
    # Round of 27: nine queries under 5 ms (rejections, genus), nine of
    # 6-8 ms (crossratio, circles, validate) with the median in the middle,
    # and nine of 0.1-0.4 s (orbit, symmetries, equiv, analyze, classify).
    slots = []
    # crossratio of four of the six points
    slots.append([Query("crossratio", ("--output", "structured", "crossratio",
                                       "--conductor", str(n), "--", *pts))
                  for n, cfg in configs
                  for pts in (("inf", "0", cfg[0], cfg[1]),
                              ("1", cfg[0], cfg[1], cfg[2]))])
    slots.append([Query("circles", _config_argv("circles", n, cfg))
                  for n, cfg in configs])
    slots += slots[-2:] * 2
    # orbit then symmetries of the same configuration: a paired slot
    slots.append([(Query("orbit", _config_argv("orbit", n, cfg),
                         check=_orbit_size((n, cfg))),
                   Query("symmetries", _config_argv("symmetries", n, cfg),
                         check=_orbit_times_symmetries((n, cfg))))
                  for n, cfg in configs])
    equiv_true, equiv_false = [], []
    for n, cfg in configs:
        for which in range(len(_RELABEL)):
            for perm in ((0, 1, 2), (2, 0, 1), (1, 2, 0)):
                other = _relabeled(cfg, which, perm)
                equiv_true.append(Query(
                    "equiv-relabeled",
                    ("--output", "structured", "equiv", "--conductor", str(n),
                     "--", *cfg, *other),
                    check=_equiv_true(n, cfg, other)))
        for shift in (1, 2, 3):
            other = _tweaked(cfg, n, shift)
            if other is not None:
                equiv_false.append(Query(
                    "equiv-distinct",
                    ("--output", "structured", "equiv", "--conductor", str(n),
                     "--", *cfg, *other),
                    check=_equiv_false))
    slots += [equiv_true, equiv_true, equiv_false]
    slots += [[Query("validate", _family("validate", n, lam, mu, k),
                     check=_validate_ok)
               for n, lam, mu in _FAMILY for k in (2, 4)]] * 3
    by_clause = {}
    for clause, n, lam, mu, k in _REJECT:
        by_clause.setdefault(clause, []).append(
            Query(f"reject-{clause}", _family("validate", n, lam, mu, k),
                  expect_code=1, check=_rejected(clause)))
    slots += list(by_clause.values())
    slots += [[Query("analyze", _family("analyze", n, lam, mu, k),
                     check=_analyze(k))
               for n, lam, mu in _FAMILY for k in (2, 4)]] * 2
    slots += [[Query("classify", _family("classify", n, lam, mu, 2,
                                         "--sigma", str(s)),
                     check=_classify)
               for n, lam, mu in _FAMILY for s in units(n)]] * 2
    slots.append([Query("genus", ("--output", "structured", "genus", "--k",
                                  str(k)), check=_genus(k))
                  for k in (2, 4, 6, 8)])
    return slots


_SLOTS = {
    "moduli-sweep": _moduli_slots,
    "descent": _descent_slots,
    "cli-geometry": _geometry_slots,
}


def slots(workload: str) -> list:
    """The slot list of a workload; a slot entry is a Query or a tuple of
    Queries that run back to back."""
    return _SLOTS[workload]()


def _flatten(entry):
    return entry if isinstance(entry, tuple) else (entry,)


def pool(workload: str) -> list:
    """Every query any seed can draw, each once."""
    seen = {}
    for slot in slots(workload):
        for entry in slot:
            for q in _flatten(entry):
                seen.setdefault(q.key, q)
    return list(seen.values())


class Rounds:
    """Round r of a workload for one seed: one draw per slot."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.slots = slots(workload)

    def round(self, r: int) -> list:
        """Slots that share a pool draw from it without replacement, so a
        round never repeats a query: a repeat would find sympy's caches
        warm and run faster than a fresh query.  Paired entries (orbit,
        then symmetries of the same configuration) stay together."""
        rng = random.Random(f"{self.workload}/{self.seed}/{r}")
        uses = {}
        for slot in self.slots:
            uses[id(slot)] = uses.get(id(slot), 0) + 1
        draws = {}
        entries = []
        for slot in self.slots:
            if id(slot) not in draws:
                draws[id(slot)] = rng.sample(slot, uses[id(slot)])
            entries.append(draws[id(slot)].pop())
        # shuffled, so that queries of one cluster are spread over the run
        # and their median does not hinge on a few seconds of machine speed
        rng.shuffle(entries)
        return [q for entry in entries for q in _flatten(entry)]

    def warmup(self) -> list:
        """The first candidate of every slot whose subcommand has not been
        seen yet, cheapest slots first: pays lazy imports and first-call
        costs before timing starts."""
        seen = set()
        out = []
        for slot in self.slots:
            for q in _flatten(slot[0]):
                cmd = q.argv[2]
                if cmd not in seen:
                    seen.add(cmd)
                    out.append(q)
        return out
