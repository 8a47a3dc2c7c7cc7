"""Spans around the public functions of each pseudoreal module, installed
from the benchmark's own files.

A function is replaced wherever a caller looks it up: in every
`pseudoreal.*` module namespace that holds it (re-bound imports such as
`pseudoreal.descent.kth_roots` or `pseudoreal.cli.field_of_moduli`, and
module globals such as `pseudoreal.cyclotomic.min_poly` that
`fixed_field` resolves at call time) and in the `CycElt` class, where
`__rmul__` is the same function object as `__mul__`.  Replacing only the
defining name would leave every re-bound name untraced and its count at
zero.

Spans are aggregated in memory per name: calls, self time (span time minus
the time of child spans), calls per (parent, child) pair, and a per-name
sum of a value read from the result where one is defined.
"""

from __future__ import annotations

import functools
import sys
import time

# (span name, owner path, attribute); owner is a module or module:Class
TARGETS = (
    ("cyclotomic.mul", "pseudoreal.cyclotomic:CycElt", "__mul__"),
    ("cyclotomic.inverse", "pseudoreal.cyclotomic:CycElt", "inverse"),
    ("cyclotomic.galois_apply", "pseudoreal.cyclotomic:CycElt", "galois_apply"),
    ("cyclotomic.key", "pseudoreal.cyclotomic:CycElt", "key"),
    ("cyclotomic.kth_roots", "pseudoreal.cyclotomic", "kth_roots"),
    ("cyclotomic.fixed_field", "pseudoreal.cyclotomic", "fixed_field"),
    ("cyclotomic.min_poly", "pseudoreal.cyclotomic", "min_poly"),
    ("cyclotomic.approx", "pseudoreal.cyclotomic", "approx"),
    ("cyclotomic.real_sign", "pseudoreal.cyclotomic", "real_sign"),
    ("moebius.set_maps", "pseudoreal.moebius", "set_maps"),
    ("configurations.u_orbit", "pseudoreal.configurations", "u_orbit"),
    ("configurations.symmetries", "pseudoreal.configurations", "symmetries"),
    ("configurations.equivalent", "pseudoreal.configurations", "equivalent"),
    ("family.validate", "pseudoreal.family", "validate"),
    ("family.analyze", "pseudoreal.family", "analyze"),
    ("moduli.classify_sigma", "pseudoreal.moduli", "classify_sigma"),
    ("moduli.stabilizer", "pseudoreal.moduli", "stabilizer"),
    ("moduli.field_of_moduli", "pseudoreal.moduli", "field_of_moduli"),
    ("descent.lift_to_monomial", "pseudoreal.descent", "lift_to_monomial"),
    ("descent.transports_curve", "pseudoreal.descent", "transports_curve"),
    ("descent.extend_cyclic", "pseudoreal.descent", "extend_cyclic"),
    ("descent.cocycle_check", "pseudoreal.descent", "cocycle_check"),
    ("descent.compose_twist", "pseudoreal.descent", "compose_twist"),
    ("cli.main", "pseudoreal.cli", "main"),
)

# value summed from each result: empty root lists, maps found, stabilizer
# order, closing candidates
RESULT_VALUES = {
    "cyclotomic.kth_roots": lambda r: 0 if r else 1,
    "moebius.set_maps": len,
    "moduli.stabilizer": len,
    "descent.cocycle_check": lambda r: 1 if r.ok else 0,
}


def _owner(path):
    module, _, cls = path.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_time = {}
        self.edges = {}
        self.values = {}
        self.sites = {}
        self._stack = []   # [name, child time] of open spans
        self._undo = []

    def _wrap(self, name, fn):
        observe = RESULT_VALUES.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_time[name] = (self.self_time.get(name, 0.0)
                                        + dur - frame[1])
                edge = (parent, name)
                self.edges[edge] = self.edges.get(edge, 0) + 1
            if observe is not None:
                self.values[name] = self.values.get(name, 0) + observe(result)
            return result

        return span

    def install(self):
        """Replace every lookup site of each target; returns self."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "pseudoreal" or n.startswith("pseudoreal.")]
        for name, path, attr in TARGETS:
            owner = _owner(path)
            orig = vars(owner)[attr]
            wrapper = self._wrap(name, orig)
            holders = namespaces + ([owner] if isinstance(owner, type) else [])
            found = 0
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, orig))
                        found += 1
            self.sites[name] = found
        return self

    def remove(self):
        for holder, key, orig in reversed(self._undo):
            setattr(holder, key, orig)
        self._undo.clear()

    def edge(self, parent, child) -> int:
        return self.edges.get((parent, child), 0)
