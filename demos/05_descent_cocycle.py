#!/usr/bin/env python3
"""Galois descent for r = 2, theta = pi/4: lifting the Moebius witness to
monomial curve isomorphisms, the field where the lift lives, and the
cocycle that proves definability over Q(i sqrt 2)."""

from pseudoreal.cyclotomic import GaloisElement, make_element
from pseudoreal.family import validate
from pseudoreal.moebius import Moebius
from pseudoreal.moduli import classify_sigma
from pseudoreal.descent import cocycle_check, extend_cyclic, \
    lift_to_monomial, torsor_verdicts

# The curve at (r, theta) = (2, pi/4) lives over Q(zeta_8) and its field
# of moduli is Q, but it cannot be defined over R.  The question: which
# quadratic imaginary extension of Q carries a model?  Descent needs, for
# a generator rho of the Galois group, an isomorphism onto the twisted
# curve lifting the Moebius witness T(z) = -4/z.
p8 = validate(-4, make_element("2*z", 8), 2)
rho8 = GaloisElement(8, 3)
T = classify_sigma(p8, rho8).witness
print("Moebius witness for rho:", T)

# Over Q(zeta_8) the lift does not exist: two scale squares have no
# square root in the field.  The diagnostics name them.
lift8 = lift_to_monomial(T, p8, rho8, 8)
print("\nlift over Q(zeta_8):", lift8.count, "isomorphisms")
for miss in lift8.missing:
    print("  missing:", miss)

# Over Q(zeta_16) everything exists: 32 projective candidates, all of
# which carry the curve onto its twist.
p16 = validate(-4, make_element("2*z^2", 16), 2)
rho = GaloisElement(16, 3)
lift16 = lift_to_monomial(Moebius(0, -4, 1, 0), p16, rho, 16)
print("\nlift over Q(zeta_16):", lift16.count, "isomorphisms")
print("coordinate permutation (1-based):",
      [i + 1 for i in lift16.perm])
print("scale squares:", [str(v) for v in lift16.powers])
print("one candidate:", lift16.first)

# Extend one candidate along the cyclic group <3> <= (Z/16)* of order 4
# via f_{g^j} = (f_{g^(j-1)})^g o f_g, and verify the Weil cocycle
# f_{tau sigma} = f_sigma^tau o f_tau for every pair: the datum follows the
# recursion, f_g transports the curve and the closure f_{g^4} is the identity.
print("\ncocycle verification:")
closing = 0
for f in lift16.maps():
    datum = extend_cyclic(f, 3, 4, p16, 16)
    result = cocycle_check(datum)
    assert result.ok == datum.closes
    closing += result.ok
print(f"candidates whose datum closes (f_rho^4 = identity): "
      f"{closing} of {lift16.count}")

# The candidates are delta o f0 for diagonal maps delta with square-root-
# of-unity scales, so one closure of f0 = lift16.first and a linear map
# over Z/2 on the exponent vectors of delta decide them all at once.
datum0 = extend_cyclic(lift16.first, 3, 4, p16, 16)
verdicts = torsor_verdicts(lift16, datum0)
torsor_closing = sum(ok for _, ok, _ in verdicts)
print(f"closing candidates read from one closure of f0: {torsor_closing}")
assert torsor_closing == closing
print("descent succeeds; the curve is definable over the degree-2 field "
      "fixed inside Q(zeta_16) by rho")
