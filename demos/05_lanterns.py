"""Lanterns: the graded Lie algebra dual to the associated graded algebra.

The lantern only sees the filtration skeleton of the Hopf algebra, but
its shape separates the three families of connected Hopf algebras of
GK-dimension four: abelian (enveloping algebras of Lie algebras),
Heisenberg plus a central line (enveloping algebras of 4-dim CLAs), and
the two-step chain (the primitively-thin families).
"""

from hopfalg import (associated_graded, enveloping, lantern_of_cla,
                     lantern_of_hopf, make_D, make_K, make_cla_35,
                     make_lie_preset)

print("U(g) for the 4-dim abelian Lie algebra:")
print("  ", lantern_of_hopf(make_lie_preset("abelian4")))

print("U(g) for the Heisenberg Lie algebra (still abelian -- the lantern")
print("forgets the bracket of a cocommutative Hopf algebra):")
print("  ", lantern_of_hopf(make_lie_preset("heis3")))

L = make_cla_35("f")
print("\nU(L) for a 4-dimensional anti-cocommutative CLA:")
print("  ", lantern_of_hopf(enveloping(L)))
print("computed directly from the CLA coproduct:")
print("  ", lantern_of_cla(L))

d = make_D(0, 1, 1, 0, 0, 1, 2, 0)
print("\na deformed D-family member: the commutators die in gr,")
gr = associated_graded(d)
print("   gr has commutator table", dict(gr.algebra.kappa), "(commutative)")
print("but the lantern keeps the two-step chain:")
print("  ", lantern_of_hopf(d))

print("\nthe K family gives the same chain:")
print("  ", lantern_of_hopf(make_K()))
