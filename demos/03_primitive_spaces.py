"""Primitive spaces, the anti-cocommutative space, and the coradical
filtration, computed exactly and whole.

The reduced coproduct never raises weighted degree, so each membership
condition is finite linear algebra over the rationals.  Each space lies
in degrees <= its complete bound, read off the lantern, so it is
computed there once and nothing above it is missed.
"""

from hopfalg import (coradical_filtration, make_D, make_K, p2_space,
                     primitive_space)

d = make_D(0, 1, 0, 0, 0, 0, 0, 0)

print("the four-generator family D, reduced coproducts:")
print("   delta(Z) =", d.reduced_coproduct(d.algebra.gen("Z")))
print("   delta(W) =", d.reduced_coproduct(d.algebra.gen("W")))

p = primitive_space(d)
q = p2_space(d)
print(f"dim P = {p.dim}, basis {p.basis}, in degrees <= {p.complete_bound}")
print(f"dim P2 = {q.dim}, basis {q.basis}, in degrees <= {q.complete_bound}")

print("\ncoradical filtration of D:")
for level in range(4):
    piece = coradical_filtration(d, level)
    print(f"   level {level}: dim {piece.dim}, "
          f"in degrees <= {piece.complete_bound}")

k = make_K()
print("\nthe K family has the same profile: dim P =",
      primitive_space(k).dim, " dim P2 =", p2_space(k).dim)
