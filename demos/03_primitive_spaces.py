"""Primitive spaces, the anti-cocommutative space, and the coradical
filtration, computed exactly within a degree truncation.

The reduced coproduct never raises weighted degree, so each membership
condition is finite linear algebra over the rationals; the bound-to-bound
stability seen below is the certificate that nothing was missed.
"""

from hopfalg import (coradical_filtration, make_D, make_K, p2_space,
                     primitive_space)

d = make_D(0, 1, 0, 0, 0, 0, 0, 0)

print("the four-generator family D, reduced coproducts:")
print("   delta(Z) =", d.reduced_coproduct(d.algebra.gen("Z")))
print("   delta(W) =", d.reduced_coproduct(d.algebra.gen("W")))

for bound in (3, 4, 5):
    p = primitive_space(d, bound)
    q = p2_space(d, bound)
    print(f"bound {bound}: dim P = {p.dim}, basis {p.basis}; "
          f"dim P2 = {q.dim}, basis {q.basis}")

print("\ncoradical filtration of D within degree 4:")
for level in range(4):
    piece = coradical_filtration(d, level, 4)
    print(f"   level {level}: dim {piece.dim}")

k = make_K()
print("\nthe K family has the same profile: dim P =",
      primitive_space(k, 5).dim, " dim P2 =", p2_space(k, 5).dim)
