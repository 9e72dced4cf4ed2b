"""Coassociative Lie algebras: verify, envelope, extract, transform.

A CLA is a Lie algebra with a coassociative coproduct compatible with
the bracket inside U(L).  Enveloping a CLA gives a connected Hopf
presentation; extracting the anti-cocommutative space from that
presentation recovers the CLA literally.
"""

from fractions import Fraction

from hopfalg import (Matrix, cla_transform, conilpotency_index, enveloping,
                     extract_cla, kernel_delta, make_cla_35, make_cla_a,
                     verify_cla)

L = make_cla_a(1, 2, 0)
print("the 3-dimensional CLA with [z,x] = x, [z,y] = 2y, "
      "delta(z) = x(x)y - y(x)x:")
print(verify_cla(L))
print("ker delta has dimension", len(kernel_delta(L)),
      "and the conilpotency index is", conilpotency_index(L))

U = enveloping(L)
print("\nits enveloping Hopf presentation:", U)
back = extract_cla(U)
print("extracting the anti-cocommutative space recovers the CLA:",
      back == L)

lam = Fraction(2)
m = Matrix.from_rows([[0, 1, 0], [-1 / lam, 0, 0], [0, 0, 1 / lam]])
print("\nthe base change x -> y, y -> -1/2 x, z -> 1/2 z sends the "
      "parameter 2 to 1/2:")
print("   transformed == a(1, 1/2, 0):",
      cla_transform(L, m) == make_cla_a(1, Fraction(1, 2), 0))

H = make_cla_35("h", lam=3, a=0)
print("\na four-dimensional entry (variant h, lam = 3):")
print(verify_cla(H))
print("round trip:", extract_cla(enveloping(H)) == H)
