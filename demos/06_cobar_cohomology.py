"""Bounded cobar cohomology: where the degree-3 extension classes live.

H^2 of the cobar complex of the primitively-thin GK-3 algebras is
two-dimensional, spanned by the classes of

    u = Z(x)X - X(x)Z + X*Y(x)X + X(x)X*Y
    t = Y(x)Z - Z(x)Y + X*Y(x)Y + Y(x)X*Y

and these are exactly the candidate coproduct corrections used to build
the four-generator families on top of the three-generator ones.
"""

from hopfalg import h2_report, is_coboundary, make_A
from hopfalg.ledger import cocycle_u

graded = make_A(0, 0, 0)
print("the graded model, by bidegree (note the two hits at (2,1), (1,2)):")
print(h2_report(graded, 6, by_bidegree=True))

print("\nu is a cocycle but not a coboundary:")
print("  ", is_coboundary(graded, cocycle_u(graded)))

w = graded.reduced_coproduct(graded.algebra.monomial({"X": 2, "Y": 1}))
print("a reduced coproduct is always a coboundary:")
print("  ", is_coboundary(graded, w))

print("\nthe deformations keep total H^2 = 2 (stable from bound 5 to 6):")
for params in [(1, 0, 0), (0, 0, 1)]:
    h = make_A(*params)
    r5, r6 = h2_report(h, 5), h2_report(h, 6)
    print(f"   A{params}: H^2 = {r5.total_h2} at N=5, "
          f"{r6.total_h2} at N=6")
