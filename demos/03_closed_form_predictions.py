"""Closed forms for shifted determinants, and why negative arguments matter.

The forward-shift Catalan determinant is the product
prod_{1<=i<=j<=m-1} (2n+i+j)/(i+j).  Evaluated at a *negative* argument it
predicts the backward determinants: zeros first, then a signed copy of a
forward row.  The Narayana families behave the same way with an extra
power of t (and of 2t for type B).
"""

from hankelshift import (
    Catalan,
    CentralBinomial,
    HankelSpec,
    NarayanaB,
    NarayanaC,
    det,
    forward_catalan_det,
    narayana_forward_det,
    narayana_forward_det_recursive,
    predict_backward,
    reflection_check,
)

print("the product formula at small arguments (rows m, columns n):")
for m in range(5):
    row = [forward_catalan_det(m, n) for n in range(8)]
    print(f"  m={m}: {row}")

print()
print("negative arguments reflect, up to sign, onto shifted positive ones:")
for m, n in ((1, 4), (2, 4), (3, 7)):
    lhs = forward_catalan_det(m + 1, -n)
    rhs = forward_catalan_det(m + 1, n - m - 1)
    print(f"  value(m+1={m+1}, -{n}) = {lhs:>5}   vs value({n}-{m}-1) = {rhs:>5}"
          f"   reflection holds: {reflection_check(m, n)}")

print()
print("prediction vs computed determinant (separate routes; the Narayana ones share")
print("the packed update kernel ring.cross_quotient):")
for family in (Catalan(), CentralBinomial(), NarayanaC(), NarayanaB()):
    for m, n in ((1, 5), (2, 7)):
        predicted = predict_backward(family, m, n).value
        computed = det(HankelSpec(family, -m, n)).value
        mark = "ok" if predicted == computed else "MISMATCH"
        print(f"  {family.label:>16} m={m} n={n}: {str(predicted):>24}  [{mark}]")

print()
print("the Narayana forward determinants have no product formula, but two")
print("independent routes pin them down: a matrix and a recursion.")
for m, n in ((2, 3), (3, 3), (4, 2)):
    a = narayana_forward_det(m, n)
    b = narayana_forward_det_recursive(m, n)
    print(f"  m={m} n={n}: matrix {a}  recursion {b}  equal: {a == b}")
