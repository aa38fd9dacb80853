"""Backward-shifted Hankel matrices and the three determinant engines.

A negative shift slides the sequence off the top-left corner of the
matrix, leaving a triangle of zeros.  Those zeros routinely break the
condensation engine (it needs nonzero interior minors), which is exactly
why the package keeps three independent engines and cross-checks them.
Whole rows d(0..N) at one shift come from a single elimination.  A
vanishing minor, as in the zero triangle of a backward shift or inside a
row of the Catalan convolution powers, opens a look-ahead window: the
elimination swaps the zero pivot with the first nonzero row below, which
always lies inside the next block whose minor is nonzero, reads 0 for
each minor inside the window and goes on from there.
"""

from hankelshift import (
    Catalan,
    ConvCatalan,
    HankelSpec,
    NarayanaC,
    build,
    cross_check,
    det,
    det_bareiss,
    det_cofactor,
    det_condensation,
    leading_minors,
)

spec = HankelSpec(Catalan(), -3, 4)
matrix = build(spec)
print(f"matrix for {spec.family.label}, shift {spec.shift}, size {spec.size}:")
for row in matrix.rows:
    print("   ", "  ".join(f"{str(e):>3}" for e in row))

print()
print("the three engines on that matrix:")
print(f"  cofactor expansion : {det_cofactor(matrix)}")
print(f"  fraction-free elim : {det_bareiss(matrix)}")
cond = det_condensation(matrix)
print(f"  condensation       : {'unavailable (zero interior minor)' if cond is None else cond}")

print()
print("on integer matrices the dispatcher prefers condensation and falls back")
print("to elimination (polynomial matrices go straight to elimination):")
for shift in (2, 0, -1, -3):
    result = det(HankelSpec(Catalan(), shift, 6))
    print(f"  shift {shift:>2}: det = {str(result.value):>6}   engine = {result.engine}")

print()
print("whole backward rows from one elimination each (leading minors),")
print("reproducing the known determinant tables; the conv(k=5) row has runs")
print("of vanishing minors past its zero triangle, each crossed by one window:")
for family, shift, size in ((Catalan(), -1, 9), (Catalan(), -2, 9), (Catalan(), -3, 9),
                            (ConvCatalan(5), -2, 14)):
    row = leading_minors(HankelSpec(family, shift, size))
    cells = [det(HankelSpec(family, shift, n)).value for n in range(size + 1)]
    mark = "" if row == cells else "   MISMATCH with per-cell det"
    print(f"  {family.label}, shift {shift}: {', '.join(str(v) for v in row)}{mark}")

print()
print("polynomial entries work the same way (Narayana family, shift -1):")
for n in range(6):
    print(f"  n={n}: {det(HankelSpec(NarayanaC(), -1, n)).value}")

print()
print("cross_check runs every applicable engine and insists they agree:")
result = cross_check(HankelSpec(NarayanaC(), -2, 5))
print(f"  agreed value: {result.value} (reported engine: {result.engine})")
