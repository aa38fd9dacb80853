"""Frozen reference values used across the test suite.

Integer lists are published sequence values (OEIS A000108, A000984,
A001700, A000245, A002057 among others) and known determinant rows; the
polynomial rows are written in factored form exactly as published, each
factor as its ascending coefficient tuple, and multiplied out through Poly
arithmetic at import time.  Nothing here is produced by the code paths
under test.
"""

from hankelshift import Poly


def mono(degree: int, coeff: int = 1) -> Poly:
    return Poly.monomial(degree, coeff)


CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
CENTRAL_BINOMIAL = [1, 2, 6, 20, 70, 252, 924, 3432, 12870]

# Hankel determinant rows of the Catalan numbers, forward and backward.
DET_CATALAN_FWD = {
    0: [1] * 13,
    1: [1] * 13,
    2: list(range(1, 14)),
    3: [1, 5, 14, 30, 55, 91, 140, 204, 285, 385],
    4: [1, 14, 84, 330, 1001, 2548, 5712, 11628, 21945, 38962],
}
DET_CATALAN_BWD = {
    -1: [1, 0, -1, -2, -3, -4, -5, -6, -7, -8, -9, -10, -11],
    -2: [1, 0, 0, -1, -5, -14, -30, -55, -91, -140, -204, -285, -385],
    -3: [1, 0, 0, 0, 1, 14, 84, 330, 1001, 2548, 5712, 11628, 21945],
}

# Convolution powers of the Catalan numbers.
CONV_POWERS = {
    1: [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862],
    2: [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796],
    3: [1, 3, 9, 28, 90, 297, 1001, 3432, 11934, 41990],
    4: [1, 4, 14, 48, 165, 572, 2002, 7072, 25194, 90440],
}

# Determinant rows of convolution powers (order, shift) -> values.
DET_CONV = {
    (3, -2): [1, 0, 0, -1, -3, -3, 1, 6, 6, -1, -9, -9, 1, 12, 12],
    (3, 1): [1, 3, 3, -1, -6, -6, 1, 9, 9, -1, -12, -12, 1, 15, 15],
    (4, -3): [1, 0, 0, 0, 1, 4, -4, -20, 9, 56, -16, -120, 25, 220, -36],
    (4, 1): [1, 4, -4, -20, 9, 56, -16, -120, 25, 220, -36, -364, 49, 560, -64],
}

NARAYANA = [Poly((1,)), Poly((1,)), Poly((1, 1)), Poly((1, 3, 1)),
            Poly((1, 6, 6, 1)), Poly((1, 10, 20, 10, 1))]

# Determinant rows of the Narayana polynomials.
DET_NARAYANA_FWD = {
    2: [Poly((1,)), Poly((1, 1)), mono(0) * Poly((0, 1, 1, 1)),
        mono(3) * Poly((1, 1)) * Poly((1, 0, 1)),
        mono(6) * Poly((1, 1, 1, 1, 1)),
        mono(10) * Poly((1, 1)) * Poly((1, -1, 1)) * Poly((1, 1, 1))],
    3: [Poly((1,)), Poly((1, 3, 1)), mono(1) * Poly((1, 3, 6, 3, 1)),
        mono(3) * Poly((1, 3, 6, 10, 6, 3, 1))],
    4: [Poly((1,)), Poly((1, 6, 6, 1)),
        mono(1) * Poly((1, 6, 21, 28, 21, 6, 1))],
}
DET_NARAYANA_BWD = {
    -1: [Poly((1,)), Poly(()), Poly((-1,)), mono(1, -1) * Poly((1, 1)),
         mono(3, -1) * Poly((1, 1, 1)), mono(6, -1) * Poly((1, 1)) * Poly((1, 0, 1)),
         mono(10, -1) * Poly((1, 1, 1, 1, 1))],
    -2: [Poly((1,)), Poly(()), Poly(()), Poly((-1,)), mono(1, -1) * Poly((1, 3, 1)),
         mono(3, -1) * Poly((1, 3, 6, 3, 1)),
         mono(6, -1) * Poly((1, 3, 6, 10, 6, 3, 1))],
    -3: [Poly((1,)), Poly(()), Poly(()), Poly(()), Poly((1,)), Poly((0, 1, 6, 6, 1)),
         Poly((0, 0, 0, 1, 6, 21, 28, 21, 6, 1))],
}

# Determinant rows of the type B Narayana polynomials.
DET_NARAYANA_B_BWD = {
    -1: [Poly((1,)), Poly(()), Poly((-1,)), mono(1, -2) * Poly((1, 1)),
         mono(3, -4) * Poly((1, 1, 1)), mono(6, -8) * Poly((1, 1)) * Poly((1, 0, 1)),
         mono(10, -16) * Poly((1, 1, 1, 1, 1))],
    -2: [Poly((1,)), Poly(()), Poly(()), Poly((-1,)), mono(1, -2) * Poly((1, 3, 1)),
         mono(3, -4) * Poly((1, 3, 6, 3, 1))],
    -3: [Poly((1,)), Poly(()), Poly(()), Poly(()), Poly((1,)),
         mono(1, 2) * Poly((1, 1)) * Poly((1, 5, 1)),
         mono(3, 4) * Poly((1, 6, 21, 28, 21, 6, 1))],
}
