"""Sequence families built around the Catalan numbers.

Every family is a doubly infinite sequence that vanishes for negative
index and starts with a_0 = 1.  Terms are returned as :class:`Poly` values
in ``t``; the purely numeric families return constant polynomials so that
all downstream matrix code can stay ring generic (the determinant engines
detect the constant case and run on plain ints).

Term generators are memoized at module level, so family objects are cheap
immutable values: two ``Catalan()`` instances share one cache.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

from .errors import NonExactDivision
from .ring import DEFAULT_SERIES_ORDER, Poly, Series, binomial


# C_0, C_1, ... as far as any call has needed them; the lock keeps two
# threads from extending the list at once.
_catalan_prefix = [1]
_catalan_lock = threading.Lock()


@functools.lru_cache(maxsize=None)
def catalan_number(n: int) -> int:
    """n-th Catalan number via the ratio recurrence C_n = C_{n-1}*2(2n-1)/(n+1).

    Each step's division must be exact, which makes the recurrence
    self-checking against coding mistakes.  The recurrence runs in one loop
    from the last term computed so far, so a first request for a large n
    needs no deep call stack.
    """
    if n < 0:
        raise ValueError("catalan_number is defined for n >= 0")
    prefix = _catalan_prefix
    with _catalan_lock:
        for i in range(len(prefix), n + 1):
            q, r = divmod(prefix[-1] * 2 * (2 * i - 1), i + 1)
            if r:
                raise NonExactDivision(f"catalan recurrence left a remainder at n={i}")
            prefix.append(q)
    return prefix[n]


@functools.lru_cache(maxsize=None)
def narayana_polynomial(n: int) -> Poly:
    """Narayana polynomial: sum_k binom(n-1,k) binom(n,k) t^k / (k+1)."""
    coeffs = []
    for k in range(n + 1):
        q, r = divmod(binomial(n - 1, k) * binomial(n, k), k + 1)
        if r:
            raise NonExactDivision(f"narayana coefficient (n={n}, k={k}) is not integral")
        coeffs.append(q)
    return Poly(coeffs)


@functools.lru_cache(maxsize=None)
def narayana_b_polynomial(n: int) -> Poly:
    """Type B analogue: sum_k binom(n,k)^2 t^k."""
    return Poly([binomial(n, k) ** 2 for k in range(n + 1)])


@functools.lru_cache(maxsize=None)
def m_number(b: int, n: int) -> int:
    """sum_k (binom(n+k,k) - binom(n+k,k-1)) b^(n-k); M_0 = Catalan."""
    return sum(
        (binomial(n + k, k) - binomial(n + k, k - 1)) * b ** (n - k)
        for k in range(n + 1)
    )


@functools.lru_cache(maxsize=None)
def catalan_convolution(k: int, n: int) -> int:
    """Coefficient of x^n in the k-th power of the Catalan series.

    Uses the closed form binom(2n+k, n) * k / (2n+k); the division is
    always exact and is checked.
    """
    q, r = divmod(binomial(2 * n + k, n) * k, 2 * n + k)
    if r:
        raise NonExactDivision(f"catalan convolution (k={k}, n={n}) is not integral")
    return q


class SequenceFamily:
    """Common behaviour: zero for negative index, generating series on demand."""

    def term(self, n: int) -> Poly:
        """Exact n-th term; 0 for every n < 0."""
        if n < 0:
            return Poly()
        return self._term(n)

    def _term(self, n: int) -> Poly:
        raise NotImplementedError

    def series(self, order: int = DEFAULT_SERIES_ORDER) -> Series:
        """Generating series truncated to the given order (default 64)."""
        if order < 1:
            raise ValueError("order must be >= 1")
        return Series([self.term(i) for i in range(order)])

    @property
    def label(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class Catalan(SequenceFamily):
    """1, 1, 2, 5, 14, 42, ..."""

    def _term(self, n: int) -> Poly:
        return Poly.const(catalan_number(n))

    @property
    def label(self) -> str:
        return "catalan"


@dataclass(frozen=True)
class CentralBinomial(SequenceFamily):
    """binom(2n, n): 1, 2, 6, 20, 70, ..."""

    def _term(self, n: int) -> Poly:
        return Poly.const(binomial(2 * n, n))

    @property
    def label(self) -> str:
        return "central-binomial"


@dataclass(frozen=True)
class MNumbers(SequenceFamily):
    """Catalan-like numbers with integer parameter b; b=0 gives Catalan,
    b=1 the shifted Catalan numbers, b=2 gives binom(2n+1, n)."""

    b: int = 0

    def _term(self, n: int) -> Poly:
        return Poly.const(m_number(self.b, n))

    @property
    def label(self) -> str:
        return f"m-numbers(b={self.b})"


@dataclass(frozen=True)
class NarayanaC(SequenceFamily):
    """Narayana polynomials; t=1 recovers the Catalan numbers."""

    def _term(self, n: int) -> Poly:
        return narayana_polynomial(n)

    @property
    def label(self) -> str:
        return "narayana-c"


@dataclass(frozen=True)
class NarayanaB(SequenceFamily):
    """Type B Narayana polynomials; t=1 recovers the central binomials."""

    def _term(self, n: int) -> Poly:
        return narayana_b_polynomial(n)

    @property
    def label(self) -> str:
        return "narayana-b"


@dataclass(frozen=True)
class ConvCatalan(SequenceFamily):
    """k-th convolution power of the Catalan numbers (k >= 1)."""

    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("convolution order k must be >= 1")

    def _term(self, n: int) -> Poly:
        return Poly.const(catalan_convolution(self.k, n))

    @property
    def label(self) -> str:
        return f"conv(k={self.k})"
