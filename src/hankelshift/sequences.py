"""Sequence families built around the Catalan numbers.

Every family is a doubly infinite sequence that vanishes for negative
index and starts with a_0 = 1.  Terms are returned as :class:`Poly` values
in ``t``; the purely numeric families return constant polynomials so that
all downstream matrix code can stay ring generic (the determinant engines
detect the constant case and run on plain ints).

Terms come from exact stepping recurrences.  A numeric family keeps one
shared run of consecutive terms a_s, a_{s+1}, ... and extends it from its
last term by a_i = num / den, where ``(num, den)`` is the family's step at
i, so a window of consecutive terms costs one small step per term.  The
Catalan numbers are the first convolution power C^1, so they, the central
binomials (n+1) C_n and the M-numbers at b = 0 and 1 read one run.
Convolution powers start a new run from their one-binomial closed form
when a request lands below their run or far past it; the other M-numbers,
whose closed form is a sum of n+1 binomials, always step from a_0.  A
Narayana row steps along its coefficients the same way.  Every division is
checked, so one that leaves a remainder raises
:class:`~hankelshift.errors.NonExactDivision` naming the family and the
index instead of truncating.  On top of the runs the term functions are
memoized with ``functools.lru_cache``, so family objects are cheap
immutable values: two ``Catalan()`` instances share one cache.
"""

from __future__ import annotations

import functools
import math
import threading

from .errors import NonExactDivision
from .ring import DEFAULT_SERIES_ORDER, Poly, Series


# The run a_s, a_{s+1}, ... of each numeric family that calls have needed
# most recently, as (s, terms), keyed by the family's label.  The lock is
# reentrant because the m-numbers step reads Catalan numbers while its own
# run is being extended.
_runs: dict[str, tuple[int, list[int]]] = {}
_run_lock = threading.RLock()


def _exact(num: int, den: int, label: str, index: str, i: int) -> int:
    """num / den, or :class:`NonExactDivision` if it leaves a remainder."""
    q, r = divmod(num, den)
    if r:
        raise NonExactDivision(f"{label} left a remainder at {index}={i}")
    return q


def _extend(terms: list[int], stop: int, step, label: str, index: str = "n",
            start: int = 0) -> list[int]:
    """Append a_i = num / den, with ``(num, den) = step(i, a_{i-1})``, to the
    terms a_start, a_start+1, ... until they reach a_{stop-1}."""
    for i in range(start + len(terms), stop):
        num, den = step(i, terms[-1])
        terms.append(_exact(num, den, f"{label} recurrence", index, i))
    return terms


def _stepped(label: str, n: int, step, closed=None) -> int:
    """a_n of the family ``label`` with a_0 = 1 and the given step.

    The family's run is extended from its last term when n lies at most
    n/8 terms past it, which covers every window of consecutive terms; one
    loop, so a first request for a large n needs no deep call stack.  A
    family with a closed form ``closed(n)`` starts a new run at n instead
    when n lies below its run or further past it: ``math.comb(2n, n)``
    costs about as much as n/8 steps at depth n, and a run started there
    holds no terms below n.
    """
    if n < 0:
        raise ValueError(f"{label} terms are defined for n >= 0")
    with _run_lock:
        start, terms = _runs.get(label, (0, [1]))
        if closed is not None and not start <= n <= start + len(terms) + n // 8:
            start, terms = n, [closed(n)]
        _runs[label] = (start, terms)
        return _extend(terms, n + 1, step, label, start=start)[n - start]


@functools.lru_cache(maxsize=None)
def catalan_number(n: int) -> int:
    """n-th Catalan number, the first convolution power C^1: its step is
    2(2n-1)/(n+1) and its closed form binom(2n, n)/(n+1)."""
    return catalan_convolution(1, n)


@functools.lru_cache(maxsize=None)
def narayana_polynomial(n: int) -> Poly:
    """Narayana polynomial: sum_k binom(n-1,k) binom(n,k) t^k / (k+1).

    Steps along the row by c_k = c_{k-1} (n-k)(n-k+1) / (k(k+1)) from
    c_0 = 1; for n >= 1 the step at k = n gives the vanishing top
    coefficient binom(n-1, n) = 0.
    """
    if n < 0:
        raise ValueError("narayana_polynomial is defined for n >= 0")
    return Poly(_extend([1], n + 1, lambda k, c: (c * (n - k) * (n - k + 1), k * (k + 1)),
                        f"narayana-c row {n}", "k"))


@functools.lru_cache(maxsize=None)
def narayana_b_polynomial(n: int) -> Poly:
    """Type B analogue: sum_k binom(n,k)^2 t^k.

    Steps along the row by binom(n,k) = binom(n,k-1) (n-k+1) / k and squares.
    """
    if n < 0:
        raise ValueError("narayana_b_polynomial is defined for n >= 0")
    row = _extend([1], n + 1, lambda k, c: (c * (n - k + 1), k), f"narayana-b row {n}", "k")
    return Poly([c * c for c in row])


@functools.lru_cache(maxsize=None)
def m_number(b: int, n: int) -> int:
    """M_n(b) = sum_k (binom(n+k,k) - binom(n+k,k-1)) b^(n-k); M(b=0) = Catalan.

    The generating series is M = C / (1 - bxC), where C = 1 + xC^2 is the
    Catalan series.  By xC^2 = C - 1,

        (C - b)(1 - bxC) = C - b xC^2 - b + b^2 xC = C (1 - b + b^2 x),

    and dividing by the unit 1 - bxC gives M (1 - b + b^2 x) = C - b.
    Reading off x^n for n >= 1:

        M_n = (C_n - b^2 M_{n-1}) / (1 - b),

    from M_0 = 1, an exact division at every step.  At b = 0 and b = 1 the
    identity reads M = C and x M = C - 1, so M_n = C_{n+b}.
    """
    if b in (0, 1) and n >= 0:
        return catalan_number(n + b)
    return _stepped(f"m-numbers(b={b})", n,
                    lambda i, prev: (catalan_number(i) - b * b * prev, 1 - b))


def _conv_step(k: int, i: int, prev: int) -> tuple[int, int]:
    return prev * ((2 * i + k - 2) * (2 * i + k - 1)), i * (i + k)


@functools.lru_cache(maxsize=None)
def catalan_convolution(k: int, n: int) -> int:
    """Coefficient of x^n in the k-th power of the Catalan series,
    binom(2n+k, n) k / (2n+k), via the ratio recurrence
    a_n = a_{n-1} (2n+k-2)(2n+k-1) / (n(n+k)), or the closed form to start
    a run far from the last one."""
    label = f"conv(k={k})"
    return _stepped(label, n, functools.partial(_conv_step, k),
                    lambda i: _exact(math.comb(2 * i + k, i) * k, 2 * i + k,
                                     f"{label} closed form", "n", i))


class SequenceFamily:
    """Common behaviour: zero for negative index, generating series on demand.

    A family is an immutable value: it equals a family of its own class with
    the same parameters (the attributes its ``__slots__`` names).  It is not a
    dataclass, as importing ``dataclasses`` costs each CLI call milliseconds.
    """

    __slots__ = ()

    def _params(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._params() == other._params()

    def __hash__(self) -> int:
        return hash((type(self), self._params()))

    def __repr__(self) -> str:
        params = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({params})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

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


class Catalan(SequenceFamily):
    """1, 1, 2, 5, 14, 42, ..."""

    def _term(self, n: int) -> Poly:
        return Poly.const(catalan_number(n))

    @property
    def label(self) -> str:
        return "catalan"


class CentralBinomial(SequenceFamily):
    """binom(2n, n): 1, 2, 6, 20, 70, ..."""

    def _term(self, n: int) -> Poly:
        return Poly.const((n + 1) * catalan_number(n))

    @property
    def label(self) -> str:
        return "central-binomial"


class MNumbers(SequenceFamily):
    """Catalan-like numbers with integer parameter b; b=0 gives Catalan,
    b=1 the shifted Catalan numbers, b=2 gives binom(2n+1, n)."""

    __slots__ = ("b",)

    def __init__(self, b: int = 0) -> None:
        object.__setattr__(self, "b", b)

    def _term(self, n: int) -> Poly:
        return Poly.const(m_number(self.b, n))

    @property
    def label(self) -> str:
        return f"m-numbers(b={self.b})"


class NarayanaC(SequenceFamily):
    """Narayana polynomials; t=1 recovers the Catalan numbers."""

    def _term(self, n: int) -> Poly:
        return narayana_polynomial(n)

    @property
    def label(self) -> str:
        return "narayana-c"


class NarayanaB(SequenceFamily):
    """Type B Narayana polynomials; t=1 recovers the central binomials."""

    def _term(self, n: int) -> Poly:
        return narayana_b_polynomial(n)

    @property
    def label(self) -> str:
        return "narayana-b"


class ConvCatalan(SequenceFamily):
    """k-th convolution power of the Catalan numbers (k >= 1)."""

    __slots__ = ("k",)

    def __init__(self, k: int = 1) -> None:
        if k < 1:
            raise ValueError("convolution order k must be >= 1")
        object.__setattr__(self, "k", k)

    def _term(self, n: int) -> Poly:
        return Poly.const(catalan_convolution(self.k, n))

    @property
    def label(self) -> str:
        return f"conv(k={self.k})"
