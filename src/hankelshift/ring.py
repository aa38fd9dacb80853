"""Exact scalar, polynomial and truncated power-series arithmetic.

Scalars are plain Python ints (arbitrary precision), polynomials are
dense integer-coefficient polynomials in ``t``, and series are truncated
formal power series in ``x`` whose coefficients are polynomials.  Nothing
in this module ever rounds: a division either succeeds exactly or raises
:class:`~hankelshift.errors.NonExactDivision`.

``Poly`` arithmetic is schoolbook.  The exact update (a*d - b*c) / e of every
fraction-free step on polynomials is one packed big-int expression,
:func:`cross_quotient`, whose docstring holds the argument for its exactness.
A ``Poly`` keeps its packed form once it has been an operand there, and a
quotient of the kernel is born with the packed form it was computed in, so
nothing outside this module decides how long a packing lives.  Each update
is packed at the least slot width its operands' bounds allow, and only an
update whose quotient fails the digit bound there is computed again 16
bits wider.

The packing codec (:func:`_pack`, :func:`_unpack`) converts every slot in C:
8-byte slots as ``struct`` words, wider ones as the nb-byte fields of one
``struct.Struct`` through ``int.to_bytes`` and ``int.from_bytes``.  Its
constants depend only on the slot width and count, and are built once per
pair (:func:`_slots`).  Interpreter steps, not big-int arithmetic, still
take most of a kernel call.
"""

from __future__ import annotations

import functools
import math
import struct
from itertools import repeat
from typing import Iterable

from .errors import NonExactDivision, NonUnitConstantTerm

#: Default truncation length for generating series.
DEFAULT_SERIES_ORDER = 64

def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the combinatorial out-of-range convention.

    Returns 0 for ``k < 0`` and for ``k > n >= 0``.  A negative upper index
    uses the generalized definition n(n-1)...(n-k+1)/k!, so for example
    ``binomial(-1, k) == (-1)**k``.
    """
    if k < 0:
        return 0
    if n >= 0:
        return math.comb(n, k) if k <= n else 0
    return (-1) ** (k & 1) * math.comb(k - n - 1, k)


def choose2_parity(n: int) -> int:
    """Parity of C(n, 2), which is even exactly when n is 0 or 1 mod 4."""
    return 0 if n % 4 in (0, 1) else 1


def sign_choose2(n: int) -> int:
    """(-1)**C(n, 2), computed from n mod 4 instead of the exponent itself."""
    return -1 if choose2_parity(n) else 1


def _valuation(coeffs: tuple[int, ...]) -> int:
    """Exponent of the highest power of t dividing a nonzero polynomial."""
    return next(i for i, c in enumerate(coeffs) if c)


def _bits(coeffs: tuple[int, ...] | list[int]) -> int:
    """Bit length of the largest coefficient magnitude."""
    return max(max(coeffs), -min(coeffs)).bit_length()


@functools.lru_cache(maxsize=1024)
def _slots(nb: int, count: int) -> tuple[int, struct.Struct]:
    """``count`` slots of ``nb`` bytes: the integer whose slots each hold
    2^(8*nb-1), and the ``Struct`` of their fields, ``q`` words at nb = 8
    and ``nb``-byte strings otherwise.  The kernel meets a few hundred
    (nb, count) pairs, so each is built once, not once per call."""
    tops = int.from_bytes((bytes(nb - 1) + b"\x80") * count, "little")
    return tops, struct.Struct(f"<{count}q" if nb == 8 else f"{nb}s" * count)


def _pack(coeffs: tuple[int, ...], nb: int) -> int:
    """sum(c * 2^(8*nb*i)); every c must lie in [-2^(8*nb-1), 2^(8*nb-1)).

    Each c + 2^(8*nb-1) is a nonnegative nb-byte slot, so the slots read as
    one integer are the packed value plus the tops of :func:`_slots`.  At
    nb = 8 ``struct`` writes the slots as two's complement words in one
    call, and XOR with the tops (flipping each slot's top bit) offsets them;
    wider slots are written offset, by ``map`` over ``int.to_bytes``.
    """
    tops, fields = _slots(nb, len(coeffs))
    if nb == 8:
        return (int.from_bytes(fields.pack(*coeffs), "little") ^ tops) - tops
    half = 1 << (8 * nb - 1)
    # The byte order is passed: before Python 3.11 it has no default.
    raw = b"".join(map(int.to_bytes, [c + half for c in coeffs], repeat(nb), repeat("little")))
    return int.from_bytes(raw, "little") - tops


def _unpack(value: int, nb: int, count: int) -> list[int]:
    """The balanced digits of ``value`` in ``count`` slots of ``nb`` bytes.

    These are the unique d_i in [-2^(8*nb-1), 2^(8*nb-1)) with
    value == sum(d_i * 2^(8*nb*i)); OverflowError if ``count`` slots cannot
    hold such digits.  value + tops has the offset digits d_i + 2^(8*nb-1)
    as its slots, which ``struct`` splits in one call: as two's complement
    words after the XOR at nb = 8, and otherwise as nb-byte fields that
    ``map`` reads through ``int.from_bytes``, less the offset.
    """
    tops, fields = _slots(nb, count)
    if nb == 8:
        return list(fields.unpack(((value + tops) ^ tops).to_bytes(8 * count, "little")))
    half = 1 << (8 * nb - 1)
    raw = (value + tops).to_bytes(nb * count, "little")
    return [u - half for u in map(int.from_bytes, fields.unpack(raw), repeat("little"))]


class _Operand:
    """p = t^v * p', kept on p, with p' packed once per slot width."""

    __slots__ = ("v", "coeffs", "bits", "length", "packed")

    def __init__(self, p: Poly, v: int, coeffs: tuple[int, ...], bits: int,
                 packed: dict[int, int]) -> None:
        p._operand = self
        self.v = v
        self.coeffs = coeffs
        self.bits = bits  # 0 exactly for the zero polynomial
        self.length = len(coeffs)
        self.packed = packed

    def at(self, nb: int) -> int:
        packed = self.packed.get(nb)
        if packed is None:
            packed = self.packed[nb] = _pack(self.coeffs, nb)
        return packed


def _scanned(p: Poly) -> _Operand:
    """The operand of a Poly that has none yet, read off its coefficients."""
    cs = p.coeffs
    v = _valuation(cs) if cs else 0
    return _Operand(p, v, cs[v:], _bits(cs) if cs else 0, {})


def cross_quotient(a: Poly, d: Poly, b: Poly, c: Poly, e: Poly) -> Poly:
    """The exact quotient (a*d - b*c) / e through one packed big-int expression.

    This is the update of a fraction-free elimination step and of a layer
    of the condensation wedge, which the Narayana recursion also runs.
    Operands recur across the calls of a step or layer (the pivot, the
    previous pivot, a row's lead, a layer's minors).  A Poly is immutable,
    so its :class:`_Operand` is kept on it, and each slot width is packed
    once per Poly.  A Poly this function returns from the packed route is
    born with its operand, packed at the width that produced it; any other
    Poly gets its operand on its first use here.

    Packing (:func:`_pack`) evaluates at t = 2^W, W = 8*nb, a ring
    homomorphism Z[t] -> Z; a packed polynomial whose coefficients all fit
    a slot gets them back as its balanced digits (:func:`_unpack`).

    With every operand written t^v * p' (p' not divisible by t), the two
    products are t^v1 * a'd' and t^v2 * b'c'.  Each coefficient of a'd' is a
    sum of min(len a', len d') terms below 2^(bits a' + bits d'), so it lies
    below 2^s1, s1 = bits a' + bits d' + bitlen(min(len a', len d')), and
    the numerator M = t^(v1-v) a'd' - t^(v2-v) b'c' (v = min(v1, v2)) has
    coefficients below 2^(max(s1, s2) + 1).  W is the larger of
    max(s1, s2) + 1 and bits e', plus 2 bits, rounded up to whole bytes and
    to at least one 64-bit word (whose slots ``struct`` reads and writes in
    one call); so slots of W bits hold every coefficient of M and e' as a
    balanced digit, and M(2^W) is one integer expression over the packed
    operands.

    e divides the numerator only if t^ve does, which for ve > v is the test
    that the low ve - v slots of M(2^W) are zero; they are shifted out, and
    M' is what remains.  If e' divides M', then e'(2^W) divides M'(2^W), so
    a nonzero remainder of ``divmod`` raises NonExactDivision.  A zero
    remainder leaves an integer quotient whose balanced digits q are
    accepted only if bits q + bits e' + bitlen(min(len q, len e')) <= W - 2:
    then every coefficient of q*e' fits a slot, so q*e' and M' are two
    balanced-digit forms of the same integer, and q*e' == M' exactly.

    An entry whose quotient fails the bound is computed once more with 16
    more bits before the rounding, and by :func:`schoolbook_cross_quotient`
    only if it fails there too or that width rounds to the same bytes.
    Every step above holds at any W that holds the bounds of M and e', so a
    nonzero remainder or slot at the first width already proves the
    division inexact, and the digit bound alone decides acceptance at
    either width.  The retry serves a divisor wider than its dividend and a
    numerator that cancels below its quotient: the least width can leave
    such a quotient's digits no room under the bound.

    An accepted quotient is t^(v - ve) q if v > ve and q otherwise, so its
    power of t is max(v - ve, 0) plus the number of zero low digits of q.
    Its operand takes q's digits from the lowest nonzero one to the highest,
    and q(2^W) shifted down by the zero low slots is that operand packed at
    W: the quotient needs no scan and no pack at that width.
    """
    A = a._operand or _scanned(a)
    D = d._operand or _scanned(d)
    B = b._operand or _scanned(b)
    C = c._operand or _scanned(c)
    E = e._operand or _scanned(e)
    ebits, elen = E.bits, E.length
    if not ebits:
        raise NonExactDivision("division by the zero polynomial")
    first, second = A.bits and D.bits, B.bits and C.bits
    if first:
        v1, alen, dlen = A.v + D.v, A.length, D.length
        s1 = A.bits + D.bits + (alen if alen < dlen else dlen).bit_length()
    if second:
        v2, blen, clen = B.v + C.v, B.length, C.length
        s2 = B.bits + C.bits + (blen if blen < clen else clen).bit_length()
    if first and second:
        s, v = (s1 if s1 > s2 else s2), (v1 if v1 < v2 else v2)
    elif first:
        s, v = s1, v1
    elif second:
        s, v = s2, v2
    else:
        return Poly()
    s += 1
    held = (s if s > ebits else ebits) + 2
    nb = (held + 7) // 8
    if nb < 8:
        nb = 8
    retry = (held + 16 + 7) // 8
    mlen = 0
    if first:
        mlen = v1 - v + alen + dlen - 1
    if second:
        mlen2 = v2 - v + blen + clen - 1
        if mlen2 > mlen:
            mlen = mlen2
    low = E.v - v
    if low > 0:
        mlen -= low
    qlen = mlen - elen + 1
    while True:
        w = 8 * nb
        num = 0
        if first:
            num = (A.packed.get(nb) or A.at(nb)) * (D.packed.get(nb) or D.at(nb))
            if v1 > v:
                num <<= w * (v1 - v)
        if second:
            product = (B.packed.get(nb) or B.at(nb)) * (C.packed.get(nb) or C.at(nb))
            if v2 > v:
                product <<= w * (v2 - v)
            num -= product
        if low > 0:
            if num & ((1 << (w * low)) - 1):
                raise NonExactDivision(f"({a}*{d} - {b}*{c}) is not divisible by ({e})")
            num >>= w * low
        quot, rem = divmod(num, E.packed.get(nb) or E.at(nb))
        if rem:
            raise NonExactDivision(f"({a}*{d} - {b}*{c}) is not divisible by ({e})")
        if not quot:
            return Poly()
        try:
            digits = _unpack(quot, nb, qlen)
        except OverflowError:
            pass
        else:
            hi, lo = max(digits), -min(digits)
            bits = (hi if hi > lo else lo).bit_length()
            if bits + ebits + (qlen if qlen < elen else elen).bit_length() <= w - 2:
                break
        if retry <= nb:
            return schoolbook_cross_quotient(a, d, b, c, e)
        nb = retry
    # The quotient is born with its operand, packed at width nb; its
    # coefficients are canonical as built, so Poly.__init__ is skipped.
    top = qlen
    while not digits[top - 1]:
        top -= 1
    zeros = 0
    while not digits[zeros]:
        zeros += 1
    lead = tuple(digits[zeros:top])
    vq = zeros - low if low < 0 else zeros
    q = Poly.__new__(Poly)
    q.coeffs = (0,) * vq + lead if vq else lead
    _Operand(q, vq, lead, bits, {nb: quot >> (w * zeros) if zeros else quot})
    return q


def schoolbook_cross_quotient(a: Poly, d: Poly, b: Poly, c: Poly, e: Poly) -> Poly:
    """(a*d - b*c) / e in schoolbook Poly arithmetic: :func:`cross_quotient`'s
    fallback, and condensation's update on an all-constant band."""
    return (a * d - b * c).exact_div(e)


def _decimal(n: int) -> str:
    """Decimal digits of n >= 0, also past the int-to-str digit limit.

    Since 3.10.7 ``str()`` refuses ints of more than 4300 digits by default.
    Such an n is written as its halves n = hi * 10^k + lo instead, so the
    interpreter-wide limit is never changed.
    """
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20  # about half the digits: log10(2) ~ 0.301
        hi, lo = divmod(n, 10 ** k)
        return _decimal(hi) + _decimal(lo).zfill(k)


class Poly:
    """Dense polynomial in ``t`` over the integers.

    Coefficients are stored ascending by degree with no trailing zeros, so
    equal polynomials have identical coefficient tuples; the empty tuple is
    the zero polynomial.  Instances are immutable and hashable, and constant
    polynomials compare and hash equal to the corresponding int.  The one
    other slot caches the packed operand of :func:`cross_quotient`.
    """

    __slots__ = ("coeffs", "_operand")

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._operand: _Operand | None = None

    @classmethod
    def const(cls, c: int) -> Poly:
        return cls((c,))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> Poly:
        """The polynomial ``coeff * t**degree``."""
        if degree < 0:
            raise ValueError("degree must be >= 0")
        if coeff == 0:
            return cls()
        return cls((0,) * degree + (coeff,))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def constant(self) -> int:
        """Coefficient of t^0 (the whole value for constant polynomials)."""
        return self.coeffs[0] if self.coeffs else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(other) -> Poly | None:
        if isinstance(other, Poly):
            return other
        if isinstance(other, int):
            return Poly((other,))
        return None

    def __add__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> Poly:
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> Poly:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.coeffs, o.coeffs
        if not a or not b:
            return Poly()
        if len(a) == 1 and len(b) == 1:
            return Poly((a[0] * b[0],))
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative powers are not polynomials")
        result = Poly((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def exact_div(self, other: Poly) -> Poly:
        """Quotient q with q * other == self; raises if no such q exists."""
        if not isinstance(other, Poly):
            other = Poly._coerce(other)
        if other is None or other.is_zero:
            raise NonExactDivision("division by the zero polynomial")
        if self.is_zero:
            return Poly()
        if len(self.coeffs) < len(other.coeffs):
            raise NonExactDivision(f"({self}) is not divisible by ({other})")
        rem = list(self.coeffs)
        blen = len(other.coeffs)
        lead = other.coeffs[-1]
        qlen = len(rem) - blen + 1
        quot = [0] * qlen
        for i in reversed(range(qlen)):
            c = rem[i + blen - 1]
            if c % lead:
                raise NonExactDivision(f"({self}) is not divisible by ({other})")
            q = c // lead
            quot[i] = q
            if q:
                for j, bc in enumerate(other.coeffs):
                    rem[i + j] -= q * bc
        if any(rem):
            raise NonExactDivision(f"({self}) is not divisible by ({other})")
        return Poly(quot)

    def __call__(self, x: int) -> int:
        """Evaluate at an integer point (Horner)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.is_constant and self.constant == other
        return NotImplemented

    def __hash__(self) -> int:
        # Constant polynomials hash like the underlying int so that the
        # int-equality above stays consistent with hashing.
        if self.is_constant:
            return hash(self.constant)
        return hash(self.coeffs)

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        """Canonical string: ascending degree, explicit '*', e.g. 1+3*t+t^2."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for d, c in enumerate(self.coeffs):
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if parts else "")
            a = abs(c)
            if d == 0:
                body = _decimal(a)
            else:
                var = "t" if d == 1 else f"t^{d}"
                body = var if a == 1 else f"{_decimal(a)}*{var}"
            parts.append(sign + body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self})"


class Series:
    """Formal power series in ``x`` truncated to a fixed order.

    ``coeffs[n]`` is the :class:`Poly` coefficient of x^n for
    0 <= n < order; every slot is stored explicitly (possibly zero).
    Binary operations truncate the result to the shorter operand, so a
    result is trustworthy exactly up to its own order.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[Poly, ...]

    def __init__(self, coeffs: Iterable[Poly | int], order: int | None = None) -> None:
        cs = [c if isinstance(c, Poly) else Poly.const(c) for c in coeffs]
        if order is not None:
            if order < 1:
                raise ValueError("series order must be >= 1")
            cs = cs[:order]
            cs.extend(Poly() for _ in range(order - len(cs)))
        if not cs:
            raise ValueError("a series needs at least one coefficient")
        self.coeffs = tuple(cs)

    @classmethod
    def one(cls, order: int = DEFAULT_SERIES_ORDER) -> Series:
        return cls([1], order=order)

    @property
    def order(self) -> int:
        return len(self.coeffs)

    @property
    def constant_term(self) -> Poly:
        return self.coeffs[0]

    def __getitem__(self, n: int) -> Poly:
        if not 0 <= n < len(self.coeffs):
            raise IndexError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> Series:
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return Series(self.coeffs[:order])

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: Series) -> Series:
        n = min(self.order, other.order)
        return Series([self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other: Series) -> Series:
        n = min(self.order, other.order)
        return Series([self.coeffs[i] - other.coeffs[i] for i in range(n)])

    def __mul__(self, other: Series) -> Series:
        n = min(self.order, other.order)
        out = [Poly() for _ in range(n)]
        for i in range(n):
            a = self.coeffs[i]
            if a.is_zero:
                continue
            for j in range(n - i):
                b = other.coeffs[j]
                if not b.is_zero:
                    out[i + j] = out[i + j] + a * b
        return Series(out)

    def scale(self, factor: Poly | int) -> Series:
        """Multiply every coefficient by a fixed polynomial or integer."""
        return Series([c * factor for c in self.coeffs])

    def mul_x(self) -> Series:
        """Multiply by x, keeping the truncation order."""
        return Series((Poly(),) + self.coeffs[:-1])

    def reciprocal(self) -> Series:
        """Series b with self * b == 1 up to the truncation order.

        Requires the constant term to be the unit polynomial +1 or -1.
        """
        c0 = self.coeffs[0]
        if c0.coeffs not in ((1,), (-1,)):
            raise NonUnitConstantTerm(f"constant term {c0} is not a unit")
        inv0 = c0  # +-1 is its own inverse
        out = [inv0]
        for n in range(1, self.order):
            acc = Poly()
            for i in range(1, n + 1):
                a = self.coeffs[i]
                if not a.is_zero:
                    acc = acc + a * out[n - i]
            out.append(-(inv0 * acc))
        return Series(out)

    def pow(self, k: int) -> Series:
        """k-th power by repeated exact multiplication, k >= 1."""
        if k < 1:
            raise ValueError("exponent must be >= 1")
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    __pow__ = pow

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __str__(self) -> str:
        parts = []
        for n, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            cs = str(c)
            if n == 0:
                parts.append(cs)
                continue
            var = "x" if n == 1 else f"x^{n}"
            if cs == "1":
                body = var
            elif cs == "-1":
                body = f"-{var}"
            elif len(c.coeffs) == 1:
                body = f"{cs}*{var}"
            else:
                body = f"({cs})*{var}"
            parts.append(body)
        shown = " + ".join(parts) if parts else "0"
        return f"{shown} + O(x^{self.order})"

    def __repr__(self) -> str:
        return f"Series(order={self.order}, {self})"
