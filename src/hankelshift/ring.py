"""Exact scalar, polynomial and truncated power-series arithmetic.

Scalars are plain Python ints (arbitrary precision), polynomials are
dense integer-coefficient polynomials in ``t``, and series are truncated
formal power series in ``x`` whose coefficients are polynomials.  Nothing
in this module ever rounds: a division either succeeds exactly or raises
:class:`~hankelshift.errors.NonExactDivision`.

Large polynomial products and exact quotients use Kronecker substitution:
a polynomial is packed into one integer, its value at t = 2^W, with each
coefficient in a signed slot of W = 8*nb bits, so that one big-int multiply
or ``divmod`` does the work of the schoolbook loop.  A product's slots are
sized from the operands' bit lengths so that every product coefficient
provably fits, and its balanced (signed) digits are then exactly its
coefficients.  A quotient is the integer quotient's balanced digits: a
nonzero integer remainder already proves the division inexact, and a zero
one is trusted only when the digit bound of :func:`_kronecker_quotient`
shows that the digits times the divisor reproduce the dividend's slots;
otherwise the schoolbook division decides.  Powers of t are stripped
before packing, so that low zero coefficients take no slots.  Products and
quotients whose shorter factor has fewer than :data:`KRONECKER_MIN_LEN`
coefficients, every constant operand among them, stay on the schoolbook
loops.  :func:`cross_quotient` applies the same argument to a whole
fraction-free elimination update (a*d - b*c) / e, in one packed integer
expression with slots sized for that update, whatever the operands'
lengths.
"""

from __future__ import annotations

import math
import re
import struct
from typing import Iterable

from .errors import NonExactDivision, NonUnitConstantTerm

#: Default truncation length for generating series.
DEFAULT_SERIES_ORDER = 64

#: Fewest coefficients, powers of t stripped, that the shorter factor of a
#: product (of a division: the quotient or the divisor) needs to be packed.
#: Measured on the operands of Narayana determinants (Python 3.11), packing
#: was 1.4-1.6x faster than the schoolbook loop at 16-20 coefficients and
#: 2-3.6x faster from 32; with a factor of 1-6 coefficients it was up to 5x
#: slower.
KRONECKER_MIN_LEN = 16


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


def _slot_tops(nb: int, count: int) -> int:
    """The integer whose ``count`` slots of ``nb`` bytes each hold 2^(8*nb-1)."""
    return int.from_bytes((bytes(nb - 1) + b"\x80") * count, "little")


def _pack(coeffs: tuple[int, ...], nb: int) -> int:
    """sum(c * 2^(8*nb*i)); every c must lie in [-2^(8*nb-1), 2^(8*nb-1)).

    The two's complement slots plus 2^(8*nb-1) each (an XOR of the top bit)
    are the nonnegative digits of the packed value plus ``_slot_tops``.
    Slots of one 64-bit word are written by ``struct`` in one call.
    """
    tops = _slot_tops(nb, len(coeffs))
    if nb == 8:
        raw = struct.pack(f"<{len(coeffs)}q", *coeffs)
    else:
        raw = b"".join([c.to_bytes(nb, "little", signed=True) for c in coeffs])
    return (int.from_bytes(raw, "little") ^ tops) - tops


def _unpack(value: int, nb: int, count: int) -> list[int]:
    """The balanced digits of ``value`` in ``count`` slots of ``nb`` bytes.

    These are the unique d_i in [-2^(8*nb-1), 2^(8*nb-1)) with
    value == sum(d_i * 2^(8*nb*i)); OverflowError if ``count`` slots cannot
    hold such digits.
    """
    tops = _slot_tops(nb, count)
    raw = ((value + tops) ^ tops).to_bytes(nb * count, "little")
    if nb == 8:
        return list(struct.unpack(f"<{count}q", raw))
    return [int.from_bytes(raw[i:i + nb], "little", signed=True)
            for i in range(0, nb * count, nb)]


def _kronecker_mul(a: tuple[int, ...], b: tuple[int, ...]) -> list[int] | None:
    """Coefficients of a*b through one big-int product, or None when a factor
    stripped of its power of t has fewer than KRONECKER_MIN_LEN coefficients.

    Each product coefficient is a sum of min(len a, len b) terms below
    2^(bits a + bits b), so it lies strictly inside a signed slot of
    8*nb >= bits a + bits b + bitlen(min(len a, len b)) + 1 bits, and the
    product's balanced digits are its coefficients.
    """
    va, vb = _valuation(a), _valuation(b)
    a, b = a[va:], b[vb:]
    if min(len(a), len(b)) < KRONECKER_MIN_LEN:
        return None
    nb = (_bits(a) + _bits(b) + min(len(a), len(b)).bit_length() + 8) // 8
    return [0] * (va + vb) + _unpack(_pack(a, nb) * _pack(b, nb), nb, len(a) + len(b) - 1)


def _kronecker_quotient(a: Poly, b: Poly) -> list[int] | None:
    """Coefficients of the exact quotient a/b, or None to leave it to the schoolbook loop.

    With a = t^va * a' and b = t^vb * b' (a', b' not divisible by t), b
    divides a exactly when va >= vb and b' divides a', and then
    a/b = t^(va-vb) * a'/b'.  Packing is a ring homomorphism Z[t] -> Z
    (evaluation at 2^W), so a quotient a'/b' would divide the packed ints
    exactly: a nonzero remainder raises NonExactDivision.  Otherwise the
    quotient's balanced digits q are returned only if
    bits q + bits b' + bitlen(min(len q, len b')) <= W - 2: then every
    coefficient of q*b' fits a slot, so q*b' and a' are two balanced-digit
    forms of the same packed integer and q*b' == a' exactly.  Slots cover
    both operands with a byte of slack over bits a' + bitlen(len q), which
    fits the quotients met in Bareiss and condensation steps.
    """
    ac, bc = a.coeffs, b.coeffs
    va, vb = _valuation(ac), _valuation(bc)
    ac, bc = ac[va:], bc[vb:]
    qlen = len(ac) - len(bc) + 1
    if va < vb or min(qlen, len(bc)) < KRONECKER_MIN_LEN:
        return None
    nb = (max(_bits(ac), _bits(bc)) + qlen.bit_length() + 16) // 8
    quot, rem = divmod(_pack(ac, nb), _pack(bc, nb))
    if rem:
        raise NonExactDivision(f"({a}) is not divisible by ({b})")
    try:
        digits = _unpack(quot, nb, qlen)
    except OverflowError:
        return None
    if _bits(digits) + _bits(bc) + min(qlen, len(bc)).bit_length() > 8 * nb - 2:
        return None
    return [0] * (va - vb) + digits


class _Operand:
    """p = t^v * p' as one elimination step sees it, p' packed once per slot width."""

    __slots__ = ("poly", "v", "coeffs", "bits", "length", "packed")

    def __init__(self, p: Poly) -> None:
        cs = p.coeffs
        self.poly = p  # keeps id(p), the memo key, from being reused
        self.v = _valuation(cs) if cs else 0
        self.coeffs = cs[self.v:]
        self.bits = _bits(cs) if cs else 0  # 0 exactly for the zero polynomial
        self.length = len(self.coeffs)
        self.packed: dict[int, int] = {}

    def at(self, nb: int) -> int:
        packed = self.packed.get(nb)
        if packed is None:
            packed = self.packed[nb] = _pack(self.coeffs, nb)
        return packed


def _operand(packs: dict, p: Poly) -> _Operand:
    op = packs[id(p)] = _Operand(p)
    return op


def cross_quotient(packs: dict, a: Poly, d: Poly, b: Poly, c: Poly, e: Poly) -> Poly:
    """The exact quotient (a*d - b*c) / e through one packed big-int expression.

    This is the update of a fraction-free elimination step.  ``packs`` is a
    memo, keyed by ``id``, shared by the calls of one step, where the pivot,
    the divisor, a row's lead and a column's entry recur; each entry holds
    its Poly, so no other object can take over its ``id`` while the memo
    lives.

    With every operand written t^v * p' (p' not divisible by t), the two
    products are t^v1 * a'd' and t^v2 * b'c'.  Each coefficient of a'd'
    lies below 2^s1, s1 = bits a' + bits d' + bitlen(min(len a', len d')),
    so the numerator M = t^(v1-v) a'd' - t^(v2-v) b'c' (v = min(v1, v2))
    has coefficients below 2^(max(s1, s2) + 1).  W is the larger of the
    product slot of :func:`_kronecker_mul`, max(s1, s2) + 1, and bits e',
    plus 2 bits and 16 bits of slack, rounded up to whole 64-bit words; so
    slots of W bits hold every coefficient of M and e' as a balanced digit.
    Packing is evaluation at 2^W, so M(2^W) is one integer expression over
    the packed operands.
    e divides the numerator only if t^ve does, which for ve > v is the test
    that the low ve - v slots of M(2^W) are zero (balanced digits are
    unique).  From there the argument of :func:`_kronecker_quotient` holds:
    a nonzero remainder of ``divmod`` by e'(2^W) raises NonExactDivision,
    and the quotient's balanced digits are accepted under the same digit
    bound.  An entry whose quotient fails the bound is computed as
    ``(a*d - b*c).exact_div(e)``.
    """
    get = packs.get
    A = get(id(a)) or _operand(packs, a)
    D = get(id(d)) or _operand(packs, d)
    B = get(id(b)) or _operand(packs, b)
    C = get(id(c)) or _operand(packs, c)
    E = get(id(e)) or _operand(packs, e)
    if not E.bits:
        raise NonExactDivision("division by the zero polynomial")
    first, second = A.bits and D.bits, B.bits and C.bits
    if first:
        v1 = A.v + D.v
        s1 = A.bits + D.bits + min(A.length, D.length).bit_length()
    if second:
        v2 = B.v + C.v
        s2 = B.bits + C.bits + min(B.length, C.length).bit_length()
    if first and second:
        s, v = max(s1, s2), min(v1, v2)
    elif first:
        s, v = s1, v1
    elif second:
        s, v = s2, v2
    else:
        return Poly()
    nb = (max(s + 1, E.bits) + 2 + 16 + 63) // 64 * 8
    w = 8 * nb
    num = mlen = 0
    if first:
        num = (A.at(nb) * D.at(nb)) << (w * (v1 - v))
        mlen = v1 - v + A.length + D.length - 1
    if second:
        num -= (B.at(nb) * C.at(nb)) << (w * (v2 - v))
        mlen = max(mlen, v2 - v + B.length + C.length - 1)
    low = E.v - v
    if low > 0:
        if num & ((1 << (w * low)) - 1):
            raise NonExactDivision(f"({a}*{d} - {b}*{c}) is not divisible by ({e})")
        num >>= w * low
        mlen -= low
    quot, rem = divmod(num, E.at(nb))
    if rem:
        raise NonExactDivision(f"({a}*{d} - {b}*{c}) is not divisible by ({e})")
    if not quot:
        return Poly()
    qlen = mlen - E.length + 1
    try:
        digits = _unpack(quot, nb, qlen)
    except OverflowError:
        digits = None
    if digits is None or _bits(digits) + E.bits + min(qlen, E.length).bit_length() > w - 2:
        return (a * d - b * c).exact_div(e)
    return Poly([0] * -low + digits if low < 0 else digits)


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


def _from_decimal(digits: str) -> int:
    """The int a string of decimal digits denotes, of any length (see _decimal)."""
    try:
        return int(digits)
    except ValueError:
        k = len(digits) // 2
        return _from_decimal(digits[:-k]) * 10 ** k + _from_decimal(digits[-k:])


class Poly:
    """Dense polynomial in ``t`` over the integers.

    Coefficients are stored ascending by degree with no trailing zeros, so
    equal polynomials have identical coefficient tuples; the empty tuple is
    the zero polynomial.  Instances are immutable and hashable, and constant
    polynomials compare and hash equal to the corresponding int.
    """

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int] = ()) -> None:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

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
        if min(len(a), len(b)) >= KRONECKER_MIN_LEN:
            out = _kronecker_mul(a, b)
            if out is not None:
                return Poly(out)
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
        if min(qlen, blen) >= KRONECKER_MIN_LEN:
            quot = _kronecker_quotient(self, other)
            if quot is not None:
                return Poly(quot)
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

    _TERM = re.compile(r"([+-]?)(?:(\d+)\*?)?(t(?:\^(\d+))?)?")

    @classmethod
    def parse(cls, text: str) -> Poly:
        """Inverse of str(): accepts the canonical form, ignoring spaces."""
        s = text.strip().replace(" ", "")
        if not s:
            raise ValueError("empty polynomial string")
        coeffs: dict[int, int] = {}
        pos = 0
        while pos < len(s):
            m = cls._TERM.match(s, pos)
            if m is None or m.end() == pos:
                raise ValueError(f"cannot parse polynomial {text!r} at offset {pos}")
            sign, num, var, exp = m.groups()
            if num is None and var is None:
                raise ValueError(f"cannot parse polynomial {text!r} at offset {pos}")
            c = _from_decimal(num) if num is not None else 1
            if sign == "-":
                c = -c
            d = 0 if var is None else (1 if exp is None else int(exp))
            coeffs[d] = coeffs.get(d, 0) + c
            pos = m.end()
        out = [0] * (max(coeffs) + 1)
        for d, c in coeffs.items():
            out[d] = c
        return cls(out)


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
