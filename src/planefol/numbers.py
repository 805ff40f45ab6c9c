"""Exact scalars: rational parsing/formatting and quadratic extensions Q(sqrt(d)).

All coefficient arithmetic in the package runs on `fractions.Fraction` or on
`QuadExt` elements; nothing here ever touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction


def rat_str(q) -> str:
    """Canonical rational string: 'n' or 'n/d' with d > 0."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def isqrt_exact(n: int):
    """Integer square root when n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def rational_sqrt(q):
    """Exact square root in Q, or None when q is not a rational square."""
    q = Fraction(q)
    if q < 0:
        return None
    a = isqrt_exact(q.numerator)
    if a is None:
        return None
    b = isqrt_exact(q.denominator)
    if b is None:
        return None
    return Fraction(a, b)


def square_free_core(n: int) -> tuple[int, int]:
    """Write n = s^2 * core with core squarefree; returns (s, core).

    Trial division; inputs here are small discriminants, not cryptographic sizes.
    """
    if n == 0:
        return (1, 0)
    s = 1
    sign = 1 if n > 0 else -1
    n = abs(n)
    p = 2
    while p * p <= n:
        while n % (p * p) == 0:
            n //= p * p
            s *= p
        p += 1
    return (s, sign * n)


class QuadExt:
    """Element a + b*sqrt(d) of Q(sqrt(d)), d a squarefree integer, d not in {0, 1}.

    Mixed arithmetic with int/Fraction lifts the rational operand; mixing two
    different extensions raises. Purely rational elements (b = 0) compare equal
    across fields.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        if not isinstance(d, int) or d in (0, 1):
            raise ValueError(f"invalid extension discriminant {d!r}")
        if isqrt_exact(d) is not None:
            raise ValueError(f"{d} is a perfect square; use plain rationals")
        s, core = square_free_core(d)
        self.a = Fraction(a)
        self.b = Fraction(b) * s
        self.d = core

    @staticmethod
    def from_sqrt(q) -> "QuadExt | Fraction":
        """sqrt(q) for rational q, as a Fraction when q is a square."""
        q = Fraction(q)
        r = rational_sqrt(q)
        if r is not None:
            return r
        s, core = square_free_core(q.numerator * q.denominator)
        return QuadExt(0, Fraction(s, q.denominator), core)

    # -- ring/field structure -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.d == self.d:
                return other
            if other.b == 0:
                return QuadExt(other.a, 0, self.d)
            if self.b == 0:
                return other, QuadExt(self.a, 0, other.d)
            raise ValueError(f"mixed extensions sqrt({self.d}) and sqrt({other.d})")
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.d)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, tuple):
            return o[0].__add__(o[1])
        return QuadExt(self.a + o.a, self.b + o.b, self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, tuple):
            return o[0].__rsub__(o[1])
        return QuadExt(self.a - o.a, self.b - o.b, self.d)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, tuple):
            return o[0].__mul__(o[1])
        return QuadExt(
            self.a * o.a + self.b * o.b * self.d,
            self.a * o.b + self.b * o.a,
            self.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt(d))")
        return QuadExt(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, tuple):
            return o[1].__truediv__(o[0])
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = QuadExt(1, 0, self.d)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- predicates -----------------------------------------------------------

    def conj(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        # a^2 - b^2 d; zero only for the zero element since d is not a square
        return self.a * self.a - self.b * self.b * self.d

    def trace(self) -> Fraction:
        return 2 * self.a

    def is_rational(self) -> bool:
        return self.b == 0

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError(f"{self} is irrational")
        return self.a

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if isinstance(other, QuadExt):
            if self.b == 0 and other.b == 0:
                return self.a == other.a
            return self.d == other.d and self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def sign(self) -> int:
        """Sign of the real number a + b*sqrt(d); requires d > 0."""
        if self.d < 0:
            raise ValueError("sign undefined for imaginary quadratic elements")
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 with b^2 d
        lhs = a * a
        rhs = b * b * self.d
        if a > 0:
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def __lt__(self, other):
        o = self._coerce(other)
        if isinstance(o, tuple):
            return (o[1] - o[0]).sign() < 0
        return (self - o).sign() < 0

    def __gt__(self, other):
        o = self._coerce(other)
        if isinstance(o, tuple):
            return (o[1] - o[0]).sign() > 0
        return (self - o).sign() > 0

    def __repr__(self):
        if self.b == 0:
            return rat_str(self.a)
        bpart = f"{rat_str(self.b)}*sqrt({self.d})"
        if self.b == 1:
            bpart = f"sqrt({self.d})"
        elif self.b == -1:
            bpart = f"-sqrt({self.d})"
        if self.a == 0:
            return bpart
        sign = "+" if self.b > 0 else "-"
        mag = bpart.lstrip("-")
        return f"{rat_str(self.a)} {sign} {mag}"


def quadext_sqrt(q):
    """Square root of q inside its own quadratic field Q(sqrt(d)), or None."""
    if q.b == 0:
        r = rational_sqrt(q.a)
        if r is not None:
            return QuadExt(r, 0, q.d) if r != 0 else Fraction(0)
        s = QuadExt.from_sqrt(q.a)
        if isinstance(s, QuadExt) and s.d == q.d:
            return s
        return None
    norm = q.a * q.a - Fraction(q.d) * q.b * q.b
    s = rational_sqrt(norm)
    if s is None:
        return None
    for branch in (s, -s):
        usq = (q.a + branch) / 2
        u = rational_sqrt(usq)
        if u is not None and u != 0:
            v = q.b / (2 * u)
            cand = QuadExt(u, v, q.d)
            if cand * cand == q:
                return cand
    return None


def simplest_between(lo, hi):
    """The fraction with the smallest denominator in [lo, hi] (Stern-Brocot).

    Among equal denominators the one closer to zero is produced. Used to name
    the unique low-height rational inside a narrow certified interval.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError("empty interval")
    if lo <= 0 <= hi:
        return Fraction(0)
    if hi < 0:
        return -simplest_between(-hi, -lo)

    def walk(a, b):
        # 0 < a <= b
        fl = a.numerator // a.denominator
        if fl + 1 <= b:
            return Fraction(fl if fl >= a else fl + 1)
        frac = a - fl
        if frac == 0:
            return a
        return fl + 1 / walk(1 / (b - fl), 1 / frac)

    return walk(lo, hi)


def fraction_height(q):
    q = Fraction(q)
    return max(abs(q.numerator), q.denominator)
