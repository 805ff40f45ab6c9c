from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from planefol.numbers import (
    QuadExt,
    isqrt_exact,
    rat_str,
    rational_sqrt,
    square_free_core,
)


def test_rat_coercions():
    assert rat_str(Fraction(5)) == "5"
    assert rat_str(Fraction(-5, 3)) == "-5/3"


def test_isqrt_exact():
    assert isqrt_exact(49) == 7
    assert isqrt_exact(50) is None
    assert isqrt_exact(0) == 0


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0


def test_square_free_core():
    assert square_free_core(8) == (2, 2)
    assert square_free_core(-4) == (2, -1)
    assert square_free_core(45) == (3, 5)
    assert square_free_core(7) == (1, 7)


def test_quadext_normalizes_radicand():
    a = QuadExt(0, 1, 8)
    b = QuadExt(0, 2, 2)
    assert a == b
    assert a.d == 2


def test_quadext_rejects_square_radicand():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 4)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 1)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 0)


def test_quadext_arithmetic():
    s2 = QuadExt(0, 1, 2)
    assert (1 + s2) * (1 - s2) == Fraction(-1)
    assert s2 * s2 == Fraction(2)
    inv = (1 + s2).inverse()
    assert inv == s2 - 1
    assert (1 + s2) * inv == Fraction(1)
    assert (s2 ** 4) == Fraction(4)
    assert (s2 / s2) == Fraction(1)


def test_quadext_conjugate_norm_trace():
    z = QuadExt(Fraction(3, 2), Fraction(-1, 2), 5)
    assert z.conj() == QuadExt(Fraction(3, 2), Fraction(1, 2), 5)
    assert z.norm() == Fraction(9, 4) - Fraction(1, 4) * 5
    assert z.trace() == Fraction(3)
    assert z * z.conj() == z.norm()


def test_quadext_cross_field_rational_equality():
    a = QuadExt(Fraction(7), 0, 2)
    b = QuadExt(Fraction(7), 0, 3)
    assert a == b == Fraction(7)
    assert hash(a) == hash(Fraction(7))
    assert (a + b) == Fraction(14)
    assert a.is_rational() and a.as_fraction() == Fraction(7)


def test_quadext_mixed_field_errors():
    s2 = QuadExt(0, 1, 2)
    s3 = QuadExt(0, 1, 3)
    with pytest.raises((TypeError, ValueError)):
        s2 + s3


def test_quadext_ordering_real_field():
    s2 = QuadExt(0, 1, 2)
    assert s2.sign() == 1
    assert (1 - s2).sign() == -1
    assert (s2 - Fraction(3, 2)) < 0 < (s2 - Fraction(7, 5))
    # 7/5 < sqrt(2) < 3/2
    assert s2 > Fraction(7, 5)
    assert s2 < Fraction(3, 2)


def test_quadext_complex_field_has_no_order():
    i = QuadExt(0, 1, -1)
    with pytest.raises(ValueError):
        i.sign()
    assert i * i == Fraction(-1)


small_rats = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
radicands = st.sampled_from([2, 3, 5, -1, -3])


@given(small_rats, small_rats, small_rats, small_rats, radicands)
def test_quadext_field_axioms(a1, b1, a2, b2, d):
    x = QuadExt(a1, b1, d)
    y = QuadExt(a2, b2, d)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + 1) == x * y + x
    assert (x - y) + y == x
    if y != 0:
        assert (x / y) * y == x
    if x != 0:
        assert x * x.inverse() == Fraction(1)


@given(small_rats, small_rats, radicands)
def test_quadext_norm_multiplicative(a, b, d):
    x = QuadExt(a, b, d)
    y = QuadExt(b, a, d)
    xy = x * y
    nx, ny = x.norm(), y.norm()
    nxy = xy.norm() if isinstance(xy, QuadExt) else xy * xy
    assert nxy == nx * ny
