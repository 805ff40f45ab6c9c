from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from planefol.mpoly import MPoly, parse_poly
from planefol.roots import (
    Interval,
    interval_eval,
    isolate_real_roots,
    isolate_roots,
    vanishes_at,
)


def test_interval_arithmetic():
    a = Interval(1, 2)
    b = Interval(-1, 3)
    assert (a + b) == Interval(0, 5)
    assert (a - b) == Interval(-2, 3)
    assert (a * b) == Interval(-2, 6)
    assert (b ** 2) == Interval(0, 9)
    assert a.mid() == Fraction(3, 2)
    assert b.contains_zero() and not a.contains_zero()


def test_interval_eval_contains_range():
    f = parse_poly("x^2 - 2*x", vars=("x",))
    iv = interval_eval(f, {"x": Interval(0, 2)})
    # true range is [-1, 0]; the interval hull must contain it
    assert iv.lo <= -1 and iv.hi >= 0


def test_real_roots_simple():
    f = parse_poly("x^2 - 2", vars=("x",))
    roots = isolate_real_roots(f)
    assert len(roots) == 2
    neg, pos = roots
    for _ in range(20):
        neg.refine()
        pos.refine()
    assert neg.re.hi < 0 < pos.re.lo
    assert pos.re.contains(Fraction(14142, 10000)) or pos.re.lo > Fraction(14142, 10000)
    assert pos.re.width() <= Fraction(1, 2 ** 15)


def test_real_roots_rational_detected():
    f = parse_poly("(x - 1/2)*(x + 3)*(x^2 + 1)", vars=("x",))
    roots = isolate_real_roots(f)
    assert len(roots) == 2
    # exact pinning of rational roots is opportunistic; the boxes are the contract
    for r in roots:
        assert r.im.is_point() and r.im.lo == 0
    lo, hi = roots
    assert lo.re.contains(Fraction(-3))
    assert hi.re.contains(Fraction(1, 2))


def test_real_roots_multiplicity_collapsed():
    f = parse_poly("(x - 1)^3 * (x + 2)", vars=("x",))
    roots = isolate_real_roots(f)
    assert len(roots) == 2


def test_real_roots_of_root_free_poly():
    assert isolate_real_roots(parse_poly("x^2 + 1", vars=("x",))) == []


def test_real_roots_match_sympy_counts():
    for text in ["x^3 - 3*x + 1", "x^5 - x - 1", "x^4 - 5*x^2 + 6", "x^6 - 1"]:
        f = parse_poly(text, vars=("x",))
        distinct = len(set(sympy.Poly(sympy.sympify(text.replace("^", "**"))).real_roots()))
        assert len(isolate_real_roots(f)) == distinct


def test_complex_roots_quadratic():
    f = parse_poly("x^2 + 1", vars=("x",))
    roots = isolate_roots(f)
    assert len(roots) == 2
    up = [r for r in roots if r.im.lo > 0]
    down = [r for r in roots if r.im.hi < 0]
    assert len(up) == 1 and len(down) == 1
    assert up[0].re.contains(Fraction(0))
    assert up[0].im.contains(Fraction(1))


def test_complex_roots_cyclotomic():
    # x^4 + x^3 + x^2 + x + 1: four primitive fifth roots of unity
    f = parse_poly("x^4 + x^3 + x^2 + x + 1", vars=("x",))
    roots = isolate_roots(f)
    assert len(roots) == 4
    assert all(not r.is_real() for r in roots)
    # all on the unit circle: |z|^2 = 1
    for r in roots:
        for _ in range(10):
            r.refine()
        norm = r.re * r.re + r.im * r.im
        assert norm.contains(Fraction(1))


def test_complex_roots_mixed():
    f = parse_poly("(x - 2) * (x^2 + x + 1)", vars=("x",))
    roots = isolate_roots(f)
    assert len(roots) == 3
    reals = [r for r in roots if r.is_real()]
    assert len(reals) == 1
    assert reals[0].re.contains(Fraction(2))
    others = [r for r in roots if not r.is_real()]
    for r in others:
        for _ in range(8):
            r.refine()
        assert r.re.contains(Fraction(-1, 2))


def test_cube_roots_of_unity():
    f = parse_poly("x^3 - 1", vars=("x",))
    roots = isolate_roots(f)
    assert len(roots) == 3
    reals = [r for r in roots if r.is_real()]
    assert len(reals) == 1 and reals[0].re.contains(Fraction(1))


def test_refine_complex_shrinks():
    f = parse_poly("x^2 - 2*x + 5", vars=("x",))  # roots 1 +- 2i
    roots = isolate_roots(f)
    r = [b for b in roots if b.im.lo > 0][0]
    w0 = r.width()
    for _ in range(12):
        r.refine()
    assert r.width() < w0 / 100
    assert r.re.contains(Fraction(1)) and r.im.contains(Fraction(2))


def test_vanishes_at_rational_root():
    f = parse_poly("(x - 1)*(x + 2)", vars=("x",))
    roots = isolate_real_roots(f)
    g = parse_poly("x^2 - 1", vars=("x",))
    flags = sorted(vanishes_at(g, r) for r in roots)
    assert flags == [False, True]


def test_vanishes_at_irrational_root():
    f = parse_poly("x^2 - 2", vars=("x",))
    roots = isolate_real_roots(f)
    g = parse_poly("x^4 - 4", vars=("x",))  # divisible by x^2 - 2
    assert all(vanishes_at(g, r) for r in roots)
    h = parse_poly("x^2 - 3", vars=("x",))
    assert not any(vanishes_at(h, r) for r in roots)


def test_vanishes_at_distinguishes_cluster_members():
    # f has roots 1 and -1; g = x - 1 vanishes at exactly one of them
    f = parse_poly("x^2 - 1", vars=("x",))
    roots = isolate_real_roots(f)
    g = parse_poly("x - 1", vars=("x",))
    flags = [vanishes_at(g, r) for r in roots]
    assert sorted(flags) == [False, True]


def test_vanishes_at_complex_root():
    f = parse_poly("x^2 + 1", vars=("x",))
    roots = isolate_roots(f)
    g = parse_poly("x^4 - 1", vars=("x",))  # x^2 + 1 divides
    assert all(vanishes_at(g, r) for r in roots)
    h = parse_poly("x^2 + 2", vars=("x",))
    assert not any(vanishes_at(h, r) for r in roots)


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=5, unique=True))
@settings(max_examples=25, deadline=None)
def test_isolation_finds_all_integer_roots(roots_list):
    vars = ("x",)
    f = MPoly.const(vars, 1)
    x = MPoly.variable("x", vars)
    for r in roots_list:
        f = f * (x - r)
    boxes = isolate_real_roots(f)
    assert len(boxes) == len(roots_list)
    for r in sorted(roots_list):
        assert any(b.re.contains(Fraction(r)) for b in boxes)


@given(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-2, max_value=2),
)
@settings(max_examples=20, deadline=None)
def test_complex_count_matches_degree(a, b, c):
    # (x^2 - 2ax + a^2 + b^2) has roots a +- bi
    vars = ("x",)
    x = MPoly.variable("x", vars)
    f = (x * x - 2 * a * x + (a * a + b * b)) * (x - c)
    boxes = isolate_roots(f)
    assert len(boxes) == 3
    ups = [r for r in boxes if r.im.lo > 0]
    assert len(ups) == 1
    for _ in range(10):
        ups[0].refine()
    assert ups[0].re.contains(Fraction(a)) and ups[0].im.contains(Fraction(b))
