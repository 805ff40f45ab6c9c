from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planefol.curves import (
    CofactorCertificate,
    PlaneCurve,
    curve_singularities,
    extactic,
    first_integral_check,
    first_integral_degree,
    genus,
    is_invariant,
    _extactic_matrix,
)
from planefol.foliation import make_foliation
from planefol.mpoly import bareiss_det, exact_div, parse_poly

V = ("x", "y")


def pp(s):
    return parse_poly(s, V)


def fol(p, q):
    return make_foliation(pp(p), pp(q))


# -- curve values ------------------------------------------------------------------


def test_plane_curve_validation():
    c = PlaneCurve(pp("y - x^2"))
    assert c.degree == 2
    with pytest.raises(ValueError):
        PlaneCurve(pp("y^2"))                   # not squarefree
    with pytest.raises(ValueError):
        PlaneCurve(pp("3"))                     # constant
    with pytest.raises(ValueError):
        PlaneCurve(pp("y - x^2"), genus=1, smooth=True)
    assert PlaneCurve(pp("x^4 + y^4 - 1"), smooth=True).genus == 3


# -- invariance --------------------------------------------------------------------


def test_cofactor_axis():
    cert = is_invariant(fol("x", "2*y"), pp("y"))
    assert cert.cofactor == pp("2")


def test_cofactor_parabola():
    cert = is_invariant(fol("x", "2*y"), pp("y - x^2"))
    assert cert.cofactor == pp("2")


def test_not_invariant_returns_none():
    assert is_invariant(fol("x", "2*y"), pp("y - x")) is None


def test_certificate_rejects_wrong_cofactor():
    F = fol("x", "2*y")
    with pytest.raises(ValueError):
        CofactorCertificate(F, PlaneCurve(pp("y")), pp("3"))


def test_cofactor_degree_bounded_by_foliation_degree():
    cases = [
        (fol("x", "2*y"), "y"),
        (fol("x", "2*y"), "y - x^2"),
        (fol("2*y", "3*x^2"), "y^2 - x^3"),
        (fol("x", "4*y - 2*x^2"), "y - x^2"),
        (fol("x - x^2", "-y"), "x"),
    ]
    for F, f in cases:
        cert = is_invariant(F, pp(f))
        assert cert is not None
        assert cert.cofactor.total_degree() <= F.degree()


# -- extactic ----------------------------------------------------------------------


def test_extactic_order_one_diagonal():
    E = extactic(fol("x", "2*y"), 1)
    assert E == pp("2*x*y")


def test_extactic_radial_vanishes():
    assert extactic(fol("x", "y"), 1).is_zero()


def test_extactic_fast_path_matches_elimination():
    F = fol("x", "2*y")
    assert extactic(F, 1) == bareiss_det(_extactic_matrix(F, 1))
    F = fol("3*x", "2*y")
    assert extactic(F, 2) == bareiss_det(_extactic_matrix(F, 2))


def test_extactic_two_thirds_family():
    F = fol("3*x", "2*y")
    assert not extactic(F, 2).is_zero()
    assert extactic(F, 3).is_zero()


def test_extactic_divisibility():
    # invariant curves of degree <= m divide E_m
    F = fol("x", "4*y - 2*x^2")
    E2 = extactic(F, 2)
    assert not E2.is_zero()
    assert exact_div(E2, pp("x")) is not None
    assert exact_div(E2, pp("y - x^2")) is not None
    F = fol("x", "3*y")
    E2 = extactic(F, 2)
    assert not E2.is_zero()
    for f in ("x", "y", "x*y"):
        assert exact_div(E2, pp(f)) is not None


def test_extactic_rejects_bad_order():
    with pytest.raises(ValueError):
        extactic(fol("x", "y"), 0)


# -- first integrals ---------------------------------------------------------------


def test_first_integral_degree_values():
    assert first_integral_degree(fol("3*x", "2*y"), 5) == 3
    assert first_integral_degree(fol("x", "-y"), 5) == 2
    assert first_integral_degree(fol("1", "2*x"), 3) == 2
    assert first_integral_degree(fol("x", "4*y - 2*x^2"), 3) is None


def test_first_integral_degree_riccati_generic():
    a, b, c = Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)
    P = pp("x - x^2")
    Q = pp("x*(1 - x)*y^2") - (pp("y") * (c - (a + b + 1) * pp("x"))) - a * b * pp("1")
    F = make_foliation(P, Q)
    assert first_integral_degree(F, 2) is None


def test_first_integral_check_values():
    assert first_integral_check(fol("x", "y"), pp("y"), pp("x"))
    assert first_integral_check(fol("2*x", "3*y"), pp("y^2"), pp("x^3"))
    assert not first_integral_check(fol("x", "2*y"), pp("y"), pp("x"))
    with pytest.raises(ValueError):
        first_integral_check(fol("x", "y"), pp("y"), pp("0"))


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(min_value=-5, max_value=5).filter(lambda v: v != 0),
    q=st.integers(min_value=1, max_value=5),
)
def test_linear_family_integrals(p, q):
    if gcd(abs(p), q) != 1:
        return
    F = fol(f"{q}*x", f"{p}*y")
    if p > 0:
        expected = max(p, q)
        num, den = pp(f"y^{q}"), pp(f"x^{p}")
    else:
        expected = abs(p) + q
        num, den = pp(f"y^{q}*x^{abs(p)}"), pp("1")
    assert first_integral_degree(F, 10) == expected
    assert first_integral_check(F, num, den)
    if expected > 1:
        assert not extactic(F, expected - 1).is_zero()


# -- genus and curve singularities --------------------------------------------------


def test_smooth_curves_have_no_singularities():
    for f in ("x^2 + y^2 - 1", "y - x^2", "x^4 + y^4 - 1"):
        assert curve_singularities(pp(f)) == []


def test_smooth_genus_by_degree():
    instances = {
        "x^2 + y^2 - 1": 0,
        "x^3 + y^3 - 1": 1,
        "x^4 + y^4 - 1": 3,
        "x^5 + y^5 + x^2*y^2 - 3": 6,
        "x^6 + y^6 + x*y - 1": 10,
    }
    for f, g in instances.items():
        assert curve_singularities(pp(f)) == []
        assert genus(pp(f)) == g


def test_nodal_cubic():
    sings = curve_singularities(pp("y^2 - x^2 - x^3"))
    assert len(sings) == 1
    s = sings[0]
    assert s.chart == "affine" and s.node and s.count == 1
    assert genus(pp("y^2 - x^2 - x^3")) == 0


def test_cuspidal_cubic_is_not_nodal():
    sings = curve_singularities(pp("y^2 - x^3"))
    assert len(sings) == 1 and not sings[0].node
    with pytest.raises(ValueError):
        genus(pp("y^2 - x^3"))
    assert genus(pp("y^2 - x^3"), deltas=[1]) == 0


def test_singularities_at_infinity():
    # two vertical lines meet at [0 : 1 : 0]
    sings = curve_singularities(pp("x^2 - 1"))
    assert [s.chart for s in sings] == ["inf2"] and sings[0].node
    # two parallel slanted lines meet at [1 : 1 : 0]
    sings = curve_singularities(pp("(y - x)*(y - x - 1)"))
    assert [s.chart for s in sings] == ["inf1"] and sings[0].node
    # tacnode at [0 : 1 : 0] is not a node
    sings = curve_singularities(pp("y^2 - x^4"))
    assert {s.chart: s.node for s in sings} == {"affine": False, "inf2": False}


def test_genus_with_explicit_deltas():
    assert genus(PlaneCurve(pp("x^4 + y^4 - 1")), deltas=[1, 2]) == 0
