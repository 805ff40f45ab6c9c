from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planefol import curves
from planefol.algebraic import _resolve_clusters, _vanishes, mod_reduce
from planefol.curves import (
    CofactorCertificate,
    CurveSingularity,
    PlaneCurve,
    curve_singularities,
    extactic,
    first_integral_check,
    first_integral_degree,
    genus,
    is_invariant,
    _extactic_matrix,
)
from planefol.families import linear_family, lins_neto
from planefol.foliation import _fresh_name, make_foliation
from planefol.mpoly import (
    MPoly,
    bareiss_det,
    exact_div,
    normalized,
    parse_poly,
    poly_gcd,
    squarefree_part,
)

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
    for genus, smooth in (([1], None), (True, None), (-1, None), (None, 1)):
        with pytest.raises(ValueError):
            PlaneCurve(pp("y - x^2"), genus=genus, smooth=smooth)
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


def test_first_integral_check_refuses_a_constant_ratio():
    # X annihilates every constant, so a constant ratio certifies nothing:
    # this field has no rational first integral of degree <= 3
    F = fol("x", "4*y - 2*x^2")
    assert first_integral_degree(F, 3) is None
    for num, den in (("y", "2*y"), ("3", "1"), ("0", "1")):
        assert not first_integral_check(F, pp(num), pp(den)), (num, den)


# -- extactic rows from the trajectory series ----------------------------------------


def _evaluated_matrix(F, m, point):
    at = dict(zip(F.vars, point))
    return [[e.eval_all(at) for e in row] for row in _extactic_matrix(F, m)]


@st.composite
def _series_fields(draw):
    """A dense field of degree <= 4 with small integer coefficients, or a
    Lins Neto field lins_neto(a) of degree 4."""
    if draw(st.booleans()):
        a = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        return lins_neto(a)
    d = draw(st.integers(1, 4))
    coef = st.integers(min_value=-3, max_value=3)
    P, Q = (MPoly(V, {(i, j): draw(coef) for i in range(d + 1) for j in range(d + 1 - i)})
            for _ in range(2))
    assume(not (P.is_zero() and Q.is_zero()))
    return make_foliation(P, Q)


_rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(F=_series_fields(), m=st.integers(1, 3), point=st.tuples(_rationals, _rationals))
def test_series_rows_are_the_extactic_matrix_at_the_point(F, m, point):
    # for m <= 3 the series runs to order N - 1 >= m^2, so the rows are
    # exactly those of the N x N matrix
    assert curves._series_rows(F, m, point) == _evaluated_matrix(F, m, point)


def test_series_rows_at_a_singular_point_and_on_an_invariant_line():
    F = lins_neto(1)
    # (1, 1) is singular: the trajectory is constant, so only row 0 survives
    rows = curves._series_rows(F, 3, (Fraction(1), Fraction(1)))
    assert rows == _evaluated_matrix(F, 3, (Fraction(1), Fraction(1)))
    assert all(v == 0 for row in rows[1:] for v in row)
    assert len(curves._kernel(rows)) == 9
    # (1, 2) lies on the invariant line x = 1, whose coefficient vector is
    # killed by every row
    point = (Fraction(1), Fraction(2))
    rows = curves._series_rows(F, 2, point)
    assert rows == _evaluated_matrix(F, 2, point)
    line = [{(0, 0): -1, (1, 0): 1}.get(e, 0) for e in curves._monomial_exponents(2)]
    assert all(sum(a * b for a, b in zip(row, line)) == 0 for row in rows)
    assert bareiss_det(rows) == 0


def test_kernel_is_the_rational_nullspace():
    rows = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]]
    basis = curves._kernel(rows)
    assert len(basis) == 2
    assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows for v in basis)
    assert curves._kernel([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(5)]]) == []


# -- planted first integrals --------------------------------------------------------


@st.composite
def _hamiltonians(draw):
    """A polynomial H of degree 2 or 3 with small integer coefficients."""
    d = draw(st.integers(2, 3))
    coef = st.integers(min_value=-3, max_value=3)
    H = MPoly(V, {(i, j): draw(coef) for i in range(d + 1) for j in range(d + 1 - i)})
    assume(H.total_degree() == d)
    return H


@settings(max_examples=30, deadline=None)
@given(H=_hamiltonians())
def test_planted_hamiltonian_integral_has_the_degree_of_H(H):
    # H is a first integral of -H_y d/dx + H_x d/dy; a lower-degree one
    # exists only when H is a polynomial in one linear form, that is when
    # H_x and H_y are proportional and the field divides down to a constant
    F = make_foliation(-H.diff("y"), H.diff("x"))
    assume(F.degree() > 0)
    d = H.total_degree()
    assert first_integral_degree(F, d) == d
    if d == 2:
        assert next(m for m in (1, 2) if extactic(F, m).is_zero()) == d


def test_planted_cubic_integral_against_the_determinant():
    # H = x^3 + y^3 - 3xy; the probe (1/2, -3/2) lies on the reducible leaf
    # H = -1, a line times a conic, where the kernel has dimension 6
    H = pp("x^3 + y^3 - 3*x*y")
    F = make_foliation(-H.diff("y"), H.diff("x"))
    assert first_integral_degree(F, 3) == 3
    assert not extactic(F, 2).is_zero() and extactic(F, 3).is_zero()
    assert len(curves._kernel(curves._series_rows(F, 3, curves._PROBE_POINTS[2]))) == 6


def test_planted_quartic_integral_uses_rows_up_to_m_squared(wall_clock_ceiling):
    # Bezout forces the kernel to the quartic leaf only from contact order
    # m^2 + 1 = 17 on, two more than the N = 15 rows give, so the series
    # runs to order m^2 = 16
    H = pp("x^4 + y^4 - x*y + 2*x")
    F = make_foliation(-H.diff("y"), H.diff("x"))
    assert len(curves._series_rows(F, 4, curves._PROBE_POINTS[0])) == 17
    with wall_clock_ceiling(10):
        assert first_integral_degree(F, 4) == 4


def test_first_integral_walk_passes_a_singular_first_probe(wall_clock_ceiling):
    # (2, 3), the first probe, is the only singular point: every kernel there
    # has dimension N - 1, and the walk moves on
    with wall_clock_ceiling(10):
        assert first_integral_degree(fol("x - 2", "y - 3"), 3) == 1


def test_lins_neto_one_has_a_cubic_first_integral(wall_clock_ceiling):
    with wall_clock_ceiling(10):
        assert first_integral_degree(lins_neto(1), 3) == 3


def test_first_integral_degree_expands_no_polynomial_determinant(monkeypatch):
    def scalar_det(rows):
        if any(isinstance(v, MPoly) for row in rows for v in row):
            pytest.fail("polynomial determinant expanded")
        return bareiss_det(rows)

    def no_matrix(F, m):
        pytest.fail("polynomial extactic matrix built")

    monkeypatch.setattr(curves, "bareiss_det", scalar_det)
    monkeypatch.setattr(curves, "_extactic_matrix", no_matrix)
    assert first_integral_degree(fol("3*x - 3*y^2", "3*x^2 - 3*y"), 4) == 3
    assert first_integral_degree(lins_neto(1), 3) == 3
    assert first_integral_degree(fol("x", "4*y - 2*x^2"), 3) is None


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


@settings(max_examples=30, deadline=None)
@given(p=st.integers(min_value=-6, max_value=6).filter(bool),
       q=st.integers(min_value=-6, max_value=6).filter(bool),
       m=st.integers(min_value=1, max_value=4))
def test_diagonal_extactic_vanishing(p, q, m):
    # the diagonal shortcut of _extactic_vanishes against the determinant,
    # taken once by the eigenvalue formula and once by elimination
    assume(gcd(abs(p), abs(q)) == 1)
    F, degree = linear_family(p, q)
    vanishes = curves._extactic_vanishes(F, m)
    assert vanishes == extactic(F, m).is_zero() == (m >= degree)
    assert vanishes == bareiss_det(_extactic_matrix(F, m)).is_zero()


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


def test_split_cluster_is_tested_once_per_condition(monkeypatch):
    # f = 12 y^2 - 12 g(x) with g' = x (x - 1)^2: aux = fx meets f in one
    # cluster of three points of multiplicity 2, the node at the origin and
    # the smooth points (1, +-1/sqrt(12)), where fy does not vanish
    f = "12*y^2 - 3*x^4 + 8*x^3 - 6*x^2"
    calls = []
    real = curves._eval_on_cluster

    def counting(p, g, *rest):
        calls.append(g.deg_in(g.vars[0]))
        return real(p, g, *rest)

    monkeypatch.setattr(curves, "_eval_on_cluster", counting)
    affine = [s for s in curve_singularities(pp(f)) if s.chart == "affine"]
    assert len(affine) == 1 and affine[0].node and affine[0].count == 1
    # fx on the cluster; fy on the cluster, which splits, and on both pieces;
    # the discriminant on the node. Retesting fx after the split made 7.
    assert calls == [3, 3, 1, 2, 1]


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


# -- points at infinity against the homogeneous-part formulas -----------------------


def _infinity_reference(C):
    """Singular points at infinity from the homogeneous parts f_n, f_(n-1),
    f_(n-2), the way they were computed before the curve was read in the
    charts at infinity."""
    f = C.f
    n = C.degree
    x, y = f.vars
    fn = f.homogeneous_part(n)
    fn1 = f.homogeneous_part(n - 1)
    fn2 = f.homogeneous_part(n - 2) if n >= 2 else MPoly.zero(f.vars)
    out = []
    tau = _fresh_name("t", f.vars)
    tvars = (tau,)

    def at_chart1(p):
        q = p.subs({x: MPoly.const(f.vars, 1)})
        return MPoly.from_univar(tau, q.scalar_coeffs(), tvars)

    g = None
    for p in (at_chart1(fn), at_chart1(fn.diff(y)), at_chart1(fn1)):
        if not p.is_zero():
            g = p if g is None else poly_gcd(g, p)
    g = normalized(g)
    if g.deg_in(tau) > 0:
        g = squarefree_part(g)
        disc = (at_chart1(fn1.diff(y)) ** 2
                - at_chart1(fn.diff(y).diff(y)) * (at_chart1(fn2) * 2))
        b, zero = MPoly.variable(tau, tvars), MPoly.zero(tvars)
        out += [CurveSingularity("inf1", *piece)
                for piece in _resolve_clusters(g, b, zero,
                                               lambda gi, bi, wi: not _vanishes(disc, gi))]

    def at_top(p):
        return p.eval_all({x: Fraction(0), y: Fraction(1)})

    if at_top(fn) == 0 and at_top(fn.diff(x)) == 0 and at_top(fn1) == 0:
        disc = at_top(fn1.diff(x)) ** 2 - at_top(fn.diff(x).diff(x)) * (2 * at_top(fn2))
        zero = MPoly.zero(tvars)
        out.append(CurveSingularity("inf2", MPoly.variable(tau, tvars), zero, zero, disc != 0))
    return out


def _at_infinity_key(sings):
    # the slope of an unsplit inf1 cluster is compared modulo its modulus
    return [(s.chart, s.modulus, mod_reduce(s.xt, s.modulus, s.modulus.vars[0]), s.yt, s.node)
            for s in sings]


_LINEAR_FORMS = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, -1)]


@st.composite
def _curves_with_points_at_infinity(draw):
    # the top part is a product of a few linear forms, so that repeated
    # factors (singular points at infinity) are common
    n = draw(st.integers(min_value=2, max_value=5))
    forms = draw(st.lists(st.sampled_from(_LINEAR_FORMS), min_size=1, max_size=3))
    top = MPoly.const(V, 1)
    for a, b in draw(st.lists(st.sampled_from(forms), min_size=n, max_size=n)):
        top = top * pp(f"{a}*x + {b}*y")
    lower = [(i, d - i) for d in range(n) for i in range(d + 1)]
    # mostly zero, so that f_(n-1) often shares the repeated factors too
    coeffs = draw(st.lists(st.sampled_from([0, 0, 0, 0, -2, -1, 1, 2]),
                           min_size=len(lower), max_size=len(lower)))
    f = top + MPoly(V, {e: Fraction(c) for e, c in zip(lower, coeffs) if c})
    try:
        return PlaneCurve(f)
    except ValueError:
        assume(False)


@settings(max_examples=200, deadline=None)
@given(_curves_with_points_at_infinity())
def test_infinity_singularities_match_the_formulas(C):
    assert (_at_infinity_key(curves._infinity_singularities(C))
            == _at_infinity_key(_infinity_reference(C)))


@pytest.mark.parametrize("f", [
    "x^2 - 1", "(y - x)*(y - x - 1)", "y^2 - x^4", "x^2 - y^5 + 1",
    "(x-2*y)^2*x^3 - y + 1", "x^2*y^2 + x + y", "(x^2 + y^2)^2 + x*y",
    "(x^2 - y^2)^2 + x^2 + x*y",
])
def test_infinity_singularities_match_the_formulas_on_examples(f):
    C = PlaneCurve(pp(f))
    assert (_at_infinity_key(curves._infinity_singularities(C))
            == _at_infinity_key(_infinity_reference(C)))


@pytest.mark.parametrize("f, text", [
    ("x^2 - y^5 + 1", "[1 : b : 0] with b = 0 mod t"),
    ("(x-2*y)^2*x^3 - y + 1", "[1 : b : 0] with b = 1/2 mod 2*t - 1"),
])
def test_unsplit_slope_at_infinity_is_reduced(f, text):
    # an unsplit cluster prints its slope modulo its modulus, as split
    # pieces do
    inf1 = [s.describe() for s in curve_singularities(pp(f)) if s.chart == "inf1"]
    assert inf1 == [text]
