import json
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from planefol.mpoly import (
    MPoly,
    bareiss_det,
    exact_div,
    linear_subresultant,
    normalized,
    parse_poly,
    poly_divmod,
    poly_gcd,
    prem,
    rational_content,
    resultant,
    squarefree_part,
    subresultant_prs,
    sylvester_matrix,
    yun_decomposition,
)
from planefol.numbers import QuadExt


X, Y = sympy.symbols("x y")


def to_sympy(f):
    expr = sympy.Integer(0)
    syms = {v: sympy.Symbol(v) for v in f.vars}
    for e, c in f.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, k in zip(f.vars, e):
            term *= syms[v] ** k
        expr += term
    return sympy.expand(expr)


# -- construction and formatting -------------------------------------------------


def test_parse_and_str_round_trip():
    f = parse_poly("3/2*x^2*y - 1", vars=("x", "y"))
    assert str(f) == "3/2*x^2*y - 1"
    assert parse_poly(str(f), vars=("x", "y")) == f


def test_gradlex_print_order():
    f = parse_poly("1 + y^2 + x + x*y + x^2 + y", vars=("x", "y"))
    assert str(f) == "x^2 + x*y + y^2 + x + y + 1"


def test_parse_rejects_implicit_multiplication():
    with pytest.raises(ValueError):
        parse_poly("2x", vars=("x",))


def test_parse_nested_and_signs():
    f = parse_poly("-(x - 2)^2 + x^2", vars=("x",))
    assert f == parse_poly("4*x - 4", vars=("x",))
    assert parse_poly("x**3 - x", vars=("x",)) == parse_poly("x^3 - x", vars=("x",))


def test_json_round_trip_bit_exact():
    f = parse_poly("3/2*x^2*y - y + 7", vars=("x", "y"))
    blob = json.dumps(f.to_json(), sort_keys=True)
    g = MPoly.from_json(json.loads(blob))
    assert g == f
    assert json.dumps(g.to_json(), sort_keys=True) == blob


def test_degrees_and_parts():
    f = parse_poly("x^2*y + x*y + 3", vars=("x", "y"))
    assert f.total_degree() == 3
    assert f.min_total_degree() == 0
    assert f.deg_in("x") == 2 and f.deg_in("y") == 1
    assert f.homogeneous_part(2) == parse_poly("x*y", vars=("x", "y"))
    assert MPoly.zero(("x",)).total_degree() == -1


def test_variable_alignment():
    f = parse_poly("x + 1", vars=("x",))
    g = parse_poly("y + 1", vars=("y",))
    h = f + g
    assert set(h.vars) == {"x", "y"}
    assert h == parse_poly("x + y + 2", vars=("x", "y"))


def test_with_vars_drops_absent_variable():
    f = parse_poly("t^2 - 2", vars=("x", "t", "y"))
    g = f.with_vars(("t",))
    assert g.vars == ("t",)
    assert g == parse_poly("t^2 - 2", vars=("t",))


def test_with_vars_rejects_occurring_variable():
    f = parse_poly("t^2 - x", vars=("x", "t"))
    with pytest.raises(ValueError, match="'x'"):
        f.with_vars(("t",))


# -- arithmetic ------------------------------------------------------------------


def test_mul_pow_diff():
    x = MPoly.variable("x", ("x", "y"))
    y = MPoly.variable("y", ("x", "y"))
    assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2
    f = x ** 3 * y - 2 * x
    assert f.diff("x") == 3 * x ** 2 * y - 2
    assert f.diff("y") == x ** 3


def test_subs_blowup_map():
    # y -> x*y must be a simultaneous substitution, not sequential
    f = parse_poly("x*y + y^2", vars=("x", "y"))
    g = f.subs({"y": parse_poly("x*y", vars=("x", "y"))})
    assert g == parse_poly("x^2*y + x^2*y^2", vars=("x", "y"))
    h = parse_poly("x + y", vars=("x", "y")).subs(
        {"x": parse_poly("y", vars=("x", "y")), "y": parse_poly("x", vars=("x", "y"))}
    )
    assert h == parse_poly("x + y", vars=("x", "y"))


def test_eval_all():
    f = parse_poly("x^2 - y/2", vars=("x", "y"))
    assert f.eval_all({"x": Fraction(3), "y": Fraction(4)}) == Fraction(7)


def test_quadext_coefficients_flow_through():
    s2 = QuadExt(0, 1, 2)
    x = MPoly.variable("x", ("x",))
    f = (x - s2) * (x + s2)
    assert f == x ** 2 - 2
    g = (x - s2) * (x - s2)
    d = poly_gcd(f, g)
    assert d == x - s2  # monic normalization over the extension


# -- division and gcd -------------------------------------------------------------


def test_divmod_and_exact_div():
    f = parse_poly("x^3 - 1", vars=("x",))
    g = parse_poly("x - 1", vars=("x",))
    q, r = poly_divmod(f, g)
    assert r.is_zero() and q == parse_poly("x^2 + x + 1", vars=("x",))
    assert exact_div(f, parse_poly("x + 1", vars=("x",))) is None


def test_content_and_normalized():
    f = parse_poly("6*x - 4", vars=("x",))
    assert rational_content(f) == Fraction(2)
    assert normalized(f) == parse_poly("3*x - 2", vars=("x",))
    assert normalized(-f) == parse_poly("3*x - 2", vars=("x",))
    h = parse_poly("x/2 - 1/3", vars=("x",))
    assert normalized(h) == parse_poly("3*x - 2", vars=("x",))


def test_gcd_univariate_frozen():
    f = parse_poly("(x^3 - 1)*(x - 2)", vars=("x",))
    g = parse_poly("x^3 - 1", vars=("x",))
    assert poly_gcd(f, g) == parse_poly("x^3 - 1", vars=("x",))
    assert poly_gcd(g, parse_poly("x - 5", vars=("x",))) == 1


def test_gcd_bivariate():
    f = parse_poly("(x + y)^2 * (x - y)", vars=("x", "y"))
    g = parse_poly("(x + y) * (x - y)^2", vars=("x", "y"))
    assert poly_gcd(f, g) == parse_poly("x^2 - y^2", vars=("x", "y"))


def test_gcd_with_zero_and_constants():
    f = parse_poly("2*x + 2", vars=("x",))
    z = MPoly.zero(("x",))
    assert poly_gcd(f, z) == parse_poly("x + 1", vars=("x",))
    assert poly_gcd(parse_poly("4", vars=("x",)), parse_poly("6", vars=("x",))) == 1


def test_prem_is_full_collins():
    # prem must carry lc(g)^(df-dg+1) even when elimination shortcuts occur
    f = parse_poly("x^3", vars=("x", "y"))
    g = parse_poly("2*x^2 + y", vars=("x", "y"))
    r = prem(f, g, "x")
    # 2^2 * x^3 mod g = x*(4x^2) -> x*(-2y) -> 4x^3 - 2xy*... direct: 4*x^3 = 2x*g - 2xy => r = -2xy... times remaining power
    q, rr = poly_divmod(f * 4, g)
    assert r == rr


def test_yun_decomposition():
    f = parse_poly("(x - 1)*(x - 2)^2*(x - 3)^3", vars=("x",))
    unit, parts = yun_decomposition(f)
    assert unit == 1
    assert parts == [
        (parse_poly("x - 1", vars=("x",)), 1),
        (parse_poly("x - 2", vars=("x",)), 2),
        (parse_poly("x - 3", vars=("x",)), 3),
    ]
    unit6, parts6 = yun_decomposition(f * 6)
    assert unit6 == 6 and parts6 == parts
    rebuilt = MPoly.const(("x",), unit6)
    for g, m in parts6:
        rebuilt = rebuilt * g ** m
    assert rebuilt == f * 6


def test_yun_squarefree_input():
    f = parse_poly("x^2 + 1", vars=("x",))
    unit, parts = yun_decomposition(f)
    assert unit == 1 and parts == [(f, 1)]


def test_squarefree_part_bivariate():
    f = parse_poly("(x^2 - y)^2 * (x + y)", vars=("x", "y"))
    s = squarefree_part(f)
    assert s == normalized(parse_poly("(x^2 - y)*(x + y)", vars=("x", "y")))


# -- determinants and resultants ---------------------------------------------------


def test_bareiss_det_scalar():
    m = [[Fraction(2), Fraction(1)], [Fraction(7), Fraction(4)]]
    assert bareiss_det(m) == Fraction(1)
    singular = [[1, 2], [2, 4]]
    assert bareiss_det(singular) == 0
    # zero pivot forces a row swap
    swap = [[0, 1], [1, 0]]
    assert bareiss_det(swap) == -1


def test_bareiss_det_poly_matches_sympy():
    x = MPoly.variable("x", ("x",))
    rows = [
        [x + 1, x ** 2, MPoly.const(("x",), 3)],
        [x, x - 1, MPoly.const(("x",), 0)],
        [MPoly.const(("x",), 2), x, x + 2],
    ]
    mine = bareiss_det(rows)
    srows = [[to_sympy(e) for e in row] for row in rows]
    assert to_sympy(mine) == sympy.expand(sympy.Matrix(srows).det())


def test_resultant_frozen_values():
    f = parse_poly("x^2 + 1", vars=("x",))
    g = parse_poly("x^2 - 1", vars=("x",))
    assert resultant(f, g, "x") == 4
    f2 = parse_poly("x^2 - y", vars=("x", "y"))
    g2 = parse_poly("x - 1", vars=("x", "y"))
    assert resultant(f2, g2, "x") == parse_poly("1 - y", vars=("x", "y"))
    assert resultant(parse_poly("x", vars=("x", "y")), parse_poly("y", vars=("x", "y")), "x") == parse_poly(
        "y", vars=("x", "y")
    )


def test_resultant_rejects_degenerate():
    c = parse_poly("3", vars=("x",))
    with pytest.raises(ValueError):
        resultant(c, c, "x")
    with pytest.raises(ValueError):
        resultant(MPoly.zero(("x",)), parse_poly("x", vars=("x",)), "x")


def test_resultant_common_factor_is_zero():
    f = parse_poly("(x - y)*(x + 1)", vars=("x", "y"))
    g = parse_poly("(x - y)*(x + 2)", vars=("x", "y"))
    assert resultant(f, g, "x").is_zero()


def test_resultant_matches_sympy_small():
    f = parse_poly("x^3 - 2*x*y + y^2 + 1", vars=("x", "y"))
    g = parse_poly("2*x^2 + x*y - 3", vars=("x", "y"))
    mine = resultant(f, g, "x")
    theirs = sympy.expand(sympy.resultant(to_sympy(f), to_sympy(g), X))
    assert to_sympy(mine) == theirs


def test_resultant_interpolation_path_matches_sympy():
    # degrees force (m+n)*(m*n) > 600 so the evaluation path runs
    f = parse_poly("x^7 + y^3*x^2 - 2*x + y + 1", vars=("x", "y"))
    g = parse_poly("x^7 - y*x^4 + 3*y^2 - 1", vars=("x", "y"))
    mine = resultant(f, g, "x")
    theirs = sympy.expand(sympy.resultant(to_sympy(f), to_sympy(g), X))
    assert to_sympy(mine) == theirs


def test_sylvester_shape():
    f = parse_poly("x^2 + 1", vars=("x",))
    g = parse_poly("x^3 - x", vars=("x",))
    rows = sylvester_matrix(f, g, "x")
    assert len(rows) == 5 and all(len(r) == 5 for r in rows)


def test_subresultant_prs_proportional_to_sympy():
    f = parse_poly("x^4 + x^3*y - 3*x + y^2", vars=("x", "y"))
    g = parse_poly("x^3 - x*y + 1", vars=("x", "y"))
    mine = subresultant_prs(f, g, "x")
    theirs = sympy.subresultants(to_sympy(f), to_sympy(g), X)
    assert len(mine) >= 3
    for p, q in zip(mine, theirs):
        sp = to_sympy(p)
        cp = sympy.Poly(sp, X, Y).LC()
        cq = sympy.Poly(q, X, Y).LC()
        assert sympy.expand(sp * cq - q * cp) == 0


def test_linear_subresultant_gives_y_rule():
    # common solutions of this pair satisfy y = x; the degree-1 element of the
    # PRS must encode exactly that rule
    f = parse_poly("y^2 - x", vars=("x", "y"))
    g = parse_poly("y^2 - 2*y + x", vars=("x", "y"))
    lin = linear_subresultant(f, g, "y")
    assert lin is not None and lin.deg_in("y") == 1
    t1 = lin.coeff_in("y", 1)
    t0 = lin.coeff_in("y", 0)
    assert (t1 * parse_poly("x", vars=("x", "y")) + t0).is_zero()


# -- property tests ----------------------------------------------------------------


coef = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def small_polys(draw, vars=("x", "y"), max_deg=3, max_terms=4):
    n_terms = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n_terms):
        exp = tuple(
            draw(st.integers(min_value=0, max_value=max_deg)) for _ in vars
        )
        terms[exp] = draw(coef)
    return MPoly(vars, terms)


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=60, deadline=None)
def test_ring_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert f + (g + h) == (f + g) + h
    assert f - f == 0


@given(small_polys(vars=("x",), max_deg=4), small_polys(vars=("x",), max_deg=3))
@settings(max_examples=40, deadline=None)
def test_divmod_identity(f, g):
    if g.is_zero():
        return
    q, r = poly_divmod(f, g)
    assert q * g + r == f


@given(small_polys(vars=("x",), max_deg=4), small_polys(vars=("x",), max_deg=4))
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(f, g):
    if f.is_zero() and g.is_zero():
        return
    d = poly_gcd(f, g)
    assert not d.is_zero()
    assert exact_div(f, d) is not None
    assert exact_div(g, d) is not None


@given(small_polys(max_deg=2, max_terms=3), small_polys(max_deg=2, max_terms=3))
@settings(max_examples=30, deadline=None)
def test_resultant_matches_sympy_property(f, g):
    if f.deg_in("x") < 1 or g.deg_in("x") < 1:
        return
    mine = resultant(f, g, "x")
    theirs = sympy.expand(sympy.resultant(to_sympy(f), to_sympy(g), X))
    assert to_sympy(mine) == theirs
