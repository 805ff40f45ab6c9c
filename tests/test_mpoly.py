import json
import random
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from planefol import mpoly
from planefol.algebraic import mod_reduce
from planefol.mpoly import (
    _CERT_POINTS,
    _CERT_PRIMES,
    MPoly,
    _coprime_mod_p,
    _exact_quo,
    _image_mod_p,
    _integer_coeffs,
    _interpolate_mod_p,
    _packing,
    _pseudo_remainder,
    _residues_mod_p,
    _resultant_mod_p,
    _zquo,
    bareiss_det,
    exact_div,
    linear_subresultant,
    normalized,
    parse_poly,
    poly_divmod,
    poly_gcd,
    rational_content,
    resultant,
    squarefree_part,
    subresultant_prs,
    yun_decomposition,
)
from planefol.families import lins_neto, power_pullback
from planefol.numbers import QuadExt
from planefol.singularities import singular_points


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


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(st.builds(Fraction, st.integers(-50, 50), st.integers(1, 30)),
                          st.integers(-9, 9)), max_size=8))
def test_integer_coeffs_clear_denominators(coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    scale, ints = _integer_coeffs(coeffs)
    # the reference: a running lcm, and Fraction products with it
    den = 1
    for c in coeffs:
        den = lcm(den, c.denominator)
    assert scale == den
    assert ints == [int(c * den) for c in coeffs]
    assert all(type(n) is int for n in ints)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=5, unique=True),
       st.lists(st.one_of(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 5)),
                          st.integers(-3, 3),
                          st.builds(lambda a, b: QuadExt(a, b, 2), st.integers(-3, 3),
                                    st.integers(-3, 3))), min_size=5, max_size=5))
def test_is_rational_matches_fraction_reference(exps, coeffs):
    f = MPoly(("x", "y"), dict(zip(exps, coeffs)))
    reference = all(isinstance(c, (int, Fraction)) for c in f.terms.values())
    assert f.is_rational() == reference
    assert MPoly.zero(("x",)).is_rational()


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


def test_gcd_certificate_skips_images_that_lose_degree():
    # At the first specialisation values the leading coefficients of G in x
    # (y - b) and in y (x - a) vanish, and the images of G become 1.
    a, b = _CERT_POINTS[0], _CERT_POINTS[1]
    V = ("x", "y")
    G = parse_poly(f"(x - {a})*(y - {b}) + 1", vars=V)
    f, g = G * parse_poly("x + y + 2", vars=V), G * parse_poly("x - y + 5", vars=V)
    assert not _coprime_mod_p(f, g)
    assert poly_gcd(f, g) == normalized(G)


def test_gcd_certificate_skips_a_prime_dividing_a_denominator():
    V = ("x", "y")
    p, q = _CERT_PRIMES
    h = MPoly(V, {(1, 0): 1, (0, 1): Fraction(1, p)})
    assert poly_gcd(h * parse_poly("x - y", vars=V), h * parse_poly("x + 2*y", vars=V)) == normalized(h)
    assert _coprime_mod_p(h, parse_poly("x + 2*y + 1", vars=V))
    assert poly_gcd(h, parse_poly("x + 2*y + 1", vars=V)) == 1
    # no usable prime: no certificate, and the PRS still answers
    k = MPoly(V, {(1, 0): 1, (0, 1): Fraction(1, p * q)})
    assert not _coprime_mod_p(k, parse_poly("x + 1", vars=V))
    assert poly_gcd(k, parse_poly("x + 1", vars=V)) == 1


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(lambda c: c[-1]),
       st.lists(st.integers(-9, 9), min_size=1, max_size=6).filter(lambda c: c[-1]))
@settings(max_examples=60, deadline=None)
def test_resultant_and_interpolation_mod_p(a, b):
    p = _CERT_PRIMES[0]
    A = MPoly(("x",), {(k,): c for k, c in enumerate(a)})
    B = MPoly(("x",), {(k,): c for k, c in enumerate(b)})
    if len(a) > 1 or len(b) > 1:
        res = resultant(A, B, "x").constant_value()
        assert _resultant_mod_p([c % p for c in a], [c % p for c in b], p) == res % p
    values = [int(A.eval_all({"x": Fraction(k)})) % p for k in range(len(a) + 2)]
    assert _interpolate_mod_p(values, p) == [c % p for c in a]


def _image_mod_p_reference(f, i, point, p):
    out = [0] * (max(e[i] for e in f.terms) + 1)
    for exp, c in f.terms.items():
        t = c.numerator * pow(c.denominator, -1, p)
        for j, e in enumerate(exp):
            if e and j != i:
                t = t * pow(point[j], e, p) % p
        out[exp[i]] = (out[exp[i]] + t) % p
    return out


_EXPONENT = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3))
_COEFF = st.builds(Fraction, st.one_of(st.integers(-50, 50), st.integers(-2**70, 2**70)).filter(bool),
                   st.integers(1, 2**64))


@given(st.lists(st.dictionaries(_EXPONENT, _COEFF, min_size=1, max_size=8), min_size=1, max_size=3),
       st.integers(0, 2), st.lists(st.integers(-3, 20), min_size=3, max_size=3),
       st.sampled_from(_CERT_PRIMES))
@settings(max_examples=80, deadline=None)
def test_image_mod_p_matches_per_term_reference(terms, i, point, p):
    # residues reduced once and powers shared by all the polynomials give the
    # images that reducing every term anew gives
    polys = [MPoly(("x", "y", "z"), t) for t in terms]
    assume(all(c.denominator % p for f in polys for c in f.terms.values()))
    images = _image_mod_p([_residues_mod_p(f, p) for f in polys], i, point, p)
    assert images == [_image_mod_p_reference(f, i, point, p) for f in polys]


def test_gcd_quadext_pair_runs_the_prs(monkeypatch):
    V = ("x", "y")
    s = QuadExt(0, 1, 2)
    f = MPoly(V, {(1, 0): 1, (0, 1): s})
    g = MPoly(V, {(1, 0): 1, (0, 1): -s, (0, 0): 1})
    calls = []
    real_step = mpoly._pseudo_remainder
    monkeypatch.setattr(mpoly, "_pseudo_remainder", lambda *a: calls.append(a) or real_step(*a))
    assert not _coprime_mod_p(f, g)
    assert poly_gcd(f, g) == 1
    assert calls
    assert poly_gcd(f * g, f * f) == f


def test_prem_is_full_collins():
    # the pseudo-remainder must carry lc(g)^(df-dg+1) even when one step
    # drops more than one degree: 2^2 * x^3 = 2*x*g - 2*x*y after one step
    V = ("x", "y")
    f = parse_poly("x^3", vars=V)
    g = parse_poly("2*x^2 + y", vars=V)
    pack, _, _ = _packing(V, 4)

    def dense(p):
        return [{k: int(c) for k, c in pack(c).items()} for c in p.as_univar("x")]

    r = _pseudo_remainder(dense(f), dense(g))
    assert r == dense(poly_divmod(f * 4, g)[1])


def test_yun_decomposition():
    f = parse_poly("(x - 1)*(x - 2)^2*(x - 3)^3", vars=("x",))
    parts = yun_decomposition(f)
    assert parts == [
        (parse_poly("x - 1", vars=("x",)), 1),
        (parse_poly("x - 2", vars=("x",)), 2),
        (parse_poly("x - 3", vars=("x",)), 3),
    ]
    parts6 = yun_decomposition(f * -6)
    assert parts6 == parts
    rebuilt = MPoly.const(("x",), 1)
    for g, m in parts6:
        rebuilt = rebuilt * g ** m
    assert rebuilt == normalized(f * -6)


def test_yun_squarefree_input():
    f = parse_poly("x^2 + 1", vars=("x",))
    assert yun_decomposition(f * 3) == [(f, 1)]


def test_squarefree_part_bivariate():
    f = parse_poly("(x^2 - y)^2 * (x + y)", vars=("x", "y"))
    s = squarefree_part(f)
    assert s == normalized(parse_poly("(x^2 - y)*(x + y)", vars=("x", "y")))


@pytest.mark.parametrize("text", [
    "x*y",
    "y*(x^2 + 1)",
    "x*(x + y)",
    "x^2*y^3",
    "(x - y)^2*(x + 1)^3*y",
    "(x^2 + y^2 - 1)^2*(x - 2*y)",
    "3*x^4",
])
def test_squarefree_part_matches_sympy(text):
    f = parse_poly(text, vars=("x", "y"))
    s = squarefree_part(f)
    ratio = sympy.cancel(to_sympy(s) / sympy.sqf_part(to_sympy(f)))
    assert ratio.is_Number and ratio != 0
    assert s == normalized(s)


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


def _cofactor_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, a in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total = total + (-1) ** j * a * _cofactor_det(minor)
    return total


def test_bareiss_det_quadext_matches_cofactor_expansion():
    s2 = QuadExt(0, 1, 2)
    x = MPoly.variable("x", ("x", "y"))
    y = MPoly.variable("y", ("x", "y"))
    rows = [
        [x + s2, y * s2, MPoly.const(("x", "y"), Fraction(1, 3))],
        [x * y - 1, MPoly.const(("x", "y"), s2 + 1), x * s2],
        [y, x - y * Fraction(1, 2), MPoly.zero(("x", "y"))],
    ]
    det = bareiss_det(rows)
    assert not det.is_zero() and det == _cofactor_det(rows)
    scalars = [[s2, 1, Fraction(2, 3)], [0, s2 + 1, 3], [1, 2, s2]]
    assert bareiss_det(scalars) == _cofactor_det(scalars)


def test_bareiss_det_keeps_first_seen_variable_order():
    y = parse_poly("y", vars=("y",))
    x = parse_poly("x", vars=("x",))
    zx = parse_poly("z + x", vars=("z", "x"))
    det = bareiss_det([[y, x], [zx, 2]])
    assert det.vars == ("y", "x", "z")
    assert det == parse_poly("2*y - x*z - x^2", vars=("y", "x", "z"))


def test_bareiss_det_singular_is_zero_over_the_union():
    x = parse_poly("x", vars=("x",))
    y = parse_poly("y", vars=("y",))
    for rows in ([[x, y], [x * 2, y * 2]], [[0, x], [0, y]]):
        det = bareiss_det(rows)
        assert isinstance(det, MPoly) and det.is_zero() and det.vars == ("x", "y")


def test_bareiss_division_checks_exactness():
    pack, _, guard = _packing(("x",), 2)

    def zpack(text):
        return {k: int(c) for k, c in pack(parse_poly(text, vars=("x",))).items()}

    with pytest.raises(ArithmeticError, match="not exact"):
        _exact_quo(zpack("x^2 + 1"), zpack("x + 1"), guard, _zquo)
    with pytest.raises(ArithmeticError, match="not exact"):
        _exact_quo(zpack("2*x"), zpack("3*x"), guard, _zquo)
    assert _exact_quo(zpack("x^2 - 1"), zpack("x + 1"), guard, _zquo) == zpack("x - 1")


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


@pytest.mark.parametrize("f, g", [
    ("x^7 + y^3*x^2 - 2*x + y + 1", "x^7 - y*x^4 + 3*y^2 - 1"),
    ("x^11 + y*x^5 - 2*x^2*y^2 + y^3 + 1", "x^11 - 3*y^2*x^7 + x*y + y - 2"),
], ids=["deg7", "deg11"])
def test_resultant_bivariate_matches_sympy(f, g):
    f, g = parse_poly(f, vars=("x", "y")), parse_poly(g, vars=("x", "y"))
    mine = resultant(f, g, "x")
    theirs = sympy.expand(sympy.resultant(to_sympy(f), to_sympy(g), X))
    assert to_sympy(mine) == theirs


def test_resultant_trivariate_matches_sympy():
    vars = ("x", "y", "z")
    f = parse_poly("x^3 + y*z*x - z^2 + 1/2", vars=vars)
    g = parse_poly("x^2*y - z*x + y^2 - 3", vars=vars)
    mine = resultant(f, g, "x")
    assert mine.vars == vars and mine.deg_in("x") <= 0
    theirs = sympy.expand(sympy.resultant(to_sympy(f), to_sympy(g), X))
    assert to_sympy(mine) == theirs


def sylvester_matrix(f, g, var):
    """The Sylvester matrix of f and g in `var`: n shifted rows of f's
    coefficients, then m of g's, highest power first. Its determinant is the
    reference value of `resultant`."""
    f, g = f._pair(g)
    m = f.deg_in(var)
    n = g.deg_in(var)
    fa = f.as_univar(var)
    ga = g.as_univar(var)
    size = m + n
    zero = MPoly.zero(f.vars)
    rows = []
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(reversed(fa)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(ga)):
            row[i + j] = c
        rows.append(row)
    return rows


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


def from_sympy(expr, vars):
    poly = sympy.Poly(expr, *[sympy.Symbol(v) for v in vars])
    return MPoly(vars, {e: Fraction(int(c.p), int(c.q)) for e, c in poly.terms()})


def _proportional(p, q):
    """p = c*q for a nonzero scalar c: cross-multiply the grad-lex leading
    coefficients."""
    return bool(p) and bool(q) and (p * q.lt()[1] - q * p.lt()[1]).is_zero()


def _packed_degrees(monkeypatch):
    """Record the packing bound `subresultant_prs` asks for, and the largest
    total degree of a term formed by any packed product (before cancellation)
    or quotient inside it: the top digit of a packed key is its total
    degree."""
    seen = {"top": [], "deg": 0}
    shift = []
    real_packing, real_mul_sub, real_quo = mpoly._packing, mpoly._mul_sub, mpoly._exact_quo

    def packing(vars, top):
        seen["top"].append(top)
        shift.append((top.bit_length() + 1) * len(vars))
        return real_packing(vars, top)

    def degree(*factors):
        if all(factors):
            seen["deg"] = max(seen["deg"], sum(max(x) >> shift[-1] for x in factors))

    def mul_sub(a, b, c, d):
        degree(a, b)
        degree(c, d)
        return real_mul_sub(a, b, c, d)

    def quo(*args):
        q = real_quo(*args)
        degree(q)
        return q

    monkeypatch.setattr(mpoly, "_packing", packing)
    monkeypatch.setattr(mpoly, "_mul_sub", mul_sub)
    monkeypatch.setattr(mpoly, "_exact_quo", quo)
    return seen


def _seeded_pair(seed):
    """A rational pair in 1-3 variables, main variable x, of one of three
    kinds. plain: degrees 4 and 3. sparse: degrees 5 and 3 with only the top
    and constant coefficients in x, so the first step drops by two and the
    remainder has a zero x^1 coefficient. jump: g = c*f + l with deg_x l = 2,
    so the step after g drops by two and the step after that divides by the
    h this drop updated."""
    rng = random.Random(seed)
    vars = ("x", "y", "z")[:1 + seed % 3]
    kind = ("plain", "sparse", "jump")[seed // 3 % 3]

    def poly(dx, sparse=False):
        terms = {}
        for k in range(dx + 1):
            if sparse and 0 < k < dx:
                continue
            for _ in range(2):
                e = (k,) + tuple(rng.randint(0, 1) for _ in vars[1:])
                terms[e] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        return MPoly(vars, terms)

    if kind == "plain":
        return kind, poly(4), poly(3)
    if kind == "sparse":
        return kind, poly(5, sparse=True), poly(3, sparse=True)
    f = poly(4)
    return kind, f, poly(0) * f + poly(2)


@pytest.mark.parametrize("seed", range(18))
def test_subresultant_prs_seeded_pairs_proportional_to_sympy(seed, monkeypatch):
    kind, f, g = _seeded_pair(seed)
    seen = _packed_degrees(monkeypatch)
    mine = subresultant_prs(f, g, "x")
    degrees = [p.deg_in("x") for p in mine]
    # the defective step of each kind happens, and a step follows it
    if kind == "sparse":
        assert degrees[0] - degrees[1] == 2 and len(mine) >= 4
    elif kind == "jump":
        assert degrees[1] - degrees[2] == 2 and len(mine) >= 4
    assert seen["deg"] <= seen["top"][0]
    theirs = sympy.subresultants(to_sympy(f), to_sympy(g), sympy.Symbol("x"))
    assert len(mine) == len(theirs)
    for p, q in zip(mine, theirs):
        assert _proportional(p, from_sympy(q, f.vars))


def test_subresultant_prs_clears_each_input_on_its_own():
    # f is integral and g is scaled by Lg = 35 only, so the last element is
    # +-S_0(f, 35 g) = +-35^2 Res(f, g); one denominator for both would give
    # +-35^3 Res(f, g)
    V = ("x", "y")
    f = parse_poly("3*x^2*y + x + 1", vars=V)
    g = parse_poly("x/7 + y/5", vars=V)
    last = subresultant_prs(f, g, "x")[-1]
    R = resultant(f, g, "x")
    assert last.deg_in("x") == 0
    assert last in (R * 35 ** 2, R * -35 ** 2)


def test_subresultant_prs_quadext_pair():
    # subresultants are determinants, so substituting y = 1 + sqrt(2)
    # commutes with them: while no leading coefficient in x vanishes there,
    # the PRS of the images is proportional, element by element, to the
    # images of the rational PRS
    V = ("x", "y")
    f = parse_poly("x^4 + x^3*y - 3*x + y^2", vars=V)
    g = parse_poly("x^3 - x*y + 1", vars=V)
    s = QuadExt(1, 1, 2)
    images = [p.subs({"y": s}) for p in subresultant_prs(f, g, "x")]
    mine = subresultant_prs(f.subs({"y": s}), g.subs({"y": s}), "x")
    assert not any(p.is_rational() for p in mine[2:])
    assert [p.deg_in("x") for p in mine] == [p.deg_in("x") for p in images] == [4, 3, 2, 1, 0]
    assert all(_proportional(p, q) for p, q in zip(mine, images))


def test_subresultant_prs_intermediates_within_the_packing_bound(monkeypatch):
    # m = 3, n = 2 and dense coefficients of degree d = 3 in y: the
    # subresultants reach their Sylvester degrees (m + n - 2j) d, 9 and 15,
    # and the pseudo-remainder of g by S1 reaches d + 2 * 3d = 21 before its
    # division by lc(g)^2. Packing digits sized for the elements alone,
    # (m + n) d = 15, hold degrees up to 15 only; the bound
    # (m + n + 2)(m + n) d = 105 holds all of them.
    V = ("x", "y")
    f = parse_poly("(y^3 + 2*y^2 - y + 1)*x^3 + (2*y^3 - y^2 + 3*y - 2)*x^2"
                   " + (y^3 + y^2 + y - 3)*x + (3*y^3 - 2*y^2 + y + 1)", vars=V)
    g = parse_poly("(2*y^3 + y^2 - 3*y + 1)*x^2 + (y^3 - 2*y^2 + 2*y + 3)*x"
                   " + (-y^3 + 3*y^2 + y - 2)", vars=V)
    seen = _packed_degrees(monkeypatch)
    mine = subresultant_prs(f, g, "x")
    theirs = sympy.subresultants(to_sympy(f), to_sympy(g), X)
    assert len(mine) == len(theirs)
    assert all(_proportional(p, from_sympy(q, V)) for p, q in zip(mine, theirs))
    assert [(p.deg_in("x"), p.total_degree() - p.deg_in("x")) for p in mine] == \
        [(3, 3), (2, 3), (1, 9), (0, 15)]
    assert seen["top"] == [105]
    # (15).bit_length() + 1 = 5 bits per digit, one of them the guard bit
    assert seen["deg"] == 21 > 2 ** 4 - 1


@pytest.mark.parametrize("f, g, rule", [
    # common solutions of this pair satisfy y = x; S1 must encode that rule
    ("y^2 - x", "y^2 - 2*y + x", "x"),
    # an input of degree 1 in y is returned as it is
    ("y^2 - x", "y - x", "x"),
    # a common factor of degree 2 in y: no subresultant of degree 1
    ("(y^2 - x)*(y + 1)", "(y^2 - x)*(y - 2)", None),
], ids=["y-equals-x", "degree-1-input", "common-quadratic"])
def test_linear_subresultant_gives_y_rule(f, g, rule):
    f, g = parse_poly(f, vars=("x", "y")), parse_poly(g, vars=("x", "y"))
    lin = linear_subresultant(f, g, "y")
    if rule is None:
        assert lin is None
        return
    assert lin is not None and lin.deg_in("y") == 1
    if g.deg_in("y") == 1:
        assert lin is g
    t1 = lin.coeff_in("y", 1)
    t0 = lin.coeff_in("y", 0)
    assert (t1 * parse_poly(rule, vars=("x", "y")) + t0).is_zero()


def test_resultants_run_no_determinant(monkeypatch, wall_clock_ceiling):
    # every resultant and S1 comes from the subresultant chain; the Bareiss
    # determinant serves only the extactics
    def refuse(*args):
        raise AssertionError("a resultant ran a Bareiss determinant")

    monkeypatch.setattr(mpoly, "bareiss_det", refuse)
    # the pullback(0) field x^7 - x, y^7 - y sheared by x -> x + 3y, the first
    # shear `affine_singular_points` accepts on it
    shear = {"x": parse_poly("x + 3*y", vars=("x", "y"))}
    P = parse_poly("x^7 - x", vars=("x", "y")).subs(shear)
    Q = parse_poly("y^7 - y", vars=("x", "y")).subs(shear)
    lin = linear_subresultant(P, Q, "y")
    assert lin is not None and lin.deg_in("y") == 1
    assert resultant(P, Q, "y").total_degree() == 49
    with wall_clock_ceiling(120):
        for alpha in (0, 1):
            assert singular_points(power_pullback(lins_neto(alpha), 2))


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


def _divmod_reference(f, g):
    # long division with the leading term taken by max over grad-lex keys
    gexp, gcoef = g.lt()
    q, r, work = MPoly.zero(f.vars), MPoly.zero(f.vars), f
    while work.terms:
        exp, c = work.lt()
        if all(a >= b for a, b in zip(exp, gexp)):
            t = MPoly.monomial(f.vars, tuple(a - b for a, b in zip(exp, gexp)), c / gcoef)
            q, work = q + t, work - t * g
        else:
            t = MPoly.monomial(f.vars, exp, c)
            r, work = r + t, work - t
    return q, r


@given(small_polys(max_deg=4, max_terms=6), small_polys(max_deg=2))
@settings(max_examples=60, deadline=None)
def test_divmod_matches_reference_loop(f, g):
    if g.is_zero():
        return
    assert poly_divmod(f, g) == _divmod_reference(f, g)


def _divmod_univar_reference(f, g, var):
    # the dense univariate division that `mod_reduce` and the univariate gcd
    # ran before `poly_divmod` replaced it: constant-MPoly coefficients in
    # `var`, eliminated from the top power down
    fa, ga = f.as_univar(var), g.as_univar(var)
    dg = len(ga) - 1
    lcv = ga[-1].constant_value()
    q = [MPoly.zero(f.vars) for _ in range(max(len(fa) - dg, 0))]
    rem = list(fa)
    for k in range(len(rem) - 1, dg - 1, -1):
        if rem[k].is_zero():
            continue
        factor = rem[k] / lcv
        q[k - dg] = factor
        for j, gj in enumerate(ga):
            rem[k - dg + j] = rem[k - dg + j] - factor * gj
    qq = MPoly.from_univar(var, q, f.vars) if q else MPoly.zero(f.vars)
    rr = MPoly.from_univar(var, rem[:dg], f.vars) if dg > 0 else MPoly.zero(f.vars)
    return qq, rr


@st.composite
def _modulus_division(draw):
    """(dividend over (x, y, t), divisor univariate in t with a leading
    coefficient other than 1), coefficients rational or in Q(sqrt d)."""
    d = draw(st.sampled_from([None, 2, -3]))

    def scalar():
        a = draw(coef)
        return a if d is None else QuadExt(a, draw(coef), d)

    n = draw(st.integers(min_value=1, max_value=3))
    lc = draw(coef.filter(lambda c: c not in (0, 1)))
    lc = lc if d is None else QuadExt(lc, draw(coef), d)
    g = MPoly(("t",), {**{(k,): scalar() for k in range(n)}, (n,): lc})
    exps = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 5))
    f = MPoly(("x", "y", "t"), {e: scalar() for e in draw(st.lists(exps, max_size=6))})
    return f, g


@given(_modulus_division())
@settings(max_examples=60, deadline=None)
def test_modulus_division_matches_dense_reference(case):
    f, g = case
    q, r = _divmod_univar_reference(f, g, "t")
    assert poly_divmod(f, g) == (q, r)
    red = mod_reduce(f, g, "t")
    assert red == r and red.vars == f.vars and str(red) == str(r)


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(small_polys(max_deg=2, max_terms=3), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=30, deadline=None)
def test_bareiss_det_matches_sympy_property(rows):
    mine = bareiss_det(rows)
    srows = [[to_sympy(e) for e in row] for row in rows]
    theirs = sympy.expand(sympy.Matrix(srows).det(method="berkowitz"))
    assert mine.vars == ("x", "y") and to_sympy(mine) == theirs


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


def _gcd_factor():
    one = MPoly(("x", "y"), {(0, 0): 1})
    content = st.tuples(small_polys(vars=("x", "y"), max_deg=2, max_terms=2),
                        small_polys(vars=("x", "y"), max_deg=2, max_terms=2))
    return st.one_of(
        st.just(one),
        small_polys(max_deg=2, max_terms=3),
        # a factor in one variable only: nonconstant content in the PRS variable
        content.map(lambda p: MPoly(("x", "y"), {(e[0], 0): c for e, c in p[0].terms.items()})
                    * MPoly(("x", "y"), {(0, e[1]): c for e, c in p[1].terms.items()})),
    )


@given(small_polys(max_deg=2), small_polys(max_deg=2), _gcd_factor())
@settings(max_examples=60, deadline=None)
def test_gcd_matches_sympy_property(A, B, G):
    f, g = A * G, B * G
    if f.is_zero() and g.is_zero():
        return
    mine = to_sympy(poly_gcd(f, g))
    theirs = sympy.gcd(to_sympy(f), to_sympy(g))
    q, r = sympy.div(mine, theirs, X, Y)
    assert r == 0 and q != 0 and not q.free_symbols


def _linear_subresultant_reference(f, g, var):
    """The PRS loop `linear_subresultant` ran before it became a determinant:
    the first element of degree 1 in `var`."""
    return next((p for p in subresultant_prs(f, g, var) if p.deg_in(var) == 1), None)


def _below_in_y(f, top):
    """The terms of f of degree at most `top` in y."""
    return MPoly(f.vars, {e: c for e, c in f.terms.items() if e[1] <= top})


@st.composite
def _subresultant_pair(draw):
    nonzero = small_polys(max_deg=3).filter(bool)
    f, g = draw(nonzero), draw(nonzero)
    kind = draw(st.sampled_from(("plain", "common", "low", "jump")))
    if kind == "common":
        h = draw(small_polys(max_deg=2).filter(bool))
        f, g = f * h, g * h
    elif kind == "low":
        # degree 0 or 1 in y, on one input or both
        g = _below_in_y(g, draw(st.integers(0, 1)))
        if draw(st.booleans()):
            f = _below_in_y(f, draw(st.integers(0, 1)))
    elif kind == "jump":
        # g = c(x) f + r with deg_y r <= deg_y f - 2: a defective PRS whose
        # degree drops by two or more after g (to 0 when deg_y f = 2)
        c = draw(small_polys(vars=("x",), max_deg=2).filter(bool)).with_vars(("x", "y"))
        g = c * f + _below_in_y(g, f.deg_in("y") - 2)
    if draw(st.booleans()):
        f, g = g, f
    assume(f and g)
    return f, g


@given(_subresultant_pair())
@settings(max_examples=120, deadline=None)
def test_linear_subresultant_matches_prs_reference(pair):
    f, g = pair
    mine = linear_subresultant(f, g, "y")
    ref = _linear_subresultant_reference(f, g, "y")
    assert (mine is None) == (ref is None)
    if ref is None:
        return
    assert mine.deg_in("y") == 1
    if ref is f or ref is g:
        assert mine is ref
    # proportional over Q(x): cross-multiply the leading coefficients in y
    assert (mine * ref.coeff_in("y", 1) - ref * mine.coeff_in("y", 1)).is_zero()


def _subresultant_matrix_s1(f, g, var):
    """S1 as `linear_subresultant` computed it before the subresultant chain:
    one Bareiss determinant of the Sylvester rows without the top shift of
    each block, less the var^(m+n-1) column, with the var^1 and var^0 columns
    folded into one; None unless of degree 1, and an input of degree 1 as it
    is."""
    f, g = f._pair(g)
    if f.deg_in(var) < g.deg_in(var):
        f, g = g, f
    for p in (f, g):
        if p.deg_in(var) == 1:
            return p
    n = g.deg_in(var)
    if n < 2:
        return None
    rows = sylvester_matrix(f, g, var)
    v = MPoly.variable(var, f.vars)
    s1 = bareiss_det([row[1:-2] + [row[-2] * v + row[-1]]
                      for row in rows[1:n] + rows[n + 1:]])
    return s1 if s1.deg_in(var) == 1 else None


@st.composite
def _oracle_pair(draw):
    """A `_subresultant_pair` (degree gaps, common factors, degrees 0 and 1,
    either order), over Q or, with x scaled by 1 + sqrt(2), over Q(sqrt 2)."""
    f, g = draw(_subresultant_pair())
    if draw(st.booleans()):
        s = {"x": MPoly(("x", "y"), {(1, 0): QuadExt(1, 1, 2)})}
        f, g = f.subs(s), g.subs(s)
    return f, g


@given(_oracle_pair())
@settings(max_examples=150, deadline=None)
def test_resultant_and_s1_equal_their_determinants(pair):
    # exact equality, sign and scale included, with the determinants the
    # subresultant chain replaced
    f, g = pair
    s1, ref = linear_subresultant(f, g, "y"), _subresultant_matrix_s1(f, g, "y")
    assert (s1 is None) == (ref is None)
    if ref is not None:
        assert s1.vars == ref.vars and s1.terms == ref.terms
    if f.deg_in("y") <= 0 and g.deg_in("y") <= 0:
        return
    res, det = resultant(f, g, "y"), bareiss_det(sylvester_matrix(f, g, "y"))
    assert res.vars == det.vars and res.terms == det.terms


# -- substitution ------------------------------------------------------------------


def _subs_reference(p, mapping):
    # the substitution `MPoly.subs` ran before it grouped terms: one MPoly
    # product per term, from a cache of MPoly image powers, summed one piece
    # at a time
    images = {}
    union = list(p.vars)
    for v, img in mapping.items():
        if v not in p.vars:
            continue
        if isinstance(img, (int, Fraction, QuadExt)):
            img = MPoly.const(p.vars, img)
        images[v] = img
        for w in img.vars:
            if w not in union:
                union.append(w)
    if not images:
        return p
    union = tuple(union)
    aligned = {v: img.with_vars(union) for v, img in images.items()}
    powers = {v: [MPoly.const(union, 1), img] for v, img in aligned.items()}

    def img_pow(v, k):
        cache = powers[v]
        while len(cache) <= k:
            cache.append(cache[-1] * cache[1])
        return cache[k]

    result = MPoly.zero(union)
    for e, c in p.terms.items():
        piece = MPoly.const(union, c)
        passthrough = [0] * len(union)
        for v, power in zip(p.vars, e):
            if power == 0:
                continue
            if v in aligned:
                piece = piece * img_pow(v, power)
            else:
                passthrough[union.index(v)] = power
        if any(passthrough):
            piece = piece * MPoly.monomial(union, passthrough)
        result = result + piece
    return result


def _quad_polys(vars, d):
    """Small polynomials over `vars` with coefficients in Q(sqrt d), or in Q
    when d is None."""
    scalar = coef if d is None else st.builds(lambda a, b: QuadExt(a, b, d), coef, coef)
    exps = st.tuples(*[st.integers(0, 3) for _ in vars])
    return st.dictionaries(exps, scalar, max_size=5).map(lambda t: MPoly(vars, t))


@st.composite
def _substitutions(draw):
    """(p over (x, y, z), mapping) with images of the kinds the package uses:
    polynomials over (x, y, t), monomials, scalars, and the swap of x and y."""
    d = draw(st.sampled_from([None, 2, -3]))
    p = draw(_quad_polys(("x", "y", "z"), d))
    kind = draw(st.sampled_from(["poly", "monomial", "scalar", "swap"]))
    if kind == "swap":
        V3 = ("x", "y", "z")
        return p, {"x": MPoly.variable("y", V3), "y": MPoly.variable("x", V3)}
    mapping = {}
    for v in draw(st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1,
                           max_size=3, unique=True)):
        if kind == "poly":
            img = draw(_quad_polys(("x", "y", "t"), d))
        elif kind == "monomial":
            exp = draw(st.tuples(st.integers(0, 2), st.integers(0, 2)))
            img = MPoly.monomial(("x", "y"), exp, draw(coef))
        else:
            img = draw(coef) if d is None else QuadExt(draw(coef), draw(coef), d)
        mapping[v] = img
    return p, mapping


@given(_substitutions())
@settings(max_examples=120, deadline=None)
def test_subs_matches_termwise_reference(case):
    p, mapping = case
    mine, ref = p.subs(mapping), _subs_reference(p, mapping)
    assert mine.vars == ref.vars and mine.terms == ref.terms

