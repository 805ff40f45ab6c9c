import json
import random
from fractions import Fraction
from math import gcd as gcd_int, lcm

import pytest
import sympy
from conftest import subs_reference
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
    _packing,
    _pseudo_remainder,
    _residues_mod_p,
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
from planefol.singularities import classify_all, singular_points


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
    assert poly_gcd(4, f) == 1 and poly_gcd(f, Fraction(1, 2)) == 1


def test_gcd_of_two_scalars_is_a_type_error():
    import planefol
    for a, b in ((2, 4), (Fraction(1, 2), 3), (QuadExt(0, 1, 2), 1)):
        with pytest.raises(TypeError, match="MPoly"):
            planefol.poly_gcd(a, b)


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


# -- univariate gcd and Yun on integers -------------------------------------------


def _euclid_reference(f, g):
    a, b = f, g
    while not b.is_zero():
        b = b / b.lt()[1]
        a, b = b, poly_divmod(a, b)[1]
    return a


def _gcd_reference(f, g):
    """The univariate path of `poly_gcd` before the integer kernel: the
    coprimality certificate, then Fraction Euclid with monic steps."""
    f, g = f._pair(g)
    if f.is_zero():
        return normalized(g)
    if g.is_zero():
        return normalized(f)
    if _coprime_mod_p(f, g):
        return MPoly.const(f.vars, 1)
    return normalized(_euclid_reference(f, g))


def _yun_reference(f):
    """`yun_decomposition` before the integer kernel, on Fraction MPolys."""
    var = next(iter(mpoly._occurring(f)))
    fn = normalized(f)
    df = fn.diff(var)
    a = _gcd_reference(fn, df)
    if a.is_constant():
        return [(fn, 1)]
    b = exact_div(fn, a)
    c = exact_div(df, a)
    out = []
    i = 1
    d = c - b.diff(var)
    while b.total_degree() > 0:
        g = _gcd_reference(b, d)
        if g.total_degree() > 0:
            out.append((g, i))
            b = exact_div(b, g)
            d = exact_div(d, g)
        d = d - b.diff(var)
        i += 1
    return out


def _squarefree_reference(f):
    d = f
    for v in f.vars:
        fv = f.diff(v)
        if not fv.is_zero():
            d = _gcd_reference(d, fv)
    if not d.is_constant():
        f = exact_div(f, d)
    return normalized(f)


def _same(p, q):
    """Equal as the package prints them: same variables, same terms."""
    return p.vars == q.vars and p.terms == q.terms and str(p) == str(q)


def _same_parts(mine, ref):
    return len(mine) == len(ref) and all(
        _same(g, h) and m == k for (g, m), (h, k) in zip(mine, ref))


_BIG = st.one_of(st.integers(-9, 9).filter(bool), st.integers(2**100, 2**120),
                 st.integers(-2**120, -2**100))


def _quad(d):
    """Nonzero elements a + b*sqrt(d) of Q(sqrt(d)) with small integers a, b."""
    return st.builds(QuadExt, st.integers(-9, 9), st.integers(-9, 9), st.just(d)).filter(bool)


@st.composite
def _univar_factor(draw, max_deg=3, d=None):
    """A nonconstant polynomial in x with coefficients up to 120 bits, or
    small ones in Q(sqrt(d)) when d is given; one in four is x itself, so
    that products have a zero constant term."""
    if draw(st.integers(0, 3)) == 0:
        return [0, 1]
    deg = draw(st.integers(1, max_deg))
    coeff = _BIG if d is None else _quad(d)
    return draw(st.lists(coeff, min_size=deg + 1, max_size=deg + 1))


def _dense_product(factors):
    out = [1]
    for f in factors:
        new = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                new[i + j] += a * b
        out = new
    return out


_VARS = st.sampled_from([("x",), ("x", "y"), ("y", "x")])
_SCALE = st.builds(Fraction, st.integers(-2**100, 2**100).filter(bool), st.integers(1, 2**40))


@st.composite
def _planted(draw, max_factors=3, max_mult=5, d=None):
    """(vars, f): a scalar of either sign with a denominator, times factors
    in x of multiplicity up to 5, over Q or Q(sqrt(d)), over variables that
    may include a y that does not occur."""
    factors = draw(st.lists(st.tuples(_univar_factor(2, d), st.integers(1, max_mult)),
                            min_size=1, max_size=max_factors))
    dense = _dense_product([g for g, m in factors for _ in range(m)])
    vars = draw(_VARS)
    return vars, MPoly.from_univar("x", dense, vars) * draw(_SCALE)


@st.composite
def _planted_pair(draw, d=None):
    """(vars, f, g) with a planted common factor, possibly trivial, and
    cofactors of up to 120-bit coefficients (small ones in Q(sqrt(d)) when d
    is given), either sign and either scale."""
    vars = draw(_VARS)
    common = draw(st.lists(_univar_factor(2, d), max_size=2))
    f, g = ([draw(st.lists(_univar_factor(3, d), min_size=0, max_size=2)) for _ in range(2)])
    make = lambda fs: MPoly.from_univar("x", _dense_product(common + fs), vars) * draw(_SCALE)
    return vars, make(f), make(g)


@given(_planted_pair())
@settings(max_examples=60, deadline=None)
def test_zz_gcd_matches_reference(case):
    _, f, g = case
    a, b = mpoly._univar_normalized(f), mpoly._univar_normalized(g)
    hit = mpoly._zz_gcd(a, b)
    assert hit is not None
    h, qa, qb = hit
    ref = _gcd_reference(f, g)
    assert h == mpoly._univar_normalized(ref)
    assert _dense_product([h, qa]) == a and _dense_product([h, qb]) == b


# Q, Q(sqrt(2)) and Q(sqrt(-3)): the QuadExt pairs run the PRS of `_prs_gcd`
@given(st.one_of(_planted_pair(), _planted_pair(2), _planted_pair(-3)))
@settings(max_examples=60, deadline=None)
def test_univariate_gcd_matches_reference(case):
    vars, f, g = case
    mine = poly_gcd(f, g)
    assert mine.vars == vars
    assert _same(mine, _gcd_reference(f, g))


@given(st.one_of(_planted(), _planted(d=2), _planted(d=-3)))
@settings(max_examples=60, deadline=None)
def test_yun_and_squarefree_part_match_reference(case):
    vars, f = case
    parts = yun_decomposition(f)
    assert all(g.vars == vars for g, _ in parts)
    assert _same_parts(parts, _yun_reference(f))
    assert _same(squarefree_part(f), _squarefree_reference(f))


def test_zz_gcd_rejects_a_candidate_that_does_not_divide():
    # at the first point xi = 2 * 2 + 2 = 6: f(6) = 8, g(6) = 1416 and their
    # gcd 8 = 2 + 6 reads as x + 2, which does not divide g (g(-2) = -8)
    f, g = [2, 1], [0, 2, -3, 1, 1]
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 2
    assert xi == 6 and gcd_int(8, 1416) == 8
    assert mpoly._zz_quo(g, [2, 1]) is None
    assert mpoly._zz_gcd(f, g) == ([1], f, g)


def test_zz_gcd_starts_at_the_certified_point():
    # at xi = 2 the images of G = x^2 - x - 1 and of the cofactors give the
    # candidate 1, which divides both inputs; from xi = 6 on the gcd is found
    G = [-1, -1, 1]
    f, g = _dense_product([G, [1, 1]]), _dense_product([G, [3, 1]])
    assert mpoly._zz_gcd(f, g) == (G, [1, 1], [3, 1])


@pytest.mark.parametrize("text", ["-x^2 + 1", "-3*x^3*(x - 2)^2", "-(2*x + 1)^3 / 5"])
def test_negative_leading_coefficients_are_normalized(text):
    for vars in (("x",), ("x", "y")):
        f = parse_poly(text, vars=vars)
        assert _same(squarefree_part(f), _squarefree_reference(f))
        assert _same_parts(yun_decomposition(f), _yun_reference(f))
        assert _same(poly_gcd(f, f.diff("x")), _gcd_reference(f, f.diff("x")))


def _sqrt2_poly(vars):
    s = QuadExt(0, 1, 2)
    x = MPoly.variable("x", vars)
    return (x - s) ** 3 * (x + 1) ** 2 * (x + s) * (x * 2 - 1)


def test_yun_over_q_sqrt2_runs_the_prs_and_matches_reference(monkeypatch):
    calls = {"prs": 0, "zz": 0}
    prs, zz = mpoly.subresultant_prs, mpoly._zz_gcd
    monkeypatch.setattr(mpoly, "subresultant_prs",
                        lambda *a: calls.__setitem__("prs", calls["prs"] + 1) or prs(*a))
    monkeypatch.setattr(mpoly, "_zz_gcd",
                        lambda *a: calls.__setitem__("zz", calls["zz"] + 1) or zz(*a))
    for vars in (("x",), ("x", "y")):
        f = _sqrt2_poly(vars)
        parts = yun_decomposition(f)
        assert [m for _, m in parts] == [1, 2, 3]
        assert _same_parts(parts, _yun_reference(f))
        assert _same(squarefree_part(f), _squarefree_reference(f))
    assert calls["prs"] and not calls["zz"]


def test_zz_gcd_never_gives_up_on_the_lins_neto_pullback(monkeypatch):
    # the evaluations of two coprime pairs of degree 49 and 48 share a 90-bit
    # factor of small primes, which xi grown by 73794/27011 alone never
    # outgrows within six points; xi^(5/4) * 73794/27011 does
    results = []
    zz = mpoly._zz_gcd
    monkeypatch.setattr(mpoly, "_zz_gcd", lambda *a: results.append(zz(*a)) or results[-1])
    classify_all(power_pullback(lins_neto(0), 2))
    assert results and all(r is not None for r in results)


@given(_planted(max_factors=2, max_mult=3), _planted_pair())
@settings(max_examples=20, deadline=None)
def test_kernel_fallback_gives_the_reference_answers(planted, pair):
    _, f = planted
    _, a, b = pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mpoly, "_zz_gcd", lambda *args: None)
        assert _same_parts(yun_decomposition(f), _yun_reference(f))
        assert _same(squarefree_part(f), _squarefree_reference(f))
        assert _same(poly_gcd(a, b), _gcd_reference(a, b))


def test_pullback_shear_resultants_run_no_field_division_or_gcd(monkeypatch):
    # every R_t that singular_points hands to Yun on the two r = 2 pullbacks
    # is decomposed on integers: no poly_divmod, no poly_gcd
    from planefol import singularities
    seen = []
    monkeypatch.setattr(singularities, "yun_decomposition",
                        lambda R: seen.append((R, yun_decomposition(R))) or seen[-1][1])
    for alpha in (0, 1):
        singular_points(power_pullback(lins_neto(alpha), 2))
    monkeypatch.undo()
    assert len(seen) >= 10
    calls = []
    divmod_, gcd_ = mpoly.poly_divmod, mpoly.poly_gcd
    monkeypatch.setattr(mpoly, "poly_divmod", lambda *a: calls.append("divmod") or divmod_(*a))
    monkeypatch.setattr(mpoly, "poly_gcd", lambda *a: calls.append("gcd") or gcd_(*a))
    for R, parts in seen:
        assert _same_parts(mpoly.yun_decomposition(R), parts)
    assert calls == []


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
    images = [subs_reference(p, {"y": s}) for p in subresultant_prs(f, g, "x")]
    mine = subresultant_prs(subs_reference(f, {"y": s}), subs_reference(g, {"y": s}), "x")
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
    P = subs_reference(parse_poly("x^7 - x", vars=("x", "y")), shear)
    Q = subs_reference(parse_poly("y^7 - y", vars=("x", "y")), shear)
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
        f, g = subs_reference(f, s), subs_reference(g, s)
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
