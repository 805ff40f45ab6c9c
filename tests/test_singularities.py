import json
from fractions import Fraction
from functools import reduce

import pytest
from conftest import cluster_moduli, subs_reference
from hypothesis import assume, example, given, settings, strategies as st

from planefol import algebraic, mpoly, roots, singularities
from planefol.algebraic import (
    SplitNeeded,
    _eval_on_cluster,
    _first_nonzero,
    _horner_mod,
    _resolve_clusters,
    _translated,
    _vanishes,
    invert_mod,
    mod_reduce,
)
from planefol.cli import main
from planefol.families import lins_neto, power_pullback
from planefol.foliation import _fresh_name, make_foliation
from planefol.mpoly import (
    _CERT_PRIMES,
    MPoly,
    _Chain,
    _coprime_mod_p,
    linear_subresultant,
    normalized,
    parse_poly,
    poly_divmod,
    poly_gcd,
    resultant,
    subresultant_prs,
    yun_decomposition,
)
from planefol.numbers import QuadExt, quadext_sqrt, rational_sqrt
from planefol.roots import rational_roots
from planefol.singularities import (
    NON_REDUCED,
    REDUCED_NONDEGENERATE,
    REDUCED_SADDLE_NODE,
    UNDETERMINED,
    ExactnessError,
    SingularPoint,
    affine_singular_points,
    bezout_total,
    classify_all,
    classify_point,
    classify_singularity,
    milnor_number,
    singular_points,
    total_milnor,
)

V = ("x", "y")


def fol(p, q):
    return make_foliation(parse_poly(p, V), parse_poly(q, V))


def profile(F):
    """Sorted (chart, count, milnor) rows; the decomposition's shape."""
    return sorted((sp.chart, sp.count, sp.milnor) for sp in singular_points(F))


# -- global count: the local data must add up to d^2 + d + 1 ------------------------

BEZOUT_CASES = [
    ("x", "y"),
    ("x", "-y"),
    ("y", "x"),
    ("2*x", "3*y"),
    ("x^2 - 1", "y^2 - 1"),
    ("x^3 - 1", "y^3 - 1"),
    ("2*y", "3*x^2 - 1"),
    ("x^2", "y"),
    ("x^2 + y^2", "x*y - 1"),
    ("(x^3-1)*x", "(y^3-1)*y"),
    ("x^2", "x*y + 1"),
    ("x^2 - 2", "y"),
]


@pytest.mark.parametrize("p,q", BEZOUT_CASES)
def test_total_milnor_matches_degree_count(p, q):
    F = fol(p, q)
    assert total_milnor(singular_points(F)) == bezout_total(F)


def test_profile_saddle():
    assert profile(fol("x", "-y")) == [
        ("affine", 1, 1), ("inf1", 1, 1), ("inf2", 1, 1)]


def test_profile_center():
    # y d/dx + x d/dy keeps a conjugate pair [1 : ±i : 0] at infinity
    assert profile(fol("y", "x")) == [("affine", 1, 1), ("inf1", 2, 1)]


def test_profile_grid2():
    assert profile(fol("x^2 - 1", "y^2 - 1")) == [
        ("affine", 4, 1), ("inf1", 1, 1), ("inf1", 1, 1), ("inf2", 1, 1)]


def test_profile_hamiltonian():
    assert profile(fol("2*y", "3*x^2 - 1")) == [("affine", 2, 1), ("inf2", 1, 5)]


def test_profile_degenerate_origin():
    assert profile(fol("x^2", "y")) == [
        ("affine", 1, 2), ("inf1", 1, 1), ("inf2", 1, 4)]


def test_profile_quartic_grid():
    assert profile(fol("(x^3-1)*x", "(y^3-1)*y")) == [
        ("affine", 16, 1), ("inf1", 1, 1), ("inf1", 3, 1), ("inf2", 1, 1)]


def test_riccati_shaped_field():
    P = parse_poly("z*(1-z)", ("z", "y"))
    Q = parse_poly("z*(1-z)*y^2 - (2 - z)*y + 1", ("z", "y"))
    F = make_foliation(P, Q)
    assert F.degree() == 4
    pts = singular_points(F)
    assert total_milnor(pts) == 21
    affine = [sp for sp in pts if sp.chart == "affine"]
    assert sum(sp.count for sp in affine) == 2
    # the affine pair is (0, 1/2) and (1, 1): check through the boxes
    seen = set()
    for sp in affine:
        for (xre, xim), (yre, yim) in sp.boxes():
            assert xim.lo == 0 == xim.hi and yim.lo == 0 == yim.hi
            for cand in ((0, Fraction(1, 2)), (1, 1)):
                if xre.contains(cand[0]) and yre.contains(cand[1]):
                    seen.add(cand)
    assert seen == {(0, Fraction(1, 2)), (1, 1)}


def test_no_affine_singularities():
    F = fol("1", "x")       # P constant: nothing vanishes simultaneously
    assert affine_singular_points(F) == []


def test_fat_fiber_single_point():
    # the fiber gcd above x = 0 is y**2 for every shear, so the linear
    # subresultant rule can never name the y-coordinate on its own
    F = fol("x^2", "y^2")
    pts = affine_singular_points(F)
    assert len(pts) == 1
    assert pts[0].rational_coords() == (Fraction(0), Fraction(0))
    assert pts[0].milnor == 4
    assert total_milnor(singular_points(F)) == bezout_total(F)


def test_fat_fiber_cluster_of_degree_two():
    # both singular points have a square fiber gcd and irrational abscissae
    F = fol("(x^2-2)^2", "y^2")
    pts = affine_singular_points(F)
    assert [(p.count, p.milnor) for p in pts] == [(2, 4)]
    assert total_milnor(singular_points(F)) == bezout_total(F)


# -- local Milnor numbers ------------------------------------------------------------


def test_milnor_regular_point_is_zero():
    assert milnor_number(fol("x^2", "y"), (5, 7)) == 0


def test_milnor_node():
    assert milnor_number(fol("x", "y"), (0, 0)) == 1


def test_milnor_cusp_like():
    # components (x^3, y^2) meet the origin with multiplicity 6
    assert milnor_number(fol("x^3", "y^2 + x^17"), (0, 0)) == 6


def test_milnor_translated():
    assert milnor_number(fol("(x-3)^2", "y + 1"), (3, -1)) == 2


def test_milnor_quadext_point():
    F = fol("x^2 - 2", "y")
    r2 = QuadExt(0, 1, 2)
    assert milnor_number(F, (r2, Fraction(0))) == 1
    assert milnor_number(F, (-r2, Fraction(0))) == 1


@pytest.mark.parametrize("P, Q, point", [
    ("x^2", "y", (5, 7)),
    ("x^3", "y^2 + x^17", (0, 0)),
    ("(x-3)^2", "y + 1", (3, -1)),
    ("x^2 - 2", "y", (QuadExt(0, 1, 2), Fraction(0))),
    ("x^2 - 2", "y", (QuadExt(0, -1, 2), Fraction(0))),
])
def test_milnor_number_reads_a_foliation_and_its_pair_alike(P, Q, point):
    F = fol(P, Q)
    assert milnor_number(F, point) == milnor_number((F.P, F.Q), point)


def test_milnor_number_refuses_a_pair_with_a_common_factor():
    # the axis certificate accepts (y, x*y) at the origin (A1 = 1), and the
    # resultant then vanishes because y divides both components
    y = MPoly.variable("y", V)
    with pytest.raises(ArithmeticError, match="share a factor.*coprime pair"):
        milnor_number((y, MPoly.variable("x", V) * y), (0, 0))


def test_exact_coords_quadratic_cluster():
    F = fol("x^2 - 2", "y")
    cluster = [sp for sp in affine_singular_points(F) if sp.count == 2][0]
    coords = cluster.exact_coords()
    r2 = QuadExt(0, 1, 2)
    assert {c[0] for c in coords} == {r2, -r2}
    assert all(c[1] == 0 for c in coords)


def test_exact_coords_degree_cap():
    F = fol("x^3 - 2", "y")
    cluster = [sp for sp in affine_singular_points(F) if sp.count == 3][0]
    with pytest.raises(ExactnessError):
        cluster.exact_coords()


def test_rational_coords():
    pts = affine_singular_points(fol("x - 2", "y + 3"))
    assert len(pts) == 1 and pts[0].rational_coords() == (2, -3)


# -- classification -------------------------------------------------------------------


def test_classify_radial_nonreduced():
    assert classify_point(fol("x", "y"), 0, 0) == NON_REDUCED


def test_classify_saddle_reduced():
    assert classify_point(fol("x", "-y"), 0, 0) == REDUCED_NONDEGENERATE


def test_classify_rational_positive_ratio():
    assert classify_point(fol("x", "2*y"), 0, 0) == NON_REDUCED
    assert classify_point(fol("2*x", "3*y"), 0, 0) == NON_REDUCED


def test_classify_negative_ratio_reduced():
    assert classify_point(fol("2*x", "-3*y"), 0, 0) == REDUCED_NONDEGENERATE


def test_classify_saddle_node():
    assert classify_point(fol("x^2", "y"), 0, 0) == REDUCED_SADDLE_NODE
    assert classify_point(fol("x", "(x+2)*y"), -2, 0) == REDUCED_SADDLE_NODE


def test_classify_nilpotent_nonreduced():
    assert classify_point(fol("y", "x^2"), 0, 0) == NON_REDUCED


def test_classify_center_reduced():
    # eigenvalues ±i: ratio -1
    assert classify_point(fol("y", "-x"), 0, 0) == REDUCED_NONDEGENERATE


def test_classify_irrational_ratio_reduced():
    # roots 1 ± √2 with J = diag(2x - 2, 1): eigenvalue ratios ±2√2 are
    # irrational, hence certified outside the positive rationals
    F = fol("x^2 - 2*x - 1", "y")
    kinds = set()
    for sp in affine_singular_points(F):
        kinds |= {k for _, k in classify_singularity(sp)}
    assert kinds == {REDUCED_NONDEGENERATE}


def test_classify_quartic_grid_split():
    F = fol("(x^3-1)*x", "(y^3-1)*y")
    affine = [sp for sp in singular_points(F) if sp.chart == "affine"]
    assert len(affine) == 1 and affine[0].count == 16
    split = classify_singularity(affine[0])
    shape = sorted((sub.count, kind) for sub, kind in split)
    # 9 grid crossings and the origin share eigenvalue ratio 1; the other six
    # points have ratio -3 or -1/3
    assert shape == [(6, REDUCED_NONDEGENERATE), (10, NON_REDUCED)]


def test_classify_cluster_conjugate_pair():
    F = fol("x^2 + 1", "y")       # points (±i, 0), J = diag(2x, 1), ratio ±2i
    cluster = [sp for sp in affine_singular_points(F) if sp.count == 2][0]
    assert [k for _, k in classify_singularity(cluster)] == [REDUCED_NONDEGENERATE]


def test_classify_quadext_point_directly():
    F = fol("x^2 - 2", "y")
    r2 = QuadExt(0, 1, 2)
    assert classify_point(F, r2, Fraction(0)) == REDUCED_NONDEGENERATE


def test_classify_all_covers_every_point():
    F = fol("x^2 - 1", "y^2 - 1")
    rows = classify_all(F)
    assert sum(sub.count for sub, _ in rows) == sum(
        sp.count for sp in singular_points(F))
    for _, kind in rows:
        assert kind in {REDUCED_NONDEGENERATE, REDUCED_SADDLE_NODE,
                        NON_REDUCED, UNDETERMINED}


# -- rational points: the cluster ratio test against the scalar closed form ---------


def _positive_rational_ratio_reference(T, D):
    """Does a linear part with trace T and determinant D != 0 have an
    eigenvalue ratio in Q>0? The scalar closed form that classified rational
    points before they went through the cluster ratio test."""
    # the ratios are the roots of D r^2 - S r + D, of discriminant T^2 (T^2 - 4D)
    S = T * T - 2 * D
    disc = T * T * (T * T - 4 * D)
    if not isinstance(disc, QuadExt):
        # product 1, so both roots share the sign of their sum S/D
        return rational_sqrt(disc) is not None and S * D > 0
    s = quadext_sqrt(disc)
    if s is None:
        return False
    for r in ((S + s) / (2 * D), (S - s) / (2 * D)):
        q = r.a if isinstance(r, QuadExt) and r.b == 0 else r
        if not isinstance(q, QuadExt) and q > 0:
            return True
    return False


_small = st.integers(-3, 3)
_rational = st.builds(Fraction, _small)
_in_q_sqrt2 = st.builds(lambda a, b: QuadExt(a, b, 2), _small, _small)
_matrix_q = st.tuples(_rational, _rational, _rational, _rational)
# a scalar multiple keeps the eigenvalue ratios, positive rational ones included
_matrix_q_sqrt2 = st.one_of(
    st.tuples(_in_q_sqrt2, _in_q_sqrt2, _in_q_sqrt2, _in_q_sqrt2),
    st.builds(lambda m, s: tuple(v * s for v in m), _matrix_q, _in_q_sqrt2))


@settings(max_examples=80, deadline=None)
@given(st.one_of(_matrix_q, _matrix_q_sqrt2))
def test_classify_linear_point_matches_closed_form(entries):
    a, b, c, d = entries
    D = a * d - b * c
    assume(D != 0)
    x, y = MPoly.variable("x", V), MPoly.variable("y", V)
    F = make_foliation(x * a + y * b, x * c + y * d)
    expected = (NON_REDUCED if _positive_rational_ratio_reference(a + d, D)
                else REDUCED_NONDEGENERATE)
    assert classify_point(F, 0, 0) == expected


# -- clusters of degree <= 2: sigma = S/D against the tau-coefficient gcd ------------


def _positive_rational_root_exists(g):
    """Any root in Q>0 of a univariate polynomial (coefficients rational or
    QuadExt; a QuadExt coefficient forces the root through both components)."""
    if g.is_zero():
        return False
    if not g.is_rational():
        def component(part):
            return MPoly(g.vars, {e: part(c) for e, c in g.terms.items()})

        comp_a = component(lambda c: c.a if isinstance(c, QuadExt) else c)
        comp_b = component(lambda c: c.b if isinstance(c, QuadExt) else 0)
        if comp_a.is_zero():
            g = comp_b
        elif comp_b.is_zero():
            g = comp_a
        else:
            g = poly_gcd(comp_a, comp_b)
    return any(q > 0 for q in rational_roots(g))


def _classify_small_cluster_reference(field, f, xt, yt):
    """The rule that classified clusters of degree 1 and 2 before sigma: after
    the degree-2 pre-split f is irreducible over its coefficient field, so a
    ratio r in that field is a root of every tau-coefficient of
    W = D (r^2 + 1) - S r, and the cluster is non-reduced when their gcd has
    a root in Q>0."""
    tau = f.vars[0]
    P, Q = field
    x, y = P.vars
    px, py, qx, qy = (_eval_on_cluster(E, f, xt, yt, x, y)
                      for E in (P.diff(x), P.diff(y), Q.diff(x), Q.diff(y)))
    T = mod_reduce(px + qy, f, tau)
    D = mod_reduce(px * qy - py * qx, f, tau)
    if _vanishes(D, f):
        return NON_REDUCED if _vanishes(T, f) else REDUCED_SADDLE_NODE
    n = f.deg_in(tau)
    assert n <= 2
    if n == 2:
        split = singularities._quadratic_root_in_base(f)
        if split is not None:
            raise SplitNeeded(split)
    rname = _fresh_name("r", (tau,))
    vars2 = (tau, rname)
    r = MPoly.variable(rname, vars2)
    Dl = D.with_vars(vars2)
    S = mod_reduce(T.with_vars(vars2) ** 2 - 2 * Dl, f, tau)
    W = mod_reduce(Dl * (r * r + 1) - S * r, f, tau)
    g = reduce(poly_gcd, [W.coeff_in(tau, k).with_vars((rname,)) for k in range(n)])
    return NON_REDUCED if _positive_rational_root_exists(g) else REDUCED_NONDEGENERATE


def _planted_cluster(case):
    """The roots of m(x) = x^2 + c1 x + c0 on y = 0 as singular points of
    P = m + y e(x), Q = y m'(x) (c + t x) + m l(x). Where l = 0 the linear
    part is triangular with eigenvalues m'(a) and m'(a) (c + t a), so the
    ratio at a root a is 1/(c + t a): planted at every root when t = 0."""
    (c0, c1), c, t, e, l = case
    x, y = MPoly.variable("x", V), MPoly.variable("y", V)
    m = x * x + x * c1 + c0
    P = m + y * (x * e[1] + e[0])
    Q = y * m.diff("x") * (x * t + c) + m * (x * l[1] + l[0])
    tau = MPoly.variable("t", ("t",))
    modulus = tau * tau + tau * c1 + c0
    return SingularPoint("affine", (P, Q), modulus, tau, MPoly.zero(("t",)))


_int3 = st.integers(-3, 3)
_ratio_inverse = st.sampled_from(
    [Fraction(v) for v in ("1", "2", "1/2", "3", "2/3", "-1", "-2", "-1/3", "0")])
_degree_two_modulus = st.one_of(
    # a rational conjugate pair: x^2 + b x + c has no rational root
    st.tuples(_int3, _int3).filter(lambda cb: rational_sqrt(cb[1] ** 2 - 4 * cb[0]) is None)
    .map(lambda cb: (Fraction(cb[0]), Fraction(cb[1]))),
    # a modulus that splits over Q: (x - a)(x - b), a != b
    st.tuples(_int3, _int3).filter(lambda ab: ab[0] != ab[1])
    .map(lambda ab: (Fraction(ab[0] * ab[1]), Fraction(-ab[0] - ab[1]))),
    # points in Q(sqrt 2), on a modulus that splits over it or not
    st.tuples(_in_q_sqrt2, _in_q_sqrt2))
_linear_in_x = st.tuples(_int3, _int3)
_degree_two_case = st.tuples(
    _degree_two_modulus, st.one_of(_ratio_inverse, _in_q_sqrt2), _int3,
    _linear_in_x, st.one_of(st.just((0, 0)), _linear_in_x))

_I = Fraction(1)


@settings(max_examples=150, deadline=None)
@given(_degree_two_case)
# ratio -2 on a conjugate pair: z = -5/2 with z^2 - 4 = 9/4 a square
@example(((_I, 0 * _I), Fraction(-1, 2), 0, (0, 0), (0, 0)))
# ratio 1/(4 + 3 sqrt 2) on the roots of x^2 - sqrt 2: z = 2 + 9/2 sqrt 2
@example(((QuadExt(0, -1, 2), 0 * _I), QuadExt(4, 3, 2), 0, (0, 0), (0, 0)))
# ratios 1 and 1/2 on the roots 1 and 2, which only the pre-split tells apart
@example(((2 * _I, -3 * _I), 0 * _I, 1, (0, 0), (0, 0)))
# ratio 1/2 on a conjugate pair, with a full linear part
@example(((_I, _I), 2 * _I, 0, (1, -1), (0, 0)))
# S = 111 t + 117 and D = 18 t + 15 on the roots of x^2 - 3x - 3: the leading
# ratio 37/6 is 6 + 1/6, but S/D is not constant, so no ratio is rational
@example(((-3 * _I, -3 * _I), _I, 1, (1, 0), (0, 1)))
def test_degree_two_clusters_classify_as_the_coefficient_gcd(case):
    (c0, c1), *_ = case
    assume(c1 * c1 - 4 * c0 != 0)
    sp = _planted_cluster(case)
    reference = sorted(
        (SingularPoint(sp.chart, sp.field, fi, xi, yi).sort_key(), kind)
        for fi, xi, yi, kind in _resolve_clusters(
            sp.modulus, sp.xt, sp.yt,
            lambda f, xt, yt: _classify_small_cluster_reference(sp.field, f, xt, yt)))
    assert [(sub.sort_key(), kind) for sub, kind in classify_singularity(sp)] == reference


def test_small_clusters_isolate_no_roots(monkeypatch):
    def refuse(*args):
        raise AssertionError("root isolation on a cluster of degree <= 2")

    for module in (roots, singularities):
        for name in ("isolate_real_roots", "rational_roots"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert classify_point(fol("x", "2*y"), 0, 0) == NON_REDUCED
    assert classify_point(fol("x^2 - 2", "y"), QuadExt(0, 1, 2), 0) == REDUCED_NONDEGENERATE
    # a conjugate pair of ratio 1/2, and the split pair 1, 2 of ratios 1 and 1/2
    for case, kinds in [(((_I, _I), 2 * _I, 0, (1, -1), (0, 0)), [NON_REDUCED]),
                        (((2 * _I, -3 * _I), 0 * _I, 1, (0, 0), (0, 0)), [NON_REDUCED] * 2),
                        (((QuadExt(0, -1, 2), 0 * _I), QuadExt(4, 3, 2), 0, (0, 0), (0, 0)),
                         [REDUCED_NONDEGENERATE])]:
        assert [k for _, k in classify_singularity(_planted_cluster(case))] == kinds


# -- S1 by determinant: the same singular points as by the PRS ------------------------


def _linear_subresultant_reference(f, g, var):
    """The first element of degree 1 in `var` of the subresultant PRS, which
    `linear_subresultant` returned before it became a determinant."""
    return next((p for p in subresultant_prs(f, g, var) if p.deg_in(var) == 1), None)


@pytest.mark.parametrize("p,q", [
    # the pullback(0) field: lins_neto(0) pulled back by (x, y) -> (x^2, y^2)
    ("y*(x^6 - 1)*x^2", "x*(y^6 - 1)*y^2"),
    ("x^3 - 2*x^2*y + 3*x*y^2 - y^3 + x^2 - x*y + 2*y^2 - x + 3*y - 1",
     "2*x^3 + x^2*y - x*y^2 + 3*y^3 - 2*x^2 + x*y + y^2 + 2*x - y + 2"),
    ("3*x^3 + x^2*y - 2*x*y^2 + y^3 - x^2 + 3*x*y - y^2 + 2*x + y - 3",
     "x^3 - x^2*y + 2*x*y^2 + 2*y^3 + 3*x^2 - 2*x*y + y^2 - x - 2*y + 1"),
], ids=["pullback0", "cubic-a", "cubic-b"])
def test_singular_points_json_same_with_prs_s1(p, q, tmp_path, capsys, monkeypatch):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"P": p, "Q": q}))
    argv = ["--format", "json", "singularities", "--foliation", str(path)]

    def canonical():
        assert main(argv) == 0
        return capsys.readouterr().out

    by_chain = canonical()
    real = _Chain.subresultant
    monkeypatch.setattr(_Chain, "subresultant", lambda chain, k: (
        _linear_subresultant_reference(chain.f, chain.g, chain.var) if k == 1
        else real(chain, k)))
    assert canonical() == by_chain


def test_ratio_polynomial_from_prs_proportional_to_resultant(tmp_path, capsys, monkeypatch):
    # rho in `_classify_once` is the last element of the PRS of (f, W) in tau;
    # on the clusters of the dense cubic "cubic-a" above, of 9 and 4 points,
    # it is proportional to Res_tau(f, W), a Bareiss determinant
    calls = []

    def recording(f, g, var):
        calls.append((f, g, var, subresultant_prs(f, g, var)))
        return calls[-1][3]

    monkeypatch.setattr(singularities, "subresultant_prs", recording)
    path = tmp_path / "field.json"
    path.write_text(json.dumps({
        "P": "x^3 - 2*x^2*y + 3*x*y^2 - y^3 + x^2 - x*y + 2*y^2 - x + 3*y - 1",
        "Q": "2*x^3 + x^2*y - x*y^2 + 3*y^3 - 2*x^2 + x*y + y^2 + 2*x - y + 2"}))
    main(["--format", "json", "classify", "--foliation", str(path)])
    capsys.readouterr()
    assert [f.deg_in(tau) for f, _, tau, _ in calls] == [9, 4]
    for f, W, tau, seq in calls:
        rho, R = seq[-1], resultant(f, W, tau)
        assert rho.deg_in(tau) == 0 and R.total_degree() == 2 * f.deg_in(tau)
        assert (rho * R.lt()[1] - R * rho.lt()[1]).is_zero()


# -- the identity under random grids --------------------------------------------------


@st.composite
def grid_field(draw):
    def poly_from(roots, var):
        p = MPoly.const(V, 1)
        xv = MPoly.variable(var, V)
        for r in roots:
            p = p * (xv - Fraction(r))
        return p
    xr = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
    yr = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=3))
    return make_foliation(poly_from(xr, "x"), poly_from(yr, "y"))


# -- cluster substitution by Horner mod f ---------------------------------------------


@st.composite
def _cluster_substitution(draw, quad):
    """(p, mapping, f): a modulus f in t from `cluster_moduli`, and either a
    translation (x, y) -> (x + xt(t), y + yt(t)) of p over (x, y, t) or an
    evaluation (x, y) -> (xt(t), yt(t)) of p over (x, y). xt and yt have any
    t-degree, also at or above deg f. With quad every coefficient of p is a
    QuadExt over Q(sqrt 2) and so is f."""
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    f = draw(cluster_moduli(quad))

    def scalar():
        return QuadExt(draw(coef), draw(coef), 2) if quad else draw(coef)

    def univar(deg):
        return MPoly(("t",), {(k,): draw(coef) for k in range(deg + 1)})

    top = f.deg_in("t") + 2
    xt, yt = univar(draw(st.integers(0, top))), univar(draw(st.integers(0, top)))
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4))
    if draw(st.booleans()):
        vars3 = ("x", "y", "t")
        exps3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2))
        p = MPoly(vars3, {e: scalar() for e in draw(st.lists(exps3, max_size=8))})
        mapping = {"x": MPoly.variable("x", vars3) + xt.with_vars(vars3),
                   "y": MPoly.variable("y", vars3) + yt.with_vars(vars3)}
    else:
        p = MPoly(V, {e: scalar() for e in draw(st.lists(exps, max_size=8))})
        mapping = {"x": xt, "y": yt}
    return p, mapping, f


def _horner_xy(p, mapping, f):
    """`_horner_mod` in x, then in y, over (x, y, t)."""
    vars3 = ("x", "y", "t")
    f3 = f.with_vars(vars3)
    q = p.with_vars(vars3)
    for v in ("x", "y"):
        q = _horner_mod(q, v, mapping[v].with_vars(vars3), f3, "t")
    return q


def _reduced_reference(p, mapping, f):
    """p with the mapping put in term by term, then the remainder of the
    heap division by f, over (x, y, t)."""
    return poly_divmod(subs_reference(p, mapping), f)[1].with_vars(("x", "y", "t"))


def _check_cluster_substitution(p, mapping, f):
    mine = _horner_xy(p, mapping, f)
    ref = _reduced_reference(p, mapping, f)
    assert mine.terms == ref.terms
    if p.vars == V:
        # an evaluation: `_eval_on_cluster` is this composition read in t,
        # and `_translated` is the translation with the same images
        xt, yt = mapping["x"], mapping["y"]
        on_cluster = _eval_on_cluster(p, f, xt, yt, "x", "y")
        assert on_cluster.vars == ("t",) and on_cluster == ref.with_vars(("t",))
        shift = {v: MPoly.variable(v, ("x", "y", "t")) + c.with_vars(("x", "y", "t"))
                 for v, c in mapping.items()}
        moved = _translated((p, p * 2), f, xt, yt)
        assert [m.vars for m in moved] == [("x", "y", "t")] * 2
        assert moved[0].terms == _reduced_reference(p, shift, f).terms
        assert moved[1].terms == _reduced_reference(p * 2, shift, f).terms


@given(_cluster_substitution(False))
@settings(max_examples=80, deadline=None)
def test_horner_mod_equals_reduced_substitution(case):
    # rational data: the scaled branch of the kernel
    _check_cluster_substitution(*case)


@given(_cluster_substitution(True))
@settings(max_examples=60, deadline=None)
def test_horner_mod_over_quadext_equals_reduced_substitution(case):
    # QuadExt data: the same loops, unscaled
    _check_cluster_substitution(*case)


# the modulus of the degree-12 cluster of pullback(1), the largest a
# `pullback` census translates its field to
PULLBACK_MODULUS = "t^12 - 162*t^8 - 1460*t^6 + 4617*t^4 - 118260*t^2 + 529984"


@pytest.mark.parametrize("c", [Fraction(3, 2), QuadExt(1, 1, 2)], ids=["scaled", "quadext"])
def test_cluster_substitution_on_the_pullback_modulus(c):
    # xt and yt above deg f = 12, so every product is folded from degree 24 up
    t = ("t",)
    f = parse_poly(PULLBACK_MODULUS, t)
    xt = parse_poly("t^13 - 3*t^11 + 2/3*t^7 - t^2 + 5", t)
    yt = parse_poly("7*t^14 + t^12/2 - 4*t^5 + t - 1", t)
    p = parse_poly("x^3*y - 2*x*y^2 + 3*y^3 - x^2 + y - 1", V) + MPoly.monomial(V, (2, 2), c)
    _check_cluster_substitution(p, {"x": xt, "y": yt}, f)
    vars3 = ("x", "y", "t")
    g = xt.with_vars(vars3) * yt.with_vars(vars3) * MPoly.variable("x", vars3) * c
    assert mod_reduce(g, f, "t") == poly_divmod(g, f)[1]


def test_pullback_cluster_arithmetic_makes_no_division_or_mpoly_product(monkeypatch):
    # on the clusters of pullback(0), `_translated`, `_eval_on_cluster` and
    # `mod_reduce` run on the integer kernel of `algebraic`: no heap division
    # and no MPoly product, so a return to either fails here
    F = power_pullback(lins_neto(0), 2)
    x, y = F.vars
    clusters = [sp for sp in affine_singular_points(F) if sp.count > 1]
    assert clusters
    cases = [(sp, F.P.diff(x), (sp.xt * sp.yt + sp.xt) * sp.yt) for sp in clusters]
    calls = {"poly_divmod": 0, "__mul__": 0}

    def counting(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    for module in (mpoly, algebraic):
        monkeypatch.setattr(module, "poly_divmod",
                            counting("poly_divmod", mpoly.poly_divmod))
    for attr in ("__mul__", "__rmul__"):
        monkeypatch.setattr(MPoly, attr, counting("__mul__", MPoly.__mul__))
    for sp, E, g in cases:
        tau = sp.param
        _translated(F, sp.modulus, sp.xt, sp.yt)
        _eval_on_cluster(E, sp.modulus, sp.xt, sp.yt, x, y)
        assert g.deg_in(tau) >= sp.count
        mod_reduce(g, sp.modulus, tau)
    assert calls == {"poly_divmod": 0, "__mul__": 0}


def test_horner_mod_image_may_hold_its_own_variable():
    # a translation x -> x + 1, as `_translated` makes
    vars3 = ("x", "y", "t")
    p = parse_poly("x^2 + y", vars3)
    f = parse_poly("t^2 - 2", vars3)
    moved = _horner_mod(p, "x", parse_poly("x + 1", vars3), f, "t")
    assert moved == parse_poly("x^2 + 2*x + 1 + y", vars3)


# -- shear choice: skipped shears are ones the exhaustive loop rejects ---------------


def _affine_singular_points_reference(F):
    # the loop `affine_singular_points` ran before it compared squarefree
    # degrees: every admissible shear in turn goes through the cluster work
    # until one passes the fiber certificates
    x, y = F.vars
    P, Q = F.P, F.Q
    if P.total_degree() <= 0 or Q.total_degree() <= 0:
        return []
    Ptop, Qtop = P.top_part(), Q.top_part()
    for t in singularities._SHEARS:
        tq = Fraction(t)
        if Ptop.eval_all({x: tq, y: Fraction(1)}) == 0:
            continue
        if Qtop.eval_all({x: tq, y: Fraction(1)}) == 0:
            continue
        sx = MPoly.variable(x, F.vars) + MPoly.variable(y, F.vars) * tq
        Pt, Qt = subs_reference(P, {x: sx}), subs_reference(Q, {x: sx})
        R = resultant(Pt, Qt, y).with_vars((x,))
        if R.total_degree() == 0:
            return []
        try:
            return singularities._affine_clusters(F, t, yun_decomposition(R),
                                                  _Chain(Pt, Qt, y))
        except singularities._ShearReject:
            continue
    raise singularities.DecompositionError("no shear passed the fiber certificates")


def _cluster_rows(points):
    return [(str(sp.modulus), str(sp.xt), str(sp.yt), sp.milnor) for sp in points]


def _dense_poly(draw, degrees, must):
    c = st.integers(-3, 3)
    terms = {(i, d - i): draw(c) for d in degrees for i in range(d + 1)}
    if not terms.get(must):
        terms[must] = draw(st.sampled_from([-1, 1]))
    return MPoly(V, terms)


@st.composite
def _dense_field(draw):
    """Dense field of degree 2 or 3 with x^d in P and y^d in Q."""
    d = draw(st.integers(2, 3))
    return make_foliation(_dense_poly(draw, range(d + 1), (d, 0)),
                          _dense_poly(draw, range(d + 1), (0, d)))


@st.composite
def _degenerate_cubic(draw):
    """Field of degree <= 3 with zero linear part at the origin and y = 0
    invariant; such fields often put two singular points on one fiber."""
    P = _dense_poly(draw, (2, 3), (3, 0))
    q = _dense_poly(draw, (1, 2), (0, 1))
    return make_foliation(P, MPoly.variable("y", V) * q)


# the g4-3 field of the benchmark's degree-4 pool: at [1 : 0 : 0] the top
# layers of both local components vanish at (1, 1), so shear 1 leaves both
# y-leading coefficients zero, while the sheared top layers at (1, 1) do not
G43 = ("x^4 - x^3*y + x^2*y^2 + y^4 - x^3 + x^2*y - x*y^2 - y^3 - x^2 + x*y",
       "x*y^3 + y^4 + y^3 + x^2 - x*y - y^2 + x - y")


@settings(max_examples=15, deadline=None)
@given(st.one_of(grid_field(), _dense_field()))
@example(fol(*G43))
def test_bezout_identity_random_grids(F):
    assert total_milnor(singular_points(F)) == bezout_total(F)


def test_milnor_at_infinity_tests_the_unsheared_top_layers():
    # a common zero at infinity on the line x = 0 entered ord_x Res_y and
    # made mu = 2 at [1 : 0 : 0]; resultants along u = b + s*w, s = 7, 11
    # and -13, give 1 at b = 0, 2 at b = 1 and 1 on b^2 + b + 1
    F = fol(*G43)
    assert milnor_number(F.infinity_chart(1), (0, 0)) == 1
    pts = singular_points(F)
    assert [(sp.count, str(sp.modulus), sp.milnor) for sp in pts if sp.chart == "inf1"] == [
        (1, "t - 1", 2), (3, "t^3 + t^2 + t", 1)]
    assert total_milnor(pts) == bezout_total(F) == 21


@given(st.one_of(_dense_field(), _degenerate_cubic(), grid_field()))
@settings(max_examples=40, deadline=None)
# points (0, 0), (0, 1), (p + 1, 0) and (p + 1, 1) for p = 2^61 - 1: shear 0
# is rejected with degree 2, and shears 1 and -1 separate the points (degree
# 4), but x + y and x - y each take two values congruent mod p, so images mod
# p read degree 3 there and 4 at shears 2 and -2; shear 1 must be accepted
@example(fol(f"x^2 - {_CERT_PRIMES[0] + 1}*x + y^2 - y", "y^2 - y"))
def test_shear_choice_matches_exhaustive_loop(F):
    # grid fields put many points on one line x + t*y = c, so shears are
    # rejected and skipped there
    assert (_cluster_rows(affine_singular_points(F))
            == _cluster_rows(_affine_singular_points_reference(F)))


@given(st.one_of(grid_field(), _dense_field(), _degenerate_cubic()))
@settings(max_examples=40, deadline=None)
# points (+-sqrt 2, 0) with mu 1 and (+-sqrt 2, 1) with mu 2: shear 0 fails
# the axis certificate at each, since two points share every vertical line
@example(fol("x^2 - 2 + y^2*(y - 1)", "y*(y - 1)^2"))
@example(fol("(x^2 - 2)^2", "y^2"))
def test_local_milnor_number_matches_the_global_multiplicity(F):
    # two independent algorithms: the Yun multiplicity of R_t over all affine
    # points, and the local one at each exact point (translation, shear and
    # axis certificate)
    for sp in affine_singular_points(F):
        if sp.count <= 2:
            for pt in sp.exact_coords():
                assert milnor_number(F, pt) == sp.milnor


@pytest.mark.parametrize("alpha", [0, 1])
def test_pullback_shear_choice(alpha, monkeypatch, wall_clock_ceiling):
    F = power_pullback(lins_neto(alpha), 2)
    seen = []
    real = singularities._affine_clusters

    def counting(F, shear, *rest):
        seen.append(shear)
        return real(F, shear, *rest)

    monkeypatch.setattr(singularities, "_affine_clusters", counting)
    with wall_clock_ceiling(120):
        expected = _cluster_rows(_affine_singular_points_reference(F))
        assert seen == [1, -1, 2, -2, 3]
        seen.clear()
        assert _cluster_rows(affine_singular_points(F)) == expected
    # shears 1 and 2 are rejected; -1 and -2 are skipped, since their
    # squarefree degrees are at most that of a shear rejected before them
    assert seen == [1, 2, 3]


def test_pullback_tasks_translate_each_milnor_cluster_once(tmp_path, capsys, monkeypatch,
                                                           wall_clock_ceiling):
    # the benchmark's three pullback tasks: classify on pullback(0) and the
    # census on pullback(0) and pullback(1). `_milnor_once` translates its
    # cluster once and shears the translated pair, so `_translated` runs once
    # per call: 4 times, where a translation per tried shear ran it 14 times
    calls = {"milnor": 0, "translated": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(singularities, "_milnor_once",
                        counted("milnor", singularities._milnor_once))
    monkeypatch.setattr(singularities, "_translated",
                        counted("translated", singularities._translated))
    with wall_clock_ceiling(120):
        for alpha, commands in ((0, (["classify"], ["examples", "census"])),
                                (1, (["examples", "census"],))):
            F = power_pullback(lins_neto(alpha), 2)
            path = tmp_path / f"pullback{alpha}.json"
            path.write_text(json.dumps({"vars": list(V), "P": str(F.P), "Q": str(F.Q)}))
            for command in commands:
                main(command + ["--foliation", str(path)])
    capsys.readouterr()
    assert calls == {"milnor": 4, "translated": 4}


def _sheared_pairs(F):
    """(t, P_t, Q_t) for each shear t that `_shear_candidates` draws, with
    P_t = P(x + t*y, y) from the termwise oracle."""
    x, y = F.vars
    for t in singularities._shear_candidates(F):
        sx = MPoly.variable(x, F.vars) + MPoly.variable(y, F.vars) * Fraction(t)
        yield t, subs_reference(F.P, {x: sx}), subs_reference(F.Q, {x: sx})


def _count_chains(monkeypatch, F):
    """Record, for each subresultant chain started, the shear whose (P_t, Q_t)
    it runs on, or None for any other pair."""
    shears = {t: (Pt, Qt) for t, Pt, Qt in _sheared_pairs(F)}
    calls = []
    real = _Chain.__init__

    def counting(chain, f, g, var):
        calls.append(next((t for t, pq in shears.items() if pq == (f, g)), None))
        real(chain, f, g, var)

    monkeypatch.setattr(_Chain, "__init__", counting)
    return calls


def test_pullback_one_chain_per_tried_shear(monkeypatch, wall_clock_ceiling):
    # every drawn shear gets one chain: shears 1, -1, 2, -2 and 3, of which
    # -1 and -2 are skipped on their degrees. The resultant R_t and the
    # fiber rule of a tried shear come from the chain it was drawn with:
    # `_affine_clusters` starts none
    F = power_pullback(lins_neto(1), 2)
    tried = []
    real = singularities._affine_clusters

    def clusters(F, shear, *rest):
        tried.append(shear)
        return real(F, shear, *rest)

    monkeypatch.setattr(singularities, "_affine_clusters", clusters)
    calls = _count_chains(monkeypatch, F)
    with wall_clock_ceiling(120):
        affine_singular_points(F)
    assert tried == [1, 2, 3] and calls == [1, -1, 2, -2, 3]


def test_pullback_resultants_only_for_tried_shears(monkeypatch, wall_clock_ceiling):
    # every drawn shear reads its resultant S_0 once from its chain, for its
    # degree; the S_k (k >= 1) of the fiber rule are read only on the chains
    # of the tried shears 1, 2 and 3, never on the skipped -1 and -2
    F = power_pullback(lins_neto(1), 2)
    shears = {t: (Pt, Qt) for t, Pt, Qt in _sheared_pairs(F)}
    owner, reads = {}, []
    real_init, real_subresultant = _Chain.__init__, _Chain.subresultant

    def init(chain, f, g, var):
        real_init(chain, f, g, var)
        owner[id(chain)] = next((t for t, pq in shears.items() if pq == (f, g)), None)

    def subresultant(chain, k):
        reads.append((owner[id(chain)], k))
        return real_subresultant(chain, k)

    monkeypatch.setattr(_Chain, "__init__", init)
    monkeypatch.setattr(_Chain, "subresultant", subresultant)
    with wall_clock_ceiling(120):
        affine_singular_points(F)
    assert [t for t, k in reads if k == 0] == [1, -1, 2, -2, 3]
    assert {t for t, k in reads if k > 0} == {1, 2, 3}


# -- the fiber rule against a Euclid over Q[tau]/(f)[y] --------------------------------


def _monic_in_y(p, f, tau, y):
    d = p.deg_in(y)
    lc = p.coeff_in(y, d).with_vars((tau,))
    # SplitNeeded when the leading coefficient dies on part of the cluster
    inv = invert_mod(lc, f, tau)
    return mod_reduce(p * inv, f, tau)


def _ring_gcd_y(A, B, f, tau, y):
    """Monic gcd of A and B in y over Q[tau]/(f), valid at every root of f:
    Euclidean steps with the divisor made monic first."""
    A = mod_reduce(A, f, tau)
    B = mod_reduce(B, f, tau)
    if A.deg_in(y) < B.deg_in(y):
        A, B = B, A
    while not B.is_zero():
        Bm = _monic_in_y(B, f, tau, y)
        db = Bm.deg_in(y)
        R = A
        while not R.is_zero() and R.deg_in(y) >= db:
            dr = R.deg_in(y)
            co = R.coeff_in(y, dr)
            shift = MPoly.variable(y, R.vars) ** (dr - db)
            R = mod_reduce(R - co * shift * Bm, f, tau)
        A, B = Bm, R
    if A.is_zero():
        raise ArithmeticError("gcd of two polynomials that vanish on the cluster")
    return _monic_in_y(A, f, tau, y)


def _fiber_rule_reference(Pf, Qf, fi, tau, y):
    """The y-rule `_affine_clusters` fell back to where S1 died on a cluster
    before it read every S_k from the chain: the monic fiber gcd by Euclid,
    certified equal to (y - y0)**k."""
    G = _ring_gcd_y(Pf, Qf, fi, tau, y)
    k = G.deg_in(y)
    if k <= 0:
        raise ArithmeticError("empty fiber above a resultant root")
    ck1 = G.coeff_in(y, k - 1).with_vars((tau,))
    y0 = mod_reduce(ck1 * Fraction(-1, k), fi, tau)
    if k >= 2:
        yv = MPoly.variable(y, G.vars)
        diff = mod_reduce(G - (yv - y0) ** k, fi, tau)
        if not diff.is_zero():
            slices = ([diff.coeff_in(y, j).with_vars((tau,))]
                      for j in range(diff.deg_in(y) + 1))
            if _first_nonzero(slices, fi) is not None:
                raise singularities._ShearReject("two singular points share a fiber")
            raise ArithmeticError("trimmed difference has no nonzero slice")
    return y0


def _affine_clusters_reference(F, shear, parts, Pt, Qt):
    """`_affine_clusters` as it was before it read every S_k from the chain:
    the S1 rule y0 = -c_0 / s_1, and the Euclid rule where s_1 vanishes on
    the whole cluster."""
    x, y = F.vars
    tau = _fresh_name("t", F.vars)
    S1 = linear_subresultant(Pt, Qt, y)
    Pf, Qf = Pt.rename({x: tau}), Qt.rename({x: tau})

    def rule(fi, xi, yi):
        if S1 is not None:
            s1, c0 = (S1.coeff_in(y, j).with_vars((x,)).rename({x: tau}) for j in (1, 0))
            try:
                return mod_reduce(-(c0 * invert_mod(s1, fi, tau)), fi, tau)
            except ZeroDivisionError:
                pass
        return _fiber_rule_reference(Pf, Qf, fi, tau, y)

    seed = MPoly.zero((tau,))
    out = []
    for g, mult in parts:
        if g.total_degree() == 0:
            continue
        g = g.rename({g.vars[0]: tau})
        for fi, _, _, yr in _resolve_clusters(normalized(g), seed, seed, rule):
            xr = MPoly.variable(tau, (tau,)) + yr * Fraction(shear)
            out.append(SingularPoint("affine", F, fi, xr, yr, milnor=mult))
    out.sort(key=SingularPoint.sort_key)
    return out


def _by_both_rules(F, t, Pt, Qt):
    """The cluster rows of shear t by the chain rule and by the Euclid rule,
    "reject" for a rule that raises _ShearReject."""
    parts, chain, _ = singularities._exact_shear(F, Pt, Qt)
    out = []
    for clusters, args in ((singularities._affine_clusters, (chain,)),
                           (_affine_clusters_reference, (Pt, Qt))):
        try:
            out.append(_cluster_rows(clusters(F, t, parts, *args)))
        except singularities._ShearReject:
            out.append("reject")
    return out


def _recorded_ks(monkeypatch):
    """(deg fi, k) for each cluster fi that `_fiber_rule` answers or rejects:
    the k of the S_k it read last."""
    seen = []
    real = singularities._fiber_rule

    def recording(fibers, fi, tau, y):
        drawn = []

        def tee():
            for k, S in fibers:
                drawn.append(k)
                yield k, S

        try:
            return real(tee(), fi, tau, y)
        finally:
            seen.append((fi.deg_in(tau), drawn[-1]))

    monkeypatch.setattr(singularities, "_fiber_rule", recording)
    return seen


@given(st.one_of(_dense_field(), _degenerate_cubic(), grid_field()))
@settings(max_examples=40, deadline=None)
def test_fiber_rule_matches_euclid_on_every_admissible_shear(F):
    for t, Pt, Qt in _sheared_pairs(F):
        by_chain, by_euclid = _by_both_rules(F, t, Pt, Qt)
        assert by_chain == by_euclid


@pytest.mark.parametrize("alpha, shear, degree, accepted", [(0, 1, 6, False),
                                                             (1, 3, 12, True)])
def test_pullback_fiber_rule_at_k2(alpha, shear, degree, accepted, monkeypatch):
    # both clusters need S_2: on pullback(0) at shear 1 it is no square, two
    # points share each fiber; on pullback(1) at shear 3 it is (y - y0)^2
    F = power_pullback(lins_neto(alpha), 2)
    _, Pt, Qt = next(c for c in _sheared_pairs(F) if c[0] == shear)
    ks = _recorded_ks(monkeypatch)
    by_chain, by_euclid = _by_both_rules(F, shear, Pt, Qt)
    assert (degree, 2) in ks and (by_chain != "reject") == accepted
    assert by_chain == by_euclid


def test_fiber_rule_takes_the_whole_input_when_degrees_are_equal(monkeypatch):
    # m = n = 2 and at x = 0 both components are y^2: the fiber gcd is the
    # whole of Q_t, where the chain holds no S_2
    F = fol("y^2 + x", "y^2 + 2*x")
    t, Pt, Qt = next(_sheared_pairs(F))
    assert t == 0 and Pt.deg_in("y") == Qt.deg_in("y") == 2
    ks = _recorded_ks(monkeypatch)
    by_chain, by_euclid = _by_both_rules(F, t, Pt, Qt)
    assert ks == [(1, 2)]
    assert by_chain == by_euclid == [("t", "0", "0", 2)]


# -- exact squarefree degrees of the shear resultants ------------------------------


@pytest.mark.parametrize("alpha, degrees", [(0, [19, 19, 37, 37, 49]),
                                            (1, [19, 19, 31, 31, 37])])
def test_pullback_squarefree_degrees(alpha, degrees):
    F = power_pullback(lins_neto(alpha), 2)
    shears = list(_sheared_pairs(F))[:5]
    assert [t for t, _, _ in shears] == [1, -1, 2, -2, 3]
    assert [singularities._exact_shear(F, Pt, Qt)[2] for _, Pt, Qt in shears] == degrees


def test_field_without_a_certificate_prime_gets_its_gcd_from_the_prs():
    # both primes divide the denominator of the constant terms, so
    # `_coprime_mod_p` has no image to certify with and `poly_gcd` runs the
    # PRS; the shears are still chosen as the exhaustive loop chooses them
    d = _CERT_PRIMES[0] * _CERT_PRIMES[1]
    F = make_foliation(parse_poly(f"x^2 - y^2 + 1/{d}", V), parse_poly(f"x*y - 1/{d}", V))
    assert not _coprime_mod_p(F.P, F.Q)
    assert (_cluster_rows(affine_singular_points(F))
            == _cluster_rows(_affine_singular_points_reference(F)))
