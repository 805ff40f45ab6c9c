import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from planefol import singularities
from planefol.algebraic import mod_reduce
from planefol.cli import main
from planefol.families import lins_neto, power_pullback
from planefol.foliation import make_foliation
from planefol.mpoly import (
    _CERT_PRIMES,
    MPoly,
    _squarefree_degree_mod_p,
    parse_poly,
    resultant,
    squarefree_part,
    subresultant_prs,
    yun_decomposition,
)
from planefol.numbers import QuadExt, quadext_sqrt, rational_sqrt
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
    infinity_singular_points,
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

    by_det = canonical()
    monkeypatch.setattr(singularities, "linear_subresultant", _linear_subresultant_reference)
    assert canonical() == by_det


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


@settings(max_examples=15, deadline=None)
@given(grid_field())
def test_bezout_identity_random_grids(F):
    assert total_milnor(singular_points(F)) == bezout_total(F)


# -- cluster substitution by Horner mod f ---------------------------------------------


@st.composite
def _cluster_substitution(draw):
    """(p, mapping, f): a squarefree modulus f in t, and either a translation
    (x, y) -> (x + xt(t), y + yt(t)) of p over (x, y, t) or an evaluation
    (x, y) -> (xt(t), yt(t)) of p over (x, y)."""
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    n = draw(st.integers(1, 4))
    f = MPoly(("t",), {**{(k,): draw(coef) for k in range(n)}, (n,): draw(coef.filter(bool))})
    f = squarefree_part(f)
    assume(f.total_degree() > 0)

    def univar(deg):
        return MPoly(("t",), {(k,): draw(coef) for k in range(deg + 1)})

    xt, yt = univar(draw(st.integers(0, 4))), univar(draw(st.integers(0, 4)))
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4))
    if draw(st.booleans()):
        vars3 = ("x", "y", "t")
        exps3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2))
        p = MPoly(vars3, {e: draw(coef) for e in draw(st.lists(exps3, max_size=8))})
        mapping = {"x": MPoly.variable("x", vars3) + xt.with_vars(vars3),
                   "y": MPoly.variable("y", vars3) + yt.with_vars(vars3)}
    else:
        p = MPoly(V, {e: draw(coef) for e in draw(st.lists(exps, max_size=8))})
        mapping = {"x": xt, "y": yt}
    return p, mapping, f


@given(_cluster_substitution())
@settings(max_examples=80, deadline=None)
def test_subs_mod_equals_reduced_substitution(case):
    p, mapping, f = case
    mine = singularities._subs_mod(p, mapping, f, "t")
    ref = mod_reduce(p.subs(mapping), f, "t")
    assert mine.vars == ref.vars and mine.terms == ref.terms


def test_subs_mod_rejects_an_image_holding_another_substituted_variable():
    p = parse_poly("x^2 + y", V)
    f = parse_poly("t^2 - 2", ("t",))
    with pytest.raises(ValueError):
        singularities._subs_mod(p, {"x": parse_poly("y + 1", V), "y": parse_poly("x", V)},
                                f, "t")
    # an image may hold its own variable: a translation
    moved = singularities._subs_mod(p, {"x": parse_poly("x + 1", V)}, f, "t")
    assert moved == parse_poly("x^2 + 2*x + 1 + y", V)


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
        Pt, Qt = (P, Q) if t == 0 else (P.subs({x: sx}), Q.subs({x: sx}))
        R = resultant(Pt, Qt, y).with_vars((x,))
        if R.total_degree() == 0:
            return []
        try:
            return singularities._affine_clusters(F, t, yun_decomposition(R), Pt, Qt)
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


@given(st.one_of(_dense_field(), _degenerate_cubic(), grid_field()))
@settings(max_examples=40, deadline=None)
def test_shear_choice_matches_exhaustive_loop(F):
    # grid fields put many points on one line x + t*y = c, so shears are
    # rejected and skipped there
    assert (_cluster_rows(affine_singular_points(F))
            == _cluster_rows(_affine_singular_points_reference(F)))


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
    # shear 1 is rejected; the squarefree degrees of -1, 2, -2 and 3, read mod p
    # after it, show shear 3 with the largest, so the others are skipped
    assert seen == [1, 3]


def test_pullback_resultants_only_for_tried_shears(monkeypatch, wall_clock_ceiling):
    # shears -1, 2 and -2 are ranked mod p and skipped: no exact resultant
    F = power_pullback(lins_neto(1), 2)
    shears = {t: (Pt, Qt) for t, Pt, Qt in singularities._shear_candidates(F)}
    calls = []
    real = singularities.resultant

    def counting(f, g, var):
        calls.append(next(t for t, pq in shears.items() if pq == (f, g)))
        return real(f, g, var)

    monkeypatch.setattr(singularities, "resultant", counting)
    with wall_clock_ceiling(120):
        affine_singular_points(F)
    assert calls == [1, 3]


# -- squarefree degrees of the shear resultants mod p ---------------------------------


def _exact_squarefree_degree(Pt, Qt):
    R = resultant(Pt, Qt, "y").with_vars(("x",))
    return sum(g.total_degree() for g, _ in yun_decomposition(R)) if R.total_degree() > 0 else 0


@given(st.one_of(_dense_field(), _degenerate_cubic(), grid_field()))
@settings(max_examples=40, deadline=None)
def test_squarefree_degree_mod_p_matches_exact(F):
    for _, Pt, Qt in singularities._shear_candidates(F):
        assert _squarefree_degree_mod_p(Pt, Qt, "y") == _exact_squarefree_degree(Pt, Qt)


@pytest.mark.parametrize("alpha, degrees", [(0, [19, 19, 37, 37, 49]),
                                            (1, [19, 19, 31, 31, 37])])
def test_pullback_squarefree_degrees_mod_p(alpha, degrees):
    F = power_pullback(lins_neto(alpha), 2)
    shears = list(singularities._shear_candidates(F))[:5]
    assert [t for t, _, _ in shears] == [1, -1, 2, -2, 3]
    assert [_squarefree_degree_mod_p(Pt, Qt, "y") for _, Pt, Qt in shears] == degrees


def test_squarefree_degree_mod_p_skips_a_bad_prime():
    # at shear 0 the first prime divides the y-leading coefficient of P_t,
    # so its image comes from the second
    p1 = _CERT_PRIMES[0]
    F = make_foliation(parse_poly(f"x^2 + {p1}*y^2 - y - 1", V), parse_poly("x*y + y^2 + x - 2", V))
    for _, Pt, Qt in singularities._shear_candidates(F):
        assert _squarefree_degree_mod_p(Pt, Qt, "y") == _exact_squarefree_degree(Pt, Qt)


def test_shear_ranking_without_a_prime_takes_the_exact_path():
    # both primes divide the denominator of the constant terms, so no image
    # mod p exists and each shear drawn ahead gets its exact resultant
    d = _CERT_PRIMES[0] * _CERT_PRIMES[1]
    F = make_foliation(parse_poly(f"x^2 - y^2 + 1/{d}", V), parse_poly(f"x*y - 1/{d}", V))
    ranked = list(singularities._ranked(F, singularities._shear_candidates(F), exact=False))
    assert ranked
    for _, Pt, Qt, parts, degree in ranked:
        assert _squarefree_degree_mod_p(Pt, Qt, "y") is None
        assert parts is not None and degree == _exact_squarefree_degree(Pt, Qt)
    assert (_cluster_rows(affine_singular_points(F))
            == _cluster_rows(_affine_singular_points_reference(F)))
