import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from planefol import singularities
from planefol.cli import main
from planefol.foliation import make_foliation
from planefol.mpoly import MPoly, parse_poly, subresultant_prs
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
