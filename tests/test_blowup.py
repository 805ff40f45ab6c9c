import json
import random
from fractions import Fraction

import pytest
from conftest import quadratic_fields, subs_reference
from hypothesis import assume, given, settings, strategies as st

from planefol.blowup import (
    BlowupUnavailableError,
    ResolutionError,
    _chart_maps,
    _shift,
    blow_up,
    reduce_local_field,
    resolved_total_z,
    safe_resolution,
    seidenberg_reduce,
    strict_transform,
    total_z,
    z_index,
)
from planefol.foliation import Foliation, make_foliation
from planefol.mpoly import MPoly, parse_poly, poly_gcd
from planefol.numbers import QuadExt
from planefol.singularities import (
    NON_REDUCED,
    REDUCED_NONDEGENERATE,
    REDUCED_SADDLE_NODE,
    classify_point,
)

V = ("x", "y")
O = (Fraction(0), Fraction(0))


def pp(s):
    return parse_poly(s, V)


def fol(p, q):
    return make_foliation(pp(p), pp(q))


# The cubic field whose chart fields once hung the coprimality gcd of Foliation.
ITEM3 = ("1/2*x^2 - 2*x^2*y + 7/2*x*y^2", "2*y^3 - x + 2*x^3")


# -- the blow-up itself ----------------------------------------------------------------


def test_blow_up_saddle():
    c1, c2, ell, dic = blow_up((pp("x"), pp("-y")), O)
    assert c1 == (pp("x"), pp("-2*y"))
    assert c2 == (pp("2*x"), pp("-y"))
    assert ell == 1 and dic is False


def test_blow_up_radial_is_dicritical():
    c1, c2, ell, dic = blow_up((pp("x"), pp("y")), O)
    assert dic is True and ell == 2
    assert c1 == (pp("1"), pp("0"))
    assert c2 == (pp("0"), pp("1"))


def test_blow_up_rotated_saddle():
    c1, _, ell, dic = blow_up((pp("y"), pp("x")), O)
    assert ell == 1 and dic is False
    # two singularities on the divisor, at y = 1 and y = -1, both reduced
    F1 = make_foliation(*c1)
    for v0 in (Fraction(1), Fraction(-1)):
        assert classify_point(F1, Fraction(0), v0) == REDUCED_NONDEGENERATE


def test_reduce_builds_no_foliation_below_the_root(monkeypatch):
    # both divisor points of the rotated saddle lie in chart 1, and each is
    # classified on the chart pair itself; the cusp's three blow-ups stack
    F = fol("2*y", "3*x^2")
    built = []
    init = Foliation.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Foliation, "__init__", counting_init)
    node = reduce_local_field((pp("y"), pp("x")), O)
    assert built == []
    assert node.children == []
    assert sorted(node.leaf_singularities, key=lambda leaf: leaf[1]) == [
        (1, (Fraction(0), Fraction(-1)), REDUCED_NONDEGENERATE),
        (1, (Fraction(0), Fraction(1)), REDUCED_NONDEGENERATE),
    ]
    assert seidenberg_reduce(F).blowup_count() == 3
    assert built == []


# The fixed fields of the `resolve` benchmark (`bench/workloads.py` FIELDS).
RESOLVE_FIELDS = {
    "saddle": ("x", "-y"),
    "cusp": ("2*y", "3*x^2"),
    "radial": ("x", "y"),
    "saddle_node": ("x^2", "y"),
    "lin23": ("3*x", "2*y"),
    "shear": ("x", "4*y - 2*x^2"),
}


def degenerate_cubic(seed):
    """A field of degree <= 3 with zero linear part at the origin and the
    invariant line y = 0, of the shape of the `resolve` benchmark's cubics."""
    rng = random.Random(seed)

    def poly(degrees):
        return MPoly(V, {(i, d - i): rng.randint(-2, 2)
                         for d in degrees for i in range(d + 1)})

    while True:
        P, q = poly((2, 3)), poly((1, 2))
        if not (P.is_zero() or q.is_zero()):
            return make_foliation(P, q * MPoly.variable("y", V))


def trees(F):
    """F's minimal and safe trees, or the finished part of one that stops."""
    for build in (seidenberg_reduce, safe_resolution):
        try:
            yield build(F)
        except ResolutionError as e:
            if e.partial is not None:
                yield e.partial
        except BlowupUnavailableError:
            pass


def check_chart_pairs(F):
    """Every chart pair of F's trees is coprime, and each leaf classifies on
    it as on the Foliation the constructor builds from it."""
    for tree in trees(F):
        for node in tree.all_nodes():
            for chart in (node.chart1, node.chart2):
                assert poly_gcd(*chart).total_degree() <= 0, (F, node)
            for tag, pt, kind in node.leaf_singularities:
                fld = node.chart1 if tag == 1 else node.chart2
                assert classify_point(make_foliation(*fld), *pt) == kind, (F, node, pt)


@pytest.mark.parametrize("name", sorted(RESOLVE_FIELDS))
def test_chart_pairs_of_resolve_fields(name):
    check_chart_pairs(fol(*RESOLVE_FIELDS[name]))


@pytest.mark.parametrize("seed", range(8))
def test_chart_pairs_of_degenerate_cubics(seed, wall_clock_ceiling):
    with wall_clock_ceiling(20):
        check_chart_pairs(degenerate_cubic(seed))


@given(field=quadratic_fields())
@settings(max_examples=50, deadline=None)
def test_chart_pairs_of_random_quadratic_fields(field, wall_clock_ceiling):
    P, Q = pp(field["P"]), pp(field["Q"])
    assume(not (P.is_zero() and Q.is_zero()))
    with wall_clock_ceiling(20):
        check_chart_pairs(make_foliation(P, Q))


def test_blow_up_two_to_one_node():
    c1, c2, ell, dic = blow_up((pp("x"), pp("2*y")), O)
    assert c1 == (pp("x"), pp("y"))          # the radial corner
    assert c2 == (pp("-x"), pp("2*y"))
    assert ell == 1 and dic is False


def test_blow_up_translated_point():
    c1, c2, ell, dic = blow_up((pp("x - 1"), pp("2 - y")), (Fraction(1), Fraction(2)))
    assert c1 == (pp("x"), pp("-2*y"))
    assert ell == 1 and dic is False


def test_blow_up_quadratic_point():
    r2 = QuadExt(0, 1, 2)
    P = pp("x^2 - 2")
    Q = pp("y")
    c1, c2, ell, dic = blow_up((P, Q), (r2, Fraction(0)))
    assert ell == 1 and dic is False
    # on the divisor the second chart-1 component vanishes only at y = 0
    x, y = c1[1].vars
    rest = subs_reference(c1[1], {x: MPoly.zero(c1[1].vars)})
    assert rest.eval_all({x: Fraction(0), y: Fraction(0)}) == 0


@st.composite
def _poly_and_point(draw):
    """A polynomial over (x, y) of degree <= 4 with coefficients in Q or in
    Q(sqrt 2), and a point whose coordinates are in the same field, each
    zero a third of the time."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    quad = draw(st.booleans())

    def scalar():
        return QuadExt(draw(small), draw(small), 2) if quad else draw(small)

    exps = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: sum(e) <= 4)
    p = MPoly(V, {e: scalar() for e in draw(st.lists(exps, max_size=8))})
    a, b = (draw(st.sampled_from([Fraction(0), scalar(), scalar()])) for _ in V)
    return p, a, b


@given(_poly_and_point())
@settings(max_examples=100, deadline=None)
def test_shift_and_chart_maps_match_the_termwise_reference(case):
    # the shift is a Horner pass per nonzero coordinate, the charts are
    # exponent maps; each equals the simultaneous substitution
    p, a, b = case
    x, y = (MPoly.variable(v, V) for v in V)
    expected = [subs_reference(p, {"x": x + a, "y": y + b}),
                subs_reference(p, {"y": x * y}), subs_reference(p, {"x": x * y})]
    mine = [_shift(p, a, b), *_chart_maps(p)]
    assert [(q.vars, q.terms) for q in mine] == [(q.vars, q.terms) for q in expected]


def test_chart_maps_substitute_simultaneously():
    # y -> x*y in every term at once: x*y + y^2 is x^2*y + x^2*y^2 in chart 1
    c1, c2 = _chart_maps(pp("x*y + y^2"))
    assert c1 == pp("x^2*y + x^2*y^2") and c2 == pp("x*y^2 + y^2")


def test_blow_up_regular_point_rejected():
    with pytest.raises(ValueError):
        blow_up((pp("x + 1"), pp("y")), O)


def test_chart_transition_compatibility():
    # chart1 at (u, v) = (s t, 1/s) equals the chart2 field pushed through the
    # transition and rescaled by s^(1-l); both charts divide the pullback by
    # the exceptional coordinate to the power l-1
    for P, Q in [(pp("x"), pp("-y")), (pp("2*y"), pp("3*x^2")), (pp("y"), pp("x")), (pp("x"), pp("y"))]:
        c1, c2, ell, _ = blow_up((P, Q), O)
        x, y = c1[0].vars
        for s, t in [(Fraction(2), Fraction(3)), (Fraction(-1, 2), Fraction(5))]:
            u, v = s * t, 1 / s
            at2 = {x: s, y: t}
            a2 = c2[0].eval_all(at2)
            b2 = c2[1].eval_all(at2)
            push_u = t * a2 + s * b2
            push_v = -a2 / (s * s)
            scale = s ** (1 - ell)
            assert c1[0].eval_all({x: u, y: v}) == scale * push_u
            assert c1[1].eval_all({x: u, y: v}) == scale * push_v


# -- reduction trees -------------------------------------------------------------------


def test_reduce_already_reduced_is_empty():
    t = seidenberg_reduce(fol("x", "-y"))
    assert t.mode == "minimal"
    assert t.nodes == []
    assert len(t.base_reduced) == 1


def test_reduce_radial_single_dicritical():
    t = seidenberg_reduce(fol("x", "y"))
    assert len(t.nodes) == 1
    node = t.nodes[0]
    assert node.dicritical is True
    assert node.children == [] and node.leaf_singularities == []


def test_reduce_two_to_one_node():
    t = seidenberg_reduce(fol("x", "2*y"))
    assert t.blowup_count() == 2
    kinds = [k for n in t.all_nodes() for _, _, k in n.leaf_singularities]
    assert kinds == [REDUCED_NONDEGENERATE]
    # the second blow-up handles the radial corner and is dicritical
    assert [n.dicritical for n in t.all_nodes()] == [False, True]


def test_reduce_cusp_chain():
    t = seidenberg_reduce(fol("2*y", "3*x^2"))
    assert t.blowup_count() == 3
    depths = [n.depth() for n in t.nodes]
    assert depths == [3]


def test_reduce_leaves_verified_reduced():
    for p, q in [("x", "2*y"), ("2*y", "3*x^2"), ("x", "y"), ("x^2", "y")]:
        t = seidenberg_reduce(fol(p, q))
        for node in t.all_nodes():
            for tag, pt, kind in node.leaf_singularities:
                fld = node.chart1 if tag == 1 else node.chart2
                again = classify_point(make_foliation(*fld), pt[0], pt[1])
                assert again == kind
                assert again != NON_REDUCED


def test_reduce_budget_error_carries_partial():
    with pytest.raises(ResolutionError) as ei:
        seidenberg_reduce(fol("2*y", "3*x^2"), cap=1)
    assert ei.value.partial is not None
    assert ei.value.partial.mode == "partial"


def test_reduce_degree_three_point_unavailable():
    # ratio-2 nodes sitting over x^3 = 2; reduced never needs coordinates,
    # but blowing these up would
    with pytest.raises(BlowupUnavailableError):
        seidenberg_reduce(fol("x^3 - 2", "6*x^2*y"))


def test_exceptional_cubic_with_large_coefficients_peels_its_rational_root():
    # the chart-1 restriction is (y - 2)(y^2 - 2*10^13), with coefficients
    # above 10^12: its rational root 2 is found and peeled, and the
    # quadratic factor left has roots +-2000000*sqrt(5)
    from planefol.blowup import _exceptional_singularities

    big = 2 * 10**13
    c1, c2, ell, dic = blow_up((pp("-y^2"), pp(f"{2 * big}*x^2 - {big}*x*y - 2*y^2")), O)
    assert c1[1] == pp(f"y^3 - 2*y^2 - {big}*y + {2 * big}")
    points = _exceptional_singularities(c1, c2)
    assert [chart for chart, _ in points] == [1, 1, 1]
    assert points[0][1] == (0, 2)
    assert [pt[1] * pt[1] for _, pt in points[1:]] == [big, big]
    assert isinstance(points[1][1][1], QuadExt)


def test_safe_adds_one_blowup_per_remaining_singularity():
    cases = [("x", "-y"), ("x", "2*y"), ("2*y", "3*x^2"), ("x", "y")]
    for p, q in cases:
        t = seidenberg_reduce(fol(p, q))
        remaining = sum(len(n.leaf_singularities) for n in t.all_nodes())
        remaining += sum(len(sub.exact_coords()) for sub, _ in t.base_reduced)
        s = safe_resolution(fol(p, q))
        extras = sum(1 for n in s.all_nodes() if n.extra)
        assert extras == remaining
        assert s.blowup_count() == t.blowup_count() + remaining
        assert s.mode == "safe" and s.base_reduced == []


def test_reduce_local_field_at_infinity():
    # the 2:1 node of (x, -y) at [1:0:0], resolved in its own chart
    F = fol("x", "-y")
    ch1 = F.infinity_chart(1)
    assert classify_point(ch1, Fraction(0), Fraction(0)) == NON_REDUCED
    node = reduce_local_field((ch1.P, ch1.Q), O)
    total = sum(1 for _ in node.walk())
    assert total == 2
    assert node.children[0].dicritical is True


def test_tree_json_round_trip():
    t = safe_resolution(fol("x", "2*y"))
    blob = json.dumps(t.to_json())
    data = json.loads(blob)
    assert data["mode"] == "safe"
    assert len(data["trees"]) == 1


@st.composite
def _field_at_point(draw):
    """(P, Q, a, b): a field of degree <= 2 singular at (a, b), the point
    rational or in Q(sqrt 2), with integer coefficients in the local
    coordinates (x - a, y - b)."""
    small = st.integers(-3, 3)
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if draw(st.booleans()):
        a, b = draw(rational), draw(rational)
    else:
        a = QuadExt(draw(rational), draw(rational.filter(bool)), 2)
        b = QuadExt(draw(rational), draw(rational), 2)
    local = [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    P, Q = (MPoly(V, {e: draw(small) for e in local}) for _ in range(2))
    x, y = (MPoly.variable(v, V) for v in V)
    moved = {"x": x - MPoly.const(V, a), "y": y - MPoly.const(V, b)}
    return subs_reference(P, moved), subs_reference(Q, moved), a, b


@settings(max_examples=60, deadline=None)
@given(_field_at_point())
def test_classify_point_is_always_certified(case):
    # a point is a degree-1 cluster, which the ratio test always decides;
    # `_reduce_at` relies on this and has no branch for an undetermined kind
    P, Q, a, b = case
    assert classify_point((P, Q), a, b) in (REDUCED_NONDEGENERATE, REDUCED_SADDLE_NODE,
                                            NON_REDUCED)


# -- strict transforms -----------------------------------------------------------------


def test_strict_transform_line_through_origin():
    t = seidenberg_reduce(fol("x", "y"))
    recs = strict_transform(pp("y"), t)
    assert recs[0].multiplicity == 1
    assert recs[0].chart1 == pp("y")
    # {x = 0} stays a fiber transverse to the divisor in chart 2
    recs = strict_transform(pp("x"), t)
    assert recs[0].chart2 == pp("x")


def test_strict_transform_cusp_sequence():
    t = seidenberg_reduce(fol("2*y", "3*x^2"))
    recs = strict_transform(pp("y^2 - x^3"), t)
    assert recs[0].multiplicity_sequence() == [2, 1, 1]
    assert recs[0].chart1 == pp("y^2 - x")


def test_strict_transform_missing_point_is_identity():
    t = seidenberg_reduce(fol("x", "y"))
    recs = strict_transform(pp("y - 1"), t)
    assert recs[0].multiplicity == 0


# -- vanishing orders ------------------------------------------------------------------


def test_z_index_linear():
    assert z_index((pp("x"), pp("y")), pp("y"), O) == 1


def test_z_index_saddle_node_separatrices():
    field = (pp("x^2"), pp("y"))
    assert z_index(field, pp("x"), O) == 1      # strong
    assert z_index(field, pp("y"), O) == 2      # weak
    assert z_index((pp("x^3"), pp("y")), pp("y"), O) == 3


def test_z_index_regular_point_is_zero():
    assert z_index((pp("x"), pp("y")), pp("y"), (Fraction(1), Fraction(0))) == 0


def test_z_index_curved_branch():
    # parabola invariant for the degree-one pencil field
    field = (pp("1"), pp("2*x"))
    F2 = make_foliation(pp("1"), pp("2*x")).infinity_chart(2)
    assert z_index((F2.P, F2.Q), pp("y - x^2").rename({"x": F2.vars[0], "y": F2.vars[1]}), O) >= 0


def test_z_index_rejects_bad_branches():
    with pytest.raises(ValueError):
        z_index((pp("x"), pp("y")), pp("y - x^2"), O)          # not invariant
    with pytest.raises(ValueError):
        z_index((pp("2*y"), pp("3*x^2")), pp("y^2 - x^3"), O)  # singular branch
    with pytest.raises(ValueError):
        z_index((pp("x"), pp("y")), pp("y"), (Fraction(0), Fraction(1)))


def test_z_index_refuses_a_branch_inside_the_component():
    # y = 0 is invariant for the non-coprime (x*y, y) and lies in {x*y = 0},
    # so the pair (y, x*y) shares the factor y through the origin
    with pytest.raises(ArithmeticError, match="share the factor y through"):
        z_index((pp("x*y"), pp("y")), pp("y"), O)


def test_z_index_divides_out_a_factor_away_from_the_point():
    # the invariant line x = 1 divides P, so the reducible branch y*(x - 1),
    # smooth at the origin, shares it with P; it is a unit at the origin
    field = (pp("x*(x - 1)"), pp("-y"))
    assert z_index(field, pp("y*(x - 1)"), O) == 1
    # on the vertical component the component is Q = -y, sharing y with the
    # branch; the field is regular at (1, 1/2)
    assert z_index(field, pp("y*(x - 1)"), (Fraction(1), Fraction(1, 2))) == 0


# The reference value of z_index: the matching field component restricted to
# a power-series parametrization of the branch, independent of `milnor_number`.


def _origin_value(p):
    return p.eval_all(dict.fromkeys(p.vars, Fraction(0)))


def _trunc(p, var, N):
    i = p.vars.index(var)
    return MPoly(p.vars, {e: c for e, c in p.terms.items() if e[i] <= N})


def _subst_series(f, phi, indep, dep, N):
    """f with dep replaced by phi(indep), truncated past indep**N."""
    acc = MPoly.zero(f.vars)
    for c in reversed(f.as_univar(dep)):
        acc = _trunc(acc * phi, indep, N) + c
    return _trunc(acc, indep, N)


def _series_solve(f, indep, dep, N):
    """phi with phi(0) = 0 and f(indep, phi) = 0 mod indep**(N+1), for
    df/d(dep) nonzero at the origin; the linear update is exact at every order."""
    c0 = _origin_value(f.diff(dep))
    iv = MPoly.variable(indep, f.vars)
    phi = MPoly.zero(f.vars)
    for n in range(1, N + 1):
        res = _subst_series(f, phi, indep, dep, n)
        i = res.vars.index(indep)
        rn = None
        for e, c in res.terms.items():
            if e[i] == n:
                rn = c if rn is None else rn + c
        if rn:
            phi = phi - (iv ** n) * (rn / c0)
    return phi


def series_z_index(field, branch, point):
    """ord_t comp(g(t)) for g the smooth branch at `point` as a power series,
    truncated once at the Bezout bound deg(branch) * deg(comp); that bounds
    the order unless the branch lies in {comp = 0}, where ArithmeticError
    is raised."""
    P, Q = field
    x, y = P.vars

    def shifted(p):
        return subs_reference(p, {v: MPoly.variable(v, p.vars) + MPoly.const(p.vars, c)
                                  for v, c in zip(p.vars, point)})

    fb = shifted(branch)
    if _origin_value(fb.diff(y)) != 0:
        indep, dep, comp = x, y, shifted(P)
    else:
        indep, dep, comp = y, x, shifted(Q)
    N = fb.total_degree() * comp.total_degree()
    restricted = _subst_series(comp, _series_solve(fb, indep, dep, N), indep, dep, N)
    if restricted.is_zero():
        raise ArithmeticError(f"restriction vanishes to order {N}")
    i = comp.vars.index(indep)
    return min(e[i] for e in restricted.terms)


@st.composite
def _planted_line_fields(draw):
    """((P, Q), branch, point) with y = 0 invariant (y divides Q) and P(x, 0)
    carrying a planted factor (x - c)**k for the rational point (c, 0), or
    (x^2 - 2)**k for one of (+-sqrt 2, 0); k = 0 leaves the point regular
    unless the cofactor vanishes there, and a zero cofactor puts y = 0 inside
    {P = 0}.  The branch is y, or the reducible y*(x - d) for a rational
    d != c, with x - d planted in P so that the line x = d is invariant."""
    coef = st.integers(min_value=-3, max_value=3)

    def poly(degree):
        return MPoly(V, {(i, j): draw(coef)
                         for i in range(degree + 1) for j in range(degree + 1 - i)})

    xv, yv = MPoly.variable("x", V), MPoly.variable("y", V)
    k = draw(st.integers(0, 3))
    if draw(st.booleans()):
        root = QuadExt(0, draw(st.sampled_from([1, -1])), 2)
        planted = xv * xv - 2
    else:
        root = Fraction(draw(st.integers(-2, 2)))
        planted = xv - root
    cofactor = MPoly(V, {(i, 0): draw(coef) for i in range(3)})
    P = planted ** k * cofactor + yv * poly(1)
    Q = yv * poly(1)
    branch = yv
    if draw(st.booleans()):
        d = draw(st.integers(-2, 2).filter(lambda d: d != root))
        P = P * (xv - d)
        branch = yv * (xv - d)
    return (P, Q), branch, (root, Fraction(0))


@given(_planted_line_fields())
@settings(max_examples=80, deadline=None)
def test_z_index_matches_the_series_restriction(case):
    field, branch, point = case
    try:
        expected = series_z_index(field, branch, point)
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            z_index(field, branch, point)
        return
    assert z_index(field, branch, point) == expected


def test_total_z_line_for_linear_saddle():
    z, recs = total_z(fol("x", "-y"), pp("y"))
    assert z == 2
    assert sorted(r.chart for r in recs) == ["affine", "inf1"]


def test_total_z_conic_for_pencil():
    z, recs = total_z(fol("1", "2*x"), pp("y - x^2"))
    assert z == 2
    assert [r.chart for r in recs] == ["inf2"]
    assert recs[0].z_index == 2


def test_total_z_curve_avoiding_singularities():
    # not an invariant curve, but it meets no singular point, so the sum is empty
    z, recs = total_z(fol("x", "-y"), pp("x + y - 5"))
    assert z == 0 and recs == []


def test_total_z_accepts_tree():
    s = safe_resolution(fol("x", "-y"))
    z, _ = total_z(s, pp("y"))
    assert z == 2


def test_resolved_total_z_cusp():
    s = safe_resolution(fol("2*y", "3*x^2"))
    z, recs = resolved_total_z(s, pp("y^2 - x^3"))
    assert z == 1
    assert len(recs) == 1 and recs[0].z_index == 1


def test_resolved_total_z_requires_safe():
    t = seidenberg_reduce(fol("x", "-y"))
    with pytest.raises(ValueError):
        resolved_total_z(t, pp("y"))


# -- the item 3 field: chart-field construction must not hang --------------------------


def test_item3_field_reduces_with_twelve_blowups(wall_clock_ceiling):
    with wall_clock_ceiling(10):
        tree = seidenberg_reduce(fol(*ITEM3))
    assert tree.blowup_count() == 12


def test_item3_chart_fields_pass_make_foliation_unchanged(wall_clock_ceiling):
    with wall_clock_ceiling(10):
        tree = seidenberg_reduce(fol(*ITEM3))
        fields = [f for node in tree.all_nodes() for f in (node.chart1, node.chart2)]
        assert len(fields) == 24
        for P, Q in fields:
            F = make_foliation(P, Q)
            assert (F.P, F.Q) == (P, Q)
