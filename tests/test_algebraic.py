import json

import pytest
from conftest import cluster_moduli, subs_reference
from hypothesis import assume, given, settings, strategies as st

from planefol.algebraic import (
    SplitNeeded,
    _first_nonzero,
    _horner_mod,
    _resolve_clusters,
    _vanishes,
    invert_mod,
    mod_reduce,
    xgcd_univar,
    zero_split,
)
from planefol.cli import main
from planefol.mpoly import MPoly, parse_poly, poly_divmod
from planefol.numbers import QuadExt


def test_mod_reduce():
    f = parse_poly("x^2 - 2", vars=("x",))
    g = parse_poly("x^3", vars=("x",))
    assert mod_reduce(g, f, "x") == parse_poly("2*x", vars=("x",))


def test_xgcd_bezout_identity():
    a = parse_poly("x^2 + 1", vars=("x",))
    b = parse_poly("x^3 - x", vars=("x",))
    g, s = xgcd_univar(a, b)
    # s*a = g mod b: the cofactor of b is not formed
    assert mod_reduce(s * a - g, b, "x").is_zero()
    assert g.total_degree() == 0  # coprime


def test_invert_mod_simple():
    f = parse_poly("x^2 - 2", vars=("x",))
    a = parse_poly("x + 1", vars=("x",))  # (1+sqrt2)^-1 = sqrt2 - 1
    inv = invert_mod(a, f, "x")
    assert mod_reduce(a * inv, f, "x") == 1
    assert inv == parse_poly("x - 1", vars=("x",))


def test_invert_mod_splits_reducible_modulus():
    f = parse_poly("x^2 - 1", vars=("x",))
    a = parse_poly("x - 1", vars=("x",))  # zero divisor: vanishes at one root only
    with pytest.raises(SplitNeeded) as exc:
        invert_mod(a, f, "x")
    factor = exc.value.factor
    assert factor == parse_poly("x - 1", vars=("x",))


def test_invert_mod_zero():
    f = parse_poly("x^2 - 2", vars=("x",))
    with pytest.raises(ZeroDivisionError):
        invert_mod(parse_poly("x^2 - 2", vars=("x",)), f, "x")


def test_zero_split_cases():
    f = parse_poly("x^2 - 1", vars=("x",))
    assert zero_split(parse_poly("x^2 - 1", vars=("x",)) * 3, f, "x") == ("all", None)
    assert zero_split(parse_poly("x^2 + 5", vars=("x",)), f, "x") == ("none", None)
    assert zero_split(parse_poly("2*x - 2", vars=("x",)), f, "x") == (
        "split", parse_poly("x - 1", vars=("x",)))


# -- the Horner substitution ---------------------------------------------------------

V3 = ("x", "y", "t")


@st.composite
def _horner_steps(draw, quad):
    """(p, v, img, f): p over (x, y, t), an image of v of a kind the package
    substitutes, each holding v itself (v + c, v + xt(t) with xt of any
    t-degree, also at or above deg f, x + s*y, y -> x*y), and a modulus f in
    t from `cluster_moduli` or None. Coefficients are rational, or with quad
    every coefficient of p is a QuadExt over Q(sqrt 2), so that each branch
    of the kernel is drawn."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def scalar():
        return QuadExt(draw(small), draw(small), 2) if quad else draw(small)

    exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2))
    p = MPoly(V3, {e: scalar() for e in draw(st.lists(exps, max_size=8))})
    kind = draw(st.sampled_from(["scalar", "cluster", "shear", "chart"]))
    v = "y" if kind == "chart" else draw(st.sampled_from(["x", "y"]))
    var = MPoly.variable(v, V3)
    if kind == "scalar":
        img = var + scalar()
    elif kind == "cluster":
        img = var + MPoly(V3, {(0, 0, k): draw(small) for k in range(draw(st.integers(0, 6)))})
    elif kind == "shear":
        v, img = "x", MPoly.variable("x", V3) + MPoly.variable("y", V3) * draw(st.integers(-3, 3))
    else:
        img = MPoly.variable("x", V3) * var
    f = draw(st.none() | cluster_moduli(quad).map(lambda f: f.with_vars(V3)))
    return p, v, img, f


def _check_horner_step(p, v, img, f):
    # with a modulus the step reduces mod f after every product; without one
    # it is the plain substitution. The reference expands, then divides
    ref = subs_reference(p, {v: img})
    if f is None:
        mine = _horner_mod(p, v, img, None, None)
    else:
        mine = _horner_mod(p, v, img, f, "t")
        ref = poly_divmod(ref, f)[1]
    assert mine.vars == ref.vars and mine.terms == ref.terms


@given(_horner_steps(False))
@settings(max_examples=150, deadline=None)
def test_horner_step_matches_termwise_reference(case):
    # rational data: the scaled branch of the kernel
    _check_horner_step(*case)


@given(_horner_steps(True))
@settings(max_examples=100, deadline=None)
def test_horner_step_over_quadext_matches_termwise_reference(case):
    # QuadExt data: the same loops, unscaled
    _check_horner_step(*case)


@pytest.mark.parametrize("quad", [False, True], ids=["scaled", "quadext"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_invert_mod_gives_a_reduced_inverse(quad, data):
    # the Euclid cofactor is the inverse as it stands: below deg f, and a
    # times it is 1 mod f
    f = data.draw(cluster_moduli(quad))
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    def scalar():
        a = data.draw(small)
        return QuadExt(a, data.draw(small), 2) if quad else a

    a = MPoly(("t",), {(k,): scalar() for k in range(data.draw(st.integers(0, 6)))})
    try:
        inv = invert_mod(a, f, "t")
    except (SplitNeeded, ZeroDivisionError):
        assume(False)
    assert inv.deg_in("t") < f.deg_in("t")
    assert poly_divmod(a * inv - 1, f)[1].is_zero()


def test_first_nonzero_group_rule():
    f = _t("(t - 1)*(t + 1)*(t - 2)")
    nowhere, mixed, everywhere = _t("t^2 + 5"), _t("t + 1"), _t("0")
    # a value nonzero at every root answers for its group, even after a mixed one
    assert _first_nonzero([[everywhere], [mixed, nowhere]], f) == 1
    assert _first_nonzero([[everywhere, f * 3]], f) is None
    # no such value: the group's first mixed value splits the cluster
    with pytest.raises(SplitNeeded) as exc:
        _first_nonzero([[everywhere, _t("t - 2"), mixed], [nowhere]], f)
    assert exc.value.factor == _t("t - 2")
    assert _vanishes(f * _t("t"), f) and not _vanishes(nowhere, f)


# -- the splitting driver ------------------------------------------------------------


def _t(text):
    return parse_poly(text, vars=("t",))


def test_driver_splits_depth_first_into_uniform_pieces():
    f = _t("(t^2 - 2)*(t - 1)*(t + 3)")
    tests = (_t("t - 1"), _t("t^2 - 2"))

    def job(g, xt, yt):
        # one zero test per witness; a mixed answer splits the cluster
        return tuple(_vanishes(w, g) for w in tests)

    pieces = _resolve_clusters(f, _t("t^3"), _t("t"), job)
    assert [str(g) for g, _, _, _ in pieces] == ["t - 1", "t^2 - 2", "t + 3"]
    product = _t("1")
    for g, xt, yt, answer in pieces:
        product = product * g
        assert xt.deg_in("t") < g.deg_in("t") and yt.deg_in("t") < g.deg_in("t")
        assert mod_reduce(_t("t^3") - xt, g, "t").is_zero()
        # the answer holds at every root of the piece
        assert [zero_split(w, g, "t")[0] for w in tests] == [
            "all" if vanishes else "none" for vanishes in answer]
    assert product == f


def test_driver_rejects_a_foreign_factor():
    def job(g, xt, yt):
        raise SplitNeeded(_t("t - 5"))

    with pytest.raises(ArithmeticError):
        _resolve_clusters(_t("t^2 - 1"), _t("t"), _t("0"), job)


@pytest.mark.parametrize("curve, expected", [
    ("y^2 - x^2*(x-1)^3",
     [("affine", "t", True), ("affine", "t - 1", False), ("inf2", "t", False)]),
    ("y^2 - x^3*(x-1)^2",
     [("affine", "t", False), ("affine", "t - 1", True), ("inf2", "t", False)]),
    # one cluster [1 : b : 0], b^2 = 1, that the Hessian test splits
    ("(y^2 - x^2)^2 + x^2 + x*y + 1",
     [("inf1", "t + 1", False), ("inf1", "t - 1", True)]),
])
def test_genus_cluster_order_is_pinned(capsys, tmp_path, curve, expected):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"f": curve}))
    code = main(["--format", "json", "genus", "--curve", str(path),
                 "--deltas", "[1, 1, 1]"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [(s["chart"], s["modulus"], s["node"])
            for s in report["singular_clusters"]] == expected
