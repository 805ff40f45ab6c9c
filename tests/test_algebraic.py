import json

import pytest
from fractions import Fraction

from planefol.algebraic import (
    SplitNeeded,
    _resolve_clusters,
    _split_of,
    eval_bivar_mod,
    invert_mod,
    mod_reduce,
    xgcd_univar,
    zero_split,
)
from planefol.cli import main
from planefol.mpoly import parse_poly


def test_mod_reduce():
    f = parse_poly("x^2 - 2", vars=("x",))
    g = parse_poly("x^3", vars=("x",))
    assert mod_reduce(g, f, "x") == parse_poly("2*x", vars=("x",))


def test_xgcd_bezout_identity():
    a = parse_poly("x^2 + 1", vars=("x",))
    b = parse_poly("x^3 - x", vars=("x",))
    g, s, t = xgcd_univar(a, b, "x")
    assert s * a + t * b == g
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
    status, parts = zero_split(parse_poly("x - 1", vars=("x",)), f, "x")
    assert status == "split"
    h, c = parts
    assert {str(h), str(c)} == {"x - 1", "x + 1"}


def test_eval_bivar_mod():
    # evaluate F(x, y) at y = x (rule) modulo x^2 - 2: F = y^2 + x*y + 1
    f = parse_poly("x^2 - 2", vars=("x",))
    F = parse_poly("y^2 + x*y + 1", vars=("x", "y"))
    rule = parse_poly("x", vars=("x", "y"))
    val = eval_bivar_mod(F, rule, f, "x", "y")
    # x^2 + x^2 + 1 = 2 + 2 + 1 = 5 mod (x^2 - 2)
    assert val == 5


# -- the splitting driver ------------------------------------------------------------


def _t(text):
    return parse_poly(text, vars=("t",))


def test_driver_splits_depth_first_into_uniform_pieces():
    f = _t("(t^2 - 2)*(t - 1)*(t + 3)")
    tests = (_t("t - 1"), _t("t^2 - 2"))

    def job(g, xt, yt):
        # one zero test per witness; a mixed answer splits the cluster
        return tuple(_split_of(zero_split(w, g, "t")) for w in tests)

    pieces = _resolve_clusters(f, _t("t^3"), _t("t"), job)
    assert [str(g) for g, _, _, _ in pieces] == ["t - 1", "t^2 - 2", "t + 3"]
    product = _t("1")
    for g, xt, yt, answer in pieces:
        product = product * g
        assert xt.deg_in("t") < g.deg_in("t") and yt.deg_in("t") < g.deg_in("t")
        assert mod_reduce(_t("t^3") - xt, g, "t").is_zero()
        # the answer holds at every root of the piece
        assert all(st in ("all", "none") for st in answer)
        assert answer == tuple(zero_split(w, g, "t")[0] for w in tests)
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
