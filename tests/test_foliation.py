
import pytest

from planefol import foliation
from planefol.foliation import Foliation, make_foliation
from planefol.mpoly import parse_poly, poly_gcd

V = ("x", "y")


def fol(p, q):
    return make_foliation(parse_poly(p, V), parse_poly(q, V))


def test_common_factor_removed():
    F = make_foliation(parse_poly("x*(x+y)", V), parse_poly("y*(x+y)", V))
    assert F.P == parse_poly("x", V)
    assert F.Q == parse_poly("y", V)


def test_constructor_divides_shared_factor():
    shared = Foliation(parse_poly("x*(x+y)", V), parse_poly("y*(x+y)", V))
    assert shared == Foliation(parse_poly("x", V), parse_poly("y", V))


def test_constructor_runs_one_gcd(monkeypatch):
    calls = []

    def counting_gcd(f, g):
        calls.append((f, g))
        return poly_gcd(f, g)

    monkeypatch.setattr(foliation, "poly_gcd", counting_gcd)
    F = make_foliation(parse_poly("x*(x+y)", V), parse_poly("y*(x+y)", V))
    assert len(calls) == 1
    assert (F.P, F.Q) == (parse_poly("x", V), parse_poly("y", V))


def test_zero_field_rejected():
    with pytest.raises(ValueError):
        make_foliation(parse_poly("0", V), parse_poly("0", V))


def test_degree_radial_drops():
    # x Q_m - y P_m == 0 for the radial field: degree m - 1
    assert fol("x", "y").degree() == 0


def test_degree_generic_linear():
    assert fol("x", "-y").degree() == 1
    assert fol("y", "x").degree() == 1


def test_degree_drop_quadratic():
    # tops (x^2, xy) satisfy the drop identity; degree is 1, not 2
    F = fol("x^2", "x*y + 1")
    assert F.top_degree() == 2
    assert F.degree() == 1


def test_degree_no_drop():
    assert fol("x^2", "y").degree() == 2
    assert fol("(x^3-1)*x", "(y^3-1)*y").degree() == 4


def test_infinity_chart_radial_is_regular():
    # the radial field leaves no singularity at infinity after the common
    # w factor is removed
    ch = fol("x", "y").infinity_chart(1)
    b, w = ch.vars
    assert ch.P.is_zero()
    assert ch.Q.deg_in(w) == 0 or ch.Q == -parse_poly("1", ch.vars)


def test_infinity_chart_saddle():
    # (x, -y): chart 1 carries the field (-2b, -w)
    ch = fol("x", "-y").infinity_chart(1)
    b, w = ch.vars
    assert ch.P == parse_poly(f"-2*{b}", ch.vars)
    assert ch.Q == parse_poly(f"-{w}", ch.vars)


def test_infinity_chart_fresh_names():
    # chart variable names never collide with the affine ones
    F = make_foliation(parse_poly("b", ("b", "w")), parse_poly("w^2", ("b", "w")))
    ch = F.infinity_chart(1)
    assert len(set(ch.vars)) == 2
    assert not set(ch.vars) & {"b", "w"}


def test_foliation_unpacks_as_its_pair():
    F = fol("x^2 + y", "x*y")
    P, Q = F
    assert (P, Q) == (F.P, F.Q)
