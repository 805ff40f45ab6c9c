from fractions import Fraction

import pytest
from conftest import subs_reference
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planefol.blowup import BlowupUnavailableError
from planefol.curves import first_integral_check, is_invariant
from planefol.families import (
    BudgetExceeded,
    FamilyDescriptor,
    build_family,
    dicritical_count,
    hypergeometric_poly,
    hypergeometric_riccati,
    linear_family,
    linear_first_integral,
    lins_neto,
    power_pullback,
    riccati_invariant_curve,
)
from planefol.foliation import Foliation, foliation_degree, make_foliation
from planefol.mpoly import MPoly, exact_div, parse_poly, poly_gcd


def pp(text):
    return parse_poly(text, ("x", "y"))


class TestLinearFamily:
    def test_field_and_expected(self):
        F, expected = linear_family(2, 3)
        assert F.P == pp("3*x") and F.Q == pp("2*y")
        assert expected == 3

    def test_negative_ratio(self):
        F, expected = linear_family(-1, 1)
        assert F.Q == pp("-y") and expected == 2

    def test_radial(self):
        F, expected = linear_family(1, 1)
        assert expected == 1 and foliation_degree(F) == 0

    def test_sign_normalization(self):
        a = linear_family(1, -2)
        b = linear_family(-1, 2)
        assert a[0] == b[0] and a[1] == b[1] == 3

    def test_errors(self):
        with pytest.raises(ValueError):
            linear_family(0, 1)
        with pytest.raises(ValueError):
            linear_family(1, 0)
        with pytest.raises(ValueError):
            linear_family(2, 4)

    def test_monomial_integral(self):
        for p, q in ((2, 3), (-1, 1), (1, 1), (5, 2), (-3, 4)):
            F, _ = linear_family(p, q)
            num, den = linear_first_integral(p, q)
            assert first_integral_check(F, num, den)


class TestLinsNeto:
    def test_degree_four_across_parameters(self):
        for alpha in (0, 1, 2, Fraction(-3, 2)):
            assert foliation_degree(lins_neto(alpha)) == 4

    def test_parameter_enters_linearly(self):
        F2, F3 = lins_neto(2), lins_neto(3)
        assert F2.P - F3.P == pp("(x^3 - 1)*y^2")
        assert F2.Q - F3.Q == pp("(y^3 - 1)*x^2")


class TestHypergeometricPoly:
    def test_k1_is_one(self):
        H = hypergeometric_poly(1, 7, Fraction(1, 2))
        assert H.poly == MPoly.const(("z",), 1)

    def test_k2_worked(self):
        H = hypergeometric_poly(2, 1, 2)
        assert H.poly == parse_poly("1 - 1/2*z", ("z",))

    def test_k3_worked(self):
        H = hypergeometric_poly(3, Fraction(1, 2), Fraction(1, 3))
        assert H.coefficients == [Fraction(1), Fraction(-3), Fraction(27, 16)]

    def test_degree(self):
        for k in range(1, 8):
            H = hypergeometric_poly(k, Fraction(1, 3), Fraction(2, 5))
            assert H.poly.total_degree() == k - 1

    def test_denominator_guard(self):
        # (c)_1 = 0 already
        with pytest.raises(ValueError):
            hypergeometric_poly(2, 1, 0)
        # (c)_2 = (-1)(0) = 0 is reached only from k = 3 on
        hypergeometric_poly(2, 1, -1)
        with pytest.raises(ValueError):
            hypergeometric_poly(3, 1, -1)
        with pytest.raises(ValueError):
            hypergeometric_poly(0, 1, 2)

    @settings(max_examples=40, deadline=None)
    @given(
        k=st.integers(min_value=2, max_value=8),
        b=st.fractions(min_value=Fraction(-3), max_value=Fraction(3),
                       max_denominator=6),
        c=st.fractions(min_value=Fraction(1, 6), max_value=Fraction(3),
                       max_denominator=6),
    )
    def test_pochhammer_ratio_recurrence(self, k, b, c):
        H = hypergeometric_poly(k, b, c)
        co = H.coefficients
        for n in range(len(co) - 1):
            if co[n] == 0:
                continue
            ratio = Fraction((1 - k + n)) * (b + n) / ((c + n) * (n + 1))
            assert co[n + 1] == co[n] * ratio


class TestRiccati:
    def test_printed_field(self):
        F = hypergeometric_riccati(Fraction(-1), 1, 2)
        z, y = (parse_poly(s, ("z", "y")) for s in ("z", "y"))
        P = z * (1 - z)
        Q = -P * y * y - (2 - z) * y + (-1) * 1
        assert F.P == P and F.Q == Q

    def test_degree_four(self):
        for a, b, c in ((-1, 1, 2), (-4, Fraction(1, 2), Fraction(1, 3)),
                        (Fraction(2, 3), Fraction(-1, 5), Fraction(7, 2))):
            assert foliation_degree(hypergeometric_riccati(a, b, c)) == 4

    def test_degenerate_component_drops_degree(self):
        # ab = 0 with c = a+b+1 puts the line z = 1 inside the written
        # 1-form as a component; the constructor strips it
        assert foliation_degree(hypergeometric_riccati(0, 1, 2)) == 3

    def test_vertical_lines_invariant(self):
        F = hypergeometric_riccati(-2, 1, 2)
        z = parse_poly("z", ("z", "y"))
        assert is_invariant(F, z) is not None
        assert is_invariant(F, 1 - z) is not None

    def test_y_axis_invariant_iff_ab_zero(self):
        y = parse_poly("y", ("z", "y"))
        assert is_invariant(hypergeometric_riccati(0, Fraction(1, 2),
                                                   Fraction(1, 3)), y)
        assert is_invariant(hypergeometric_riccati(-2, 1, 2), y) is None

    def test_c_hypothesis(self):
        for c in (0, -1, -5):
            with pytest.raises(ValueError):
                hypergeometric_riccati(1, 1, c)
        hypergeometric_riccati(1, 1, Fraction(-1, 2))


class TestRiccatiInvariantCurve:
    def test_k1_is_the_axis(self):
        C = riccati_invariant_curve(1, 1, 2)
        assert C.f == pp("y")

    def test_k2_worked(self):
        C = riccati_invariant_curve(2, 1, 2)
        assert C.f == pp("y - 1/2*x*y + 1/2")

    def test_certificates_on_the_grid(self):
        for k in range(1, 7):
            for b, c in ((1, 2), (Fraction(1, 2), Fraction(1, 3))):
                F = hypergeometric_riccati(1 - k, b, c)
                C = riccati_invariant_curve(k, b, c)
                cert = is_invariant(F, C)
                assert cert is not None
                # affine total degree is k, not k + 1
                assert C.degree == k


class TestPowerPullback:
    def test_identity(self):
        F = lins_neto(2)
        assert power_pullback(F, 1) == F

    def test_radial_is_fixed(self):
        R, _ = linear_family(1, 1)
        assert power_pullback(R, 3) == R

    def test_degrees_alpha_zero(self):
        F = lins_neto(0)
        assert [foliation_degree(power_pullback(F, r)) for r in (1, 2, 3)] == [
            4, 7, 10,
        ]

    def test_degrees_alpha_two(self):
        # without the axes invariant the top terms survive: degree 6r - 2
        F = lins_neto(2)
        assert [foliation_degree(power_pullback(F, r)) for r in (1, 2, 3)] == [
            4, 10, 16,
        ]

    def test_r_validation(self):
        with pytest.raises(ValueError):
            power_pullback(lins_neto(0), 0)

    @given(data=st.data(), r=st.sampled_from([2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_exponent_maps_match_the_termwise_reference(self, data, r):
        # (y^(r-1) P(x^r, y^r), x^(r-1) Q(x^r, y^r)) from the oracle, with
        # x = 0 and y = 0 planted as invariant lines half the time, so that
        # x^(r-1) or y^(r-1) is a common factor the pullback must remove
        V = ("x", "y")
        coef = st.integers(-2, 2)
        P, Q = (MPoly(V, {(i, d - i): data.draw(coef) for d in range(3) for i in range(d + 1)})
                for _ in range(2))
        x, y = (MPoly.variable(v, V) for v in V)
        P = P * x if data.draw(st.booleans()) else P
        Q = Q * y if data.draw(st.booleans()) else Q
        assume(not P.is_zero() and not Q.is_zero())
        F = make_foliation(P, Q)
        power = {"x": x ** r, "y": y ** r}
        A = y ** (r - 1) * subs_reference(F.P, power)
        B = x ** (r - 1) * subs_reference(F.Q, power)
        G = power_pullback(F, r)
        assert G == Foliation(A, B)
        assert poly_gcd(G.P, G.Q).total_degree() == 0
        assert G.P * B == G.Q * A and exact_div(A, G.P) is not None
        if F.P.coeff_in("x", 0).is_zero():
            assert exact_div(A, x ** (r - 1) * G.P) is not None


class TestDicriticalCensus:
    def test_radial(self):
        assert dicritical_count(linear_family(1, 1)[0]) == 1

    def test_two_three_node(self):
        # origin: (3,2) -> chart2 (1,2) -> chart1 (1,1) radial; [1:0:0]:
        # (-1,-3) -> (-1,-2) -> (-1,-1) radial; [0:1:0] has ratio -2, reduced
        assert dicritical_count(linear_family(2, 3)[0]) == 2

    def test_affine_saddle_counts_its_infinity_nodes(self):
        # the affine saddle point is reduced, but both points at infinity
        # are 2:1 resonant nodes that turn radial after one blow-up
        assert dicritical_count(linear_family(-1, 1)[0]) == 2

    def test_lins_neto_zero(self):
        # ten affine points with scalar linear part (the origin and the
        # nine common zeros of the two cubics) plus both axis points at
        # infinity, where the chart field is (b^4 - b, -w(1 - w^3))
        assert dicritical_count(lins_neto(0)) == 12

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            dicritical_count(lins_neto(0), budget_seconds=1e-9)

    @pytest.mark.parametrize("budget", [float("nan"), 0, -1])
    def test_budget_must_be_positive(self, budget):
        with pytest.raises(ValueError):
            dicritical_count(lins_neto(0), budget_seconds=budget)

    def test_deep_walk_needs_exact_coordinates(self):
        F = make_foliation(pp("y^2"), pp("x^3 - 2"))
        with pytest.raises(BlowupUnavailableError):
            dicritical_count(F)


class TestDescriptors:
    def test_linear(self):
        F, desc = build_family("linear", {"p": 2, "q": 3})
        assert foliation_degree(F) == desc.claimed["degree"] == 1
        assert desc.claimed["first_integral_degree"] == 3
        data = desc.to_json()
        assert data["family"] == "linear"
        assert data["parameters"] == {"p": "2", "q": "3"}
        assert data["claimed"]["first_integral_degree"] == "3"

    def test_lins_neto(self):
        F, desc = build_family("lins_neto", {"alpha": "3/2"})
        assert desc.parameters["alpha"] == Fraction(3, 2)
        assert foliation_degree(F) == desc.claimed["degree"]

    def test_riccati(self):
        F, desc = build_family(
            "riccati_hypergeometric", {"a": "-1", "b": "1", "c": "2"}
        )
        assert foliation_degree(F) == desc.claimed["degree"] == 4

    def test_power_pullback_claims_recorded_not_assumed(self):
        F, desc = build_family("power_pullback", {"alpha": 0, "r": 2})
        assert desc.claimed == {"degree": 7, "dicritical_count": 27}
        assert foliation_degree(F) == 7  # holds for alpha = 0

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            build_family("spiral", {})
        with pytest.raises(ValueError):
            FamilyDescriptor("spiral", {}, {})
