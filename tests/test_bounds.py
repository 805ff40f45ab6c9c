from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planefol.bounds import (
    BoundReport,
    _finish,
    OracleExhausted,
    PlurigeneraOracle,
    first_integral_bound_from_height,
    first_integral_degree_bound,
    height_lower_bound,
    invariant_curve_degree_bound,
    rr_sections,
    z_bound_quasi_reduced,
)


def squares(upto):
    return PlurigeneraOracle(P=[n * n for n in range(1, upto + 1)])


class TestRRSections:
    def test_values(self):
        assert rr_sections(2, 2) == 3
        assert rr_sections(3, 5) == 5 * 4 - 3 + 1 == 18
        assert rr_sections(0, 7) == 0
        assert rr_sections(1, 9) == 1
        assert rr_sections(2, 1) == 2
        assert rr_sections(5, 1) == 5

    def test_bad_power(self):
        with pytest.raises(ValueError):
            rr_sections(2, 0)
        with pytest.raises(ValueError):
            rr_sections(2, -3)

    def test_bad_genus(self):
        with pytest.raises(ValueError):
            rr_sections(-1, 2)


class TestHeightLowerBound:
    def test_values(self):
        assert height_lower_bound(3, 2) == 6
        assert height_lower_bound(1, 0) == 1
        assert height_lower_bound(2, 3) == 10

    def test_errors(self):
        with pytest.raises(ValueError):
            height_lower_bound(0, 2)
        with pytest.raises(ValueError):
            height_lower_bound(2, -1)


class TestOracle:
    def test_needs_something(self):
        with pytest.raises(ValueError):
            PlurigeneraOracle()

    def test_explicit_lookup(self):
        o = PlurigeneraOracle(P=[0, 1, 5])
        assert o.value(1) == 0 and o.value(3) == 5
        assert not o.known(4)
        with pytest.raises(OracleExhausted):
            o.value(4)

    def test_height_lookup(self):
        o = PlurigeneraOracle(height=2)
        assert o.known(2) and o.known(6)
        assert not o.known(3)
        assert o.value(4) == height_lower_bound(2, 2) == 6

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            PlurigeneraOracle(P=[1, -2])

    def test_height_coherence_violation_is_hard_error(self):
        # with height 2 the bound P_2 >= 3 must hold; P_2 = 1 breaks it
        with pytest.raises(ValueError, match="lower bound"):
            PlurigeneraOracle(P=[0, 1], height=2)

    def test_coherent_pair_accepted(self):
        o = PlurigeneraOracle(P=[1, 3, 7, 10], height=2)
        assert o.value(2) == 3 and o.value(6) == 10

    def test_explicit_wins_over_height(self):
        o = PlurigeneraOracle(P=[1, 5], height=2)
        assert o.value(2) == 5  # not the synthesized 3

    def test_json_round_trip(self):
        o = PlurigeneraOracle.from_json({"P": ["3", "6", "10"], "height": 1})
        assert o.P == (3, 6, 10) and o.height == 1
        assert o.describe() == {"P": ["3", "6", "10"], "height": 1}
        with pytest.raises(ValueError):
            PlurigeneraOracle.from_json({"Q": [1]})
        with pytest.raises(ValueError):
            PlurigeneraOracle.from_json([1, 2])


class TestFirstIntegralBound:
    def test_square_plurigenera(self):
        rep = first_integral_degree_bound(4, 2, squares(10))
        assert rep.n0 == 2 and rep.bound == 6
        assert rep.trace[0] == {"n": 1, "lhs": 1, "rhs": 2, "fired": False}
        assert rep.trace[1] == {"n": 2, "lhs": 4, "rhs": 3, "fired": True}

    def test_late_fire(self):
        o = PlurigeneraOracle(P=[0, 0, 0, 8, 9])
        rep = first_integral_degree_bound(4, 2, o)
        assert rep.n0 == 4 and rep.bound == 12

    def test_immediate_fire(self):
        o = PlurigeneraOracle(P=[1000])
        rep = first_integral_degree_bound(2, 7, o)
        assert rep.n0 == 1 and rep.bound == 1

    def test_exhaustion(self):
        o = PlurigeneraOracle(P=[0, 0, 0])
        with pytest.raises(OracleExhausted, match="increase oracle range"):
            first_integral_degree_bound(4, 2, o)

    def test_genus_hypothesis(self):
        for g in (0, 1):
            with pytest.raises(ValueError):
                first_integral_degree_bound(4, g, squares(5))

    def test_degenerate_degree_warns_not_errors(self):
        rep = first_integral_degree_bound(1, 2, squares(5))
        assert rep.bound == 0 and rep.warning is not None
        assert rep.n0 == 2  # the gate scan still ran

    def test_height_only_oracle(self):
        # values exist only at even n; the scan skips odd indices
        rep = first_integral_degree_bound(4, 2, PlurigeneraOracle(height=2))
        assert all(row["n"] % 2 == 0 for row in rep.trace)
        assert rep.n0 % 2 == 0 and rep.bound == rep.n0 * 3


class TestHeightBound:
    def test_worked_g2(self):
        # the k = 1 section count is g itself (here 2); the gate still
        # fires immediately and the bound is 1 * (4 - 1) = 3
        rep = first_integral_bound_from_height(4, 2, 1)
        assert rep.n_star == 1 and rep.n0 == 1 and rep.bound == 3
        assert rep.trace[0] == {"n": 1, "lhs": 3, "rhs": 2, "fired": True}

    def test_worked_g3_h2(self):
        rep = first_integral_bound_from_height(5, 3, 2)
        assert rep.n_star == 13
        assert rep.trace[-1] == {"n": 13, "lhs": 105, "rhs": 102, "fired": True}
        assert rep.n0 == 26 and rep.bound == 104

    def test_degenerate_degree(self):
        rep = first_integral_bound_from_height(1, 5, 3)
        assert rep.bound == 0 and rep.warning is not None

    def test_grid_terminates(self):
        # every cell must fire; n0 <= h*n_star by construction
        for d in range(1, 7):
            for g in range(2, 6):
                for h in range(1, 5):
                    rep = first_integral_bound_from_height(d, g, h)
                    assert rep.n0 == h * rep.n_star
                    assert rep.trace[-1]["fired"]

    def test_errors(self):
        with pytest.raises(ValueError):
            first_integral_bound_from_height(4, 1, 2)
        with pytest.raises(ValueError):
            first_integral_bound_from_height(4, 2, 0)


def _height_bound_reference(d, g, h):
    """The height bound as its own loop, the way it was written before it
    became a gate scan over the height-1 oracle."""
    if g < 2:
        raise ValueError("the gate needs genus at least 2")
    if h < 1:
        raise ValueError("height must be at least 1")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    trace = []
    n = 0
    while True:
        n += 1
        lhs = comb(n + 2, 2)
        rhs = rr_sections(g, h * n)
        fired = lhs > rhs
        trace.append({"n": n, "lhs": lhs, "rhs": rhs, "fired": fired})
        if fired:
            return _finish(d, g, None, {"height": h}, h * n, trace, n_star=n)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args).to_json()
    except Exception as e:  # the error type and message must match too
        return type(e).__name__, str(e)


@pytest.mark.parametrize("d", range(-2, 7))
def test_height_bound_matches_its_loop(d):
    # invalid genus, height and degree included, and every combination of them
    for g in range(-1, 10):
        for h in range(-1, 6):
            assert (_outcome(first_integral_bound_from_height, d, g, h)
                    == _outcome(_height_bound_reference, d, g, h)), (d, g, h)


class TestZBound:
    def test_values(self):
        assert z_bound_quasi_reduced(1) == 9
        assert z_bound_quasi_reduced(2) == 28
        assert z_bound_quasi_reduced(4) == 126

    def test_error(self):
        with pytest.raises(ValueError):
            z_bound_quasi_reduced(0)


class TestInvariantCurveBound:
    def test_worked_rational_curve(self):
        rep = invariant_curve_degree_bound(4, 0, squares(10), 2)
        assert rep.n0 == 3 and rep.bound == 9
        assert [row["fired"] for row in rep.trace] == [False, False, True]

    def test_exhaustion_contract(self):
        o = PlurigeneraOracle(P=[0, 3, 9])
        with pytest.raises(OracleExhausted, match="increase oracle range"):
            invariant_curve_degree_bound(4, 1, o, 5)

    def test_z_zero_degenerates_to_first_integral_gate(self):
        for g in (2, 3, 5):
            a = invariant_curve_degree_bound(4, g, squares(12), 0)
            b = first_integral_degree_bound(4, g, squares(12))
            assert a.n0 == b.n0 and a.bound == b.bound
            assert [(r["n"], r["lhs"], r["rhs"]) for r in a.trace] == [
                (r["n"], r["lhs"], r["rhs"]) for r in b.trace
            ]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            invariant_curve_degree_bound(4, -1, squares(5), 0)
        with pytest.raises(ValueError):
            invariant_curve_degree_bound(4, 0, squares(5), -2)


class TestReportInvariants:
    def test_json_shape(self):
        rep = first_integral_degree_bound(4, 2, squares(6))
        data = rep.to_json()
        assert set(data) == {"d", "g", "Z", "oracle", "n0", "bound", "trace"}
        assert data["Z"] is None and data["oracle"] == {
            "P": [str(n * n) for n in range(1, 7)]
        }

    def test_trace_tampering_detected(self):
        rep = first_integral_degree_bound(4, 2, squares(6))
        with pytest.raises(ValueError):
            BoundReport(rep.d, rep.g, rep.Z, rep.oracle, rep.n0 + 1,
                        rep.bound + 3, rep.trace)
        bad = [dict(row) for row in rep.trace]
        bad[0]["fired"] = True
        with pytest.raises(ValueError):
            BoundReport(rep.d, rep.g, rep.Z, rep.oracle, rep.n0, rep.bound, bad)

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.integers(min_value=2, max_value=9),
        g=st.integers(min_value=2, max_value=8),
        bump=st.integers(min_value=0, max_value=5),
    )
    def test_monotonicity(self, d, g, bump):
        base = [n * n for n in range(1, 30)]
        bigger = [v + bump for v in base]
        a = first_integral_degree_bound(d, g, PlurigeneraOracle(P=base))
        b = first_integral_degree_bound(d, g, PlurigeneraOracle(P=bigger))
        # pointwise larger plurigenera can only fire sooner
        assert b.n0 <= a.n0
        # raising genus or Z only delays the gate
        if g + 1 <= 8:
            c = first_integral_degree_bound(d, g + 1, PlurigeneraOracle(P=base))
            assert c.n0 >= a.n0
        z0 = invariant_curve_degree_bound(d, g, PlurigeneraOracle(P=base), 0)
        z1 = invariant_curve_degree_bound(d, g, PlurigeneraOracle(P=base), 3)
        assert z1.n0 >= z0.n0

    @settings(max_examples=30, deadline=None)
    @given(
        g=st.integers(min_value=2, max_value=6),
        h=st.integers(min_value=1, max_value=4),
        d=st.integers(min_value=2, max_value=6),
    )
    def test_minimality_reverified_from_trace(self, g, h, d):
        rep = first_integral_bound_from_height(d, g, h)
        fired = [row["n"] for row in rep.trace if row["fired"]]
        assert fired == [rep.n_star]
        for row in rep.trace[:-1]:
            assert not row["fired"]
