"""Acceptance gate: twelve criteria, one test each.

Each test prints one summary line; pytest's own PASSED/FAILED column is
the per-criterion verdict.  Expected values are invariants derived inside
the test: from hand-checked formulas, and for the power-map pullbacks from
an independent sympy computation of the same fields, never from the
library's own output.  Where a family's published claim contradicts the
derived value, the summary line prints both sides as a documented
discrepancy; the claim does not fail the test.
"""

import time
from fractions import Fraction
from math import comb, gcd

import pytest
import sympy

from planefol.blowup import safe_resolution, seidenberg_reduce, total_z, z_index
from planefol.bounds import (
    PlurigeneraOracle,
    first_integral_bound_from_height,
    first_integral_degree_bound,
    height_lower_bound,
)
from planefol.curves import (
    PlaneCurve,
    curve_singularities,
    extactic,
    first_integral_check,
    first_integral_degree,
    is_invariant,
)
from planefol.families import (
    build_family,
    dicritical_count,
    hypergeometric_riccati,
    linear_family,
    linear_first_integral,
    lins_neto,
    power_pullback,
    riccati_invariant_curve,
)
from planefol.foliation import foliation_degree, make_foliation
from planefol.mpoly import exact_div, parse_poly
from planefol.singularities import (
    NON_REDUCED,
    UNDETERMINED,
    bezout_total,
    classify_point,
    singular_points,
    total_milnor,
)


def pp(text):
    return parse_poly(text, ("x", "y"))


def coprime_pairs(limit=5):
    out = []
    for q in range(1, limit + 1):
        for p in range(-limit, limit + 1):
            if p != 0 and gcd(abs(p), q) == 1:
                out.append((p, q))
    return out


def test_criterion_01_quartic_family_degree():
    t0 = time.monotonic()
    degrees = {
        alpha: foliation_degree(lins_neto(alpha))
        for alpha in (0, 1, 2, Fraction(-3, 2))
    }
    elapsed = time.monotonic() - t0
    assert all(d == 4 for d in degrees.values()), degrees
    assert elapsed < 1.0
    print(f"criterion 1: degree 4 at all four parameters ({elapsed:.2f}s)")


# -- an independent sympy oracle for the power-map pullbacks -----------------------

X, Y, U, V = sympy.symbols("x y u v")


def sym_field(F):
    """The components of a planefol foliation in x, y as sympy expressions."""
    return tuple(
        sympy.expand(sum(
            (sympy.Rational(c.numerator, c.denominator) * X ** i * Y ** j
             for (i, j), c in f.terms.items()),
            sympy.Integer(0),
        ))
        for f in (F.P, F.Q)
    )


def sym_lins_neto(alpha):
    """(x^3 - 1)(x - a y^2) d/dx + (y^3 - 1)(y - a x^2) d/dy, as the
    lins_neto docstring defines it."""
    a = sympy.Rational(alpha)
    return (sympy.expand((X ** 3 - 1) * (X - a * Y ** 2)),
            sympy.expand((Y ** 3 - 1) * (Y - a * X ** 2)))


def sym_saturate(P, Q):
    g = sympy.gcd(P, Q)
    return sympy.expand(sympy.cancel(P / g)), sympy.expand(sympy.cancel(Q / g))


def sym_pullback(P, Q, r):
    """(y^(r-1) P(x^r, y^r), x^(r-1) Q(x^r, y^r)) with common factors removed."""
    power = {X: X ** r, Y: Y ** r}
    return sym_saturate(Y ** (r - 1) * P.subs(power, simultaneous=True),
                        X ** (r - 1) * Q.subs(power, simultaneous=True))


def sym_part(f, n):
    """The homogeneous part of degree n of f in x, y."""
    return sum((c * X ** i * Y ** j
                for (i, j), c in sympy.Poly(f, X, Y).terms() if i + j == n),
               sympy.Integer(0))


def sym_orders(P, Q):
    """(lowest, top) total degree over the nonzero components."""
    monoms = [m for f in (P, Q) if f != 0 for m in sympy.Poly(f, X, Y).monoms()]
    return min(map(sum, monoms)), max(map(sum, monoms))


def radial_part(P, Q, n):
    """x Q_n - y P_n = 0: the degree-n part of the field is radial.  At the
    top degree the line at infinity is then not invariant and the foliation
    has degree n - 1; at the lowest order the tangent cone vanishes and the
    first blow-up at the origin is dicritical."""
    return sympy.expand(X * sym_part(Q, n) - Y * sym_part(P, n)) == 0


def sym_degree(P, Q):
    n = sym_orders(P, Q)[1]
    return n - 1 if radial_part(P, Q, n) else n


def invariant_coordinate_lines(P, Q):
    """How many of x = 0, y = 0, z = 0 the saturated field leaves invariant."""
    top = sym_orders(P, Q)[1]
    return sum((P.subs(X, 0) == 0, Q.subs(Y, 0) == 0,
                not radial_part(P, Q, top)))


def sym_chart(P, Q, which):
    """The field near the line at infinity, from the 1-form P dy - Q dx, in
    the chart [1 : v : u] (which = 1) or [v : 1 : u] (which = 2); u = 0 is the
    line at infinity and the result is written in (x, y) = (u, v)."""
    x, y = (1 / U, V / U) if which == 1 else (V / U, 1 / U)
    Ps = P.subs({X: x, Y: y}, simultaneous=True)
    Qs = Q.subs({X: x, Y: y}, simultaneous=True)
    clear = U ** (sym_orders(P, Q)[1] + 2)
    A = sympy.cancel(clear * (Ps * sympy.diff(y, U) - Qs * sympy.diff(x, U)))
    B = sympy.cancel(clear * (Ps * sympy.diff(y, V) - Qs * sympy.diff(x, V)))
    B, A = sym_saturate(B, A)
    return B.subs({U: X, V: Y}), (-A).subs({U: X, V: Y})


def sym_linear_part(P, Q, a, b):
    """(trace, determinant, scalar) of the linear part at (a, b); scalar is
    the c with linear part c * Id, or None."""
    at = {X: a, Y: b}
    px, py, qx, qy = (sympy.expand(sympy.diff(f, v).subs(at))
                      for f in (P, Q) for v in (X, Y))
    scalar = px if py == qx == 0 and sympy.expand(px - qy) == 0 else None
    return sympy.expand(px + qy), sympy.expand(px * qy - py * qx), scalar


def singular_only_at_origin(f, g, var):
    """f and g, polynomials in var alone, have no common zero besides 0."""
    h = sympy.Poly(sympy.gcd(f, g), var)
    return len(h.monoms()) == 1


def test_criterion_02_pullback_degree():
    t0 = time.monotonic()
    got = {
        (alpha, r): foliation_degree(power_pullback(lins_neto(alpha), r))
        for alpha in (0, 2)
        for r in (1, 2, 3)
    }
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    # degree of the pullback by the power map, ramified along xyz = 0: each
    # invariant branch line divides the pulled-back 1-form by its (r-1)-th
    # power, each transverse one does not
    expected = {}
    lines = {}
    for alpha in (0, 2):
        P, Q = sym_lins_neto(alpha)
        assert sym_field(lins_neto(alpha)) == (P, Q)
        d = sym_degree(P, Q)
        k = lines[alpha] = invariant_coordinate_lines(P, Q)
        for r in (1, 2, 3):
            formula = r * (d + 2) - 2 - (r - 1) * k
            assert sym_degree(*sym_pullback(P, Q, r)) == formula, (alpha, r)
            expected[alpha, r] = formula
    # alpha = 2: P(0, y) = 2y^2, Q(x, 0) = 2x^2 and the top part
    # -2x^2y^2 (x, y) is radial, so no coordinate line is invariant
    assert lines == {0: 3, 2: 0}
    assert got == expected, (got, expected)
    claimed = {
        key: build_family("power_pullback", {"alpha": key[0], "r": key[1]})[1]
        .claimed["degree"]
        for key in got
    }
    contradicted = sorted(key for key in got if got[key] != claimed[key])
    print(f"criterion 2: pullback degrees r(d+2) - 2 - (r-1)k = {got} "
          f"({elapsed:.2f}s); the claimed 3r+1 holds at alpha = 0 only and "
          f"fails at (alpha, r) = {contradicted} (documented discrepancy, "
          f"accepted)")


@pytest.mark.slow
def test_criterion_03_dicritical_count():
    r = 2
    P, Q = sym_lins_neto(2)
    assert sym_field(lins_neto(2)) == (P, Q)
    d = sym_degree(P, Q)
    # the affine singular points of F besides the origin: the nine (w^i, w^j),
    # w^3 = 1, with scalar linear part, the rest saddles with eigenvalue ratio -3
    radial, saddles = [], []
    for pt in sympy.solve([P, Q], [X, Y], dict=True):
        a, b = pt[X], pt[Y]
        if a == 0 and b == 0:
            continue
        assert a != 0 and b != 0, "singular point on a coordinate axis"
        trace, det, scalar = sym_linear_part(P, Q, a, b)
        assert det != 0, (a, b)
        if scalar is not None:
            radial.append((a, b))
        else:
            # lambda1 = -3 lambda2 exactly when 3 trace^2 + 4 det = 0
            assert sympy.expand(3 * trace ** 2 + 4 * det) == 0, (a, b)
            saddles.append((a, b))
    assert all(sympy.expand(a ** 3 - 1) == 0 == sympy.expand(b ** 3 - 1)
               for a, b in radial)
    # the three vertices: F has a scalar nonzero linear part at each, and the
    # line at infinity carries no other singular point
    chart1, chart2 = sym_chart(P, Q, 1), sym_chart(P, Q, 2)
    for field in ((P, Q), chart1, chart2):
        assert sym_linear_part(*field, 0, 0)[2] not in (None, 0)
    assert singular_only_at_origin(chart1[0].subs(X, 0),
                                   chart1[1].subs(X, 0), Y)
    # nothing is missed: 21 non-degenerate points make up d^2 + d + 1
    assert len(radial) + len(saddles) + 3 == d * d + d + 1

    # the r = 2 pullback G: off the axes the power map is a local
    # isomorphism, so each radial point has r^2 radial preimages and each
    # saddle r^2 reduced ones; on xyz = 0 G is singular at the vertices
    # only, and at each vertex its lowest part u v (u, v) has zero tangent cone
    G = sym_pullback(P, Q, r)
    G1, G2 = sym_chart(*G, 1), sym_chart(*G, 2)
    for field in (G, G1, G2):
        assert radial_part(*field, sym_orders(*field)[0])
    assert singular_only_at_origin(G[0].subs(X, 0), G[1].subs(X, 0), Y)
    assert singular_only_at_origin(G[0].subs(Y, 0), G[1].subs(Y, 0), X)
    assert singular_only_at_origin(G1[0].subs(X, 0), G1[1].subs(X, 0), Y)
    expected = len(radial) * r * r + 3
    assert expected == 9 * r * r + 3

    t0 = time.monotonic()
    F = power_pullback(lins_neto(2), r)
    Gp = sym_field(F)
    assert sympy.expand(Gp[0] * G[1] - Gp[1] * G[0]) == 0
    count = dicritical_count(F, budget_seconds=600)
    elapsed = time.monotonic() - t0
    assert count == expected, (
        f"census found {count} dicritical singular points on the r = 2 "
        f"pullback, the derived value is 9r^2 + 3 = {expected} ({elapsed:.0f}s)"
    )
    claimed = build_family("power_pullback", {"alpha": 2, "r": r})[1]
    print(f"criterion 3: dicritical census = {count} = 9r^2 + 3 "
          f"({elapsed:.0f}s); the claimed 3(r+1)^2 = "
          f"{claimed.claimed['dicritical_count']} holds at r = 1 only "
          f"(documented discrepancy, accepted)")


def test_criterion_04_milnor_conservation():
    t0 = time.monotonic()
    suite = [
        linear_family(2, 3)[0],
        linear_family(-1, 1)[0],
        make_foliation(pp("2*y"), pp("1")),
        make_foliation(pp("x"), pp("4*y - 2*x^2")),
        make_foliation(pp("2*y"), pp("3*x^2 - 1")),
        make_foliation(pp("2*y"), pp("3*x^2")),
        make_foliation(pp("-4*y^3"), pp("4*x^3")),
        make_foliation(pp("y^3 - 1"), pp("x^3 - 1")),
        lins_neto(0),
        lins_neto(2),
        hypergeometric_riccati(-1, 1, 2),
        hypergeometric_riccati(-4, Fraction(1, 2), Fraction(1, 3)),
    ]
    degrees = []
    for F in suite:
        d = foliation_degree(F)
        pts = singular_points(F)
        assert total_milnor(pts) == bezout_total(F) == d * d + d + 1, F
        degrees.append(d)
    elapsed = time.monotonic() - t0
    assert len(suite) >= 10 and set(degrees) == {1, 2, 3, 4}
    assert elapsed < 60.0
    print(f"criterion 4: Milnor totals match on {len(suite)} foliations "
          f"of degrees {sorted(set(degrees))} ({elapsed:.1f}s)")


def test_criterion_05_linear_family_integrals():
    t0 = time.monotonic()
    pairs = coprime_pairs(5)
    for p, q in pairs:
        F, expected = linear_family(p, q)
        assert expected == (max(p, q) if p * q > 0 else abs(p) + abs(q)), (p, q)
        got = first_integral_degree(F, 10)
        assert got == expected, f"(p,q)=({p},{q}): degree {got} != {expected}"
        num, den = linear_first_integral(p, q)
        assert first_integral_check(F, num, den), (p, q)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion 5: dichotomy and monomial integrals verified on "
          f"{len(pairs)} coprime pairs ({elapsed:.1f}s)")


def test_criterion_06_riccati_invariant_curves():
    t0 = time.monotonic()
    findings = []
    for k in range(1, 6):
        for b, c in ((1, 2), (Fraction(1, 2), Fraction(1, 3))):
            F = hypergeometric_riccati(1 - k, b, c)
            C = riccati_invariant_curve(k, b, c)
            cert = is_invariant(F, C)
            assert cert is not None, f"no certificate for k={k}, b={b}, c={c}"
            assert cert.cofactor.total_degree() <= foliation_degree(F)
            findings.append((k, b, c, C.degree))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    # the claim says degree k+1; the computed projective degree is k
    mismatched = [(k, deg) for k, _, _, deg in findings if deg != k + 1]
    print(f"criterion 6: all 10 curves certified with exact cofactors "
          f"({elapsed:.1f}s); computed projective degrees are k "
          f"(claim k+1 fails in all {len(mismatched)} cases: documented "
          f"discrepancy, accepted)")


def test_criterion_07_gate_formula():
    t0 = time.monotonic()
    squares = PlurigeneraOracle(P=[n * n for n in range(1, 12)])
    cases = [
        (4, 2, squares, 2, 6),
        (4, 2, PlurigeneraOracle(P=[0, 0, 0, 8, 9]), 4, 12),
        (2, 7, PlurigeneraOracle(P=[1000]), 1, 1),
        (5, 3, squares, 4, 16),
        (3, 2, PlurigeneraOracle(height=2), 10, 20),
        (6, 4, PlurigeneraOracle(P=[0, 1, 2, 3, 50]), 5, 25),
    ]
    for d, g, oracle, n0, bound in cases:
        rep = first_integral_degree_bound(d, g, oracle)
        assert (rep.n0, rep.bound) == (n0, bound), (d, g, rep.n0, rep.bound)
        fired = [row["n"] for row in rep.trace if row["fired"]]
        assert fired == [n0], "gate fired before the minimal index"
        rep.verify()
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 7: n0 scan matches hand values on {len(cases)} "
          f"oracles with trace-verified minimality ({elapsed:.2f}s)")


def test_criterion_08_height_machinery():
    t0 = time.monotonic()
    for h in range(1, 5):
        for n in range(0, 8):
            assert height_lower_bound(h, n) == comb(n + 2, 2)
    count = 0
    for d in range(1, 7):
        for g in range(2, 6):
            for h in range(1, 5):
                rep = first_integral_bound_from_height(d, g, h)
                fired = [row["n"] for row in rep.trace if row["fired"]]
                assert fired == [rep.n_star]
                assert all(not row["fired"] for row in rep.trace[:-1])
                assert rep.n0 == h * rep.n_star
                count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 8: height bound terminates with minimal n* on "
          f"{count} grid cells ({elapsed:.1f}s)")


def test_criterion_09_degree_identity():
    t0 = time.monotonic()
    pairs = [
        (make_foliation(pp("x"), pp("-y")), pp("y")),
        (make_foliation(pp("1"), pp("2*x")), pp("y - x^2")),
        (make_foliation(pp("x"), pp("2*y")), pp("y")),
        (make_foliation(pp("2*x"), pp("3*y")), pp("y")),
        (make_foliation(pp("2*y"), pp("1")), pp("y^2 - x")),
        (make_foliation(pp("2*y"), pp("3*x^2 - 3")), pp("y^2 - x^3 + 3*x")),
    ]
    for F, f in pairs:
        C = PlaneCurve(f)
        assert is_invariant(F, C) is not None, f
        assert curve_singularities(C) == [], f"{f} is not smooth"
        g = (C.degree - 1) * (C.degree - 2) // 2
        d = foliation_degree(F)
        tree = safe_resolution(F)
        Z, records = total_z(tree, f)
        lhs = (d - 1) * C.degree
        rhs = 2 * g - 2 + Z
        assert lhs == rhs, (str(f), lhs, rhs, Z)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 9: (d-1) deg C = 2g - 2 + Z on {len(pairs)} pairs "
          f"({elapsed:.1f}s)")


def test_criterion_10_saddle_node_indices():
    t0 = time.monotonic()
    O = (Fraction(0), Fraction(0))
    for m in range(2, 6):
        field = (pp("x") ** m, pp("y"))
        strong = z_index(field, pp("x"), O)
        weak = z_index(field, pp("y"), O)
        assert strong == 1, (m, strong)
        assert weak == m, (m, weak)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 10: strong index 1, weak index m for m = 2..5 "
          f"({elapsed:.1f}s)")


def test_criterion_11_extactic_soundness():
    t0 = time.monotonic()
    checked = 0
    for p, q in coprime_pairs(4):
        F, expected = linear_family(p, q)
        for m in range(1, min(expected + 2, 9)):
            E = extactic(F, m)
            assert E.is_zero() == (expected <= m), (p, q, m)
            checked += 1
    # invariant curves of degree <= m divide E_m
    shear = make_foliation(pp("x"), pp("4*y - 2*x^2"))
    E2 = extactic(shear, 2)
    assert not E2.is_zero()
    for f in ("x", "y - x^2"):
        assert exact_div(E2, pp(f)) is not None, f
    diag = make_foliation(pp("x"), pp("3*y"))
    E2d = extactic(diag, 2)
    for f in ("x", "y", "x*y"):
        assert exact_div(E2d, pp(f)) is not None, f
    E3d = extactic(make_foliation(pp("3*x"), pp("2*y")), 2)
    for f in ("x", "y", "x*y"):
        assert exact_div(E3d, pp(f)) is not None, f
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"criterion 11: vanishing matches integral degrees on {checked} "
          f"(pair, m) cases; divisibility holds on the corpus "
          f"({elapsed:.1f}s)")


def test_criterion_12_reduction_correctness():
    t0 = time.monotonic()
    suite = [
        make_foliation(pp("x"), pp("2*y")),
        make_foliation(pp("2*y"), pp("3*x^2")),
        make_foliation(pp("x"), pp("y")),
        make_foliation(pp("x") * pp("x"), pp("y")),
        linear_family(2, 3)[0],
    ]
    blowups = 0
    for F in suite:
        tree = seidenberg_reduce(F)
        remaining = 0
        for node in tree.all_nodes():
            for tag, pt, kind in node.leaf_singularities:
                fld = node.chart1 if tag == 1 else node.chart2
                fresh = classify_point(
                    make_foliation(fld[0], fld[1]), pt[0], pt[1]
                )
                assert fresh == kind
                assert fresh not in (NON_REDUCED, UNDETERMINED), (F, pt)
                remaining += 1
        for sub, kind in tree.base_reduced:
            assert kind not in (NON_REDUCED, UNDETERMINED)
            remaining += len(sub.exact_coords())
        safe = safe_resolution(F)
        extras = [n for n in safe.all_nodes() if n.extra]
        assert len(extras) == remaining, (F, len(extras), remaining)
        assert safe.base_reduced == []
        blowups += tree.blowup_count()
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"criterion 12: all leaves reduced, safe stage adds one blow-up "
          f"per remaining point, across {len(suite)} foliations with "
          f"{blowups} minimal blow-ups ({elapsed:.1f}s)")
