"""Polynomial vector fields on the affine plane and their projective data.

A foliation is stored through one affine vector field P d/dx + Q d/dy with
coprime polynomial components. The projective degree and the two standard
charts along the line at infinity are derived here; everything downstream
(singularity decomposition, blow-ups, indices) consumes these.
"""

from __future__ import annotations

from fractions import Fraction

from .mpoly import MPoly, exact_div, poly_gcd


class Foliation:
    """P d/dx + Q d/dy with gcd(P, Q) = 1; variable names are carried along."""

    __slots__ = ("P", "Q", "vars")

    def __init__(self, P, Q):
        P, Q = P._pair(Q)
        if len(P.vars) > 2:
            raise ValueError(f"a plane field needs two variables, got {P.vars}")
        if len(P.vars) == 1:
            # lift to two variables so chart math is uniform
            extra = "y" if P.vars[0] != "y" else "x"
            P = P.with_vars((P.vars[0], extra))
            Q = Q.with_vars(P.vars)
        if P.is_zero() and Q.is_zero():
            raise ValueError("zero vector field")
        g = poly_gcd(P, Q)
        if g.total_degree() > 0:
            raise ValueError(f"components share the factor {g}; use make_foliation")
        self.P = P
        self.Q = Q
        self.vars = P.vars

    @property
    def x(self):
        return self.vars[0]

    @property
    def y(self):
        return self.vars[1]

    def top_degree(self):
        return max(self.P.total_degree(), self.Q.total_degree())

    def infinity_tangent(self):
        """x*Q_m - y*P_m for m the top degree; identically zero exactly when
        the line at infinity is not invariant."""
        m = self.top_degree()
        xp = MPoly.variable(self.x, self.vars)
        yp = MPoly.variable(self.y, self.vars)
        return xp * self.Q.homogeneous_part(m) - yp * self.P.homogeneous_part(m)

    def degree(self):
        m = self.top_degree()
        if self.infinity_tangent().is_zero():
            return m - 1
        return m

    def jacobian(self):
        return (
            self.P.diff(self.x),
            self.P.diff(self.y),
            self.Q.diff(self.x),
            self.Q.diff(self.y),
        )

    def infinity_chart(self, which):
        """The induced field in a chart at infinity.

        Chart 1 has coordinates (b, w) covering the points [1 : b : 0]; chart 2
        has coordinates (a, w) covering [a : 1 : 0]. In both, w = 0 is the line
        at infinity. A common factor of w (the non-invariant-line case) is
        removed by the gcd normalization in make_foliation.
        """
        m = self.top_degree()
        if which == 1:
            bvar = _fresh_name("b", self.vars)
            wvar = _fresh_name("w", self.vars + (bvar,))
            vars2 = (bvar, wvar)
            Ph = _weighted_reindex(self.P, m, vars2, slope_var=0)
            Qh = _weighted_reindex(self.Q, m, vars2, slope_var=0)
            b = MPoly.variable(bvar, vars2)
            w = MPoly.variable(wvar, vars2)
            return make_foliation(Qh - b * Ph, -w * Ph)
        if which == 2:
            avar = _fresh_name("a", self.vars)
            wvar = _fresh_name("w", self.vars + (avar,))
            vars2 = (avar, wvar)
            Ph = _weighted_reindex(self.P, m, vars2, slope_var=1)
            Qh = _weighted_reindex(self.Q, m, vars2, slope_var=1)
            a = MPoly.variable(avar, vars2)
            w = MPoly.variable(wvar, vars2)
            return make_foliation(Ph - a * Qh, -w * Qh)
        raise ValueError("chart must be 1 or 2")

    def to_json(self):
        return {
            "vars": list(self.vars),
            "P": self.P.to_json(),
            "Q": self.Q.to_json(),
        }

    @classmethod
    def from_json(cls, data):
        return cls(MPoly.from_json(data["P"]), MPoly.from_json(data["Q"]))

    def __repr__(self):
        return f"Foliation(P={self.P}, Q={self.Q}; vars={self.vars})"

    def __eq__(self, other):
        if not isinstance(other, Foliation):
            return NotImplemented
        return self.vars == other.vars and self.P == other.P and self.Q == other.Q


def _fresh_name(base, taken):
    name = base
    while name in taken:
        name += "_"
    return name


def _weighted_reindex(f, m, vars2, slope_var):
    """w^m * f(...) after substituting the chart map, written directly through
    exponents: chart 1 sends x^i y^j to b^j w^(m-i-j), chart 2 to a^i w^(m-i-j)."""
    out = {}
    for e, c in f.terms.items():
        i, j = e
        k = m - i - j
        if k < 0:
            raise ArithmeticError("term above the declared top degree")
        exp = (j, k) if slope_var == 0 else (i, k)
        prev = out.get(exp)
        out[exp] = c if prev is None else prev + c
    return MPoly(vars2, out)


def make_foliation(P, Q, vars=None):
    """Build a Foliation, removing any common polynomial factor first."""
    if vars is not None:
        P = P.with_vars(vars) if isinstance(P, MPoly) else MPoly.const(vars, P)
        Q = Q.with_vars(vars) if isinstance(Q, MPoly) else MPoly.const(vars, Q)
    if isinstance(P, (int, Fraction)):
        P = MPoly.const(Q.vars, P)
    if isinstance(Q, (int, Fraction)):
        Q = MPoly.const(P.vars, Q)
    P, Q = P._pair(Q)
    if P.is_zero() and Q.is_zero():
        raise ValueError("zero vector field")
    g = poly_gcd(P, Q)
    if g.total_degree() > 0:
        P = exact_div(P, g)
        Q = exact_div(Q, g)
    return Foliation(P, Q)


def foliation_degree(F):
    return F.degree()
