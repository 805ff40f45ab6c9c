"""Polynomial vector fields on the affine plane and their projective data.

A foliation is stored through one affine vector field P d/dx + Q d/dy with
coprime polynomial components. The projective degree and the two standard
charts along the line at infinity are derived here; everything downstream
(singularity decomposition, blow-ups, indices) consumes these.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .mpoly import MPoly, exact_div, poly_gcd, squarefree_part


class Foliation:
    """P d/dx + Q d/dy with gcd(P, Q) = 1; variable names are carried along."""

    __slots__ = ("P", "Q", "vars")

    def __init__(self, P, Q, vars=None):
        """Build the field, dividing out any common polynomial factor of P, Q."""
        if vars is not None:
            P = P.with_vars(vars) if isinstance(P, MPoly) else MPoly.const(vars, P)
            Q = Q.with_vars(vars) if isinstance(Q, MPoly) else MPoly.const(vars, Q)
        if isinstance(P, (int, Fraction)):
            P = MPoly.const(Q.vars, P)
        P, Q = P._pair(Q)
        if P.is_zero() and Q.is_zero():
            raise ValueError("zero vector field")
        if not 1 <= len(P.vars) <= 2:
            raise ValueError(f"a plane field needs two variables, got {P.vars}")
        if len(P.vars) == 1:
            # lift to two variables so chart math is uniform
            extra = "y" if P.vars[0] != "y" else "x"
            P = P.with_vars((P.vars[0], extra))
            Q = Q.with_vars(P.vars)
        g = poly_gcd(P, Q)
        if g.total_degree() > 0:
            P = exact_div(P, g)
            Q = exact_div(Q, g)
        self.P = P
        self.Q = Q
        self.vars = P.vars

    def __iter__(self):
        return iter((self.P, self.Q))

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

    def infinity_chart(self, which):
        """The induced field in a chart at infinity.

        Chart 1 has coordinates (b, w) covering the points [1 : b : 0]; chart 2
        has coordinates (a, w) covering [a : 1 : 0]. In both, w = 0 is the line
        at infinity. A common factor of w (the non-invariant-line case) is
        removed by the gcd normalization of the constructor.
        """
        if which not in (1, 2):
            raise ValueError("chart must be 1 or 2")
        m = self.top_degree()
        svar = _fresh_name("b" if which == 1 else "a", self.vars)
        wvar = _fresh_name("w", self.vars + (svar,))
        vars2 = (svar, wvar)
        Ph = _weighted_reindex(self.P, m, vars2, slope_var=which - 1)
        Qh = _weighted_reindex(self.Q, m, vars2, slope_var=which - 1)
        lead, other = (Qh, Ph) if which == 1 else (Ph, Qh)
        s = MPoly.variable(svar, vars2)
        w = MPoly.variable(wvar, vars2)
        return Foliation(lead - s * other, -w * other)

    def to_json(self):
        return {
            "vars": list(self.vars),
            "P": self.P.to_json(),
            "Q": self.Q.to_json(),
        }

    def __repr__(self):
        return f"Foliation(P={self.P}, Q={self.Q}; vars={self.vars})"

    def __eq__(self, other):
        if not isinstance(other, Foliation):
            return NotImplemented
        return self.vars == other.vars and self.P == other.P and self.Q == other.Q


def _aligned(f, vars):
    """f over `vars`: by name when its variables are among them, else by position."""
    if set(f.vars) <= set(vars):
        return f.with_vars(vars)
    if len(f.vars) != len(vars):
        raise ValueError(f"cannot align {f.vars} with {vars}")
    return f.rename(dict(zip(f.vars, vars)))


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
        out[(j, k) if slope_var == 0 else (i, k)] = c
    return MPoly(vars2, out)


def _squarefree_on_line(polys, var, line):
    """The squarefree part of the gcd of `polys` restricted to the line
    var = 0, as a polynomial in the line coordinate `line`; None when that
    gcd is a constant or zero."""
    g = reduce(poly_gcd, [p.coeff_in(var, 0).with_vars((line,)) for p in polys])
    return squarefree_part(g) if g.deg_in(line) > 0 else None


def _zero_at_origin(polys):
    """Do all of `polys` vanish at the origin of their variables?"""
    return all(p.eval_all(dict.fromkeys(p.vars, Fraction(0))) == 0 for p in polys)


def _derivation(field, g):
    """X(g) = P*g_x + Q*g_y for X = P d/dx + Q d/dy, a Foliation or a (P, Q)
    pair; g is over the same variables."""
    P, Q = field
    x, y = P.vars
    return P * g.diff(x) + Q * g.diff(y)


# another name for the constructor, the one the README and callers import
make_foliation = Foliation


def foliation_degree(F):
    return F.degree()
