"""Generator zoo with checkable expected values.

Four constructions: diagonal linear fields carrying monomial first
integrals, a quartic family whose first-integral degrees are unbounded
in the parameter, Riccati fields attached to the hypergeometric equation
together with their polynomial invariant curves, and pullbacks of a
foliation under the coordinate power map.  A census routine counts the
singular points whose reduction meets a dicritical blow-up.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import gcd

from .algebraic import _lowest_layer, _resolve_clusters, _translated, mod_reduce
from .blowup import BlowupUnavailableError, reduce_local_field
from .curves import PlaneCurve
from .foliation import Foliation
from .mpoly import MPoly
from .singularities import (
    NON_REDUCED,
    UNDETERMINED,
    ExactnessError,
    SingularPoint,
    classify_singularity,
    singular_points,
)


class CensusUndetermined(Exception):
    """A singular point resisted exact classification; the census would lie."""


class BudgetExceeded(Exception):
    """The census passed its wall-clock allowance."""


# -- diagonal linear fields ------------------------------------------------------


def linear_family(p, q):
    """The field q*x d/dx + p*y d/dy, which has the first integral y^q / x^p.

    Returns the foliation and the degree of that integral as a reduced
    rational map: max(p, q) when p/q > 0, |p| + |q| otherwise.  Requires
    coprime integers with p*q != 0.
    """
    if q == 0:
        raise ValueError("q must be nonzero")
    if p == 0:
        raise ValueError("the ratio p/q must be nonzero")
    if gcd(abs(p), abs(q)) != 1:
        raise ValueError("p and q must be coprime")
    if q < 0:
        p, q = -p, -q
    vars2 = ("x", "y")
    x = MPoly.variable("x", vars2)
    y = MPoly.variable("y", vars2)
    F = Foliation(q * x, p * y)
    expected = max(p, q) if p > 0 else abs(p) + abs(q)
    return F, expected


def linear_first_integral(p, q):
    """(numerator, denominator) of the monomial first integral of
    linear_family(p, q)."""
    if q < 0:
        p, q = -p, -q
    vars2 = ("x", "y")
    x = MPoly.variable("x", vars2)
    y = MPoly.variable("y", vars2)
    if p > 0:
        return y ** q, x ** p
    return x ** (-p) * y ** q, MPoly.const(vars2, 1)


# -- the quartic family with unbounded integral degrees ---------------------------


def lins_neto(alpha):
    """(x^3 - 1)(x - a*y^2) d/dx + (y^3 - 1)(y - a*x^2) d/dy, degree 4 for
    every parameter value."""
    a = Fraction(alpha)
    vars2 = ("x", "y")
    x = MPoly.variable("x", vars2)
    y = MPoly.variable("y", vars2)
    one = MPoly.const(vars2, 1)
    P = (x ** 3 - one) * (x - a * y * y)
    Q = (y ** 3 - one) * (y - a * x * x)
    return Foliation(P, Q)


# -- hypergeometric series and Riccati fields --------------------------------------


def _pochhammer(p, n):
    out = Fraction(1)
    for i in range(n):
        out *= p + i
    return out


class HypergeometricPoly:
    """The terminating series F(1-k, b, c; z): coefficient of z^n is
    (1-k)_n (b)_n / ((c)_n n!), zero from n = k on."""

    __slots__ = ("k", "b", "c", "poly")

    def __init__(self, k, b, c, poly):
        self.k = k
        self.b = b
        self.c = c
        self.poly = poly

    @property
    def coefficients(self):
        return self.poly.scalar_coeffs()

    def __repr__(self):
        return f"HypergeometricPoly(k={self.k}, b={self.b}, c={self.c}; {self.poly})"


def hypergeometric_poly(k, b, c):
    if k < 1:
        raise ValueError("k must be a positive integer")
    b = Fraction(b)
    c = Fraction(c)
    a = Fraction(1 - k)
    coeffs = []
    fact = 1
    for n in range(k):
        if n > 0:
            fact *= n
        den = _pochhammer(c, n)
        if den == 0:
            raise ValueError(f"(c)_{n} vanishes for c = {c}")
        coeffs.append(_pochhammer(a, n) * _pochhammer(b, n) / (den * fact))
    poly = MPoly.from_univar("z", coeffs, ("z",))
    return HypergeometricPoly(k, b, c, poly)


def hypergeometric_riccati(a, b, c):
    """The degree-4 Riccati field over the three-punctured line:
    P = z(1-z), Q = -z(1-z)y^2 - (c - (a+b+1)z)y + ab in variables (z, y).

    The sign convention is the one that makes graphs y = w'(z)/w(z) of
    solutions w of the hypergeometric equation invariant; it is the
    convention certified by riccati_invariant_curve.  The lines z = 0 and
    z = 1 are always invariant, and y = 0 is invariant exactly when ab = 0.
    """
    a = Fraction(a)
    b = Fraction(b)
    c = Fraction(c)
    if c.denominator == 1 and c <= 0:
        raise ValueError("c must avoid the nonpositive integers")
    vars2 = ("z", "y")
    z = MPoly.variable("z", vars2)
    y = MPoly.variable("y", vars2)
    one = MPoly.const(vars2, 1)
    zz = z * (one - z)
    P = zz
    Q = -zz * y * y - (c * one - (a + b + 1) * z) * y + a * b * one
    return Foliation(P, Q)


def riccati_invariant_curve(k, b, c):
    """The curve y*F(x) - F'(x) for F = hypergeometric_poly(k, b, c), in
    variables (x, y) with x playing the role of z.  It is invariant for
    hypergeometric_riccati(1-k, b, c); k = 1 gives the line y."""
    H = hypergeometric_poly(k, b, c)
    vars2 = ("x", "y")
    Fx = MPoly.from_univar("x", H.coefficients, vars2)
    y = MPoly.variable("y", vars2)
    return PlaneCurve(y * Fx - Fx.diff("x"))


# -- pullback under the coordinate power map ---------------------------------------


def power_pullback(F, r):
    """Pullback of F under (x, y) -> (x^r, y^r), common factors removed.

    The affine field is (y^(r-1) P(x^r, y^r), x^(r-1) Q(x^r, y^r)), read
    off from the pullback of the dual 1-form P dy - Q dx.  The map ramifies
    along xyz = 0; each of these lines that F leaves invariant divides the
    pulled-back form by its (r-1)-th power, so for F of degree d with k
    invariant lines among x = 0, y = 0, z = 0 the pullback has degree
    r(d + 2) - 2 - (r - 1)k.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    if r == 1:
        return F
    x, y = F.vars
    xv = MPoly.variable(x, F.vars)
    yv = MPoly.variable(y, F.vars)
    Pr = F.P.subs({x: xv ** r, y: yv ** r})
    Qr = F.Q.subs({x: xv ** r, y: yv ** r})
    return Foliation(yv ** (r - 1) * Pr, xv ** (r - 1) * Qr)


# -- dicritical census --------------------------------------------------------------


def _heartbeat(deadline):
    if deadline is not None and time.monotonic() > deadline:
        raise BudgetExceeded("dicritical census ran past its time budget")


def _census(field, chart, f, xt, yt, deadline):
    """Dicritical points within one non-reduced cluster, or SplitNeeded.

    The first blow-up at a point is dicritical exactly when the tangent
    cone x*Q_nu - y*P_nu vanishes there. Where it does not, the census
    walks the full local reduction, which needs exact coordinates; those
    exist for clusters of degree at most 2 only.
    """
    _heartbeat(deadline)
    tau = f.vars[0]
    x, y = field.vars
    PT, QT = _translated(field, f, xt, yt)
    vars3 = PT.vars

    # lowest (x, y)-order of the translated field on this cluster
    nu = _lowest_layer((PT, QT), f)
    if nu is None:
        raise ArithmeticError("field vanished identically along a cluster")
    if nu == 0:
        raise ArithmeticError("census reached a regular point")

    Pnu, Qnu = (MPoly(vars3, {e: c for e, c in p.terms.items() if e[0] + e[1] == nu})
                for p in (PT, QT))
    T = mod_reduce(
        MPoly.variable(x, vars3) * Qnu - MPoly.variable(y, vars3) * Pnu, f, tau
    )
    # T is (x, y)-homogeneous, so its one layer is the whole cone
    if _lowest_layer([T], f) is None:
        # tangent cone vanishes on the whole cluster: dicritical first blow-up
        return f.deg_in(tau)
    # the cone is nonzero at every point of the cluster; walk each reduction
    sub = SingularPoint(chart, field, f, xt, yt)
    try:
        points = sub.exact_coords()
    except ExactnessError as e:
        raise BlowupUnavailableError(
            f"census needs exact coordinates to walk {sub}: {e}"
        ) from e
    total = 0
    for pt in points:
        _heartbeat(deadline)
        tree = reduce_local_field(field, pt)
        if any(node.dicritical for node in tree.walk()):
            total += 1
    return total


def dicritical_count(F, budget_seconds=None):
    """Number of singular points of F whose reduction contains at least one
    dicritical blow-up.

    Reduced singular points never count: their single permitted blow-up is
    never dicritical.  Raises CensusUndetermined when a point resists
    classification, BlowupUnavailableError when a deep walk would need
    coordinates beyond quadratic irrationals, and BudgetExceeded when
    budget_seconds runs out; a budget that is NaN or not positive is a
    ValueError.
    """
    deadline = None
    if budget_seconds is not None:
        if not budget_seconds > 0:
            raise ValueError(f"budget must be a positive number of seconds, got {budget_seconds}")
        deadline = time.monotonic() + budget_seconds
    total = 0
    for sp in singular_points(F, with_milnor=False):
        for sub, kind in classify_singularity(sp):
            _heartbeat(deadline)
            if kind == UNDETERMINED:
                raise CensusUndetermined(f"cannot classify {sub}")
            if kind != NON_REDUCED:
                continue
            pieces = _resolve_clusters(
                sub.modulus, sub.xt, sub.yt,
                lambda f, xt, yt: _census(sub.field, sub.chart, f, xt, yt, deadline))
            total += sum(count for *_, count in pieces)
    return total


# -- descriptors --------------------------------------------------------------------

FAMILY_TAGS = ("linear", "lins_neto", "riccati_hypergeometric", "power_pullback")


class FamilyDescriptor:
    """A family tag, its parameters, and the expected invariants the family
    is claimed to have.  Claims are cross-checked by the test suite, never
    assumed by the generators."""

    __slots__ = ("family", "parameters", "claimed")

    def __init__(self, family, parameters, claimed):
        if family not in FAMILY_TAGS:
            raise ValueError(f"unknown family {family!r}")
        self.family = family
        self.parameters = dict(parameters)
        self.claimed = dict(claimed)

    def to_json(self):
        return {
            "family": self.family,
            "parameters": {k: str(v) for k, v in self.parameters.items()},
            "claimed": {k: str(v) for k, v in self.claimed.items()},
        }

    def __repr__(self):
        return f"FamilyDescriptor({self.family}, {self.parameters})"


def _param(params, key):
    """A family parameter as given: an int or a string such as "3/2", never
    a float (whose binary value is not the decimal written) or a bool."""
    value = params[key]
    if type(value) not in (int, str):
        raise ValueError(f"parameter {key!r} must be an int or a string, not {value!r}")
    return value


def build_family(tag, params):
    """Instantiate a family by tag with a plain dict of parameters, each an
    int or a string.

    Returns (foliation, descriptor).  The descriptor's claimed block holds
    the expected invariants; callers verify them, the constructor does not.
    """
    if tag == "linear":
        p = int(_param(params, "p"))
        q = int(_param(params, "q"))
        F, expected = linear_family(p, q)
        claimed = {
            "degree": 0 if (p, q) in ((1, 1), (-1, -1)) else 1,
            "first_integral_degree": expected,
        }
        return F, FamilyDescriptor(tag, {"p": p, "q": q}, claimed)
    if tag == "lins_neto":
        alpha = Fraction(_param(params, "alpha"))
        return lins_neto(alpha), FamilyDescriptor(
            tag, {"alpha": alpha}, {"degree": 4}
        )
    if tag == "riccati_hypergeometric":
        a = Fraction(_param(params, "a"))
        b = Fraction(_param(params, "b"))
        c = Fraction(_param(params, "c"))
        return hypergeometric_riccati(a, b, c), FamilyDescriptor(
            tag, {"a": a, "b": b, "c": c}, {"degree": 4}
        )
    if tag == "power_pullback":
        alpha = Fraction(_param(params, "alpha"))
        r = int(_param(params, "r"))
        F = power_pullback(lins_neto(alpha), r)
        # the published values, recorded as published: the degree 3r + 1
        # holds at alpha = 0 only (all three coordinate lines invariant), the
        # count 3(r + 1)^2 at r = 1 only (at alpha = 2 it is 9r^2 + 3)
        claimed = {
            "degree": 3 * r + 1,
            "dicritical_count": 3 * r * r + 6 * r + 3,
        }
        return F, FamilyDescriptor(tag, {"alpha": alpha, "r": r}, claimed)
    raise ValueError(f"unknown family {tag!r}")
