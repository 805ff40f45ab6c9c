"""Plane algebraic curves against a foliation.

Invariance with an exact cofactor certificate, extactic determinants as the
rational-first-integral detector, and genus bookkeeping through projective
singularity counting. Everything is exact; probabilistic evaluation is used
only to certify that a determinant is NOT zero, never that it is.
"""

from __future__ import annotations

from fractions import Fraction

from .algebraic import _eval_on_cluster, _resolve_clusters, _vanishes, mod_reduce
from .foliation import (
    Foliation,
    _aligned,
    _derivation,
    _fresh_name,
    _squarefree_on_line,
    _weighted_reindex,
    _zero_at_origin,
)
from .mpoly import MPoly, bareiss_det, exact_div, squarefree_part
from .singularities import affine_singular_points


class PlaneCurve:
    """A squarefree affine curve f = 0.

    degree is the degree of the homogenization (the total degree of f).
    genus and smooth are optional caller-supplied metadata: a nonnegative int
    and a bool. When smooth is claimed the genus must be the plane formula
    (n-1)(n-2)/2.
    """

    __slots__ = ("f", "degree", "genus", "smooth")

    def __init__(self, f, genus=None, smooth=None):
        if f.total_degree() <= 0:
            raise ValueError("curve polynomial must be nonconstant")
        if len(f.vars) == 1:
            extra = "y" if f.vars[0] != "y" else "x"
            f = f.with_vars((f.vars[0], extra))
        if len(f.vars) != 2:
            raise ValueError(f"a plane curve needs two variables, got {f.vars}")
        if genus is not None and (type(genus) is not int or genus < 0):
            raise ValueError(f"genus must be a nonnegative integer, got {genus!r}")
        if smooth is not None and type(smooth) is not bool:
            raise ValueError(f"smooth must be true or false, got {smooth!r}")
        if squarefree_part(f).total_degree() != f.total_degree():
            raise ValueError("curve polynomial must be squarefree")
        self.f = f
        self.degree = f.total_degree()
        if smooth:
            expected = (self.degree - 1) * (self.degree - 2) // 2
            if genus is None:
                genus = expected
            elif genus != expected:
                raise ValueError("smooth plane curve of degree n has genus (n-1)(n-2)/2")
        self.genus = genus
        self.smooth = smooth

    def to_json(self):
        out = {"f": self.f.to_json(), "degree": self.degree}
        if self.genus is not None:
            out["genus"] = self.genus
        if self.smooth is not None:
            out["smooth"] = self.smooth
        return out

    def __repr__(self):
        return f"PlaneCurve({self.f}, degree={self.degree})"


def _as_curve(C):
    return C if isinstance(C, PlaneCurve) else PlaneCurve(C)


class CofactorCertificate:
    """A polynomial h with X(f) = h * f, checked exactly on construction."""

    __slots__ = ("foliation", "curve", "cofactor")

    def __init__(self, foliation, curve, cofactor):
        F = foliation
        f = _aligned(curve.f, F.vars)
        residue = _derivation(F, f) - cofactor * f
        if not residue.is_zero():
            raise ValueError("cofactor identity does not hold")
        if cofactor.total_degree() > F.degree():
            raise ValueError("cofactor degree exceeds the foliation degree")
        self.foliation = F
        self.curve = curve
        self.cofactor = cofactor

    def __repr__(self):
        return f"CofactorCertificate(cofactor={self.cofactor})"


def is_invariant(F, C):
    """The exact cofactor certificate when C is invariant for F, else None."""
    C = _as_curve(C)
    f = _aligned(C.f, F.vars)
    h = exact_div(_derivation(F, f), f)
    if h is None:
        return None
    return CofactorCertificate(F, C, h)


# -- extactic determinants ---------------------------------------------------------


def _monomial_exponents(m):
    out = []
    for total in range(m + 1):
        for i in range(total, -1, -1):
            out.append((i, total - i))
    return out


def _diagonal_coefficients(F):
    """(a, b) when the field is exactly a*x d/dx + b*y d/dy, else None."""
    ex = (1, 0)
    ey = (0, 1)
    if set(F.P.terms) <= {ex} and set(F.Q.terms) <= {ey}:
        a = F.P.terms.get(ex, Fraction(0))
        b = F.Q.terms.get(ey, Fraction(0))
        if isinstance(a, Fraction) and isinstance(b, Fraction):
            return a, b
    return None


def _eigen_extactic(F, m, a, b):
    # monomials are eigenvectors; the determinant is their product times a
    # Vandermonde in the eigenweights i*a + j*b
    exps = _monomial_exponents(m)
    weights = [i * a + j * b for i, j in exps]
    scalar = Fraction(1)
    for l in range(len(weights)):
        for k in range(l):
            scalar *= weights[l] - weights[k]
            if scalar == 0:
                return MPoly.zero(F.vars)
    total = tuple(sum(e[c] for e in exps) for c in range(2))
    return MPoly.monomial(F.vars, total, scalar)


def _extactic_matrix(F, m):
    exps = _monomial_exponents(m)
    n = len(exps)
    row = [MPoly.monomial(F.vars, e) for e in exps]
    rows = [row]
    for _ in range(n - 1):
        row = [_derivation(F, g) for g in row]
        rows.append(row)
    return rows


def extactic(F, m):
    """The m-th extactic polynomial of F.

    Every invariant algebraic curve of degree at most m divides it, and it
    vanishes identically exactly when F has a rational first integral of
    degree at most m.
    """
    if m < 1:
        raise ValueError("extactic order must be at least 1")
    diag = _diagonal_coefficients(F)
    if diag is not None:
        return _eigen_extactic(F, m, *diag)
    return bareiss_det(_extactic_matrix(F, m))


_PROBE_POINTS = (
    (Fraction(2), Fraction(3)),
    (Fraction(-5), Fraction(7)),
    (Fraction(1, 2), Fraction(-3, 2)),
)


def _extactic_vanishes(F, m):
    diag = _diagonal_coefficients(F)
    if diag is not None:
        return _eigen_extactic(F, m, *diag).is_zero()
    M = _extactic_matrix(F, m)
    x, y = F.vars
    for px, py in _PROBE_POINTS:
        at = {x: px, y: py}
        rows = [[e.eval_all(at) for e in row] for row in M]
        if bareiss_det(rows) != 0:
            return False
    return bareiss_det(M).is_zero()


def first_integral_degree(F, max_m):
    """Smallest m <= max_m whose extactic vanishes identically, else None."""
    if max_m < 1:
        raise ValueError("max_m must be at least 1")
    for m in range(1, max_m + 1):
        if _extactic_vanishes(F, m):
            return m
    return None


def first_integral_check(F, numerator, denominator):
    """Does X annihilate numerator/denominator? Exact cross-derivative test."""
    num = _aligned(numerator, F.vars)
    den = _aligned(denominator, F.vars)
    if den.is_zero():
        raise ValueError("denominator is zero")
    return (_derivation(F, num) * den - num * _derivation(F, den)).is_zero()


# -- curve singularities and genus -------------------------------------------------


class CurveSingularity:
    """A conjugate cluster of singular points of the curve itself.

    chart "affine" carries coordinate rules (xt, yt) modulo the modulus;
    chart "inf1" covers [1 : b : 0] with b = xt; chart "inf2" is the single
    point [0 : 1 : 0]. node reports the Hessian criterion: an ordinary
    double point has nondegenerate quadratic tangent cone.
    """

    __slots__ = ("chart", "modulus", "xt", "yt", "node")

    def __init__(self, chart, modulus, xt, yt, node):
        self.chart = chart
        self.modulus = modulus
        self.xt = xt
        self.yt = yt
        self.node = node

    @property
    def count(self):
        return self.modulus.deg_in(self.modulus.vars[0])

    def describe(self):
        if self.chart == "affine":
            return f"affine cluster with modulus {self.modulus}, x = {self.xt}, y = {self.yt}"
        if self.chart == "inf1":
            return f"[1 : b : 0] with b = {self.xt} mod {self.modulus}"
        return "[0 : 1 : 0]"

    def __repr__(self):
        tag = "node" if self.node else "non-node"
        return f"CurveSingularity({self.describe()}, {tag})"


def _singular_conditions(F):
    """(F, F_u, F_v), whose common zeros are the singular points of the curve
    F(u, v) = 0, and the Hessian discriminant F_uv^2 - F_uu*F_vv: a singular
    point is an ordinary node exactly where the discriminant is nonzero."""
    u, v = F.vars
    Fu, Fv = F.diff(u), F.diff(v)
    return (F, Fu, Fv), Fu.diff(v) ** 2 - Fu.diff(u) * Fv.diff(v)


def _affine_singularities(C):
    (f, fx, fy), disc = _singular_conditions(C.f)
    x, y = f.vars
    combos = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, 3), (3, 1), (2, -1), (1, 5)]
    for a, b in combos:
        w = fx * Fraction(a) + fy * Fraction(b)
        if w.is_zero():
            continue
        # the constructor divides out gcd(f, w), so f stays whole when coprime to w
        field = Foliation(f, w)
        if field.P.total_degree() == f.total_degree():
            break
    else:
        raise ArithmeticError("no linear combination of the partials is coprime to the curve")

    # common zeros of (f, w) contain every affine singular point; the
    # cluster machinery of the singularity module solves that system exactly
    pts = affine_singular_points(field)

    def vanishing(p):
        # uniform on the cluster, or SplitNeeded
        return lambda g, xt, yt: _vanishes(_eval_on_cluster(p, g, xt, yt, x, y), g)

    # one splitting pass per test, so a piece split off by one test is never
    # tested again by an earlier one; the pieces where fx or fy does not
    # vanish are common zeros of (f, aux) at smooth points
    pieces = [(sp.modulus, sp.xt, sp.yt) for sp in pts]
    for p in (fx, fy):
        pieces = [(g, xt, yt) for piece in pieces
                  for g, xt, yt, zero in _resolve_clusters(*piece, vanishing(p)) if zero]
    return [CurveSingularity("affine", g, xt, yt, not degenerate) for piece in pieces
            for g, xt, yt, degenerate in _resolve_clusters(*piece, vanishing(disc))]


def _infinity_singularities(C):
    """Projective singular points on the line at infinity.

    The curve is read through the chart maps of `Foliation.infinity_chart`,
    with the slope named tau: the points [1 : b : 0] are the line w = 0 of
    chart 1, and [0 : 1 : 0] is the origin of chart 2.
    """
    f = C.f
    tau = _fresh_name("t", f.vars)
    w = _fresh_name("w", f.vars + (tau,))
    tvars = (tau,)
    out = []

    conds, disc = _singular_conditions(_weighted_reindex(f, C.degree, (tau, w), slope_var=0))
    # the first condition is f_n(1, tau) != 0, so the gcd is never zero
    g = _squarefree_on_line(conds, w, tau)
    if g is not None:
        disc = disc.coeff_in(w, 0).with_vars(tvars)
        b = mod_reduce(MPoly.variable(tau, tvars), g, tau).with_vars(tvars)
        out += [CurveSingularity("inf1", *piece)
                for piece in _resolve_clusters(g, b, MPoly.zero(tvars),
                                               lambda gi, bi, wi: not _vanishes(disc, gi))]

    conds, disc = _singular_conditions(_weighted_reindex(f, C.degree, (tau, w), slope_var=1))
    if _zero_at_origin(conds):
        zero = MPoly.zero(tvars)
        out.append(CurveSingularity("inf2", MPoly.variable(tau, tvars), zero, zero,
                                    not _zero_at_origin((disc,))))
    return out


def curve_singularities(C):
    """All singular points of the projective closure, as tagged clusters."""
    C = _as_curve(C)
    return _affine_singularities(C) + _infinity_singularities(C)


def genus(C, deltas=None):
    """Geometric genus by the degree-genus formula, (n-1)(n-2)/2 less the
    delta invariants of the singular points.

    `deltas` lists the delta invariant of every singular point, nodes
    included, and is taken as given: it is not checked against
    `curve_singularities`. Without it every detected singularity must be an
    ordinary node (delta = 1 per point, so per cluster its point count).
    """
    C = _as_curve(C)
    n = C.degree
    smooth_genus = (n - 1) * (n - 2) // 2
    if deltas is not None:
        return smooth_genus - sum(deltas)
    total = 0
    for s in curve_singularities(C):
        if not s.node:
            raise ValueError(
                f"singularity at {s.describe()} is not a node; supply delta invariants"
            )
        total += s.count
    return smooth_genus - total
