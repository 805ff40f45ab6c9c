"""Plane algebraic curves against a foliation.

Invariance with an exact cofactor certificate, extactic determinants as the
rational-first-integral detector, and genus bookkeeping through projective
singularity counting. Everything is exact; probabilistic evaluation is used
only to certify that a determinant is NOT zero, never that it is.
"""

from __future__ import annotations

from fractions import Fraction

from .algebraic import _resolve_clusters, _vanishes
from .foliation import Foliation, _fresh_name
from .mpoly import MPoly, bareiss_det, exact_div, normalized, poly_gcd, squarefree_part
from .singularities import _eval_on_cluster, affine_singular_points


def _aligned(f, target_vars):
    """The same polynomial with its variables renamed positionally."""
    if f.vars == tuple(target_vars):
        return f
    if len(f.vars) != len(target_vars):
        raise ValueError(f"cannot align {f.vars} with {target_vars}")
    return f.rename(dict(zip(f.vars, target_vars)))


class PlaneCurve:
    """A squarefree affine curve f = 0.

    degree is the degree of the homogenization (the total degree of f).
    genus and smooth are optional caller-supplied metadata; when smooth is
    claimed the genus must be the plane formula (n-1)(n-2)/2.
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
        residue = F.P * f.diff(F.x) + F.Q * f.diff(F.y) - cofactor * f
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
    Xf = F.P * f.diff(F.x) + F.Q * f.diff(F.y)
    h = exact_div(Xf, f)
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
        row = [F.P * g.diff(F.x) + F.Q * g.diff(F.y) for g in row]
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
        a, b = diag
        weights = [i * a + j * b for i, j in _monomial_exponents(m)]
        return len(set(weights)) < len(weights)
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

    def X(g):
        return F.P * g.diff(F.x) + F.Q * g.diff(F.y)

    return (X(num) * den - num * X(den)).is_zero()


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


def _affine_singularities(C):
    f = C.f
    x, y = f.vars
    fx, fy = f.diff(x), f.diff(y)
    combos = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, 3), (3, 1), (2, -1), (1, 5)]
    aux = None
    for a, b in combos:
        w = fx * Fraction(a) + fy * Fraction(b)
        if w.is_zero():
            continue
        if poly_gcd(f, w).total_degree() == 0:
            aux = w
            break
    if aux is None:
        raise ArithmeticError("no linear combination of the partials is coprime to the curve")

    # common zeros of (f, aux) contain every affine singular point; the
    # cluster machinery of the singularity module solves that system exactly
    pts = affine_singular_points(Foliation(f, aux))
    disc = f.diff(y).diff(x) ** 2 - f.diff(x).diff(x) * f.diff(y).diff(y)

    def node_tag(g, xt, yt):
        def vanishes(p):
            # uniform on the cluster, or SplitNeeded
            w = _eval_on_cluster(p, g, xt, yt, x, y)
            return _vanishes(w, g)

        if not (vanishes(fx) and vanishes(fy)):
            return None  # a common zero of (f, aux) that is a smooth point
        return not vanishes(disc)

    return [CurveSingularity("affine", g, xt, yt, node)
            for sp in pts
            for g, xt, yt, node in _resolve_clusters(sp.modulus, sp.xt, sp.yt, node_tag)
            if node is not None]


def _univar_gcd(polys, var):
    g = None
    for p in polys:
        if p.is_zero():
            continue
        g = p if g is None else poly_gcd(g, p)
    if g is None:
        return None  # every condition vanishes identically
    return normalized(g)


def _infinity_singularities(C):
    """Projective singular points on the line at infinity.

    With f = sum of homogeneous parts f_k and n = deg f, the chart at
    [1 : b : 0] sees the curve sum_k f_k(1, b) w^(n-k); singularity and the
    Hessian data only involve f_n, f_(n-1), f_(n-2).
    """
    f = C.f
    n = C.degree
    x, y = f.vars
    fn = f.homogeneous_part(n)
    fn1 = f.homogeneous_part(n - 1)
    fn2 = f.homogeneous_part(n - 2) if n >= 2 else MPoly.zero(f.vars)

    out = []
    tau = _fresh_name("t", f.vars)
    tvars = (tau,)

    def at_chart1(p):
        # substitute x = 1, leaving a univariate polynomial in the slope
        q = p.subs({x: MPoly.const(f.vars, 1)})
        return MPoly.from_univar(tau, q.scalar_coeffs(), tvars)

    g = _univar_gcd([at_chart1(fn), at_chart1(fn.diff(y)), at_chart1(fn1)], tau)
    if g is None:
        raise ArithmeticError("curve polynomial degenerates on the infinity chart")
    if g.deg_in(tau) > 0:
        g = squarefree_part(g)
        tv = MPoly.variable(tau, tvars)
        zero = MPoly.zero(tvars)
        # chart Hessian at (b, 0): entries f_n''(1,b), f_(n-1)'(1,b), 2 f_(n-2)(1,b)
        disc_parts = (
            at_chart1(fn1.diff(y)) ** 2
            - at_chart1(fn.diff(y).diff(y)) * (at_chart1(fn2) * 2)
        )

        def node_tag(gi, bi, wi):
            return not _vanishes(disc_parts, gi)

        out += [CurveSingularity("inf1", *piece)
                for piece in _resolve_clusters(g, tv, zero, node_tag)]

    # the point [0 : 1 : 0], in the chart x = a, w at y = 1
    def at_top(p):
        pt = {x: Fraction(0), y: Fraction(1)}
        return p.eval_all(pt)

    if at_top(fn) == 0 and at_top(fn.diff(x)) == 0 and at_top(fn1) == 0:
        disc = at_top(fn1.diff(x)) ** 2 - at_top(fn.diff(x).diff(x)) * (2 * at_top(fn2))
        tv = MPoly.variable(tau, tvars)
        zero = MPoly.zero(tvars)
        out.append(CurveSingularity("inf2", tv, zero, zero, disc != 0))
    return out


def curve_singularities(C):
    """All singular points of the projective closure, as tagged clusters."""
    C = _as_curve(C)
    return _affine_singularities(C) + _infinity_singularities(C)


def genus(C, deltas=None):
    """Geometric genus by degree-genus with nodal corrections.

    Without an explicit delta list every detected singularity must be an
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
