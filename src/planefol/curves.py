"""Plane algebraic curves against a foliation.

Invariance with an exact cofactor certificate, extactic determinants as the
rational-first-integral detector, and genus bookkeeping through projective
singularity counting. Everything is exact. Evaluation at a point certifies
that an extactic is not zero, by a nonzero determinant there; it also
certifies that one is zero, through the exact first-integral identity
X(A)*B == A*X(B) between two leaves read from the kernel at two points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import factorial

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


def _walk_points():
    """`_PROBE_POINTS`, then the integer points of the squares max(|x|, |y|)
    = r for r = 0, 1, 2, ...: a nonzero polynomial is nonzero at one of them."""
    yield from _PROBE_POINTS
    for r in count():
        for px in range(-r, r + 1):
            for py in range(-r, r + 1):
                if max(abs(px), abs(py)) == r:
                    yield Fraction(px), Fraction(py)


def _series_rows(F, m, point):
    """Rows 0..max(N - 1, m^2) of the order-m extactic matrix at a point,
    N = (m+1)(m+2)/2, read from the trajectory series of x' = P, y' = Q
    through it: row k holds X^k(x^i y^j) there, which is k! times the t^k
    coefficient of x(t)^i y(t)^j. The series of every monomial up to the
    degree of the field and m is built one order at a time, so the t^k
    coefficient of P(x(t), y(t)) gives the t^(k+1) coefficient of x(t)."""
    P, Q = F
    exps = _monomial_exponents(m)
    last = max(len(exps) - 1, m * m)
    xs, ys = [point[0]], [point[1]]
    series = {e: [] for e in _monomial_exponents(max(P.total_degree(), Q.total_degree(), m))}
    for k in range(last + 1):
        for (i, j), s in series.items():
            if i:
                base, factor = series[i - 1, j], xs
            elif j:
                base, factor = series[i, j - 1], ys
            else:
                s.append(Fraction(1 if k == 0 else 0))
                continue
            s.append(sum(factor[l] * base[k - l] for l in range(k + 1)))
        if k < last:
            xs.append(sum((c * series[e][k] for e, c in P.terms.items()), Fraction(0)) / (k + 1))
            ys.append(sum((c * series[e][k] for e, c in Q.terms.items()), Fraction(0)) / (k + 1))
    return [[factorial(k) * series[e][k] for e in exps] for k in range(last + 1)]


def _kernel(rows):
    """A basis of the rational kernel of a matrix, by Gauss-Jordan elimination."""
    rows = [list(row) for row in rows]
    n = len(rows[0])
    pivots = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        lead = rows[r][c]
        rows[r] = [v / lead for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [a - f * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for row, c in zip(rows, pivots):
            v[c] = -row[free]
        basis.append(v)
    return basis


def _extactic_vanishes(F, m):
    """Is E_m identically zero? Every lower extactic must be known nonzero.

    A nonzero determinant of the first N series rows at a point proves
    E_m != 0. Otherwise a one-dimensional kernel of all the rows is a
    polynomial of degree <= m through the point, kept as a leaf; two leaves
    A, B with A/B a nonconstant first integral (`first_integral_check`)
    prove E_m == 0. The walk ends: a nonzero E_m is nonzero somewhere on
    `_walk_points`, and when E_m == 0 while every lower extactic is nonzero,
    the least first integral has degree m, so off its finitely many special
    leaves the kernel is the leaf through the point (the rows up to m^2
    force it, by Bezout). For a larger m the kernel would hold the leaf
    times every polynomial of degree up to the difference, and the walk
    would not end; `first_integral_degree` asks the orders in turn.
    """
    diag = _diagonal_coefficients(F)
    if diag is not None:
        return _eigen_extactic(F, m, *diag).is_zero()
    exps = _monomial_exponents(m)
    leaves = []
    for point in _walk_points():
        rows = _series_rows(F, m, point)
        if bareiss_det(rows[:len(exps)]) != 0:
            return False
        kernel = _kernel(rows)
        if len(kernel) != 1:
            continue
        A = MPoly(F.vars, dict(zip(exps, kernel[0])))
        if any(first_integral_check(F, A, B) for B in leaves):
            return True
        leaves.append(A)


def first_integral_degree(F, max_m):
    """Smallest m <= max_m whose extactic vanishes identically, else None.

    That m is the least degree of a rational first integral (J. V. Pereira,
    "Vector fields, invariant varieties and linear systems", Ann. Inst.
    Fourier 51, 2001). Each answer is certified without expanding E_m: "not
    m" by a nonzero determinant of the extactic rows at a point, "m" by two
    leaves A, B of degree <= m, read from the kernel of those rows at two
    points, with X(A)*B == A*X(B) exactly and A/B nonconstant. Then A/B is a
    rational first integral of degree <= m, so E_m vanishes: the easy
    direction of the theorem.
    """
    if max_m < 1:
        raise ValueError("max_m must be at least 1")
    for m in range(1, max_m + 1):
        if _extactic_vanishes(F, m):
            return m
    return None


def first_integral_check(F, numerator, denominator):
    """Is numerator/denominator a nonconstant rational first integral of X?

    The exact cross-derivative test X(num)*den == num*X(den). A constant
    ratio, a zero numerator or one proportional to the denominator, is not a
    first integral: X annihilates it whatever X is, so the answer is False.
    """
    num = _aligned(numerator, F.vars)
    den = _aligned(denominator, F.vars)
    if den.is_zero():
        raise ValueError("denominator is zero")
    e = next(iter(den.terms))
    if (num * den.terms[e] - den * num.terms.get(e, 0)).is_zero():
        return False
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
