"""Certified singular-point data for plane vector fields.

Points are held in clusters: a squarefree modulus f(t) plus coordinate
polynomials x(t), y(t), standing for the points (x(tau), y(tau)) over the
roots tau of f. A rational point is a degree-one cluster. Every decision
(multiplicity, classification) is made by exact zero tests modulo f, and a
cluster is split whenever two of its roots would answer differently, so no
polynomial ever needs to be factored.

No floating point is used anywhere; displayed enclosures come from the
certified root boxes in `roots`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .algebraic import (
    SplitNeeded,
    _first_nonzero,
    _resolve_clusters,
    _vanishes,
    invert_mod,
    mod_reduce,
)
from .foliation import _fresh_name
from .mpoly import (
    MPoly,
    linear_subresultant,
    normalized,
    poly_gcd,
    resultant,
    squarefree_part,
    subresultant_prs,
    yun_decomposition,
)
from .numbers import QuadExt, fraction_height, quadratic_roots, simplest_between
from .roots import isolate_real_roots, isolate_roots, poly_image_box

REDUCED_NONDEGENERATE = "reduced-nondegenerate"
REDUCED_SADDLE_NODE = "reduced-saddle-node"
NON_REDUCED = "non-reduced"
UNDETERMINED = "undetermined"

# eigenvalue-ratio search gives up on rationals taller than this
RATIO_HEIGHT_BOUND = 1000

_SHEARS = (0, 1, -1, 2, -2, 3, -3, 5, -5, 7, -7, 11, -11, 13, -13, 17)


class DecompositionError(Exception):
    """No shear in the fixed list passed the genericity certificates."""


class _ShearReject(Exception):
    """This shear leaves two singular points on one vertical line; try the next."""


class ExactnessError(Exception):
    """A step needed coordinates beyond degree two over the rationals."""


# -- cluster container --------------------------------------------------------------


class SingularPoint:
    """A conjugate cluster of singular points of `field`, in one chart.

    chart is "affine", "inf1" (points [1 : b : 0]) or "inf2" (the point
    [0 : 1 : 0]); `field` is the vector field of that chart. milnor is the
    common Milnor number of the cluster's points, count how many there are.
    """

    __slots__ = ("chart", "field", "modulus", "xt", "yt", "milnor")

    def __init__(self, chart, field, modulus, xt, yt, milnor=None):
        self.chart = chart
        self.field = field
        self.modulus = normalized(modulus)
        tau = self.param
        self.xt = mod_reduce(_share(xt, self.modulus), self.modulus, tau).with_vars((tau,))
        self.yt = mod_reduce(_share(yt, self.modulus), self.modulus, tau).with_vars((tau,))
        self.milnor = milnor

    @property
    def param(self):
        return self.modulus.vars[0]

    @property
    def count(self):
        return self.modulus.deg_in(self.param)

    def is_rational(self):
        return self.count == 1

    def rational_coords(self):
        if not self.is_rational():
            raise ExactnessError(f"cluster of {self.count} conjugate points")
        c = self.modulus.scalar_coeffs()
        tau, root = self.param, -c[0] / c[1]
        return (self.xt.eval_all({tau: root}), self.yt.eval_all({tau: root}))

    def exact_coords(self):
        """Coordinates as exact scalars; degree <= 2 clusters only."""
        n = self.count
        if n == 1:
            return [self.rational_coords()]
        if n == 2:
            c = self.modulus.scalar_coeffs()
            if not all(isinstance(v, (int, Fraction)) for v in c):
                raise ExactnessError("nested extensions are out of reach")
            tau = self.param
            return [(self.xt.eval_all({tau: r}), self.yt.eval_all({tau: r}))
                    for r in quadratic_roots(c, adjoin=True)]
        raise ExactnessError(f"no exact coordinates for a degree-{n} cluster")

    def boxes(self, max_width=Fraction(1, 1024)):
        """Certified (x, y) enclosures, one per point: pairs of (re, im) intervals."""
        out = []
        for rb in isolate_roots(self.modulus):
            while True:
                xre, xim = poly_image_box(self.xt, rb)
                yre, yim = poly_image_box(self.yt, rb)
                widths = (xre.width(), xim.width(), yre.width(), yim.width())
                if max(widths) <= max_width or rb.is_exact():
                    break
                rb.refine()
            out.append(((xre, xim), (yre, yim)))
        return out

    def sort_key(self):
        order = {"affine": 0, "inf1": 1, "inf2": 2}
        return (order[self.chart], self.count, str(self.modulus), str(self.xt), str(self.yt))

    def __repr__(self):
        mu = "?" if self.milnor is None else self.milnor
        if self.is_rational():
            a, b = self.rational_coords()
            return f"SingularPoint({self.chart}, ({a}, {b}), mu={mu})"
        return (
            f"SingularPoint({self.chart}, {self.count} pts, {self.modulus} = 0, "
            f"x={self.xt}, y={self.yt}, mu={mu})"
        )


def _share(p, like):
    if isinstance(p, (int, Fraction, QuadExt)):
        return MPoly.const(like.vars, p)
    return p


# -- split-driven cluster work ------------------------------------------------------


def _tau_mod(p, f, tau):
    p, f2 = p._pair(f)
    return mod_reduce(p, f2, tau)


# -- local Milnor number ------------------------------------------------------------


def _xy_top_eval(p, xi, yi, ti, t):
    """Top (x, y)-part of p evaluated at (x, y) = (t, 1), as a poly in tau."""
    m = max(e[xi] + e[yi] for e in p.terms)
    out = {}
    tq = Fraction(t)
    for e, c in p.terms.items():
        if e[xi] + e[yi] != m:
            continue
        val = c * tq ** e[xi]
        key = (e[ti],)
        prev = out.get(key)
        out[key] = val if prev is None else prev + val
    return out, m


def _ord_ladder(p, f, tau, var):
    """Smallest k with the coefficient of var**k nonzero at every root of f.

    Raises SplitNeeded on a mixed answer; returns None when p vanishes mod f.
    """
    vi = p.vars.index(var)
    ti = p.vars.index(tau)
    buckets = {}
    for e, c in p.terms.items():
        rest = list(e)
        rest[vi] = 0
        rest[ti] = 0
        if any(rest):
            raise ValueError("ladder expects a polynomial in (var, tau) only")
        buckets.setdefault(e[vi], {})[(e[ti],)] = c
    ks = sorted(buckets)
    i = _first_nonzero(([MPoly((tau,), buckets[k])] for k in ks), f)
    return None if i is None else ks[i]


def _shift_out(p, var, k):
    i = p.vars.index(var)
    out = {}
    for e, c in p.terms.items():
        if e[i] < k:
            raise ValueError("shift below zero")
        out[e[:i] + (e[i] - k,) + e[i + 1:]] = c
    return MPoly(p.vars, out)


def _monomial_in(p, f, tau, var):
    """Is p == c(tau) * var**k with c nonzero at every root? ('ok'/'no', splits raised)."""
    a = _ord_ladder(p, f, tau, var)
    if a is None:
        return False
    high = _shift_out(p, var, a)
    ks = sorted({e[p.vars.index(var)] for e in high.terms} - {0})
    return _first_nonzero(([high.coeff_in(var, k).with_vars((tau,))] for k in ks), f) is None


def _milnor_once(field, f, xt, yt):
    """Milnor number of field at the cluster point, uniform or SplitNeeded."""
    tau = f.vars[0]
    x, y = field.vars
    vars3 = (x, y, tau)
    xs = MPoly.variable(x, vars3) + xt.with_vars(vars3)
    ys = MPoly.variable(y, vars3) + yt.with_vars(vars3)
    Ploc = _tau_mod(field.P.with_vars(vars3).subs({x: xs, y: ys}), f, tau)
    Qloc = _tau_mod(field.Q.with_vars(vars3).subs({x: xs, y: ys}), f, tau)
    if Ploc.is_zero() or Qloc.is_zero():
        raise ArithmeticError("translated component vanished; field was degenerate")
    xi, yi, ti = 0, 1, 2

    for t in _SHEARS:
        if t == 0:
            Pt, Qt = Ploc, Qloc
        else:
            sx = MPoly.variable(x, vars3) + MPoly.variable(y, vars3) * Fraction(t)
            Pt = _tau_mod(Ploc.subs({x: sx}), f, tau)
            Qt = _tau_mod(Qloc.subs({x: sx}), f, tau)
        ok = True
        for p in (Pt, Qt):
            terms, _ = _xy_top_eval(p, xi, yi, ti, t)
            if _vanishes(MPoly((tau,), terms), f):
                ok = False
                break
        if not ok:
            continue
        if not _axis_certificate(Pt, Qt, f, tau, x, y):
            continue
        R = _tau_mod(resultant(Pt, Qt, y), f, tau)
        mu = _ord_ladder(R.with_vars((x, tau)), f, tau, x)
        if mu is None:
            raise ArithmeticError("resultant vanished despite the certificates")
        return mu
    raise DecompositionError("no shear separated the point from the rest of its fiber")


def _axis_certificate(Pt, Qt, f, tau, x, y):
    """True when, at every root, the only common zero of (Pt, Qt) on the line
    x = 0 is the origin. Splits the cluster on a mixed answer."""
    A = _tau_mod(Pt.coeff_in(x, 0).with_vars((y, tau)), f, tau)
    B = _tau_mod(Qt.coeff_in(x, 0).with_vars((y, tau)), f, tau)
    if A.is_zero() and B.is_zero():
        raise ArithmeticError("both components vanish on a line; field not coprime")
    if A.is_zero():
        return _monomial_in(B, f, tau, y)
    if B.is_zero():
        return _monomial_in(A, f, tau, y)
    a = _ord_ladder(A, f, tau, y)
    b = _ord_ladder(B, f, tau, y)
    if a is None or b is None:
        # some slice vanished at part of the cluster without a clean split
        raise ArithmeticError("order ladder lost its polynomial")
    A1 = _shift_out(A, y, a)
    B1 = _shift_out(B, y, b)
    if A1.deg_in(y) == 0 or B1.deg_in(y) == 0:
        return True
    res = resultant(A1, B1, y).with_vars((tau,))
    return not _vanishes(res, f)


def milnor_clusters(field, f, xt, yt):
    """[(modulus, xt, yt, mu)] for the cluster, split until mu is uniform."""
    return _resolve_clusters(f, xt, yt, lambda a, b, c: _milnor_once(field, a, b, c))


def milnor_number(field, point):
    """Milnor number of `field` at an exact point (a, b); 0 at regular points.

    Coordinates may be rational or quadratic irrationals (QuadExt).
    """
    a, b = point
    tau = _fresh_name("t", field.vars)
    f = MPoly.variable(tau, (tau,))
    xt = MPoly.const((tau,), a)
    yt = MPoly.const((tau,), b)
    res = milnor_clusters(field, f, xt, yt)
    return res[0][3]


# -- global decomposition -----------------------------------------------------------


def _monic_in_y(p, f, tau, y):
    d = p.deg_in(y)
    lc = p.coeff_in(y, d).with_vars((tau,))
    # SplitNeeded when the leading coefficient dies on part of the cluster
    inv = invert_mod(lc, f, tau)
    return _tau_mod(p * inv, f, tau)


def _ring_gcd_y(A, B, f, tau, y):
    """Monic gcd of A and B in y over Q[tau]/(f), valid at every root of f.

    Euclidean steps with the divisor made monic first, so each remainder is
    an exact identity on the whole cluster; leading coefficients that vanish
    at only some roots surface as SplitNeeded.
    """
    A = _tau_mod(A, f, tau)
    B = _tau_mod(B, f, tau)
    if A.deg_in(y) < B.deg_in(y):
        A, B = B, A
    while not B.is_zero():
        Bm = _monic_in_y(B, f, tau, y)
        db = Bm.deg_in(y)
        R = A
        while not R.is_zero() and R.deg_in(y) >= db:
            dr = R.deg_in(y)
            co = R.coeff_in(y, dr)
            shift = MPoly.variable(y, R.vars) ** (dr - db)
            R = _tau_mod(R - co * shift * Bm, f, tau)
        A, B = Bm, R
    if A.is_zero():
        raise ArithmeticError("gcd of two polynomials that vanish on the cluster")
    return _monic_in_y(A, f, tau, y)


def _fiber_rule(Pf, Qf, fi, tau, y):
    """y-coordinate above a cluster whose fiber gcd is not linear.

    A single singular point on the fiber forces the monic fiber gcd to be
    (y - y0)**k; the binomial comparison certifies exactly that.  A failed
    comparison means two singular points share this vertical line, so the
    caller must move to the next shear.
    """
    G = _ring_gcd_y(Pf, Qf, fi, tau, y)
    k = G.deg_in(y)
    if k <= 0:
        raise ArithmeticError("empty fiber above a resultant root")
    ck1 = G.coeff_in(y, k - 1).with_vars((tau,))
    y0 = mod_reduce(ck1 * Fraction(-1, k), fi, tau)
    if k >= 2:
        yv = MPoly.variable(y, G.vars)
        diff = _tau_mod(G - (yv - y0) ** k, fi, tau)
        if not diff.is_zero():
            slices = ([diff.coeff_in(y, j).with_vars((tau,))]
                      for j in range(diff.deg_in(y) + 1))
            if _first_nonzero(slices, fi) is not None:
                raise _ShearReject("two singular points share a fiber")
            raise ArithmeticError("trimmed difference has no nonzero slice")
    return y0


def affine_singular_points(F):
    """All affine singular clusters of F, with Milnor numbers."""
    x, y = F.vars
    P, Q = F.P, F.Q
    if P.total_degree() <= 0 or Q.total_degree() <= 0:
        return []
    Ptop, Qtop = P.top_part(), Q.top_part()
    for t in _SHEARS:
        tq = Fraction(t)
        if Ptop.eval_all({x: tq, y: Fraction(1)}) == 0:
            continue
        if Qtop.eval_all({x: tq, y: Fraction(1)}) == 0:
            continue
        if t == 0:
            Pt, Qt = P, Q
        else:
            sx = MPoly.variable(x, F.vars) + MPoly.variable(y, F.vars) * tq
            Pt, Qt = P.subs({x: sx}), Q.subs({x: sx})
        R = resultant(Pt, Qt, y).with_vars((x,))
        if R.is_zero():
            raise ArithmeticError("resultant vanished for a coprime field")
        if R.total_degree() == 0:
            return []
        try:
            return _affine_clusters(F, t, R, Pt, Qt)
        except _ShearReject:
            continue
    raise DecompositionError("no shear passed the fiber certificates")


def _affine_clusters(F, shear, R, Pt, Qt):
    x, y = F.vars
    tau = _fresh_name("t", F.vars)
    S1 = linear_subresultant(Pt, Qt, y)
    t1 = t0 = None
    if S1 is not None:
        t1 = S1.coeff_in(y, 1).with_vars((x,)).rename({x: tau})
        t0 = S1.coeff_in(y, 0).with_vars((x,)).rename({x: tau})
    Pf = Pt.rename({x: tau})
    Qf = Qt.rename({x: tau})
    out = []
    _, parts = yun_decomposition(R)
    for g, mult in parts:
        if g.total_degree() == 0:
            continue
        g = g.rename({g.vars[0]: tau})

        def rule(fi, xi, yi):
            if t1 is not None:
                try:
                    inv = invert_mod(t1, fi, tau)
                    return mod_reduce(-(t0 * inv), fi, tau)
                except ZeroDivisionError:
                    # the linear rule dies on this whole cluster
                    pass
            return _fiber_rule(Pf, Qf, fi, tau, y)

        seed = MPoly.zero((tau,))
        for fi, _, _, yr in _resolve_clusters(normalized(g), seed, seed, rule):
            xr = MPoly.variable(tau, (tau,)) + yr * Fraction(shear)
            out.append(SingularPoint("affine", F, fi, xr, yr, milnor=mult))
    out.sort(key=SingularPoint.sort_key)
    return out


def infinity_singular_points(F, with_milnor=True):
    """Singular clusters on the line at infinity, with Milnor numbers.

    Points [1 : b : 0] live in chart "inf1" with coordinates (b, w); the
    remaining point [0 : 1 : 0] is checked in chart "inf2".  with_milnor=False
    skips the local resultants (the expensive part on large clusters) and
    leaves milnor as None; the clusters then come unsplit.
    """
    out = []
    ch1 = F.infinity_chart(1)
    b, w = ch1.vars
    A0 = ch1.P.coeff_in(w, 0).with_vars((b,))
    B0 = ch1.Q.coeff_in(w, 0).with_vars((b,))
    g = poly_gcd(A0, B0)
    if g.total_degree() > 0:
        tau = _fresh_name("t", ch1.vars)
        f = normalized(squarefree_part(g)).rename({g.vars[0]: tau})
        xt = MPoly.variable(tau, (tau,))
        yt = MPoly.zero((tau,))
        if with_milnor:
            for fi, xi, yi, mu in milnor_clusters(ch1, f, xt, yt):
                out.append(SingularPoint("inf1", ch1, fi, xi, yi, milnor=mu))
        else:
            out.append(SingularPoint("inf1", ch1, f, xt, yt))
    ch2 = F.infinity_chart(2)
    pa, pw = ch2.vars
    p0 = ch2.P.eval_all({pa: Fraction(0), pw: Fraction(0)})
    q0 = ch2.Q.eval_all({pa: Fraction(0), pw: Fraction(0)})
    if p0 == 0 and q0 == 0:
        tau = _fresh_name("t", ch2.vars)
        f = MPoly.variable(tau, (tau,))
        zero = MPoly.zero((tau,))
        if with_milnor:
            mu = milnor_clusters(ch2, f, zero, zero)[0][3]
            out.append(SingularPoint("inf2", ch2, f, zero, zero, milnor=mu))
        else:
            out.append(SingularPoint("inf2", ch2, f, zero, zero))
    out.sort(key=SingularPoint.sort_key)
    return out


def singular_points(F, with_milnor=True):
    return affine_singular_points(F) + infinity_singular_points(F, with_milnor=with_milnor)


def bezout_total(F):
    """d^2 + d + 1 for d the degree of F: the certified global Milnor count."""
    d = F.degree()
    return d * d + d + 1


def total_milnor(points):
    return sum(sp.count * sp.milnor for sp in points)


# -- Seidenberg classification ------------------------------------------------------


def classify_singularity(sp):
    """[(subcluster, kind)] partitioning sp by linear-part type.

    Kinds: reduced-nondegenerate (nonzero eigenvalues, ratio certified outside
    the positive rationals), reduced-saddle-node (exactly one zero eigenvalue),
    non-reduced (nilpotent/zero linear part, or a positive rational ratio), and
    undetermined (the ratio search hit its height bound without an answer).
    """
    out = []
    for fi, xi, yi, kind in _resolve_clusters(
        sp.modulus, sp.xt, sp.yt,
        lambda f, xt, yt: _classify_once(sp.field, f, xt, yt),
    ):
        out.append((SingularPoint(sp.chart, sp.field, fi, xi, yi, sp.milnor), kind))
    out.sort(key=lambda pair: pair[0].sort_key())
    return out


def classify_point(field, a, b):
    """Classification kind of the (singular) point (a, b) of `field`."""
    tau = _fresh_name("t", field.vars)
    f = MPoly.variable(tau, (tau,))
    res = _resolve_clusters(
        f, MPoly.const((tau,), a), MPoly.const((tau,), b),
        lambda fi, xt, yt: _classify_once(field, fi, xt, yt),
    )
    return res[0][3]


def classify_all(F):
    out = []
    for sp in singular_points(F):
        out.extend(classify_singularity(sp))
    return out


def _eval_on_cluster(E, f, xt, yt, x, y):
    tau = f.vars[0]
    img = E.subs({x: xt, y: yt})
    return _tau_mod(img, f, tau).with_vars((tau,))


def _classify_once(field, f, xt, yt):
    tau = f.vars[0]
    x, y = field.vars
    px, py, qx, qy = (_eval_on_cluster(E, f, xt, yt, x, y) for E in field.jacobian())
    T = mod_reduce(px + qy, f, tau)
    D = mod_reduce(px * qy - py * qx, f, tau)
    if _vanishes(D, f):
        if _vanishes(T, f):
            return NON_REDUCED
        return REDUCED_SADDLE_NODE

    n = f.deg_in(tau)
    if n >= 3:
        # pre-split on the discriminant: D is nonzero here, so a double
        # eigenvalue forces ratio exactly 1, non-reduced with no resultant
        # work; carving that part off also shrinks the PRS modulus below
        if _vanishes(T * T - 4 * D, f):
            return NON_REDUCED

    # eigenvalue ratios r at the cluster roots satisfy
    #   W(tau, r) = D(tau) * (r^2 + 1) - (T(tau)^2 - 2 D(tau)) * r = 0
    rname = _fresh_name("r", (tau,))
    vars2 = (tau, rname)
    r = MPoly.variable(rname, vars2)
    Dl = D.with_vars(vars2)
    S = _tau_mod(T.with_vars(vars2) ** 2 - 2 * Dl, f, tau)
    W = _tau_mod(Dl * (r * r + 1) - S * r, f, tau)

    if n <= 2:
        if n == 2:
            split = _quadratic_root_in_base(f)
            if split is not None:
                raise SplitNeeded(split)
        # f is now irreducible over its coefficient field, so a ratio r in
        # that field is a root of every tau-coefficient of W
        g = reduce(poly_gcd, [W.coeff_in(tau, k).with_vars((rname,)) for k in range(n)])
        if _positive_rational_root_exists(g):
            return NON_REDUCED
        return REDUCED_NONDEGENERATE

    if not _rational_only(f) or not _rational_only(W):
        return UNDETERMINED
    rho = None
    for p in reversed(subresultant_prs(f.with_vars(vars2), W, tau)):
        if p.deg_in(tau) == 0 and not p.is_zero():
            rho = p.with_vars((rname,))
            break
    if rho is None:
        raise ArithmeticError("tau resultant collapsed despite nonzero determinant")
    rho = normalized(squarefree_part(rho))

    unresolved = False
    for box in isolate_real_roots(rho):
        guard = 0
        while not box.is_exact() and box.re.lo <= 0 <= box.re.hi:
            box.refine()
            guard += 1
            if guard > 500:
                raise ArithmeticError("ratio box would not separate from zero")
        if box.is_exact():
            c = box.exact
        else:
            if box.re.hi < 0:
                continue
            target = Fraction(1, 2 * RATIO_HEIGHT_BOUND ** 2)
            while box.width() > target and not box.is_exact():
                box.refine()
            c = box.exact if box.is_exact() else simplest_between(box.re.lo, box.re.hi)
            if not box.is_exact() and rho.eval_all({rname: c}) != 0:
                # the candidate is not the root; any other rational in the box
                # is taller than the bound, so the root cannot be named
                if c > 0:
                    unresolved = True
                continue
        if c <= 0:
            continue
        if fraction_height(c) > RATIO_HEIGHT_BOUND:
            unresolved = True
            continue
        Wc = _tau_mod(W.subs({rname: c}), f, tau).with_vars((tau,))
        if _vanishes(Wc, f):
            return NON_REDUCED
        # a true root of rho always divides something off f; treat a miss honestly
        unresolved = True
    if unresolved:
        return UNDETERMINED
    return REDUCED_NONDEGENERATE


def _rational_only(p):
    return all(isinstance(c, (int, Fraction)) for c in p.terms.values())


def _quadratic_root_in_base(f):
    """For degree-2 f: a linear factor tau - root over f's own coefficient
    field if one exists (None otherwise)."""
    tau = f.vars[0]
    roots = quadratic_roots(f.scalar_coeffs())
    if roots is None:
        return None
    return MPoly.variable(tau, (tau,)) - MPoly.const((tau,), roots[0])


def _positive_rational_root_exists(g):
    """Any root in Q>0 of a polynomial of degree <= 2 (coefficients rational
    or QuadExt; a QuadExt coefficient forces the root through both components)."""
    if g.is_zero():
        return False
    if not _rational_only(g):
        comp_a = g.map_coeffs(lambda c: c.a if isinstance(c, QuadExt) else Fraction(c))
        comp_b = g.map_coeffs(lambda c: c.b if isinstance(c, QuadExt) else Fraction(0))
        if comp_a.is_zero():
            g = comp_b
        elif comp_b.is_zero():
            g = comp_a
        else:
            g = poly_gcd(comp_a, comp_b)
    c = g.scalar_coeffs()
    deg = len(c) - 1
    if deg <= 0:
        return False
    if deg == 1:
        root = -c[0] / c[1]
        return root > 0
    if deg == 2:
        roots = quadratic_roots(c)
        return roots is not None and any(root > 0 for root in roots)
    raise ValueError(f"unexpected degree {deg} in ratio gcd")
