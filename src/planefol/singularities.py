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

from .algebraic import (
    SplitNeeded,
    _eval_on_cluster,
    _horner_mod,
    _lowest_layer,
    _resolve_clusters,
    _translated,
    _vanishes,
    invert_mod,
    mod_reduce,
)
from .foliation import _fresh_name, _squarefree_on_line, _zero_at_origin
from .mpoly import (
    MPoly,
    _Chain,
    _shift_out,
    normalized,
    resultant,
    squarefree_part,
    subresultant_prs,
    yun_decomposition,
)
from .numbers import QuadExt, quadratic_roots, rational_sqrt
from .roots import isolate_real_roots, isolate_roots, poly_image

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
        self.xt = mod_reduce(xt, self.modulus, tau).with_vars((tau,))
        self.yt = mod_reduce(yt, self.modulus, tau).with_vars((tau,))
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
            if not self.modulus.is_rational():
                raise ExactnessError("nested extensions are out of reach")
            tau = self.param
            return [(self.xt.eval_all({tau: r}), self.yt.eval_all({tau: r}))
                    for r in quadratic_roots(self.modulus.scalar_coeffs(), adjoin=True)]
        raise ExactnessError(f"no exact coordinates for a degree-{n} cluster")

    def boxes(self, max_width=Fraction(1, 1024)):
        """Certified (x, y) enclosures, one per point: pairs of (re, im) intervals."""
        out = []
        x_image, y_image = poly_image(self.xt), poly_image(self.yt)
        for rb in isolate_roots(self.modulus):
            while True:
                xre, xim = x_image(rb)
                yre, yim = y_image(rb)
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


# -- local Milnor number ------------------------------------------------------------


def _milnor_once(field, f, xt, yt):
    """Milnor number of field at the cluster point, uniform or SplitNeeded.

    The field is translated to the cluster once; each shear t of
    `_shear_candidates` then shears the translated pair, since
    P(x + t*y + xt, y + yt) is P(x + xt, y + yt) sheared. The shear holds
    no tau, so the sheared pair stays reduced mod f."""
    tau = f.vars[0]
    P, Q = field
    x, y = P.vars
    if P.is_zero() or Q.is_zero():
        raise ArithmeticError("field component vanished; field was degenerate")
    local = _translated(field, f, xt, yt)
    for t in _shear_candidates(field):
        Pt, Qt = _sheared(local, t)
        if not _axis_certificate(Pt, Qt, f, tau, x, y):
            continue
        R = mod_reduce(resultant(Pt, Qt, y), f, tau)
        # R is free of y, so its (x, y)-layers are its powers of x
        mu = _lowest_layer([R], f)
        if mu is None:
            # the shear keeps both y-leading coefficients nonzero constants,
            # so R vanishes only when P and Q share a factor
            raise ArithmeticError(
                "resultant vanished: the components share a factor; "
                "milnor_number needs a coprime pair")
        return mu
    raise DecompositionError("no shear separated the point from the rest of its fiber")


def _axis_certificate(Pt, Qt, f, tau, x, y):
    """True when, at every root, the only common zero of (Pt, Qt) on the line
    x = 0 is the origin. Splits the cluster on a mixed answer.

    The shear test of `_shear_candidates` keeps the y-leading coefficients of Pt
    and Qt nonzero at every root, so A = Pt(0, y) and B = Qt(0, y) are too,
    and each has an order in y."""
    A = mod_reduce(Pt.coeff_in(x, 0).with_vars((y, tau)), f, tau)
    B = mod_reduce(Qt.coeff_in(x, 0).with_vars((y, tau)), f, tau)
    A1 = _shift_out(A, y, _lowest_layer([A], f))
    B1 = _shift_out(B, y, _lowest_layer([B], f))
    if A1.deg_in(y) == 0 or B1.deg_in(y) == 0:
        return True
    res = resultant(A1, B1, y).with_vars((tau,))
    return not _vanishes(res, f)


def milnor_clusters(field, f, xt, yt):
    """[(modulus, xt, yt, mu)] for the cluster, split until mu is uniform;
    `field` is a Foliation or a coprime (P, Q) pair."""
    return _resolve_clusters(f, xt, yt, lambda a, b, c: _milnor_once(field, a, b, c))


def _point_cluster(vars, a, b):
    """(f, xt, yt): the exact point (a, b) as the one-point cluster f = t."""
    tau = _fresh_name("t", vars)
    return MPoly.variable(tau, (tau,)), MPoly.const((tau,), a), MPoly.const((tau,), b)


def milnor_number(field, point):
    """Milnor number of `field` at an exact point (a, b); 0 at regular points.

    `field` is a Foliation or a coprime (P, Q) pair: the intersection number
    of {P = 0} and {Q = 0} at the point. Coordinates may be rational or
    quadratic irrationals (QuadExt).
    """
    P, _ = field
    return milnor_clusters(field, *_point_cluster(P.vars, *point))[0][3]


# -- global decomposition -----------------------------------------------------------


def _fiber_rule(fibers, fi, tau, y):
    """y-coordinate above the cluster fi, from the subresultants S_k of P_t
    and Q_t in y (x renamed tau).

    `fibers` yields (k, S_k) for k ascending, the last S_k an input with a
    constant leading coefficient. At a root of R_t the fiber gcd is S_k at
    the least k whose principal coefficient s_k is nonzero there (von zur
    Gathen and Gerhard, Modern Computer Algebra, ch. 6): an S_k whose s_k
    vanishes on the whole cluster is passed over, and one that vanishes on
    part of it splits the cluster. k = 1 is the linear rule y0 = -c_0 / s_1.
    For k >= 2 a single singular point on the fiber forces the monic gcd to
    be (y - y0)**k; the binomial comparison certifies exactly that. A failed
    comparison means two singular points share this vertical line, so the
    caller must move to the next shear.
    """
    for k, S in fibers:
        try:
            inv = invert_mod(S.coeff_in(y, k).with_vars((tau,)), fi, tau)
        except ZeroDivisionError:
            # s_k vanishes on the whole cluster
            continue
        ck1 = S.coeff_in(y, k - 1).with_vars((tau,))
        y0 = mod_reduce(ck1 * inv * Fraction(-1, k), fi, tau)
        if k >= 2:
            yv = MPoly.variable(y, S.vars)
            diff = mod_reduce(S * inv - (yv - y0) ** k, fi, tau)
            if not diff.is_zero():
                if _lowest_layer([diff], fi) is not None:
                    raise _ShearReject("two singular points share a fiber")
                raise ArithmeticError("trimmed difference has no nonzero slice")
        return y0
    raise ArithmeticError("no subresultant is nonzero above a resultant root")


def _shear_candidates(F):
    """Each shear t of `_SHEARS` at which the top parts of F do not vanish
    at (t, 1), in order; F is a Foliation or a (P, Q) pair.

    For such t the y-leading coefficients of P_t = P(x + t*y, y) and Q_t
    (`_sheared`) are nonzero constants, so R_t = Res_y(P_t, Q_t) has degree
    at most deg P * deg Q, and its squarefree degree counts the distinct
    values of x + t*y on the affine singular points.
    """
    P, Q = F
    x, y = P.vars
    Ptop, Qtop = P.top_part(), Q.top_part()
    for t in _SHEARS:
        at = {x: Fraction(t), y: Fraction(1)}
        if Ptop.eval_all(at) != 0 and Qtop.eval_all(at) != 0:
            yield t


def _sheared(field, t):
    """(P(x + t*y, y), Q(x + t*y, y)); x and y are the first two variables."""
    P, Q = field
    if t == 0:
        return P, Q
    x, y = P.vars[:2]
    sx = MPoly.variable(x, P.vars) + MPoly.variable(y, P.vars) * Fraction(t)
    return _horner_mod(P, x, sx, None, None), _horner_mod(Q, x, sx, None, None)


def _exact_shear(F, Pt, Qt):
    """(yun parts of R_t, chain, squarefree degree of R_t): `chain` the one
    subresultant chain of P_t and Q_t in y, R_t = Res_y(P_t, Q_t) read from
    it, and the fiber rule's S_k read from it if the shear is tried. The
    degree is exact; `affine_singular_points` skips shears by it."""
    x, y = F.vars
    chain = _Chain(Pt, Qt, y)
    R = chain.res().with_vars((x,))
    if R.is_zero():
        raise ArithmeticError("resultant vanished for a coprime field")
    parts = yun_decomposition(R) if R.total_degree() > 0 else []
    return parts, chain, sum(g.total_degree() for g, _ in parts)


def affine_singular_points(F):
    """All affine singular clusters of F, with Milnor numbers.

    Shears are taken in `_SHEARS` order, each with its one exact chain and
    resultant R_t (`_exact_shear`). A shear separates the points exactly
    when the squarefree degree of R_t reaches their number, the
    separating-element test of the rational univariate representation
    (Rouillier 1999). So a shear whose degree is at most that of a rejected
    shear is skipped without any cluster work: `_affine_clusters` would
    reject it too. Every other shear is tried, and the first that passes the
    fiber certificate is accepted; the degrees never accept a shear.

    The y-coordinate of every cluster comes from one rule on the
    subresultant chain that gave R_t: the fiber gcd is S_k at the least k
    whose principal coefficient is nonzero on the cluster, and k = 1 is the
    S1 rule y = -c_0 / s_1 (`_fiber_rule`).
    """
    P, Q = F
    if P.total_degree() <= 0 or Q.total_degree() <= 0:
        return []
    floor = -1
    for t in _shear_candidates(F):
        parts, chain, degree = _exact_shear(F, *_sheared(F, t))
        if degree <= floor:
            continue
        if not parts:
            return []
        try:
            return _affine_clusters(F, t, parts, chain)
        except _ShearReject:
            floor = degree
    raise DecompositionError("no shear passed the fiber certificates")


def _affine_clusters(F, shear, parts, chain):
    x, y = F.vars
    tau = _fresh_name("t", F.vars)
    # the k at which a principal coefficient s_k can be nonzero: the degrees
    # of the sequence below the lower-degree input g, then g's own, where
    # S_k is g up to a constant (m = n leaves S_n undefined)
    n = chain.g.deg_in(y)
    ks = sorted(len(e) - 1 for e in chain.elems[2:] if len(e) > 1) + [n]
    cache = {}

    def fibers():
        for k in ks:
            if k not in cache:
                cache[k] = (chain.g if k == n else chain.subresultant(k)).rename({x: tau})
            yield k, cache[k]

    def rule(fi, xi, yi):
        return _fiber_rule(fibers(), fi, tau, y)

    seed = MPoly.zero((tau,))
    out = []
    for g, mult in parts:
        if g.total_degree() == 0:
            continue
        g = g.rename({g.vars[0]: tau})
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
    clusters = []  # (chart, chart field, modulus, xt, yt)
    ch1 = F.infinity_chart(1)
    b, w = ch1.vars
    g = _squarefree_on_line(ch1, w, b)
    if g is not None:
        tau = _fresh_name("t", ch1.vars)
        f = g.rename({b: tau})
        clusters.append(("inf1", ch1, f, MPoly.variable(tau, (tau,)), MPoly.zero((tau,))))
    ch2 = F.infinity_chart(2)
    if _zero_at_origin(ch2):
        tau = _fresh_name("t", ch2.vars)
        zero = MPoly.zero((tau,))
        clusters.append(("inf2", ch2, MPoly.variable(tau, (tau,)), zero, zero))
    out = []
    for chart, field, f, xt, yt in clusters:
        if with_milnor:
            out += [SingularPoint(chart, field, fi, xi, yi, milnor=mu)
                    for fi, xi, yi, mu in milnor_clusters(field, f, xt, yt)]
        else:
            out.append(SingularPoint(chart, field, f, xt, yt))
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

    With trace T and determinant D != 0, a ratio r satisfies r + 1/r = S/D,
    S = T^2 - 2D. A cluster of degree at most 2, once split to be
    irreducible over its coefficient field, is decided by sigma = S/D mod f
    alone: r is in Q>0 exactly when sigma is a positive rational constant z
    with z^2 - 4 a rational square. Larger clusters search the real roots of
    rho(r) = Res_tau(f, D (r^2 + 1) - S r) for rationals, so only they can
    be undetermined.
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
    """Kind of the singular point (a, b) of a Foliation or coprime (P, Q) pair."""
    P, _ = field
    return _resolve_clusters(
        *_point_cluster(P.vars, a, b),
        lambda fi, xt, yt: _classify_once(field, fi, xt, yt),
    )[0][3]


def classify_all(F):
    out = []
    for sp in singular_points(F):
        out.extend(classify_singularity(sp))
    return out


def _classify_once(field, f, xt, yt):
    tau = f.vars[0]
    P, Q = field
    x, y = P.vars
    px, py, qx, qy = (_eval_on_cluster(E, f, xt, yt, x, y)
                      for E in (P.diff(x), P.diff(y), Q.diff(x), Q.diff(y)))
    T = mod_reduce(px + qy, f, tau)
    D = mod_reduce(px * qy - py * qx, f, tau)
    if _vanishes(D, f):
        if _vanishes(T, f):
            return NON_REDUCED
        return REDUCED_SADDLE_NODE

    # the eigenvalue ratios r at a root are the roots of
    #   W(tau, r) = D (r^2 + 1) - S r = r (D z - S),  z = r + 1/r,  S = T^2 - 2 D
    S = mod_reduce(T * T - 2 * D, f, tau)
    n = f.deg_in(tau)
    if n <= 2:
        if n == 2:
            split = _quadratic_root_in_base(f)
            if split is not None:
                raise SplitNeeded(split)
        # f is now irreducible over its coefficient field K, so sigma = S/D
        # mod f takes a value in K at a root only when it is a constant. It
        # is a rational constant z exactly when S = z D, both being reduced
        # mod f; z can only be the rational part of lt(S)/lt(D). A ratio r in
        # Q>0 then needs z > 0 and r = (z +- sqrt(z^2 - 4))/2 rational
        z = Fraction(0) if S.is_zero() else S.lt()[1] / D.lt()[1]
        if isinstance(z, QuadExt):
            z = z.a
        if z > 0 and rational_sqrt(z * z - 4) is not None and (S - D * z).is_zero():
            return NON_REDUCED
        return REDUCED_NONDEGENERATE

    # pre-split on the discriminant T^2 - 4 D = S - 2 D: D is nonzero here,
    # so a double eigenvalue forces ratio exactly 1, non-reduced with no
    # resultant work; carving that part off also shrinks the PRS modulus below
    if _vanishes(S - 2 * D, f):
        return NON_REDUCED
    rname = _fresh_name("r", (tau,))
    vars2 = (tau, rname)
    r = MPoly.variable(rname, vars2)
    W = D.with_vars(vars2) * (r * r + 1) - S.with_vars(vars2) * r

    if not f.is_rational() or not W.is_rational():
        return UNDETERMINED
    rho = None
    for p in reversed(subresultant_prs(f.with_vars(vars2), W, tau)):
        if p.deg_in(tau) == 0 and not p.is_zero():
            rho = p.with_vars((rname,))
            break
    if rho is None:
        raise ArithmeticError("tau resultant collapsed despite nonzero determinant")
    rho = squarefree_part(rho)

    unresolved = False
    for box in isolate_real_roots(rho):
        box.separate(0)
        if box.re.lo <= 0:
            continue
        c = box.rational(RATIO_HEIGHT_BOUND)
        if c is None:
            # an irrational root or a rational taller than the bound
            unresolved = True
            continue
        Wc = _horner_mod(W, rname, MPoly.const(vars2, c), f.with_vars(vars2), tau)
        Wc = Wc.with_vars((tau,))
        if _vanishes(Wc, f):
            return NON_REDUCED
        # a true root of rho always divides something off f; treat a miss honestly
        unresolved = True
    if unresolved:
        return UNDETERMINED
    return REDUCED_NONDEGENERATE


def _quadratic_root_in_base(f):
    """For degree-2 f: a linear factor tau - root over f's own coefficient
    field if one exists (None otherwise)."""
    tau = f.vars[0]
    roots = quadratic_roots(f.scalar_coeffs())
    if roots is None:
        return None
    return MPoly.variable(tau, (tau,)) - MPoly.const((tau,), roots[0])

