"""Blow-ups of plane vector fields, reduction trees, strict transforms of
curves, and vanishing orders along smooth invariant branches.

A blow-up replaces a singular point by an exceptional line and is computed in
two coordinate charts: chart 1 substitutes (x, y) -> (x, x*y) and sees the
divisor as {x = 0}; chart 2 substitutes (x, y) -> (x*y, y) and sees it as
{y = 0}.  Every chart field is returned with the maximal exceptional power
divided out.  Reduction trees iterate this until all singularities are
reduced; the "safe" variant then blows up each surviving singularity once
more, which makes strict transforms of invariant curves smooth.

Exactness policy: blown points must be rational or quadratic over the current
coefficient field.  Points of higher algebraic degree raise
BlowupUnavailableError instead of falling back to approximations, since the
trees certify reducedness and nothing numeric can.
"""

from fractions import Fraction
from math import lcm

from .mpoly import MPoly, exact_div, poly_gcd, squarefree_part
from .numbers import QuadExt, quadratic_roots
from .foliation import Foliation, _weighted_reindex
from .singularities import (
    NON_REDUCED,
    UNDETERMINED,
    ExactnessError,
    SingularPoint,
    _eval_on_cluster,
    _shift_out,
    affine_singular_points,
    classify_point,
    classify_singularity,
    infinity_singular_points,
)
from .algebraic import _resolve_clusters, _vanishes


class BlowupUnavailableError(Exception):
    """Exact blow-up unavailable: the point is algebraic of degree > 2."""


class ResolutionError(Exception):
    """Reduction could not be completed; `partial` holds the finished part."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


# -- elementary polynomial plumbing ---------------------------------------------------


def _shift(p, a, b):
    """p(x + a, y + b) for exact scalars a, b."""
    x, y = p.vars
    sx = MPoly.variable(x, p.vars) + MPoly.const(p.vars, a)
    sy = MPoly.variable(y, p.vars) + MPoly.const(p.vars, b)
    return p.subs({x: sx, y: sy})


def _eval_origin(p):
    x, y = p.vars
    return p.eval_all({x: Fraction(0), y: Fraction(0)})


def _ord(p, var):
    """Largest k with var**k dividing p; None for the zero polynomial."""
    if p.is_zero():
        return None
    i = p.vars.index(var)
    return min(e[i] for e in p.terms)


# -- the blow-up ----------------------------------------------------------------------


def blow_up(field, point):
    """Blow up one singular point of a local plane field.

    `field` is a (P, Q) pair over two variables, `point` an exact (a, b) with
    rational or quadratic-irrational coordinates.  Returns
    (chart1, chart2, l, dicritical): chart1 is the transformed pair after
    (x, y) -> (x, x*y), chart2 after (x, y) -> (x*y, y), each divided by the
    maximal power of its exceptional coordinate ({x = 0}, resp. {y = 0});
    l is that power and dicritical says the divisor is not invariant.
    """
    P, Q = field
    P, Q = P._pair(Q)
    x, y = P.vars
    a, b = point
    Pp = _shift(P, a, b)
    Qp = _shift(Q, a, b)
    if Pp.is_zero() and Qp.is_zero():
        raise ValueError("blow-up of the zero field")
    if _eval_origin(Pp) != 0 or _eval_origin(Qp) != 0:
        raise ValueError("blow-up of a regular point")
    xv = MPoly.variable(x, P.vars)
    yv = MPoly.variable(y, P.vars)

    P1 = Pp.subs({y: xv * yv})
    Q1 = Qp.subs({y: xv * yv})
    A1 = xv * P1
    B1 = Q1 - yv * P1
    l1 = min(k for k in (_ord(A1, x), _ord(B1, x)) if k is not None)
    chart1 = (_shift_out(A1, x, l1), _shift_out(B1, x, l1))

    P2 = Pp.subs({x: xv * yv})
    Q2 = Qp.subs({x: xv * yv})
    A2 = P2 - xv * Q2
    B2 = yv * Q2
    l2 = min(k for k in (_ord(A2, y), _ord(B2, y)) if k is not None)
    chart2 = (_shift_out(A2, y, l2), _shift_out(B2, y, l2))

    if l1 != l2:
        raise ArithmeticError("the two charts disagree on the exceptional power")
    dic1 = (not chart1[0].is_zero()) and _ord(chart1[0], x) == 0
    dic2 = (not chart2[1].is_zero()) and _ord(chart2[1], y) == 0
    if dic1 != dic2:
        raise ArithmeticError("the two charts disagree on divisor invariance")
    return chart1, chart2, l1, dic1


# -- exact roots of chart restrictions ------------------------------------------------


def _divisors(n):
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _rational_roots(g, var):
    """Rational roots of g (rational coefficients), by the integer divisor
    test on the cleared-denominator form.  Skipped (returns []) when the
    trailing or leading integer exceeds 10**12; the quadratic and error paths
    downstream stay honest either way."""
    vals = g.scalar_coeffs()
    den = 1
    for v in vals:
        den = lcm(den, v.denominator)
    ints = [int(v * den) for v in vals]
    lo = 0
    while ints[lo] == 0:
        lo += 1
    a0, an = ints[lo], ints[-1]
    roots = [Fraction(0)] if lo > 0 else []
    if abs(a0) > 10**12 or abs(an) > 10**12:
        return roots
    for p in _divisors(a0):
        for q in _divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                if g.eval_all({var: cand}) == 0:
                    roots.append(cand)
    return roots


def _exact_roots(g, var):
    """All roots of a univariate polynomial, each rational or quadratic over
    the coefficient field; BlowupUnavailableError beyond that."""
    g = squarefree_part(g)
    vv = MPoly.variable(var, g.vars)
    roots = []
    rational = all(isinstance(c, (int, Fraction)) for c in g.terms.values())
    if rational:
        for r in _rational_roots(g, var):
            roots.append(Fraction(r))
            g = exact_div(g, vv - MPoly.const(g.vars, r))
    d = g.deg_in(var)
    if d == 0:
        return roots
    c = g.scalar_coeffs()
    if d == 1:
        roots.append(-c[0] / c[1])
        return roots
    if d == 2:
        pair = quadratic_roots(c, adjoin=True)
        if pair is None:
            raise BlowupUnavailableError(
                "exact blow-up unavailable: root leaves the quadratic field"
            )
        return roots + list(pair)
    raise BlowupUnavailableError(
        f"exact blow-up unavailable: degree-{d} factor has no quadratic splitting"
    )


def _exceptional_singularities(chart1, chart2):
    """Exact singular points on the exceptional divisor, as (chart, point).

    Chart 1 sees every divisor point except one; the missed point is the
    chart-2 origin.
    """
    out = []
    A, B = chart1
    x, y = A.vars
    g = poly_gcd(A.coeff_in(x, 0), B.coeff_in(x, 0))
    if g.deg_in(y) > 0:
        for v0 in _exact_roots(g, y):
            out.append((1, (Fraction(0), v0)))
    P2, Q2 = chart2
    if _eval_origin(P2) == 0 and _eval_origin(Q2) == 0:
        out.append((2, (Fraction(0), Fraction(0))))
    return out


# -- reduction trees ------------------------------------------------------------------


class ResolutionNode:
    """One blow-up: the point in its parent chart, both transformed chart
    fields, the exceptional data, and what lives on the new divisor."""

    __slots__ = (
        "chart",
        "blown_point",
        "chart1",
        "chart2",
        "exceptional_multiplicity",
        "dicritical",
        "children",
        "leaf_singularities",
        "extra",
    )

    def __init__(self, chart, blown_point, chart1, chart2, ell, dicritical):
        self.chart = chart  # 0 = base affine plane, else parent chart index
        self.blown_point = blown_point
        self.chart1 = chart1
        self.chart2 = chart2
        self.exceptional_multiplicity = ell
        self.dicritical = dicritical
        self.children = []
        # (chart index, point, classification) for singularities not blown further
        self.leaf_singularities = []
        self.extra = False

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def depth(self):
        return 1 + max((c.depth() for c in self.children), default=0)

    def __repr__(self):
        tag = " extra" if self.extra else ""
        return (
            f"ResolutionNode(at {self.blown_point}, l={self.exceptional_multiplicity}, "
            f"dicritical={self.dicritical}, children={len(self.children)}{tag})"
        )


class ResolutionTree:
    """Forest of blow-up trees over the affine singular points of a foliation.

    mode "minimal": blow up until every singularity is reduced; singular
    points that were already reduced are kept in `base_reduced` untouched.
    mode "safe": additionally one blow-up at every singularity remaining
    after the minimal stage (marked extra); `base_reduced` is then empty.
    """

    __slots__ = ("foliation", "nodes", "mode", "base_reduced")

    def __init__(self, foliation, nodes, mode, base_reduced):
        self.foliation = foliation
        self.nodes = nodes
        self.mode = mode
        self.base_reduced = base_reduced

    def all_nodes(self):
        for node in self.nodes:
            yield from node.walk()

    def blowup_count(self):
        return sum(1 for _ in self.all_nodes())

    def to_json(self):
        return {
            "mode": self.mode,
            "reduced_untouched": [
                {"points": _cluster_json(sub), "classification": kind}
                for sub, kind in self.base_reduced
            ],
            "trees": [_node_json(n) for n in self.nodes],
        }

    def __repr__(self):
        return (
            f"ResolutionTree(mode={self.mode}, trees={len(self.nodes)}, "
            f"blowups={self.blowup_count()})"
        )


def _scalar_json(v):
    if isinstance(v, QuadExt):
        return repr(v)
    return str(Fraction(v))


def _point_json(pt):
    return [_scalar_json(pt[0]), _scalar_json(pt[1])]


def _cluster_json(sub):
    return {
        "modulus": str(sub.modulus),
        "x": str(sub.xt),
        "y": str(sub.yt),
        "count": sub.count,
    }


def _node_json(node):
    return {
        "parent_chart": node.chart,
        "point": _point_json(node.blown_point),
        "exceptional_multiplicity": node.exceptional_multiplicity,
        "dicritical": node.dicritical,
        "extra": node.extra,
        "leaf_singularities": [
            {"chart": tag, "point": _point_json(pt), "classification": kind}
            for tag, pt, kind in node.leaf_singularities
        ],
        "children": [_node_json(c) for c in node.children],
    }


def _reduce_at(field, point, chart_tag, budget, recurse=True):
    if budget[0] <= 0:
        raise ResolutionError("blow-up budget exhausted before reduction finished")
    budget[0] -= 1
    chart1, chart2, ell, dic = blow_up(field, point)
    node = ResolutionNode(chart_tag, point, chart1, chart2, ell, dic)
    built = {}  # chart tag -> its Foliation, built at the chart's first point
    for tag, pt in _exceptional_singularities(chart1, chart2):
        fld = chart1 if tag == 1 else chart2
        if tag not in built:
            built[tag] = Foliation(*fld)
        kind = classify_point(built[tag], pt[0], pt[1])
        if kind == UNDETERMINED:
            raise ResolutionError(
                f"undetermined classification at {pt} in chart {tag}"
            )
        if kind == NON_REDUCED and recurse:
            node.children.append(_reduce_at(fld, pt, tag, budget))
        else:
            node.leaf_singularities.append((tag, pt, kind))
    return node


def reduce_local_field(field, point, cap=50):
    """Minimal reduction of one singular point of a local (P, Q) field."""
    return _reduce_at(field, point, 0, [cap])


def _cluster_points(sub):
    try:
        return sub.exact_coords()
    except ExactnessError as e:
        raise BlowupUnavailableError(f"exact blow-up unavailable: {e}") from e


def seidenberg_reduce(F, cap=50):
    """Blow up the affine singular points of F until every one is reduced.

    Points that are already reduced are recorded but not blown.  Raises
    ResolutionError (with the finished part attached) when the per-point
    budget runs out or a classification stays undetermined, and
    BlowupUnavailableError at non-reduced points of algebraic degree > 2.
    """
    nodes = []
    base_reduced = []
    pair = (F.P, F.Q)
    for sp in affine_singular_points(F):
        for sub, kind in classify_singularity(sp):
            if kind == UNDETERMINED:
                raise ResolutionError(
                    f"undetermined classification at {sub!r}",
                    partial=ResolutionTree(F, nodes, "partial", base_reduced),
                )
            if kind != NON_REDUCED:
                base_reduced.append((sub, kind))
                continue
            for pt in _cluster_points(sub):
                try:
                    nodes.append(_reduce_at(pair, pt, 0, [cap]))
                except ResolutionError as e:
                    if e.partial is None:
                        e.partial = ResolutionTree(F, nodes, "partial", base_reduced)
                    raise
    return ResolutionTree(F, nodes, "minimal", base_reduced)


def safe_resolution(F, cap=50):
    """Minimal reduction, then one extra blow-up at each surviving singularity."""
    tree = seidenberg_reduce(F, cap)
    pair = (F.P, F.Q)
    minimal_nodes = list(tree.all_nodes())
    for node in minimal_nodes:
        remaining = list(node.leaf_singularities)
        node.leaf_singularities = []
        for tag, pt, kind in remaining:
            fld = node.chart1 if tag == 1 else node.chart2
            child = _reduce_at(fld, pt, tag, [cap], recurse=False)
            child.extra = True
            node.children.append(child)
    nodes = list(tree.nodes)
    for sub, kind in tree.base_reduced:
        for pt in _cluster_points(sub):
            extra = _reduce_at(pair, pt, 0, [cap], recurse=False)
            extra.extra = True
            nodes.append(extra)
    return ResolutionTree(F, nodes, "safe", [])


# -- strict transforms ----------------------------------------------------------------


class TransformRecord:
    """Strict transform data at one node: the multiplicity of the curve at
    the blown point and the transformed curve in each chart."""

    __slots__ = ("multiplicity", "chart1", "chart2", "children")

    def __init__(self, multiplicity, chart1, chart2, children):
        self.multiplicity = multiplicity
        self.chart1 = chart1
        self.chart2 = chart2
        self.children = children

    def multiplicity_sequence(self):
        """Multiplicities down the leftmost chain of blown points."""
        seq = [self.multiplicity]
        node = self
        while node.children:
            node = node.children[0]
            seq.append(node.multiplicity)
        return seq

    def __repr__(self):
        return (
            f"TransformRecord(m={self.multiplicity}, chart1={self.chart1}, "
            f"chart2={self.chart2})"
        )


def strict_transform(C, tree):
    """Strict transform of the affine curve {C = 0} through every tree.

    Per node: the total transform with the exceptional factor divided out, in
    both charts, plus the multiplicity of the incoming curve at the blown
    point (0 when the curve misses it, making that step the identity).
    """
    C = C.with_vars(tree.foliation.vars)
    return [_transform_node(C, node) for node in tree.nodes]


def _transform_node(C, node):
    a, b = node.blown_point
    Cp = _shift(C, a, b)
    x, y = Cp.vars
    xv = MPoly.variable(x, Cp.vars)
    yv = MPoly.variable(y, Cp.vars)
    m = Cp.min_total_degree()
    c1 = _shift_out(Cp.subs({y: xv * yv}), x, m)
    c2 = _shift_out(Cp.subs({x: xv * yv}), y, m)
    children = [
        _transform_node(c1 if child.chart == 1 else c2, child)
        for child in node.children
    ]
    return TransformRecord(m, c1, c2, children)


# -- vanishing order along a smooth invariant branch ----------------------------------


def _trunc(p, var, N):
    i = p.vars.index(var)
    return MPoly(p.vars, {e: c for e, c in p.terms.items() if e[i] <= N})


def _subst_series(f, phi, indep, dep, N):
    """f with dep replaced by phi(indep), truncated past indep**N."""
    coeffs = f.as_univar(dep)
    acc = MPoly.zero(f.vars)
    for c in reversed(coeffs):
        acc = _trunc(acc * phi, indep, N) + c
    return _trunc(acc, indep, N)


def _series_solve(f, indep, dep, N):
    """phi with phi(0) = 0 and f(indep, phi) = 0 mod indep**(N+1).

    Needs df/d(dep) nonzero at the origin (smooth, non-vertical branch); the
    linear update is exact at every order.
    """
    c0 = _eval_origin(f.diff(dep))
    if c0 == 0:
        raise ValueError("branch is vertical for this parameterization")
    iv = MPoly.variable(indep, f.vars)
    phi = MPoly.zero(f.vars)
    for n in range(1, N + 1):
        res = _subst_series(f, phi, indep, dep, n)
        i = res.vars.index(indep)
        rn = None
        for e, c in res.terms.items():
            if e[i] == n:
                rn = c if rn is None else rn + c
        if rn:
            phi = phi - (iv ** n) * (rn / c0)
    return phi


def z_index(field, branch, point, max_order=256):
    """Vanishing order of the field restricted to a smooth invariant branch.

    `field` is a (P, Q) pair, `branch` a polynomial invariant for it and
    smooth at the exact `point`.  The branch is parameterized as a truncated
    power series and the matching field component is restricted; the order of
    its first certified-nonzero coefficient is returned.  The truncation
    doubles adaptively up to max_order.
    """
    P, Q = field
    P, Q = P._pair(Q)
    branch = branch.with_vars(P.vars)
    x, y = P.vars
    Xf = branch.diff(x) * P + branch.diff(y) * Q
    if exact_div(Xf, branch) is None:
        raise ValueError("branch is not invariant")
    a, b = point
    fb = _shift(branch, a, b)
    if _eval_origin(fb) != 0:
        raise ValueError("point is not on the branch")
    Pp = _shift(P, a, b)
    Qp = _shift(Q, a, b)
    if _eval_origin(fb.diff(y)) != 0:
        indep, dep, comp = x, y, Pp
    elif _eval_origin(fb.diff(x)) != 0:
        indep, dep, comp = y, x, Qp
    else:
        raise ValueError("branch is singular at the point")
    N = 8
    while True:
        phi = _series_solve(fb, indep, dep, N)
        u = _subst_series(comp, phi, indep, dep, N)
        k = _ord(u, indep)
        if k is not None:
            return k
        if N >= max_order:
            raise ArithmeticError(
                f"restriction vanishes to order {N}; raise max_order"
            )
        N *= 2


# -- total vanishing order along an invariant curve -----------------------------------


class IndexRecord:
    __slots__ = ("chart", "point", "branch", "z_index")

    def __init__(self, chart, point, branch, z):
        self.chart = chart
        self.point = point
        self.branch = branch
        self.z_index = z

    def __repr__(self):
        return f"IndexRecord({self.chart}, {self.point}, k={self.z_index})"


def _on_curve_parts(sp, curve):
    """Subclusters of the singular cluster that lie on {curve = 0}."""
    x, y = sp.field.vars

    def on_curve(f, xt, yt):
        w = _eval_on_cluster(curve, f, xt, yt, x, y)
        return _vanishes(w, f)

    return [SingularPoint(sp.chart, sp.field, f, xt, yt, sp.milnor)
            for f, xt, yt, on in _resolve_clusters(sp.modulus, sp.xt, sp.yt, on_curve)
            if on]


def total_z(tree, C):
    """Z(F, C): summed vanishing orders over the singular points of F on the
    projective closure of {C = 0}, with the per-point records.

    `tree` may be a ResolutionTree (its root foliation is used) or a
    Foliation directly.  Points at infinity are handled in the two infinity
    charts; every contributing point must be rational or quadratic.
    Returns (z, records).
    """
    F = tree.foliation if isinstance(tree, ResolutionTree) else tree
    C = C.with_vars(F.vars)
    n = C.total_degree()
    records = []
    for sp in affine_singular_points(F):
        for sub in _on_curve_parts(sp, C):
            for pt in _cluster_points(sub):
                k = z_index((F.P, F.Q), C, pt)
                records.append(IndexRecord("affine", pt, C, k))
    charts = {}
    for sp in infinity_singular_points(F):
        which = 1 if sp.chart == "inf1" else 2
        if which not in charts:
            ch = sp.field
            charts[which] = (ch, _weighted_reindex(C, n, ch.vars, slope_var=which - 1))
        ch, curve = charts[which]
        for sub in _on_curve_parts(sp, curve):
            for pt in _cluster_points(sub):
                k = z_index((ch.P, ch.Q), curve, pt)
                records.append(IndexRecord(sp.chart, pt, curve, k))
    return sum(r.z_index for r in records), records


def resolved_total_z(tree, C):
    """Z(G, strict transform of C) for the safe-resolved model G.

    Affine scope: the sum runs over the leaf singularities recorded in the
    tree whose chart point lies on the strict transform.  Returns
    (z, records).
    """
    if not isinstance(tree, ResolutionTree) or tree.mode != "safe":
        raise ValueError("resolved accounting needs a safe resolution tree")
    transforms = strict_transform(C, tree)
    records = []

    def visit(node, rec):
        for tag, pt, kind in node.leaf_singularities:
            curve = rec.chart1 if tag == 1 else rec.chart2
            fld = node.chart1 if tag == 1 else node.chart2
            u, v = curve.vars
            if curve.eval_all({u: pt[0], v: pt[1]}) != 0:
                continue
            records.append(
                IndexRecord(f"chart{tag}", pt, curve, z_index(fld, curve, pt))
            )
        for child, crec in zip(node.children, rec.children):
            visit(child, crec)

    for node, rec in zip(tree.nodes, transforms):
        visit(node, rec)
    return sum(r.z_index for r in records), records
