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

from .mpoly import MPoly, _shift_out, exact_div, poly_gcd
from .numbers import quadratic_roots
from .roots import rational_roots
from .foliation import (
    _aligned,
    _derivation,
    _squarefree_on_line,
    _weighted_reindex,
    _zero_at_origin,
)
from .singularities import (
    NON_REDUCED,
    UNDETERMINED,
    ExactnessError,
    SingularPoint,
    affine_singular_points,
    classify_point,
    classify_singularity,
    milnor_number,
    singular_points,
)
from .algebraic import _eval_on_cluster, _horner_mod, _resolve_clusters, _vanishes


class BlowupUnavailableError(Exception):
    """Exact blow-up unavailable: the point is algebraic of degree > 2."""


class ResolutionError(Exception):
    """Reduction could not be completed; `partial` holds the finished part."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


# -- elementary polynomial plumbing ---------------------------------------------------


def _shift(p, a, b):
    """p(x + a, y + b) for exact scalars a, b, one Horner pass per nonzero
    coordinate (most blown points are the origin)."""
    for v, c in zip(p.vars, (a, b)):
        if c:
            p = _horner_mod(p, v, MPoly.variable(v, p.vars) + c, None, None)
    return p


def _chart_maps(p):
    """p(x, x*y) and p(x*y, y), p read in the two charts of a blow-up, as
    exponent maps: x^i y^j goes to x^(i+j) y^j and to x^i y^(i+j)."""
    return (MPoly(p.vars, {(i + j, j): c for (i, j), c in p.terms.items()}),
            MPoly(p.vars, {(i, i + j): c for (i, j), c in p.terms.items()}))


def _ord(p, var):
    """Largest k with var**k dividing p; None for the zero polynomial."""
    if p.is_zero():
        return None
    i = p.vars.index(var)
    return min(e[i] for e in p.terms)


# -- the blow-up ----------------------------------------------------------------------


def blow_up(field, point):
    """Blow up one singular point of a local plane field.

    `field` is a Foliation or a coprime (P, Q) pair over two variables, and
    `point` an exact (a, b) with rational or quadratic-irrational coordinates.
    Returns (chart1, chart2, l, dicritical): chart1 is the transformed pair
    after (x, y) -> (x, x*y), chart2 after (x, y) -> (x*y, y), each divided by
    the maximal power of its exceptional coordinate ({x = 0}, resp. {y = 0});
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
    if not _zero_at_origin((Pp, Qp)):
        raise ValueError("blow-up of a regular point")
    xv = MPoly.variable(x, P.vars)
    yv = MPoly.variable(y, P.vars)
    (P1, P2), (Q1, Q2) = _chart_maps(Pp), _chart_maps(Qp)

    A1 = xv * P1
    B1 = Q1 - yv * P1
    l1 = min(k for k in (_ord(A1, x), _ord(B1, x)) if k is not None)
    chart1 = (_shift_out(A1, x, l1), _shift_out(B1, x, l1))

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


def _exact_roots(g, var):
    """All roots of a squarefree univariate polynomial, each rational or
    quadratic over the coefficient field; BlowupUnavailableError beyond that."""
    vv = MPoly.variable(var, g.vars)
    roots = rational_roots(g) if g.is_rational() else []
    for r in roots:
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
    x, y = chart1[0].vars
    g = _squarefree_on_line(chart1, x, y)
    if g is not None:
        for v0 in _exact_roots(g, y):
            out.append((1, (Fraction(0), v0)))
    if _zero_at_origin(chart2):
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

    def __init__(self, chart, blown_point, chart1, chart2, ell, dicritical, extra):
        self.chart = chart  # 0 = base affine plane, else parent chart index
        self.blown_point = blown_point
        self.chart1 = chart1
        self.chart2 = chart2
        self.exceptional_multiplicity = ell
        self.dicritical = dicritical
        self.children = []
        # (chart index, point, classification) for singularities not blown further
        self.leaf_singularities = []
        self.extra = extra  # the one blow-up the safe stage adds at a leftover point

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


def _point_json(pt):
    return [str(pt[0]), str(pt[1])]


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
    """Blow up `point` of the coprime `field`, classify each divisor point on
    its chart pair, and blow up the non-reduced ones in turn.

    No chart needs a gcd. In chart 1, with P1 = P(x, x*y), Q1 = Q(x, x*y), an
    irreducible common factor h of (x*P1, Q1 - y*P1) / x**l is not x by the
    choice of l, so it divides P1 and Q1; (x, y) -> (x, x*y) is an isomorphism
    off {x = 0}, so P and Q vanish on the image of {h = 0}, a common factor.
    Chart 2 is alike, and so is a translation, over Q or any Q(sqrt d).
    """
    if budget[0] <= 0:
        raise ResolutionError("blow-up budget exhausted before reduction finished")
    budget[0] -= 1
    chart1, chart2, ell, dic = blow_up(field, point)
    node = ResolutionNode(chart_tag, point, chart1, chart2, ell, dic, not recurse)
    for tag, pt in _exceptional_singularities(chart1, chart2):
        fld = chart1 if tag == 1 else chart2
        kind = classify_point(fld, *pt)
        if kind == NON_REDUCED and recurse:
            node.children.append(_reduce_at(fld, pt, tag, budget))
        else:
            node.leaf_singularities.append((tag, pt, kind))
    return node


def reduce_local_field(field, point, cap=50):
    """Minimal reduction of one singular point of a local field: a Foliation
    or a (P, Q) pair, which must be coprime."""
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
                    nodes.append(_reduce_at(F, pt, 0, [cap]))
                except ResolutionError as e:
                    if e.partial is None:
                        e.partial = ResolutionTree(F, nodes, "partial", base_reduced)
                    raise
    return ResolutionTree(F, nodes, "minimal", base_reduced)


def safe_resolution(F, cap=50):
    """Minimal reduction, then one extra blow-up at each surviving singularity."""
    tree = seidenberg_reduce(F, cap)
    for node in list(tree.all_nodes()):
        for tag, pt, _ in node.leaf_singularities:
            fld = node.chart1 if tag == 1 else node.chart2
            node.children.append(_reduce_at(fld, pt, tag, [cap], recurse=False))
        node.leaf_singularities = []
    nodes = list(tree.nodes)
    for sub, _ in tree.base_reduced:
        nodes += [_reduce_at(F, pt, 0, [cap], recurse=False) for pt in _cluster_points(sub)]
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
    C = _aligned(C, tree.foliation.vars)
    return [_transform_node(C, node) for node in tree.nodes]


def _transform_node(C, node):
    a, b = node.blown_point
    Cp = _shift(C, a, b)
    x, y = Cp.vars
    m = Cp.min_total_degree()
    c1, c2 = _chart_maps(Cp)
    c1, c2 = _shift_out(c1, x, m), _shift_out(c2, y, m)
    children = [
        _transform_node(c1 if child.chart == 1 else c2, child)
        for child in node.children
    ]
    return TransformRecord(m, c1, c2, children)


# -- vanishing order along a smooth invariant branch ----------------------------------


def z_index(field, branch, point):
    """Vanishing order of the field restricted to a smooth invariant branch.

    `field` is a Foliation or a coprime (P, Q) pair, `branch` a polynomial
    invariant for it and smooth at the exact `point`. The matching component
    is P where the branch is not vertical (d branch/dy != 0 at the point),
    else Q. For a parametrization g of the branch, ord_t comp(g(t)) is the
    intersection number of branch and comp at the point (Fulton, Algebraic
    Curves, 3.3), which is the Milnor number of the pair (branch, comp).
    A factor the two share away from the point (an invariant vertical line
    divides P, a horizontal one Q) is a unit there and is divided out first;
    one through the point is refused with ArithmeticError.

    It is finite: let B be the component of the branch through the point.
    By invariance P*B_x + Q*B_y = h*B, so if P vanished on a non-vertical B,
    Q*B_y would too, and Q with it, a common factor of the coprime P and Q;
    a vertical B swaps them.
    """
    P, Q = field
    P, Q = P._pair(Q)
    branch = branch.with_vars(P.vars)
    x, y = P.vars
    if exact_div(_derivation((P, Q), branch), branch) is None:
        raise ValueError("branch is not invariant")
    at = dict(zip(P.vars, point))
    if branch.eval_all(at) != 0:
        raise ValueError("point is not on the branch")
    if branch.diff(y).eval_all(at) != 0:
        comp = P
    elif branch.diff(x).eval_all(at) != 0:
        comp = Q
    else:
        raise ValueError("branch is singular at the point")
    g = poly_gcd(branch, comp)
    if g.eval_all(at) == 0:
        raise ArithmeticError(f"branch and field component share the factor {g} "
                              "through the point")
    return milnor_number((exact_div(branch, g), exact_div(comp, g)), point)


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
    C = _aligned(C, F.vars)
    n = C.total_degree()
    curves = {"affine": C}  # C in the coordinates of each chart
    records = []
    for sp in singular_points(F):
        ch = sp.field
        if sp.chart not in curves:
            slope_var = 0 if sp.chart == "inf1" else 1
            curves[sp.chart] = _weighted_reindex(C, n, ch.vars, slope_var=slope_var)
        curve = curves[sp.chart]
        for sub in _on_curve_parts(sp, curve):
            for pt in _cluster_points(sub):
                records.append(IndexRecord(sp.chart, pt, curve, z_index(ch, curve, pt)))
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
