"""Arithmetic in Q[x]/(f) for squarefree f, with dynamic splitting.

Conjugate roots of one squarefree polynomial are processed as a single
cluster. Whenever a computation would have to distinguish roots inside a
cluster (a quantity vanishes at some roots but not others), the gcd that
witnesses this is raised as SplitNeeded and the caller redoes the step on
each factor. Decisions stay exact and no factorization is ever required.
"""

from __future__ import annotations

from .mpoly import MPoly, exact_div, normalized, poly_divmod, poly_gcd


class SplitNeeded(Exception):
    """A proper factor of the modulus was discovered mid-computation."""

    def __init__(self, factor):
        super().__init__(f"modulus splits off {factor}")
        self.factor = factor


def mod_reduce(g, f, var):
    """g mod f: the remainder of degree below deg f in `var`.

    f is nonzero and univariate in `var`; g may hold other variables. The
    grad-lex leading monomial of f is then var**deg f, so `poly_divmod` gives
    exactly this remainder.
    """
    if g.deg_in(var) < f.deg_in(var):
        return g
    return poly_divmod(g, f)[1]


def xgcd_univar(a, b):
    """(g, s) with g = gcd(a, b) and s*a = g mod b; univariate over an exact
    field. The cofactor of b is not formed."""
    vars = a._pair(b)[0].vars
    r0, r1 = a.with_vars(vars), b.with_vars(vars)
    s0, s1 = MPoly.const(vars, 1), MPoly.zero(vars)
    while not r1.is_zero():
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    return r0, s0


def invert_mod(a, f, var):
    """Inverse of a in Q[x]/(f).

    Raises SplitNeeded when gcd(a, f) is a proper factor (a is a zero divisor
    on part of the cluster) and ZeroDivisionError when a is 0 mod f.
    """
    a = mod_reduce(a, f, var)
    if a.is_zero():
        raise ZeroDivisionError("inverse of zero in Q[x]/(f)")
    g, s = xgcd_univar(a, f)
    if g.total_degree() == 0:
        inv = s / g.constant_value()
        return mod_reduce(inv, f, var)
    # deg g <= deg a < deg f, so g is a proper factor
    raise SplitNeeded(normalized(g))


def zero_split(w, f, var):
    """Where does w vanish on the roots of f?

    Returns ('all', None) when f | w, ('none', None) when gcd is trivial, and
    ('split', h) otherwise, with h = gcd(f, w) normalized and a proper factor
    of f (deg h <= deg(w mod f) < deg f).
    """
    w = mod_reduce(w, f, var)
    if w.is_zero():
        return "all", None
    h = poly_gcd(f, w)
    if h.total_degree() == 0:
        return "none", None
    return "split", h


# -- the splitting driver ------------------------------------------------------------


def _vanishes(w, f):
    """Does w vanish at every root of f? False when it vanishes at none;
    SplitNeeded when it vanishes at some roots only."""
    status, h = zero_split(w, f, f.vars[0])
    if status == "split":
        raise SplitNeeded(h)
    return status == "all"


def _first_nonzero(groups, f):
    """Index of the first group holding a value nonzero at every root of f.

    The groups are decided in turn, so a generator builds only those it
    reaches. Every value of a group is tested, and one that is nonzero at
    every root answers for the group even after a mixed value. A group with
    no such value but a mixed one raises SplitNeeded at its first mixed
    value; a group that vanishes at every root is passed over. Returns None
    when every group vanishes.
    """
    for i, group in enumerate(groups):
        answers = [zero_split(w, f, f.vars[0]) for w in group]
        if any(status == "none" for status, _ in answers):
            return i
        for status, h in answers:
            if status == "split":
                raise SplitNeeded(h)
    return None


def _lowest_layer(polys, f):
    """The least d whose (x, y)-layer of `polys` is nonzero at every root of
    f, the (x, y) of a polynomial being its variables other than f's; None
    when every layer vanishes there. The layer of degree d holds the
    tau-coefficient of each (x, y)-monomial of degree d, those of polys[0]
    first, each in term order; `_first_nonzero` decides the layers in
    ascending d. With one (x, y)-variable, d is the order in it."""
    tau = f.vars[0]
    layers = {}
    for p in polys:
        ti = p.vars.index(tau)
        coeffs = {}
        for e, c in p.terms.items():
            coeffs.setdefault(e[:ti] + e[ti + 1:], {})[(e[ti],)] = c
        for m, terms in coeffs.items():
            layers.setdefault(sum(m), []).append(terms)
    degrees = sorted(layers)
    i = _first_nonzero(([MPoly((tau,), t) for t in layers[d]] for d in degrees), f)
    return None if i is None else degrees[i]


def _resolve_clusters(f, xt, yt, job):
    """Run job(f, xt, yt) on the cluster, splitting until every piece answers.

    The cluster is the points (xt(tau), yt(tau)) over the roots tau of f. job
    returns one answer valid at every root of its modulus, or raises
    SplitNeeded with a proper factor h of it; the driver then runs job on h
    and on the cofactor f/h, in that order and depth first, each piece
    normalized and with the coordinates reduced modulo it. Returns
    [(modulus, xt, yt, answer)] covering every root of f; an unsplit cluster
    comes back as given.

    The driver is private so that the tracer in bench/ leaves it unwrapped:
    the time of each job stays with the public function that started it.
    """
    out = []
    stack = [(f, xt, yt)]
    while stack:
        fi, xi, yi = stack.pop()
        try:
            out.append((fi, xi, yi, job(fi, xi, yi)))
        except SplitNeeded as s:
            tau = fi.vars[0]
            h = normalized(s.factor.with_vars((tau,)))
            c = exact_div(fi, h)
            if c is None:
                raise ArithmeticError("split factor does not divide the modulus")
            for g in (normalized(c), h):
                stack.append((g, mod_reduce(xi, g, tau).with_vars((tau,)),
                              mod_reduce(yi, g, tau).with_vars((tau,))))
    return out


# -- substitution, on a cluster and off it -------------------------------------------


def _horner_mod(p, v, img, f, tau):
    """p with img put in for v, by Horner in v: the package's one
    substitution, behind point shifts, shears and cluster translations.

    With a modulus f (univariate in tau) the result is reduced mod f after
    every product, so no power of img is expanded past tau-degree deg f;
    with f None nothing is reduced. p, img and f are over the same
    variables; img may hold v itself (x -> x + xt(tau), x -> x + t*y), since
    the coefficients of p in v do not."""
    coeffs = p.as_univar(v)
    if not coeffs:
        return p

    def reduced(q):
        return q if f is None else mod_reduce(q, f, tau)

    q = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        q = reduced(q * img) + c
    return reduced(q)


def _translated(field, f, xt, yt):
    """(P, Q) of field at (x + xt(tau), y + yt(tau)), reduced mod f, in the
    variables (x, y, tau): the field seen from each point of the cluster.
    `field` is a Foliation or a (P, Q) pair."""
    tau = f.vars[0]
    P, _ = field
    x, y = P.vars
    vars3 = (x, y, tau)
    f3 = f.with_vars(vars3)
    sx = MPoly.variable(x, vars3) + xt.with_vars(vars3)
    sy = MPoly.variable(y, vars3) + yt.with_vars(vars3)
    return tuple(_horner_mod(_horner_mod(p.with_vars(vars3), x, sx, f3, tau), y, sy, f3, tau)
                 for p in field)


def _eval_on_cluster(E, f, xt, yt, x, y):
    """E(xt(tau), yt(tau)) mod f, as a polynomial in tau."""
    tau = f.vars[0]
    vars3 = (x, y, tau)
    f3 = f.with_vars(vars3)
    Ex = _horner_mod(E.with_vars(vars3), x, xt.with_vars(vars3), f3, tau)
    return _horner_mod(Ex, y, yt.with_vars(vars3), f3, tau).with_vars((tau,))
