"""Arithmetic in Q[x]/(f) for squarefree f, with dynamic splitting.

Conjugate roots of one squarefree polynomial are processed as a single
cluster. Whenever a computation would have to distinguish roots inside a
cluster (a quantity vanishes at some roots but not others), the gcd that
witnesses this is raised as SplitNeeded and the caller redoes the step on
each factor. Decisions stay exact and no factorization is ever required.
"""

from __future__ import annotations

from .mpoly import MPoly, _divmod_univar, exact_div, normalized, poly_gcd


class SplitNeeded(Exception):
    """A proper factor of the modulus was discovered mid-computation."""

    def __init__(self, factor):
        super().__init__(f"modulus splits off {factor}")
        self.factor = factor


def mod_reduce(g, f, var):
    """g mod f; both univariate in `var`, f nonzero."""
    if g.deg_in(var) < f.deg_in(var):
        return g
    _, r = _divmod_univar(g, f, var)
    return r


def xgcd_univar(a, b, var):
    """(g, s, t) with s*a + t*b = g; univariate over an exact field."""
    vars = a._pair(b)[0].vars
    zero = MPoly.zero(vars)
    one = MPoly.const(vars, 1)
    r0, r1 = a.with_vars(vars), b.with_vars(vars)
    s0, s1 = one, zero
    t0, t1 = zero, one
    while not r1.is_zero():
        q, r = _divmod_univar(r0, r1, var)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return r0, s0, t0


def invert_mod(a, f, var):
    """Inverse of a in Q[x]/(f).

    Raises SplitNeeded when gcd(a, f) is a proper factor (a is a zero divisor
    on part of the cluster) and ZeroDivisionError when a is 0 mod f.
    """
    a = mod_reduce(a, f, var)
    if a.is_zero():
        raise ZeroDivisionError("inverse of zero in Q[x]/(f)")
    g, s, _ = xgcd_univar(a, f, var)
    if g.total_degree() == 0:
        inv = s / g.constant_value()
        return mod_reduce(inv, f, var)
    gn = normalized(g)
    if gn.deg_in(var) == f.deg_in(var):
        raise ZeroDivisionError("inverse of zero in Q[x]/(f)")
    raise SplitNeeded(gn)


def zero_split(w, f, var):
    """Where does w vanish on the roots of f?

    Returns ('all', None) when f | w, ('none', None) when gcd is trivial, and
    ('split', (h, c)) otherwise with h = gcd(f, w), c = f/h both nonconstant.
    """
    w = mod_reduce(w, f, var)
    if w.is_zero():
        return "all", None
    h = poly_gcd(f, w)
    if h.total_degree() == 0:
        return "none", None
    c = exact_div(f, h)
    if c is None:
        raise ArithmeticError("gcd failed to divide its argument")
    if c.total_degree() == 0:
        return "all", None
    return "split", (normalized(h), normalized(c))


def eval_bivar_mod(F, y_rule, f, xvar, yvar):
    """F(x, y_rule(x)) reduced mod f(x); Horner in the y direction."""
    if F.deg_in(yvar) < 0:
        return MPoly.zero(F.vars)
    coeffs = F.as_univar(yvar)
    vars = F._pair(y_rule)[0].vars
    acc = MPoly.zero(vars)
    for c in reversed(coeffs):
        acc = mod_reduce(acc * y_rule + c, f, xvar)
    return acc


# -- the splitting driver ------------------------------------------------------------


def _split_of(status_payload):
    """The status of a zero_split answer; a "split" is raised as SplitNeeded."""
    status, payload = status_payload
    if status == "split":
        raise SplitNeeded(payload[0])
    return status


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
