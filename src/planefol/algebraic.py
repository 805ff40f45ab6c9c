"""Arithmetic in Q[x]/(f) for squarefree f, with dynamic splitting.

Conjugate roots of one squarefree polynomial are processed as a single
cluster. Whenever a computation would have to distinguish roots inside a
cluster (a quantity vanishes at some roots but not others), the gcd that
witnesses this is raised as SplitNeeded and the caller redoes the step on
each factor. Decisions stay exact and no factorization is ever required.

Remainders mod f and the Horner substitution run on one private kernel,
`_Ring`: an element of Q[x, y][tau]/(f) is a dict from its (x, y)-exponent
to the dense list of its tau-coefficients, ints over one denominator,
reduced by a top-down fold against the nonzero terms of f. Rational data is
scaled to ints; QuadExt data runs through the same loops unscaled. The
public functions take and return `MPoly`; `invert_mod`, `xgcd_univar` and
the gcd of `zero_split` still compute on it.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .mpoly import (
    MPoly,
    _gradlex_key,
    _integer_coeffs,
    exact_div,
    normalized,
    poly_divmod,
    poly_gcd,
)


class SplitNeeded(Exception):
    """A proper factor of the modulus was discovered mid-computation."""

    def __init__(self, factor):
        super().__init__(f"modulus splits off {factor}")
        self.factor = factor


def mod_reduce(g, f, var):
    """g mod f: the remainder of degree below deg f in `var`.

    f is nonzero and univariate in `var`; g may hold other variables. g comes
    back as it is when its degree is below deg f; otherwise one fold of
    `_Ring` gives the remainder, the one `poly_divmod` would (the grad-lex
    leading monomial of f is var**deg f), with its terms in grad-lex order.
    """
    if g.deg_in(var) < f.deg_in(var):
        return g
    g = g._pair(f)[0]
    ring = _Ring(f, var, (g,))
    ti = g.vars.index(var)
    table, den = ring.element(g, ti)
    return ring.poly(table, ring.reduce(table, den), g.vars, ti)


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
        # deg s < deg f, so the inverse is reduced already
        return s / g.constant_value()
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


# -- the integer kernel for Q[x, y][tau]/(f) ----------------------------------------


class _Ring:
    """Arithmetic in Q[x, y][tau]/(f), or in Q[x, y] when f is None, for one
    call: f is read once, and the polynomials are converted in once and out
    once.

    An element is a pair (table, den): table maps the exponent of a term in
    the variables other than tau to the dense list of its tau-coefficients
    (index = power), and den is their common denominator. As in
    `bareiss_det`, rational data is scaled to ints (`_integer_coeffs`) and
    data with a QuadExt coefficient runs through the same loops unscaled,
    with den 1. A top coefficient c is folded away by subtracting c * inv
    times the lower terms of f. With ints, inv is 1 and a non-monic f is
    pseudo-divided: the row is multiplied by lc(f) first, and the power of
    lc(f) joins den. With field scalars, inv is 1/lc(f), and every zero sum
    is put back to 0 after each operation, as sparse arithmetic drops it, so
    each coefficient keeps the scalar type an MPoly computation gives it.
    """

    __slots__ = ("integral", "n", "tail", "lc", "inv")

    def __init__(self, f, tau, polys):
        self.integral = all(p.is_rational() for p in polys) and (f is None or f.is_rational())
        if f is None:
            self.n = None
            return
        i = f.vars.index(tau)
        self.n = n = f.deg_in(tau)
        dense = [Fraction(0)] * (n + 1)
        for e, c in f.terms.items():
            dense[e[i]] = c
        if self.integral:
            dense = _integer_coeffs(dense)[1]
            self.lc, self.inv = dense[n], 1
        else:
            self.lc, self.inv = 1, 1 / dense[n]
        self.tail = [(j, c) for j, c in enumerate(dense[:n]) if c]

    def element(self, p, ti):
        """(table, den) of p, tau at slot ti of its exponents; with ti None
        every row has length one."""
        terms = p.terms
        den, coeffs = _integer_coeffs(terms.values()) if self.integral else (1, terms.values())
        table = {}
        for e, c in zip(terms, coeffs):
            if ti is None:
                m, k = e, 0
            else:
                m, k = e[:ti] + e[ti + 1:], e[ti]
            row = table.get(m)
            if row is None:
                row = table[m] = [0] * (k + 1)
            elif len(row) <= k:
                row.extend([0] * (k + 1 - len(row)))
            row[k] = c
        return table, den

    def poly(self, table, den, vars, ti):
        """The MPoly over vars of (table, den), terms in grad-lex order."""
        terms = []
        for m, row in table.items():
            for k, c in enumerate(row):
                if c:
                    terms.append((m if ti is None else m[:ti] + (k,) + m[ti:],
                                  Fraction(c, den) if self.integral else c))
        terms.sort(key=lambda t: _gradlex_key(t[0]), reverse=True)
        return MPoly(vars, dict(terms))

    def _clean(self, table):
        # a zero sum of field scalars is dropped by sparse arithmetic
        if not self.integral:
            for row in table.values():
                row[:] = [c if c else 0 for c in row]

    def reduce(self, table, den):
        """Fold every row of table below tau^n, in place, top down against
        the nonzero terms of f; returns the new denominator."""
        if self.n is None:
            return den
        n, tail, lc, inv = self.n, self.tail, self.lc, self.inv
        steps = {}
        for m, row in table.items():
            s = 0
            for k in range(len(row) - 1, n - 1, -1):
                c = row.pop()
                if c:
                    if lc != 1:
                        row[:] = [a * lc for a in row]
                        s += 1
                    c = c * inv
                    for j, fj in tail:
                        row[k - n + j] -= c * fj
            if s:
                steps[m] = s
        if steps:
            top = max(steps.values())
            for m, row in table.items():
                s = top - steps.get(m, 0)
                if s:
                    scale = lc ** s
                    row[:] = [a * scale for a in row]
            den *= lc ** top
        self._clean(table)
        return den

    def mul(self, a, b):
        """Product of two tables, rows convolved over the nonzero entries."""
        out = {}
        for m2, r2 in b.items():
            nz = [(j, c) for j, c in enumerate(r2) if c]
            for m1, r1 in a.items():
                m = tuple(map(operator.add, m1, m2))
                size = len(r1) + len(r2) - 1
                acc = out.get(m)
                if acc is None:
                    acc = out[m] = [0] * size
                elif len(acc) < size:
                    acc.extend([0] * (size - len(acc)))
                for i, c1 in enumerate(r1):
                    if c1:
                        for j, c2 in nz:
                            acc[i + j] += c1 * c2
        self._clean(out)
        return out

    def horner(self, table, den, vi, image):
        """(table, den) with image put in for the variable at slot vi of the
        table's keys, by Horner, reduced mod f after every product. image is
        a (table, den) pair and may hold that variable itself."""
        img, iden = image
        coeffs = {}
        for m, row in table.items():
            coeffs.setdefault(m[vi], {})[m[:vi] + (0,) + m[vi + 1:]] = row
        if not coeffs:
            return table, den
        top = max(coeffs)
        q, qden = coeffs[top], den
        for j in range(top - 1, -1, -1):
            q = self.mul(q, img)
            qden = self.reduce(q, qden * iden)
            c = coeffs.get(j)
            if c:
                # qden is den times powers of iden and lc, so den divides it
                s = qden // den
                for m, row in c.items():
                    if s != 1:
                        row = [a * s for a in row]
                    acc = q.get(m)
                    if acc is None:
                        q[m] = row
                        continue
                    if len(acc) < len(row):
                        acc.extend([0] * (len(row) - len(acc)))
                    for i, a in enumerate(row):
                        if a:
                            acc[i] += a
                self._clean(q)
        return q, self.reduce(q, qden)


# -- substitution, on a cluster and off it -------------------------------------------


def _horner_mod(p, v, img, f, tau):
    """p with img put in for v, by Horner in v: the package's one
    substitution, behind point shifts, shears and cluster translations.

    With a modulus f (univariate in tau) the result is reduced mod f after
    every product, so no power of img is expanded past tau-degree deg f;
    with f None nothing is reduced. p, img and f are over the same
    variables; img may hold v itself (x -> x + xt(tau), x -> x + t*y), since
    the coefficients of p in v do not. One pass of `_Ring`."""
    ring = _Ring(f, tau, (p, img))
    ti = None if f is None else p.vars.index(tau)
    vi = p.vars.index(v)
    if ti is not None and ti < vi:
        vi -= 1
    q, den = ring.horner(*ring.element(p, ti), vi, ring.element(img, ti))
    return ring.poly(q, den, p.vars, ti)


def _cluster_images(ring, tau, xt, yt, shift):
    """The images of x and y as elements keyed by (x, y)-exponents: x + xt(tau)
    and y + yt(tau) with shift, xt(tau) and yt(tau) without."""
    out = []
    for unit, c in (((1, 0), xt), ((0, 1), yt)):
        table, den = ring.element(c.with_vars((tau,)), 0)
        img = {(0, 0): table[()]} if table else {}
        if shift:
            img[unit] = [den]
        out.append((img, den))
    return out


def _translated(field, f, xt, yt):
    """(P, Q) of field at (x + xt(tau), y + yt(tau)), reduced mod f, in the
    variables (x, y, tau): the field seen from each point of the cluster.
    `field` is a Foliation or a (P, Q) pair. Each polynomial makes one pass
    of `_Ring`, the substitution of x and then of y."""
    tau = f.vars[0]
    P, _ = field
    x, y = P.vars
    ring = _Ring(f, tau, (*field, xt, yt))
    images = _cluster_images(ring, tau, xt, yt, True)
    out = []
    for p in field:
        q, den = ring.element(p.with_vars((x, y)), None)
        for vi, img in enumerate(images):
            q, den = ring.horner(q, den, vi, img)
        out.append(ring.poly(q, den, (x, y, tau), 2))
    return tuple(out)


def _eval_on_cluster(E, f, xt, yt, x, y):
    """E(xt(tau), yt(tau)) mod f, as a polynomial in tau; E is over (x, y).
    One pass of `_Ring`, as in `_translated`."""
    tau = f.vars[0]
    ring = _Ring(f, tau, (E, xt, yt))
    q, den = ring.element(E.with_vars((x, y)), None)
    for vi, img in enumerate(_cluster_images(ring, tau, xt, yt, False)):
        q, den = ring.horner(q, den, vi, img)
    return ring.poly({(): q[(0, 0)]} if q else {}, den, (tau,), 0)
