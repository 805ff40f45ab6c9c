"""Certified isolation of real and complex roots of rational polynomials.

Real roots come from Descartes' rule applied to Moebius-transformed coefficient
lists, with bisection until each interval carries variation count 0 or 1.
Complex roots come from the real/imaginary-part system: resultants propose
candidate rectangles, interval evaluation rejects empty ones, and a Krawczyk
operator certifies existence and uniqueness. Every certificate is rational
arithmetic; no floating point enters any decision.
"""

from __future__ import annotations

from fractions import Fraction

from .mpoly import MPoly, exact_div, normalized, poly_gcd, resultant, squarefree_part


class IsolationError(Exception):
    """Raised when a refinement loop exceeds its safety budget."""


# -- rational intervals ------------------------------------------------------------


class Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = Fraction(lo)
        hi = Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, q):
        return cls(q, q)

    def __add__(self, other):
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-_as_interval(other))

    def __rsub__(self, other):
        return _as_interval(other) + (-self)

    def __mul__(self, other):
        other = _as_interval(other)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __pow__(self, k):
        if k == 0:
            return Interval(1, 1)
        result = self
        for _ in range(k - 1):
            result = result * self
        # even powers of straddling intervals are nonnegative
        if k % 2 == 0 and self.contains_zero():
            result = Interval(0, result.hi)
        return result

    def contains(self, q):
        return self.lo <= q <= self.hi

    def contains_zero(self):
        return self.lo <= 0 <= self.hi

    def width(self):
        return self.hi - self.lo

    def mid(self):
        return (self.lo + self.hi) / 2

    def intersects(self, other):
        return self.lo <= other.hi and other.lo <= self.hi

    def intersect(self, other):
        if not self.intersects(other):
            return None
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def strictly_inside(self, other):
        return other.lo < self.lo and self.hi < other.hi

    def is_point(self):
        return self.lo == self.hi

    def __repr__(self):
        return f"[{self.lo}, {self.hi}]"

    def __eq__(self, other):
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))


def _as_interval(x):
    if isinstance(x, Interval):
        return x
    return Interval.point(Fraction(x))


def _round_outward(iv, extra_bits=10):
    """Enclose `iv` in an interval with dyadic endpoints of bounded bit size.

    Exact Krawczyk steps square the denominator size each round; rounding the
    bounds outward to a grid a little finer than the current width keeps the
    arithmetic bounded without losing the enclosure.
    """
    from math import ceil, floor

    w = iv.width()
    if w == 0:
        return iv
    inv = (1 << extra_bits) / w
    k = max((inv.numerator // inv.denominator).bit_length() + 1, 1)
    scale = 1 << k
    lo = Fraction(floor(iv.lo * scale), scale)
    hi = Fraction(ceil(iv.hi * scale), scale)
    return Interval(lo, hi)


def interval_eval(f, box):
    """Evaluate an MPoly over a dict var -> Interval (scalars allowed)."""
    box = {v: _as_interval(iv) for v, iv in box.items()}
    total = Interval(0, 0)
    powers = {v: [Interval(1, 1), iv] for v, iv in box.items()}

    def pw(v, k):
        cache = powers[v]
        while len(cache) <= k:
            cache.append(cache[-1] * cache[1])
        return cache[k]

    for e, c in f.terms.items():
        term = Interval.point(c)
        for v, k in zip(f.vars, e):
            if k:
                term = term * pw(v, k)
        total = total + term
    return total


# -- dense univariate helpers -------------------------------------------------------


def _dense(f, var):
    d = f.deg_in(var)
    if d < 0:
        return []
    out = [Fraction(0)] * (d + 1)
    i = f.vars.index(var)
    for e, c in f.terms.items():
        out[e[i]] = c
    return out


def _eval_dense(c, x):
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def _shift_dense(c, a):
    """Coefficients of f(x + a)."""
    c = list(c)
    n = len(c) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _variations(c):
    sign = 0
    count = 0
    for coef in c:
        if not coef:
            continue
        s = 1 if coef > 0 else -1
        if sign and s != sign:
            count += 1
        sign = s
    return count


def _descartes_count(c, a, b):
    """Descartes bound for the number of roots in the open interval (a, b)."""
    # g(t) = f(a + (b - a) t), then the 0-1 Moebius test on (0, 1)
    g = _shift_dense(c, a)
    scale = b - a
    power = Fraction(1)
    g = list(g)
    for i in range(len(g)):
        g[i] *= power
        power *= scale
    h = _shift_dense(list(reversed(g)), Fraction(1))
    return _variations(h)


def _cauchy_bound(c):
    lead = c[-1]
    m = max((abs(ai / lead) for ai in c[:-1]), default=Fraction(0))
    return m + 1


# -- root boxes ----------------------------------------------------------------------


class RootBox:
    """One certified root of a squarefree rational polynomial.

    `re` and `im` are rational intervals; real roots have the point interval
    [0, 0] for `im`. `refine()` at least halves the box width while keeping the
    root inside. `exact` carries the value when the root is a known rational.
    """

    __slots__ = ("poly", "var", "re", "im", "exact", "_state")

    def __init__(self, poly, var, re, im, exact=None, state=None):
        self.poly = poly
        self.var = var
        self.re = re
        self.im = im
        self.exact = exact
        self._state = state

    def is_real(self):
        return self.im.lo == 0 and self.im.hi == 0

    def is_exact(self):
        return self.exact is not None

    def width(self):
        return max(self.re.width(), self.im.width())

    def refine(self):
        if self.exact is not None:
            return
        kind = self._state[0]
        if kind == "real":
            self._refine_real()
        else:
            self._refine_complex()

    def _refine_real(self):
        _, dense = self._state
        a, b = self.re.lo, self.re.hi
        m = (a + b) / 2
        fm = _eval_dense(dense, m)
        if fm == 0:
            self.re = Interval.point(m)
            self.exact = m
            return
        fa = _eval_dense(dense, a)
        if (fa > 0) != (fm > 0):
            self.re = Interval(a, m)
        else:
            self.re = Interval(m, b)

    def _refine_complex(self):
        _, system = self._state
        box = system.contract(self.re, self.im)
        self.re, self.im = box

    def __repr__(self):
        if self.exact is not None:
            return f"RootBox(exact={self.exact})"
        if self.is_real():
            return f"RootBox(re={self.re})"
        return f"RootBox(re={self.re}, im={self.im})"


# -- real isolation -----------------------------------------------------------------


def isolate_real_roots(f, var=None):
    """Certified disjoint intervals, one per distinct real root of f.

    f may have multiple roots; isolation runs on the squarefree part. Returned
    boxes are sorted by position and never share endpoints with a root.
    """
    if var is None:
        var = _single_var(f)
    sf = squarefree_part(f)
    dense = _dense(sf, var)
    if len(dense) <= 1:
        if dense and dense[0] != 0:
            return []
        raise ValueError("cannot isolate roots of the zero polynomial")
    return _isolate_real_squarefree(sf, dense, var)


def _synth_div(dense, r):
    """Exact division by (x - r); the remainder must vanish."""
    n = len(dense) - 1
    q = [Fraction(0)] * n
    acc = dense[n]
    for k in range(n - 1, -1, -1):
        q[k] = acc
        acc = dense[k] + acc * r
    if acc != 0:
        raise ArithmeticError("deflation by a non-root")
    return q


def _bisection_pass(dense):
    """Isolating intervals for all roots of `dense`, or an exact rational root
    discovered at a bisection midpoint (signalled for deflation)."""
    out = []
    M = _cauchy_bound(dense)
    stack = [(-M, M)]
    budget = 20000
    while stack:
        budget -= 1
        if budget < 0:
            raise IsolationError("real root isolation exceeded its subdivision budget")
        a, b = stack.pop()
        v = _descartes_count(dense, a, b)
        if v == 0:
            continue
        if v == 1:
            out.append((a, b))
            continue
        m = (a + b) / 2
        if _eval_dense(dense, m) == 0:
            return None, m
        stack.append((a, m))
        stack.append((m, b))
    return out, None


def _isolate_real_squarefree(sf, dense, var):
    # Rational roots found at bisection midpoints are deflated out and the
    # pass restarts; this keeps every surviving interval's endpoints off the
    # root set, which the sign-based refiner relies on.
    work = list(dense)
    exact_roots = []
    intervals = []
    while len(work) > 1:
        intervals, hit = _bisection_pass(work)
        if hit is None:
            break
        exact_roots.append(hit)
        work = _synth_div(work, hit)
    else:
        intervals = []
    boxes = []
    for a, b in intervals:
        iv = Interval(a, b)
        fa = _eval_dense(work, a)
        fb = _eval_dense(work, b)
        if fa == 0 or fb == 0 or (fa > 0) == (fb > 0):
            raise IsolationError("isolating interval lost its sign change")
        box = RootBox(sf, var, iv, Interval.point(0), state=("real", work))
        # shrink until no deflated rational root sits inside the interval
        for q in exact_roots:
            guard = 200
            while box.re.contains(q) and box.exact is None:
                box.refine()
                guard -= 1
                if guard < 0:
                    raise IsolationError("could not separate interval from a rational root")
        boxes.append(box)
    for q in exact_roots:
        boxes.append(
            RootBox(sf, var, Interval.point(q), Interval.point(0), exact=q, state=("real", work))
        )
    boxes.sort(key=lambda r: (r.re.lo, r.re.hi))
    for left, right in zip(boxes, boxes[1:]):
        if left.re.hi > right.re.lo and not (left.re.is_point() or right.re.is_point()):
            raise IsolationError("real isolation produced overlapping intervals")
    return boxes


def _single_var(f):
    live = [v for i, v in enumerate(f.vars) if any(e[i] for e in f.terms)]
    if len(live) != 1:
        raise ValueError(f"{f} is not univariate")
    return live[0]


# -- complex isolation ----------------------------------------------------------------


class _ComplexSystem:
    """The real/imaginary pair R(re,im), I(re,im) of f(re + i*im), with the
    Jacobian data a Krawczyk step needs."""

    def __init__(self, dense):
        vars = ("re", "im")
        R = MPoly.zero(vars)
        I = MPoly.zero(vars)
        a = MPoly.variable("re", vars)
        b = MPoly.variable("im", vars)
        for coef in reversed(dense):
            R, I = R * a - I * b, R * b + I * a
            R = R + MPoly.const(vars, coef)
        self.R = R
        self.I = I
        self.Ra = R.diff("re")
        self.Rb = R.diff("im")
        self.Ia = I.diff("re")
        self.Ib = I.diff("im")

    def might_contain(self, ia, ib):
        box = {"re": ia, "im": ib}
        return interval_eval(self.R, box).contains_zero() and interval_eval(
            self.I, box
        ).contains_zero()

    def krawczyk(self, ia, ib):
        """Returns ('unique', box), ('empty', None) or ('unknown', shrunk box)."""
        ma, mb = ia.mid(), ib.mid()
        point = {"re": ma, "im": mb}
        fa = self.R.eval_all(point)
        fb = self.I.eval_all(point)
        j11 = self.Ra.eval_all(point)
        j12 = self.Rb.eval_all(point)
        j21 = self.Ia.eval_all(point)
        j22 = self.Ib.eval_all(point)
        det = j11 * j22 - j12 * j21
        if det == 0:
            return "unknown", (ia, ib)
        y11, y12 = j22 / det, -j12 / det
        y21, y22 = -j21 / det, j11 / det
        box = {"re": ia, "im": ib}
        J11 = interval_eval(self.Ra, box)
        J12 = interval_eval(self.Rb, box)
        J21 = interval_eval(self.Ia, box)
        J22 = interval_eval(self.Ib, box)
        # E - Y * J(X)
        e11 = 1 - (y11 * J11 + y12 * J21)
        e12 = -(y11 * J12 + y12 * J22)
        e21 = -(y21 * J11 + y22 * J21)
        e22 = 1 - (y21 * J12 + y22 * J22)
        da = ia - ma
        db = ib - mb
        ka = (ma - (y11 * fa + y12 * fb)) + (e11 * da + e12 * db)
        kb = (mb - (y21 * fa + y22 * fb)) + (e21 * da + e22 * db)
        if not ka.intersects(ia) or not kb.intersects(ib):
            return "empty", None
        if ka.strictly_inside(ia) and kb.strictly_inside(ib):
            return "unique", (ka.intersect(ia), kb.intersect(ib))
        return "unknown", (ka.intersect(ia), kb.intersect(ib))

    def contract(self, ia, ib):
        status, box = self.krawczyk(ia, ib)
        if status == "empty":
            raise IsolationError("refinement lost its root")
        na, nb = box
        na = _round_outward(na).intersect(ia) or na
        nb = _round_outward(nb).intersect(ib) or nb
        if na.width() > ia.width() / 2 or nb.width() > ib.width() / 2:
            # force progress by bisecting the wider side and keeping the half
            # the Krawczyk image still meets
            if ia.width() >= ib.width():
                m = ia.mid()
                halves = [((Interval(ia.lo, m)), ib), ((Interval(m, ia.hi)), ib)]
            else:
                m = ib.mid()
                halves = [(ia, Interval(ib.lo, m)), (ia, Interval(m, ib.hi))]
            survivors = []
            for ha, hb in halves:
                st, bx = self.krawczyk(ha, hb)
                if st == "unique" or (st == "unknown" and self.might_contain(*bx)):
                    ra = _round_outward(bx[0]).intersect(ha) or bx[0]
                    rb = _round_outward(bx[1]).intersect(hb) or bx[1]
                    survivors.append((st, (ra, rb)))
            for st, bx in survivors:
                if st == "unique":
                    return bx
            if len(survivors) == 1:
                return survivors[0][1]
            if survivors:
                # both halves inconclusive: fall back to the sound enclosure
                return na, nb
            raise IsolationError("contraction failed to keep the root")
        return na, nb


def isolate_roots(f, var=None):
    """All distinct roots of f as certified boxes: real ones first (sorted),
    then complex conjugate pairs ordered by real part."""
    if var is None:
        var = _single_var(f)
    sf = squarefree_part(f)
    dense = _dense(sf, var)
    if len(dense) <= 1:
        if dense and dense[0] != 0:
            return []
        raise ValueError("cannot isolate roots of the zero polynomial")
    real_boxes = _isolate_real_squarefree(sf, dense, var)
    n = len(dense) - 1
    n_pairs, rem = divmod(n - len(real_boxes), 2)
    if rem:
        raise IsolationError("parity mismatch between degree and real root count")
    if n_pairs == 0:
        return real_boxes
    system = _ComplexSystem(dense)
    upper = _isolate_upper_half(sf, dense, var, system, n_pairs)
    complex_boxes = []
    for ia, ib in upper:
        exact = (ia.lo, ib.lo) if ia.is_point() and ib.is_point() else None
        mirror = (ia.lo, -ib.lo) if exact else None
        complex_boxes.append(
            RootBox(sf, var, ia, ib, exact=exact, state=("complex", system))
        )
        complex_boxes.append(
            RootBox(sf, var, ia, -ib, exact=mirror, state=("complex", system))
        )
    complex_boxes.sort(key=lambda r: (r.re.lo, r.im.lo))
    return real_boxes + complex_boxes


def _isolate_upper_half(sf, dense, var, system, n_pairs):
    R, I = system.R, system.I
    res_im = resultant(R, I, "im")  # rational polynomial in re
    res_re = resultant(R, I, "re")  # rational polynomial in im
    if res_im.is_zero() or res_re.is_zero():
        raise IsolationError("real/imaginary parts unexpectedly share a factor")
    a_boxes = isolate_real_roots(res_im.drop_vars(), "re")
    b_all = isolate_real_roots(res_re.drop_vars(), "im")
    # keep only strictly positive imaginary candidates; an isolating interval
    # with zero strictly inside isolates the root 0 itself (real direction)
    zero_is_root = res_re.eval_all({"im": Fraction(0), "re": Fraction(0)}) == 0
    b_boxes = []
    for rb in b_all:
        if rb.exact is not None:
            if rb.exact > 0:
                b_boxes.append(rb)
            continue
        if zero_is_root and rb.re.lo < 0 < rb.re.hi:
            continue
        guard = 200
        while rb.re.contains(Fraction(0)) and rb.exact is None:
            rb.refine()
            guard -= 1
            if guard < 0:
                raise IsolationError("could not separate an imaginary candidate from zero")
        if rb.exact is not None:
            if rb.exact > 0:
                b_boxes.append(rb)
        elif rb.re.lo > 0:
            b_boxes.append(rb)
    certified = []
    candidates = []
    for ra in a_boxes:
        for rb in b_boxes:
            if ra.exact is not None and rb.exact is not None:
                point = {"re": ra.exact, "im": rb.exact}
                if system.R.eval_all(point) == 0 and system.I.eval_all(point) == 0:
                    certified.append(
                        (Interval.point(ra.exact), Interval.point(rb.exact))
                    )
                continue
            candidates.append((ra, rb))

    def cand_box(ra, rb):
        # an exactly known coordinate is inflated to match its partner's
        # width: Krawczyk needs roughly square boxes to contract into
        wa = ra.re.width() if ra.exact is None else None
        wb = rb.re.width() if rb.exact is None else None
        cap = Fraction(1, 64)
        floor = Fraction(1, 1 << 60)
        if wa is None:
            eps = min(cap, max((wb or cap) / 4, floor))
            ia = Interval(ra.exact - eps, ra.exact + eps)
        else:
            ia = ra.re
        if wb is None:
            eps = min(cap, max((wa or cap) / 4, floor))
            ib = Interval(rb.exact - eps, rb.exact + eps)
        else:
            ib = rb.re
        return ia, ib

    rounds = 0
    while candidates:
        rounds += 1
        if rounds > 200:
            raise IsolationError("complex certification exceeded its refinement budget")
        keep = []
        for ra, rb in candidates:
            if ra.exact is not None and rb.exact is not None:
                # refinement pinned both coordinates exactly mid-flight
                point = {"re": ra.exact, "im": rb.exact}
                if system.R.eval_all(point) == 0 and system.I.eval_all(point) == 0:
                    certified.append(
                        (Interval.point(ra.exact), Interval.point(rb.exact))
                    )
                continue
            ia, ib = cand_box(ra, rb)
            if not system.might_contain(ia, ib):
                continue
            status, box = system.krawczyk(ia, ib)
            if status == "unique":
                ka = _round_outward(box[0]).intersect(ia) or box[0]
                kb = _round_outward(box[1]).intersect(ib) or box[1]
                certified.append((ka, kb))
            elif status == "unknown":
                # refine the wider of the two tracked coordinates
                wa = ra.re.width() if ra.exact is None else Fraction(0)
                wb = rb.re.width() if rb.exact is None else Fraction(0)
                if wa >= wb and ra.exact is None:
                    ra.refine()
                elif rb.exact is None:
                    rb.refine()
                elif ra.exact is None:
                    ra.refine()
                keep.append((ra, rb))
        candidates = keep
    if len(certified) != n_pairs:
        raise IsolationError(
            f"certified {len(certified)} conjugate pairs, expected {n_pairs}"
        )
    return certified


# -- deciding vanishing at a certified root --------------------------------------------


def vanishes_at(g, root):
    """Does the univariate rational polynomial g vanish at the root in `root`?

    Decided exactly through gcd structure: with f the defining polynomial and
    h = gcd(f, g), the root satisfies g = 0 iff it is a root of h rather than
    of the cofactor f/h. Interval evaluation separates the two.
    """
    f = root.poly
    var = root.var
    if g.is_zero():
        return True
    h = poly_gcd(f, g)
    if h.is_constant():
        return False
    if root.exact is not None and root.is_real():
        return _eval_dense(_dense(g, var), root.exact) == 0
    c = exact_div(f, h)
    if c is None:
        raise ArithmeticError("gcd failed to divide")
    if c.is_constant():
        return True
    guard = 300
    while True:
        box = {var: root.re} if root.is_real() else None
        if root.is_real():
            hv = interval_eval(h, box)
            cv = interval_eval(c, box)
            if not hv.contains_zero():
                return False
            if not cv.contains_zero():
                return True
        else:
            hr, hi = _complex_pair(h, var)
            cr, ci = _complex_pair(c, var)
            b2 = {"re": root.re, "im": root.im}
            if not interval_eval(hr, b2).contains_zero() or not interval_eval(
                hi, b2
            ).contains_zero():
                return False
            if not interval_eval(cr, b2).contains_zero() or not interval_eval(
                ci, b2
            ).contains_zero():
                return True
        root.refine()
        guard -= 1
        if guard < 0:
            raise IsolationError("vanishing test exceeded its refinement budget")


_pair_cache = {}


def _complex_pair(g, var):
    key = (g.vars, frozenset(g.terms.items()), var)
    hit = _pair_cache.get(key)
    if hit is not None:
        return hit
    dense = _dense(g, var)
    vars2 = ("re", "im")
    R = MPoly.zero(vars2)
    I = MPoly.zero(vars2)
    a = MPoly.variable("re", vars2)
    b = MPoly.variable("im", vars2)
    for coef in reversed(dense):
        R, I = R * a - I * b, R * b + I * a
        R = R + MPoly.const(vars2, coef)
    _pair_cache[key] = (R, I)
    return R, I


def poly_image_box(g, box):
    """Certified enclosure of g(alpha) as (re, im) intervals, alpha in `box`.

    g has rational coefficients and one variable, the one the box isolates.
    """
    var = box.var
    if box.is_exact():
        if isinstance(box.exact, tuple):
            R, I = _complex_pair(g, var)
            at = {"re": Fraction(box.exact[0]), "im": Fraction(box.exact[1])}
            return Interval.point(R.eval_all(at)), Interval.point(I.eval_all(at))
        v = _eval_dense(_dense(g, var), box.exact)
        return Interval.point(v), Interval.point(Fraction(0))
    if box.is_real():
        iv = interval_eval(g, {var: box.re})
        return iv, Interval.point(Fraction(0))
    R, I = _complex_pair(g, var)
    at = {"re": box.re, "im": box.im}
    return interval_eval(R, at), interval_eval(I, at)
