"""Certified isolation of real and complex roots of rational polynomials.

Real roots come from the Descartes bisection of Collins and Akritas, in the
Taylor-shift form of Rouillier and Zimmermann: the denominators of f are
cleared once, and every node of the bisection tree carries an integer
polynomial, a positive multiple of f(a + (b - a) s) on its interval [a, b],
whose children come from halving coefficients and one shift by 1, with integer
additions only. Refinement bisects on the sign of f at a rational N/D, read
from an integer homogeneous Horner sum. A real box has one separation loop,
`RootBox.separate(q)`, which refines it until it leaves out a rational q or is
pinned to its root, and one rational-root test, `RootBox.rational(height)`,
which names the only rational of at most that height the box can hold and
tests it by that sign; `rational_roots(f)` asks it of every real root of f at
the height the rational-root theorem bounds. Complex roots come from the
real/imaginary-part system: resultants propose candidate rectangles, interval
evaluation rejects empty ones, and a Krawczyk operator certifies existence and
uniqueness. Interval evaluation runs on integer endpoints over one common
denominator: each box variable's endpoints share a denominator, the
coefficients are cleared by `mpoly._integer_coeffs`, and one Fraction pair is
built at the end, equal to the one the Fraction computation gives. A Krawczyk
step evaluates the system and its Jacobian on one power table per box and
their exact midpoint values on one per midpoint. `poly_image(g)` evaluates a
polynomial g on root boxes the same way: on the interval of a real box, on
the rectangle of a nonreal one through the real and imaginary parts of g,
and exactly on a box pinned to its root, whose intervals are points. Every
certificate is exact arithmetic; no floating point enters any decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, lcm

from .mpoly import MPoly, _integer_coeffs, resultant, squarefree_part
from .numbers import fraction_height, simplest_between


class IsolationError(Exception):
    """Raised when a refinement loop exceeds its safety budget."""


# -- rational intervals ------------------------------------------------------------


class Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        if type(lo) is not Fraction:
            lo = Fraction(lo)
        if type(hi) is not Fraction:
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
        if not isinstance(other, Interval):
            # a scalar: two products, ordered by its sign
            q = Fraction(other)
            a, b = self.lo * q, self.hi * q
            return Interval(a, b) if q >= 0 else Interval(b, a)
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def contains(self, q):
        return self.lo <= q <= self.hi

    def contains_zero(self):
        return self.lo <= 0 <= self.hi

    def width(self):
        return self.hi - self.lo

    def magnitude(self):
        """max |q| over the interval."""
        return max(-self.lo, self.hi)

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


def _round_outward(iv, within):
    """Enclose `iv` in an interval with dyadic endpoints of bounded bit size,
    clipped to `within`; `iv` itself when the rounded interval misses it.

    Exact Krawczyk steps square the denominator size each round; rounding the
    bounds outward to a grid about 2^10 times finer than the current width
    keeps the arithmetic bounded without losing the enclosure.
    """
    rounded = iv
    w = iv.width()
    if w:
        inv = 1024 / w
        k = max((inv.numerator // inv.denominator).bit_length() + 1, 1)
        scale = 1 << k
        rounded = Interval(Fraction(floor(iv.lo * scale), scale),
                           Fraction(ceil(iv.hi * scale), scale))
    return rounded.intersect(within) or iv


def interval_eval(f, box):
    """Evaluate an MPoly over a dict var -> Interval (scalars allowed).

    The result is the Fraction interval computation term by term: the k-th
    power of a variable is the (k-1)-th times the first, each term is its
    coefficient times its powers in `f.vars` order, every product is the
    min and max of four endpoint products, and the terms are summed. It is
    carried out on integers: each variable's endpoints are put over one
    denominator d, its k-th power is kept times d^top (top its largest
    exponent in f), and the coefficients are scaled by the lcm L of their
    denominators. Every step is then the Fraction step times a positive
    constant, which moves no min or max, so the endpoints equal those of the
    Fraction computation; one division by L * prod(d^top) at the end gives
    them.
    """
    form = _integer_form(f)
    tables = [
        _power_table(_as_interval(box[v]), top) if top else None
        for v, top in zip(f.vars, form[2])
    ]
    return _form_image(form, tables)


# Interval evaluation on integers. An integer form of a polynomial is
# (L, terms, tops): L the lcm of its coefficient denominators, terms the pairs
# (L * c, exponent), and tops the largest exponent of each variable. A power
# table of an interval for a top is (D, pairs): pairs[k] is D times its k-th
# iterated interval power, as integers, with D = d^top.


def _integer_form(f):
    scale, ints = _integer_coeffs(f.terms.values())
    terms = list(zip(ints, f.terms))
    tops = [max((e[i] for e in f.terms), default=0) for i in range(len(f.vars))]
    return scale, terms, tops


def _power_table(iv, top):
    lo, hi = iv.lo, iv.hi
    d = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    b = hi.numerator * (d // hi.denominator)
    pairs = [(1, 1), (a, b)]
    for _ in range(top - 1):
        p, q = pairs[-1]
        products = (p * a, p * b, q * a, q * b)
        pairs.append((min(products), max(products)))
    scaled = [(p * d ** (top - k), q * d ** (top - k)) for k, (p, q) in enumerate(pairs[: top + 1])]
    return d**top, scaled


def _integer_image(form, tables):
    """The numerators (lo, hi) of f over a box, over the denominator
    L * prod(D) of the form and its tables (a table per variable of positive
    top, None for the others)."""
    _, terms, _ = form
    lo_sum = hi_sum = 0
    for c, e in terms:
        lo = hi = c
        for k, table in zip(e, tables):
            if table is None:
                continue
            a, b = table[1][k]
            if lo == hi:
                lo, hi = (lo * a, lo * b) if lo >= 0 else (lo * b, lo * a)
            else:
                products = (lo * a, lo * b, hi * a, hi * b)
                lo, hi = min(products), max(products)
        lo_sum += lo
        hi_sum += hi
    return lo_sum, hi_sum


def _form_image(form, tables):
    """f over a box as an Interval, from its integer form and power tables."""
    den = form[0]
    for table in tables:
        if table is not None:
            den *= table[0]
    lo, hi = _integer_image(form, tables)
    return Interval(Fraction(lo, den), Fraction(hi, den))


# -- dense univariate helpers -------------------------------------------------------


def _shift_one(c):
    """Replace the integer coefficients of f(x) by those of f(x + 1), in place,
    with n(n + 1)/2 additions."""
    n = len(c) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += c[j + 1]


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


def _sign_at(c, q):
    """Sign of f(q) for integer coefficients c and a rational q = N/D: the sign
    of the homogeneous Horner sum of c_i N^i D^(n-i), as D > 0."""
    num, den = q.numerator, q.denominator
    acc = c[-1]
    power = 1
    for coef in reversed(c[:-1]):
        power *= den
        acc = acc * num + coef * power
    return (acc > 0) - (acc < 0)


def _cauchy_bound(c):
    return Fraction(max(abs(a) for a in c[:-1]), abs(c[-1])) + 1


# -- root boxes ----------------------------------------------------------------------


class RootBox:
    """One certified root of a squarefree rational polynomial in `var`.

    `re` and `im` are rational intervals; real roots have the point interval
    [0, 0] for `im`. `refine()` at least halves the box width while keeping the
    root inside. `exact` carries the value when the root is known exactly,
    and the intervals are then points. The box keeps only what refinement
    reads, not the polynomial.
    """

    __slots__ = ("var", "re", "im", "exact", "_state")

    def __init__(self, var, re, im, exact=None, state=None):
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
        # the sign of f at the lower end never changes: the end only moves to
        # a midpoint where f has that sign
        _, coeffs, lo_sign = self._state
        a, b = self.re.lo, self.re.hi
        m = (a + b) / 2
        sign = _sign_at(coeffs, m)
        if sign == 0:
            self.re = Interval.point(m)
            self.exact = m
            return
        if sign != lo_sign:
            self.re = Interval(a, m)
        else:
            self.re = Interval(m, b)

    def separate(self, q):
        """Refine a real box until it leaves out the rational q or is pinned
        to its root."""
        for _ in range(500):
            if self.exact is not None or not self.re.contains(q):
                return
            self.refine()
        raise IsolationError(f"root box would not separate from {q}")

    def rational(self, height):
        """The root of a real box if it is a rational of height at most
        `height`, else None.

        Rationals of height <= H are at least 1/H^2 apart, so once the box is
        at most 1/(2H^2) wide it holds at most one of them, and that one has
        the smallest denominator in the box: the candidate is
        `simplest_between` of the box, tested exactly by the sign of the
        box's integer polynomial at it.
        """
        target = Fraction(1, 2 * height * height)
        while self.exact is None and self.re.width() > target:
            self.refine()
        c = self.exact
        if c is None:
            c = simplest_between(self.re.lo, self.re.hi)
        if fraction_height(c) > height:
            return None
        if self.exact is None and _sign_at(self._state[1], c) != 0:
            return None
        return c

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


def _squarefree_dense(f):
    """(dense, var): the dense coefficients of the squarefree part of the
    univariate f and its variable; None when f is a nonzero constant."""
    sf = squarefree_part(f)
    dense = sf.scalar_coeffs()
    if len(dense) <= 1:
        if dense and dense[0] != 0:
            return None
        raise ValueError("cannot isolate roots of the zero polynomial")
    return dense, sf.drop_vars().vars[0]


def isolate_real_roots(f):
    """Certified disjoint intervals, one per distinct real root of f.

    f may have multiple roots; isolation runs on the squarefree part. Returned
    boxes are sorted by position and never share endpoints with a root.
    """
    prepared = _squarefree_dense(f)
    return [] if prepared is None else _isolate_real_squarefree(*prepared)


def rational_roots(f):
    """The distinct rational roots of the univariate rational f, ordered by
    (|N|, D, positive first) for a root N/D.

    A rational root N/D in lowest terms of the integer form of f divides its
    lowest nonzero coefficient by N and its leading one by D (the rational
    root theorem), so its height is at most the larger of the two; each real
    root box is asked for its rational of at most that height.
    """
    boxes = isolate_real_roots(f)
    _, ints = _integer_coeffs(f.scalar_coeffs())
    lowest = next(c for c in ints if c)
    height = max(abs(lowest), abs(ints[-1]))
    found = (box.rational(height) for box in boxes)
    return sorted((q for q in found if q is not None),
                  key=lambda q: (abs(q.numerator), q.denominator, q < 0))


def _deflate(c, q):
    """Integer coefficients of c(x) / (D x - N) for a root q = N/D of c; by
    Gauss's lemma the quotient has integer coefficients."""
    num, den = q.numerator, q.denominator
    n = len(c) - 1
    out = [0] * n
    acc = c[n]
    for k in range(n - 1, -1, -1):
        out[k], rem = divmod(acc, den)
        if rem:
            raise ArithmeticError("deflation by a non-root")
        acc = c[k] + num * out[k]
    if acc != 0:
        raise ArithmeticError("deflation by a non-root")
    return out


def _bisection_pass(c):
    """Isolating intervals for all roots of the integer polynomial `c`, or an
    exact rational root discovered at a bisection midpoint (signalled for
    deflation).

    The tree bisects [-M, M], M the Cauchy bound. The node k at depth d is the
    interval [-M + 2Mk/2^d, -M + 2M(k+1)/2^d] and carries a positive multiple
    p of f on it, rescaled to [0, 1]: the Descartes bound for its roots is the
    variation count of the reversed p shifted by 1. The left child is
    2^n p(s/2), the right child the left one shifted by 1, and the right
    child's constant term is a positive multiple of f at the midpoint.
    """
    n = len(c) - 1
    M = _cauchy_bound(c)
    num, den = M.numerator, M.denominator

    def point(k, d):
        return Fraction(num * (2 * k - (1 << d)), den << d)

    # den^n f(-M(1 + y)) at y = -2s is den^n f(-M + 2Ms)
    root = [coef * (-num) ** i * den ** (n - i) for i, coef in enumerate(c)]
    _shift_one(root)
    root = [coef * (-2) ** i for i, coef in enumerate(root)]
    out = []
    stack = [(0, 0, root)]
    budget = 20000
    while stack:
        budget -= 1
        if budget < 0:
            raise IsolationError("real root isolation exceeded its subdivision budget")
        k, d, p = stack.pop()
        test = p[::-1]
        _shift_one(test)
        v = _variations(test)
        if v == 0:
            continue
        if v == 1:
            out.append((point(k, d), point(k + 1, d)))
            continue
        left = [coef << (n - i) for i, coef in enumerate(p)]
        right = left[:]
        _shift_one(right)
        if right[0] == 0:
            return None, point(2 * k + 1, d + 1)
        stack.append((2 * k, d + 1, left))
        stack.append((2 * k + 1, d + 1, right))
    return out, None


def _real_isolation(dense):
    """Isolating intervals of the squarefree rational polynomial `dense`, the
    rational roots found at bisection midpoints in the order they were
    deflated out, and the integer coefficients left after deflation."""
    # Each deflation restarts the pass; this keeps every surviving interval's
    # endpoints off the root set, which the sign-based refiner relies on.
    work = _integer_coeffs(dense)[1]
    exact_roots = []
    while len(work) > 1:
        intervals, hit = _bisection_pass(work)
        if hit is None:
            return intervals, exact_roots, work
        exact_roots.append(hit)
        work = _deflate(work, hit)
    return [], exact_roots, work


def _isolate_real_squarefree(dense, var):
    intervals, exact_roots, work = _real_isolation(dense)
    boxes = []
    for a, b in intervals:
        sa = _sign_at(work, a)
        sb = _sign_at(work, b)
        if sa == 0 or sb == 0 or sa == sb:
            raise IsolationError("isolating interval lost its sign change")
        box = RootBox(var, Interval(a, b), Interval.point(0), state=("real", work, sa))
        for q in exact_roots:
            box.separate(q)
        boxes.append(box)
    for q in exact_roots:
        boxes.append(RootBox(var, Interval.point(q), Interval.point(0), exact=q))
    boxes.sort(key=lambda r: (r.re.lo, r.re.hi))
    for left, right in zip(boxes, boxes[1:]):
        if left.re.hi > right.re.lo and not (left.re.is_point() or right.re.is_point()):
            raise IsolationError("real isolation produced overlapping intervals")
    return boxes


# -- complex isolation ----------------------------------------------------------------


class _ComplexSystem:
    """The real/imaginary pair R(re,im), I(re,im) of f(re + i*im), with the
    Jacobian data a Krawczyk step needs."""

    def __init__(self, dense):
        R, I = _re_im(dense)
        self.R = R
        self.I = I
        # integer forms of R, I and the Jacobian entries R_re, R_im, I_re,
        # I_im, evaluated on one pair of power tables per box; the last box's
        # tables are kept, since might_contain and krawczyk are asked about
        # the same box in turn
        jacobian = [p.diff(v) for p in (R, I) for v in ("re", "im")]
        self._forms = [_integer_form(p) for p in (R, I, *jacobian)]
        self._top = len(dense) - 1
        self._last = None

    def _tables(self, ia, ib):
        if self._last is None or self._last[0] != (ia, ib):
            self._last = (ia, ib), [_power_table(ia, self._top), _power_table(ib, self._top)]
        return self._last[1]

    def might_contain(self, ia, ib):
        tables = self._tables(ia, ib)
        for form in self._forms[:2]:
            lo, hi = _integer_image(form, tables)
            if lo > 0 or hi < 0:
                return False
        return True

    def krawczyk(self, ia, ib):
        """Returns ('unique', box), ('empty', None) or ('unknown', shrunk box)."""
        ma, mb = ia.mid(), ib.mid()
        at_mid = [_power_table(Interval.point(m), self._top) for m in (ma, mb)]
        fa, fb, j11, j12, j21, j22 = (_form_image(form, at_mid).lo for form in self._forms)
        det = j11 * j22 - j12 * j21
        if det == 0:
            return "unknown", (ia, ib)
        y11, y12 = j22 / det, -j12 / det
        y21, y22 = -j21 / det, j11 / det
        tables = self._tables(ia, ib)
        J11, J12, J21, J22 = (_form_image(form, tables) for form in self._forms[2:])
        # centered form: K(X) = m - Y*f(m) + (E - Y*J(X))*(X - m), and X - m
        # is exactly [-w/2, w/2], so each row of the product is plus or minus
        # the entrywise magnitudes of E - Y*J(X) times the half widths (so the
        # signs of the off-diagonal entries drop out)
        e11, e12, e21, e22 = (e.magnitude() for e in (
            1 - (y11 * J11 + y12 * J21), y11 * J12 + y12 * J22,
            y21 * J11 + y22 * J21, 1 - (y21 * J12 + y22 * J22)))
        ha, hb = ia.width() / 2, ib.width() / 2
        ca, ra = ma - (y11 * fa + y12 * fb), e11 * ha + e12 * hb
        cb, rb = mb - (y21 * fa + y22 * fb), e21 * ha + e22 * hb
        ka, kb = Interval(ca - ra, ca + ra), Interval(cb - rb, cb + rb)
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
        na = _round_outward(na, ia)
        nb = _round_outward(nb, ib)
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
                    survivors.append((st, (_round_outward(bx[0], ha), _round_outward(bx[1], hb))))
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


def isolate_roots(f):
    """All distinct roots of f as certified boxes: real ones first (sorted),
    then complex conjugate pairs ordered by real part."""
    prepared = _squarefree_dense(f)
    if prepared is None:
        return []
    dense, var = prepared
    real_boxes = _isolate_real_squarefree(dense, var)
    n = len(dense) - 1
    n_pairs, rem = divmod(n - len(real_boxes), 2)
    if rem:
        raise IsolationError("parity mismatch between degree and real root count")
    if n_pairs == 0:
        return real_boxes
    system = _ComplexSystem(dense)
    upper = _isolate_upper_half(system, n_pairs)
    complex_boxes = []
    for ia, ib in upper:
        exact = (ia.lo, ib.lo) if ia.is_point() and ib.is_point() else None
        mirror = (ia.lo, -ib.lo) if exact else None
        complex_boxes.append(
            RootBox(var, ia, ib, exact=exact, state=("complex", system))
        )
        complex_boxes.append(
            RootBox(var, ia, -ib, exact=mirror, state=("complex", system))
        )
    complex_boxes.sort(key=lambda r: (r.re.lo, r.im.lo))
    return real_boxes + complex_boxes


def _isolate_upper_half(system, n_pairs):
    R, I = system.R, system.I
    res_im = resultant(R, I, "im")  # rational polynomial in re
    res_re = resultant(R, I, "re")  # rational polynomial in im
    if res_im.is_zero() or res_re.is_zero():
        raise IsolationError("real/imaginary parts unexpectedly share a factor")
    a_boxes = isolate_real_roots(res_im.drop_vars())
    b_all = isolate_real_roots(res_re.drop_vars())
    # keep only strictly positive imaginary candidates; a box that straddles
    # a root at 0 is the root interval [-M, M], which its first midpoint pins
    b_boxes = []
    for rb in b_all:
        rb.separate(0)
        if rb.re.lo > 0:
            b_boxes.append(rb)
    certified = []
    candidates = [(ra, rb) for ra in a_boxes for rb in b_boxes]

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
                # both coordinates known exactly, from isolation or refinement
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
                certified.append((_round_outward(box[0], ia), _round_outward(box[1], ib)))
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


def _re_im(dense):
    """Real and imaginary parts R(re, im), I(re, im) of f(re + i*im), for f
    given by its dense coefficient list."""
    vars2 = ("re", "im")
    R = MPoly.zero(vars2)
    I = MPoly.zero(vars2)
    a = MPoly.variable("re", vars2)
    b = MPoly.variable("im", vars2)
    for coef in reversed(dense):
        R, I = R * a - I * b, R * b + I * a
        R = R + MPoly.const(vars2, coef)
    return R, I


def poly_image(g):
    """The certified enclosure of g at a root box, as a function of the box.

    g has rational coefficients and one variable, the one the boxes isolate.
    The function returns g(alpha) as (re, im) intervals for the root alpha in
    a box: on a real box it is g over the box's interval, and on a nonreal
    one the real and imaginary parts of g(re + i*im) over its rectangle, from
    one (R, I) pair built at the first nonreal box. A box pinned to an exact
    root has point intervals, over which the evaluation is exact.
    """
    pair = []

    def image(box):
        if box.is_real():
            return interval_eval(g, {box.var: box.re}), Interval.point(0)
        if not pair:
            pair.extend(_re_im(g.scalar_coeffs()))
        at = {"re": box.re, "im": box.im}
        return interval_eval(pair[0], at), interval_eval(pair[1], at)

    return image
