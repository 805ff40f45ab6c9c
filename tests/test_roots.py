import hashlib
import json
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from planefol import roots
from planefol.cli import main
from planefol.mpoly import MPoly, parse_poly, squarefree_part
from planefol.roots import (
    Interval,
    IsolationError,
    RootBox,
    interval_eval,
    isolate_real_roots,
    isolate_roots,
)


def test_interval_arithmetic():
    a = Interval(1, 2)
    b = Interval(-1, 3)
    assert (a + b) == Interval(0, 5)
    assert (a - b) == Interval(-2, 3)
    assert (a * b) == Interval(-2, 6)
    assert (b ** 2) == Interval(0, 9)
    assert a.mid() == Fraction(3, 2)
    assert b.contains_zero() and not a.contains_zero()


def test_interval_eval_contains_range():
    f = parse_poly("x^2 - 2*x", vars=("x",))
    iv = interval_eval(f, {"x": Interval(0, 2)})
    # true range is [-1, 0]; the interval hull must contain it
    assert iv.lo <= -1 and iv.hi >= 0


def test_real_roots_simple():
    f = parse_poly("x^2 - 2", vars=("x",))
    roots = isolate_real_roots(f)
    assert len(roots) == 2
    neg, pos = roots
    for _ in range(20):
        neg.refine()
        pos.refine()
    assert neg.re.hi < 0 < pos.re.lo
    assert pos.re.contains(Fraction(14142, 10000)) or pos.re.lo > Fraction(14142, 10000)
    assert pos.re.width() <= Fraction(1, 2 ** 15)


def test_real_roots_rational_detected():
    f = parse_poly("(x - 1/2)*(x + 3)*(x^2 + 1)", vars=("x",))
    roots = isolate_real_roots(f)
    assert len(roots) == 2
    # exact pinning of rational roots is opportunistic; the boxes are the contract
    for r in roots:
        assert r.im.is_point() and r.im.lo == 0
    lo, hi = roots
    assert lo.re.contains(Fraction(-3))
    assert hi.re.contains(Fraction(1, 2))


def test_real_roots_multiplicity_collapsed():
    f = parse_poly("(x - 1)^3 * (x + 2)", vars=("x",))
    roots = isolate_real_roots(f)
    assert len(roots) == 2


def test_real_roots_of_root_free_poly():
    assert isolate_real_roots(parse_poly("x^2 + 1", vars=("x",))) == []


def test_real_roots_match_sympy_counts():
    for text in ["x^3 - 3*x + 1", "x^5 - x - 1", "x^4 - 5*x^2 + 6", "x^6 - 1"]:
        f = parse_poly(text, vars=("x",))
        distinct = len(set(sympy.Poly(sympy.sympify(text.replace("^", "**"))).real_roots()))
        assert len(isolate_real_roots(f)) == distinct


def test_complex_roots_quadratic():
    f = parse_poly("x^2 + 1", vars=("x",))
    roots = isolate_roots(f)
    assert len(roots) == 2
    up = [r for r in roots if r.im.lo > 0]
    down = [r for r in roots if r.im.hi < 0]
    assert len(up) == 1 and len(down) == 1
    assert up[0].re.contains(Fraction(0))
    assert up[0].im.contains(Fraction(1))


def test_complex_roots_cyclotomic():
    # x^4 + x^3 + x^2 + x + 1: four primitive fifth roots of unity
    f = parse_poly("x^4 + x^3 + x^2 + x + 1", vars=("x",))
    roots = isolate_roots(f)
    assert len(roots) == 4
    assert all(not r.is_real() for r in roots)
    # all on the unit circle: |z|^2 = 1
    for r in roots:
        for _ in range(10):
            r.refine()
        norm = r.re * r.re + r.im * r.im
        assert norm.contains(Fraction(1))


def test_complex_roots_mixed():
    f = parse_poly("(x - 2) * (x^2 + x + 1)", vars=("x",))
    roots = isolate_roots(f)
    assert len(roots) == 3
    reals = [r for r in roots if r.is_real()]
    assert len(reals) == 1
    assert reals[0].re.contains(Fraction(2))
    others = [r for r in roots if not r.is_real()]
    for r in others:
        for _ in range(8):
            r.refine()
        assert r.re.contains(Fraction(-1, 2))


def test_cube_roots_of_unity():
    f = parse_poly("x^3 - 1", vars=("x",))
    roots = isolate_roots(f)
    assert len(roots) == 3
    reals = [r for r in roots if r.is_real()]
    assert len(reals) == 1 and reals[0].re.contains(Fraction(1))


def test_refine_complex_shrinks():
    f = parse_poly("x^2 - 2*x + 5", vars=("x",))  # roots 1 +- 2i
    roots = isolate_roots(f)
    r = [b for b in roots if b.im.lo > 0][0]
    w0 = r.width()
    for _ in range(12):
        r.refine()
    assert r.width() < w0 / 100
    assert r.re.contains(Fraction(1)) and r.im.contains(Fraction(2))


@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=5, unique=True))
@settings(max_examples=25, deadline=None)
def test_isolation_finds_all_integer_roots(roots_list):
    vars = ("x",)
    f = MPoly.const(vars, 1)
    x = MPoly.variable("x", vars)
    for r in roots_list:
        f = f * (x - r)
    boxes = isolate_real_roots(f)
    assert len(boxes) == len(roots_list)
    for r in sorted(roots_list):
        assert any(b.re.contains(Fraction(r)) for b in boxes)


@given(
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-2, max_value=2),
)
@settings(max_examples=20, deadline=None)
def test_complex_count_matches_degree(a, b, c):
    # (x^2 - 2ax + a^2 + b^2) has roots a +- bi
    vars = ("x",)
    x = MPoly.variable("x", vars)
    f = (x * x - 2 * a * x + (a * a + b * b)) * (x - c)
    boxes = isolate_roots(f)
    assert len(boxes) == 3
    ups = [r for r in boxes if r.im.lo > 0]
    assert len(ups) == 1
    for _ in range(10):
        ups[0].refine()
    assert ups[0].re.contains(Fraction(a)) and ups[0].im.contains(Fraction(b))


def test_mignotte_isolation_stays_on_integers(wall_clock_ceiling):
    # a Mignotte polynomial: two roots within 10^-23 of 1/60 force a deep tree,
    # which took about 1.4 s with Fraction shifts at every node
    f = parse_poly("x^24 - 2*(60*x - 1)^2", vars=("x",))
    with wall_clock_ceiling(0.5):
        boxes = isolate_real_roots(f)
    assert len(boxes) == 4


# -- the integer Descartes tree: the same isolation as the Fraction one -------------
#
# The reference is the Fraction kernel the integer one replaced: every node
# shifts the original coefficients to its interval, and the midpoint and
# refinement signs come from Fraction Horner evaluation.


def _shift_dense_reference(c, a):
    c = list(c)
    n = len(c) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            c[j] += a * c[j + 1]
    return c


def _eval_dense_reference(c, x):
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * x + coef
    return acc


def _descartes_count_reference(c, a, b):
    g = _shift_dense_reference(c, a)
    power = Fraction(1)
    for i in range(len(g)):
        g[i] *= power
        power *= b - a
    return roots._variations(_shift_dense_reference(list(reversed(g)), Fraction(1)))


def _bisection_pass_reference(dense):
    lead = dense[-1]
    M = max(abs(ai / lead) for ai in dense[:-1]) + 1
    out = []
    stack = [(-M, M)]
    while stack:
        a, b = stack.pop()
        v = _descartes_count_reference(dense, a, b)
        if v == 0:
            continue
        if v == 1:
            out.append((a, b))
            continue
        m = (a + b) / 2
        if _eval_dense_reference(dense, m) == 0:
            return None, m
        stack.append((a, m))
        stack.append((m, b))
    return out, None


def _synth_div_reference(dense, r):
    n = len(dense) - 1
    q = [Fraction(0)] * n
    acc = dense[n]
    for k in range(n - 1, -1, -1):
        q[k] = acc
        acc = dense[k] + acc * r
    assert acc == 0
    return q


def _real_isolation_reference(dense):
    work = list(dense)
    exact_roots = []
    while len(work) > 1:
        intervals, hit = _bisection_pass_reference(work)
        if hit is None:
            return intervals, exact_roots, work
        exact_roots.append(hit)
        work = _synth_div_reference(work, hit)
    return [], exact_roots, work


class _ReferenceBox(RootBox):
    """A real root box refined by Fraction evaluation at both ends."""

    def _refine_real(self):
        _, dense = self._state
        a, b = self.re.lo, self.re.hi
        m = (a + b) / 2
        fm = _eval_dense_reference(dense, m)
        if fm == 0:
            self.re = Interval.point(m)
            self.exact = m
            return
        fa = _eval_dense_reference(dense, a)
        if (fa > 0) != (fm > 0):
            self.re = Interval(a, m)
        else:
            self.re = Interval(m, b)


def _isolate_real_squarefree_reference(sf, dense, var):
    intervals, exact_roots, work = _real_isolation_reference(dense)
    boxes = []
    for a, b in intervals:
        fa = _eval_dense_reference(work, a)
        fb = _eval_dense_reference(work, b)
        if fa == 0 or fb == 0 or (fa > 0) == (fb > 0):
            raise IsolationError("isolating interval lost its sign change")
        box = _ReferenceBox(sf, var, Interval(a, b), Interval.point(0), state=("real", work))
        for q in exact_roots:
            while box.re.contains(q) and box.exact is None:
                box.refine()
        boxes.append(box)
    for q in exact_roots:
        boxes.append(_ReferenceBox(sf, var, Interval.point(q), Interval.point(0), exact=q))
    boxes.sort(key=lambda r: (r.re.lo, r.re.hi))
    return boxes


# dyadic roots land on bisection midpoints, and are deflated there
_root = st.one_of(
    st.builds(lambda k, j: Fraction(k, 2 ** j), st.integers(-8, 8), st.integers(0, 3)),
    st.builds(Fraction, st.integers(-5, 5), st.sampled_from([3, 5])))
_lead = st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 4))
_extra = st.sampled_from(["1", "x^2 - 2", "x^2 + 1", "x^3 - 3*x + 1", "5*x^2 - x - 1"])


def _product(lead, factors, extra):
    x = MPoly.variable("x", ("x",))
    f = parse_poly(extra, vars=("x",)) * lead
    for r, mult in factors:
        for _ in range(mult):
            f = f * (x - r)
    return f


@settings(max_examples=60, deadline=None)
@given(_lead, st.lists(st.tuples(_root, st.integers(1, 3)), max_size=5), _extra)
@example(Fraction(-2), [(Fraction(0), 1), (Fraction(1), 2), (Fraction(-1), 1)], "x^2 - 2")
@example(Fraction(3, 2), [(Fraction(1, 2), 1), (Fraction(1, 4), 1), (Fraction(-3, 4), 3)], "1")
def test_integer_tree_matches_fraction_reference(lead, factors, extra):
    f = _product(lead, factors, extra)
    if f.total_degree() < 1:
        return
    sf = squarefree_part(f)
    # the kernel sees the squarefree part times the drawn, possibly negative,
    # leading coefficient
    dense = [lead * c for c in sf.scalar_coeffs()]
    intervals, exact_roots, work = roots._real_isolation(dense)
    ref_intervals, ref_exact, ref_work = _real_isolation_reference(dense)
    assert intervals == ref_intervals
    assert exact_roots == ref_exact  # the same roots, deflated in the same order
    assert work[-1] * ref_work[-1] > 0
    assert all(w * ref_work[-1] == r * work[-1] for w, r in zip(work, ref_work))

    boxes = isolate_real_roots(f)
    ref_boxes = _isolate_real_squarefree_reference(sf, sf.scalar_coeffs(), "x")
    for _ in range(8):
        assert [(b.re, b.exact) for b in boxes] == [(b.re, b.exact) for b in ref_boxes]
        for b in boxes + ref_boxes:
            b.refine()


@pytest.mark.parametrize("cmd,p,q", [
    (("singularities", "--boxes"),
     "x^2 - 2*x*y + 3*y^2 + x - y + 2", "2*x^2 + x*y - y^2 - 3*x + y - 1"),
    (("singularities", "--boxes"),
     "3*x^2 + x*y - 2*y^2 - x + 2*y + 1", "x^2 - x*y + 2*y^2 + 2*x - 3*y - 2"),
    # a cluster of 9 points: its ratio polynomial goes through isolate_real_roots
    (("classify",),
     "3*x^3 + x^2*y - 2*x*y^2 + y^3 - x^2 + 3*x*y - y^2 + 2*x + y - 3",
     "x^3 - x^2*y + 2*x*y^2 + 2*y^3 + 3*x^2 - 2*x*y + y^2 - x - 2*y + 1"),
], ids=["boxes-complex", "boxes-real", "classify-cubic"])
def test_json_same_with_fraction_real_isolation(cmd, p, q, tmp_path, capsys, monkeypatch):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"P": p, "Q": q}))
    argv = ["--format", "json", *cmd, "--foliation", str(path)]

    def canonical():
        code = main(argv)
        return code, capsys.readouterr().out

    by_integers = canonical()
    monkeypatch.setattr(roots, "_isolate_real_squarefree", _isolate_real_squarefree_reference)
    assert canonical() == by_integers


# -- interval evaluation on integers: the same endpoints as the Fraction one --------
#
# The references are the Fraction kernels the integer ones replaced, kept
# verbatim: interval_eval on Interval products, and the Krawczyk step and the
# emptiness test of the complex system on it and on MPoly.eval_all.


def _interval_eval_reference(f, box):
    """Evaluate an MPoly over a dict var -> Interval (scalars allowed)."""
    box = {v: roots._as_interval(iv) for v, iv in box.items()}
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


class _ReferenceSystem(roots._ComplexSystem):
    def __init__(self, dense):
        super().__init__(dense)
        self.Ra, self.Rb = self.R.diff("re"), self.R.diff("im")
        self.Ia, self.Ib = self.I.diff("re"), self.I.diff("im")

    def might_contain(self, ia, ib):
        box = {"re": ia, "im": ib}
        return _interval_eval_reference(self.R, box).contains_zero() and _interval_eval_reference(
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
        J11 = _interval_eval_reference(self.Ra, box)
        J12 = _interval_eval_reference(self.Rb, box)
        J21 = _interval_eval_reference(self.Ia, box)
        J22 = _interval_eval_reference(self.Ib, box)
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


_rational = st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 5, 7, 9, 16]))
_positive = st.builds(Fraction, st.integers(1, 40), st.sampled_from([1, 2, 3, 4, 5, 7, 9, 16]))


@st.composite
def _box_entry(draw):
    kind = draw(st.sampled_from(["straddle", "negative", "point", "any", "scalar"]))
    if kind == "straddle":
        return Interval(-draw(_positive), draw(_positive))
    if kind == "negative":
        a, b = sorted([-draw(_positive), -draw(_positive)])
        return Interval(a, b)
    if kind == "point":
        return Interval.point(draw(_rational))
    if kind == "any":
        return Interval(*sorted([draw(_rational), draw(_rational)]))
    return draw(st.one_of(_rational, st.integers(-5, 5)))


@st.composite
def _poly_over_box(draw):
    vars = draw(st.sampled_from([("x",), ("x", "y"), ("y", "x")]))
    degree = draw(st.integers(0, 8))
    exponents = [e for e in ((i, j) for i in range(degree + 1) for j in range(degree + 1 - i))
                 if len(vars) == 2 or e[1] == 0]
    chosen = draw(st.lists(st.sampled_from(exponents), max_size=12, unique=True))
    coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 12))
    f = MPoly(vars, {e[: len(vars)]: draw(coeffs) for e in chosen})
    box = {v: draw(_box_entry()) for v in vars}
    if draw(st.booleans()):
        box["z"] = draw(_box_entry())  # an unused entry is ignored
    return f, box


@settings(max_examples=300, deadline=None)
@given(_poly_over_box())
@example((parse_poly("3/7*x^5 - 2*x^2*y^3 + 5/4*y - 1/3", vars=("x", "y")),
          {"x": Interval(Fraction(-2, 3), Fraction(5, 7)), "y": Interval(Fraction(-9, 4), Fraction(-1, 5))}))
@example((parse_poly("x^8 - 4*x^7 + x", vars=("x",)), {"x": Fraction(-7, 3)}))
@example((parse_poly("-x^4*y^4 + x*y", vars=("x", "y")), {"x": Interval(-1, 1), "y": 2}))
def test_interval_eval_equals_fraction_reference(case):
    f, box = case
    got = interval_eval(f, box)
    assert isinstance(got, Interval)
    assert got == _interval_eval_reference(f, box)


def test_interval_eval_missing_variable_raises():
    f = parse_poly("x^2 + y", vars=("x", "y"))
    with pytest.raises(KeyError):
        interval_eval(f, {"x": Interval(0, 1)})
    # a variable that occurs in no term need not be in the box; x^2 is
    # [-1, 2] * [-1, 2], with no even-power tightening
    assert interval_eval(parse_poly("x^2 + 1", vars=("x", "y")), {"x": Interval(-1, 2)}) == Interval(-1, 5)


def test_interval_eval_of_zero_is_zero():
    assert interval_eval(MPoly.zero(("x", "y")), {}) == Interval(0, 0)
    assert interval_eval(MPoly.zero(("x",)), {"x": Interval(-3, 4)}) == Interval(0, 0)


def _krawczyk_cases(dense, box):
    """The emptiness test and the Krawczyk step of both systems on one box."""
    new, ref = roots._ComplexSystem(dense), _ReferenceSystem(dense)
    return ((new.might_contain(*box), new.krawczyk(*box)),
            (ref.might_contain(*box), ref.krawczyk(*box)))


def _boxes_near_roots(text):
    """Boxes around and beside the upper complex roots of a polynomial: the
    isolating box, its refinements, its halves, a widened box and a box
    moved off the root."""
    f = parse_poly(text, vars=("x",))
    out = []
    for r in isolate_roots(f):
        if r.im.lo <= 0:
            continue
        for _ in range(3):
            ia, ib = r.re, r.im
            m = ia.mid()
            out += [(ia, ib), (Interval(ia.lo, m), ib), (Interval(m, ia.hi), ib),
                    (Interval(ia.lo - 1, ia.hi + 1), Interval(ib.lo / 2, ib.hi * 2)),
                    (ia + 1, ib)]
            r.refine()
    return f.scalar_coeffs(), out


@pytest.mark.parametrize("text", ["x^3 - 2*x + 2", "2*x^3 + x^2 + 3/2", "x^4 + x^3 + x^2 + x + 1",
                                  "x^4 - 2*x^3 + 7/3*x^2 + 5", "3*x^4 - x + 1/4"])
def test_krawczyk_equals_fraction_reference_near_roots(text):
    dense, boxes = _boxes_near_roots(text)
    assert boxes
    for box in boxes:
        new, ref = _krawczyk_cases(dense, box)
        assert new == ref


@settings(max_examples=120, deadline=None)
@given(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)), min_size=3, max_size=6)
       .filter(lambda c: c[-1] != 0),
       st.tuples(_rational, _rational).map(sorted), st.tuples(_rational, _rational).map(sorted))
def test_krawczyk_equals_fraction_reference_on_drawn_boxes(dense, re, im):
    box = (Interval(*re), Interval(*im))
    new, ref = _krawczyk_cases(dense, box)
    assert new == ref


def _box_rows(boxes):
    return [(str(b.re.lo), str(b.re.hi), str(b.im.lo), str(b.im.hi)) for b in boxes]


# real and upper boxes from Fraction interval evaluation, and a digest of all
# boxes after three refinements each
@pytest.mark.parametrize("text, upper, refined", [
    ("x^9 - 3*x^4 + x - 7", [
        ("0", "8", "0", "0"),
        ("-1224205/1048576", "-2446325/2097152", "1205589/2097152", "603837/1048576"),
        ("-702637/1048576", "-87547/131072", "1017567/1048576", "1019829/1048576"),
        ("352283/1048576", "707085/2097152", "2757215/2097152", "2759733/2097152"),
        ("6872641/8388608", "6876547/8388608", "3005679/4194304", "187977/262144"),
    ], "e9bb66390d2f6787f840ca06"),
    ("4*x^8 - 3*x^5 + 7*x^3 - x + 2", [
        ("-54899/65536", "-218503/262144", "42615/262144", "21855/131072"),
        ("-470865/1048576", "-234943/524288", "4899745/4194304", "4903661/4194304"),
        ("5483281/16777216", "5486129/16777216", "8646703/16777216", "4324751/8388608"),
        ("1003723/1048576", "8031035/8388608", "4311357/8388608", "8625215/16777216"),
    ], "9c7bad1c853ba228066b2213"),
], ids=["deg9", "deg8"])
def test_isolate_roots_boxes_as_recorded(text, upper, refined):
    boxes = isolate_roots(parse_poly(text, vars=("x",)))
    assert [row for row, b in zip(_box_rows(boxes), boxes) if b.im.lo >= 0] == upper
    for b in boxes:
        for _ in range(3):
            b.refine()
    assert hashlib.sha256(repr(_box_rows(boxes)).encode()).hexdigest()[:24] == refined


def test_json_same_with_fraction_interval_evaluation(tmp_path, capsys, monkeypatch):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"P": "x^2 - 2*x*y + 3*y^2 + x - y + 2",
                                "Q": "2*x^2 + x*y - y^2 - 3*x + y - 1"}))
    argv = ["--format", "json", "singularities", "--boxes", "--foliation", str(path)]

    def canonical():
        code = main(argv)
        return code, capsys.readouterr().out

    by_integers = canonical()
    monkeypatch.setattr(roots, "interval_eval", _interval_eval_reference)
    monkeypatch.setattr(roots, "_ComplexSystem", _ReferenceSystem)
    assert canonical() == by_integers
