"""Degree bounds from plurigenera gates.

Everything here is integer arithmetic: Riemann-Roch section counts for
pluricanonical powers on a curve of genus g, a scan for the first index
where supplied plurigenera beat that count, and the resulting bounds on
degrees of rational first integrals and invariant algebraic curves.
Plurigenera are inputs (explicit values, or lower bounds synthesized
from a height); nothing cohomological is computed.
"""

from __future__ import annotations

from math import comb


class OracleExhausted(Exception):
    """The plurigenera ran out before the gate inequality fired."""


def rr_sections(g, k):
    """Sections of the k-th power of the canonical bundle on a smooth
    curve of genus g.

    For g >= 2 this is k(2g-2) - g + 1 when k >= 2 and g when k = 1;
    genus 1 gives 1, genus 0 gives 0.
    """
    if k <= 0:
        raise ValueError("the power k must be positive")
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if g == 0:
        return 0
    if g == 1:
        return 1
    if k == 1:
        return g
    return k * (2 * g - 2) - g + 1


def height_lower_bound(h, n):
    """Certified lower bound for the (h*n)-th plurigenus of a foliation
    of height h: binom(n+2, 2)."""
    if h < 1:
        raise ValueError("height must be at least 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    return comb(n + 2, 2)


class PlurigeneraOracle:
    """Supplier of plurigenera P_1, P_2, ... of a (reduced-model) foliation.

    Carries an explicit finite sequence, a height h (yielding certified
    lower bounds binom(n+2,2) at indices h*n), or both.  When both are
    present the explicit values must respect every height lower bound they
    cover; a violation is an input error, not a soft warning.
    """

    __slots__ = ("P", "height")

    def __init__(self, P=None, height=None):
        if P is None and height is None:
            raise ValueError("need an explicit sequence, a height, or both")
        if P is not None:
            P = tuple(int(v) for v in P)
            if any(v < 0 for v in P):
                raise ValueError("plurigenera are nonnegative")
        if height is not None:
            height = int(height)
            if height < 1:
                raise ValueError("height must be at least 1")
        self.P = P
        self.height = height
        if P is not None and height is not None:
            n = 1
            while height * n <= len(P):
                need = height_lower_bound(height, n)
                got = P[height * n - 1]
                if got < need:
                    raise ValueError(
                        f"P_{height * n} = {got} violates the height-{height} "
                        f"lower bound {need}"
                    )
                n += 1

    def known(self, n):
        if n < 1:
            return False
        if self.P is not None and n <= len(self.P):
            return True
        return self.height is not None and n % self.height == 0

    def value(self, n):
        """Exact value when explicit, else the height lower bound at n.

        Lower bounds are sound in every gate here: the gates only ever ask
        whether P_n exceeds a threshold.
        """
        if self.P is not None and 1 <= n <= len(self.P):
            return self.P[n - 1]
        if self.height is not None and n >= 1 and n % self.height == 0:
            return height_lower_bound(self.height, n // self.height)
        raise OracleExhausted(
            f"no plurigenus available at index {n}; increase oracle range"
        )

    def unbounded(self):
        return self.height is not None

    def describe(self):
        out = {}
        if self.P is not None:
            out["P"] = [str(v) for v in self.P]
        if self.height is not None:
            out["height"] = self.height
        return out

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict):
            raise ValueError("oracle JSON must be an object")
        extra = set(data) - {"P", "height"}
        if extra:
            raise ValueError(f"unknown oracle keys: {sorted(extra)}")
        P, height = data.get("P"), data.get("height")
        if P is not None and not (isinstance(P, list)
                                  and all(type(v) in (str, int) for v in P)):
            raise ValueError("oracle P must be a list of integers or integer strings")
        if height is not None and type(height) not in (str, int):
            raise ValueError("oracle height must be an integer or an integer string")
        return cls(P=P, height=height)


class BoundReport:
    """Outcome of one gate scan: the inputs, the selected index n0, the
    bound n0*(d-1), and a trace of every inequality tested.

    `n_star` is set only by the height-based scan, where the gate runs over
    the auxiliary index n and the bound multiplier is n0 = height * n_star.
    """

    __slots__ = ("d", "g", "Z", "oracle", "n0", "bound", "trace", "warning",
                 "n_star")

    def __init__(self, d, g, Z, oracle, n0, bound, trace, warning=None,
                 n_star=None):
        self.d = d
        self.g = g
        self.Z = Z
        self.oracle = oracle
        self.n0 = n0
        self.bound = bound
        self.trace = trace
        self.warning = warning
        self.n_star = n_star
        self.verify()

    def verify(self):
        """Re-check minimality and the bound formula from the trace."""
        fired = [row for row in self.trace if row["fired"]]
        if not fired:
            raise ValueError("report trace fired nowhere")
        first = fired[0]
        for row in self.trace:
            want = row["lhs"] > row["rhs"]
            if row["fired"] != want:
                raise ValueError(f"trace row {row['n']} mis-evaluated")
            if row["n"] < first["n"] and row["fired"]:
                raise ValueError("an earlier row fired; n0 is not minimal")
        scan_hit = first["n"]
        if self.n_star is not None:
            if scan_hit != self.n_star:
                raise ValueError("n_star disagrees with the trace")
        elif scan_hit != self.n0:
            raise ValueError("n0 disagrees with the trace")
        expected = 0 if self.d <= 1 else self.n0 * (self.d - 1)
        if self.bound != expected:
            raise ValueError("bound does not equal n0*(d-1)")

    def to_json(self):
        out = {
            "d": self.d,
            "g": self.g,
            "Z": self.Z,
            "oracle": self.oracle,
            "n0": self.n0,
            "bound": self.bound,
            "trace": self.trace,
        }
        if self.n_star is not None:
            out["n_star"] = self.n_star
        if self.warning is not None:
            out["warning"] = self.warning
        return out

    def __repr__(self):
        return f"BoundReport(n0={self.n0}, bound={self.bound})"


_DEGENERATE = "degree at most 1: the bound degenerates to 0 and says nothing"

# With only a height the scan indices jump by `height`; this cap is far past
# the provable firing index 2*height*(2g-2)+3 and only guards a coding slip.
# The height bound's scan fires by 2*h*(2g-2)+3, below the cap unless
# h*(g-1) exceeds about 2.5 * 10**6.
_SCAN_CAP = 10 ** 7


def _finish(d, g, Z, oracle_desc, n0, trace, n_star=None):
    warning = _DEGENERATE if d <= 1 else None
    bound = 0 if d <= 1 else n0 * (d - 1)
    return BoundReport(d, g, Z, oracle_desc, n0, bound, trace,
                       warning=warning, n_star=n_star)


def _gate_scan(d, oracle, rhs_of):
    """(n0, trace): the least known index n0 with P_n0 > rhs_of(n0), and the
    inequality tested at every known index up to it."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    trace = []
    n = 0
    while n < _SCAN_CAP:
        n += 1
        if not oracle.known(n):
            if oracle.P is not None and n > len(oracle.P) and not oracle.unbounded():
                raise OracleExhausted(
                    f"gate never fired through P_{len(oracle.P)}; "
                    "increase oracle range"
                )
            continue
        lhs = oracle.value(n)
        rhs = rhs_of(n)
        fired = lhs > rhs
        trace.append({"n": n, "lhs": lhs, "rhs": rhs, "fired": fired})
        if fired:
            return n, trace
    raise OracleExhausted("gate scan cap reached; increase oracle range")


def first_integral_degree_bound(d, g, oracle):
    """Degree bound n0*(d-1) for a rational first integral, where n0 is
    the least n with P_n > rr_sections(g, n).

    Requires g >= 2 (the generic leaf must be of general type for the
    gate to mean anything).  Raises OracleExhausted when the supplied
    plurigenera run out before the gate fires.
    """
    if g < 2:
        raise ValueError("the gate needs genus at least 2")
    n0, trace = _gate_scan(d, oracle, lambda n: rr_sections(g, n))
    return _finish(d, g, None, oracle.describe(), n0, trace)


def invariant_curve_degree_bound(d, g_C, oracle, Z):
    """Degree bound n0*(d-1) for an invariant curve of geometric genus g_C
    meeting the singular locus with total index Z: n0 is the least n with
    P_n > rr_sections(g_C, n) + n*Z.

    With Z = 0 and g_C >= 2 this is the first-integral gate again.
    """
    if g_C < 0:
        raise ValueError("genus must be nonnegative")
    if Z < 0:
        raise ValueError("Z must be nonnegative")
    n0, trace = _gate_scan(d, oracle, lambda n: rr_sections(g_C, n) + n * Z)
    return _finish(d, g_C, Z, oracle.describe(), n0, trace)


def first_integral_bound_from_height(d, g, h):
    """Degree bound from a height h alone: the least n with
    binom(n+2,2) > rr_sections(g, h*n) always exists because the left
    side grows quadratically and the right side linearly; the bound is
    h*n*(d-1).

    The scan runs over the height-1 oracle, whose values are exactly
    binom(n+2, 2).
    """
    if g < 2:
        raise ValueError("the gate needs genus at least 2")
    if h < 1:
        raise ValueError("height must be at least 1")
    n, trace = _gate_scan(d, PlurigeneraOracle(height=1), lambda n: rr_sections(g, h * n))
    return _finish(d, g, None, {"height": h}, h * n, trace, n_star=n)


Z_BOUND_HYPOTHESIS = "quasi-reduced"


def z_bound_quasi_reduced(d):
    """Worst-case total index Z over all singular points of a quasi-reduced
    foliation of degree d: (d^2 + d + 1) * (d + 2).

    Valid only under the quasi-reduced hypothesis (every singular point
    reduced or dicritical with smooth invariant branches); callers that
    surface the value should surface Z_BOUND_HYPOTHESIS with it.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    return (d * d + d + 1) * (d + 2)
