"""Sparse exact multivariate polynomials and the algebra built on them.

Terms are a dict mapping exponent tuples to nonzero coefficients. Coefficients
are Fraction by default; any exact field scalar with +,-,*,/ and truthiness
(QuadExt) works in the same code paths. Canonical order everywhere is grad-lex:
higher total degree first, ties broken by reverse-lex on the exponent tuple.

The module also houses the polynomial algebra the rest of the package needs:
exact single-divisor division, multivariate gcd (primitive PRS), Yun squarefree
decomposition, Sylvester/Bareiss resultants with an evaluation-interpolation
fast path for large bivariate inputs, and the subresultant PRS.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .numbers import QuadExt, rat_str

_SCALARS = (int, Fraction, QuadExt)


def _coef(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


def _gradlex_key(exp):
    return (sum(exp), exp)


class MPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        n = len(self.vars)
        clean = {}
        if terms:
            for exp, c in terms.items():
                c = _coef(c)
                if not c:
                    continue
                exp = tuple(exp)
                if len(exp) != n:
                    raise ValueError(f"exponent {exp} does not match variables {self.vars}")
                if exp in clean:
                    s = clean[exp] + c
                    if s:
                        clean[exp] = s
                    else:
                        del clean[exp]
                else:
                    clean[exp] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars, {})

    @classmethod
    def const(cls, vars, c):
        c = _coef(c)
        vars = tuple(vars)
        if not c:
            return cls(vars, {})
        return cls(vars, {(0,) * len(vars): c})

    @classmethod
    def variable(cls, name, vars):
        vars = tuple(vars)
        if name not in vars:
            raise ValueError(f"{name!r} not among {vars}")
        exp = tuple(1 if v == name else 0 for v in vars)
        return cls(vars, {exp: Fraction(1)})

    @classmethod
    def monomial(cls, vars, exp, c=1):
        return cls(vars, {tuple(exp): _coef(c)})

    # -- structure ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self):
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self):
        """Max total degree of stored terms; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def min_total_degree(self):
        """Vanishing order at the origin; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    def deg_in(self, var):
        i = self.vars.index(var)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def lt(self):
        """Grad-lex leading (exponent, coefficient)."""
        if not self.terms:
            raise ValueError("leading term of zero")
        exp = max(self.terms, key=_gradlex_key)
        return exp, self.terms[exp]

    def homogeneous_part(self, k):
        return MPoly(self.vars, {e: c for e, c in self.terms.items() if sum(e) == k})

    def top_part(self):
        return self.homogeneous_part(self.total_degree())

    def coeff_in(self, var, k):
        """Coefficient of var**k, as a polynomial with var's slot zeroed."""
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms.items():
            if e[i] == k:
                out[e[:i] + (0,) + e[i + 1:]] = c
        return MPoly(self.vars, out)

    def as_univar(self, var):
        """Dense coefficient list in var (index = power), entries MPoly."""
        d = self.deg_in(var)
        if d < 0:
            return []
        i = self.vars.index(var)
        buckets = [dict() for _ in range(d + 1)]
        for e, c in self.terms.items():
            buckets[e[i]][e[:i] + (0,) + e[i + 1:]] = c
        return [MPoly(self.vars, b) for b in buckets]

    @classmethod
    def from_univar(cls, var, coeffs, vars):
        vars = tuple(vars)
        i = vars.index(var)
        out = {}
        for k, ck in enumerate(coeffs):
            if isinstance(ck, _SCALARS):
                ck = cls.const(vars, ck)
            ck = ck.with_vars(vars)
            for e, c in ck.terms.items():
                if e[i] != 0:
                    raise ValueError("coefficient involves the main variable")
                key = e[:i] + (k,) + e[i + 1:]
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
        return cls(vars, out)

    def scalar_coeffs(self):
        """Dense scalar list for a polynomial in exactly one variable."""
        live = [i for i in range(len(self.vars)) if any(e[i] for e in self.terms)]
        if len(live) > 1:
            raise ValueError(f"{self} is not univariate")
        if not self.terms:
            return []
        i = live[0] if live else 0
        d = max(e[i] for e in self.terms)
        out = [Fraction(0)] * (d + 1)
        for e, c in self.terms.items():
            out[e[i]] = c
        return out

    def with_vars(self, vars):
        """Reinterpret over `vars` (in that order); a variable left out of
        `vars` must not occur in any term."""
        vars = tuple(vars)
        if vars == self.vars:
            return self
        pos = []
        for i, v in enumerate(self.vars):
            if v in vars:
                pos.append((i, vars.index(v)))
            elif any(e[i] for e in self.terms):
                raise ValueError(f"variable {v!r} missing from {vars}")
        n = len(vars)
        out = {}
        for e, c in self.terms.items():
            ne = [0] * n
            for i, slot in pos:
                ne[slot] = e[i]
            out[tuple(ne)] = c
        return MPoly(vars, out)

    def drop_vars(self):
        """Restrict to the variables that actually occur (order preserved)."""
        live = tuple(v for i, v in enumerate(self.vars) if any(e[i] for e in self.terms))
        if live == self.vars:
            return self
        keep = [self.vars.index(v) for v in live]
        out = {tuple(e[i] for i in keep): c for e, c in self.terms.items()}
        return MPoly(live if live else self.vars[:1], out)

    def rename(self, mapping):
        return MPoly(tuple(mapping.get(v, v) for v in self.vars), dict(self.terms))

    def map_coeffs(self, fn):
        return MPoly(self.vars, {e: fn(c) for e, c in self.terms.items()})

    # -- arithmetic -----------------------------------------------------------

    def _pair(self, other):
        if isinstance(other, _SCALARS):
            other = MPoly.const(self.vars, other)
        if not isinstance(other, MPoly):
            return None, None
        if self.vars == other.vars:
            return self, other
        union = list(self.vars) + [v for v in other.vars if v not in self.vars]
        return self.with_vars(union), other.with_vars(union)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        out = dict(a.terms)
        for e, c in b.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly(a.vars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        out = dict(a.terms)
        for e, c in b.terms.items():
            s = out.get(e)
            s = -c if s is None else s - c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MPoly(a.vars, out)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c0 = _coef(other)
            if not c0:
                return MPoly.zero(self.vars)
            return MPoly(self.vars, {e: c * c0 for e, c in self.terms.items()})
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        if len(a.terms) > len(b.terms):
            a, b = b, a
        out = {}
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                s = out.get(key)
                s = c1 * c2 if s is None else s + c1 * c2
                out[key] = s
        return MPoly(a.vars, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            c0 = _coef(other)
            if not c0:
                raise ZeroDivisionError("polynomial divided by zero scalar")
            return MPoly(self.vars, {e: c / c0 for e, c in self.terms.items()})
        if isinstance(other, MPoly) and other.is_constant():
            return self / other.constant_value()
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MPoly.const(self.vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def diff(self, var):
        i = self.vars.index(var)
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1:]
            nc = c * e[i]
            prev = out.get(ne)
            out[ne] = nc if prev is None else prev + nc
        return MPoly(self.vars, out)

    def subs(self, mapping):
        """Simultaneous substitution; images are MPoly or exact scalars."""
        images = {}
        union = list(self.vars)
        for v, img in mapping.items():
            if v not in self.vars:
                continue
            if isinstance(img, _SCALARS):
                img = MPoly.const(self.vars, img)
            images[v] = img
            for w in img.vars:
                if w not in union:
                    union.append(w)
        if not images:
            return self
        union = tuple(union)
        aligned = {v: img.with_vars(union) for v, img in images.items()}
        powers = {v: [MPoly.const(union, 1), img] for v, img in aligned.items()}

        def img_pow(v, k):
            cache = powers[v]
            while len(cache) <= k:
                cache.append(cache[-1] * cache[1])
            return cache[k]

        result = MPoly.zero(union)
        for e, c in self.terms.items():
            piece = MPoly.const(union, c)
            passthrough = [0] * len(union)
            for v, power in zip(self.vars, e):
                if power == 0:
                    continue
                if v in aligned:
                    piece = piece * img_pow(v, power)
                else:
                    passthrough[union.index(v)] = power
            if any(passthrough):
                piece = piece * MPoly.monomial(union, passthrough)
            result = result + piece
        return result

    def eval_all(self, mapping):
        """Evaluate with a scalar for every occurring variable; returns a scalar."""
        result = _coef(0)
        pw = {}

        def power(v, k):
            cache = pw.setdefault(v, [_coef(1), _coef(mapping[v])])
            while len(cache) <= k:
                cache.append(cache[-1] * cache[1])
            return cache[k]

        for e, c in self.terms.items():
            term = c
            for v, k in zip(self.vars, e):
                if k:
                    term = term * power(v, k)
            result = result + term
        return result

    # -- comparison / hashing ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            if not _coef(other):
                return self.is_zero()
            return self.is_constant() and bool(self.terms) and self.constant_value() == _coef(other)
        if not isinstance(other, MPoly):
            return NotImplemented
        a, b = self._pair(other)
        return a.terms == b.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- text / json ------------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        items = sorted(self.terms.items(), key=lambda kv: _gradlex_key(kv[0]), reverse=True)
        parts = []
        for e, c in items:
            mono = "*".join(
                v if k == 1 else f"{v}^{k}" for v, k in zip(self.vars, e) if k
            )
            cs = rat_str(c) if isinstance(c, Fraction) else f"({c!r})"
            if mono:
                if c == 1:
                    term = mono
                elif c == -1:
                    term = f"-{mono}"
                else:
                    term = f"{cs}*{mono}"
            else:
                term = cs
            parts.append(term)
        text = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                text += " - " + p[1:]
            else:
                text += " + " + p
        return text

    __repr__ = __str__

    def to_json(self):
        items = sorted(self.terms.items(), key=lambda kv: _gradlex_key(kv[0]), reverse=True)
        for _, c in items:
            if not isinstance(c, Fraction):
                raise ValueError("JSON form is defined for rational coefficients only")
        return {
            "vars": list(self.vars),
            "terms": [{"exp": list(e), "coef": rat_str(c)} for e, c in items],
        }

    @classmethod
    def from_json(cls, data):
        vars = tuple(data["vars"])
        terms = {}
        for entry in data["terms"]:
            terms[tuple(entry["exp"])] = Fraction(entry["coef"])
        return cls(vars, terms)


# -- parsing -------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[()+\-*/^])")


def parse_poly(text, vars=None):
    """Parse '3/2*x^2*y - 1' style text. Explicit '*' required; '^' or '**' powers."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad character in polynomial at offset {pos}: {text[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    names = sorted({t for t in tokens if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", t)})
    if vars is None:
        vars = tuple(names) if names else ("x",)
    else:
        vars = tuple(vars)
        for nm in names:
            if nm not in vars:
                raise ValueError(f"unknown variable {nm!r}; expected one of {vars}")

    idx = 0

    def peek():
        return tokens[idx] if idx < len(tokens) else None

    def take(expect=None):
        nonlocal idx
        tok = peek()
        if tok is None or (expect is not None and tok != expect):
            raise ValueError(f"unexpected token {tok!r} in {text!r}")
        idx += 1
        return tok

    def parse_expr():
        node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_factor()
            if op == "*":
                node = node * rhs
            else:
                if not rhs.is_constant() or rhs.is_zero():
                    raise ValueError("division only by nonzero constants")
                node = node / rhs.constant_value()
        return node

    def parse_factor():
        sign = 1
        while peek() in ("+", "-"):
            if take() == "-":
                sign = -sign
        node = parse_atom()
        while peek() in ("^", "**"):
            take()
            etok = take()
            if not etok.isdigit():
                raise ValueError("exponent must be a nonnegative integer literal")
            node = node ** int(etok)
        return node if sign == 1 else -node

    def parse_atom():
        tok = peek()
        if tok == "(":
            take("(")
            node = parse_expr()
            take(")")
            return node
        tok = take()
        if tok.isdigit():
            return MPoly.const(vars, int(tok))
        if re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", tok):
            return MPoly.variable(tok, vars)
        raise ValueError(f"unexpected token {tok!r} in {text!r}")

    result = parse_expr()
    if idx != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    return result


# -- division, gcd, squarefree ---------------------------------------------------


def poly_divmod(f, g):
    """Single-divisor long division over a coefficient field: f = q*g + r.

    No term of r is divisible by the grad-lex leading monomial of g, so r == 0
    is equivalent to divisibility by g.
    """
    f, g = f._pair(g)
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    gexp, gcoef = g.lt()
    q = MPoly.zero(f.vars)
    r = MPoly.zero(f.vars)
    work = f
    while work.terms:
        exp, c = work.lt()
        if all(a >= b for a, b in zip(exp, gexp)):
            t = MPoly.monomial(f.vars, tuple(a - b for a, b in zip(exp, gexp)), c / gcoef)
            q = q + t
            work = work - t * g
        else:
            t = MPoly.monomial(f.vars, exp, c)
            r = r + t
            work = work - t
    return q, r


def exact_div(f, g):
    """Exact quotient f/g, or None when g does not divide f."""
    q, r = poly_divmod(f, g)
    return q if r.is_zero() else None


def rational_content(f):
    """Positive rational c with f/c having coprime integer coefficients."""
    if f.is_zero():
        return Fraction(1)
    from math import gcd, lcm

    den = 1
    for c in f.terms.values():
        den = lcm(den, c.denominator)
    num = 0
    for c in f.terms.values():
        num = gcd(num, abs(c.numerator * (den // c.denominator)))
    return Fraction(num, den)


def normalized(f):
    """Deterministic normal form: content 1 and positive grad-lex leading
    coefficient for rational coefficients; monic otherwise."""
    if f.is_zero():
        return f
    if all(isinstance(c, Fraction) for c in f.terms.values()):
        c = rational_content(f)
        g = f / c
        if g.lt()[1] < 0:
            g = -g
        return g
    _, lc = f.lt()
    return f / lc


def _divmod_univar(f, g, var):
    """Dense univariate division in `var` with scalar field coefficients."""
    fa = f.as_univar(var)
    ga = g.as_univar(var)
    dg = len(ga) - 1
    lc = ga[-1]
    if not lc.is_constant():
        raise ValueError("univariate division with nonconstant leading coefficient")
    lcv = lc.constant_value()
    q = [MPoly.zero(f.vars) for _ in range(max(len(fa) - dg, 0))]
    rem = list(fa)
    for k in range(len(rem) - 1, dg - 1, -1):
        if rem[k].is_zero():
            continue
        factor = rem[k] / lcv
        q[k - dg] = factor
        for j, gj in enumerate(ga):
            rem[k - dg + j] = rem[k - dg + j] - factor * gj
    qq = MPoly.from_univar(var, q, f.vars) if q else MPoly.zero(f.vars)
    rr = MPoly.from_univar(var, rem[:dg] if dg > 0 else [], f.vars) if dg > 0 else MPoly.zero(f.vars)
    return qq, rr


def prem(f, g, var):
    """Pseudo-remainder: lc_g^(deg f - deg g + 1) * f reduced mod g in `var`.

    The exact power matters; the subresultant divisions below are only exact
    for the full Collins pseudo-remainder.
    """
    df = f.deg_in(var)
    dg = g.deg_in(var)
    if dg < 0:
        raise ZeroDivisionError("pseudo-division by zero")
    if df < dg:
        return f
    gl = g.coeff_in(var, dg)
    x = MPoly.variable(var, f.vars)
    r = f
    steps = 0
    while not r.is_zero() and r.deg_in(var) >= dg:
        dr = r.deg_in(var)
        rl = r.coeff_in(var, dr)
        r = gl * r - rl * (x ** (dr - dg)) * g
        steps += 1
    need = df - dg + 1
    if steps < need:
        r = r * (gl ** (need - steps))
    return r


def _occurring(f):
    return {v for i, v in enumerate(f.vars) if any(e[i] for e in f.terms)}


def poly_gcd(f, g):
    """GCD over Q (or a quadratic extension), normalized deterministically."""
    if isinstance(f, _SCALARS):
        f = MPoly.const(g.vars, f)
    if isinstance(g, _SCALARS):
        g = MPoly.const(f.vars, g)
    f, g = f._pair(g)
    if f.is_zero():
        return normalized(g)
    if g.is_zero():
        return normalized(f)
    occ = _occurring(f) | _occurring(g)
    if not occ:
        return MPoly.const(f.vars, 1)
    if len(occ) == 1:
        var = next(iter(occ))
        return normalized(_euclid_univar_scaled(f, g, var))
    # primitive PRS in the variable of least combined degree
    var = min(occ, key=lambda v: max(f.deg_in(v), 0) + max(g.deg_in(v), 0))
    cf, pf = _content_primitive(f, var)
    cg, pg = _content_primitive(g, var)
    cont = poly_gcd(cf, cg)
    a, b = (pf, pg) if pf.deg_in(var) >= pg.deg_in(var) else (pg, pf)
    while not b.is_zero():
        r = prem(a, b, var)
        if r.is_zero():
            a, b = b, r
            break
        _, rp = _content_primitive(r, var)
        a, b = b, rp
    if b.is_zero():
        _, ap = _content_primitive(a, var)
        return normalized(cont * ap)
    return normalized(cont)


def _euclid_univar_scaled(f, g, var):
    # coefficients may be rationals of mixed size; Euclid with monic steps
    a, b = f, g
    while not b.is_zero():
        blc = b.coeff_in(var, b.deg_in(var))
        b_monic = b / blc.constant_value() if blc.is_constant() else b
        _, r = _divmod_univar(a, b_monic, var)
        a, b = b_monic, r
    return a


def _content_primitive(f, var):
    """f = content * primitive wrt `var`; content lives in the other variables."""
    coeffs = [c for c in f.as_univar(var) if not c.is_zero()]
    cont = coeffs[0]
    for c in coeffs[1:]:
        cont = poly_gcd(cont, c)
        if cont.is_constant():
            break
    if cont.is_constant():
        cont = MPoly.const(f.vars, 1)
        return cont, normalized_sign_stable(f)
    prim = exact_div(f, cont)
    if prim is None:
        raise ArithmeticError("content failed to divide")
    return cont, prim


def normalized_sign_stable(f):
    if f.is_zero():
        return f
    _, lc = f.lt()
    if isinstance(lc, Fraction) and lc < 0:
        return -f
    return f


def squarefree_part(f):
    """Squarefree part over Q; works for one or two variables."""
    occ = _occurring(f)
    g = f
    for v in occ:
        d = poly_gcd(g, g.diff(v))
        if not d.is_constant():
            g = exact_div(g, d)
            if g is None:
                raise ArithmeticError("squarefree division failed")
    return normalized(g)


def yun_decomposition(f, var=None):
    """Yun's squarefree decomposition of a univariate rational polynomial.

    Returns (unit, [(g1, 1), (g2, 2), ...]) with f = unit * prod gi^i and the
    gi squarefree, pairwise coprime, normalized.
    """
    if var is None:
        occ = _occurring(f)
        if len(occ) != 1:
            raise ValueError("yun_decomposition expects a univariate polynomial")
        var = next(iter(occ))
    if f.is_zero():
        raise ValueError("zero polynomial")
    fn = normalized(f)
    unit_ratio = f.lt()[1] / fn.lt()[1]
    df = fn.diff(var)
    a = poly_gcd(fn, df)
    if a.is_constant():
        return unit_ratio, ([(fn, 1)] if fn.total_degree() > 0 else [])
    b = exact_div(fn, a)
    c = exact_div(df, a)
    out = []
    i = 1
    d = c - b.diff(var)
    while b.total_degree() > 0:
        g = poly_gcd(b, d)
        if g.total_degree() > 0:
            out.append((g, i))
            b = exact_div(b, g)
            d = exact_div(d, g)
        d = d - b.diff(var)
        i += 1
    # account for leading normalization of the pieces
    prod_lt = Fraction(1)
    for g, m in out:
        prod_lt *= g.lt()[1] ** m
    return f.lt()[1] / prod_lt, out


# -- determinants and resultants ---------------------------------------------------


def bareiss_det(rows):
    """Fraction-free determinant; entries are MPoly over a common variable set
    or plain Fractions. Intermediate divisions are exact by Bareiss's identity."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    scalar = all(isinstance(x, _SCALARS) for row in rows for x in row)
    if scalar:
        m = [[_coef(x) for x in row] for row in rows]

        def is_nonzero(x):
            return bool(x)

        def quot(a, b):
            return a / b
    else:
        vars = None
        for row in rows:
            for x in row:
                if isinstance(x, MPoly):
                    vars = x.vars if vars is None else vars
        m = []
        for row in rows:
            m.append([
                x.with_vars(vars) if isinstance(x, MPoly) else MPoly.const(vars, x)
                for x in row
            ])
        # align to the union of all variable sets
        union = []
        for row in m:
            for x in row:
                for v in x.vars:
                    if v not in union:
                        union.append(v)
        union = tuple(union)
        m = [[x.with_vars(union) for x in row] for row in m]

        def is_nonzero(x):
            return not x.is_zero()

        def quot(a, b):
            q = exact_div(a, b)
            if q is None:
                raise ArithmeticError("Bareiss division was not exact")
            return q

    sign = 1
    prev = Fraction(1) if scalar else MPoly.const(m[0][0].vars, 1)
    for k in range(n - 1):
        if not is_nonzero(m[k][k]):
            pivot = next((i for i in range(k + 1, n) if is_nonzero(m[i][k])), None)
            if pivot is None:
                return Fraction(0) if scalar else MPoly.zero(m[0][0].vars)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = quot(m[k][k] * m[i][j] - m[i][k] * m[k][j], prev)
            m[i][k] = Fraction(0) if scalar else MPoly.zero(m[0][0].vars)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def sylvester_matrix(f, g, var):
    f, g = f._pair(g)
    m = f.deg_in(var)
    n = g.deg_in(var)
    fa = f.as_univar(var)
    ga = g.as_univar(var)
    size = m + n
    zero = MPoly.zero(f.vars)
    rows = []
    for i in range(n):
        row = [zero] * size
        for j, c in enumerate(reversed(fa)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [zero] * size
        for j, c in enumerate(reversed(ga)):
            row[i + j] = c
        rows.append(row)
    return rows


def resultant(f, g, var):
    """Resultant eliminating `var`, by fraction-free Sylvester elimination.

    Large strictly-bivariate rational inputs switch to evaluation and Lagrange
    interpolation in the surviving variable.
    """
    f, g = f._pair(g)
    m = f.deg_in(var)
    n = g.deg_in(var)
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of a zero polynomial")
    if m <= 0 and n <= 0:
        raise ValueError(f"both inputs are constant in {var!r}")
    if m <= 0:
        return f ** n
    if n <= 0:
        return g ** m
    others = (_occurring(f) | _occurring(g)) - {var}
    if len(others) == 1 and (m + n) * (m * n) > 600:
        keep = next(iter(others))
        if all(isinstance(c, Fraction) for c in f.terms.values()) and all(
            isinstance(c, Fraction) for c in g.terms.values()
        ):
            return _resultant_interp(f, g, var, keep)
    rows = sylvester_matrix(f, g, var)
    det = bareiss_det(rows)
    if isinstance(det, MPoly):
        i = det.vars.index(var) if var in det.vars else None
        if i is not None:
            for e, c in det.terms.items():
                if e[i] != 0:
                    raise ArithmeticError("resultant failed to eliminate the variable")
        return det
    return MPoly.const(f.vars, det)


def _res_scalar(fa, ga):
    """Resultant of two dense Fraction coefficient lists (Euclidean recursion)."""

    def deg(a):
        return len(a) - 1

    def rem(a, b):
        a = list(a)
        db = deg(b)
        lb = b[-1]
        for k in range(len(a) - 1, db - 1, -1):
            if not a[k]:
                continue
            factor = a[k] / lb
            for j in range(db + 1):
                a[k - db + j] -= factor * b[j]
        while a and not a[-1]:
            a.pop()
        return a

    res = Fraction(1)
    a, b = list(fa), list(ga)
    while True:
        if not b:
            return Fraction(0)
        if deg(b) == 0:
            return res * b[0] ** deg(a)
        r = rem(a, b)
        da, db, dr = deg(a), deg(b), (deg(r) if r else -1)
        res *= Fraction(-1) ** (da * db) * b[-1] ** (da - (dr if dr >= 0 else 0))
        if not r:
            return Fraction(0)
        a, b = b, r


def _resultant_interp(f, g, var, keep):
    m, n = f.deg_in(var), g.deg_in(var)
    bound = f.deg_in(keep) * n + g.deg_in(keep) * m
    f_rows = f.as_univar(var)
    g_rows = g.as_univar(var)
    lc_f, lc_g = f_rows[-1], g_rows[-1]
    xs, ys = [], []
    t = 0
    while len(xs) <= bound:
        for cand in (Fraction(t), Fraction(-t)) if t else (Fraction(0),):
            if len(xs) > bound:
                break
            if lc_f.eval_all({keep: cand}) == 0 or lc_g.eval_all({keep: cand}) == 0:
                continue
            fa = [c.eval_all({keep: cand}) for c in f_rows]
            ga = [c.eval_all({keep: cand}) for c in g_rows]
            xs.append(cand)
            ys.append(_res_scalar(fa, ga))
        t += 1
    return _lagrange(xs, ys, keep, f.vars)


def _lagrange(xs, ys, var, vars):
    # Newton form accumulation keeps the arithmetic incremental
    n = len(xs)
    coefs = list(ys)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coefs[i] = (coefs[i] - coefs[i - 1]) / (xs[i] - xs[i - j])
    x = MPoly.variable(var, vars)
    result = MPoly.const(vars, coefs[-1])
    for k in range(n - 2, -1, -1):
        result = result * (x - MPoly.const(vars, xs[k])) + MPoly.const(vars, coefs[k])
    return result


def subresultant_prs(f, g, var):
    """Subresultant polynomial remainder sequence (Collins/Brown-Traub).

    Returns the list [f, g, r1, r2, ...]; each element is proportional over the
    base field to a subresultant, which is all the genericity certificates here
    need. Coefficient growth stays polynomial, unlike the naive PRS.
    """
    f, g = f._pair(g)
    if f.deg_in(var) < g.deg_in(var):
        f, g = g, f
    seq = [f, g]
    a, b = f, g
    one = MPoly.const(f.vars, 1)
    gg, h = one, one
    while True:
        db = b.deg_in(var)
        delta = a.deg_in(var) - db
        r = prem(a, b, var)
        if r.is_zero():
            break
        divisor = gg * (h ** delta)
        bnew = exact_div(r, divisor)
        if bnew is None:
            raise ArithmeticError("subresultant division was not exact")
        seq.append(bnew)
        a, b = b, bnew
        gg = a.coeff_in(var, a.deg_in(var))
        if delta == 0:
            pass
        elif delta == 1:
            h = gg
        else:
            num = gg ** delta
            den = h ** (delta - 1)
            h = exact_div(num, den)
            if h is None:
                raise ArithmeticError("subresultant h-update was not exact")
        if b.deg_in(var) == 0:
            break
    return seq


def linear_subresultant(f, g, var):
    """An element of the subresultant PRS of degree exactly 1 in `var`, or None."""
    for p in subresultant_prs(f, g, var):
        if p.deg_in(var) == 1:
            return p
    return None
