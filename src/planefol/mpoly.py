"""Sparse exact multivariate polynomials and the algebra built on them.

Terms are a dict mapping exponent tuples to nonzero coefficients. Coefficients
are Fraction by default; any exact field scalar with +,-,*,/ and truthiness
(QuadExt) works in the same code paths. Canonical order everywhere is grad-lex:
higher total degree first, ties broken by reverse-lex on the exponent tuple.

The module also houses the polynomial algebra the rest of the package needs:
exact single-divisor division (also behind every remainder modulo a cluster
modulus), multivariate gcd (the subresultant PRS behind a coprimality
certificate from images mod p), Yun squarefree decomposition, a
fraction-free determinant (for the extactics), and one subresultant chain
(`_Chain`) behind the subresultant PRS, the resultant and the subresultant
S1. The resultant and S1 are read from the end of the chain with Cohen's
correction for a degree gap, the scale of the cleared denominators and a
sign from the degree parities; each equals the determinant of its Sylvester
or subresultant matrix (derived in `_Chain.subresultant`). The determinant
and the chain both run on packed exponents (`_packing`) with integer
coefficients: rational input is put over one denominator
(`_clear_denominators`), and the exact divisions of both are checked
(`_exact_quo`).
"""

from __future__ import annotations

import heapq
import operator
import re
from fractions import Fraction
from math import gcd, lcm

from .numbers import QuadExt, rat_str

_SCALARS = (int, Fraction, QuadExt)


def _coef(c):
    if isinstance(c, int):
        return Fraction(c)
    return c


def _gradlex_key(exp):
    return (sum(exp), exp)


def _mul_terms(a, b):
    """Product of two term dicts over the same variables, zeros dropped."""
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(key)
            s = c1 * c2 if s is None else s + c1 * c2
            out[key] = s
    return {e: c for e, c in out.items() if c}


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

    def is_rational(self):
        """Every coefficient is rational (none is a QuadExt)."""
        return all(isinstance(c, Fraction) for c in self.terms.values())

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
                out[e[:i] + (k,) + e[i + 1:]] = c
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
        return MPoly(a.vars, _mul_terms(a.terms, b.terms))

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
            out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
        return MPoly(self.vars, out)

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
        """The inverse of `to_json`; a malformed shape raises ValueError."""
        vars, entries = _var_names(data["vars"]), data["terms"]
        if not (isinstance(entries, list) and all(isinstance(t, dict) for t in entries)):
            raise ValueError("terms must be a list of objects")
        terms = {}
        for entry in entries:
            exp, coef = entry["exp"], entry["coef"]
            if not (isinstance(exp, list) and len(exp) == len(vars)
                    and all(type(e) is int and e >= 0 for e in exp)):
                raise ValueError(f"exponent {exp!r} must be {len(vars)} nonnegative integers")
            if type(coef) not in (str, int):
                raise ValueError(f"coefficient {coef!r} must be a string or an integer")
            if tuple(exp) in terms:
                raise ValueError(f"exponent {exp} occurs twice")
            terms[tuple(exp)] = Fraction(coef)
        return cls(vars, terms)


def _shift_out(p, var, k):
    """p / var**k, for p divisible by var**k."""
    i = p.vars.index(var)
    out = {}
    for e, c in p.terms.items():
        if e[i] < k:
            raise ValueError("shift below zero")
        out[e[:i] + (e[i] - k,) + e[i + 1:]] = c
    return MPoly(p.vars, out)


def _var_names(value):
    """`value`, a list of distinct variable names, as a tuple; else ValueError."""
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value)
            and len(set(value)) == len(value)):
        raise ValueError(f"vars must be a list of distinct names, got {value!r}")
    return tuple(value)


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


def _packing(vars, top):
    """Packed exponents over `vars` for total degrees up to `top`.

    An exponent tuple becomes one int whose s-bit digits are (total degree,
    e1, ..., en), most significant first, so int order is the grad-lex order
    of `_gradlex_key` and a monomial product is one int addition. The high bit
    of every digit stays clear as a guard: `(a + guard - b) & guard == guard`
    exactly when no digit of b exceeds the matching digit of a, i.e. when b's
    monomial divides a's. Returns (pack, unpack, guard); `pack` takes an MPoly
    over a subset of `vars`.
    """
    n = len(vars)
    s = top.bit_length() + 1
    shifts = [s * (n - 1 - i) for i in range(n)]
    slot = {v: (1 << (s * n)) + (1 << sh) for v, sh in zip(vars, shifts)}
    mask = (1 << s) - 1
    guard = sum(1 << (s * i + s - 1) for i in range(n + 1))

    def pack(f):
        w = [slot[v] for v in f.vars]
        return {sum(map(operator.mul, e, w)): c for e, c in f.terms.items()}

    def unpack(d):
        return {tuple((k >> sh) & mask for sh in shifts): c for k, c in d.items()}

    return pack, unpack, guard


def _heap_divmod(a, b, guard, quo):
    """Grad-lex division of packed a by packed b: a = q*b + r.

    Leading terms of the running remainder are popped from a heap of its keys;
    the remainder is one dict updated in place. `quo` divides coefficients.
    Every key pushed is below the key just popped, so none is popped twice.
    """
    (bk, bc), *tail = sorted(b.items(), reverse=True)
    work = dict(a)
    heap = [-k for k in work]
    heapq.heapify(heap)
    q, r = {}, {}
    while heap:
        k = -heapq.heappop(heap)
        c = work.pop(k)
        if not c:
            continue
        d = k + guard - bk
        if d & guard != guard:
            r[k] = c
            continue
        qk, qc = d - guard, quo(c, bc)
        q[qk] = qc
        for tk, tc in tail:
            key = qk + tk
            old = work.get(key)
            if old is None:
                work[key] = -qc * tc
                heapq.heappush(heap, -key)
            else:
                work[key] = old - qc * tc
    return q, r


def poly_divmod(f, g):
    """Single-divisor long division over a coefficient field: f = q*g + r.

    No term of r is divisible by the grad-lex leading monomial of g, so r == 0
    is equivalent to divisibility by g.
    """
    f, g = f._pair(g)
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    pack, unpack, guard = _packing(f.vars, max(f.total_degree(), g.total_degree()))
    q, r = _heap_divmod(pack(f), pack(g), guard, operator.truediv)
    return MPoly(f.vars, unpack(q)), MPoly(f.vars, unpack(r))


def exact_div(f, g):
    """Exact quotient f/g, or None when g does not divide f."""
    q, r = poly_divmod(f, g)
    return q if r.is_zero() else None


def _integer_coeffs(coeffs):
    """(L, ints) for a sequence of rationals: L the lcm of their denominators
    and ints their multiples by L, in order."""
    scale = lcm(*(c.denominator for c in coeffs))
    return scale, [c.numerator * (scale // c.denominator) for c in coeffs]


def _clear_denominators(packed):
    """Scale packed polynomials with rational coefficients to integers, in
    place, by the lcm of all their denominators (`_integer_coeffs`); returns
    that lcm."""
    scale, ints = _integer_coeffs([c for x in packed for c in x.values()])
    it = iter(ints)
    for x in packed:
        for k in x:
            x[k] = next(it)
    return scale


def rational_content(f):
    """Positive rational c with f/c having coprime integer coefficients."""
    if f.is_zero():
        return Fraction(1)
    den, ints = _integer_coeffs(f.terms.values())
    return Fraction(gcd(*ints), den)


def normalized(f):
    """Deterministic normal form: content 1 and positive grad-lex leading
    coefficient for rational coefficients; monic otherwise."""
    if f.is_zero():
        return f
    if f.is_rational():
        c = rational_content(f)
        g = f / c
        if g.lt()[1] < 0:
            g = -g
        return g
    _, lc = f.lt()
    return f / lc


def _occurring(f):
    return {v for i, v in enumerate(f.vars) if any(e[i] for e in f.terms)}


def poly_gcd(f, g):
    """GCD over Q (or a quadratic extension), normalized deterministically.

    A rational pair whose images mod p prove it coprime (`_coprime_mod_p`)
    skips the subresultant PRS, which then only runs on a really shared factor
    or on QuadExt coefficients; the answer is the one the PRS gives.
    """
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
        if _coprime_mod_p(f, g):
            return MPoly.const(f.vars, 1)
        return normalized(_euclid_univar_scaled(f, g))
    # subresultant PRS of the primitive parts in the variable of least
    # combined degree: the primitive part of its last element is their gcd
    # (a constant when that element is free of var)
    var = min(occ, key=lambda v: max(f.deg_in(v), 0) + max(g.deg_in(v), 0))
    cf, pf = _content_primitive(f, var)
    cg, pg = _content_primitive(g, var)
    cont = poly_gcd(cf, cg)
    if _coprime_mod_p(pf, pg):
        return normalized(cont)
    last = subresultant_prs(pf, pg, var)[-1]
    return normalized(cont * _content_primitive(last, var)[1])


# Two primes below 2^61, and the small values given to the other variables of an
# image in F_p[v]: variable j takes _CERT_POINTS[(j + k) % 6] at attempt k.
_CERT_PRIMES = (2**61 - 1, 2**61 - 31)
_CERT_POINTS = (3, 5, 7, 11, 13, 17)


def _coprime_mod_p(f, g):
    """True only when f and g are proved coprime over Q (Brown 1971).

    For each occurring variable v the other variables are set to small integers
    and the images are reduced mod p, skipping points where a leading
    coefficient in v vanishes. There the leading coefficient of G = gcd(f, g)
    does not vanish either, so deg_v G is at most the degree of the images' gcd
    in F_p[v]; a constant gcd for every v gives deg G = 0. False means no
    certificate, not a shared factor; QuadExt coefficients never get one.
    """
    if not (f.is_rational() and g.is_rational()):
        return False
    coeffs = [*f.terms.values(), *g.terms.values()]
    p = next((p for p in _CERT_PRIMES if all(c.denominator % p for c in coeffs)), None)
    if p is None:
        return False
    residues = (_residues_mod_p(f, p), _residues_mod_p(g, p))
    for i in range(len(f.vars)):
        if not any(e[i] for e in f.terms) and not any(e[i] for e in g.terms):
            continue
        for k in range(len(_CERT_POINTS)):
            point = [_CERT_POINTS[(j + k) % len(_CERT_POINTS)] for j in range(len(f.vars))]
            a, b = _image_mod_p(residues, i, point, p)
            if a[-1] and b[-1]:
                break
        else:
            return False
        if len(_gcd_mod_p(a, b, p)) > 1:
            return False
    return True


def _gcd_mod_p(a, b, p):
    """gcd(a, b) up to a unit, by Euclid in F_p[v] on dense coefficient lists
    (lowest degree first, no trailing zeros); both lists are overwritten."""
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q, shift = a[-1] * inv % p, len(a) - len(b)
            for j, bj in enumerate(b):
                a[shift + j] = (a[shift + j] - q * bj) % p
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return a


def _residues_mod_p(f, p):
    """The terms of f as (exponent, coefficient mod p) pairs, for a prime p
    dividing no denominator of f."""
    return [(e, c.numerator * pow(c.denominator, -1, p) % p) for e, c in f.terms.items()]


def _image_mod_p(residues, i, point, p):
    """For each polynomial given by its `_residues_mod_p`, its dense
    coefficients mod p in variable i with the other variables set to `point`;
    the last entry is the image of the leading coefficient. The powers of each
    coordinate are computed once, for all the polynomials."""
    powers = []
    for j, x in enumerate(point):
        row = [1]
        if j != i:
            for _ in range(max(e[j] for terms in residues for e, _ in terms)):
                row.append(row[-1] * x % p)
        powers.append(row)
    images = []
    for terms in residues:
        out = [0] * (max(e[i] for e, _ in terms) + 1)
        for exp, t in terms:
            for j, e in enumerate(exp):
                if e and j != i:
                    t = t * powers[j][e] % p
            out[exp[i]] = (out[exp[i]] + t) % p
        images.append(out)
    return images


def _euclid_univar_scaled(f, g):
    # coefficients may be rationals of mixed size; Euclid with monic steps
    a, b = f, g
    while not b.is_zero():
        b = b / b.lt()[1]
        a, b = b, poly_divmod(a, b)[1]
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
        return MPoly.const(f.vars, 1), f
    prim = exact_div(f, cont)
    if prim is None:
        raise ArithmeticError("content failed to divide")
    return cont, prim


def squarefree_part(f):
    """Squarefree part over Q: f divided by the gcd of f and all its partials."""
    d = f
    for v in f.vars:
        fv = f.diff(v)
        if not fv.is_zero():
            d = poly_gcd(d, fv)
    if not d.is_constant():
        f = exact_div(f, d)
        if f is None:
            raise ArithmeticError("squarefree division failed")
    return normalized(f)


def yun_decomposition(f):
    """Yun's squarefree decomposition of a univariate rational polynomial.

    Returns [(g1, 1), (g2, 2), ...] with f = c * prod gi^i for a rational
    c, the gi squarefree, pairwise coprime and normalized.
    """
    occ = _occurring(f)
    if len(occ) != 1:
        raise ValueError("yun_decomposition expects a univariate polynomial")
    var = next(iter(occ))
    if f.is_zero():
        raise ValueError("zero polynomial")
    fn = normalized(f)
    df = fn.diff(var)
    a = poly_gcd(fn, df)
    if a.is_constant():
        return [(fn, 1)] if fn.total_degree() > 0 else []
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
    return out


# -- determinants and resultants ---------------------------------------------------


def bareiss_det(rows):
    """Determinant by fraction-free (Bareiss) elimination.

    Entries are exact scalars or MPoly over any variable sets. Every entry is
    packed (see `_packing`). Rational rows are scaled to integers, eliminated
    with int coefficients, and the product of the row scales is divided out at
    the end; entries with QuadExt coefficients run through the same loop over
    their field, unscaled. Each division by the previous pivot is exact by
    Bareiss's identity and is checked. Returns a scalar for scalar input,
    otherwise an MPoly over the union of the variables in first-seen order.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    polys = [x for row in rows for x in row if isinstance(x, MPoly)]
    union = []
    for x in polys:
        union += [v for v in x.vars if v not in union]
    rows = [[x if isinstance(x, MPoly) else MPoly.const(union, x) for x in row] for row in rows]
    # a minor's degree is at most the sum of its rows' degrees
    top = 2 * sum(max(max(x.total_degree() for x in row), 0) for row in rows)
    pack, unpack, guard = _packing(union, top)
    integral = all(x.is_rational() for row in rows for x in row)
    m = [[pack(x) for x in row] for row in rows]
    scale = 1
    if integral:
        for row in m:
            scale *= _clear_denominators(row)
    quo = _zquo if integral else operator.truediv
    sign, prev = 1, None
    for k in range(n - 1):
        if not m[k][k]:
            pivot = next((i for i in range(k + 1, n) if m[i][k]), None)
            if pivot is None:
                return MPoly.zero(union) if polys else Fraction(0)
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        rk = m[k]
        for ri in m[k + 1:]:
            for j in range(k + 1, n):
                e = _mul_sub(rk[k], ri[j], ri[k], rk[j])
                ri[j] = _exact_quo(e, prev, guard, quo) if prev and e else e
        prev = rk[k]
    det = {k: (Fraction(c, scale) if integral else c) * sign for k, c in m[n - 1][n - 1].items()}
    if not polys:
        return det.get(0, Fraction(0))
    return MPoly(union, unpack(det))


def _mul_sub(a, b, c, d):
    """a*b - c*d on packed polynomials."""
    out = {}
    get = out.get
    for u, v in ((a, b), ({k: -x for k, x in c.items()}, d)):
        for k1, c1 in u.items():
            for k2, c2 in v.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _zquo(a, b):
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("integer division was not exact")
    return q


def _exact_quo(a, b, guard, quo):
    """Packed a/b when b divides a; raises ArithmeticError otherwise."""
    q, r = _heap_divmod(a, b, guard, quo)
    if r:
        raise ArithmeticError("packed division was not exact")
    return q


def _product(factors):
    """Product of packed polynomials; the constant 1 for none."""
    out = {0: 1}
    for x in factors:
        out = _mul_sub(out, x, {}, {})
    return out


def _pseudo_remainder(a, b):
    """Collins pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, in one
    variable over packed coefficients.

    a and b are dense lists of packed polynomials, index = power, without
    trailing zeros, and deg a >= deg b >= 0; so is the result. Each step is
    r <- lc(b) * r - lc(r) * var^s * b, one `_mul_sub` per coefficient. The
    full power of lc(b) matters: the subresultant divisions are exact only
    for it, so the steps that a drop of more than one degree skips are made
    up at the end.
    """
    gl = b[-1]
    r = a
    steps = 0
    while len(r) >= len(b):
        rl, s = r[-1], len(r) - len(b)
        r = [_mul_sub(gl, c, rl, b[i - s]) if i >= s else _mul_sub(gl, c, {}, {})
             for i, c in enumerate(r[:-1])]
        while r and not r[-1]:
            r.pop()
        steps += 1
    missing = len(a) - len(b) + 1 - steps
    if missing:
        lift = _product([gl] * missing)
        r = [_mul_sub(lift, c, {}, {}) for c in r]
    return r


class _Chain:
    """One run of the packed subresultant PRS of f and g in `var`
    (Brown-Traub; Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 3.3.1 and 3.3.7), the one loop behind `subresultant_prs`,
    `resultant` and `linear_subresultant`.

    f and g are paired and ordered so that m = deg f >= n = deg g (`swapped`
    records an exchange). `elems` is the sequence A_0 = Lf*f, A_1 = Lg*g,
    A_2, ... with A_(i+1) = prem(A_(i-1), A_i) / (gg * h^delta), each element
    a dense list in var of packed coefficients (see `_packing`), and `hs[i]`
    the h of the loop once A_i is appended. Each rational input is put over
    its own denominator once (`scales` = (Lf, Lg)) and the loop runs on ints;
    one denominator for both would multiply every S_j by a power of the
    larger one, and the ratio polynomial pairs an often integral modulus f
    with a W whose reduction mod f brought large denominators. Inputs with
    QuadExt coefficients run the same loop over their field, unscaled
    (`scales` is None). Every division is exact by the subresultant theorem
    and is checked.
    """

    __slots__ = ("f", "g", "var", "swapped", "scales", "elems", "hs", "unpack", "guard", "quo")

    def __init__(self, f, g, var):
        f, g = f._pair(g)
        self.swapped = f.deg_in(var) < g.deg_in(var)
        if self.swapped:
            f, g = g, f
        if g.is_zero():
            raise ZeroDivisionError("pseudo-division by zero")
        self.f, self.g, self.var = f, g, var
        a, b = f.as_univar(var), g.as_univar(var)
        # Packing bound. With d the largest total degree of a coefficient in
        # var, every A_i is +-S_j for some j, and each coefficient of S_j,
        # like the leading coefficients gg and h, is a minor of order
        # m + n - 2j <= m + n of the Sylvester matrix, of total degree at
        # most (m + n) d. One step of `_pseudo_remainder` adds at most the
        # degree of lc(b), and there are delta + 1 <= m + 1 of them, so every
        # intermediate of the pseudo-remainder of a by b, and gg * h^delta and
        # gg^delta, have degree at most (delta + 2)(m + n) d <= (m + n + 2)(m + n) d.
        # So do the end corrections of `subresultant`: lc(b)^e * b and h^e
        # with e + 1 <= m factors of degree at most (m + n) d. The heap
        # division keeps its keys at or below the dividend's degree.
        m, n = len(a) - 1, len(b) - 1
        d = max(c.total_degree() for c in a + b)
        pack, self.unpack, self.guard = _packing(f.vars, (m + n + 2) * (m + n) * max(d, 1))
        a, b = [pack(c) for c in a], [pack(c) for c in b]
        integral = f.is_rational() and g.is_rational()
        self.scales = (_clear_denominators(a), _clear_denominators(b)) if integral else None
        self.quo = _zquo if integral else operator.truediv
        gg = h = {0: 1}
        self.elems, self.hs = [a, b], [h, h]
        while len(b) > 1:
            delta = len(a) - len(b)
            r = _pseudo_remainder(a, b)
            if not r:
                break
            divisor = _product([gg] + [h] * delta)
            r = [self._quo(c, divisor) for c in r]
            a, b = b, r
            gg = a[-1]
            if delta == 1:
                h = gg
            elif delta > 1:
                h = self._quo(_product([gg] * delta), _product([h] * (delta - 1)))
            self.elems.append(r)
            self.hs.append(h)

    def _quo(self, a, b):
        return _exact_quo(a, b, self.guard, self.quo)

    def poly(self, coeffs):
        """The MPoly of a dense list of packed coefficients in var."""
        i = self.f.vars.index(self.var)
        return MPoly(self.f.vars, {e[:i] + (k,) + e[i + 1:]: x for k, c in enumerate(coeffs)
                                   for e, x in self.unpack(c).items()})

    def subresultant(self, k):
        """S_k(f, g) read from the element of degree k, or None when the
        sequence has none; k <= n and k < m.

        End correction. Let b = A_j be that element and a = A_(j-1), of
        degree d_a > k. By the subresultant theorem b is +-S_(d_a - 1), and
        the h kept once b is appended is +- the principal coefficient of the
        regular S_(d_a), its coefficient of var^d_a. When d_a - 1 > k,
        S_(d_a - 1) is defective, the S_i strictly between k and d_a - 1
        vanish, and S_k = (lc(b) / h)^e * S_(d_a - 1) with e = d_a - 1 - k;
        for k = 0 this is Cohen's lc(b)^d_a / h^(d_a - 1). Computed as
        lc(b)^e * b / h^e, the division exact.

        Scale. The S_k matrix has n - k rows of f and m - k rows of g, so
        S_k(Lf f, Lg g) = Lf^(n - k) Lg^(m - k) S_k(f, g).

        Sign. For consecutive elements A, B of degrees p >= q > k with
        R = prem(A, B) of degree r, putting the rows of R in place of those
        of A (R = lc(B)^(p - q + 1) A - Q B) and moving the p - k rows of B
        above the q - k rows of R gives
        lc(B)^((p - q + 1)(q - k)) S_k(A, B) = (-1)^((p - k)(q - k)) lc(B)^(p - r) S_k(B, R),
        after expanding along the columns where only B has entries. The
        powers are what the divisions by gg * h^delta take out, so only the
        sign is left: (-1)^sum (d_(i-1) - k)(d_i - k) over consecutive
        degrees of the sequence up to a (b adds a zero term). For k = 0 it is
        Cohen's s, flipped where two consecutive degrees are both odd.
        """
        degrees = [len(x) - 1 for x in self.elems]
        if k not in degrees[1:]:
            return None
        j = degrees.index(k, 1)
        b, h = self.elems[j], self.hs[j]
        e = degrees[j - 1] - 1 - k
        if e:
            lift, down = _product([b[-1]] * e), _product([h] * e)
            b = [self._quo(_mul_sub(lift, c, {}, {}), down) for c in b]
        sign = (-1) ** sum((p - k) * (q - k) for p, q in zip(degrees[:j], degrees[1:j]))
        if self.scales is None:
            return self.poly([{key: c * sign for key, c in x.items()} for x in b])
        lf, lg = self.scales
        scale = lf ** (degrees[1] - k) * lg ** (degrees[0] - k)
        return self.poly([{key: Fraction(c * sign, scale) for key, c in x.items()} for x in b])

    def res(self):
        """Res(f, g) in the order the inputs were given: S_0, or 0 when the
        sequence ends above degree 0 (a common factor); Res(g, f) =
        (-1)^(mn) Res(f, g) undoes an exchange."""
        res = self.subresultant(0)
        if res is None:
            return MPoly.zero(self.f.vars)
        m, n = len(self.elems[0]) - 1, len(self.elems[1]) - 1
        return -res if self.swapped and m * n % 2 else res


def resultant(f, g, var):
    """Resultant eliminating `var`, equal to the determinant of the Sylvester
    matrix: S_0 of one `_Chain` run (see `_Chain.subresultant` for the end
    correction, the scale and the sign)."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of a zero polynomial")
    if f.deg_in(var) <= 0 and g.deg_in(var) <= 0:
        raise ValueError(f"both inputs are constant in {var!r}")
    return _Chain(f, g, var).res()


def subresultant_prs(f, g, var):
    """Subresultant polynomial remainder sequence (Collins/Brown-Traub).

    Returns the list [f, g, r1, r2, ...], with f and g swapped when g has the
    higher degree in `var`; each ri is the element A_(i+1) of one `_Chain`
    run made an MPoly: up to sign the subresultant S_(d-1) of Lf*f and Lg*g,
    d the degree of the element before it, and so proportional over the base
    field to a subresultant of f and g. That is all its callers need: the
    eigenvalue-ratio polynomial of `singularities` and the multivariate
    `poly_gcd` when the coprimality certificate fails both normalize what
    they take from it. Coefficient growth stays polynomial, unlike the naive
    PRS.
    """
    chain = _Chain(f, g, var)
    return [chain.f, chain.g] + [chain.poly(x) for x in chain.elems[2:]]


def linear_subresultant(f, g, var):
    """The subresultant S1 of f and g in `var` when its degree in `var` is
    exactly 1, else None.

    With f and g ordered so that m = deg f >= n = deg g, S1 is the
    determinant of the (m+n-2)-square subresultant matrix (von zur Gathen and
    Gerhard, Modern Computer Algebra, ch. 6): its rows are var^(n-2) f, ...,
    f, var^(m-2) g, ..., g; its columns their coefficients of var^(m+n-2),
    ..., var^2, and a last column holding each row's c1*var + c0 part. It is
    read from one `_Chain` run, from the element of degree 1 when there is
    one (`_Chain.subresultant`), and is None when there is none. An input of
    degree 1 is returned as it is, f before g after that ordering. A zero
    input raises ValueError.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("subresultant of a zero polynomial")
    chain = _Chain(f, g, var)
    for p, x in zip((chain.f, chain.g), chain.elems):
        if len(x) == 2:
            return p
    return chain.subresultant(1)
