import contextlib
import signal
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from planefol.mpoly import MPoly
from planefol.numbers import QuadExt


@pytest.fixture(scope="session")
def wall_clock_ceiling():
    """`with wall_clock_ceiling(seconds): ...` fails the test once the block
    has run for `seconds` of wall time, so a hang fails fast instead of
    stalling the suite. Uses SIGALRM; the previous handler is restored."""

    @contextlib.contextmanager
    def ceiling(seconds):
        def expire(signum, frame):
            pytest.fail(f"exceeded the wall-clock ceiling of {seconds} s", pytrace=False)

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return ceiling


@st.composite
def quadratic_fields(draw):
    """A field of degree <= 2 as a foliation file's JSON object, with small
    integer coefficients; half of them leave the line y = 0 invariant."""
    def poly(degree):
        coef = st.integers(min_value=-3, max_value=3)
        return MPoly(("x", "y"), {(i, j): draw(coef)
                                  for i in range(degree + 1) for j in range(degree + 1 - i)})

    P = poly(2)
    if draw(st.booleans()):  # y = 0 invariant, so that `index` has work
        Q = poly(1) * MPoly.variable("y", ("x", "y"))
    else:
        Q = poly(2)
    return {"vars": ["x", "y"], "P": str(P), "Q": str(Q)}


def subs_reference(p, mapping):
    """Simultaneous substitution, term by term: the test oracle for the
    package's Horner substitution and exponent maps. Images are MPoly or
    exact scalars; the result is over p's variables followed by the images'
    new ones. One MPoly product per term, from a cache of MPoly image
    powers, summed one piece at a time."""
    images = {}
    union = list(p.vars)
    for v, img in mapping.items():
        if v not in p.vars:
            continue
        if isinstance(img, (int, Fraction, QuadExt)):
            img = MPoly.const(p.vars, img)
        images[v] = img
        for w in img.vars:
            if w not in union:
                union.append(w)
    if not images:
        return p
    union = tuple(union)
    aligned = {v: img.with_vars(union) for v, img in images.items()}
    powers = {v: [MPoly.const(union, 1), img] for v, img in aligned.items()}

    def img_pow(v, k):
        cache = powers[v]
        while len(cache) <= k:
            cache.append(cache[-1] * cache[1])
        return cache[k]

    result = MPoly.zero(union)
    for e, c in p.terms.items():
        piece = MPoly.const(union, c)
        passthrough = [0] * len(union)
        for v, power in zip(p.vars, e):
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
