import contextlib
import signal

import pytest
from hypothesis import strategies as st

from planefol.mpoly import MPoly


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
