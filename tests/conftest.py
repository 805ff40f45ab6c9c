import contextlib
import signal

import pytest


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
