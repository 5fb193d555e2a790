import signal
from contextlib import contextmanager

import pytest

from kleeneset import diagonal
from kleeneset.universe import Truncation


@pytest.fixture(scope="session")
def catalogue():
    return diagonal.default_catalogue()


@pytest.fixture(scope="session")
def built_path(catalogue):
    seq, log = diagonal.build_h(catalogue, 30)
    return seq, log


@pytest.fixture(scope="session")
def path_view(built_path):
    seq, _ = built_path
    return diagonal.SeqCode(seq.components)


@pytest.fixture(scope="session")
def trunc(path_view):
    return Truncation(segment_bound=8, nat_bound=8, distinguished=path_view)


class TimeLimitExceeded(Exception):
    """A body under time_limit ran too long.  Neither an OSError (so not a
    TimeoutError) nor a ValueError: the command line turns a failure to read
    a file into a clean exit 2, and a hang must not pass for that."""


@pytest.fixture(scope="session")
def time_limit():
    """time_limit(seconds, what): a context manager that raises
    TimeLimitExceeded in its body once seconds of wall time have passed."""
    @contextmanager
    def limit(seconds, what):
        def ring(signum, frame):
            raise TimeLimitExceeded(f"{what} took more than {seconds} s")

        previous = signal.signal(signal.SIGALRM, ring)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit
