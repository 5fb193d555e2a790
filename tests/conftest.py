import os
import signal
from contextlib import contextmanager
from pathlib import Path

import pytest

import kleeneset
from kleeneset import diagonal, terms
from kleeneset.universe import Truncation


@pytest.fixture(autouse=True)
def _library_table_as_found():
    """Every test leaves the library table as it found it: the lambdas it
    compiled are dropped, and the memos emptied, when it is done."""
    size = terms.rom_size()
    yield
    terms.rewind(size)


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


@pytest.fixture(scope="session")
def child_env():
    """The environment of a fresh interpreter on the source under test: this
    one's, with the directory kleeneset came from first on PYTHONPATH."""
    src = str(Path(kleeneset.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TimeLimitExceeded(Exception):
    """A body under time_limit ran too long.  Neither an OSError (so not a
    TimeoutError) nor a ValueError: the command line turns a failure to read
    a file into a clean exit 2, and a hang must not pass for that."""


RING_AGAIN_S = 0.05


@contextmanager
def time_limited(seconds, what):
    """Raise TimeLimitExceeded in the body once seconds of wall time have
    passed.  The timer rings again every RING_AGAIN_S until the body leaves:
    a raise from a signal handler that runs inside a garbage-collector
    callback is dropped, and one ring alone would then let the body run on."""
    def ring(signum, frame):
        raise TimeLimitExceeded(f"{what} took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds, RING_AGAIN_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def time_limit():
    """time_limit(seconds, what): time_limited, as a fixture."""
    return time_limited
