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
