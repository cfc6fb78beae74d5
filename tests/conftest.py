import os
from pathlib import Path

import numpy as np
import pytest

from stringlab import DataFamily, ProfileSpec, parse_config

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def fixture_config(name):
    """The ExperimentConfig of fixtures/<name>.cfg."""
    return parse_config((FIXTURES / f"{name}.cfg").read_text())


def refined(cfg):
    """cfg on the 2x refinement of its grid, the same interval."""
    return cfg.with_(dx=cfg.dx / 2, n=2 * cfg.n - 1)


# the colliding packets of acceptance A5 on a 361-point grid to t = 5: each
# level of a blowup study loses hyperbolicity near t = 3.9
BLOWUP_SMALL = fixture_config("a5_blowup").with_(x0=-18.0, dx=0.1, n=361, t_end=5.0)


class Recorder:
    """run_evolution callback that records every accepted state, the start
    state first.  Each accepted state holds fresh arrays, so none is copied;
    an ensemble member's history is [s.member(k) for s in rec.states]."""

    def __init__(self):
        self.states = []

    def on_step(self, state):
        self.states.append(state)


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps each child process it starts."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_fd_left():
    """Every test closes each file descriptor it opens, where /proc/self/fd
    lists them."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = sorted(os.listdir("/proc/self/fd"))
    yield
    assert sorted(os.listdir("/proc/self/fd")) == before


@pytest.fixture
def unit_gaussian():
    return ProfileSpec("gaussian", 1.0, 0.0, 1.0)


@pytest.fixture
def default_family():
    """delta = 0.1 family with the default width-2 unit-amplitude seeds."""
    return DataFamily(gamma=0.5, delta=0.1,
                      f=ProfileSpec("gaussian", 1.0, 0.0, 2.0),
                      fb=ProfileSpec("gaussian", 1.0, 0.0, 2.0))


@pytest.fixture
def travelling_family():
    return DataFamily(gamma=0.5, delta=0.0,
                      f=ProfileSpec("gaussian", 1.0, 0.0, 2.0),
                      fb=ProfileSpec("gaussian", 1.0, 0.0, 2.0))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
