import importlib
import io
import os
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from stringlab import DataFamily, ProfileSpec, parse_config
from stringlab.cli import main

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


def open_fds():
    """The sorted /proc/self/fd listing; None where there is none."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@dataclass
class FixtureRun:
    """What one recorded CLI call gave (record_call)."""

    code: int                   # exit code
    csvs: dict                  # CSV name -> bytes
    stdout: str
    stderr: str
    wall: float                 # seconds of the call
    study: object               # what the recorded study call returned; None if none


# acceptance fixture -> (its CLI mode, the name that cli calls for the mode's study)
FIXTURE_STUDIES = {
    "a3_sweep": ("sweep", "stringlab.energy.tracked_sweep"),
    "a5_blowup": ("blowup", "stringlab.cli.blowup_study"),
    "a7_tracecheck": ("tracecheck", "stringlab.energy.trace_check_study"),
}


def record_call(argv, out, target=None):
    """Call main(argv), whose CSVs go to out, and return its FixtureRun.
    The call that the dotted name target names, if given, is wrapped for
    the duration, and its return value is recorded as the study."""
    returned = []
    stdout, stderr = io.StringIO(), io.StringIO()
    fds = open_fds()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(stdout), redirect_stderr(stderr):
        if target is not None:
            module, _, attr = target.rpartition(".")
            study = getattr(importlib.import_module(module), attr)

            def recorded(*args, **kwargs):
                returned.append(study(*args, **kwargs))
                return returned[-1]

            mp.setattr(target, recorded)
        t0 = time.perf_counter()
        code = main(argv)
        wall = time.perf_counter() - t0
    # no_child_left's and no_fd_left's checks, made around the call itself:
    # a failure then names the call, not the test that first asked for it
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds
    return FixtureRun(code, {f.name: f.read_bytes() for f in out.iterdir()},
                      stdout.getvalue(), stderr.getvalue(), wall,
                      returned[0] if returned else None)


def _run_fixture(name, out):
    mode, target = FIXTURE_STUDIES[name]
    return record_call([mode, "--config", str(FIXTURES / f"{name}.cfg"), "--out", str(out)],
                       out, target)


@pytest.fixture(scope="session")
def fixture_run(tmp_path_factory):
    """fixture_run(name) -> the FixtureRun of fixtures/<name>.cfg's CLI call,
    made at the session's first request of it, so that the acceptance tests
    and the fixture pins read one call."""
    runs = {}

    def run(name):
        if name not in runs:
            runs[name] = _run_fixture(name, tmp_path_factory.mktemp(name) / "out")
        return runs[name]

    return run


@pytest.fixture(scope="session")
def golden_fork_run(tmp_path_factory):
    """What the session's one run of every test_golden.GOLDEN config with
    fork saw (test_numpy_footprint.fresh_golden_run): exit codes, CSV hashes
    and the footprint, warning and child checks.  The golden pins and the
    footprint test read it."""
    from test_numpy_footprint import fresh_golden_run

    return fresh_golden_run(tmp_path_factory.mktemp("golden"))


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
    before = open_fds()
    yield
    assert open_fds() == before


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
