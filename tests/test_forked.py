"""Work in a forked child (`evolve.forked`): the primitive, the package
errors that cross it, the inline fallback where os.fork is missing, the
error order of the refinement levels, and no child left unreaped."""

import os
import pickle

import numpy as np
import pytest

import stringlab.errors as errors
import stringlab.evolve as evolve
from stringlab import BlowupDetected, StringLabError, blowup_study, convergence_study
from stringlab.config import ExperimentConfig
from stringlab.evolve import forked, refinement_levels
from stringlab.identities import verify_suite

# one instance of every package error
ERRORS = [
    errors.StringLabError("base"),
    errors.TimelikeViolation(0.01, 0.02, where="t = 1"),
    errors.HyperbolicityLoss(-1e-3, where="initial data"),
    errors.BlowupDetected(3.5, "non-finite values", ("non-finite values", None)),
    errors.DataOutOfRange("w is not finite"),
    errors.FitOverflow("M2 overflows"),
    errors.InsufficientHistory("need 4 levels"),
    errors.ParseError(7, "no '='"),
    errors.ValidationError("dx must be positive"),
]

CONVERGE = ExperimentConfig(delta=0.0, t_end=2.0, x0=-18.0, dx=0.28125, n=129)
# the colliding packets of acceptance A5; every level blows up near t = 3.9
BLOWUP = ExperimentConfig(x0=-18.0, dx=0.1, n=361, t_end=5.0, delta=1.0,
                          f_amplitude=2.4, f_center=4.0, f_width=1.0,
                          fb_amplitude=2.4, fb_center=-4.0, fb_width=1.0)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_every_package_error_survives_pickling():
    assert {type(e) for e in ERRORS} == {StringLabError, *_subclasses(StringLabError)}
    for exc in ERRORS:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc) and back.args == exc.args
        assert vars(back) == vars(exc)


def test_forked_returns_the_value_or_raises_the_error():
    assert forked(lambda: [1.5, "a", None])() == [1.5, "a", None]

    def fail():
        raise BlowupDetected(2.0, "field size", ("field size", None))

    with pytest.raises(BlowupDetected, match="field size") as info:
        forked(fail)()
    assert info.value.t_last == 2.0 and info.value.members == ("field size", None)
    _assert_no_child_left()


def test_forked_names_an_outcome_that_does_not_cross():
    with pytest.raises(StringLabError, match="value does not pickle"):
        forked(lambda: lambda: None)()

    def fail():
        raise ValueError(lambda: None)

    with pytest.raises(StringLabError, match="error does not pickle"):
        forked(fail)()
    with pytest.raises(StringLabError, match="sent no readable outcome"):
        forked(lambda: os._exit(3))()
    _assert_no_child_left()


def test_without_fork_the_function_runs_when_joined(monkeypatch):
    monkeypatch.delattr(os, "fork")
    ran = []
    join = forked(lambda: ran.append(1) or "done")
    assert ran == []
    assert join() == "done" and ran == [1]


@pytest.mark.parametrize("fork", [True, False])
def test_a_lower_level_error_is_raised_first(monkeypatch, fork):
    if not fork:
        monkeypatch.delattr(os, "fork")

    def level(k):
        if k != 1:
            raise BlowupDetected(k, f"stop on level {k}")
        return k

    with pytest.raises(BlowupDetected, match="on level 0"):
        refinement_levels(level)
    with pytest.raises(BlowupDetected, match="on level 2"):
        refinement_levels(lambda k: level(k) if k else k)
    assert refinement_levels(lambda k: 10 * k) == [0, 10, 20]
    if fork:
        _assert_no_child_left()


def test_no_child_outlives_a_study(monkeypatch):
    assert convergence_study(CONVERGE).passed()
    _assert_no_child_left()
    # the field-size cap stops every level at its first step
    monkeypatch.setattr(evolve, "FIELD_CAP", 1.0)
    with pytest.raises(BlowupDetected, match="on level 0"):
        convergence_study(CONVERGE.with_(f_amplitude=3.0, fb_amplitude=3.0))
    _assert_no_child_left()


def test_verify_keeps_at_most_two_children_alive(monkeypatch):
    alive, peak = [0], [0]
    real_fork, real_waitpid = os.fork, os.waitpid

    def fork():
        pid = real_fork()
        if pid:
            alive[0] += 1
            peak[0] = max(peak[0], alive[0])
        return pid

    def waitpid(pid, options):
        alive[0] -= 1
        return real_waitpid(pid, options)

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "waitpid", waitpid)
    assert not verify_suite(ExperimentConfig(seed=1)).failures
    assert peak == [2] and alive == [0]


def test_fallback_gives_the_forked_results(monkeypatch):
    conv, blow = convergence_study(CONVERGE), blowup_study(BLOWUP)
    suite = verify_suite(ExperimentConfig(seed=1))
    monkeypatch.delattr(os, "fork")
    assert convergence_study(CONVERGE) == conv
    inline = blowup_study(BLOWUP)
    assert inline.levels == blow.levels and len(inline.paths) == 17
    assert (inline.t_star, inline.initial_sep, inline.min_sep) == \
        (blow.t_star, blow.initial_sep, blow.min_sep)
    for a, b in zip(inline.paths, blow.paths):
        assert a.seed_x == b.seed_x
        assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("ts", "xs", "alive"))
    assert verify_suite(ExperimentConfig(seed=1)) == suite
