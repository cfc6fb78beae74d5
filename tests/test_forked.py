"""Work in a forked child (`forking.forked`): the primitive, the package
errors that cross it, the inline fallback where os.fork is missing, the
error order of the refinement levels, and the number of children alive.
Also a run's observer streamed to a child (`forking.streamed_run`): every
observer ends through finalize(), the same results as in the caller, also
on a one-page pipe, only the fields the observer names, errors in serial
order, also where a failed run's stream ends inside a frame that spans
several reads, a pipe that holds PIPE_BYTES while the run streams, and no
fork while a stream is open.
conftest checks that no test leaves a child unreaped."""

import dataclasses
import os
import pickle
import sys

import numpy as np
import pytest
from conftest import BLOWUP_SMALL as BLOWUP

import stringlab.errors as errors
import stringlab.evolve as evolve
import stringlab.forking as forking
from stringlab import (BlowupDetected, CharacteristicTracer, EnergyReport, EnergyTracker,
                       InsufficientHistory, StringLabError, blowup_study, convergence_study,
                       init_state, run_evolution, stack_states, tracked_sweep)
from stringlab.config import ExperimentConfig
from stringlab.energy import config_tracker
from stringlab.forking import forked, refinement_levels, streamed_run
from stringlab.identities import BalanceAccumulator, verify_suite

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


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


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


def test_forked_names_an_outcome_that_does_not_cross():
    with pytest.raises(StringLabError, match="value does not pickle"):
        forked(lambda: lambda: None)()

    def fail():
        raise ValueError(lambda: None)

    with pytest.raises(StringLabError, match="error does not pickle"):
        forked(fail)()
    with pytest.raises(StringLabError, match="sent no readable outcome"):
        forked(lambda: os._exit(3))()


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


def test_no_child_outlives_a_study(monkeypatch):
    assert convergence_study(CONVERGE).errors.passed()
    # the field-size cap stops every level at its first step
    monkeypatch.setattr(evolve, "FIELD_CAP", 1.0)
    with pytest.raises(BlowupDetected, match="on level 0"):
        convergence_study(CONVERGE.with_(f_amplitude=3.0, fb_amplitude=3.0))


def test_verify_keeps_at_most_two_children_alive(monkeypatch):
    # verify and blowup: the coarse levels' or closed forms' child and one
    # more; a sweep: only its tracker's stream child
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
    for study, want in [(lambda: all(ok for _, ok in verify_suite(ExperimentConfig(seed=1))), 2),
                        (lambda: blowup_study(BLOWUP).paths, 2),
                        (lambda: tracked_sweep(SWEEP.with_(deltas=(0.1, 0.05))), 1)]:
        peak[0] = 0
        assert study()
        assert peak == [want] and alive == [0]


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


# ---------------------------------------------------------------------------
# an observer streamed to a child

SWEEP = ExperimentConfig(x0=-24.0, dx=0.1, n=481, t_end=12.0, report_every=10,
                         probes_u=(0.0, -6.0), probes_ub=(0.0, 2.0))


def _sweep_start(deltas=(0.1, 0.05)):
    grid = SWEEP.grid()
    return stack_states([init_state(SWEEP.with_(delta=d).family(), grid) for d in deltas])


def _sweep_run(start):
    """run(callbacks), the run of streamed_run, from start."""
    return lambda callbacks: run_evolution(start, t_end=SWEEP.t_end, callbacks=callbacks)


def _streamed_tracker_equals_the_tracker_in_the_caller():
    start = _sweep_start()
    here = config_tracker(SWEEP)
    res_here = _sweep_run(start)([here])
    res, (member_reports, truncated) = streamed_run(_sweep_run(start), config_tracker(SWEEP),
                                                    start)
    here_reports, here_truncated = here.finalize()
    # a frame holds t and the tracker's phi and w rows
    assert res.n_steps == 300 > forking.PIPE_BYTES // (8 * (1 + 2 * 2 * SWEEP.n))
    assert np.array_equal(res.state.phi, res_here.state.phi)
    assert truncated == here_truncated == ["u0=-6"]
    assert len(member_reports) == 2
    for got, want in zip(member_reports, here_reports):
        assert len(got) == len(want) == 30
        for a, b in zip(got, want):
            for f in dataclasses.fields(EnergyReport):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name


def _streamed_blowup_paths_equal_a_tracer_in_the_caller():
    study = blowup_study(BLOWUP)
    tracer = CharacteristicTracer([p.seed_x for p in study.paths], "plus")
    res = run_evolution(BLOWUP.family(), BLOWUP.grid().refined(4), t_end=BLOWUP.t_end,
                        callbacks=[tracer])
    assert res.t_blowup == study.levels[2].t_blowup
    paths, min_sep = tracer.finalize()
    assert study.min_sep == min_sep
    for a, b in zip(study.paths, paths):
        assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("ts", "xs", "alive"))


@pytest.mark.parametrize("pipe_bytes", [4096, forking.PIPE_BYTES])
def test_streamed_tracker_equals_the_tracker_in_the_caller(monkeypatch, pipe_bytes):
    # a one-page pipe, smaller than one frame of 2 x 481 points, and the
    # default pipe of 68 frames under a run of 300 steps
    monkeypatch.setattr(forking, "PIPE_BYTES", pipe_bytes)
    _streamed_tracker_equals_the_tracker_in_the_caller()


def test_streamed_blowup_paths_equal_a_tracer_in_the_caller(monkeypatch):
    monkeypatch.setattr(forking, "PIPE_BYTES", 4096)
    _streamed_blowup_paths_equal_a_tracer_in_the_caller()


def _same_bits(a, b):
    """a and b hold the same values bit for bit, through dataclasses, lists
    and tuples down to arrays, floats and strings."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same_bits(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same_bits, a, b))
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _single_start():
    return init_state(SWEEP.family(), SWEEP.grid())


# the package's run observers: (a new observer, the start state it follows)
OBSERVERS = {
    "EnergyTracker": (lambda: config_tracker(SWEEP), _sweep_start),
    "CharacteristicTracer": (lambda: CharacteristicTracer(np.linspace(-6.0, 6.0, 9)),
                             _single_start),
    "BalanceAccumulator": (lambda: BalanceAccumulator("TLb", 1.0, SWEEP.gamma), _single_start),
}


@pytest.mark.parametrize("fork", [True, False])
@pytest.mark.parametrize("name", list(OBSERVERS))
def test_every_observer_ends_through_finalize(monkeypatch, name, fork):
    # one protocol: reads, on_step and finalize, whose result crosses the
    # stream bit for bit and pickles; no other ending is left
    new, start_of = OBSERVERS[name]
    start = start_of()
    here = new()
    assert _sweep_run(start)([here]).status == "completed"
    if not fork:
        monkeypatch.delattr(os, "fork")
    _, streamed = streamed_run(_sweep_run(start), new(), start)
    assert _same_bits(streamed, here.finalize())
    assert _same_bits(pickle.loads(pickle.dumps(streamed)), streamed)
    assert set(here.reads) <= {"phi", "w", "p"}
    assert not {"finish", "flush", "member_reports", "truncated_probes"} & set(dir(here))


class _FailAt:
    """An observer that raises at its state of index `at`; its result is
    the number of states it took."""

    reads = ()

    def __init__(self, at, exc):
        self.at, self.exc, self.seen = at, exc, 0

    def on_step(self, state):
        if self.seen == self.at:
            raise self.exc
        self.seen += 1

    def finalize(self):
        return self.seen


def _unread(observer):
    raise AssertionError("the result of a failed run was read")


class _Unread(_FailAt):
    """A _FailAt that never fails, whose result must not be read."""

    def __init__(self):
        super().__init__(10 ** 9, None)

    finalize = _unread


@pytest.mark.parametrize("fork", [True, False])
def test_an_observer_error_crosses_and_wins_over_a_run_error(monkeypatch, fork):
    if not fork:
        monkeypatch.delattr(os, "fork")
    start = _sweep_start()
    bad = InsufficientHistory("observer stops at state 40")
    # the error reaches a later handoff or the stream's close; the run
    # cannot tell which
    with pytest.raises(InsufficientHistory, match="^observer stops at state 40$"):
        streamed_run(_sweep_run(start), _FailAt(40, bad), start)
    # the run fails at state 1, after the observer did: the observer's
    # error is raised, as in the serial order
    single = init_state(SWEEP.family(), SWEEP.grid())

    def run_failing_at(at):
        fail = _FailAt(at, BlowupDetected(0.0, f"run at {at}"))
        return lambda callbacks: run_evolution(single, t_end=1.0, callbacks=[*callbacks, fail])

    with pytest.raises(ValueError, match="^observer at 1$"):
        streamed_run(run_failing_at(1), _FailAt(1, ValueError("observer at 1")), single)
    # a run error alone is raised, the observer's result unread
    with pytest.raises(BlowupDetected, match="run at 3"):
        streamed_run(run_failing_at(3), _Unread(), single)


class _UnreadFields(_Unread):
    """An _Unread whose frames carry all three fields."""

    reads = ("phi", "w", "p")


def test_a_failed_run_ends_a_one_page_stream_inside_a_frame(monkeypatch):
    # a frame of t and 3 x 481 points spans several reads of a one-page
    # pipe; after the run fails at state 3, the child meets EOF inside the
    # next frame and leaves the observer's result unread
    monkeypatch.setattr(forking, "PIPE_BYTES", 4096)
    single = _single_start()
    assert 8 * (1 + 3 * single.w.size) > 4096
    fail = _FailAt(3, BlowupDetected(0.0, "run at 3"))
    with pytest.raises(BlowupDetected, match="run at 3$"):
        streamed_run(lambda callbacks: run_evolution(single, t_end=1.0,
                                                     callbacks=[*callbacks, fail]),
                     _UnreadFields(), single)
    assert fail.seen == 3


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="pipe sizes are Linux's")
def test_a_stream_holds_pipe_bytes_while_its_run_streams(monkeypatch):
    # the default 64 KiB pipe holds one to five frames of the benchmark's
    # runs, and the sweep's caller then waits on its child (module docstring)
    import fcntl
    pipes, make_pipe = [], os.pipe

    def recorded_pipe():
        pipes.append(make_pipe())
        return pipes[-1]

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    single = _single_start()
    held = []

    def run(callbacks):
        # the stream's pipe is opened before the pipe of the child's outcome
        held.append(fcntl.fcntl(pipes[0][1], fcntl.F_GETPIPE_SZ))
        return run_evolution(single, t_end=1.0, callbacks=callbacks)

    res, seen = streamed_run(run, _FailAt(10 ** 9, None), single)
    assert seen == res.n_steps + 1
    assert held[0] >= forking.PIPE_BYTES


class _Carried:
    """An observer that names w and records which of phi, w and p each
    state carries."""

    reads = ("w",)

    def __init__(self):
        self.seen = set()

    def on_step(self, state):
        self.seen.add(tuple(getattr(state, f) is not None for f in ("phi", "w", "p")))

    def finalize(self):
        return self.seen


class _ReadsUnnamed(_Carried):
    def on_step(self, state):
        state.p.copy()

    finalize = _unread


def test_a_forked_observer_gets_only_the_fields_it_names():
    start = _sweep_start()
    res, seen = streamed_run(_sweep_run(start), _Carried(), start)
    assert res.n_steps == 300 and seen == {(False, True, False)}
    # reading a field it did not name fails in the child, and the error crosses
    with pytest.raises(AttributeError, match="'NoneType' object has no attribute 'copy'"):
        streamed_run(_sweep_run(start), _ReadsUnnamed(), start)


def test_a_run_that_fails_before_its_first_state_leaves_no_child():
    # the stream opens before the run starts; conftest checks the child is reaped
    def run(callbacks):
        raise ValueError("no state")

    with pytest.raises(ValueError, match="^no state$"):
        streamed_run(run, _Unread(), _sweep_start())


def test_a_tracker_error_crosses_a_sweep(monkeypatch):
    def fail(self, state):
        raise ValueError(f"tracker fails at t = {state.t:g}")

    monkeypatch.setattr(EnergyTracker, "on_step", fail)
    with pytest.raises(ValueError, match="^tracker fails at t = 0$"):
        tracked_sweep(SWEEP.with_(deltas=(0.1, 0.05)))


def test_a_short_finest_level_raises_only_where_its_paths_are_read(monkeypatch):
    # 2 steps on the finest level: 3 levels, too few to trace, but no level
    # blows up, so the study reads no paths
    study = blowup_study(BLOWUP.with_(t_end=0.02))
    assert np.isnan(study.t_star) and study.paths == []
    # the field-size cap stops every level at its first step: the paths are
    # read, and the finest level has 1 state
    monkeypatch.setattr(evolve, "FIELD_CAP", 1.0)
    with pytest.raises(InsufficientHistory, match="the run has 1$"):
        blowup_study(BLOWUP)


def test_no_fork_while_a_stream_is_open():
    state = init_state(SWEEP.family(), SWEEP.grid())
    fds = []

    def run(callbacks):
        for cb in callbacks:
            cb.on_step(state)
        with pytest.raises(StringLabError, match="no fork while an observer stream is open"):
            forked(lambda: None)
        # a second stream cannot start, and leaves no pipe open
        fds.append(len(os.listdir("/proc/self/fd")))
        with pytest.raises(StringLabError, match="no fork while an observer stream is open"):
            streamed_run(_unread, _FailAt(10 ** 9, None), state)
        fds.append(len(os.listdir("/proc/self/fd")))
        for cb in callbacks:
            cb.on_step(state)
        return "ran"

    assert streamed_run(run, _FailAt(10 ** 9, None), state) == ("ran", 2)
    assert fds[0] == fds[1]
    assert forked(lambda: 3)() == 3
