"""Independent work in forked child processes.

`forked` is the one primitive: an os.fork whose outcome, a value or an
exception, is pickled back through a pipe.  Where os.fork is missing or
fails with OSError, or while two children are alive, the forked
function runs inline when joined, and each use below is the serial code
again.

Refinement levels.  The three grids of a refinement study do not depend
on each other.  Their one runner, evolve.refinement_runs, runs the coarse
levels in one child, their observers inline there, and the finest in the
caller, offering its observers to streamed_run (refinement_levels,
level_observe).  A level runs the same floating-point operations in any
process, so the results are bit-identical to the serial loop.  So are the
errors: the child is joined also when the finest level raises, and a
coarse level's error is raised first.

Two children.  With MAX_CHILDREN children alive, forked and streamed_run
run inline, through their fallback without os.fork; a forked child starts
its own count at 0.  So blowup streams its tracer beside its coarse child,
verify runs its finest balance level inline beside its closed-form and
coarse children, and a sweep streams its tracker.

Run observers.  An observer follows one run through three members:
`reads`, the fields of phi, w and p that it reads; on_step(state), called
with the run's start state and then each accepted state; and finalize(),
called once after the run, which returns a picklable result or raises a
package error.  EnergyTracker, CharacteristicTracer and BalanceAccumulator
are the three.  `streamed_run` takes a run's observers off the stepping
path.  It opens one pipe and forks one child for all of them.  A proxy
rides the run in their place: for each state it writes one frame, the t of
the state and the fields any of them reads, as float64, to a buffered pipe
file straight from the state's arrays.  The child reads each frame with one
readinto into a fresh array and calls each observer's on_step, in order,
with a state whose fields it named are views of the frame and whose other
fields are None, so reading a field it did not name fails there.  The pipe
holds PIPE_BYTES, resized once on Linux; elsewhere the system's default.  The
kernel's pipe buffer is the stream's ring.  At Linux's default 64 KiB the
caller waits on its child: in 6 alternating perfbench pairs on a shared
2-core x86-64 host, hierarchy_sweep's experiment_s read 1.04-1.47 s
against 0.66-0.81 s with the resize, and blowup_refine's +3 % was not
resolved.  EOF on a frame boundary ends the stream, and the child sends
back only each observer's finalize(), never the levels it holds; an
InsufficientHistory that finalize raises is sent in its slot, so that a
run too short for one observer does not hide the others' results.  After
a run that raised, the caller writes a partial frame before it closes the
pipe: EOF inside a frame, and the child skips finalize.  The states are
bit for bit those of the run, so the observer's results are those of the
serial run.
An error of an observer reaches the caller at its next write or when the
stream closes, with its type and message, and it wins over an error of the
run, which came later in the serial order.  No fork may happen while a
stream is open, since the forked process would inherit the pipe's write end
and the stream would never end; `forked` raises then.

Cost.  The forks move work onto a second core; they do not cut the CPU
time.  On one core of a shared 2-core x86-64 host (taskset -c 0), 3 runs a
side, forked vs serial (os.fork deleted) read blowup 1.16-1.28 vs
1.02-1.16 s, forked slower in 3 of 3, and sweep 0.71-0.74 vs 0.66-0.77 s
(ROADMAP item 22).  What they buy, in 6 alternating perfbench pairs per
probe on the same host: with verify's closed-form studies run inline,
identity_suite's peak_rss_mb read 39.55-39.66 MiB against 32.09-32.17 MiB
and its experiment_s was 11 % higher (median); with blowup's tracer run in
the caller instead of streamed, blowup_refine's experiment_s was 11 %
higher and its peak 1.15 MiB higher.  peak_rss_mb counts the caller alone,
so the first figure is the caller's memory, not the sum over processes.
An earlier probe of a shared-memory ring of the pipe's depth in place of
the pipe gave no resolvable gain and 0.4 MiB more peak memory.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import warnings
from types import SimpleNamespace

import numpy as np

from .errors import InsufficientHistory, StringLabError

# bytes of an observer stream's pipe: 21 frames of a hierarchy sweep's
# tracker (2 x 3 x 1025 floats), 9 of blowup's finest tracer (2 x 7169).
# 1 MiB is the default /proc/sys/fs/pipe-max-size, the most an
# unprivileged process may ask for
PIPE_BYTES = 1 << 20

# observer streams open in this process, which holds their pipes' write ends:
# `forked` refuses while any is open
_streams_open = 0

# children of this process that `forked` started and join has not reaped
MAX_CHILDREN = 2
_children_alive = 0


def forked(fn):
    """Start fn() in a forked child process; return join, which waits for
    the child and returns fn's value or raises its exception.

    The child pickles the outcome through a pipe and leaves by os._exit, so
    it runs no exit handler and flushes no buffer it inherited.  join()
    raises StringLabError when the child sends no readable outcome: a value
    or exception that does not pickle, or a child that died.  Where os.fork
    is missing or fails with OSError, or while MAX_CHILDREN children are
    alive, join is fn itself, run inline when joined.  Raises
    StringLabError while an observer stream is open in this process (module
    docstring).
    """
    global _children_alive
    if _streams_open:
        raise StringLabError("no fork while an observer stream is open: the child "
                             "would hold the stream's pipe open")
    if _children_alive >= MAX_CHILDREN:
        return fn
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns on any fork beside other threads; those of
            # a numpy process are OpenBLAS workers, which OpenBLAS stops
            # before a fork and the child starts again
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except (AttributeError, OSError):
        os.close(read_fd)
        os.close(write_fd)
        return fn
    if pid == 0:
        try:
            _children_alive = 0
            os.close(read_fd)
            try:
                outcome = True, fn()
            except BaseException as exc:
                outcome = False, exc
            try:
                data = pickle.dumps(outcome)
            except Exception as exc:
                data = pickle.dumps((False, StringLabError(
                    f"a forked child's {'value' if outcome[0] else 'error'} "
                    f"does not pickle: {exc}")))
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    _children_alive += 1

    def join():
        global _children_alive
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                data = pipe.read()
        finally:
            _, status = os.waitpid(pid, 0)
            _children_alive -= 1
        try:
            ok, value = pickle.loads(data)
        except Exception as exc:
            raise StringLabError(f"forked child {pid} sent no readable outcome "
                                 f"(wait status {status})") from exc
        if ok:
            return value
        raise value

    return join


def run_both(first, second):
    """(first(), second()), first in a forked child while second runs in the
    caller.  The child is joined also when second raises, and when both
    raise, first's error is raised, as if they had run in that order."""
    join = forked(first)
    try:
        value = second()
    except BaseException:
        join()
        raise
    return join(), value


def refinement_levels(level):
    """[level(0), level(1), level(2)]: levels 0 and 1 in one forked child,
    the finest in the caller (module docstring).  A lower level's error is
    raised first, as in the serial loop."""
    coarse, finest = run_both(lambda: [level(0), level(1)], lambda: level(2))
    return [*coarse, finest]


def level_observe(k):
    """observe(run, observers, start) of refinement_levels' level k: inline
    in the coarse levels' child, streamed from the caller's finest level."""
    return streamed_run if k == 2 else inline_run


def _finalized(observer):
    try:
        return observer.finalize()
    except InsufficientHistory as exc:
        return exc


def inline_run(run, observers, start):
    """streamed_run's result, the observers riding the run in this process;
    start is dropped before the run."""
    del start
    return run(observers), list(map(_finalized, observers))


def streamed_run(run, observers, start):
    """(run([proxy]), [each observer's finalize(), or the InsufficientHistory
    it raised]), where the proxy hands each state to the observers' on_step
    in one forked child, through a pipe (module docstring).

    run takes the run's callbacks and calls their on_step(state) with
    states of start's type, grid and field shape, such as the run's start
    state; the child rebuilds each as dataclasses.replace(start, ...), and
    this call drops start once the child is forked.  The stream is closed
    and the child reaped before this returns or raises.  With no observer,
    without a fork or with MAX_CHILDREN children alive, this is inline_run.
    """
    global _streams_open
    if not observers:
        return inline_run(run, observers, start)
    names = [name for name in ("phi", "w", "p") if any(name in o.reads for o in observers)]
    read_fd, write_fd = os.pipe()

    def observe():
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            while True:
                frame = np.empty(1 + len(names) * start.w.size)
                got = pipe.readinto(frame)
                if got < frame.nbytes:
                    # EOF: on a frame boundary the run ended; inside a frame
                    # it raised, and no result is wanted
                    return None if got else list(map(_finalized, observers))
                fields = dict(zip(names, frame[1:].reshape(len(names), *start.w.shape)))
                t = float(frame[0])
                for observer in observers:
                    observer.on_step(dataclasses.replace(
                        start, t=t, **{name: fields[name] if name in observer.reads else None
                                       for name in ("phi", "w", "p")}))

    try:
        join = forked(observe)
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    os.close(read_fd)
    # only the child reads start: held here, it would add a state to the
    # peak memory of a run that builds its own
    start = None
    if join is observe:
        os.close(write_fd)
        return inline_run(run, observers, start)
    try:
        import fcntl
        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
    except (ImportError, AttributeError, OSError):
        pass                    # the default size: the caller waits more (module docstring)
    pipe = os.fdopen(write_fd, "wb")

    def send(state):
        """Write state's frame straight from its arrays, which are C-contiguous."""
        try:
            pipe.write(np.float64(state.t))
            for name in names:
                pipe.write(getattr(state, name))
        except BrokenPipeError:
            raise StringLabError("an observer's child ended inside its stream") from None

    _streams_open += 1
    run_failed = True
    try:
        value = run([SimpleNamespace(on_step=send)])
        run_failed = False
    finally:
        _streams_open -= 1
        try:
            with pipe:
                if run_failed:
                    pipe.write(b"\0")      # a partial frame
        except BrokenPipeError:
            pass                # the child raised: join raises its error
        # raises the observer's error, which then wins over the run's
        observed = join()
    return value, observed
