"""Independent work in forked child processes.

`forked` is the one primitive: an os.fork whose outcome, a value or an
exception, is pickled back through a pipe.  Where os.fork is missing or
fails with OSError, the forked function runs inline when joined, and each
use below is the serial code again.  At most two children are alive at a
time.

Refinement levels.  The three grids of a refinement study (converge,
blowup, and verify's energy balance) do not depend on each other.
refinement_levels runs the two coarse levels in one child process while
the finest level runs in the caller.  Only the coarse levels' results
cross, so a callback riding on the finest run is never pickled;
blowup_study's CharacteristicTracer rides it through an observer stream
(below), opened after the coarse levels' child is forked.  A level runs
the same floating-point operations in either process, so the results are
bit-identical to the serial loop.  So are the errors: the child is joined
also when the finest level raises, and a coarse level's error is raised
first, where the serial loop would have stopped.

Observers in a child.  `streamed_run` takes a run's observer, such as
sweep's EnergyTracker or blowup's CharacteristicTracer, off the stepping
path.  It maps an anonymous shared ring of slots, each holding the t, phi,
w and p of one state of the run's start shape, and forks the observer's
child.  A proxy rides the run in the observer's place: it copies each
state into the next slot and writes one byte to a data pipe.  The child
builds each state from fresh copies of its slot, acks the slot on a
second pipe and calls the observer's on_step; the caller reads an ack
before it reuses a slot.  When the run ends the stream closes, and the
child sends back only result(observer), never the levels the observer
holds.  The states are bit for bit those of the run, so the observer's
results are those of the serial run.  The ring holds RING_BYTES, at least
two slots.  An error of the observer reaches the caller at its next
handoff or when the stream closes, with its type and message, and it wins
over an error of the run, which came later in the serial order.  No fork
may happen while a stream is open, since the forked process would inherit
the data pipe's write end and the stream would never end; `forked` raises
then.

Cost.  The forks move work onto a second core; they do not cut the CPU
time.  On one core (taskset -c 0) the forked runs are no faster than the
serial ones: medians of 5 pairs read sweep 0.903 vs 0.856 s and blowup
1.572 vs 1.527 s, inside the noise.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import warnings
from types import SimpleNamespace

import numpy as np

from .errors import StringLabError

# bytes of an observer stream's ring: 16 slots of the 3 x 1025 points of a
# hierarchy sweep, 6 of blowup's finest 7169.  The tracker works in bursts
# of FLUX_BLOCK = 8 levels: with 8 slots the caller waited about 0.1 s per
# sweep for acks, with 16 slots 5-30 ms
RING_BYTES = 1_200_000

# observer streams open in this process, which holds their data pipes:
# `forked` refuses while any is open
_streams_open = 0


def forked(fn):
    """Start fn() in a forked child process; return join, which waits for
    the child and returns fn's value or raises its exception.

    The child pickles the outcome through a pipe and leaves by os._exit, so
    it runs no exit handler and flushes no buffer it inherited.  join()
    raises StringLabError when the child sends no readable outcome: a value
    or exception that does not pickle, or a child that died.  Where os.fork
    is missing or fails with OSError, join is fn itself, run inline when
    joined.  Raises StringLabError while an observer stream is open in this
    process (module docstring).
    """
    if _streams_open:
        raise StringLabError("no fork while an observer stream is open: the child "
                             "would hold the stream's data pipe open")
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

    def join():
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                data = pipe.read()
        finally:
            _, status = os.waitpid(pid, 0)
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


def streamed_run(run, observer, result, start):
    """(run([proxy]), result(observer)), where the proxy hands each state
    the run gives it to observer.on_step in a forked child, through a
    shared ring (module docstring).

    run takes the run's callbacks and calls their on_step(state) with
    states of start's type, grid and field shape, such as the run's start
    state; the child rebuilds each as dataclasses.replace(start, ...), and
    this call drops start once the child is forked.  The stream is closed
    and the child reaped before this returns or raises.  The observer's
    error is raised before the run's, as in the serial order; after a run
    that raised, the child skips result.  Without a fork the observer rides
    the run in the caller.
    """
    global _streams_open
    # imported here: the extension adds about 0.2 MiB to the peak memory
    # of every process that loads it, also of those that stream nothing
    import mmap

    slot_bytes = 8 * (1 + 3 * start.w.size)
    slots = max(2, RING_BYTES // slot_bytes)
    ring = mmap.mmap(-1, slots * slot_bytes)
    # slot k is times[k] and fields[k] = (phi, w, p); the views alone keep
    # the ring mapped
    times = np.frombuffer(ring, count=slots)
    fields = np.frombuffer(ring, offset=8 * slots).reshape((slots, 3) + start.w.shape)
    del ring
    data_r, data_w = os.pipe()
    ack_r, ack_w = os.pipe()

    def observe():
        os.close(data_w)
        os.close(ack_r)
        k = 0
        while sent := os.read(data_r, slots):
            for byte in sent:
                if byte:            # the run failed: no result is wanted
                    return None
                # the whole slot is read before the ack frees it
                t = float(times[k])
                phi, w, p = (f.copy() for f in fields[k])
                os.write(ack_w, b"\0")
                observer.on_step(dataclasses.replace(start, t=t, phi=phi, w=w, p=p))
                k = (k + 1) % slots
        return result(observer)

    try:
        join = forked(observe)
    except BaseException:
        for fd in (data_r, data_w, ack_r, ack_w):
            os.close(fd)
        raise
    os.close(data_r)
    os.close(ack_w)
    # only the child reads start: held here, it would add a state to the
    # peak memory of a run that builds its own
    start = None
    if join is observe:
        os.close(data_w)
        os.close(ack_r)
        times = fields = None           # unmaps the ring
        return run([observer]), result(observer)

    _streams_open += 1
    free, k = slots, 0

    def send(state):
        """Copy state into the next free slot and tell the child."""
        nonlocal free, k
        if not free:
            free = len(os.read(ack_r, slots))
            if not free:
                raise StringLabError("an observer's child ended inside its stream")
        times[k] = state.t
        fields[k, 0] = state.phi
        fields[k, 1] = state.w
        fields[k, 2] = state.p
        try:
            os.write(data_w, b"\0")
        except BrokenPipeError:
            raise StringLabError("an observer's child ended inside its stream") from None
        free -= 1
        k = (k + 1) % slots

    run_failed = True
    try:
        value = run([SimpleNamespace(on_step=send)])
        run_failed = False
    finally:
        _streams_open -= 1
        if run_failed:
            try:
                os.write(data_w, b"\1")
            except BrokenPipeError:
                pass
        os.close(data_w)
        # unmap the ring before the child's result is read: a ring still
        # mapped there raised the peak memory of a sweep by about 1.2 MiB
        times = fields = None
        try:
            # raises the observer's error, which then wins over the run's
            observed = join()
        finally:
            # the child acks its last slots until it ends
            os.close(ack_r)
    return value, observed
