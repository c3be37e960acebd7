"""Independent work side by side: one worker per usable CPU.

side_by_side(fn, items) is [fn(x) for x in items], in item order.  The
items are dealt round-robin into one chunk per usable CPU
(os.sched_getaffinity), at most one per item.  Chunk 0 runs in this
process and each other chunk in a child forked for it, which pickles its
results (or the exception that stopped it) into a pipe and ends with
os._exit.  Only results cross the pipe, so fn may be a closure; what it
returns must pickle.  With one usable CPU or one item, or without
os.fork, nothing is forked: `taskset -c 0` makes every caller serial.
side_by_side_chunks(fn, items) deals the same chunks but hands each
worker its whole chunk, for work that is cheaper done together: the runs
of a chunk step in lockstep (solver.run_lockstep), so under
`taskset -c 0` one worker steps them all as one batch.

This is the package's one home of process parallelism.  The runs of a
sweep or a stability pair (experiments), the stored slices of an energy
report (energy.trajectory_report) and those of a residual pass
(cancellation._order_residuals) go through it; no other module forks,
opens a pipe or pickles.
"""
from __future__ import annotations

import os
import pickle
import signal


def _reply(sink, work) -> None:
    """In a forked child: pickle (True, work()) or (False, the exception it
    raised) into the pipe file sink, then end the process; a child never
    returns into the stack it was forked from."""
    status = 0
    try:
        try:
            reply = (True, work())
        except BaseException as exc:
            reply = (False, exc)
        with sink:
            pickle.dump(reply, sink, protocol=pickle.HIGHEST_PROTOCOL)
    except BaseException:
        status = 1
    finally:
        os._exit(status)


def side_by_side(fn, items) -> list:
    """[fn(x) for x in items], with the chunks of items side by side
    (side_by_side_chunks)."""
    return side_by_side_chunks(lambda chunk: [fn(x) for x in chunk], items)


def side_by_side_chunks(fn, items) -> list:
    """fn(chunk) of each chunk of items, side by side, flattened back into
    item order: fn returns one result per item of its chunk, in order.

    Chunk k holds items[k::n] for n workers.  The children's results are
    read after chunk 0, in chunk order, and a child's exception is raised
    here with its type and message.  No child outlives the call: when
    anything here raises, the children not yet reaped are killed and
    reaped."""
    items = list(items)
    n = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        n = max(1, min(len(items), len(os.sched_getaffinity(0))))

    def chunk(k):
        return fn(items[k::n])

    out = [None] * len(items)
    pids, pipes, reaped = [], [], set()  # pids and read ends in chunk order
    try:
        for k in range(1, n):
            r, w = os.pipe()
            pipes.append(os.fdopen(r, "rb"))
            # this process closes the write end once forked, so a child that
            # dies leaves its reader at end of file
            with os.fdopen(w, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    _reply(sink, lambda: chunk(k))
                pids.append(pid)
        out[0::n] = chunk(0)
        for k, (pid, pipe) in enumerate(zip(pids, pipes), 1):
            try:
                ok, reply = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                ok, reply = False, RuntimeError(f"worker {pid} ended without a result")
            os.waitpid(pid, 0)
            reaped.add(pid)
            if not ok:
                raise reply
            out[k::n] = reply
    finally:
        for pid in set(pids) - reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
    return out
