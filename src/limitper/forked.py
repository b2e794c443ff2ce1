"""One way to run independent tasks at once: bare forked workers fed from a pipe.

``run(tasks)`` takes ``(name, callable)`` pairs and returns, in task order,
what each callable returned or the ``Exception`` it raised.  On Linux with
two or more usable CPUs and two or more tasks it forks ``min(usable CPUs,
tasks)`` workers, with no pool and no helper thread.  The task indices wait
in one pipe, one byte each; a free worker reads the next, so the tasks go
out in order to whichever worker asks first.  A worker inherits the tasks,
so only an index goes out.  Each worker pickles ``(index, outcome)`` into a
pipe of its own, an exception with its traceback as a note, and leaves by
``os._exit``, running no atexit handler or ``finally`` of the caller.  The
caller runs no task once it has forked: it reads every result pipe to its
end, which comes when the worker exits, however it exits, then reaps the
workers.  Each task left without a result, by a worker killed or gone
early, gets a ``RuntimeError`` naming those tasks and the workers' exit
statuses; nothing waits for results that cannot come.

With one usable CPU, one task, on another platform, or when no fork
succeeds, the tasks run one after another in the calling process; when
some forks fail, the workers that did fork take every task.  Two callers:
``verification.run_checks`` runs ``verify``'s checks, and ``cli._write``
renders and writes every file the CLI writes, one task each.
"""

from __future__ import annotations

import io
import os
import pickle
import sys

__all__ = ["run"]


def run(tasks) -> list:
    """Each task's return value or raised ``Exception``, in the order of ``tasks``.

    ``tasks`` holds ``(name, callable)`` pairs; the names only label faults.
    One byte names each task, so more than 255 are refused with
    ``ValueError`` before any pipe or fork.
    """
    tasks = tuple(tasks)
    if len(tasks) > 255:
        raise ValueError(f"{len(tasks)} tasks; the runner takes at most 255")
    workers = min(_usable_cpus(), len(tasks)) if sys.platform.startswith("linux") else 1
    outcomes = _run_forked(tasks, workers) if workers >= 2 else None
    return [_outcome(task) for _, task in tasks] if outcomes is None else outcomes


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _outcome(task):
    try:
        return task()
    except Exception as error:
        return error


def _run_forked(tasks: tuple, workers: int) -> list | None:
    """The outcomes from up to ``workers`` forked processes, or None when no fork succeeds."""
    feed, sink = os.pipe()
    # At most 255 bytes fit in a pipe's buffer, so this does not block.
    os.write(sink, bytes(range(len(tasks))))
    os.close(sink)
    streams = {}
    try:
        for _ in range(workers):
            source, sink = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(source)
                os.close(sink)
                break
            if pid == 0:
                _work(tasks, feed, sink)
            os.close(sink)
            streams[pid] = open(source, "rb")
        received = [stream.read() for stream in streams.values()]
    finally:
        os.close(feed)
        for stream in streams.values():
            stream.close()
        statuses = {pid: os.waitpid(pid, 0)[1] for pid in streams}
    if not streams:
        return None
    outcomes = dict(record for data in received for record in _records(data))
    missing = [index for index in range(len(tasks)) if index not in outcomes]
    if missing:
        exits = "; ".join(
            f"worker {pid} {_exit_text(status)}" for pid, status in statuses.items() if status
        )
        exits = exits or "every worker exited with status 0"
        fault = f"no result for {', '.join(tasks[index][0] for index in missing)} ({exits})"
        outcomes.update((index, RuntimeError(fault)) for index in missing)
    return [outcomes[index] for index in range(len(tasks))]


def _work(tasks: tuple, feed: int, sink: int):
    """A forked worker's whole life: run the tasks it draws, report each, exit."""
    status = 1
    try:
        with open(sink, "wb") as out:
            while drawn := os.read(feed, 1):
                index = drawn[0]
                name, task = tasks[index]
                outcome = _outcome(task)
                if isinstance(outcome, Exception):
                    # A pickled exception drops its traceback; the note keeps it.
                    import traceback

                    outcome.__notes__ = [
                        *getattr(outcome, "__notes__", ()),
                        "".join(traceback.format_exception(outcome)),
                    ]
                out.write(_record(index, name, outcome))
                out.flush()
        status = 0
    finally:
        os._exit(status)


def _record(index: int, name: str, outcome) -> bytes:
    """``(index, outcome)`` pickled, a ``RuntimeError`` standing in for an outcome that cannot."""
    try:
        record = pickle.dumps((index, outcome))
        pickle.loads(record)
    except Exception:
        error = RuntimeError(f"{name} gave {outcome!r}, which cannot be pickled")
        record = pickle.dumps((index, error))
    return record


def _records(data: bytes):
    """The ``(index, outcome)`` pairs one worker wrote, up to any record it left unfinished."""
    stream = io.BytesIO(data)
    while stream.tell() < len(data):
        try:
            yield pickle.load(stream)
        except (EOFError, pickle.UnpicklingError):
            return


def _exit_text(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    return f"killed by signal {-code}" if code < 0 else f"exited with status {code}"
