"""The fork pool that runs independent tasks on the machine's CPUs.

``ordered_map(func, tasks, workers)`` yields ``func(task)`` for each task,
in order, the way ``map`` does.  With one worker it is ``map``, in this
process.  Otherwise it starts that many worker processes, hands each one
task at a time over a pipe of its own and yields the results in task
order.  Two callers use it: ``particles`` marches replica groups in it
(``simulate`` and the cluster bank), and the CLI ``fronts`` pipeline
computes its front constants in it.

The policy:

* Workers start with the ``fork`` method, so they inherit the loaded
  modules, ``func`` and whatever it refers to (patches included), where
  ``spawn`` would import numpy and scipy again in each of them.  Only the
  tasks and the results (or errors) cross the pipes, pickled.
* ``worker_count(n_tasks)`` is ``min(n_tasks, usable CPUs)``, and 1 where
  there is no ``fork`` or no CPU affinity to count: so one task, one usable
  CPU or no ``fork`` means no worker process at all.  Where the count
  exceeds 1, a caller whose tasks are few and about equally long may give
  each task a worker of its own, more workers than CPUs (the ``fronts``
  pipeline does: three constants finish sooner sharing two CPUs than two
  at once and then the third).
* Errors come in task order, as from ``map``: once a task fails, no new
  task is handed out, the tasks before it are waited for and their
  results yielded, and then the error of the first task in order that
  failed is raised.
* The bits do not depend on the worker count: a task's result is
  whatever ``func`` returns for it, in whichever process it runs, and the
  results come back in task order.

A pool lives inside one ``ordered_map`` generator.  Its workers are killed
and joined when the generator ends, is closed early or raises, so no
worker outlives the call that uses it; callers close it, say with
``contextlib.closing``.
"""

from __future__ import annotations

import multiprocessing
import os

__all__ = ["ordered_map", "worker_count"]

_TASKS_IN_FLIGHT = 2


def worker_count(n_tasks: int) -> int:
    """Processes to run n_tasks tasks in: 1, or one per usable CPU up to one per task where fork exists."""
    if "fork" not in multiprocessing.get_all_start_methods() or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(n_tasks, len(os.sched_getaffinity(0)))


def ordered_map(func, tasks, workers: int):
    """Yield func(task) for each of the tasks, in order.

    With one worker (or none) the tasks run here, one at a time as they
    are asked for.  Otherwise that many fork-started worker processes run
    them, one task at a time each.  An idle worker gets the next task
    while fewer than _TASKS_IN_FLIGHT per worker are handed out and not yet
    yielded, so tasks may be an endless iterable and a consumer that stops
    early wastes at most that window.  A failed task stops the hand-out;
    the error raised is the one map would raise, that of the first task in
    order that failed, once every task before it has been yielded.

    multiprocessing.Pool does not fit: its imap takes the whole iterable
    at once, and its terminate can hang for good when it kills a worker
    that holds the lock of the result queue all workers share, which
    stopping early would do routinely.  A worker here shares no lock.
    """
    if workers <= 1:
        yield from map(func, tasks)
        return
    # imported only here, since importing sbmlab otherwise pays for it
    from multiprocessing.connection import wait

    context = multiprocessing.get_context("fork")
    links = []
    try:
        for _ in range(workers):
            pipe, worker_end = context.Pipe()
            proc = context.Process(target=_serve, args=(func, worker_end), daemon=True)
            proc.start()
            worker_end.close()
            links.append((proc, pipe))
        idle = [pipe for _, pipe in links]
        busy = {}  # pipe -> index of the task its worker runs
        done = {}  # index -> result not yet yielded
        errors = {}  # index -> error of a failed task
        tasks = iter(tasks)
        sent = yielded = 0
        while True:
            while not errors and idle and sent - yielded < _TASKS_IN_FLIGHT * workers:
                task = next(tasks, None)
                if task is None:
                    break
                pipe = idle.pop()
                pipe.send(task)
                busy[pipe] = sent
                sent += 1
            if yielded in done:
                yield done.pop(yielded)
                yielded += 1
            elif yielded in errors:
                # every task before this one has been yielded
                raise errors[yielded]
            elif not busy:
                return
            else:
                for pipe in wait(list(busy)):
                    ok, value = pipe.recv()
                    (done if ok else errors)[busy.pop(pipe)] = value
                    idle.append(pipe)
    finally:
        for proc, _ in links:
            proc.kill()
        for proc, pipe in links:
            proc.join()
            pipe.close()


def _serve(func, pipe) -> None:
    """A worker's loop: send back (True, func(task)), or (False, error), per task received."""
    while True:
        task = pipe.recv()
        try:
            reply = (True, func(task))
        except Exception as exc:
            reply = (False, exc)
        pipe.send(reply)
