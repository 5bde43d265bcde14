"""The fork pool shared by the particle engine and the fronts pipeline."""

import multiprocessing
import os
import time

import pytest

from sbmlab.pool import ordered_map

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not hasattr(os, "sched_getaffinity"),
    reason="tasks run in worker processes only where fork and CPU affinity exist",
)


def _slow_first_failure(task: int) -> int:
    # task 0 fails late, task 1 at once, so task 1's error reaches the parent first
    if task == 0:
        time.sleep(0.3)
    if task < 2:
        raise ValueError(f"task {task} failed")
    return task


@needs_fork
@pytest.mark.parametrize("workers", [1, 2])
def test_errors_come_in_task_order(workers):
    drawn = []

    def tasks():
        for task in range(6):
            drawn.append(task)
            yield task

    with pytest.raises(ValueError, match="task 0 failed"):
        list(map(_slow_first_failure, range(6)))
    with pytest.raises(ValueError, match="task 0 failed"):
        list(ordered_map(_slow_first_failure, tasks(), workers))
    # no task is handed out once one has failed
    assert drawn == list(range(workers))
    assert multiprocessing.active_children() == []


@needs_fork
def test_results_before_the_failure_are_yielded():
    def task(k: int) -> int:
        if k == 2:
            time.sleep(0.3)
            raise ValueError("task 2 failed")
        if k == 3:
            raise ValueError("task 3 failed")
        return k * k

    got = []
    with pytest.raises(ValueError, match="task 2 failed"):
        for value in ordered_map(task, range(6), 2):
            got.append(value)
    assert got == [0, 1]
    assert multiprocessing.active_children() == []
