"""Fixtures shared by the test modules.

Every test must end with no child process of its own still running: the
solver forks worker processes for its restarts, and a worker that outlives
``solve`` fails the test that started it.
"""

import json
import multiprocessing
import os
import signal
from pathlib import Path

import pytest


def live_children() -> set:
    """Pids of this process's running children: multiprocessing's and, where
    ``/proc`` lists processes, every other one (exited, unreaped ones aside)."""
    pids = {child.pid for child in multiprocessing.active_children()}
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # the command name in parentheses may hold spaces; state and
            # parent pid follow its closing parenthesis
            state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
        except (OSError, IndexError):
            continue  # the process ended while it was read
        if int(ppid) == os.getpid() and state != "Z":
            pids.add(int(stat.parent.name))
    return pids


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    before = live_children()
    yield
    left = live_children() - before
    if left:
        # end them, so later tests start clean; multiprocessing reaps its own
        others = set(left)
        for child in multiprocessing.active_children():
            if child.pid in left:
                child.kill()
                child.join()
                others.discard(child.pid)
        for pid in others:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        pytest.fail(f"the test left {len(left)} child process(es) running: {sorted(left)}")


class ForkLog:
    """JSON records appended by this process or by any process forked from it.

    Each record is one line written by one ``write`` to a file opened for
    appending, so records from concurrent workers do not interleave.
    """

    def __init__(self, path: Path):
        self.path = path

    def append(self, record) -> None:
        with open(self.path, "a") as f:
            f.write(json.dumps(record) + "\n")

    def read(self) -> list:
        if not self.path.exists():
            return []
        return [json.loads(line) for line in self.path.read_text().splitlines()]


@pytest.fixture
def fork_log(tmp_path):
    """A ``ForkLog`` for recording from inside the solver's worker processes."""
    return ForkLog(tmp_path / "fork_log.jsonl")
