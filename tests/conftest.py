"""Shared test plumbing: acceptance-criterion result collection so the
acceptance suite prints one pass/fail line per criterion at the end, the
semantic-token draw the encoder tests share, and a check that no test leaves
a child process or a thread behind."""

import os
import threading

import numpy as np
import pytest

from semtok.tensor import Tensor

CRITERION_RESULTS = []


def semantic_tokens(count, dim, rng, dtype=np.float32):
    """(count, dim) trainable semantic tokens, drawn as Stage2Model draws them."""
    return Tensor((rng.standard_normal((count, dim)) * 0.02).astype(dtype), requires_grad=True)


@pytest.fixture(autouse=True)
def no_child_process_or_thread_left():
    """Fail a test that leaves a child process running or unreaped, or a
    thread besides the main one alive: training forks its replicas on the
    condition that no other thread runs."""
    yield
    others = [thread.name for thread in threading.enumerate() if thread is not threading.main_thread()]
    if others:
        pytest.fail(f"the test left threads running: {others}")
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail(f"the test left a child process behind ({'running' if pid == 0 else f'pid {pid} unreaped'})")


def record_criterion(number, name, passed, detail=""):
    line = f"criterion {number:>2} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    CRITERION_RESULTS.append(line)
    print(line)
    assert passed, line


def pytest_terminal_summary(terminalreporter):
    if CRITERION_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_RESULTS:
            terminalreporter.write_line(line)
