"""Shared test plumbing: acceptance-criterion result collection so the
acceptance suite prints one pass/fail line per criterion at the end, and
the semantic-token draw the encoder tests share."""

import numpy as np

from semtok.tensor import Tensor

CRITERION_RESULTS = []


def semantic_tokens(count, dim, rng, dtype=np.float32):
    """(count, dim) trainable semantic tokens, drawn as Stage2Model draws them."""
    return Tensor((rng.standard_normal((count, dim)) * 0.02).astype(dtype), requires_grad=True)


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
