"""Package surface: every exported name resolves."""

import semtok


def test_all_names_resolve():
    assert [name for name in semtok.__all__ if not hasattr(semtok, name)] == []
