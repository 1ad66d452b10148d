"""Shared test setup."""

import pytest

from richardson import clear_memos


@pytest.fixture(autouse=True)
def _no_memo_outlives_a_patch(request):
    # a memo table keeps what a patched function computed, and an unreduced
    # record can share its kernel entry with a record of another test
    yield
    if "monkeypatch" in request.fixturenames:
        clear_memos()
