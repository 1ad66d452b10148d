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


@pytest.fixture
def tangent_one_too_high(monkeypatch):
    """A call that makes every record computed after it report a tangent
    dimension one too high, as a kernel bug would; the monkeypatch undoes it."""
    import dataclasses

    import richardson.invariants as rinv

    def patch():
        real = rinv._reduced_invariants

        def shifted(J):
            inv, prefix = real(J)
            return dataclasses.replace(inv, tangent_dim=inv.tangent_dim + 1), prefix

        monkeypatch.setattr(rinv, "_reduced_invariants", shifted)

    return patch
