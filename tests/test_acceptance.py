"""Acceptance suite: one test per criterion, one printed pass/fail line each."""

import pytest

from trlat import acceptance
from trlat.acceptance import CRITERIA
from trlat.transfer import TransferSystem


@pytest.mark.parametrize("number,name,fn", CRITERIA, ids=[f"{n}-{s}" for n, s, _ in CRITERIA])
def test_criterion(number, name, fn, capsys):
    passed, detail = fn()
    with capsys.disabled():
        print(f"\n{'PASS' if passed else 'FAIL'}  criterion {number} ({name}): {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


@pytest.mark.parametrize("bound", ["5", "40"])
def test_suite_ignores_search_bound(bound, monkeypatch):
    monkeypatch.setenv("TL_SEARCH_BOUND", bound)
    outcomes = acceptance.run_all()
    assert [(number, name) for number, name, _, _ in outcomes] \
        == [(number, name) for number, name, _ in CRITERIA]
    assert all(passed for _, _, passed, _ in outcomes)


def test_realizability_unions_catch_a_wrong_shipped_list(monkeypatch):
    """Criterion 3 fails when a shipped orbit rep is missing, or is realized."""
    shipped = acceptance.unrealized_fixture

    def without_one_q8_rep(L):
        return shipped(L)[1:] if L.group.name == "Q8" else shipped(L)

    def with_a_realized_sym3_system(L):
        reps = shipped(L)
        return reps + (TransferSystem.diagonal(L),) if L.group.name == "Sym3" else reps

    assert acceptance.criterion_realizability_unions()[0]
    for fixture in (without_one_q8_rep, with_a_realized_sym3_system):
        monkeypatch.setattr(acceptance, "unrealized_fixture", fixture)
        passed, detail = acceptance.criterion_realizability_unions()
        assert not passed and "unrealized orbit lists differ" in detail
