"""Acceptance suite: one test per criterion, one printed pass/fail line each."""

import pytest

from trlat import acceptance
from trlat.acceptance import CRITERIA


@pytest.mark.parametrize("number,name,fn", CRITERIA, ids=[f"{n}-{s}" for n, s, _ in CRITERIA])
def test_criterion(number, name, fn, capsys):
    passed, detail = fn()
    with capsys.disabled():
        print(f"\n{'PASS' if passed else 'FAIL'}  criterion {number} ({name}): {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


@pytest.mark.parametrize("bound", ["5", "40"])
def test_suite_ignores_search_bound(bound, monkeypatch):
    monkeypatch.setenv("TL_SEARCH_BOUND", bound)
    assert acceptance.run_all(report=lambda line: None)
