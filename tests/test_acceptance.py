"""Acceptance suite: the nine headline checks at their full stated bounds.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).  Criteria 4 and 6 also assert their pass
details, which name the bounds they ran to.  All comparisons are exact; the
full module is the slow part of the test suite and takes on the order of a
minute.
"""

import pytest

from gmotzkin.verify import CheckResult, Harness


@pytest.fixture(scope="module")
def harness():
    return Harness()


def _report(result: CheckResult, detail: str | None = None) -> None:
    print(result.line())
    assert result.ok, result.detail
    if detail is not None:
        assert result.detail == detail


def test_criterion_1_closed_forms_vs_oracle(harness):
    _report(harness.criterion_1())


def test_criterion_2_series_vs_oracle(harness):
    _report(harness.criterion_2())


def test_criterion_3_substitution_identities(harness):
    _report(harness.criterion_3())


def test_criterion_4_bijection_suite(harness):
    _report(harness.criterion_4(), "n = 0..10")


def test_criterion_5_sample_pair(harness):
    _report(harness.criterion_5())


def test_criterion_6_fixed_points_four_ways(harness):
    _report(harness.criterion_6(), "four-way agreement, n = 0..10")


def test_criterion_7_specialization_table(harness):
    _report(harness.criterion_7())


def test_criterion_8_weight_relations(harness):
    _report(harness.criterion_8())


def test_criterion_9_structural_suite(harness):
    _report(harness.criterion_9())
