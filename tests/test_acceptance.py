"""Acceptance battery: one test per criterion, each printing its
PASS/FAIL line and the per-check detail.

The whole battery runs once per session; the final test checks the
runtime budget of that single run.
"""

import pytest

from teff.verify import SUITES, run_suite


@pytest.fixture(scope="session")
def battery():
    results = run_suite(SUITES["all"])
    for res in results:
        print()
        print(res.summary_line())
        print(res.detail)
    return {res.criterion: res for res in results}


def _assert_criterion(battery, name):
    res = battery[name]
    assert res.passed, f"\n{res.summary_line()}\n{res.detail}"


def test_criterion_1_table_power_rows(battery):
    _assert_criterion(battery, "criterion-1 table power rows")


def test_criterion_2_table_screened_rows(battery):
    _assert_criterion(battery, "criterion-2 table screened rows")


def test_criterion_3_deep_well_limit(battery):
    _assert_criterion(battery, "criterion-3 deep-well limit")


def test_criterion_4_reference_exactness(battery):
    _assert_criterion(battery, "criterion-4 reference exactness")


def test_criterion_5_energy_accuracy(battery):
    _assert_criterion(battery, "criterion-5 energy accuracy")


def test_criterion_6_shell_filling_window(battery):
    _assert_criterion(battery, "criterion-6 shell-filling window")


def test_criterion_7_sign_theorems(battery):
    _assert_criterion(battery, "criterion-7 sign theorems")


def test_criterion_8_approximation_quality(battery):
    _assert_criterion(battery, "criterion-8 approximation quality")


def test_criterion_9_property_suite(battery):
    _assert_criterion(battery, "criterion-9 property suite")


def test_criterion_10_runtime_budget(battery):
    _assert_criterion(battery, "criterion-10 runtime budget")
