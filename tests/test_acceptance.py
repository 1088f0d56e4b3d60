"""Acceptance gate: the eleven verification items, one pass/fail line each.

Every item must pass and finish inside its stated runtime budget.  The whole
suite runs once per session with the default seed, as the CLI's verify-paper
command runs it; its JSON report must match the committed golden file byte
for byte, and each item run alone must read as it does in the full suite.
"""

from pathlib import Path

import pytest

from sclkit import certio
from sclkit.suite import DEFAULT_SEED, ITEMS, run_suite

# `sclkit verify-paper --seed 7 --format json`
GOLDEN = Path(__file__).with_name("data") / "verify-paper-seed7.json"


@pytest.fixture(scope="module")
def suite_report():
    return run_suite(seed=DEFAULT_SEED)


def _result_for(report, key: str):
    for r in report.results:
        if r.key == key:
            return r
    raise AssertionError(f"suite produced no result for item {key}")


@pytest.mark.parametrize("item", ITEMS, ids=[f"{it.key:0>2}-{it.slug}" for it in ITEMS])
def test_criterion(item, suite_report):
    result = _result_for(suite_report, item.key)
    print(result.line())
    assert result.ok, f"item {item.key} ({item.slug}) failed: {result.detail}"
    assert result.seconds < item.budget, (
        f"item {item.key} ({item.slug}) took {result.seconds:.2f}s, "
        f"budget {item.budget:.0f}s"
    )


def test_suite_is_deterministic_across_runs(suite_report):
    again = run_suite(seed=DEFAULT_SEED)
    assert again.as_dict() == suite_report.as_dict()


def test_suite_report_shape(suite_report):
    d = suite_report.as_dict()
    assert d["format"] == "verify-report/1"
    assert d["seed"] == DEFAULT_SEED
    assert d["ok"] is True
    assert len(d["items"]) == len(ITEMS) == 11


def test_suite_report_matches_the_golden_file(suite_report):
    assert certio.dumps(suite_report.as_dict()) == GOLDEN.read_text()


@pytest.fixture(scope="module")
def seed_one_report():
    return run_suite(seed=1)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1])
@pytest.mark.parametrize("item", ITEMS, ids=[f"{it.key:0>2}-{it.slug}" for it in ITEMS])
def test_an_item_alone_reads_as_in_the_full_suite(item, seed, suite_report, request):
    full = suite_report if seed == DEFAULT_SEED else request.getfixturevalue("seed_one_report")
    (alone,) = run_suite(seed, only=item.key).results
    assert alone.detail == _result_for(full, item.key).detail
