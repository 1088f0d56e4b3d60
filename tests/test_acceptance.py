"""Acceptance gate: the eleven verification items, one pass/fail line each.

Every item must pass and finish inside its stated runtime budget.  The whole
suite runs once per session with the default seed, as the CLI's verify-paper
command runs it; its JSON report must match the committed golden file byte
for byte, and each item run alone must read as it does in the full suite.
Each item but 10 also stays under a pinned traced memory peak.
"""

import gc
import tracemalloc
from pathlib import Path

import pytest

from sclkit import certio
from sclkit.suite import DEFAULT_SEED, ITEMS, find_item, run_item, run_suite

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


# Each item's traced memory peak in MB, on its second run in this process,
# once the first has filled the caches that outlive it.  A full collection
# first makes the collector run at the same points every time, so a peak
# repeats to within 0.002 MB; the measured peaks on Python 3.10-3.13 are
# 0.013-0.014, 0.007, 0.074-0.081, 0.316-0.317, 0.036-0.044, 0.078-0.123,
# 0.172-0.230, 0.352-0.354, 0.023-0.104 and 0.101-0.119 MB.  Item 7 holding
# its two legs' 1000 samples as lists peaks at 0.54-0.60 MB, and item 11
# reading each file into a 16 MiB buffer at 16.05 MB.  Item 10 is left out
# for time.
PEAK_MB = {"1": 0.03, "2": 0.02, "3": 0.12, "4": 0.40, "5": 0.06,
           "6": 0.16, "7": 0.30, "8": 0.45, "9": 0.14, "11": 0.25}


@pytest.mark.parametrize("key, bound", PEAK_MB.items(),
                         ids=[f"{key:0>2}-{find_item(key).slug}" for key in PEAK_MB])
def test_an_item_holds_no_more_memory_than_its_pin(key, bound):
    item = find_item(key)
    assert run_item(item, DEFAULT_SEED).ok
    gc.collect()
    tracemalloc.start()
    try:
        result = run_item(item, DEFAULT_SEED)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert result.ok, result.detail
    assert peak < bound, f"item {key} ({item.slug}) peaked at {peak:.3f} MB traced, pin {bound} MB"
