"""The CI workflow, read as text: which interpreters run which job, that the
tier-1 tests run under ``-X dev`` and that the warnings job compares every
byte golden the tier-1 tests compare.

A change to `.github/workflows/tier1.yml` that drops an interpreter or a
golden from CI fails here, where it shows before a push.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def _jobs() -> dict[str, str]:
    """Job name -> the text of its block under ``jobs:``."""
    body = WORKFLOW.read_text().split("\njobs:\n", 1)[1]
    parts = re.split(r"^  ([\w-]+):\n", body, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


def _matrix(job: str) -> list[str]:
    line = re.search(r"^\s+python-version: (\[.*\])$", job, flags=re.M)
    assert line, "the job has no python-version matrix"
    return json.loads(line[1])


def test_the_jobs_run_on_the_pinned_interpreters():
    jobs = _jobs()
    assert sorted(jobs) == ["suite-warnings", "tier1"]
    assert _matrix(jobs["tier1"]) == ["3.10", "3.11"]
    assert _matrix(jobs["suite-warnings"]) == ["3.10", "3.11", "3.12", "3.13"]


def test_the_tier1_job_runs_the_tests_under_dev_mode():
    # -X dev warns on files never closed; the smoke run measures, so it
    # runs without it
    job = _jobs()["tier1"]
    assert ("run: PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -X dev -m pytest -q "
            "--continue-on-collection-errors") in job
    assert "python perfbench/run.py --workload all --seed 1 --seconds 2" in job


def test_the_warnings_job_compares_every_byte_golden():
    job = _jobs()["suite-warnings"]
    assert "python -W error -m sclkit verify-paper --format json" in job
    assert 'cmp "$RUNNER_TEMP/seed7.json" tests/data/verify-paper-seed7.json' in job
    assert "for f in tests/certificates/*.json; do" in job
    assert 'python -W error -m sclkit verify "$f" || exit 1' in job
    # every line of COMMANDS: a golden file name, then the sclkit arguments
    assert "done < tests/data/scl-bounds/COMMANDS" in job
    assert 'python -W error -m sclkit "${args[@]}" > "$RUNNER_TEMP/golden.out" || exit 1' in job
    assert 'cmp "$RUNNER_TEMP/golden.out" "tests/data/scl-bounds/$name" || exit 1' in job


def test_the_warnings_job_runs_verify_without_typing():
    # -S, so that no .pth file of site loads typing before sclkit does
    step = ("PYTHONPATH=src python -S -W error -c \"import sys, sclkit.cli as cli; "
            "code = cli.main(['verify', 'tests/certificates/flip-alpha-n4.json']); "
            "sys.exit(code or 'typing' in sys.modules)\"")
    assert step in _jobs()["suite-warnings"]
