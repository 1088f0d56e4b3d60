"""The CI workflow, read as text: which interpreters run which job, that the
tier-1 tests run under ``-X dev``, that the warnings job compares every
byte golden the tier-1 tests compare, and that its verify step without
``typing`` passes on the corpus when run here.

A change to `.github/workflows/tier1.yml` that drops an interpreter or a
golden from CI fails here, where it shows before a push.
"""

import json
import os
import re
import subprocess
import sys
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
    assert 'python -W error -m sclkit verify "$f" --format json > /dev/null || exit 1' in job
    # every line of COMMANDS: a golden file name, then the sclkit arguments
    assert "done < tests/data/scl-bounds/COMMANDS" in job
    assert 'python -W error -m sclkit "${args[@]}" > "$RUNNER_TEMP/golden.out" || exit 1' in job
    assert 'cmp "$RUNNER_TEMP/golden.out" "tests/data/scl-bounds/$name" || exit 1' in job


def test_the_warnings_job_runs_verify_without_typing():
    # -S, so that no .pth file of site loads typing before sclkit does; every
    # corpus file, each exit 0, in one interpreter
    step = ("PYTHONPATH=src python -S -W error -c \"import glob, sys, sclkit.cli as cli; "
            "codes = [cli.main(['verify', f]) for f in sorted(glob.glob('tests/certificates/*.json'))]; "
            "sys.exit(any(codes) or 'typing' in sys.modules)\"")
    assert step in _jobs()["suite-warnings"]


def test_the_step_without_typing_passes_on_the_corpus():
    # the step's command, run here as CI runs it from the repository root
    job = _jobs()["suite-warnings"]
    command = re.search(r'PYTHONPATH=src python -S -W error -c "(import glob[^"]*)"', job)[1]
    r = subprocess.run([sys.executable, "-S", "-W", "error", "-c", command], cwd=ROOT,
                       env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stdout + r.stderr
    corpus = list((ROOT / "tests" / "certificates").glob("*.json"))
    assert r.stdout.count("all claims verified\n") == len(corpus) > 0
