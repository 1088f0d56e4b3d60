"""The append-only certificate corpus in ``tests/certificates/``.

Each file there was written by an earlier version of sclkit, and each must
still verify, in a fresh process, under the code that checks it now.
"""

import subprocess
import sys
from pathlib import Path

import pytest

CORPUS = Path(__file__).parent / "certificates"
FILES = sorted(CORPUS.glob("*.json"))


def test_the_corpus_keeps_its_first_files():
    # files are added, never deleted
    first = {"flip-alpha-n4.json", "free2-search.json", "pure-ordinary-lower.json",
             "suite-item11-standalone.json"}
    assert first <= {path.name for path in FILES}


@pytest.mark.parametrize("path", FILES, ids=[path.name for path in FILES])
def test_every_corpus_file_verifies_in_a_fresh_process(path):
    r = subprocess.run(
        [sys.executable, "-m", "sclkit", "verify", str(path)],
        capture_output=True, text=True, timeout=120,
    )
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout.endswith("all claims verified\n")
