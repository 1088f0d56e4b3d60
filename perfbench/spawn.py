"""One request, one fresh child process.

The child gets a wall-clock timeout and an address-space cap, set with
``resource.setrlimit`` in its own ``preexec_fn`` so that only the child is
limited.  Hitting either limit fails the request; a runaway search costs one
failed request instead of the machine's memory.  Wall time runs from just
before the spawn to the reaped exit; peak RSS comes from ``os.wait4``.
"""

from __future__ import annotations

import os
import resource
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

TIMEOUT_S = 60.0
MEMORY_CAP_BYTES = 2 << 30


@dataclass(frozen=True)
class Outcome:
    returncode: int          # negative: killed by that signal
    seconds: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    limit: str | None        # "timeout" or "memory" when a limit ended the child


def child_env(src: Path, tmp: Path) -> dict[str, str]:
    """sclkit from ``src``; temporary files (suite item 11 makes some) under ``tmp``."""
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0", TMPDIR=str(tmp))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run(cmd: list[str], *, env: dict[str, str], cwd: Path, scratch: Path,
        timeout_s: float = TIMEOUT_S, memory_bytes: int = MEMORY_CAP_BYTES) -> Outcome:
    def limit_memory() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (memory_bytes, memory_bytes))

    timed_out = threading.Event()
    with tempfile.TemporaryFile(dir=scratch) as out, tempfile.TemporaryFile(dir=scratch) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=cwd, preexec_fn=limit_memory)

        def kill() -> None:
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        seconds = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout = out.read().decode(errors="replace")
        stderr = err.read().decode(errors="replace")
    limit = "timeout" if timed_out.is_set() else "memory" if "MemoryError" in stderr else None
    return Outcome(proc.returncode, seconds, usage.ru_maxrss / 1024, stdout, stderr, limit)
