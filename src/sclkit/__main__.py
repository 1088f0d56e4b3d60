"""Process entry of ``python -m sclkit`` and of the ``sclkit`` console script.

Once ``cli.main`` has returned, ``run`` flushes ``sys.stdout`` and
``sys.stderr`` and ends the process with ``os._exit``, so the interpreter's
teardown (module cleanup and its final collection) is skipped.  sclkit
registers no ``atexit`` handler, and every file a command writes is closed
before ``main`` returns.  An argparse exit or an uncaught exception leaves
``main`` by raising and takes the normal exit path.  Callers of ``cli.main``
in a longer-lived process are unaffected.
"""

import os
import sys

from .cli import main


def run():
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
