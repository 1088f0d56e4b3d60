"""Process entry of ``python -m sclkit`` and of the ``sclkit`` console script.

Once ``cli.main`` has returned, ``gc.freeze()`` moves every live object to
the permanent generation, so the interpreter's final collection at shutdown
has nothing to traverse (about 10 ms of every command).  ``atexit`` handlers
and stream flushing run as before.  Callers of ``cli.main`` in a longer-lived
process keep their collector untouched.
"""

import gc

from .cli import main


def run() -> int:
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(run())
