"""Process entry point: ``python -m limitper`` and the ``limitper`` console script.

Both call ``run``, the one place a CLI process's policy lives.  Before
``cli.main`` it sets ``OPENBLAS_NUM_THREADS`` to 1 unless the caller set
it: limitper makes no BLAS call, yet numpy's OpenBLAS would start one idle
worker per extra CPU when a handler first imports numpy, so ``forked.run``
stays the process's only concurrency.  After ``main`` it moves every live
object into the collector's permanent generation (``gc.freeze``), so
interpreter shutdown skips full collections over everything numpy and
limitper loaded; unlike ``os._exit``, this keeps atexit handlers and the
flush of stdout.  Neither happens in ``cli.main``: tests, demos and library
callers run ``main`` many times in one process, and it leaves their
environment and their collector as it found them.
"""

import gc
import os
import sys

from .cli import main


def run() -> None:
    """Run the command line in ``sys.argv`` and exit with its code."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
