"""Process entry point: ``python -m limitper`` and the ``limitper`` console script.

Both call ``run``, which runs ``cli.main`` and exits with its code.  Before
exiting it moves every live object into the collector's permanent
generation (``gc.freeze``): interpreter shutdown would otherwise run full
collections over every object numpy and limitper loaded, tens of
milliseconds spent on memory the process is about to give back.  Unlike
``os._exit``, this keeps atexit handlers and the flush of stdout.  The
freeze happens here and never in ``cli.main``: tests, demos and library
callers run ``main`` many times in one process, and a freeze there would
put everything alive at that moment out of the collector's reach for the
rest of the process.
"""

import gc
import sys

from .cli import main


def run() -> None:
    """Run the command line in ``sys.argv`` and exit with its code."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
