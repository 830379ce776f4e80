"""The process entry point: ``python -m amr_logic_aug`` and the
``amr-logic-aug`` script both call :func:`run`."""

import gc
import sys

from .cli import main


def run() -> int:
    """Run :func:`cli.main` on ``sys.argv`` and return its exit status.

    The process ends right after, so the heap ``main`` leaves is frozen
    first: the collector's passes at interpreter exit then skip it instead
    of scanning objects the OS is about to free.  ``main`` itself never
    freezes, so an in-process caller keeps its collector as it was.
    """
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
