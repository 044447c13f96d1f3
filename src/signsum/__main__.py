"""The process entry of the ``signsum`` command.

``python -m signsum`` and the ``signsum`` console script both run
``entry()``: ``cli.main`` writes the one envelope, then ``gc.freeze``
moves every live object out of the collector's reach.  The process ends
right after, so CPython's exit-time collections skip the whole heap and
the operating system reclaims its memory; ``atexit`` handlers and the
flushing of the standard streams still run.  In-process callers use
``cli.run`` or ``cli.main``, which never freeze.
"""

import gc

from .cli import main


def entry() -> int:
    """Run the command line in ``sys.argv``; return its exit code."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    raise SystemExit(entry())
