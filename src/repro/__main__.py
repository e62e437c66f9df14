"""Module entry point: ``python -m repro``."""

import os
import sys

from repro.cli import main

try:
    status = main()
    # flush here, so a reader that exits early fails inside the try
    sys.stdout.flush()
except BrokenPipeError:
    # stdout's reader is gone (``repro tables | head -1``).  Point
    # stdout at devnull so the flush at shutdown cannot raise again,
    # and exit 1 the way Python does on EPIPE (the ``signal`` docs'
    # recipe).
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    status = 1
sys.exit(status)
