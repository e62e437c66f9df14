"""Module entry point: ``python -m repro``."""

import gc
import os
import sys

from repro.cli import is_one_shot, is_traced, parse_args, run

args = parse_args()
one_shot = is_one_shot(args)
if one_shot:
    # A one-shot command keeps nearly everything it allocates (traces,
    # decode tables, results) until it ends, and it ends without
    # teardown (below), so cyclic-GC passes would only rescan live
    # objects: a cold ``repro tables`` runs ~470 of them, ~0.2 s, to
    # free ~1,300 objects.
    gc.disable()
try:
    status = run(args)
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
if one_shot and not is_traced():
    # The command's output is flushed and its files are written (the
    # result store flushes every frame as it appends), so end without
    # the interpreter teardown that frees every object one by one
    # (~0.2 s after a cold ``repro tables``).  A tracer or profiler
    # (``python -m cProfile -m repro ...``) reports at normal exit, so
    # it keeps one.
    sys.stderr.flush()
    os._exit(status)
sys.exit(status)
