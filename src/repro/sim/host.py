"""When the host interpreter does its own housekeeping; no simulated state."""

import gc
from contextlib import contextmanager


@contextmanager
def collector_paused():
    """Hold off automatic cycle collection for the scope (or decorated call).

    Safe because op paths allocate no reference cycles: every object a
    put, get, scan or background job frees is freed by reference
    counting, so a collection inside an op stream re-walks the whole
    live heap (skip-list nodes, towers, values) and finds nothing.
    Scopes nest, and a collector that was already off stays off; state
    dropped after the scope (a torn-down cluster) is collected as usual.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
