"""Two-stage knowledge-graph question answering.

Stage 1 predicts a question's semantic structure and filters candidate query
graphs to those matching it; stage 2 ranks the survivors with a metric-learning
model and executes the top-1 graph against the knowledge graph.
"""

import ctypes
import os

__version__ = "0.1.0"

# glibc mallopt parameters (malloc.h) and the values the package sets.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_BYTES = 32 << 20
_TRIM_BYTES = 64 << 20


def _pin_heap() -> None:
    """Fix glibc's mmap and trim thresholds for this process.

    By default glibc raises its mmap threshold as large blocks are freed and
    gives the heap top back to the kernel once more than the trim threshold
    is free there. The encoder's forwards allocate and free their arrays
    together at the heap top, so in some heap layouts (which training
    decides) every answer had its memory trimmed and faulted back in. With
    the thresholds fixed, blocks under 32 MiB come from the heap, so an
    `off`-mode forward's attention arrays (about 2.2–2.8 MB each) are not
    mapped and unmapped per call, and up to 64 MiB stays free at its top.
    Does nothing where the C library is not glibc or has no mallopt.
    """
    if "CS_GNU_LIBC_VERSION" not in getattr(os, "confstr_names", {}):
        return
    if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)


_pin_heap()
