"""The one memory budget of the chunked numpy kernels, and the refusal
of inputs beyond the machine's physical memory.

Every kernel that works through a large array a range of rows at a time
sizes its ranges here, from the bytes of temporaries one row takes, so
that one chunk of any kernel takes about BUDGET bytes.
"""

import os

from .errors import TooLarge

BUDGET = 10 ** 5


def rows_per_chunk(row_bytes):
    """How many rows of row_bytes bytes each fit in BUDGET, at least one.

    BUDGET is read at every call, so changing it reaches every kernel."""
    return max(1, BUDGET // row_bytes)


def refuse_beyond_memory(what, count, unit, row_bytes):
    """Raise TooLarge, before anything is allocated, if count rows (blocks,
    residues) of row_bytes bytes each would not fit in physical memory."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if count * row_bytes > memory:
        raise TooLarge("%s has %d %s, %d bytes each, beyond the %d bytes of memory"
                       % (what, count, unit, row_bytes, memory))
