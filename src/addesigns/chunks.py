"""The one memory budget of the chunked numpy kernels.

Every kernel that works through a large array a range of rows at a time
sizes its ranges here, from the bytes of temporaries one row takes, so
that one chunk of any kernel takes about BUDGET bytes.
"""

BUDGET = 10 ** 5


def rows_per_chunk(row_bytes):
    """How many rows of row_bytes bytes each fit in BUDGET, at least one.

    BUDGET is read at every call, so changing it reaches every kernel."""
    return max(1, BUDGET // row_bytes)
