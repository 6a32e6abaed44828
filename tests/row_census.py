"""The row census: the frontier census's independent reference.

It traces every representative row of ``triline.rows`` with the batched
tracer and histograms (C, l, connected, tadpole) by weight.  It shares no
code with the frontier in ``triline.census``; it takes about 3.5 s at
k = 7 on one core.
"""
import numpy as np

from triline.rows import representatives, trace_rows


def census_rows(bp: np.ndarray, weight: np.ndarray,
                connected: np.ndarray) -> dict:
    """Trace ab rows and histogram (C, l, conn, tad) by weight;
    ``connected`` is the caller's connectivity flag per row."""
    C, lgr, tad = trace_rows(bp)
    base_l = bp.shape[1] + 2
    key = ((C * base_l + lgr) * 2 + connected) * 2 + tad
    counts = np.zeros(int(key.max()) + 1, dtype=np.int64)
    np.add.at(counts, key, weight)
    out = {}
    for packed in np.nonzero(counts)[0]:
        rest = packed >> 2
        out[(int(rest // base_l), int(rest % base_l), bool(packed & 2),
             bool(packed & 1))] = int(counts[packed])
    return out


def row_census(k: int) -> dict:
    """The census of order k folded from the generator's rows."""
    total = {}
    for batch in representatives(k):
        for key, cnt in census_rows(*batch).items():
            total[key] = total.get(key, 0) + cnt
    return total
