"""Unreduced batched pairing enumerator, the census's test oracle.

Every labeled pairing of order k <= 5 once, in numpy batches: ``ab_only``
gives the (2k)! ab pairings as the census's rows ``bp`` (the B-index paired
with each A-index), ``all`` the (4k - 1)!! perfect matchings of the 4k legs
as leg involution rows.  The census traces one representative per symmetry
class instead; tests fold these rows with unit weight to check it.
"""
import functools
import itertools

import numpy as np

KMAX = 5


@functools.lru_cache(maxsize=None)
def _perm_table(n: int) -> np.ndarray:
    """All n! permutations of range(n), one per row, int8."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    return np.fromiter(flat, dtype=np.int8).reshape(-1, n)


@functools.lru_cache(maxsize=4)
def _all_match_table(n: int) -> np.ndarray:
    """All perfect matchings of range(n) as involution rows, n even <= 16."""
    table = np.zeros((1, 0), dtype=np.int8)
    for m in range(2, n + 1, 2):
        prev = table
        rows = prev.shape[0]
        out = np.empty(((m - 1) * rows, m), dtype=np.int8)
        for j in range(1, m):
            rest = np.array([x for x in range(1, m) if x != j], dtype=np.int8)
            block = out[(j - 1) * rows:j * rows]
            block[:, 0] = j
            block[:, j] = 0
            if m > 2:
                block[:, rest] = rest[prev]
        table = out
    return table


def iter_matchings_batched(k: int, mode: str = "ab_only"):
    """Yield batches of rows covering each pairing exactly once."""
    if mode not in ("ab_only", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    if not 1 <= k <= KMAX:
        raise ValueError(f"k={k} outside 1..{KMAX}")
    if mode == "ab_only":
        # one block per partner of A-leg 0: at most 9! rows
        n2 = 2 * k
        perms = _perm_table(n2 - 1)
        for first in range(n2):
            rest = np.array([x for x in range(n2) if x != first], dtype=np.int32)
            bp = np.empty((perms.shape[0], n2), dtype=np.int32)
            bp[:, 0] = first
            bp[:, 1:] = rest[perms]
            yield bp
        return
    n = 4 * k
    if n <= 16:
        yield _all_match_table(n).astype(np.int32)
        return
    # n = 20: one leg per row of ``out``, yielded transposed: contiguous writes
    base = np.ascontiguousarray(_all_match_table(16).T)
    out = np.empty((n, base.shape[1]), dtype=np.int8)
    for j0 in range(1, n):
        rest0 = [x for x in range(1, n) if x != j0]
        a1 = rest0[0]
        for j1 in rest0[1:]:
            lab = np.array([x for x in rest0 if x not in (a1, j1)],
                           dtype=np.int8)
            for i, row in enumerate(base):
                # relabel in place: no fancy-indexed temporary block
                np.take(lab, row, out=out[lab[i]])
            out[0] = j0
            out[j0] = 0
            out[a1] = j1
            out[j1] = a1
            yield out.T


def count_matchings(k: int, mode: str = "ab_only") -> int:
    """Total pairings at order k, counted from the batched emission."""
    return sum(batch.shape[0] for batch in iter_matchings_batched(k, mode))
