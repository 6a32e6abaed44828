"""Vectorized pairing census: bulk loop tracing and exact integer counts.

The reference generator in ``diagrams`` is clear but per-pairing; at k = 5
the ab-restricted space has 10! = 3,628,800 pairings and needs bulk
processing.  This module regenerates the same combinatorics with numpy and
shares no tracing algorithm with that reference:

* ab pairings are rows of a permutation table (partner of A-leg i), turned
  into leg involutions ``match``;
* Latin loops are the cycles of ``match`` after ``succ`` on the 4k legs,
  where ``succ`` is the next position on the same vertex: following the
  col port of each leg once around its loop visits every loop once, so
  the cycle count is C itself;
* Greek cycle counts use the leg permutation match XOR 2 (slot mate of the
  propagator partner); each undirected loop appears once per direction,
  hence the division by 2;
* cycle counts come from pointer-doubling minimum propagation;
* vertex connectivity uses minimum-label propagation on at most 6 nodes.

Every pairing is folded into an exact integer histogram keyed by
(C, l, connected, tadpole).  The space is partitioned by fixing the
partners of the first A-legs (at least the first one), which yields
independent tasks for the process pool; integer merges make parallel
results bit-identical to the serial fold.
"""
from __future__ import annotations

import functools
import itertools
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .diagrams import DEFAULT_KMAX
from .errors import ResourceLimitError, ValidationError

_MAX_SUFFIX = 9          # largest n with a cached full permutation table
_ROW_CHUNK = 90_720      # rows traced per numpy batch

Census = dict[tuple[int, int, bool, bool], int]


@functools.lru_cache(maxsize=None)
def _perm_table(n: int) -> np.ndarray:
    """All n! permutations of range(n), one per row, int8, n <= 9."""
    if n > _MAX_SUFFIX:
        raise ResourceLimitError(f"permutation table for n={n} refused")
    table = np.zeros((1, 0), dtype=np.int8)
    for m in range(1, n + 1):
        prev = table
        rows = prev.shape[0]
        out = np.empty((m * rows, m), dtype=np.int8)
        for v in range(m):
            rest = np.array([x for x in range(m) if x != v], dtype=np.int8)
            block = out[v * rows:(v + 1) * rows]
            block[:, 0] = v
            if m > 1:
                block[:, 1:] = rest[prev]
        table = out
    return table


def _ab_prefixes(k: int) -> list[tuple[int, ...]]:
    """Task prefixes: fixed partners of the first A-legs, in order."""
    depth = max(1, 2 * k - _MAX_SUFFIX)
    return list(itertools.permutations(range(2 * k), depth))


def _ab_block(k: int, prefix: tuple[int, ...]) -> np.ndarray:
    """Permutation rows (partner B-index per A-leg) for one task prefix."""
    n2 = 2 * k
    rest = np.array([x for x in range(n2) if x not in prefix], dtype=np.int32)
    suffix = rest[_perm_table(len(rest))]
    rows = suffix.shape[0]
    bp = np.empty((rows, n2), dtype=np.int32)
    for i, v in enumerate(prefix):
        bp[:, i] = v
    bp[:, len(prefix):] = suffix
    return bp


def _row_cycle_counts(perm: np.ndarray) -> np.ndarray:
    """Cycle count per row of a batch of permutations."""
    n = perm.shape[1]
    ident = np.arange(n, dtype=perm.dtype)
    lab = np.broadcast_to(ident, perm.shape).copy()
    step = perm.copy()
    rounds = max(1, int(np.ceil(np.log2(n))))
    for _ in range(rounds):
        np.minimum(lab, np.take_along_axis(lab, step, axis=1), out=lab)
        step = np.take_along_axis(step, step, axis=1)
    return (lab == ident).sum(axis=1, dtype=np.int64)


def _row_connected(bp: np.ndarray, k: int) -> np.ndarray:
    """Vertex-graph connectivity per row (propagator edges only)."""
    rows, n2 = bp.shape
    if k == 1:
        return np.ones(rows, dtype=bool)
    lab = np.broadcast_to(np.arange(k, dtype=np.int32), (rows, k)).copy()
    vcol = bp // 2
    ridx = np.arange(rows)
    while True:
        changed = False
        for i in range(n2):
            u = i // 2
            v = vcol[:, i]
            lu = lab[:, u]
            lv = lab[ridx, v]
            m = np.minimum(lu, lv)
            if (m < lu).any() or (m < lv).any():
                changed = True
            lab[:, u] = m
            lab[ridx, v] = m
        if not changed:
            break
    return (lab == 0).all(axis=1)


def _ab_match(bp: np.ndarray) -> np.ndarray:
    """Leg involution rows (partner leg of each leg) of a batch of ab rows."""
    n2 = bp.shape[1]
    pinv = np.empty_like(bp)
    np.put_along_axis(
        pinv, bp,
        np.broadcast_to(np.arange(n2, dtype=bp.dtype), bp.shape), axis=1)
    match = np.empty((bp.shape[0], 2 * n2), dtype=np.int32)
    match[:, 0::2] = 2 * bp + 1
    match[:, 1::2] = 2 * pinv
    return match


def _census_rows(bp: np.ndarray, k: int) -> Census:
    """Trace one batch of ab pairings and histogram (C, l, conn, tad)."""
    n2 = 2 * k
    match = _ab_match(bp)
    legs = np.arange(4 * k)
    succ = legs - legs % 4 + (legs + 1) % 4
    C = _row_cycle_counts(match[:, succ])
    lgr = _row_cycle_counts(match ^ 2) // 2
    conn = _row_connected(bp, k)
    tad = (bp // 2 == (np.arange(n2, dtype=bp.dtype) // 2)[None, :]).any(axis=1)
    base_l = 2 * k + 2
    key = ((C * base_l + lgr) * 2 + conn) * 2 + tad
    counts = np.bincount(key.astype(np.int64))
    out: Census = {}
    for packed in np.nonzero(counts)[0]:
        c_count = int(counts[packed])
        tadp = bool(packed & 1)
        connp = bool((packed >> 1) & 1)
        rest = packed >> 2
        out[(int(rest // base_l), int(rest % base_l), connp, tadp)] = c_count
    return out


def _merge(into: Census, part: Census) -> None:
    for key, cnt in part.items():
        into[key] = into.get(key, 0) + cnt


def _census_task(args) -> Census:
    k, prefix = args
    bp = _ab_block(k, prefix)
    total: Census = {}
    for lo in range(0, bp.shape[0], _ROW_CHUNK):
        _merge(total, _census_rows(bp[lo:lo + _ROW_CHUNK], k))
    return total


def pairing_census(k: int, threads: int = 1, kmax: int = DEFAULT_KMAX) -> Census:
    """Exact histogram {(C, l, connected, tadpole): count} over ab pairings.

    Deterministic and independent of ``threads``; the parallel fold merges
    per-task integer histograms in a fixed task order.
    """
    if not 1 <= k <= kmax:
        raise ResourceLimitError(f"k={k} outside enumeration range 1..{kmax}")
    if threads < 1:
        raise ValidationError("threads must be >= 1")
    tasks = [(k, prefix) for prefix in _ab_prefixes(k)]
    total: Census = {}
    if threads == 1:
        for t in tasks:
            _merge(total, _census_task(t))
        return total
    with ProcessPoolExecutor(max_workers=threads) as pool:
        for part in pool.map(_census_task, tasks, chunksize=1):
            _merge(total, part)
    return total


@functools.lru_cache(maxsize=4)
def _all_match_table(n: int) -> np.ndarray:
    """All perfect matchings of range(n) as involution rows, n even <= 16."""
    if n % 2 or n > 16:
        raise ResourceLimitError(f"matching table for n={n} refused")
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


def iter_matchings_batched(k: int, mode: str = "ab_only",
                           kmax: int = DEFAULT_KMAX):
    """Yield batches of involution rows covering each pairing exactly once."""
    if mode not in ("ab_only", "all"):
        raise ValidationError(f"unknown mode {mode!r}")
    if not 1 <= k <= kmax:
        raise ResourceLimitError(f"k={k} outside enumeration range 1..{kmax}")
    if mode == "ab_only":
        for prefix in _ab_prefixes(k):
            yield _ab_match(_ab_block(k, prefix))
        return
    n = 4 * k
    if n <= 16:
        yield _all_match_table(n).astype(np.int32)
        return
    if n != 20:
        raise ResourceLimitError(f"all-mode batching beyond 4k=20 refused")
    base = _all_match_table(16)
    out = np.empty((base.shape[0], n), dtype=np.int8)
    for j0 in range(1, n):
        rest0 = [x for x in range(1, n) if x != j0]
        a1 = rest0[0]
        for j1 in rest0[1:]:
            lab = np.array([x for x in rest0 if x not in (a1, j1)],
                           dtype=np.int8)
            out[:, lab] = lab[base]
            out[:, 0] = j0
            out[:, j0] = 0
            out[:, a1] = j1
            out[:, j1] = a1
            yield out


def count_matchings(k: int, mode: str = "ab_only",
                    kmax: int = DEFAULT_KMAX) -> int:
    """Total pairings at order k, counted from the batched emission."""
    return sum(batch.shape[0] for batch in iter_matchings_batched(k, mode, kmax))
