"""Vectorized pairing census over symmetry-reduced representatives.

The census of order k is the exact histogram {(C, l, connected, tadpole):
count} over the (2k)! ab pairings.  Relabeling vertices and giving one
vertex a half-turn (A B A B maps to itself) leave the key unchanged, so the
census traces one representative per class of labeled pairings, with an
exact integer weight (isomorph-free generation; McKay, J. Algorithms 1998).

A representative is a row ``bp``: the B-index paired with each A-index.
Vertex v carries A-indices 2v, 2v+1 (positions 0, 2) and B-indices 2v, 2v+1
(positions 1, 3); vertices are numbered in the order they are touched.
A-index a = 0, 1, ... is always the lowest unpaired one on a touched vertex:

* if every touched A-index is paired, touch vertex t (weight 1: a labeled
  pairing starts its next component at a fixed vertex and orientation);
* pair a with an unpaired B-index of a touched vertex (weight 1), or with
  B-index 2t, position 1 of fresh vertex t, touching it; relabeling and
  half-turns map the 2(k - t) B-indices of the untouched vertices onto it,
  so it weighs 2(k - t).

A weight, the product of its choices' weights, counts the labeled pairings
the representative stands for.  Weights are summed as exact int64; those of
an order must total (2k)!, or the census raises ``InvariantViolation``.
``representatives`` streams the same rows and weights, untraced, to the
knot export and ``verify euler``, which run the reference tracer on them.

Tracing shares no algorithm with the reference tracer in ``diagrams``:
Latin loops are the cycles of the leg involution ``match`` after ``succ``
(next position on the same vertex), one per loop.  Greek loops are half the
cycles of match XOR 2 (slot mate of the partner), each loop being seen once
per direction; those cycles alternate A- and B-legs, so they are counted
as the cycles of its square on the 2k A-indices, tau(i) = pinv[bp[i] ^ 1] ^ 1.
Cycles are counted by pointer-doubling minimum propagation over the raveled
batch, with flat gathers.  Connectivity comes from the generator.  It
opens a vertex when every touched A-index is paired; then every touched
B-index is paired too, so each opening after the first starts a new
component, and a row is connected iff it has one opening.  The rule holds
for the generator's rows only, so the tracer takes the flag as an argument.

With ``threads == 1`` the census expands the root state level by level in
numpy, ``_ROW_CHUNK`` rows at a time, and traces the representatives as
they come, so no order holds all of them at once; ``representatives``
streams the same way.  For a process pool, the generator states after the
first ``_SPLIT_DEPTH`` choices are the tasks (at least two for any k), each
streamed alike.  Task histograms are merged in task order, and the
histogram holds exact integers, so any ``threads`` gives the same census.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .diagrams import DEFAULT_KMAX
from .errors import InvariantViolation, ResourceLimitError, ValidationError

_MAX_SUFFIX = 9          # largest n with a cached full permutation table
_ROW_CHUNK = 4_096       # rows expanded or traced per numpy batch
_SPLIT_DEPTH = 3         # generator choices fixed per pool task

Census = dict[tuple[int, int, bool, bool], int]
State = tuple[np.ndarray, ...]   # bp, used, t, w, opened


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
    """Cycle count per row of a batch of permutations of at most 127 points.

    Pointer doubling on the raveled batch: a step index is the row-local
    target plus the row's offset, so each round is two flat ``take`` gathers.
    """
    rows, n = perm.shape
    offsets = np.arange(0, rows * n, n,
                        dtype=np.int32 if perm.size < 2 ** 31 else np.int64)
    step = (perm + offsets[:, None]).ravel()
    ident = np.arange(n, dtype=np.int8)
    lab = np.tile(ident, rows)
    for _ in range((n - 1).bit_length()):
        np.minimum(lab, lab.take(step), out=lab)
        step = step.take(step)
    return (lab.reshape(rows, n) == ident).sum(axis=1)


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


def _census_rows(match: np.ndarray, weight: np.ndarray,
                 connected: np.ndarray) -> Census:
    """Trace leg involution rows and histogram (C, l, conn, tad) by weight;
    ``connected`` is the caller's connectivity flag per row."""
    n = match.shape[1]
    k = n // 4
    legs = np.arange(n)
    succ = legs - legs % 4 + (legs + 1) % 4
    C = _row_cycle_counts(match[:, succ])
    slot = match ^ 2
    tau = np.take_along_axis(slot, slot[:, 0::2], axis=1) >> 1   # A-index rows
    lgr = _row_cycle_counts(tau) // 2
    vcol = match[:, 0::2] // 4
    tad = (vcol == np.arange(2 * k) // 2).any(axis=1)
    base_l = 2 * k + 2
    key = ((C * base_l + lgr) * 2 + connected) * 2 + tad
    counts = np.zeros(int(key.max()) + 1, dtype=np.int64)
    np.add.at(counts, key, weight)
    out: Census = {}
    for packed in np.nonzero(counts)[0]:
        tadp = bool(packed & 1)
        connp = bool((packed >> 1) & 1)
        rest = packed >> 2
        out[(int(rest // base_l), int(rest % base_l), connp, tadp)] = \
            int(counts[packed])
    return out


def _merge(into: Census, part: Census) -> None:
    for key, cnt in part.items():
        into[key] = into.get(key, 0) + cnt


def _root(k: int) -> State:
    """The generator's start: nothing paired or touched, weight 1."""
    zero = np.zeros(1, dtype=np.int64)
    return np.zeros((1, 2 * k), dtype=np.int32), zero, zero, zero + 1, zero


def _children(k: int, a: int, state: State) -> State:
    """Pair A-index a in every allowed way, children in parent row order."""
    bp, used, t, w, opened = state
    opening = a == 2 * t      # no touched A-index left: touch vertex t
    t = t + opening
    opened = opened + opening
    j = np.arange(2 * k)
    rows, cols = np.nonzero((j <= 2 * t[:, None]) & ((used[:, None] >> j) & 1 == 0))
    t = t[rows]
    fresh = cols == 2 * t
    child = bp[rows]
    child[:, a] = cols
    return (child, used[rows] | (1 << cols), t + fresh,
            w[rows] * np.where(fresh, 2 * (k - t), 1), opened[rows])


def _leaves(k: int, a: int, state: State):
    """Complete representatives below ``state`` (depth a), in batches."""
    if a == 2 * k:
        yield state
        return
    child = _children(k, a, state)
    for lo in range(0, child[0].shape[0], _ROW_CHUNK):
        yield from _leaves(k, a + 1, tuple(x[lo:lo + _ROW_CHUNK] for x in child))


def _subtree_census(args) -> Census:
    k, a, state = args
    total: Census = {}
    for bp, _used, _t, w, opened in _leaves(k, a, state):
        _merge(total, _census_rows(_ab_match(bp), w, opened == 1))
    return total


def _subtree_tasks(k: int) -> list:
    """One task per state after the first choices; the largest subtree, all
    fresh choices, is generated last, so the tasks run in reverse order."""
    depth = min(_SPLIT_DEPTH, 2 * k)
    state = _root(k)
    for a in range(depth):
        state = _children(k, a, state)
    return [(k, depth, tuple(x[i:i + 1] for x in state))
            for i in reversed(range(state[0].shape[0]))]


def representatives(k: int):
    """Yield (leg involution rows, int64 weights) batches, one row per class."""
    for bp, _used, _t, w, _opened in _leaves(k, 0, _root(k)):
        yield _ab_match(bp), w


def pairing_census(k: int, threads: int = 1, kmax: int = DEFAULT_KMAX) -> Census:
    """Exact histogram {(C, l, connected, tadpole): count} over ab pairings.

    Deterministic and independent of ``threads``; the parallel fold merges
    per-task integer histograms in a fixed task order.
    """
    if not 1 <= k <= kmax:
        raise ResourceLimitError(f"k={k} outside enumeration range 1..{kmax}")
    if threads < 1:
        raise ValidationError("threads must be >= 1")
    if threads == 1:
        total = _subtree_census((k, 0, _root(k)))
    else:
        # imported here, so that serial runs never load multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        total = {}
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for part in pool.map(_subtree_census, _subtree_tasks(k), chunksize=1):
                _merge(total, part)
    if sum(total.values()) != math.factorial(2 * k):
        raise InvariantViolation(
            f"k={k}: census weights sum to {sum(total.values())}, "
            f"not (2k)! = {math.factorial(2 * k)}")
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
    # one leg per row of ``out``, yielded transposed: contiguous writes
    base = np.ascontiguousarray(_all_match_table(16).T)
    out = np.empty((n, base.shape[1]), dtype=np.int8)
    for j0 in range(1, n):
        rest0 = [x for x in range(1, n) if x != j0]
        a1 = rest0[0]
        for j1 in rest0[1:]:
            lab = np.array([x for x in rest0 if x not in (a1, j1)],
                           dtype=np.int8)
            out[lab] = lab[base]
            out[0] = j0
            out[j0] = 0
            out[a1] = j1
            out[j1] = a1
            yield out.T


def count_matchings(k: int, mode: str = "ab_only",
                    kmax: int = DEFAULT_KMAX) -> int:
    """Total pairings at order k, counted from the batched emission."""
    return sum(batch.shape[0] for batch in iter_matchings_batched(k, mode, kmax))
