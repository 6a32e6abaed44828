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
``representatives`` streams the same rows, weights and connectivity flags,
untraced: the knot export traces them with ``trace_rows``, and only
``verify euler`` widens them to leg involutions for the reference tracer.

Tracing shares no algorithm with the reference tracer in ``diagrams`` and
never widens a row to the 4k legs.  Give A-index x row index alpha(x) and
column index beta(x); around the vertex trace A B A B, B-index y then has
row beta(y) and column alpha(y ^ 1).  Pairing x with bp[x] sets beta(x) =
beta(bp[x]) and alpha(x) = alpha(bp[x] ^ 1), so the Latin loops number C =
cycles(bp) + cycles(bp ^ 1).  A Greek loop runs from A-index x to bp[x],
across its vertex to bp[x] ^ 1, to that one's partner and across again:
tau(x) = pinv[bp[x] ^ 1] ^ 1, pinv inverting bp.  It meets the A-indices
once per direction, so l = cycles(tau) / 2.  A tadpole pairs an A-index
with a B-index of its own vertex: bp[x] >> 1 == x >> 1.  Cycles are counted
by pointer-doubling minimum propagation over the raveled batch, with flat
gathers.  Connectivity comes from the generator.  It opens a vertex when
every touched A-index is paired; then every touched B-index is paired too,
so each opening after the first starts a new component, and a row is
connected iff it has one opening.  The rule holds for the generator's rows
only, so the tracer takes the flag as an argument.

With ``threads == 1`` the census expands the root state level by level in
numpy, ``_ROW_CHUNK`` rows at a time, and traces the representatives as
they come, so no order holds all of them at once; ``representatives``
streams the same way.  The peak is the chunk size times the row width,
summed over levels, so rows take the narrowest dtypes that hold their
values (k = 7: 35.3 MB, not 40.7; halving the chunk would cost 5-10% of
its time in per-batch overhead).  With ``threads > 1`` it runs a process
pool at any k; the generator states after the first ``_SPLIT_DEPTH``
choices are the tasks (at least two for any k), each streamed alike.  Task
histograms are merged in task order, and the histogram holds exact
integers, so any ``threads`` gives the same census.  A pool costs more to
start than orders below ``series.POOL_MIN_K`` take serially, so
``series.census_table`` passes ``threads`` on only from that order.
"""
from __future__ import annotations

import math

import numpy as np

from .diagrams import DEFAULT_KMAX
from .errors import InvariantViolation, ResourceLimitError, ValidationError

_ROW_CHUNK = 4_096       # rows expanded or traced per numpy batch
_SPLIT_DEPTH = 3         # generator choices fixed per pool task

Census = dict[tuple[int, int, bool, bool], int]
State = tuple[np.ndarray, ...]   # bp, used (2k-bit mask), t, w, opened


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


def trace_rows(bp: np.ndarray) -> tuple[np.ndarray, ...]:
    """Latin loops C, Greek loops l and tadpole flag per ab row."""
    C = _row_cycle_counts(bp) + _row_cycle_counts(bp ^ 1)
    tau = np.take_along_axis(bp.argsort(axis=1), bp ^ 1, axis=1) ^ 1
    tad = (bp >> 1 == np.arange(bp.shape[1]) >> 1).any(axis=1)
    return C, _row_cycle_counts(tau) // 2, tad


def is_knot_shadow(k: int, C, l, connected):
    """Knot shadow: connected, l = 1, genus 0 (C = k + 2); elementwise."""
    return connected & (l == 1) & (C == k + 2)


def _census_rows(bp: np.ndarray, weight: np.ndarray,
                 connected: np.ndarray) -> Census:
    """Trace ab rows and histogram (C, l, conn, tad) by weight;
    ``connected`` is the caller's connectivity flag per row."""
    C, lgr, tad = trace_rows(bp)
    base_l = bp.shape[1] + 2
    key = ((C * base_l + lgr) * 2 + connected) * 2 + tad
    counts = np.zeros(int(key.max()) + 1, dtype=np.int64)
    np.add.at(counts, key, weight)
    out: Census = {}
    for packed in np.nonzero(counts)[0]:
        rest = packed >> 2
        out[(int(rest // base_l), int(rest % base_l), bool(packed & 2),
             bool(packed & 1))] = int(counts[packed])
    return out


def _merge(into: Census, part: Census) -> None:
    for key, cnt in part.items():
        into[key] = into.get(key, 0) + cnt


def _root(k: int) -> State:
    """The generator's start: nothing paired or touched, weight 1."""
    zero = np.zeros(1, dtype=np.int8)
    return (np.zeros((1, 2 * k), dtype=np.int8), np.zeros(1, dtype=np.int16),
            zero, np.ones(1, dtype=np.int64), zero)


def _children(k: int, a: int, state: State) -> State:
    """Pair A-index a in every allowed way, children in parent row order."""
    bp, used, t, w, opened = state
    opening = a == 2 * t      # no touched A-index left: touch vertex t
    t = t + opening
    opened = opened + opening
    j = np.arange(2 * k, dtype=used.dtype)
    rows, cols = np.nonzero((j <= 2 * t[:, None]) & ((used[:, None] >> j) & 1 == 0))
    t = t[rows]
    fresh = cols == 2 * t
    child = bp[rows]
    child[:, a] = cols
    return (child, used[rows] | (1 << j)[cols], t + fresh,
            w[rows] * np.where(fresh, 2 * (k - t), 1), opened[rows])


def _leaves(k: int, a: int, state: State):
    """(bp, weight, connected) batches of the rows below ``state``, depth a."""
    if a == 2 * k:
        bp, _used, _t, w, opened = state
        yield bp, w, opened == 1
        return
    child = _children(k, a, state)
    for lo in range(0, child[0].shape[0], _ROW_CHUNK):
        yield from _leaves(k, a + 1, tuple(x[lo:lo + _ROW_CHUNK] for x in child))


def _subtree_census(args) -> Census:
    k, a, state = args
    total: Census = {}
    for batch in _leaves(k, a, state):
        _merge(total, _census_rows(*batch))
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
    """Yield (ab rows, int64 weights, connected) batches."""
    yield from _leaves(k, 0, _root(k))


def pairing_census(k: int, threads: int = 1) -> Census:
    """Exact histogram {(C, l, connected, tadpole): count} over ab pairings.

    Deterministic and independent of ``threads``; the parallel fold merges
    per-task integer histograms in a fixed task order.
    """
    if not 1 <= k <= DEFAULT_KMAX:
        raise ResourceLimitError(f"k={k} outside enumeration range 1..{DEFAULT_KMAX}")
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

