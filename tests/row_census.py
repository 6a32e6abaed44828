"""The row census: the frontier census's independent reference.

It generates the symmetry-reduced ab rows in numpy, traces every row with
the batched tracer and histograms (C, l, connected, tadpole) by weight.  It
shares no code with ``triline.census``, whose frontier merges the same
moves and whose ``representatives`` walks them; it takes about 3.5 s at
k = 7 on one core.  The frontier keeps no tadpole flag:
``tadpole_marginal`` sums it out, and the rows without a tadpole check the
``wick_ordered`` series, which ``triline.series`` derives from the
standard census alone.

One representative row per class of labeled pairings, with an exact
integer weight (isomorph-free generation; McKay, J. Algorithms 1998).
Relabeling vertices and giving one vertex a half-turn (A B A B maps to
itself) leave the census key (C, l, connected, tadpole) unchanged.

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
the representative stands for; the weights of an order total (2k)!.  The
frontier census in ``triline.census`` makes the same choices.

``trace_rows`` shares no algorithm with the reference tracer in
``triline.diagrams`` and never widens a row to the 4k legs.  Give A-index x
row index alpha(x) and column index beta(x); around the vertex trace A B A B,
B-index y then has row beta(y) and column alpha(y ^ 1).  Pairing x with
bp[x] sets beta(x) = beta(bp[x]) and alpha(x) = alpha(bp[x] ^ 1), so the
Latin loops number C = cycles(bp) + cycles(bp ^ 1).  A Greek loop runs from
A-index x to bp[x], across its vertex to bp[x] ^ 1, to that one's partner
and across again: tau(x) = pinv[bp[x] ^ 1] ^ 1, pinv inverting bp.  It meets
the A-indices once per direction, so l = cycles(tau) / 2.  A tadpole pairs
an A-index with a B-index of its own vertex: bp[x] >> 1 == x >> 1.  Cycles
are counted by pointer-doubling minimum propagation over the raveled batch,
with flat gathers.  Connectivity comes from the generator.  It opens a
vertex when every touched A-index is paired; then every touched B-index is
paired too, so each opening after the first starts a new component, and a
row is connected iff it has one opening.  The rule holds for the
generator's rows only, so ``representatives`` yields the flag with them.

``representatives`` expands the root level by level, ``_ROW_CHUNK`` rows
at a time, and yields the rows as they come, so no order holds all of them
at once.  The peak is the chunk size times the row width, summed over
levels, so rows take the narrowest dtypes that hold their values.
"""
import numpy as np

_ROW_CHUNK = 4_096       # rows expanded per numpy batch

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


def representatives(k: int):
    """Yield (ab rows, int64 weights, connected) batches."""
    yield from _leaves(k, 0, _root(k))


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


def tadpole_marginal(census: dict) -> dict:
    """{(C, l, connected): count}, the frontier census's key, summed over
    the tadpole flag of a (C, l, connected, tadpole) census."""
    out = {}
    for (C, l, conn, _tad), cnt in census.items():
        out[(C, l, conn)] = out.get((C, l, conn), 0) + cnt
    return out
