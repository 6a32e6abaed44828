"""Pairing census by a transfer matrix over open ends, and the row walk.

The census of order k is the exact histogram {(C, l, connected): count}
over the (2k)! ab pairings.  One representative row bp (the B-index
paired with each A-index) stands for each class of labeled pairings under
vertex relabeling and half-turns, which leave the key unchanged; vertex v
carries A- and B-indices 2v, 2v+1, and vertices are numbered as they are
touched.  ``_moves`` holds the generator's moves, once: pair A-index
a = 0, 1, ... with an unpaired B-index of a touched vertex (weight 1) or
with B-index 2t of fresh vertex t (weight 2(k - t), the B-indices of the
untouched vertices that relabeling and half-turns map onto it), touching
vertex t first (weight 1) when every touched A-index is paired.  A row's
weight, the product of its moves' weights, counts the labeled pairings it
stands for.

``representatives`` walks the moves depth first and yields every row with
its key; the knot export and ``verify euler`` need the rows themselves.
The census needs only their histogram.  The future of a partial row depends
only on how its open ends are joined, so partial rows with the same open
ends merge and the census never holds a row (a transfer-matrix enumeration,
as for meanders, Jensen, J. Phys. A 33, 2000, and knots, Jacobsen and
Zinn-Justin, J. Knot Theory Ramif. 11, 2002).  At k = 7 it holds at most
492 states, against the 2,737,562 rows the walk yields.  Neither the
census nor the walk knows tadpoles: the Wick-ordered series is the standard
census under a substitution (``series``), and the Wick-ordered knot export
keeps the kink-free codes (``knots``).

Three graphs on the 4k index nodes carry the loops.  G1 is the pairing
edges A x - B bp[x] plus B y - A y; G2 the pairing edges plus B y - A y^1;
G3 the pairing edges plus the mates A x - A x^1 and B y - B y^1.  Once bp is
complete each is 2-regular, C = cycles(G1) + cycles(G2) and l = cycles(G3):
these are cycles(bp) + cycles(bp ^ 1) and cycles(tau) / 2 with
tau(x) = bp^-1[bp[x] ^ 1] ^ 1, as the independent row tracer in
``tests/row_census.py`` counts them.

With a A-indices paired and t vertices touched, the n = 2t - a open
A-indices a..2t-1 are A_0..A_{n-1}.  In G1 and G2 every open path joins an
open B-index to an open A-index, so the open B-index whose G1 path ends at
A_i is B_i.  A state's key is

* M2: M2[i] is the label of the A-index at the end of B_i's G2 path;
* M3: the G3 matching of the 2n open ends, A_i numbered 2i and B_i 2i+1.

Untouched vertices stay implicit until a choice touches one and appends its
four ends.  Pairing A_0 with B_j closes a G1 cycle iff j = 0 and a G2 cycle
iff M2[j] = 0; otherwise the two paths join.  It closes a G3 cycle iff M3
matches the two ends; otherwise their partners are matched.  A state's
value maps (closed C, closed l, min(openings, 2)) to an exact weight: each
opening after the first starts a new component, so one opening means
connected.  States with equal keys merge by adding values.  After the last
A-index one state is left, and its value is the census, whose weights must
total (2k)! or it raises ``InvariantViolation``.  The walk merges nothing:
a partial row carries its key, (C, l, openings), weight and the B-index
each open slot holds, so that pairing A_0 with B_j writes bp[a].
"""
from __future__ import annotations

import math

from .errors import InvariantViolation, ResourceLimitError

DEFAULT_KMAX = 7      # the census's order cap, and so --kmax's
Census = dict[tuple[int, int, bool], int]
Key = tuple[tuple[int, ...], tuple[int, ...]]   # M2, M3
Value = dict[tuple[int, int, int], int]         # (C, l, openings) -> weight


def is_knot_shadow(k: int, C, l, connected):
    """Knot shadow: connected, l = 1, genus 0 (C = k + 2)."""
    return connected & (l == 1) & (C == k + 2)


def _touch(key: Key) -> Key:
    """Append a touched vertex's ends A_n, A_n+1, B_n, B_n+1."""
    m2, m3 = key
    n, e = len(m2), 2 * len(m2)
    return m2 + (n + 1, n), m3 + (e + 2, e + 3, e, e + 1)


def _slide(slots, j: int):
    """``slots`` less slots 0 and j, slot 0's entry taking slot j."""
    return slots[1:j] + slots[:1] + slots[j + 1:] if j else slots[1:]


def _join(key: Key, j: int) -> tuple[int, bool, Key]:
    """Pair A_0 with B_j: (Latin loops closed, Greek loop closed, the key
    with both ends dropped)."""
    m2, m3 = list(key[0]), list(key[1])
    p = m2.index(0)                   # B_p's G2 path ends at A_0
    latin = (j == 0) + (p == j)
    if p != j:
        m2[p] = m2[j]
    u, v = m3[0], m3[2 * j + 1]
    greek = u == 2 * j + 1
    if not greek:
        m3[u], m3[v] = v, u
    # B_0's G1 path now ends at A_j, so B_0 takes slot j; A_0 and B_j go,
    # and every other end moves down one slot: label e becomes e - 2
    m3 = [2 * j - 1 if e == 1 else e - 2 for e in m3]
    m3[2 * j + 1] = m3[1]
    return latin, greek, (tuple([e - 1 for e in _slide(m2, j)]), tuple(m3[2:]))


def _moves(k: int, a: int, key: Key):
    """Each allowed pairing of A-index a from a state keyed ``key``, as
    (B-indices 2t, 2t+1 of each vertex t it touches, slot j of the B-index
    it takes, weight, ``_join``'s result).  A vertex opens first when no
    touched A-index is left."""
    t = (a + len(key[0])) >> 1           # touched vertices
    opened: tuple[int, ...] = ()
    if not key[0]:
        key, opened, t = _touch(key), (2 * t, 2 * t + 1), t + 1
    n = len(key[0])
    for j in range(n):
        yield opened, j, 1, _join(key, j)
    if t < k:
        yield (opened + (2 * t, 2 * t + 1), n, 2 * (k - t),
               _join(_touch(key), n))


def _frontier(k: int) -> Census:
    """The census of order k, unchecked."""
    states: dict[Key, Value] = {((), ()): {(0, 0, 0): 1}}
    for a in range(2 * k):
        merged: dict[Key, Value] = {}
        for key, value in states.items():
            opens = not key[0]
            for _, _, mult, (latin, greek, child) in _moves(k, a, key):
                into = merged.setdefault(child, {})
                for (C, l, op), w in value.items():
                    out = (C + latin, l + greek, min(op + opens, 2))
                    into[out] = into.get(out, 0) + w * mult
        states = merged
    (value,) = states.values()
    return {(C, l, op == 1): w for (C, l, op), w in value.items()}


def representatives(k: int, shadows: bool = False):
    """Yield (bp, weight, (C, l, connected)), one row per class.

    A depth-first walk of ``_moves`` that merges nothing.  ``shadows`` stops
    at a second opening and at a Greek loop closed before the last A-index
    (whose pairing always closes one), so only connected single-loop rows
    are left.
    """
    last = 2 * k - 1
    # a, key, B-index held by each open slot, bp, weight, C, l, openings
    stack = [(0, ((), ()), (), (), 1, 0, 0, 0)]
    while stack:
        a, key, held, bp, w, C, l, op = stack.pop()
        if a > last:
            yield bp, w, (C, l, op == 1)
            continue
        op += not key[0]
        if shadows and op > 1:
            continue
        for touched, j, mult, (latin, greek, child) in _moves(k, a, key):
            ends = held + touched
            if shadows and greek and a < last:
                continue
            stack.append((a + 1, child, _slide(ends, j), bp + (ends[j],),
                          w * mult, C + latin, l + greek, op))


def pairing_census(k: int) -> Census:
    """Exact histogram {(C, l, connected): count} over ab pairings."""
    if not 1 <= k <= DEFAULT_KMAX:
        raise ResourceLimitError(f"k={k} outside enumeration range 1..{DEFAULT_KMAX}")
    total = _frontier(k)
    if sum(total.values()) != math.factorial(2 * k):
        raise InvariantViolation(
            f"k={k}: census weights sum to {sum(total.values())}, "
            f"not (2k)! = {math.factorial(2 * k)}")
    return total
