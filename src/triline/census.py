"""Pairing census by a transfer matrix over the generator's open ends.

The census of order k is the exact histogram {(C, l, connected, tadpole):
count} over the (2k)! ab pairings.  It makes the choices of the row
generator in ``rows``, with the same weights: pair A-index a = 0, 1, ...
with an unpaired B-index of a touched vertex (weight 1) or with B-index 2t
of fresh vertex t (weight 2(k - t)), touching vertex t first when every
touched A-index is paired.  But the future of a partial row depends only on
how its open ends are joined, so partial rows with the same open ends merge
and the census never holds a row (a transfer-matrix enumeration, as for
meanders, Jensen, J. Phys. A 33, 2000, and knots, Jacobsen and Zinn-Justin,
J. Knot Theory Ramif. 11, 2002).  At k = 7 it holds at most 781 states,
against the 2,737,562 rows the generator yields.

Three graphs on the 4k index nodes carry the loops.  G1 is the pairing
edges A x - B bp[x] plus B y - A y; G2 the pairing edges plus B y - A y^1;
G3 the pairing edges plus the mates A x - A x^1 and B y - B y^1.  Once bp is
complete each is 2-regular, C = cycles(G1) + cycles(G2) and l = cycles(G3):
these are ``rows.trace_rows``' cycles(bp) + cycles(bp ^ 1) and
cycles(tau) / 2.

With a A-indices paired and t vertices touched, the n = 2t - a open
A-indices a..2t-1 are A_0..A_{n-1}.  In G1 and G2 every open path joins an
open B-index to an open A-index, so the open B-index whose G1 path ends at
A_i is B_i.  A state's key is

* M2: M2[i] is the label of the A-index at the end of B_i's G2 path;
* M3: the G3 matching of the 2n open ends, A_i numbered 2i and B_i 2i+1;
* bv: bv[i] is B_i's vertex less vertex a >> 1, or -1 below it, where no
  open A-index is left to make a tadpole with it.

Untouched vertices stay implicit until a choice touches one and appends its
four ends.  Pairing A_0 with B_j closes a G1 cycle iff j = 0 and a G2 cycle
iff M2[j] = 0; otherwise the two paths join.  It closes a G3 cycle iff M3
matches the two ends; otherwise their partners are matched.  It makes a
tadpole iff bv[j] = 0.  A state's value maps (closed C, closed l,
min(openings, 2), tadpole) to an exact weight: each opening after the first
starts a new component, so one opening means connected.  States with equal
keys merge by adding values.  After the last A-index one state is left, and
its value is the census.  The weights of an order must total (2k)!, or the
census raises ``InvariantViolation``.
"""
from __future__ import annotations

import math

from .diagrams import DEFAULT_KMAX
from .errors import InvariantViolation, ResourceLimitError

Census = dict[tuple[int, int, bool, bool], int]
Key = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]   # M2, M3, bv
Value = dict[tuple[int, int, int, bool], int]   # (C, l, openings, tad) -> weight


def is_knot_shadow(k: int, C, l, connected):
    """Knot shadow: connected, l = 1, genus 0 (C = k + 2); elementwise."""
    return connected & (l == 1) & (C == k + 2)


def _touch(key: Key, rel: int) -> Key:
    """Append a touched vertex's ends A_n, A_n+1, B_n, B_n+1; its vertex is
    ``rel`` past vertex a >> 1."""
    m2, m3, bv = key
    n, e = len(m2), 2 * len(m2)
    return m2 + (n + 1, n), m3 + (e + 2, e + 3, e, e + 1), bv + (rel, rel)


def _join(key: Key, j: int, shift: int) -> tuple[int, bool, bool, Key]:
    """Pair A_0 with B_j: (Latin loops closed, Greek loop closed, tadpole,
    the key with both ends dropped and vertex a >> 1 moved by ``shift``)."""
    m2, m3, bv = list(key[0]), list(key[1]), key[2]
    p = m2.index(0)                   # B_p's G2 path ends at A_0
    latin = (j == 0) + (p == j)
    if p != j:
        m2[p] = m2[j]
    u, v = m3[0], m3[2 * j + 1]
    greek = u == 2 * j + 1
    if not greek:
        m3[u], m3[v] = v, u
    # B_0's G1 path now ends at A_j, so B_0 takes slot j; A_0 and B_j go
    src = [0 if i == j else i for i in range(1, len(m2))]
    relabel = {2 * i: 2 * i - 2 for i in range(1, len(m2))}
    relabel.update((2 * s + 1, 2 * i + 1) for i, s in enumerate(src))
    new_m3 = []
    for i, s in enumerate(src):
        new_m3 += relabel[m3[2 * i + 2]], relabel[m3[2 * s + 1]]
    return latin, greek, bv[j] == 0, (
        tuple(m2[s] - 1 for s in src), tuple(new_m3),
        tuple(max(bv[s] - shift, -1) for s in src))


def _frontier(k: int) -> Census:
    """The census of order k, unchecked."""
    states: dict[Key, Value] = {((), (), ()): {(0, 0, 0, False): 1}}
    for a in range(2 * k):
        shift = a & 1                        # vertex a >> 1 moves on after odd a
        merged: dict[Key, Value] = {}
        for key, value in states.items():
            t = (a + len(key[0])) >> 1       # touched vertices
            opens = not key[0]               # every touched A-index is paired
            if opens:
                key = _touch(key, 0)
                t += 1
            moves = [(_join(key, j, shift), 1) for j in range(len(key[0]))]
            if t < k:
                moves.append((_join(_touch(key, t - (a >> 1)), len(key[0]),
                                    shift), 2 * (k - t)))
            for (latin, greek, tadpole, child), mult in moves:
                into = merged.setdefault(child, {})
                for (C, l, op, tad), w in value.items():
                    out = (C + latin, l + greek, min(op + opens, 2),
                           tad or tadpole)
                    into[out] = into.get(out, 0) + w * mult
        states = merged
    (value,) = states.values()
    return {(C, l, op == 1, tad): w for (C, l, op, tad), w in value.items()}


def pairing_census(k: int) -> Census:
    """Exact histogram {(C, l, connected, tadpole): count} over ab pairings."""
    if not 1 <= k <= DEFAULT_KMAX:
        raise ResourceLimitError(f"k={k} outside enumeration range 1..{DEFAULT_KMAX}")
    total = _frontier(k)
    if sum(total.values()) != math.factorial(2 * k):
        raise InvariantViolation(
            f"k={k}: census weights sum to {sum(total.values())}, "
            f"not (2k)! = {math.factorial(2 * k)}")
    return total
