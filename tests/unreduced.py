"""Unreduced references: every labeled ab pairing, and its Gauss-code walk.

The census counts one representative row per symmetry class, and the knot
export walks only those rows; tests check both against every labeled
pairing of order k <= 5.  ``enumerate_matchings`` streams the (2k)! ab
pairings one by one as ``Pairing``s; ``iter_matchings_batched`` yields them
in numpy batches as the census's rows ``bp`` (the B-index paired with each
A-index).  ``to_gauss_code`` walks the legs of one pairing checked by the
reference tracer, and ``is_tadpole`` finds a propagator that joins two legs
of one vertex.  ``TREFOIL`` is the canonical code of the k = 3 trefoil.
"""
import functools
import itertools

import numpy as np

from triline.diagrams import Pairing, components_and_genus
from triline.errors import StructureError
from triline.knots import OVER, UNDER, GaussCode

KMAX = 5
TREFOIL = GaussCode.parse("O1U2O3U1O2U3")


def _check_order(k: int) -> None:
    if not 1 <= k <= KMAX:
        raise ValueError(f"k={k} outside 1..{KMAX}")


def leg_family(leg_id: int) -> str:
    return "A" if leg_id % 2 == 0 else "B"


def enumerate_matchings(k: int):
    """Stream the (2k)! ab pairings of order k, lexicographic on the involution."""
    _check_order(k)
    n = 4 * k
    match = [-1] * n

    def rec(start):
        while start < n and match[start] != -1:
            start += 1
        if start == n:
            yield Pairing(k, tuple(match))
            return
        for j in range(start + 1, n):
            if match[j] != -1 or leg_family(j) == leg_family(start):
                continue
            match[start] = j
            match[j] = start
            yield from rec(start + 1)
            match[start] = -1
            match[j] = -1

    yield from rec(0)


@functools.lru_cache(maxsize=None)
def _perm_table(n: int) -> np.ndarray:
    """All n! permutations of range(n), one per row, int8."""
    flat = itertools.chain.from_iterable(itertools.permutations(range(n)))
    return np.fromiter(flat, dtype=np.int8).reshape(-1, n)


def iter_matchings_batched(k: int):
    """Yield batches of rows bp covering each ab pairing exactly once."""
    _check_order(k)
    # one block per partner of A-leg 0: at most 9! rows
    n2 = 2 * k
    perms = _perm_table(n2 - 1)
    for first in range(n2):
        rest = np.array([x for x in range(n2) if x != first], dtype=np.int32)
        bp = np.empty((perms.shape[0], n2), dtype=np.int32)
        bp[:, 0] = first
        bp[:, 1:] = rest[perms]
        yield bp


def count_matchings(k: int) -> int:
    """Total ab pairings at order k, counted from the batched emission."""
    return sum(batch.shape[0] for batch in iter_matchings_batched(k))


def is_tadpole(p: Pairing) -> bool:
    """True iff some propagator joins two legs of the same vertex."""
    return any(x // 4 == y // 4 for x, y in enumerate(p.match))


def to_gauss_code(p: Pairing) -> GaussCode:
    """Walk the single Greek strand of a connected planar pairing.

    Crossing id is the 1-based vertex; passage is over on A-positions and
    under on B-positions.  Refuses pairings that are disconnected, have
    more than one Greek loop, or positive genus.
    """
    rep = components_and_genus(p)
    problems = []
    if rep.components != 1:
        problems.append(f"{rep.components} components")
    if rep.l != 1:
        problems.append(f"{rep.l} Greek loops")
    if any(g > 0 for g in rep.genus_per_component):
        problems.append(f"genus {max(rep.genus_per_component)}")
    if problems:
        raise StructureError("not a knot shadow: " + ", ".join(problems))
    entries, cur = [], 0
    for _ in range(2 * p.k):
        entries.append((cur // 4 + 1, OVER if cur % 2 == 0 else UNDER))
        cur = p.match[cur] ^ 2      # partner leg, then straight through
    return GaussCode(tuple(entries))


def alternating_check(c: GaussCode) -> bool:
    """True iff passages strictly alternate over/under cyclically."""
    n = len(c.entries)
    if n == 0:
        return True
    return all(c.entries[i][1] != c.entries[(i + 1) % n][1] for i in range(n))
