"""The reference tracer: triple-line loops, components and genus of a pairing.

Each of the k vertices carries four legs in cyclic order A, B, A, B; leg
ids are 0..4k-1 with vertex = id // 4 and position = id % 4.  A diagram is
a perfect matching (pairing) of the legs.  Both loop counts are cycle
counts of one permutation of the legs:

* Latin loops are the faces of the ribbon graph.  The cyclic trace joins
  each leg's col index to the row index of the next leg around its vertex,
  rot(y) = y - y % 4 + (y + 1) % 4, and each propagator joins row(x) to
  col(match[x]); following row indices, every loop is one cycle of
  x -> rot(match[x]).  Their number C is the power of N.
* Greek loops: positions 0,2 share one Greek slot, positions 1,3 the
  other ("the strand passes straight through").  The slot mate of a leg
  is y ^ 2, and slot-mate∘matching walks each Greek loop once in each
  direction, so l, the power of d and the number of link components, is
  half its cycle count.
* Per connected component (vertices joined by propagators), Euler's count
  V - P + C = 2 - 2p with P = 2V gives the genus p = (2 - C_c + V_c) / 2;
  a Latin loop belongs to the component of any of its legs' vertices.

``brute_force_index_sum`` is the in-module oracle: it sums the product of
propagator index deltas over explicit Latin/Greek index assignments and
must reproduce i^{2k} N^C d^l.

``verify euler`` traces every census row with this module; the tests also
run it over every labeled pairing (``tests/unreduced.py``).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import InvariantViolation, ResourceLimitError, ValidationError

BRUTE_FORCE_ENUM_LIMIT = 400_000


@dataclass(frozen=True)
class Pairing:
    """Fixed-point-free involution on the 4k leg ids."""

    k: int
    match: tuple[int, ...]

    def __post_init__(self):
        n = 4 * self.k
        if len(self.match) != n:
            raise ValidationError(f"match must have length {n}")
        for i, j in enumerate(self.match):
            if not 0 <= j < n or j == i or self.match[j] != i:
                raise ValidationError("match is not a fixed-point-free involution")

    @classmethod
    def from_pairs(cls, k: int, pairs) -> "Pairing":
        match = [-1] * (4 * k)
        for x, y in pairs:
            if not (0 <= x < 4 * k and 0 <= y < 4 * k):
                raise ValidationError(f"leg id out of range in pair ({x},{y})")
            # __post_init__ rejects uncovered legs, but (0,1),(1,2),(3,0)
            # would close into an involution the pairs do not describe
            if match[x] != -1 or match[y] != -1:
                raise ValidationError(f"leg repeated in pair ({x},{y})")
            match[x] = y
            match[y] = x
        return cls(k, tuple(match))

    def pairs(self) -> list[tuple[int, int]]:
        """Sorted (min, max) pairs; canonical order for records."""
        return [(i, j) for i, j in enumerate(self.match) if i < j]


def _cycles(perm) -> list[int]:
    """One element of each cycle of the permutation ``perm`` of 0..n-1."""
    seen = [False] * len(perm)
    heads = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        heads.append(i)
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return heads


def trace_greek_loops(p: Pairing) -> int:
    """Number l of closed Greek loops (link components)."""
    # slotmate(leg) = leg xor 2 joins the two legs sharing a Greek slot;
    # composing with the matching doubles each undirected cycle.
    return len(_cycles([y ^ 2 for y in p.match])) // 2


@dataclass(frozen=True)
class LoopReport:
    """Loop counts, connectivity, and per-component genus of one pairing."""

    C: int
    l: int
    components: int
    genus_per_component: tuple[int, ...]


class _DSU:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[max(rx, ry)] = min(rx, ry)


def _vertex_components(k: int, pairs) -> list[list[int]]:
    dsu = _DSU(k)
    for x, y in pairs:
        dsu.union(x // 4, y // 4)
    groups: dict[int, list[int]] = {}
    for v in range(k):
        groups.setdefault(dsu.find(v), []).append(v)
    return [groups[r] for r in sorted(groups)]


def components_and_genus(p: Pairing) -> LoopReport:
    """Component count and per-component genus from Euler's relation.

    Raises if any component genus fails to be a non-negative integer;
    that would indicate a tracing bug, not bad input.
    """
    pairs = p.pairs()
    comps = _vertex_components(p.k, pairs)
    # Latin loops are the faces: the cycles of x -> rot(match[x]), where
    # rot steps to the next leg around the same vertex
    faces = _cycles([y - y % 4 + (y + 1) % 4 for y in p.match])
    C = len(faces)
    l = trace_greek_loops(p)
    vertex_root = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            vertex_root[v] = ci
    c_per = [0] * len(comps)
    for leg in faces:
        c_per[vertex_root[leg // 4]] += 1
    genus = []
    for ci, comp in enumerate(comps):
        two_p = 2 - c_per[ci] + len(comp)
        if two_p % 2 != 0 or two_p < 0:
            raise InvariantViolation(
                f"component genus not a non-negative integer: "
                f"C_c={c_per[ci]}, V_c={len(comp)}, pairing {pairs}")
        genus.append(two_p // 2)
    return LoopReport(C=C, l=l, components=len(comps),
                      genus_per_component=tuple(genus))


def brute_force_index_sum(p: Pairing, N: int, d: int,
                          strategy: str = "auto") -> complex:
    """Explicit index summation oracle; must equal i^{2k} N^C d^l.

    Latin variables: one per (vertex, position), the row index of that
    position; the col index of position q is the row variable of position
    q+1 mod 4 (cyclic trace).  Greek variables: one per vertex slot.  Each
    propagator contributes i times three deltas: slot(x)=slot(y),
    row(x)=col(y), col(x)=row(y).

    ``enumerate`` counts the Latin and the Greek assignments that satisfy
    the deltas, each set by looping over all of its assignments (the sets
    share no variable, so the counts multiply); ``propagate`` contracts the
    deltas into equivalence classes first (each free class contributes a
    factor N or d).  ``auto`` enumerates when the N^{4k} + d^{2k}
    assignments are few, else propagates; within the N, d, k <= 3 cap that
    is at most 532,170 assignments.
    """
    if strategy not in ("auto", "enumerate", "propagate"):
        raise ValidationError(f"unknown strategy {strategy!r}")
    if N > 3 or d > 3 or p.k > 3:
        raise ResourceLimitError("brute force limited to N<=3, d<=3, k<=3")
    k = p.k
    pairs = p.pairs()
    n_assign = N ** (4 * k) + d ** (2 * k)
    if strategy == "auto":
        strategy = "enumerate" if n_assign <= BRUTE_FORCE_ENUM_LIMIT else "propagate"

    def row_var(leg):
        return 4 * (leg // 4) + leg % 4

    def col_var(leg):
        return 4 * (leg // 4) + (leg % 4 + 1) % 4

    def slot_var(leg):
        return 2 * (leg // 4) + (leg % 4) % 2

    if strategy == "enumerate":
        lat_eq = [(row_var(x), col_var(y)) for x, y in pairs] + \
            [(col_var(x), row_var(y)) for x, y in pairs]
        grk_eq = [(slot_var(x), slot_var(y)) for x, y in pairs]
        count = 1
        for size, n_var, eqs in ((N, 4 * k, lat_eq), (d, 2 * k, grk_eq)):
            count *= sum(all(a[i] == a[j] for i, j in eqs)
                         for a in product(range(size), repeat=n_var))
    else:
        lat = _DSU(4 * k)
        grk = _DSU(2 * k)
        for x, y in pairs:
            lat.union(row_var(x), col_var(y))
            lat.union(col_var(x), row_var(y))
            grk.union(slot_var(x), slot_var(y))
        free_lat = len({lat.find(i) for i in range(4 * k)})
        free_grk = len({grk.find(i) for i in range(2 * k)})
        count = N ** free_lat * d ** free_grk
    return (1j) ** (2 * k) * count
