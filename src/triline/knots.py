"""Gauss codes of planar single-loop diagrams and their reductions.

A connected genus-0 pairing with a single Greek loop is a knot shadow: the
Greek strand passes straight through each vertex (position q to q+2 mod 4),
and each vertex becomes a crossing.  Walking the strand and recording at
each arrival whether it rides an A-position (over) or a B-position (under)
yields an alternating Gauss code of length 2k.  Codes are canonicalized by
the lexicographically least rotation with crossings relabeled in order of
first appearance; mirror/reversal identification is deliberately not
applied.  A same-vertex contraction shows up as a kink, removable by the
first Reidemeister move; ``reduce_R1`` deletes kinks to a fixed point.

The export walks one representative row per class
(``census.representatives``): a shadow is connected, so its class fixes
vertex 0 and its orientation, and relabeling or half-turning the other
vertices leaves its canonical code unchanged.  The walk stops at a second
opening and at a Greek loop closed early, so it yields only connected
single-loop rows, and the export keeps those of genus 0 and walks their
strands.  The reference the export is tested against, a walk over the legs
of every labeled pairing checked by the tracer in ``diagrams``, lives with
the tests (``tests/unreduced.py``).  A code's multiplicity sums its class
weights; ``knots`` writes it that often.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import re

from .census import representatives
from .errors import ResourceLimitError, StructureError, ValidationError
from .series import SERIES_ACTIONS, _vertex_prefactor, coeff_json

OVER = "O"
UNDER = "U"

_CODE_TOKEN = re.compile(r"([OU])(\d+)")


@dataclass(frozen=True)
class GaussCode:
    """Sequence of (crossing id, passage); ids appear twice, once each way."""

    entries: tuple[tuple[int, str], ...] = ()

    def __post_init__(self):
        seen: dict[int, str] = {}     # crossing id -> its passages in order
        for cid, passage in self.entries:
            if passage not in (OVER, UNDER) or cid < 1:
                raise ValidationError(f"bad code entry ({cid}, {passage})")
            seen[cid] = seen.get(cid, "") + passage
        for cid, passages in seen.items():
            if passages not in (OVER + UNDER, UNDER + OVER):
                raise ValidationError(
                    f"crossing {cid} must appear exactly once over and once under")

    def __len__(self) -> int:
        return len(self.entries)

    def crossings(self) -> int:
        return len(self.entries) // 2

    def serialize(self) -> str:
        return "".join(f"{p}{cid}" for cid, p in self.entries)

    @classmethod
    def parse(cls, text: str) -> "GaussCode":
        pos = 0
        entries = []
        for m in _CODE_TOKEN.finditer(text):
            if m.start() != pos:
                raise ValidationError(f"cannot parse code {text!r}")
            entries.append((int(m.group(2)), m.group(1)))
            pos = m.end()
        if pos != len(text):
            raise ValidationError(f"cannot parse code {text!r}")
        return cls(tuple(entries))

    def __str__(self) -> str:
        return self.serialize()


def _strand_walk(bp) -> tuple[tuple[int, str], ...]:
    """Gauss code entries of an ab row known to be a knot shadow: from
    A-index a over crossing a // 2 + 1 to B-index b = bp[a] ^ 1, under
    crossing b // 2 + 1, on to A-index pinv[b] ^ 1."""
    pinv = sorted(range(len(bp)), key=bp.__getitem__)
    entries, a = [], 0
    for _ in range(len(bp) // 2):
        b = bp[a] ^ 1
        entries += ((a // 2 + 1, OVER), (b // 2 + 1, UNDER))
        a = pinv[b] ^ 1
    if a != 0:
        raise StructureError("strand walk failed to close after 2k steps")
    return tuple(entries)


def reduce_R1(c: GaussCode) -> GaussCode:
    """Delete cyclically adjacent same-crossing passages until none remain."""
    entries = list(c.entries)
    while True:
        n = len(entries)
        hit = next((i for i in range(n)
                    if n and entries[i][0] == entries[(i + 1) % n][0]), None)
        if hit is None:
            return GaussCode(tuple(entries))
        j = (hit + 1) % n
        for idx in sorted((hit, j), reverse=True):
            del entries[idx]


def canonical_code(c: GaussCode) -> GaussCode:
    """Lex-least rotation with ids relabeled by first appearance, O < U."""
    if not c.entries:
        return c

    def relabeled(r: int) -> tuple[tuple[int, str], ...]:
        relab: dict[int, int] = {}
        return tuple((relab.setdefault(cid, len(relab) + 1), p)
                     for cid, p in c.entries[r:] + c.entries[:r])
    return GaussCode(min(relabeled(r) for r in range(len(c.entries))))


TREFOIL = GaussCode.parse("O1U2O3U1O2U3")
KNOTS_KMAX = 5    # one line per labeled pairing: k = 6 would be 51,440,640


def enumerate_knot_diagrams(k: int, convention: str = "action",
                            action: str = "standard"):
    """Canonical codes of order-k knot shadows with their multiplicities.

    Each connected planar single-Greek-loop pairing contributes the order-k
    vertex prefactor; multiplicity times coefficient, summed over the list,
    is the h^k term of F_{1,0} (h = -ig).  ``wick_ordered`` drops tadpole
    pairings.  Returns a list of (GaussCode, multiplicity, Fraction).
    """
    if action not in SERIES_ACTIONS:
        raise ValidationError(f"unknown action {action!r}")
    if not 0 <= k <= KNOTS_KMAX:
        raise ResourceLimitError(f"knot export k={k} outside 0..{KNOTS_KMAX}")
    if k == 0:
        return []
    counts: dict[GaussCode, int] = {}
    canonical: dict[tuple, GaussCode] = {}    # walked entries -> canonical code
    for bp, weight, (C, _l, _conn) in representatives(
            k, shadows=True, tadpoles=action != "wick_ordered"):
        if C != k + 2:                        # genus 0
            continue
        walked = _strand_walk(bp)
        code = canonical.get(walked)
        if code is None:
            code = canonical[walked] = canonical_code(GaussCode(walked))
        counts[code] = counts.get(code, 0) + weight
    pref = _vertex_prefactor(k, convention)
    return [(code, mult, pref) for code, mult in counts.items()]


def knot_record(k: int, code: GaussCode, coeff: Fraction) -> dict:
    """One JSON line of the export; the g^k coefficient as exact fractions."""
    return {
        "k": k,
        "code": code.serialize(),
        **coeff_json(k, coeff),
        "reduced_code": canonical_code(reduce_R1(code)).serialize(),
    }
