"""Expansion with mixed vertex types validating the normal-ordered action.

The normal-ordered quartic expands back to the plain quartic plus a
quadratic counterterm c1 * sum_mu Tr(A_mu B_mu) and the constant c2 (both
derived in :mod:`triline.gaussian`).  Exponentiating that sum and expanding
to order g^k assigns one of three types to each of the k vertices:

    quartic   4 legs A B A B, two Greek slots, plain weight
    quadratic 2 legs A B, one Greek slot, weight c1 = -4i N
    constant  0 legs, weight c2 = -2 d N^3

Every vertex still carries c/N with c = i/2 (action) or c = i
(paper_series).  Tracing generalizes the pure-quartic walk: Latin ports go
around each vertex cyclically whatever its arity, Greek cycles pair the two
legs of each slot.  The resulting series must equal the tadpole-free pure
assembly order by order; this is a from-scratch check, sharing no code with
the census fold.

The phase is not assumed either.  Each term counts its quarter-turns from
its own factors: one i per vertex from c, one per propagator, and one per
quadratic vertex from c1.  A term i^q x (x real) joins the series, whose
coefficients are (-i)^k r, as r = i^(q+k) x; an odd q + k would make that
r imaginary and raises ``InvariantViolation``.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

from .errors import InvariantViolation, ResourceLimitError, ValidationError
from .series import TriSeries

MIXED_KMAX = 3

VERTEX_TYPES = ("quartic", "quadratic", "constant")
_ARITY = {"quartic": 4, "quadratic": 2, "constant": 0}

# exact counterterm coefficients before their N/d powers, as
# (quarter-turns, real factor): c1 = -4i (times N), c2 = -2 (times d N^3)
_C1 = (1, Fraction(-4))
_C2 = (0, Fraction(-2))
_COUPLING = {"action": Fraction(1, 2), "paper_series": Fraction(1)}   # c / i


def _legs(types: tuple[str, ...]):
    """Flat leg list [(vertex, position)], families alternating A B per vertex."""
    legs = []
    for v, t in enumerate(types):
        for q in range(_ARITY[t]):
            legs.append((v, q))
    return legs


def _ab_matchings(legs):
    """All pairings matching each A leg (even position) to a B leg."""
    a_idx = [i for i, (_, q) in enumerate(legs) if q % 2 == 0]
    b_idx = [i for i, (_, q) in enumerate(legs) if q % 2 == 1]
    if len(a_idx) != len(b_idx):
        raise ValidationError("unbalanced A/B legs")

    def rec(avail_b, pos):
        if pos == len(a_idx):
            yield []
            return
        for j, b in enumerate(avail_b):
            rest = avail_b[:j] + avail_b[j + 1:]
            for tail in rec(rest, pos + 1):
                yield [(a_idx[pos], b)] + tail

    yield from rec(b_idx, 0)


def _cycles(pairs_list) -> int:
    """Number of cycles of the permutation formed by composing matchings."""
    nxt = {}
    for a, b in pairs_list:
        nxt[a] = b
    seen = set()
    count = 0
    for start in nxt:
        if start in seen:
            continue
        count += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = nxt[cur]
    return count


def _latin_cycles(types, legs, match) -> int:
    """Index loops: propagator crosses row/col, vertex walks ports cyclically."""
    # ports: (leg, "row") and (leg, "col")
    prop = {}
    for a, b in match:
        prop[(a, "row")] = (b, "col")
        prop[(b, "col")] = (a, "row")
        prop[(b, "row")] = (a, "col")
        prop[(a, "col")] = (b, "row")
    vert = {}
    base = 0
    for v, t in enumerate(types):
        m = _ARITY[t]
        for q in range(m):
            this = base + q
            nxt = base + (q + 1) % m
            vert[(this, "col")] = (nxt, "row")
            vert[(nxt, "row")] = (this, "col")
        base += m
    count = 0
    seen = set()
    for start in prop:
        if start in seen:
            continue
        count += 1
        cur = start
        while cur not in seen:
            seen.add(cur)
            cur = vert[prop[cur]]
    # each index loop is traversed once from a row port and once from a col port
    if count % 2:
        raise InvariantViolation(
            f"odd Latin port-cycle count {count}: types {types}, "
            f"pairing {match}")
    return count // 2


def _greek_cycles(types, legs, match) -> int:
    """Family-index loops: slot-mate within a vertex composed with the pairing."""
    slotmate = {}
    base = 0
    for v, t in enumerate(types):
        m = _ARITY[t]
        if m == 4:
            slotmate[base + 0] = base + 2
            slotmate[base + 2] = base + 0
            slotmate[base + 1] = base + 3
            slotmate[base + 3] = base + 1
        elif m == 2:
            slotmate[base + 0] = base + 1
            slotmate[base + 1] = base + 0
        base += m
    pairing = {}
    for a, b in match:
        pairing[a] = b
        pairing[b] = a
    walk = [(i, slotmate[pairing[i]]) for i in pairing]
    c = _cycles(walk)
    if c % 2:
        raise InvariantViolation(
            f"odd Greek cycle count {c}: types {types}, pairing {match}")
    return c // 2


def counterterm_series(kmax: int, convention: str = "action") -> TriSeries:
    """Z-series of the normal-ordered action, via mixed vertex types.

    Independent of the census path; used to confirm that the counterterms
    cancel tadpoles exactly.
    """
    if convention not in _COUPLING:
        raise ValidationError(f"unknown convention {convention!r}")
    if kmax > MIXED_KMAX:
        raise ResourceLimitError(f"mixed assembly limited to k <= {MIXED_KMAX}")
    out = TriSeries.one(kmax)
    for k in range(1, kmax + 1):
        for types in product(VERTEX_TYPES, repeat=k):
            legs = _legs(types)
            nq, nc = types.count("quadratic"), types.count("constant")
            # i^turns * real: c/N per vertex (over k!), i per propagator,
            # c1 per quadratic vertex, c2 per constant vertex
            turns = k + len(legs) // 2 + nq * _C1[0] + nc * _C2[0]
            real = (_COUPLING[convention] ** k / math.factorial(k)
                    * _C1[1] ** nq * _C2[1] ** nc)
            if (turns + k) % 2:
                raise InvariantViolation(
                    f"order-{k} term of vertex types {types} has phase "
                    f"i^{turns}, not (-i)^{k} times a real number")
            coeff = real * (-1) ** ((turns + k) // 2)
            # N-powers: +1 per quadratic c1, +3 per constant c2; d: +1 per c2
            n_shift = nq + 3 * nc - k
            d_shift = nc
            for match in _ab_matchings(legs):
                C = _latin_cycles(types, legs, match) if legs else 0
                l = _greek_cycles(types, legs, match) if legs else 0
                out._accumulate((k, C + n_shift, l + d_shift), coeff)
    return out
