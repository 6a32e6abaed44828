"""Expansion with mixed vertex types validating the normal-ordered action.

The normal-ordered quartic expands back to the plain quartic plus a
quadratic counterterm c1 * sum_mu Tr(A_mu B_mu) and the constant c2 (both
derived in :mod:`triline.gaussian`).  Exponentiating that sum and expanding
to order g^k assigns one of three types to each of the k vertices:

    quartic   4 legs A B A B, two Greek slots, plain weight
    quadratic 2 legs A B, one Greek slot, weight c1 = -4i N
    constant  0 legs, weight c2 = -2 d N^3

Every vertex still carries c/N with c = i/2 (action) or c = i
(paper_series).  Tracing counts cycles of permutations of the flat legs
with the reference tracer's cycle counter, whatever the vertex arity: the
Latin loops are the cycles of rot∘matching (rot steps to the next leg
around the vertex), and the Greek loops are half the cycles of
slot-mate∘matching (the slot mate is the leg half-way round).  A constant
vertex has no legs and adds no cycle.  The resulting series must equal the
tadpole-free pure assembly order by order; this is a from-scratch check,
sharing no code with the census fold.

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

from .diagrams import _cycles
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


def _loops(types, legs, match) -> tuple[int, int]:
    """Latin and Greek loop counts (C, l) of one pairing of the flat legs."""
    partner = [0] * len(legs)
    for a, b in match:
        partner[a], partner[b] = b, a
    rot, mate = [], []
    for i, (v, q) in enumerate(legs):
        m = _ARITY[types[v]]      # 4 or 2: a constant vertex has no legs
        rot.append(i - q + (q + 1) % m)
        mate.append(i - q + (q + m // 2) % m)
    C = len(_cycles([rot[j] for j in partner]))
    c = len(_cycles([mate[j] for j in partner]))
    if c % 2:
        raise InvariantViolation(
            f"odd Greek cycle count {c}: types {types}, pairing {match}")
    return C, c // 2


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
                C, l = _loops(types, legs, match)
                out._accumulate((k, C + n_shift, l + d_shift), coeff)
    return out
