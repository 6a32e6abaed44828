"""Gauss-code export, canonicalization, kink reduction."""
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triline import diagrams
from triline.census import pairing_census
from triline.diagrams import Pairing, components_and_genus
from triline.errors import ResourceLimitError, StructureError, ValidationError
from triline.knots import (GaussCode, KNOTS_KMAX, TREFOIL, canonical_code,
                           enumerate_knot_diagrams, knot_record, reduce_R1)
from triline.series import (census_table, coeff_json, connected_assemble,
                            extract_Flp)
from unreduced import alternating_check, enumerate_matchings, is_tadpole, \
    to_gauss_code

# canonical code multisets per order, frozen from an independent walk
FROZEN_CODES = {
    1: {"O1U1": 2},
    2: {"O1U1O2U2": 8, "O1U2O2U1": 8},
    3: {"O1U1O2U2O3U3": 64, "O1U1O2U3O3U2": 192,
        "O1U2O2U3O3U1": 64, "O1U2O3U1O2U3": 16},
}


def test_code_parse_serialize_roundtrip():
    c = GaussCode.parse("O1U2O3U1O2U3")
    assert c.serialize() == "O1U2O3U1O2U3"
    assert c.crossings() == 3
    assert GaussCode.parse("").entries == ()


def test_code_validation():
    with pytest.raises(ValidationError):
        GaussCode.parse("O1U2")           # ids must appear twice
    with pytest.raises(ValidationError):
        GaussCode(((1, "O"), (1, "O")))   # once over, once under
    with pytest.raises(ValidationError):
        GaussCode.parse("O1x")


def test_single_vertex_codes():
    assert to_gauss_code(Pairing.from_pairs(1, [(0, 1), (2, 3)])).serialize() == "O1U1"
    assert to_gauss_code(Pairing.from_pairs(1, [(0, 3), (1, 2)])).serialize() == "O1U1"


def test_walk_refuses_multi_loop_and_disconnected():
    refused = 0
    for p in enumerate_matchings(2):
        rep = components_and_genus(p)
        if rep.l != 1 or rep.components != 1 or rep.C != 4:
            with pytest.raises(StructureError):
                to_gauss_code(p)
            refused += 1
    assert refused > 0


def test_alternating_check():
    assert alternating_check(GaussCode.parse("O1U1"))
    assert alternating_check(GaussCode.parse("O1U2O3U1O2U3"))
    assert not alternating_check(GaussCode.parse("O1O2U1U2"))
    assert alternating_check(GaussCode())


def test_reduce_r1():
    assert reduce_R1(GaussCode.parse("O1U1")).serialize() == ""
    assert reduce_R1(GaussCode.parse("O1O2U2U1")).serialize() == ""
    assert reduce_R1(TREFOIL) == TREFOIL


def test_canonical_code_rotation_invariance():
    base = GaussCode.parse("O1U2O3U1O2U3")
    n = len(base.entries)
    for r in range(n):
        rot = GaussCode(base.entries[r:] + base.entries[:r])
        assert canonical_code(rot) == canonical_code(base)


def multiplicities(k, action="standard"):
    return {c.serialize(): m
            for c, m, _ in enumerate_knot_diagrams(k, action=action)}


def per_pairing_codes(k):
    """Reference fold: every labeled pairing walked, per action."""
    std, wo = Counter(), Counter()
    for p in enumerate_matchings(k):
        rep = components_and_genus(p)
        if rep.components != 1 or rep.l != 1 or rep.C != k + 2:
            continue
        code = canonical_code(to_gauss_code(p)).serialize()
        std[code] += 1
        if not is_tadpole(p):
            wo[code] += 1
    return dict(std), dict(wo)


def test_enumerated_codes_frozen():
    for k, want in FROZEN_CODES.items():
        assert multiplicities(k) == want


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_multiplicities_equal_per_pairing_fold(k):
    std, wo = per_pairing_codes(k)
    assert multiplicities(k) == std
    assert multiplicities(k, "wick_ordered") == wo


def test_export_never_calls_reference_tracer(monkeypatch):
    want = {(k, action): multiplicities(k, action)
            for k in range(1, 5) for action in ("standard", "wick_ordered")}

    def refuse(*args, **kwargs):
        raise AssertionError("reference tracer called by the knot export")

    # knots never loads diagrams (tests/test_package.py), so patch the tracer
    # where it lives
    for name in ("Pairing", "components_and_genus"):
        monkeypatch.setattr(diagrams, name, refuse)
    for (k, action), codes in want.items():
        assert multiplicities(k, action) == codes


def test_coefficients_sum_to_f10():
    table = extract_Flp(connected_assemble(census_table(5)))
    for k in range(1, 6):
        total = sum(mult * coeff for _, mult, coeff in enumerate_knot_diagrams(k))
        assert coeff_json(k, total) == coeff_json(k, table[(1, 0)][k])


def test_knots_cap_at_its_bound():
    # k = 5 is the last order exported: one line per labeled knot shadow,
    # as many as the census's connected single-loop planar pairings
    shadows = sum(n for (C, l, conn), n in pairing_census(5).items()
                  if conn and l == 1 and C == 5 + 2)
    lines = sum(m for _, m, _ in enumerate_knot_diagrams(KNOTS_KMAX))
    assert KNOTS_KMAX == 5 and lines == shadows == 689_664
    with pytest.raises(ResourceLimitError):
        enumerate_knot_diagrams(KNOTS_KMAX + 1)


def test_k1_exports_reduce_to_empty():
    for code, _, _ in enumerate_knot_diagrams(1):
        assert reduce_R1(code).serialize() == ""


def test_trefoil_present_and_r1_fixed_at_k3():
    fixed = [c for c, _, _ in enumerate_knot_diagrams(3)
             if reduce_R1(c) == c and c.crossings() == 3]
    assert fixed and all(c == TREFOIL for c in fixed)
    assert all(alternating_check(c) for c in fixed)


def test_tadpole_pairings_produce_kinks():
    # and only they: the wick_ordered export keeps the kink-free codes
    for k in (1, 2, 3):
        for p in enumerate_matchings(k):
            rep = components_and_genus(p)
            if rep.components != 1 or rep.l != 1 or rep.C != k + 2:
                continue
            code = to_gauss_code(p)
            assert (len(reduce_R1(code)) < len(code)) == is_tadpole(p)


def test_wick_ordered_export_is_tadpole_free_subset():
    std = multiplicities(3)
    wo = multiplicities(3, "wick_ordered")
    assert set(wo) <= set(std)
    assert wo == {"O1U2O3U1O2U3": 16}


def test_symmetric_action_refused():
    with pytest.raises(ValidationError):
        enumerate_knot_diagrams(2, action="symmetric")


def test_k0_empty():
    assert enumerate_knot_diagrams(0) == []


def test_knot_record_schema():
    code = GaussCode.parse("O1U1")
    rec = knot_record(1, code, Fraction(1))
    assert rec == {"k": 1, "code": "O1U1", "re_num": 0, "re_den": 1,
                   "im_num": -1, "im_den": 1, "reduced_code": ""}


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.randoms(use_true_random=False))
def test_reduce_r1_confluent_under_random_deletion_order(k, rnd):
    pool = [c for c, _, _ in enumerate_knot_diagrams(k)]
    code = pool[rnd.randrange(len(pool))]
    entries = list(code.entries)
    # random-order kink deletion must land on the same fixed point
    while True:
        n = len(entries)
        hits = [i for i in range(n) if n and entries[i][0] == entries[(i + 1) % n][0]]
        if not hits:
            break
        i = hits[rnd.randrange(len(hits))]
        j = (i + 1) % n
        for idx in sorted((i, j), reverse=True):
            del entries[idx]
    assert canonical_code(GaussCode(tuple(entries))) == \
        canonical_code(reduce_R1(code))
