"""Frontier census and row walk against independent references."""
import functools
import math
from collections import Counter

import numpy as np
import pytest

from triline import census, knots
from triline.census import is_knot_shadow, pairing_census
from triline.diagrams import Pairing, components_and_genus
from triline.errors import InvariantViolation, ResourceLimitError
from triline.knots import GaussCode, reduce_R1
from triline.series import (CONVENTIONS, assemble_Z, census_table,
                            connected_assemble)
from row_census import _row_cycle_counts, census_rows, representatives, \
    row_census, tadpole_marginal, trace_rows
import row_census as rows
from unreduced import count_matchings, enumerate_matchings, is_tadpole, \
    iter_matchings_batched


@functools.lru_cache(maxsize=None)
def cached_row_census(k):
    """``row_census(k)``, folded once per order for the tests below."""
    return row_census(k)


def reference_census(k):
    out = Counter()
    for p in enumerate_matchings(k):
        rep = components_and_genus(p)
        out[(rep.C, rep.l, rep.components == 1, is_tadpole(p))] += 1
    return dict(out)


def reference_rows(k):
    """(bp, weight, (C, l, connected, tadpole)) per row of the numpy
    generator, keyed by its batched tracer; the walk's keys are the first
    three fields."""
    for bp, w, connected in representatives(k):
        C, l, tad = trace_rows(bp)
        yield from zip(map(tuple, bp.tolist()), w.tolist(),
                       zip(C.tolist(), l.tolist(), connected.tolist(),
                           tad.tolist()))


def leg_rows(bp: np.ndarray) -> np.ndarray:
    """Leg involution rows of ab rows: A-index i is leg 2i, B-index j 2j + 1."""
    match = np.empty((bp.shape[0], 2 * bp.shape[1]), dtype=np.int64)
    match[:, 0::2] = 2 * bp + 1
    match[:, 1::2] = 2 * np.argsort(bp, axis=1)
    return match


def _row_connected(vcol: np.ndarray, k: int) -> np.ndarray:
    """Connectivity per row; A-leg i on vertex i // 2 meets vertex vcol[:, i]."""
    rows, n2 = vcol.shape
    if k == 1:
        return np.ones(rows, dtype=bool)
    lab = np.broadcast_to(np.arange(k, dtype=vcol.dtype), (rows, k)).copy()
    ridx = np.arange(rows)
    while True:
        changed = False
        for i in range(n2):
            u = i // 2
            v = vcol[:, i]
            lu = lab[:, u]
            lv = lab[ridx, v]
            m = np.minimum(lu, lv)
            if (m < lu).any() or (m < lv).any():
                changed = True
            lab[:, u] = m
            lab[ridx, v] = m
        if not changed:
            break
    return (lab == 0).all(axis=1)


def cycle_count(perm):
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if not seen[i]:
            cycles += 1
            while not seen[i]:
                seen[i] = True
                i = perm[i]
    return cycles


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_census_equals_reference(k):
    assert pairing_census(k) == tadpole_marginal(reference_census(k))


@pytest.mark.parametrize("k", range(1, 8))
def test_frontier_equals_row_census(k):
    # the row census traces every representative row; it shares no code
    # with the frontier's transfer over open ends
    assert pairing_census(k) == tadpole_marginal(cached_row_census(k))


@pytest.mark.parametrize("k", range(1, 8))
def test_wick_ordered_equals_tadpole_free_rows(k):
    # the wick_ordered series comes from the standard census by the
    # counterterm substitution; here the standard assembly sums the traced
    # rows without a tadpole instead, sharing no code with the substitution
    free = {j: tadpole_marginal({key: n for key, n in
                                 cached_row_census(j).items() if not key[3]})
            for j in range(1, k + 1)}
    table = census_table(k)
    for convention in CONVENTIONS:
        for assemble in (assemble_Z, connected_assemble):
            assert assemble(table, convention, "wick_ordered") == \
                assemble(free, convention, "standard")


@pytest.mark.parametrize("k", range(1, 8))
def test_census_d_marginal_closed_form(k):
    # at N = 1 the census weighs each pairing by d^l: E|z^T z|^{2k} for a
    # complex Gaussian z in C^d is 2^k k! prod_{j<k} (d + 2j)
    got = pairing_census(k)
    for d in range(1, 6):
        want = 2 ** k * math.factorial(k) * math.prod(d + 2 * j for j in range(k))
        assert sum(n * d ** l for (_C, l, _conn), n in got.items()) == want


def test_census_equals_unreduced_fold_k5():
    # every one of the 10! labeled pairings traced with unit weight: the
    # representatives and their weights must give the same histogram
    unreduced = {}
    for bp in iter_matchings_batched(5):
        ones = np.ones(bp.shape[0], dtype=np.int64)
        conn = _row_connected(bp // 2, 5)
        for key, n in census_rows(bp, ones, conn).items():
            unreduced[key] = unreduced.get(key, 0) + n
    assert pairing_census(5) == tadpole_marginal(unreduced)


def test_census_total_is_factorial():
    for k in (1, 2, 3, 4):
        assert sum(pairing_census(k).values()) == math.factorial(2 * k)


def test_census_weight_check_raises(monkeypatch):
    # one frontier weight off by one: the total is no longer (2k)!
    frontier = census._frontier

    def corrupted(k):
        out = frontier(k)
        key = next(iter(out))
        out[key] += 1
        return out

    monkeypatch.setattr(census, "_frontier", corrupted)
    with pytest.raises(InvariantViolation):
        pairing_census(3)


def test_results_independent_of_row_chunk(monkeypatch):
    # batch boundaries move; the row census and the representative stream
    # (rows, weights, flags and their order) must not
    def stream(k):
        batches = list(representatives(k))
        return [np.concatenate(part) for part in zip(*batches)]

    default = {k: stream(k) for k in range(1, 6)}
    monkeypatch.setattr(rows, "_ROW_CHUNK", 7)
    for k in range(1, 7):
        assert tadpole_marginal(row_census(k)) == pairing_census(k)
    for k in range(1, 6):
        for got, want in zip(stream(k), default[k]):
            np.testing.assert_array_equal(got, want)


def test_representatives_count_and_weight():
    for k, want in zip(range(1, 6), (2, 14, 122, 1_238, 14_306)):
        batches = list(representatives(k))
        assert sum(w.size for _bp, w, _conn in batches) == want
        assert sum(int(w.sum()) for _bp, w, _conn in batches) == \
            math.factorial(2 * k)
        # the census's walk makes the same moves
        walk = [w for _bp, w, _key in census.representatives(k)]
        assert len(walk) == want and sum(walk) == math.factorial(2 * k)


@pytest.mark.parametrize("k", range(1, 6))
def test_walk_rows_equal_reference_rows(k):
    # row, weight and key of every row: the walk's keys come from the
    # frontier's moves, the reference's from the batched tracer
    assert Counter(census.representatives(k)) == Counter(
        (bp, w, key[:3]) for bp, w, key in reference_rows(k))


@pytest.mark.parametrize("k, want", zip(range(1, 7),
                                        (2, 8, 42, 260, 1_796, 13_396)))
def test_walk_shadows_equal_reference_shadows(k, want):
    # the knot export's prune: only connected single-loop rows survive
    ref = Counter(row for row in reference_rows(k)
                  if is_knot_shadow(k, *row[2][:3]))

    def walk_keys(rows):
        return Counter((bp, w, key[:3]) for bp, w, key in rows)

    planar = [row for row in census.representatives(k, shadows=True)
              if row[2][0] == k + 2]
    assert Counter(planar) == walk_keys(ref.elements())
    # wick_ordered keeps the kink-free codes: a row's walked code has a kink
    # exactly when the reference tracer finds a tadpole in it
    for bp, _w, key in ref:
        code = GaussCode(knots._strand_walk(bp))
        assert (reduce_R1(code) != code) == key[3]
    # a shadow is connected: its fresh moves weigh 2(k - t), t = 1..k-1
    assert len(planar) == want
    assert {w for _bp, w, _key in planar} == {
        2 ** (k - 1) * math.factorial(k - 1)}


def test_trace_rows_equal_reference_tracer():
    # all 15,682 representatives at k <= 5, row by row: the row census
    # folds trace_rows and the generator's flag alone
    for k in range(1, 6):
        for bp, _w, connected in representatives(k):
            C, l, tad = trace_rows(bp)
            got = zip(C.tolist(), l.tolist(), connected.tolist(), tad.tolist())
            for row, key in zip(leg_rows(bp).tolist(), got):
                p = Pairing(k, tuple(row))
                rep = components_and_genus(p)
                assert key == (rep.C, rep.l, rep.components == 1, is_tadpole(p))


@pytest.mark.parametrize("k", [6, 7])
def test_trace_rows_equal_reference_tracer_random_rows(k):
    # the census traces orders 6 and 7 too; 400 random ab rows each
    rng = np.random.default_rng(k)
    bp = np.array([rng.permutation(2 * k) for _ in range(400)], dtype=np.int8)
    C, l, tad = trace_rows(bp)
    got = zip(C.tolist(), l.tolist(), tad.tolist())
    for row, key in zip(leg_rows(bp).tolist(), got):
        p = Pairing(k, tuple(row))
        rep = components_and_genus(p)
        assert key == (rep.C, rep.l, is_tadpole(p))


def test_generator_openings_flag_is_connectivity():
    # one opening means every vertex was reached from vertex 0
    for k in range(1, 6):
        for bp, _w, connected in representatives(k):
            np.testing.assert_array_equal(connected, _row_connected(bp // 2, k))
        walk = list(census.representatives(k))
        bp = np.array([row for row, _w, _key in walk])
        np.testing.assert_array_equal([key[2] for _bp, _w, key in walk],
                                      _row_connected(bp // 2, k))


def test_row_cycle_counts_against_python():
    rng = np.random.default_rng(2024)
    # widths off powers of two check the ceil(log2 n) doubling rounds; the
    # 3,000 x 28 batch has flat indices beyond 2**16
    shapes = [(40, n) for n in (1, 2, 3, 5, 8, 20, 28)] + [(3_000, 28)]
    for rows, n in shapes:
        perm = rng.permuted(np.tile(np.arange(n, dtype=np.int32), (rows, 1)), axis=1)
        want = [cycle_count(row) for row in perm.tolist()]
        assert _row_cycle_counts(perm).tolist() == want


def test_greek_loops_on_a_indices():
    # tau(i) = pinv[bp[i] ^ 1] ^ 1 is (match ^ 2)^2 on the A-legs 2i: each
    # cycle of match ^ 2 alternates A- and B-legs and meets tau in one cycle
    rng = np.random.default_rng(7)
    random_k5 = leg_rows(np.array([rng.permutation(10) for _ in range(300)]))
    every_k3 = np.array([p.match for p in enumerate_matchings(3)])
    for match in (every_k3, random_k5):
        for row in match.tolist():
            slot = [x ^ 2 for x in row]
            tau = [slot[slot[2 * i]] // 2 for i in range(len(row) // 2)]
            assert cycle_count(tau) == cycle_count(slot)


@pytest.mark.parametrize("k, want", [(1, 2), (2, 18), (3, 432), (4, 18_144),
                                     (5, 1_119_744), (6, 92_378_880)])
def test_planar_count_equals_tutte(k, want):
    # connected genus-0 ab pairings are rooted planar 4-regular maps
    # (Tutte 1963) times k! 2^k labelings and half-turns over 2k roots
    tutte = (2 ** (k - 1) * math.factorial(k - 1) * 2 * 3 ** k
             * math.factorial(2 * k)
             // (math.factorial(k) * math.factorial(k + 2)))
    planar = sum(n for (C, _l, conn), n in pairing_census(k).items()
                 if conn and C == k + 2)
    assert planar == tutte == want


def test_census_cap():
    with pytest.raises(ResourceLimitError):
        pairing_census(8)


def test_batched_matchings_same_multiset_as_generator():
    for k in (1, 2, 3):
        # an ab pairing's row: A-leg 2i meets B-leg 2 bp[i] + 1
        gen = sorted(tuple(leg // 2 for leg in p.match[0::2])
                     for p in enumerate_matchings(k))
        bat = sorted(tuple(int(x) for x in row)
                     for block in iter_matchings_batched(k)
                     for row in block)
        assert bat == gen


def test_batched_rows_are_involutions():
    # row bp pairs A-leg 2i with B-leg 2 bp[i] + 1: an involution without
    # fixed points that never pairs two legs of one family
    for k in (1, 2, 3):
        for block in iter_matchings_batched(k):
            for row in block:
                match = [0] * (4 * k)
                for i, j in enumerate(row):
                    match[2 * i], match[2 * int(j) + 1] = 2 * int(j) + 1, 2 * i
                assert all(match[match[i]] == i and match[i] % 2 != i % 2
                           for i in range(len(match)))


def test_count_matchings_closed_forms():
    for k in (1, 2, 3, 4):
        assert count_matchings(k) == math.factorial(2 * k)
