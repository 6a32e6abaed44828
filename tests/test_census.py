"""Vectorized pairing census against the reference per-pairing fold."""
import math
from collections import Counter

import numpy as np
import pytest

from triline.census import (_census_rows, count_matchings, iter_matchings_batched,
                            pairing_census)
from triline.diagrams import (Pairing, components_and_genus, enumerate_matchings,
                              is_tadpole)
from triline.errors import ResourceLimitError


def reference_census(k):
    out = Counter()
    for p in enumerate_matchings(k, mode="ab_only"):
        rep = components_and_genus(p)
        out[(rep.C, rep.l, rep.components == 1, is_tadpole(p))] += 1
    return dict(out)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_census_equals_reference(k):
    assert pairing_census(k) == reference_census(k)


def test_census_equals_unreduced_fold_k5():
    # every one of the 10! labeled pairings traced with unit weight: the
    # representatives and their weights must give the same histogram
    unreduced = {}
    for match in iter_matchings_batched(5):
        ones = np.ones(match.shape[0], dtype=np.int64)
        for key, n in _census_rows(match, ones).items():
            unreduced[key] = unreduced.get(key, 0) + n
    assert pairing_census(5) == unreduced


def test_census_total_is_factorial():
    for k in (1, 2, 3, 4):
        assert sum(pairing_census(k).values()) == math.factorial(2 * k)


def test_parallel_census_bit_identical():
    assert pairing_census(3, threads=4) == pairing_census(3, threads=1)


@pytest.mark.parametrize("k, want", [(1, 2), (2, 18), (3, 432), (4, 18_144),
                                     (5, 1_119_744), (6, 92_378_880)])
def test_planar_count_equals_tutte(k, want):
    # connected genus-0 ab pairings are rooted planar 4-regular maps
    # (Tutte 1963) times k! 2^k labelings and half-turns over 2k roots
    tutte = (2 ** (k - 1) * math.factorial(k - 1) * 2 * 3 ** k
             * math.factorial(2 * k)
             // (math.factorial(k) * math.factorial(k + 2)))
    census = pairing_census(k, threads=2 if k >= 5 else 1)
    planar = sum(n for (C, _l, conn, _tad), n in census.items()
                 if conn and C == k + 2)
    assert planar == tutte == want


def test_census_cap():
    with pytest.raises(ResourceLimitError):
        pairing_census(8)


def test_batched_matchings_same_multiset_as_generator():
    for k in (1, 2, 3):
        gen = sorted(p.match for p in enumerate_matchings(k, mode="ab_only"))
        bat = sorted(tuple(int(x) for x in row)
                     for block in iter_matchings_batched(k, mode="ab_only")
                     for row in block)
        assert bat == gen
    for k in (1, 2):
        gen = sorted(p.match for p in enumerate_matchings(k, mode="all"))
        bat = sorted(tuple(int(x) for x in row)
                     for block in iter_matchings_batched(k, mode="all")
                     for row in block)
        assert bat == gen


def test_batched_rows_are_involutions():
    for block in iter_matchings_batched(2, mode="all"):
        for row in block:
            match = tuple(int(x) for x in row)
            assert all(match[match[i]] == i and match[i] != i
                       for i in range(len(match)))


def test_count_matchings_closed_forms():
    for k in (1, 2, 3, 4):
        assert count_matchings(k, mode="ab_only") == math.factorial(2 * k)
        assert count_matchings(k, mode="all") == math.factorial(4 * k) // (
            2 ** (2 * k) * math.factorial(2 * k))
