"""Pairing enumeration, triple-line loop tracing, genus, brute-force sums."""
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triline.diagrams import (LoopReport, Pairing, brute_force_index_sum,
                              components_and_genus, trace_greek_loops)
from triline.errors import ResourceLimitError, ValidationError
from unreduced import KMAX, enumerate_matchings, is_tadpole, leg_family

# census of (C, l, connected) triples over ab pairings, frozen from an
# independent implementation
CENSUS_AB = {
    1: {(3, 1, True): 2},
    2: {(2, 2, True): 2, (4, 1, True): 16, (4, 2, True): 2, (6, 2, False): 4},
    3: {(3, 1, True): 48, (3, 2, True): 96, (3, 3, True): 16,
        (5, 1, True): 336, (5, 2, True): 96, (5, 3, False): 12,
        (7, 2, False): 96, (7, 3, False): 12, (9, 3, False): 8},
}


def is_ab(p: Pairing) -> bool:
    """Every pair joins an A-leg and a B-leg."""
    return all(leg_family(i) != leg_family(j) for i, j in p.pairs())


def test_pairing_validation():
    with pytest.raises(ValidationError):
        Pairing(1, (1, 0, 2, 3))          # fixed points are not an involution
    with pytest.raises(ValidationError):
        Pairing(1, (0, 1, 2))             # wrong length
    p = Pairing.from_pairs(1, [(0, 3), (1, 2)])
    assert p.pairs() == [(0, 3), (1, 2)]
    assert is_ab(p)
    assert not is_ab(Pairing.from_pairs(1, [(0, 2), (1, 3)]))
    for bad in ([(0, 3), (1, -2)],           # negative leg id
                [(0, 1), (1, 2), (3, 0)],    # leg 1 repeated
                [(0, 3)]):                   # legs 1 and 2 uncovered
        with pytest.raises(ValidationError):
            Pairing.from_pairs(1, bad)


def test_enumeration_counts_exact():
    for k in (1, 2, 3):
        pairings = list(enumerate_matchings(k))
        assert len(pairings) == math.factorial(2 * k)
        assert all(map(is_ab, pairings))


def test_enumeration_is_lexicographic_and_duplicate_free():
    seen = [p.match for p in enumerate_matchings(2)]
    assert seen == sorted(set(seen))


def test_enumeration_cap():
    with pytest.raises(ValueError):
        next(enumerate_matchings(KMAX + 1))
    with pytest.raises(ValueError):
        next(enumerate_matchings(0))


def test_loop_tracing_census_matches_frozen():
    for k, want in CENSUS_AB.items():
        got = Counter()
        for p in enumerate_matchings(k):
            rep = components_and_genus(p)
            got[(rep.C, rep.l, rep.components == 1)] += 1
        assert dict(got) == want, k


def test_single_vertex_reports():
    p = Pairing.from_pairs(1, [(0, 1), (2, 3)])
    rep = components_and_genus(p)
    assert rep == LoopReport(C=3, l=1, components=1, genus_per_component=(0,))
    assert trace_greek_loops(p) == 1
    assert is_tadpole(p)


def test_nonplanar_component_appears_at_k2():
    # the fully crossing ladder has C = 2, l = 2: genus 1
    found = False
    for p in enumerate_matchings(2):
        rep = components_and_genus(p)
        if rep.genus_per_component == (1,):
            found = True
            assert (rep.C, rep.l, rep.components) == (2, 2, 1)
    assert found


def test_genus_parity_invariant():
    # per component: Latin loops + vertices is always even
    for k in (1, 2, 3):
        for p in enumerate_matchings(k):
            rep = components_and_genus(p)
            assert all(g >= 0 for g in rep.genus_per_component)


def test_brute_force_matches_loop_formula_exhaustive_k2():
    for k in (1, 2):
        for p in enumerate_matchings(k):
            rep = components_and_genus(p)
            for N in (1, 2):
                for d in (1, 2):
                    want = (1j) ** (2 * k) * N ** rep.C * d ** rep.l
                    got = brute_force_index_sum(p, N, d)
                    assert complex(got) == want, (p.match, N, d)


def test_brute_force_strategies_agree():
    # the second case sits at the N = d = k = 3 cap: 3^12 Latin plus 3^6
    # Greek assignments, counted apart
    for k, pairs, n in ((2, [(0, 5), (1, 4), (2, 7), (3, 6)], 2),
                        (3, [(0, 5), (1, 8), (2, 11), (3, 6), (4, 9),
                             (7, 10)], 3)):
        p = Pairing.from_pairs(k, pairs)
        a = brute_force_index_sum(p, n, n, strategy="enumerate")
        b = brute_force_index_sum(p, n, n, strategy="propagate")
        assert a == b


def test_brute_force_caps():
    p = Pairing.from_pairs(1, [(0, 1), (2, 3)])
    with pytest.raises(ResourceLimitError):
        brute_force_index_sum(p, 4, 1)
    with pytest.raises(ResourceLimitError):
        brute_force_index_sum(p, 1, 4)


def test_tadpole_census():
    # frozen independently: tadpole-free ab pairings per order
    for k, want_free in ((1, 0), (2, 4), (3, 80)):
        free = sum(1 for p in enumerate_matchings(k)
                   if not is_tadpole(p))
        assert free == want_free


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.randoms(use_true_random=False))
def test_loop_counts_stable_under_pair_relabeling(k, rnd):
    # the multiset of pairs determines the report, not their listed order
    pairs = None
    pool = list(enumerate_matchings(k))
    p = pool[rnd.randrange(len(pool))]
    pairs = list(p.pairs())
    rnd.shuffle(pairs)
    q = Pairing.from_pairs(k, pairs)
    assert components_and_genus(q) == components_and_genus(p)


def _random_ab_pairing(k, rnd):
    b_legs = [4 * v + q for v in range(k) for q in (1, 3)]
    rnd.shuffle(b_legs)
    a_legs = [4 * v + q for v in range(k) for q in (0, 2)]
    return Pairing.from_pairs(k, zip(a_legs, b_legs))


def _relabel_and_turn(p, perm, turns):
    # vertex v becomes perm[v]; a half-turn moves position q to q + 2,
    # which keeps the cyclic order A B A B
    def move(leg):
        v, q = divmod(leg, 4)
        return 4 * perm[v] + (q + 2 * turns[v]) % 4
    return Pairing.from_pairs(p.k, [(move(x), move(y)) for x, y in p.pairs()])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.randoms(use_true_random=False))
def test_census_key_invariant_under_relabeling_and_half_turns(k, rnd):
    # the symmetry-reduced census counts one pairing per class of these
    # moves; it is exact only because they leave (C, l, connected, tadpole)
    p = _random_ab_pairing(k, rnd)
    perm = list(range(k))
    rnd.shuffle(perm)
    q = _relabel_and_turn(p, perm, [rnd.randrange(2) for _ in range(k)])
    assert is_ab(q)
    rp, rq = components_and_genus(p), components_and_genus(q)
    assert (rq.C, rq.l, rq.components) == (rp.C, rp.l, rp.components)
    assert sorted(rq.genus_per_component) == sorted(rp.genus_per_component)
    assert is_tadpole(q) == is_tadpole(p)

