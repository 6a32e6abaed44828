"""Regularized weight, T-transform, propagators, Wick pairing sums."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triline import gaussian
from triline.errors import InvariantViolation, ValidationError
from triline.gaussian import (A, B, MatrixPair, free_partition,
                              iter_pair_partitions, propagator,
                              t_transform_limit, t_transform_reg,
                              u_bound_check, wick_moment, wick_order_quartic)
from triline.oracle import OracleCovariance, entry_positions, richardson_limit
from wick_reference import wick_order_quartic_per_monomial


def test_free_partition_closed_form():
    for N in (1, 2, 3):
        for d in (1, 2):
            assert free_partition(N, d) == pytest.approx(
                2.0 ** (d * N) * math.pi ** (d * N * N), rel=1e-14)


def test_reg_kernel_requires_positive_epsilon():
    fg = MatrixPair.zeros(1, 1)
    with pytest.raises(ValidationError):
        t_transform_reg(fg, 0.0)
    with pytest.raises(ValidationError):
        t_transform_reg(fg, -0.1)


def test_t_transform_zero_argument_matches_partition():
    N, d = 2, 2
    fg = MatrixPair.zeros(N, d)
    eps = 0.3
    val = t_transform_reg(fg, eps)
    want = 2.0 ** (d * N) * (math.pi / math.sqrt(eps * eps + 1.0)) ** (d * N * N)
    assert val == pytest.approx(want, rel=1e-12)
    assert t_transform_limit(fg) == pytest.approx(free_partition(N, d), rel=1e-12)


def test_t_transform_single_entry_exact():
    # F = diag(x, 0), G = 0 at N=2, d=1: T1 = x^2, T2 = 0
    N, d, x, eps = 2, 1, 0.7, 0.25
    F = np.zeros((1, 2, 2), dtype=complex)
    F[0, 0, 0] = x
    fg = MatrixPair(N, d, F, np.zeros_like(F))
    base = 2.0 ** (d * N) * (math.pi / math.sqrt(eps * eps + 1.0)) ** (d * N * N)
    want = base * np.exp(-(eps * x * x) / (2.0 * (eps * eps + 1.0)))
    assert t_transform_reg(fg, eps) == pytest.approx(want, rel=1e-12)
    # coupled F = G = diag(x, 0): T2 = x^2 produces the oscillatory factor
    fg2 = MatrixPair(N, d, F, F.copy())
    want2 = base * np.exp(-(eps * 2 * x * x + 2j * x * x) / (2 * (eps * eps + 1)))
    assert t_transform_reg(fg2, eps) == pytest.approx(want2, rel=1e-12)


def test_t_transform_oracle_cross_check():
    # d > 1 checks that vec F and the oracle's coordinates agree on mu's order
    eps = 0.2
    for N, d in ((2, 1), (3, 2)):
        fg = MatrixPair.random(N, d, seed=3)
        want = OracleCovariance(N, d).char_function(fg, eps)
        assert t_transform_reg(fg, eps) == pytest.approx(want, rel=1e-10)


def test_propagator_delta_pattern():
    # cross-family with matched mu and transposed indices: exactly i
    assert propagator(A(1, 1, 2), B(1, 2, 1)) == 1j
    assert propagator(B(2, 3, 1), A(2, 1, 3)) == 1j
    # any index mismatch kills it
    assert propagator(A(1, 1, 2), B(1, 1, 2)) == 0
    assert propagator(A(1, 1, 2), B(2, 2, 1)) == 0
    # same family never pairs
    assert propagator(A(1, 1, 2), A(1, 2, 1)) == 0
    assert propagator(B(1, 1, 1), B(1, 1, 1)) == 0


def test_pair_partition_counts():
    for m in (1, 2, 3, 4):
        want = math.factorial(2 * m) // (2 ** m * math.factorial(m))
        assert sum(1 for _ in iter_pair_partitions(2 * m)) == want


def test_pair_partitions_cover_all_elements():
    for parts in iter_pair_partitions(6):
        flat = sorted(x for pair in parts for x in pair)
        assert flat == list(range(6))


def test_wick_moment_degree_two_and_four():
    assert wick_moment([A(1, 1, 2), B(1, 2, 1)]) == 1j
    assert wick_moment([A(1, 1, 2)]) == 0
    # <A12 B21 A21 B12>: only the pairing (A12,B21)(A21,B12) survives, i * i
    val = wick_moment([A(1, 1, 2), B(1, 2, 1), A(1, 2, 1), B(1, 1, 2)])
    assert val == -1
    # odd family count vanishes identically
    assert wick_moment([A(1, 1, 1), A(1, 1, 1), B(1, 1, 1), A(1, 1, 1)]) == 0


def test_wick_moment_matches_oracle_spot():
    N, d = 2, 2
    entries = [A(1, 1, 2), B(1, 2, 1), A(2, 2, 2), B(2, 2, 2)]
    want = wick_moment(entries)
    pos = entry_positions([entries], N, d)
    orc = OracleCovariance(N, d)
    (got,) = richardson_limit(lambda e: orc.moments(pos, e))
    assert abs(got - complex(want)) < 1e-10


def test_wick_order_constants():
    for N, d in ((1, 1), (2, 1), (2, 2), (3, 2), (8, 4)):
        c1, c2 = wick_order_quartic(N, d)
        assert c1 == -4j * N
        assert c2 == -2 * d * N ** 3


def test_grouped_wick_order_equals_per_monomial_reference():
    for N in range(1, 5):
        for d in range(1, 4):
            assert wick_order_quartic(N, d) == \
                wick_order_quartic_per_monomial(N, d), (N, d)
    with pytest.raises(ValidationError):
        wick_order_quartic(0, 1)


# perturbed propagators; ``propagator`` here stays the module's original
def _same_family_pairs(x, y):
    # also pairs A with A: leaves B B terms after one contraction
    if x.family == y.family == "A":
        return 1j if gaussian._delta_pattern(x, y) else 0j
    return propagator(x, y)


def _row_two_heavier(x, y):
    # depends on an index value, so relabeling no longer permutes the
    # residue's terms: only off-diagonal ones get the doubled contractions
    return 2 * propagator(x, y) if x.k == 2 else propagator(x, y)


@pytest.mark.parametrize("wrong, message", [
    (_same_family_pairs, "unexpected self-contraction term"),
    (_row_two_heavier, "self-contraction residue is not uniform"),
    (lambda x, y: 0j, "self-contraction residue has missing terms"),
])
def test_wick_order_failures_name_their_point(monkeypatch, wrong, message):
    monkeypatch.setattr(gaussian, "propagator", wrong)
    with pytest.raises(InvariantViolation, match=f"{message}.* at N=3 d=2$"):
        wick_order_quartic(3, 2)


def test_u_bound_holds_and_detects_violation():
    fg = MatrixPair.random(2, 2, seed=11)
    zs = [0.5, 1j, -0.3 + 0.8j]
    assert u_bound_check(fg, zs) is True
    assert u_bound_check(fg, zs, inflate=1e12) is False
    # T1 reaches 510 at N = 8, d = 4: exp(2 |z|^2 T1) overflows a float
    for seed in (1, 2):
        assert u_bound_check(MatrixPair.random(8, 4, seed=seed), zs) is True


def test_u_bound_epsilon_cap():
    fg = MatrixPair.random(2, 1, seed=1)
    with pytest.raises(ValidationError):
        u_bound_check(fg, [1.0], eps=0.9)
    with pytest.raises(ValidationError):
        u_bound_check(fg, [1.0], eps=0.0)


def test_matrix_pair_validation():
    with pytest.raises(ValidationError):
        MatrixPair(2, 1, np.zeros((1, 2, 2)), np.zeros((1, 2, 3)))
    bad = np.zeros((1, 2, 2), dtype=complex)
    bad[0, 0, 1] = 1.0   # not Hermitian
    with pytest.raises(ValidationError):
        MatrixPair(2, 1, bad, np.zeros((1, 2, 2)))


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 10_000))
def test_random_pairs_always_hermitian(N, d, seed):
    fg = MatrixPair.random(N, d, seed=seed)
    assert np.allclose(fg.F, np.conj(np.swapaxes(fg.F, -1, -2)))
    assert np.allclose(fg.G, np.conj(np.swapaxes(fg.G, -1, -2)))


@settings(max_examples=40, deadline=None)
@given(st.permutations(range(4)))
def test_wick_moment_symmetric_under_reordering(perm):
    entries = [A(1, 1, 2), B(1, 2, 1), A(2, 1, 1), B(2, 1, 1)]
    shuffled = [entries[i] for i in perm]
    assert wick_moment(shuffled) == wick_moment(entries)
