"""Finite-dimensional Gaussian oracle and epsilon extrapolation."""
import math

import numpy as np
import pytest

from triline.errors import InvariantViolation, ValidationError
from triline.gaussian import A, B, MatrixPair, entry_pool, free_partition
from triline.oracle import (OracleCovariance, _coordinates, block_inverse,
                            entry_positions, quartic_positions,
                            richardson_limit)
from wick_reference import quartic_monomials


def test_normalization_extrapolates_to_free_partition():
    for N in (1, 2):
        for d in (1, 2):
            val = richardson_limit(OracleCovariance(N, d).normalization)
            want = free_partition(N, d)
            assert abs(val - want) / want < 1e-9


def test_coupling_inverse_residual_guard():
    orc = OracleCovariance(3, 2)
    n = 2 * len(orc.k0)
    residual = np.max(np.abs(orc.coupling(0.05) @ orc.inverse(0.05)
                             - np.eye(n)))
    assert residual < 1e-10


def _dense_reference(N, d, eps):
    """Dense coupling M, entry expansion C and Sigma = inv(M), built directly."""
    # coordinates per family and mu: diagonal entries, then Re and Im of
    # each above-diagonal entry; entry (f, mu, k, l) in entry_positions order
    coords = [(f, mu, kind, k, l) for f in (0, 1) for mu in range(d)
              for kind, k, l in [("diag", k, k) for k in range(N)]
              + [(kind, k, l) for k in range(N) for l in range(k + 1, N)
                 for kind in ("re", "im")]]
    n = len(coords)
    scale = [1.0 if kind == "diag" else 2.0 for _, _, kind, _, _ in coords]
    # i Tr(A B) pairs each A coordinate with its B twin
    M = np.kron(eps * np.eye(2) - 1j * np.array([[0, 1], [1, 0]]),
                np.diag(scale[:n // 2]))

    def pos(f, mu, k, l):
        return ((f * d + mu) * N + k) * N + l

    C = np.zeros((n, n), dtype=complex)
    for i, (f, mu, kind, k, l) in enumerate(coords):
        if kind == "diag":
            C[pos(f, mu, k, k), i] = 1.0
        elif kind == "re":
            C[pos(f, mu, k, l), i] = C[pos(f, mu, l, k), i] = 1.0
        else:
            C[pos(f, mu, k, l), i], C[pos(f, mu, l, k), i] = 1.0j, -1.0j
    return M, C, np.linalg.inv(M)


def test_coordinates_expand_hermitian_matrices():
    for N in (1, 2, 3):
        for d in (1, 2):
            C, s = _coordinates(N, d)
            assert C.shape == (d * N * N, d * N * N)
            assert np.array_equal(C.conj().T @ C, np.diag(s))
            F = MatrixPair.random(N, d, seed=N + d).F.reshape(-1)
            y = C.conj().T @ F
            assert np.max(np.abs(y.imag)) <= 1e-12
            assert np.allclose((C / s) @ y, F, rtol=0, atol=1e-12)


def test_block_covariance_equals_dense_reference():
    for N in (1, 2, 3):
        for d in (1, 2):
            orc = OracleCovariance(N, d)
            n = 2 * d * N * N
            every_pair = np.indices((n, n)).reshape(2, -1).T
            for eps in (0.3, 1e-2, 1e-5):
                M, C, sigma = _dense_reference(N, d, eps)
                want = C @ sigma @ C.T
                cov = orc.moments(every_pair, eps).reshape(n, n)
                assert np.max(np.abs(cov - want)) <= \
                    1e-12 * np.max(np.abs(want))
                sign, logabs = np.linalg.slogdet(M)
                norm = ((2 * math.pi) ** (len(M) / 2)
                        / (np.exp(0.5 * logabs) * np.sqrt(sign)))
                assert orc.normalization(eps) == pytest.approx(norm, rel=1e-12)


def test_oracle_keeps_only_the_covariance():
    # the oracle holds the eps-free K0 and s; coupling, inverse and the
    # covariance at an eps are built on demand, never stored
    for N, d in ((1, 1), (3, 2), (4, 3)):
        orc = OracleCovariance(N, d)
        h = d * N * N
        assert orc.k0.shape == (h, h)
        held = sum(v.nbytes for v in vars(orc).values()
                   if isinstance(v, np.ndarray))
        assert held <= orc.k0.nbytes + 64 * h + 256


def test_entry_covariance_finite_epsilon_values():
    # at finite eps the same-family transposed pair is eps/(1+eps^2), not 0
    x = A(1, 1, 2)
    val, same, cross = OracleCovariance(2, 1).moments(entry_positions(
        [(x, A(1, 2, 1)), (x, x), (x, B(1, 2, 1))], 2, 1), 0.3)
    assert val == pytest.approx(0.3 / 1.09, rel=1e-10)
    # the non-transposed same-family pair vanishes at every eps
    assert abs(same) < 1e-14
    # cross-family transposed pair tends to i
    assert cross == pytest.approx(1j / 1.09, rel=1e-10)


def test_propagator_limits():
    # eps -> 0: AB -> i, AA -> 0
    pos = entry_positions([(A(1, 1, 2), B(1, 2, 1)), (A(1, 1, 2), A(1, 2, 1))],
                          2, 1)
    orc = OracleCovariance(2, 1)
    cross, same = richardson_limit(lambda e: orc.moments(pos, e))
    assert abs(cross - 1j) < 1e-10
    assert abs(same) < 1e-10


def test_moment_odd_degree_zero():
    orc = OracleCovariance(1, 1)
    assert orc.moments(entry_positions([[A(1, 1, 1)]], 1, 1), 0.2).tolist() \
        == [0]


def test_char_function_against_quadrature():
    # N = d = 1: coordinates (a, b), weight exp(-eps(a^2+b^2)/2 + i a b);
    # char function at F = f, G = g has the closed form
    # 2 pi / sqrt(eps^2 + 1) * exp(-(eps(f^2+g^2) + 2 i f g) / (2 (eps^2+1)))
    eps, f, g = 0.4, 0.6, -0.3
    orc = OracleCovariance(1, 1)
    F = np.array([[[f]]], dtype=complex)
    G = np.array([[[g]]], dtype=complex)
    got = orc.char_function(MatrixPair(1, 1, F, G), eps)
    want = (2 * math.pi / math.sqrt(eps ** 2 + 1)
            * np.exp(-(eps * (f * f + g * g) + 2j * f * g) / (2 * (eps ** 2 + 1))))
    assert got == pytest.approx(want, rel=1e-12)


def test_oracle_validates_inputs():
    with pytest.raises(ValidationError):
        OracleCovariance(0, 1)
    for eps in (-0.5, 0.0):
        with pytest.raises(ValidationError):
            block_inverse(eps)
        with pytest.raises(ValidationError):     # odd degree too
            OracleCovariance(2, 1).moments([[0, 1], [1, 2]], eps)
        with pytest.raises(ValidationError):
            OracleCovariance(2, 1).moments([[0]], eps)
    with pytest.raises(ValidationError):
        entry_positions([[A(1, 1, 3)]], 2, 1)


def test_richardson_exact_polynomial():
    # f(e) = 3 - 2 e + 5 e^2 extrapolates exactly from 3 points
    got = richardson_limit(lambda e: 3 - 2 * e + 5 * e * e)
    assert got == pytest.approx(3.0, abs=1e-12)


def test_richardson_raises_when_the_tableau_does_not_settle():
    # log(eps) has no limit at eps = 0: no polynomial in eps fits it
    with pytest.raises(InvariantViolation):
        richardson_limit(lambda e: math.log(e))


def test_richardson_relative_tolerance_for_large_values():
    scale = 5.7e10
    got = richardson_limit(lambda e: scale * (1 + e))
    assert got == pytest.approx(scale, rel=1e-9)


def test_entry_positions_follow_pool_order_and_check_bounds():
    pool = entry_pool(2, 2)
    assert entry_positions(pool, 2, 2).tolist() == list(range(len(pool)))
    assert entry_positions([pool[:2], pool[2:4]], 2, 2).shape == (2, 2)
    with pytest.raises(ValidationError):
        entry_positions([A(3, 1, 1)], 2, 2)
    orc = OracleCovariance(2, 2)
    with pytest.raises(ValidationError):
        orc.moments(np.array([[0, len(pool)]]), 0.1)
    with pytest.raises(ValidationError):
        orc.moments(np.array([[-1, 0]]), 0.1)


def test_moments_batch_equals_per_product_rows():
    N, d = 2, 2
    pool = entry_pool(N, d)
    orc, eps = OracleCovariance(N, d), 0.07
    rng = np.random.default_rng(5)
    for deg in (0, 2, 4, 6):
        pos = rng.integers(0, len(pool), size=(40, deg))
        batch = orc.moments(pos, eps)
        rows = [orc.moments(row[None], eps)[0] for row in pos]
        assert np.allclose(batch, rows, rtol=0, atol=1e-13)
        # a moment is symmetric in its factors
        shuffled = rng.permuted(pos, axis=1)
        assert np.allclose(orc.moments(shuffled, eps), batch, rtol=0, atol=1e-13)
    for deg in (1, 3, 5):
        pos = rng.integers(0, len(pool), size=(10, deg))
        assert not orc.moments(pos, eps).any()


def test_moment_of_four_is_the_three_pairings():
    orc = OracleCovariance(2, 1)
    x, y, z, w = entry_positions([A(1, 1, 2), B(1, 2, 1), A(1, 2, 1),
                                  B(1, 1, 2)], 2, 1)
    c = np.kron(block_inverse(0.2), orc.k0)
    want = c[x, y] * c[z, w] + c[x, z] * c[y, w] + c[x, w] * c[y, z]
    assert orc.moments([[x, y, z, w]], 0.2)[0] == pytest.approx(want, abs=1e-14)


def test_richardson_array_matches_scalar_calls():
    coeffs = np.array([[1.0, -2.0, 0.5], [3e4, 1.0, -7.0], [1e-3, 4.0, 2.0j]])

    def f(e):
        return coeffs[:, 0] + coeffs[:, 1] * e + coeffs[:, 2] * np.sin(e)

    got = richardson_limit(f)
    assert got.shape == (3,)
    for i in range(3):
        one = richardson_limit(lambda e: f(e)[i])
        assert type(one) is complex
        assert abs(got[i] - one) <= 1e-12 * max(1.0, abs(one))


def test_richardson_on_the_entry_covariance_matrix():
    # extrapolating the 2 x 2 block and spreading it over K0 gives, bit for
    # bit, the extrapolation of the whole per-eps covariance kron(B^-1, K0)
    block = richardson_limit(block_inverse)
    for N in (1, 2, 3):
        for d in (1, 2):
            orc = OracleCovariance(N, d)
            n = len(entry_pool(N, d))
            dense = richardson_limit(
                lambda e: np.kron(block_inverse(e), orc.k0))
            rows = np.array([orc.covariance_row(block, i) for i in range(n)])
            assert np.array_equal(rows, dense)
    N, d = 2, 1
    orc = OracleCovariance(N, d)
    for i in range(len(entry_pool(N, d))):
        row = orc.covariance_row(block, i)
        for j in range(len(row)):
            one = richardson_limit(lambda e: orc.moments([[i, j]], e)[0])
            assert abs(row[j] - one) < 1e-12


def test_k0_entries_are_zero_or_one():
    # so spreading the limit block over K0 rounds nothing: the limit rows
    # equal the entrywise limit of the whole covariance
    for N in range(1, 9):
        for d in range(1, 5):
            k0 = OracleCovariance(N, d).k0
            assert np.isin(k0, (0, 1)).all(), (N, d)


def test_quartic_positions_list_the_reference_monomials():
    for N in (1, 2, 3):
        for d in (1, 2, 3):
            want = entry_positions(quartic_monomials(N, d), N, d)
            assert np.array_equal(quartic_positions(N, d), want)
    with pytest.raises(ValidationError):
        quartic_positions(0, 1)
