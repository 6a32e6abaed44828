"""Finite-dimensional Gaussian oracle and epsilon extrapolation."""
import math

import numpy as np
import pytest

from triline.errors import InvariantViolation, ValidationError
from triline.gaussian import A, B, MatrixPair, entry_pool, free_partition
from triline.oracle import (OracleCovariance, _coordinates, entry_positions,
                            richardson_limit)


def test_normalization_extrapolates_to_free_partition():
    for N in (1, 2):
        for d in (1, 2):
            val = richardson_limit(
                lambda e: OracleCovariance(N, d, e).normalization())
            want = free_partition(N, d)
            assert abs(val - want) / want < 1e-9


def test_coupling_inverse_residual_guard():
    orc = OracleCovariance(3, 2, 0.05)
    n = len(orc.cov)
    residual = np.max(np.abs(orc.coupling @ orc.inverse - np.eye(n)))
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
            for eps in (0.3, 1e-2, 1e-5):
                M, C, sigma = _dense_reference(N, d, eps)
                orc = OracleCovariance(N, d, eps)
                want = C @ sigma @ C.T
                assert np.max(np.abs(orc.cov - want)) <= \
                    1e-12 * np.max(np.abs(want))
                sign, logabs = np.linalg.slogdet(M)
                norm = ((2 * math.pi) ** (len(M) / 2)
                        / (np.exp(0.5 * logabs) * np.sqrt(sign)))
                assert orc.normalization() == pytest.approx(norm, rel=1e-12)


def test_oracle_keeps_only_the_covariance():
    # coupling and inverse are built on demand, never stored
    for N, d in ((1, 1), (3, 2), (4, 3)):
        orc = OracleCovariance(N, d, 0.01)
        n = len(orc.cov)
        held = sum(v.nbytes for v in vars(orc).values()
                   if isinstance(v, np.ndarray))
        assert held <= orc.cov.nbytes + 64 * n + 256


def test_entry_covariance_finite_epsilon_values():
    # at finite eps the same-family transposed pair is eps/(1+eps^2), not 0
    x = A(1, 1, 2)
    val, same, cross = OracleCovariance(2, 1, 0.3).moments(entry_positions(
        [(x, A(1, 2, 1)), (x, x), (x, B(1, 2, 1))], 2, 1))
    assert val == pytest.approx(0.3 / 1.09, rel=1e-10)
    # the non-transposed same-family pair vanishes at every eps
    assert abs(same) < 1e-14
    # cross-family transposed pair tends to i
    assert cross == pytest.approx(1j / 1.09, rel=1e-10)


def test_propagator_limits():
    # eps -> 0: AB -> i, AA -> 0
    pos = entry_positions([(A(1, 1, 2), B(1, 2, 1)), (A(1, 1, 2), A(1, 2, 1))],
                          2, 1)
    cross, same = richardson_limit(
        lambda e: OracleCovariance(2, 1, e).moments(pos))
    assert abs(cross - 1j) < 1e-10
    assert abs(same) < 1e-10


def test_moment_odd_degree_zero():
    orc = OracleCovariance(1, 1, 0.2)
    assert orc.moments(entry_positions([[A(1, 1, 1)]], 1, 1)).tolist() == [0]


def test_char_function_against_quadrature():
    # N = d = 1: coordinates (a, b), weight exp(-eps(a^2+b^2)/2 + i a b);
    # char function at F = f, G = g has the closed form
    # 2 pi / sqrt(eps^2 + 1) * exp(-(eps(f^2+g^2) + 2 i f g) / (2 (eps^2+1)))
    eps, f, g = 0.4, 0.6, -0.3
    orc = OracleCovariance(1, 1, eps)
    F = np.array([[[f]]], dtype=complex)
    G = np.array([[[g]]], dtype=complex)
    got = orc.char_function(MatrixPair(1, 1, F, G))
    want = (2 * math.pi / math.sqrt(eps ** 2 + 1)
            * np.exp(-(eps * (f * f + g * g) + 2j * f * g) / (2 * (eps ** 2 + 1))))
    assert got == pytest.approx(want, rel=1e-12)


def test_oracle_validates_inputs():
    with pytest.raises(ValidationError):
        OracleCovariance(0, 1, 0.1)
    with pytest.raises(ValidationError):
        OracleCovariance(2, 1, -0.5)
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
    orc = OracleCovariance(2, 2, 0.1)
    with pytest.raises(ValidationError):
        orc.moments(np.array([[0, len(pool)]]))
    with pytest.raises(ValidationError):
        orc.moments(np.array([[-1, 0]]))


def test_moments_batch_equals_per_product_rows():
    N, d = 2, 2
    pool = entry_pool(N, d)
    orc = OracleCovariance(N, d, 0.07)
    rng = np.random.default_rng(5)
    for deg in (0, 2, 4, 6):
        pos = rng.integers(0, len(pool), size=(40, deg))
        batch = orc.moments(pos)
        rows = [orc.moments(row[None])[0] for row in pos]
        assert np.allclose(batch, rows, rtol=0, atol=1e-13)
        # a moment is symmetric in its factors
        shuffled = rng.permuted(pos, axis=1)
        assert np.allclose(orc.moments(shuffled), batch, rtol=0, atol=1e-13)
    for deg in (1, 3, 5):
        pos = rng.integers(0, len(pool), size=(10, deg))
        assert not orc.moments(pos).any()


def test_moment_of_four_is_the_three_pairings():
    orc = OracleCovariance(2, 1, 0.2)
    x, y, z, w = entry_positions([A(1, 1, 2), B(1, 2, 1), A(1, 2, 1),
                                  B(1, 1, 2)], 2, 1)
    c = orc.cov
    want = c[x, y] * c[z, w] + c[x, z] * c[y, w] + c[x, w] * c[y, z]
    assert orc.moments([[x, y, z, w]])[0] == pytest.approx(want, abs=1e-14)


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
    N, d = 2, 1
    n = len(entry_pool(N, d))
    cov = richardson_limit(lambda e: OracleCovariance(N, d, e).cov)
    for i in range(n):
        for j in range(n):
            one = richardson_limit(
                lambda e: OracleCovariance(N, d, e).moments([[i, j]])[0])
            assert abs(cov[i, j] - one) < 1e-12
