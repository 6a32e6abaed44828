"""Finite-dimensional Gaussian oracle and epsilon extrapolation."""
import math

import numpy as np
import pytest

from triline.cosbasis import MatrixPair
from triline.errors import InvariantViolation, ValidationError
from triline.gaussian import A, B, free_partition
from triline.oracle import (OracleCovariance, gaussian_oracle_moment,
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
    n = len(orc.labels)
    residual = np.max(np.abs(orc.coupling @ orc.inverse - np.eye(n)))
    assert residual < 1e-10


def test_entry_covariance_finite_epsilon_values():
    # at finite eps the same-family transposed pair is eps/(1+eps^2), not 0
    orc = OracleCovariance(2, 1, 0.3)
    val = orc.entry_covariance(A(1, 1, 2), A(1, 2, 1))
    assert val == pytest.approx(0.3 / 1.09, rel=1e-10)
    # the non-transposed same-family pair vanishes at every eps
    assert abs(orc.entry_covariance(A(1, 1, 2), A(1, 1, 2))) < 1e-14
    # cross-family transposed pair tends to i
    cross = orc.entry_covariance(A(1, 1, 2), B(1, 2, 1))
    assert cross == pytest.approx(1j / 1.09, rel=1e-10)


def test_propagator_limits():
    # eps -> 0: AB -> i, AA -> 0
    got = richardson_limit(lambda e: gaussian_oracle_moment(
        [A(1, 1, 2), B(1, 2, 1)], 2, 1, e))
    assert abs(got - 1j) < 1e-10
    got = richardson_limit(lambda e: gaussian_oracle_moment(
        [A(1, 1, 2), A(1, 2, 1)], 2, 1, e))
    assert abs(got) < 1e-10


def test_moment_odd_degree_zero():
    assert gaussian_oracle_moment([A(1, 1, 1)], 1, 1, 0.2) == 0


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
        gaussian_oracle_moment([A(1, 1, 3)], 2, 1, 0.1)


def test_richardson_exact_polynomial():
    # f(e) = 3 - 2 e + 5 e^2 extrapolates exactly from 3 points
    got = richardson_limit(lambda e: 3 - 2 * e + 5 * e * e)
    assert got == pytest.approx(3.0, abs=1e-12)


def test_richardson_relative_tolerance_for_large_values():
    scale = 5.7e10
    got = richardson_limit(lambda e: scale * (1 + e))
    assert got == pytest.approx(scale, rel=1e-9)
