"""Real coordinate basis for Hermitian matrix pairs."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triline.cosbasis import BasisElement, MatrixPair, cos_basis
from triline.errors import ValidationError


def test_basis_count_and_layout():
    for N in (1, 2, 3):
        for d in (1, 2):
            basis = cos_basis(N, d)
            assert len(basis) == 2 * d * N * N
            # families in order, A block first
            fams = [e.family for e in basis]
            assert fams == sorted(fams)


def test_basis_elements_are_hermitian():
    for e in cos_basis(3, 2):
        m = e.matrix(3)
        assert np.allclose(m, m.conj().T)


def test_basis_validation():
    with pytest.raises(ValidationError):
        BasisElement("A", 1, "re", 2, 1)   # requires k < l for offdiagonal
    with pytest.raises(ValidationError):
        BasisElement("C", 1, "diag", 1, 1)
    with pytest.raises(ValidationError):
        BasisElement("A", 0, "diag", 1, 1)


def test_matrix_pair_validation():
    with pytest.raises(ValidationError):
        MatrixPair(2, 1, np.zeros((1, 2, 2)), np.zeros((1, 2, 3)))
    bad = np.zeros((1, 2, 2), dtype=complex)
    bad[0, 0, 1] = 1.0   # not Hermitian
    with pytest.raises(ValidationError):
        MatrixPair(2, 1, bad, np.zeros((1, 2, 2)))


def test_random_pair_roundtrip_through_basis():
    N, d = 3, 2
    fg = MatrixPair.random(N, d, seed=7)
    basis = cos_basis(N, d)
    rebuilt_f = np.zeros((d, N, N), dtype=complex)
    rebuilt_g = np.zeros((d, N, N), dtype=complex)
    for e in basis:
        m = e.matrix(N)
        src = fg.F[e.mu - 1] if e.family == "A" else fg.G[e.mu - 1]
        coeff = np.trace(src @ m).real / e.norm_sq()
        if e.family == "A":
            rebuilt_f[e.mu - 1] += coeff * m
        else:
            rebuilt_g[e.mu - 1] += coeff * m
    assert np.allclose(rebuilt_f, fg.F)
    assert np.allclose(rebuilt_g, fg.G)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 2), st.integers(0, 10_000))
def test_random_pairs_always_hermitian(N, d, seed):
    fg = MatrixPair.random(N, d, seed=seed)
    assert np.allclose(fg.F, np.conj(np.swapaxes(fg.F, -1, -2)))
    assert np.allclose(fg.G, np.conj(np.swapaxes(fg.G, -1, -2)))
