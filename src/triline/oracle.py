"""Independent Gaussian oracle for moments, normalization, and transforms.

For eps > 0 the damped weight is a genuine absolutely convergent Gaussian
in the 2dN^2 real entry coordinates (diagonal entries, and real/imaginary
parts of above-diagonal entries, per family, per Greek index).  Writing
the weight as exp(-1/2 y^T M y) with a complex symmetric coupling matrix
M whose real part eps*I is positive definite, everything is exact linear
algebra:

* moments: Isserlis pairing sums over the entry covariance.  C expands
  one family's entries over its coordinates and s holds their norms^2
  (``_coordinates``); M = kron(B(eps), diag(s)) with the 2 x 2 family
  block B(eps), so cov = kron(B(eps)^{-1}, K0) with the eps-free
  K0 = C diag(1/s) C^T;
* normalization: (2 pi)^{n/2} / sqrt(det M);
* characteristic function: normalization * exp(-1/2 j^T Sigma j).

eps enters only through the 2 x 2 block.  Moments are asked one way:
build one ``OracleCovariance`` per (N, d), which holds K0, pass
``moments`` a batch of ``entry_positions`` and an eps, and extrapolate
the whole array with ``richardson_limit``.  A covariance entry is read as
B(eps)^{-1}[f_p, f_q] * K0[e_p, e_q], so no n x n array is built per eps;
the limit covariance is ``richardson_limit(block_inverse)`` spread over K0
by ``covariance_row``.  Nothing is cached; an oracle lives as long as its
caller holds it.  ``normalization`` and ``char_function`` are references
that tests compare with ``gaussian``'s closed forms.

The weight's one quadratic form, i Tr(A_mu B_mu), pairs each A coordinate
with its B twin; the oracle holds that coupling itself and takes only
``validate_entries`` from ``gaussian``, never its pairing rules.  Agreement
between the two is the main verification device of the package.  Limits
eps -> 0 are taken by polynomial extrapolation along a geometric
eps-sequence (``richardson_limit``).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvariantViolation, ValidationError
from .gaussian import MatrixPair, validate_entries

_RESIDUAL_TOL = 1e-10
_COUPLING = ((0, 1), (1, 0))    # i Tr(A_mu B_mu) per coordinate pair
# richardson_limit's eps-sequence: 0.1, 0.01, ..., at most six points
_EPS_START, _EPS_RATIO, _EPS_POINTS, _EPS_TOL = 0.1, 0.1, 6, 1e-9


def _position(family, mu, k, l, N: int, d: int):
    """Entry position from 0-based (family, mu, k, l); scalars or arrays."""
    return ((family * d + mu) * N + k) * N + l


def entry_positions(entries, N: int, d: int) -> np.ndarray:
    """Bounds-checked positions of entry symbols in the oracle's entry order.

    ``entries`` is one product or a list of equally long products; the
    result has its shape.  Entry (family, mu, k, l) sits at
    ((family * d + mu - 1) * N + k - 1) * N + l - 1, family A = 0, B = 1.
    """
    arr = np.array(entries, dtype=object)
    validate_entries(arr.flat, N, d)
    pos = [_position("AB".index(e.family), e.mu - 1, e.k - 1, e.l - 1, N, d)
           for e in arr.flat]
    return np.array(pos, dtype=np.intp).reshape(arr.shape)


def quartic_positions(N: int, d: int) -> np.ndarray:
    """Positions of the d^2 N^4 monomials of sum_{mu nu} Tr(A_mu B_nu A_mu B_nu).

    Row (mu, nu, j, l, m, n), in that lexicographic order, holds
    A_mu^{jl} B_nu^{lm} A_mu^{mn} B_nu^{nj}.
    """
    if N < 1 or d < 1:
        raise ValidationError("N and d must be >= 1")
    mu, nu, j, l, m, n = np.indices((d, d, N, N, N, N)).reshape(6, -1)
    return np.stack([_position(0, mu, j, l, N, d), _position(1, nu, l, m, N, d),
                     _position(0, mu, m, n, N, d), _position(1, nu, n, j, N, d)],
                    axis=1)


def _coordinates(N: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Entry expansion C (dN^2 x dN^2) and norms^2 s of one family's
    real coordinates.

    Coordinates per mu: the N diagonal entries, then for each k < l in
    lexicographic order the real and the imaginary part of entry (k, l).
    Column c of C holds coordinate c's coefficients on the entries, in
    ``entry_positions`` order: 1 for a diagonal or real part, +-i at
    (k, l)/(l, k) for an imaginary part.  So vec F = C y for a Hermitian F
    with coordinates y, C^H C = diag(s), and Tr(F F) = sum_c s_c y_c^2.
    """
    n = N * N
    idx = np.arange(n).reshape(N, N)
    k, l = np.triu_indices(N, 1)
    re = N + 2 * np.arange(len(k))
    one = np.zeros((n, n), dtype=complex)
    one[idx.diagonal(), np.arange(N)] = 1.0
    one[idx[k, l], re] = one[idx[l, k], re] = 1.0
    one[idx[k, l], re + 1] = 1.0j
    one[idx[l, k], re + 1] = -1.0j
    s = np.where(np.arange(n) < N, 1.0, 2.0)
    return np.kron(np.eye(d), one), np.tile(s, d)


def _block(eps: float) -> np.ndarray:
    """The 2 x 2 family block B(eps) = eps * I - i * [[0, 1], [1, 0]]."""
    if not eps > 0:
        raise ValidationError("epsilon must be > 0")
    return eps * np.eye(2) - 1j * np.array(_COUPLING)


def block_inverse(eps: float) -> np.ndarray:
    """B(eps)^{-1}, the only eps-dependent factor of the entry covariance.

    Raises ``InvariantViolation`` when B B^{-1} - I, which is also the
    dense residual M Sigma - I = kron(B B^{-1} - I, I), exceeds 1e-10.
    """
    block = _block(eps)
    (b00, b01), (b10, b11) = block
    inverse = (np.array([[b11, -b01], [-b10, b00]])
               / (b00 * b11 - b01 * b10))
    resid = np.max(np.abs(block @ inverse - np.eye(2)))
    if not resid <= _RESIDUAL_TOL:
        raise InvariantViolation(
            f"coupling inverse residual {resid:g} exceeds {_RESIDUAL_TOL}")
    return inverse


class OracleCovariance:
    """The eps-free factor K0 of one (N, d)'s entry covariance.

    Coordinates are ``_coordinates``' for family A, then the same for
    family B.  The coupling pairs each A coordinate with its B twin:
    M = kron(B(eps), diag(s)), B(eps) = eps * I - i * [[0, 1], [1, 0]] from
    i Tr(A_mu B_mu), s = 1 for diagonal coordinates and 2 for off-diagonal
    ones (they appear twice in each trace), so Sigma =
    kron(B(eps)^{-1}, diag(1/s)).  C acts on each family alike, so the
    covariance of every pair of matrix entries, in ``entry_positions``
    order, is kron(I, C) Sigma kron(I, C)^T = kron(B(eps)^{-1}, K0) with
    ``k0`` = C diag(1/s) C^T.  The oracle keeps ``k0`` and ``scale`` (s);
    C is rebuilt when needed, and each eps enters through its 2 x 2 block.
    """

    def __init__(self, N: int, d: int):
        if N < 1 or d < 1:
            raise ValidationError("N and d must be >= 1")
        self.N = N
        self.d = d
        C, self.scale = _coordinates(N, d)
        self.k0 = (C / self.scale) @ C.T

    def coupling(self, eps: float) -> np.ndarray:
        """The dense coupling matrix M."""
        return np.kron(_block(eps), np.diag(self.scale))

    def inverse(self, eps: float) -> np.ndarray:
        """The dense Sigma = M^{-1}."""
        return np.kron(block_inverse(eps), np.diag(1.0 / self.scale))

    def covariance_row(self, block: np.ndarray, i: int) -> np.ndarray:
        """Row i of kron(block, K0): the entry covariance for that block."""
        f, e = divmod(i, len(self.k0))
        return np.kron(block[f], self.k0[e])

    def moments(self, pos, eps: float) -> np.ndarray:
        """Normalized moments of a batch of products (Isserlis expansion).

        ``pos`` is a (products x factors) array of ``entry_positions``;
        odd-degree rows give 0.
        """
        pos = np.asarray(pos, dtype=np.intp)
        if pos.ndim != 2:
            raise ValidationError("moments expects a (products x factors) array")
        if pos.size and (pos.min() < 0 or pos.max() >= 2 * len(self.k0)):
            raise ValidationError(
                f"entry position out of bounds for N={self.N}, d={self.d}")
        binv = block_inverse(eps)
        if pos.shape[1] % 2 == 1:
            return np.zeros(len(pos), dtype=complex)
        family, entry = np.divmod(pos, len(self.k0))

        def cov(i: int, j: int) -> np.ndarray:
            return (binv[family[:, i], family[:, j]]
                    * self.k0[entry[:, i], entry[:, j]])
        return _isserlis(cov, len(pos), list(range(pos.shape[1])))

    def normalization(self, eps: float) -> complex:
        """Total Gaussian integral (2 pi)^{n/2} / sqrt(det M)."""
        n = 2 * len(self.k0)
        sign, logabs = np.linalg.slogdet(self.coupling(eps))
        sqrt_det = np.exp(0.5 * logabs) * np.sqrt(sign)
        return (2.0 * math.pi) ** (n / 2.0) / sqrt_det

    def char_function(self, FG: MatrixPair, eps: float) -> complex:
        """Integral of exp(i <(A,B),(F,G)>) against the unnormalized weight."""
        if (FG.N, FG.d) != (self.N, self.d):
            raise ValidationError("MatrixPair shape does not match oracle")
        C, _ = _coordinates(self.N, self.d)
        j = np.concatenate([C.conj().T @ FG.F.reshape(-1),
                            C.conj().T @ FG.G.reshape(-1)]).real
        return (self.normalization(eps)
                * np.exp(-0.5 * (j @ self.inverse(eps) @ j)))


def _isserlis(cov, rows: int, cols: list[int]) -> np.ndarray:
    """Sum over pairings of the first factor, row by row, then recurse.

    ``cov(i, j)`` gives the covariance of factors i and j in every row.
    """
    total = np.zeros(rows, dtype=complex)
    if not cols:
        return total + 1.0
    for j in cols[1:]:
        rest = [c for c in cols[1:] if c != j]
        total += cov(cols[0], j) * _isserlis(cov, rows, rest)
    return total


def richardson_limit(f):
    """Extrapolate f(eps) to eps = 0 along eps = 0.1, 0.01, ... (six points).

    Neville's tableau evaluated at 0; stops once successive diagonal
    estimates agree to 1e-9 (relative for values above 1 in modulus).
    An array-valued f is extrapolated element by element and stops when
    every element agrees; a scalar f returns a ``complex``.  A tableau that
    has not settled by the last point raises ``InvariantViolation``.
    """
    xs: list[float] = []
    p: list[np.ndarray] = []
    prev = None
    for m in range(_EPS_POINTS):
        x = _EPS_START * _EPS_RATIO ** m
        xs.append(x)
        p.append(np.asarray(f(x), dtype=complex))
        for j in range(len(p) - 2, -1, -1):
            p[j] = (x * p[j] - xs[j] * p[j + 1]) / (x - xs[j])
        tol = _EPS_TOL * np.maximum(1.0, np.abs(p[0]))
        if prev is not None and np.all(np.abs(p[0] - prev) <= tol):
            return complex(p[0]) if p[0].ndim == 0 else p[0]
        prev = p[0]
    change = float(np.max(np.abs(p[0] - prev)))
    raise InvariantViolation(
        f"eps -> 0 extrapolation did not settle in {_EPS_POINTS} points "
        f"(last change {change:g})")
