"""Independent Gaussian oracle for moments, normalization, and transforms.

For eps > 0 the damped weight is a genuine absolutely convergent Gaussian
in the 2dN^2 real entry coordinates (diagonal entries, and real/imaginary
parts of above-diagonal entries, per family, per Greek index).  Writing
the weight as exp(-1/2 y^T M y) with a complex symmetric coupling matrix
M whose real part eps*I is positive definite, everything is exact linear
algebra:

* moments: Isserlis pairing sums over one entry-covariance matrix per
  eps.  C expands one family's entries over its coordinates and s holds
  their norms^2 (``_coordinates``); M = kron(2 x 2 block, diag(s)), so
  cov = kron(block^{-1}, K0) with the eps-free K0 = C diag(1/s) C^T;
* normalization: (2 pi)^{n/2} / sqrt(det M);
* characteristic function: normalization * exp(-1/2 j^T Sigma j).

Moments are asked one way: build one ``OracleCovariance`` per eps, pass
``moments`` a batch of ``entry_positions`` and extrapolate the whole array
with ``richardson_limit``.  Nothing is cached; an oracle lives as long as
its caller holds it.  ``normalization`` and ``char_function`` are
references that tests compare with ``gaussian``'s closed forms.

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


def _position(family: str, mu: int, k: int, l: int, N: int, d: int) -> int:
    return (("AB".index(family) * d + mu - 1) * N + k - 1) * N + l - 1


def entry_positions(entries, N: int, d: int) -> np.ndarray:
    """Bounds-checked positions of entry symbols in the oracle's entry order.

    ``entries`` is one product or a list of equally long products; the
    result has its shape.  Entry (family, mu, k, l) sits at
    ((family * d + mu - 1) * N + k - 1) * N + l - 1, family A = 0, B = 1.
    """
    arr = np.array(entries, dtype=object)
    validate_entries(arr.flat, N, d)
    pos = [_position(e.family, e.mu, e.k, e.l, N, d) for e in arr.flat]
    return np.array(pos, dtype=np.intp).reshape(arr.shape)


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


class OracleCovariance:
    """Entry covariance of one eps; dense ``coupling``/``inverse`` on demand.

    Coordinates are ``_coordinates``' for family A, then the same for
    family B.  The coupling pairs each A coordinate with its B twin:
    M = kron(block, diag(s)), block = eps * I - i * [[0, 1], [1, 0]] from
    i Tr(A_mu B_mu), s = 1 for diagonal coordinates and 2 for off-diagonal
    ones (they appear twice in each trace), so Sigma =
    kron(block^{-1}, diag(1/s)).  C acts on each family alike, so
    ``cov`` = kron(I, C) Sigma kron(I, C)^T = kron(block^{-1}, C diag(1/s) C^T)
    holds the second moment of every pair of matrix entries in
    ``entry_positions`` order.  C is rebuilt when needed, not kept.
    """

    def __init__(self, N: int, d: int, epsilon: float):
        if N < 1 or d < 1:
            raise ValidationError("N and d must be >= 1")
        if not epsilon > 0:
            raise ValidationError("epsilon must be > 0")
        self.N = N
        self.d = d
        self.epsilon = epsilon
        C, self.scale = _coordinates(N, d)
        self.block = epsilon * np.eye(2) - 1j * np.array(_COUPLING)
        (b00, b01), (b10, b11) = self.block
        self.block_inverse = (np.array([[b11, -b01], [-b10, b00]])
                              / (b00 * b11 - b01 * b10))
        # M Sigma - I = kron(block block^{-1} - I, I)
        resid = np.max(np.abs(self.block @ self.block_inverse - np.eye(2)))
        if not resid <= _RESIDUAL_TOL:
            raise InvariantViolation(
                f"coupling inverse residual {resid:g} exceeds {_RESIDUAL_TOL}")
        self.cov = np.kron(self.block_inverse, (C / self.scale) @ C.T)

    @property
    def coupling(self) -> np.ndarray:
        """The dense coupling matrix M."""
        return np.kron(self.block, np.diag(self.scale))

    @property
    def inverse(self) -> np.ndarray:
        """The dense Sigma = M^{-1}."""
        return np.kron(self.block_inverse, np.diag(1.0 / self.scale))

    def moments(self, pos) -> np.ndarray:
        """Normalized moments of a batch of products (Isserlis expansion).

        ``pos`` is a (products x factors) array of ``entry_positions``;
        odd-degree rows give 0.
        """
        pos = np.asarray(pos, dtype=np.intp)
        if pos.ndim != 2:
            raise ValidationError("moments expects a (products x factors) array")
        if pos.size and (pos.min() < 0 or pos.max() >= len(self.cov)):
            raise ValidationError(
                f"entry position out of bounds for N={self.N}, d={self.d}")
        if pos.shape[1] % 2 == 1:
            return np.zeros(len(pos), dtype=complex)
        return _isserlis(self.cov, pos)

    def normalization(self) -> complex:
        """Total Gaussian integral (2 pi)^{n/2} / sqrt(det M)."""
        n = len(self.cov)
        sign, logabs = np.linalg.slogdet(self.coupling)
        sqrt_det = np.exp(0.5 * logabs) * np.sqrt(sign)
        return (2.0 * math.pi) ** (n / 2.0) / sqrt_det

    def char_function(self, FG: MatrixPair) -> complex:
        """Integral of exp(i <(A,B),(F,G)>) against the unnormalized weight."""
        if (FG.N, FG.d) != (self.N, self.d):
            raise ValidationError("MatrixPair shape does not match oracle")
        C, _ = _coordinates(self.N, self.d)
        j = np.concatenate([C.conj().T @ FG.F.reshape(-1),
                            C.conj().T @ FG.G.reshape(-1)]).real
        return self.normalization() * np.exp(-0.5 * (j @ self.inverse @ j))


def _isserlis(cov: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Sum over pairings of the first factor, row by row, then recurse."""
    total = np.zeros(len(pos), dtype=complex)
    if pos.shape[1] == 0:
        return total + 1.0
    for j in range(1, pos.shape[1]):
        rest = np.delete(pos, (0, j), axis=1)
        total += cov[pos[:, 0], pos[:, j]] * _isserlis(cov, rest)
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
