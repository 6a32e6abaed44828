"""Independent Gaussian oracle for moments, normalization, and transforms.

For eps > 0 the damped weight is a genuine absolutely convergent Gaussian
in the 2dN^2 real entry coordinates (diagonal entries, and real/imaginary
parts of above-diagonal entries, per family, per Greek index).  Writing
the weight as exp(-1/2 y^T M y) with a complex symmetric coupling matrix
M whose real part eps*I is positive definite, everything is exact linear
algebra:

* moments: Isserlis pairing sums over the inverse coupling Sigma = M^{-1};
* normalization: (2 pi)^{n/2} / sqrt(det M);
* characteristic function: normalization * exp(-1/2 j^T Sigma j).

This channel never touches the pairing rules of ``gaussian``; agreement
between the two is the main verification device of the package.  Limits
eps -> 0 are taken by polynomial extrapolation along a geometric
eps-sequence (``richardson_limit``).
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .cosbasis import KIND_DIAG, KIND_IM, KIND_RE, MatrixPair, cos_basis
from .errors import InvariantViolation, ValidationError
from .gaussian import (ACTION_QUAD, ACTION_STANDARD, ACTIONS, EntrySymbol,
                       validate_entries)

_RESIDUAL_TOL = 1e-10


class OracleCovariance:
    """Coupling matrix and inverse of the regularized Gaussian.

    Coordinates are labelled by the orthogonal-basis tags of ``cos_basis``;
    the coupling is block 2x2 across the two family slots for each shared
    (mu, kind, k, l) tag: s * (eps * I - i * M_q), where M_q is the per-pair
    quadratic form of the action and s = 1 for diagonal coordinates, 2 for
    off-diagonal ones (off-diagonal entries appear twice in each trace).
    """

    def __init__(self, N: int, d: int, epsilon: float,
                 action: str = ACTION_STANDARD):
        if N < 1 or d < 1:
            raise ValidationError("N and d must be >= 1")
        if not epsilon > 0:
            raise ValidationError("epsilon must be > 0")
        if action not in ACTIONS:
            raise ValidationError(f"unsupported action {action!r}")
        self.N = N
        self.d = d
        self.epsilon = epsilon
        self.action = action
        self.labels = cos_basis(N, d)
        self.index = {(e.family, e.mu, e.kind, e.k, e.l): i
                      for i, e in enumerate(self.labels)}
        n = len(self.labels)
        mq = ACTION_QUAD[action]
        M = np.zeros((n, n), dtype=complex)
        fam = ("A", "B")
        for mu in range(1, d + 1):
            for kind in (KIND_DIAG, KIND_RE, KIND_IM):
                if kind == KIND_DIAG:
                    tags = [(k, k) for k in range(1, N + 1)]
                    s = 1.0
                else:
                    tags = [(k, l) for k in range(1, N + 1)
                            for l in range(k + 1, N + 1)]
                    s = 2.0
                for (k, l) in tags:
                    idx = [self.index[(f, mu, kind, k, l)] for f in fam]
                    for i in range(2):
                        for j in range(2):
                            M[idx[i], idx[j]] = s * (
                                (epsilon if i == j else 0.0) - 1j * mq[i][j])
        self.coupling = M
        try:
            self.inverse = np.linalg.inv(M)
        except np.linalg.LinAlgError as exc:
            raise InvariantViolation(f"coupling matrix not invertible: {exc}")
        resid = np.max(np.abs(M @ self.inverse - np.eye(n)))
        if resid > _RESIDUAL_TOL:
            raise InvariantViolation(
                f"coupling inverse residual {resid:g} exceeds {_RESIDUAL_TOL}")
        self._entry_cov: dict[tuple[EntrySymbol, EntrySymbol], complex] = {}

    def _coords(self, e: EntrySymbol) -> list[tuple[int, complex]]:
        """Expand one matrix entry over real coordinates with coefficients."""
        if e.k == e.l:
            return [(self.index[(e.family, e.mu, KIND_DIAG, e.k, e.k)], 1.0)]
        if e.k < e.l:
            return [(self.index[(e.family, e.mu, KIND_RE, e.k, e.l)], 1.0),
                    (self.index[(e.family, e.mu, KIND_IM, e.k, e.l)], 1.0j)]
        return [(self.index[(e.family, e.mu, KIND_RE, e.l, e.k)], 1.0),
                (self.index[(e.family, e.mu, KIND_IM, e.l, e.k)], -1.0j)]

    def entry_covariance(self, x: EntrySymbol, y: EntrySymbol) -> complex:
        """Second moment of two matrix entries at this eps."""
        key = (x, y)
        cached = self._entry_cov.get(key)
        if cached is not None:
            return cached
        validate_entries((x, y), self.N, self.d)
        total = 0.0 + 0.0j
        for ix, cx in self._coords(x):
            for iy, cy in self._coords(y):
                total += cx * cy * self.inverse[ix, iy]
        self._entry_cov[key] = total
        self._entry_cov[(y, x)] = total
        return total

    def moment(self, entries) -> complex:
        """Normalized moment of a product of entries (Isserlis expansion)."""
        entries = list(entries)
        validate_entries(entries, self.N, self.d)
        n = len(entries)
        if n % 2 == 1:
            return 0.0 + 0.0j
        if n == 0:
            return 1.0 + 0.0j
        cov = [[self.entry_covariance(entries[i], entries[j])
                for j in range(n)] for i in range(n)]
        return _isserlis(cov, tuple(range(n)))

    def normalization(self) -> complex:
        """Total Gaussian integral (2 pi)^{n/2} / sqrt(det M)."""
        n = len(self.labels)
        sign, logabs = np.linalg.slogdet(self.coupling)
        sqrt_det = np.exp(0.5 * logabs) * np.sqrt(sign)
        return (2.0 * math.pi) ** (n / 2.0) / sqrt_det

    def char_function(self, FG: MatrixPair) -> complex:
        """Integral of exp(i <(A,B),(F,G)>) against the unnormalized weight."""
        if (FG.N, FG.d) != (self.N, self.d):
            raise ValidationError("MatrixPair shape does not match oracle")
        n = len(self.labels)
        j = np.zeros(n, dtype=complex)
        for i, e in enumerate(self.labels):
            m = FG.F[e.mu - 1] if e.family == "A" else FG.G[e.mu - 1]
            if e.kind == KIND_DIAG:
                j[i] = m[e.k - 1, e.k - 1].real
            elif e.kind == KIND_RE:
                j[i] = 2.0 * m[e.k - 1, e.l - 1].real
            else:
                j[i] = 2.0 * m[e.k - 1, e.l - 1].imag
        return self.normalization() * np.exp(-0.5 * (j @ self.inverse @ j))


def _isserlis(cov, idx) -> complex:
    if not idx:
        return 1.0 + 0.0j
    x = idx[0]
    total = 0.0 + 0.0j
    for j in range(1, len(idx)):
        sub = idx[1:j] + idx[j + 1:]
        c = cov[x][idx[j]]
        if c != 0:
            total += c * _isserlis(cov, sub)
    return total


@functools.lru_cache(maxsize=128)
def _cached_oracle(N: int, d: int, epsilon: float, action: str) -> OracleCovariance:
    return OracleCovariance(N, d, epsilon, action)


def gaussian_oracle_moment(entries, N: int, d: int, epsilon: float,
                           action: str = ACTION_STANDARD) -> complex:
    """Oracle moment at one eps; callers extrapolate eps -> 0."""
    return _cached_oracle(N, d, epsilon, action).moment(tuple(entries))


def richardson_limit(f, start: float = 0.1, ratio: float = 0.1,
                     tol: float = 1e-9, max_points: int = 6) -> complex:
    """Extrapolate f(eps) to eps = 0 along a geometric sequence.

    Neville's tableau evaluated at 0; stops once successive diagonal
    estimates agree to ``tol`` (relative for values above 1 in modulus).
    """
    xs: list[float] = []
    p: list[complex] = []
    prev = None
    for m in range(max_points):
        x = start * ratio ** m
        xs.append(x)
        p.append(complex(f(x)))
        for j in range(len(p) - 2, -1, -1):
            p[j] = (x * p[j] - xs[j] * p[j + 1]) / (x - xs[j])
        if prev is not None and abs(p[0] - prev) <= tol * max(1.0, abs(p[0])):
            return p[0]
        prev = p[0]
    return p[0]
