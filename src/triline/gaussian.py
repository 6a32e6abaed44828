"""Regularized oscillatory Gaussian: T-transforms, propagators, Wick moments.

The distribution of interest is the eps -> 0 limit of the complex weight
exp(-eps/2 (Tr A_mu A_mu + Tr B_mu B_mu) + i Tr(A_mu B_mu)) on pairs of
d-tuples of Hermitian N x N matrices (summation over mu).  Pairing it with
exp(i <(A,B), (F,G)>), for a test-function pair (F, G) held by
``MatrixPair``, gives the closed forms implemented here:

    reg:   2^{dN} (pi / sqrt(eps^2+1))^{dN^2}
           * exp(-(eps T1 + 2i T2) / (2 (eps^2+1)))
    limit: 2^{dN} pi^{dN^2} * exp(-i T2)

with T1 = sum_mu Tr(F_mu F_mu + G_mu G_mu) and T2 = sum_mu Tr(F_mu G_mu).

In the limit the only nonvanishing second moment of matrix entries is

    <A_mu^{kl} B_nu^{mn}> = i delta_{mu nu} delta^{kn} delta^{lm}

and higher moments follow by summing over perfect pairings (Wick).  All
moments here are normalized by the partition value; multiply by
``free_partition`` for the unnormalized pairing.
"""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, ValidationError

_HERMITICITY_TOL = 1e-12


def _as_hermitian_stack(mats, N: int, d: int, label: str) -> np.ndarray:
    arr = np.asarray(mats, dtype=complex)
    if arr.shape != (d, N, N):
        raise ValidationError(
            f"{label} must have shape ({d}, {N}, {N}), got {arr.shape}")
    dev = np.max(np.abs(arr - arr.conj().transpose(0, 2, 1)))
    scale = 1.0 + float(np.max(np.abs(arr))) if arr.size else 1.0
    if dev > _HERMITICITY_TOL * scale:
        raise ValidationError(f"{label} is not Hermitian (max deviation {dev:g})")
    return arr


@dataclass(frozen=True)
class MatrixPair:
    """A test-function pair: d Hermitian N x N matrices per family slot."""

    N: int
    d: int
    F: np.ndarray = field(repr=False)
    G: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.N < 1 or self.d < 1:
            raise ValidationError("N and d must be >= 1")
        object.__setattr__(self, "F", _as_hermitian_stack(self.F, self.N, self.d, "F"))
        object.__setattr__(self, "G", _as_hermitian_stack(self.G, self.N, self.d, "G"))

    @classmethod
    def zeros(cls, N: int, d: int) -> "MatrixPair":
        z = np.zeros((d, N, N), dtype=complex)
        return cls(N, d, z, z.copy())

    @classmethod
    def random(cls, N: int, d: int, seed: int = 0, scale: float = 1.0) -> "MatrixPair":
        """Seeded random Hermitian pair, for oracle comparisons and sweeps."""
        rng = np.random.default_rng(seed)
        def herm():
            raw = rng.normal(size=(d, N, N)) + 1j * rng.normal(size=(d, N, N))
            return scale * 0.5 * (raw + raw.conj().transpose(0, 2, 1))
        return cls(N, d, herm(), herm())


def free_partition(N: int, d: int) -> float:
    """Partition value at zero coupling: 2^{dN} pi^{dN^2}."""
    if N < 1 or d < 1:
        raise ValidationError("N and d must be >= 1")
    return 2.0 ** (d * N) * math.pi ** (d * N * N)


def _trace_sums(FG: MatrixPair) -> tuple[float, float]:
    """(T1, T2): quadratic trace sums of a Hermitian pair; both are real."""
    t1 = float(np.einsum("mkl,mlk->", FG.F, FG.F).real
               + np.einsum("mkl,mlk->", FG.G, FG.G).real)
    t2 = float(np.einsum("mkl,mlk->", FG.F, FG.G).real)
    return t1, t2


def t_transform_reg(FG: MatrixPair, eps: float) -> complex:
    """Pairing of the regularized weight with exp(i <., (F,G)>), closed form."""
    if not eps > 0:
        raise ValidationError("epsilon must be > 0")
    t1, t2 = _trace_sums(FG)
    dn2 = FG.d * FG.N * FG.N
    pref = 2.0 ** (FG.d * FG.N) * (math.pi / math.sqrt(eps * eps + 1.0)) ** dn2
    return pref * np.exp(-(eps * t1 + 2j * t2) / (2.0 * (eps * eps + 1.0)))


def t_transform_limit(FG: MatrixPair) -> complex:
    """eps -> 0 limit of ``t_transform_reg``."""
    _, t2 = _trace_sums(FG)
    return free_partition(FG.N, FG.d) * np.exp(-1j * t2)


def u_bound_check(FG: MatrixPair, z_samples, eps: float = 0.1,
                  inflate: float = 1.0) -> bool:
    """Entire-growth bound on the normalized transform along complex rays.

    Checks |T(z F, z G)| / |T(0, 0)| <= exp(2 |z|^2 |FG|^2) for each sample
    z, where |FG|^2 is the trace-norm square T1, as an inequality of
    logarithms: exp(2 |z|^2 T1) overflows a float once T1 reaches a few
    hundred.  The scaled argument is evaluated analytically (z F is not
    Hermitian for complex z, so the closed form is continued in z rather
    than re-validated).  ``inflate`` multiplies the left side; values > 1
    serve as a negative control.
    """
    if not 0 < eps <= 0.5:
        raise ValidationError("bound regime requires 0 < epsilon <= 0.5")
    t1, t2 = _trace_sums(FG)
    denom = 2.0 * (eps * eps + 1.0)
    return all(math.log(inflate)
               + (-(eps * t1 + 2j * t2) * complex(z) ** 2 / denom).real
               <= 2.0 * abs(z) ** 2 * t1 for z in z_samples)


@dataclass(frozen=True, order=True)
class EntrySymbol:
    """A single matrix entry A_mu^{kl} or B_mu^{kl} as a formal symbol."""

    family: str
    mu: int
    k: int
    l: int

    def __post_init__(self):
        if self.family not in ("A", "B"):
            raise ValidationError(f"unknown family {self.family!r}")
        if self.mu < 1 or self.k < 1 or self.l < 1:
            raise ValidationError("indices are 1-based and must be positive")

    def __repr__(self):
        return f"{self.family}{self.mu}^{{{self.k}{self.l}}}"


def A(mu: int, k: int, l: int) -> EntrySymbol:
    return EntrySymbol("A", mu, k, l)


def B(mu: int, k: int, l: int) -> EntrySymbol:
    return EntrySymbol("B", mu, k, l)


def entry_pool(N: int, d: int) -> list[EntrySymbol]:
    """Every entry symbol of one (N, d), in the oracle's entry order."""
    return [EntrySymbol(f, mu, k, l) for f in ("A", "B")
            for mu in range(1, d + 1)
            for k in range(1, N + 1) for l in range(1, N + 1)]


def validate_entries(entries, N: int, d: int) -> None:
    """Bounds-check a collection of entry symbols against one (N, d) context."""
    for e in entries:
        if e.mu > d or e.k > N or e.l > N:
            raise ValidationError(f"entry {e} out of bounds for N={N}, d={d}")


def _delta_pattern(x: EntrySymbol, y: EntrySymbol) -> bool:
    """Index pattern of the limit covariance: mu match and row<->col swap."""
    return x.mu == y.mu and x.k == y.l and x.l == y.k


def propagator(x: EntrySymbol, y: EntrySymbol) -> complex:
    """Limit second moment of two entries under the standard action.

    Returns i when {x, y} pairs an A with a B carrying the same Greek index
    and swapped row/column indices; 0 otherwise.
    """
    if x.family == y.family:
        return 0.0 + 0.0j
    return 1j if _delta_pattern(x, y) else 0.0 + 0.0j


def iter_pair_partitions(n: int):
    """Yield all partitions of range(n) into unordered pairs.

    (2m)!/(2^m m!) partitions for n = 2m; the lowest unpaired index is
    always matched first, so the order is deterministic.
    """
    idx = list(range(n))

    def rec(rem):
        if not rem:
            yield ()
            return
        x = rem[0]
        for j in range(1, len(rem)):
            y = rem[j]
            rest = rem[1:j] + rem[j + 1:]
            for tail in rec(rest):
                yield ((x, y),) + tail

    yield from rec(idx)


def wick_moment(entries) -> complex:
    """Normalized moment of a product of entries via the pairing sum.

    Odd-length products vanish.  Even products are summed over all pair
    partitions, each contributing the product of its propagator values.
    Symmetric in its arguments by construction.
    """
    entries = list(entries)
    if len(entries) % 2 == 1:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for pairs in iter_pair_partitions(len(entries)):
        prod = 1.0 + 0.0j
        for a, b in pairs:
            v = propagator(entries[a], entries[b])
            if v == 0:
                prod = 0.0 + 0.0j
                break
            prod *= v
        total += prod
    return total


def quartic_monomials(N: int, d: int) -> tuple[tuple[EntrySymbol, ...], ...]:
    """Entry factors of sum_{mu nu} Tr(A_mu B_nu A_mu B_nu), one tuple each.

    ``wick_order_quartic`` and the oracle check of the ordered vertex read
    the same d^2 N^4 monomials: a caller builds them once and passes them.
    """
    r = range(1, N + 1)
    return tuple((A(mu, j, l), B(nu, l, m), A(mu, m, n), B(nu, n, j))
                 for mu in range(1, d + 1) for nu in range(1, d + 1)
                 for j in r for l in r for m in r for n in r)


_SINGLE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def wick_order_quartic(N: int, d: int, monomials) -> tuple[complex, complex]:
    """Counterterm coefficients of the Wick-ordered quartic vertex.

    Returns (c1, c2) such that, with Q summed over ``monomials``
    (``quartic_monomials(N, d)``),

        :Q: = Q + c1 * sum_mu Tr(A_mu B_mu) + c2,
        Q = sum_{mu nu} Tr(A_mu B_nu A_mu B_nu),

    has vanishing expectation and no same-vertex self contractions.  Both
    coefficients are derived here from the pairing rules: c1 collects the
    single-contraction residue of Q (verified to be proportional to
    Tr(A_mu B_mu)), and c2 is the full-contraction value E[Q].
    """
    if N < 1 or d < 1:
        raise ValidationError("N and d must be >= 1")
    quad: dict[tuple[EntrySymbol, EntrySymbol], complex] = defaultdict(complex)
    const = 0.0 + 0.0j
    for mono in monomials:
        const += wick_moment(mono)
        for a, b in _SINGLE_PAIRS:
            v = propagator(mono[a], mono[b])
            if v == 0:
                continue
            rest = tuple(sorted(mono[i] for i in range(4) if i not in (a, b)))
            quad[rest] += v
    # The residue must be lam * sum_mu sum_{ab} A_mu^{ab} B_mu^{ba}.
    expected_keys = {
        tuple(sorted((A(mu, a, b), B(mu, b, a))))
        for mu in range(1, d + 1)
        for a in range(1, N + 1) for b in range(1, N + 1)
    }
    lam = None
    for key, coeff in quad.items():
        if key not in expected_keys:
            raise InvariantViolation(f"unexpected self-contraction term {key}")
        if lam is None:
            lam = coeff
        elif abs(coeff - lam) > 1e-9:
            raise InvariantViolation("self-contraction residue is not uniform")
    missing = expected_keys - set(quad)
    if missing or lam is None:
        raise InvariantViolation("self-contraction residue has missing terms")
    return -lam, const

