"""Orthogonal Hermitian basis and Hermitian matrix-pair test data.

The model lives on pairs of d-tuples (A_mu), (B_mu) of Hermitian N x N
matrices.  Each family slot and Greek index mu carries a copy of the real
vector space of Hermitian matrices with the trace inner product
<X, Y> = Tr(XY).  The basis used throughout:

* one diagonal unit per row k: single entry 1 at (k, k), norm^2 = 1;
* per unordered pair k < l a real-part element with entries 1/2 at
  (k, l) and (l, k), and an imaginary-part element with entries i/2 at
  (k, l) and -i/2 at (l, k); both have norm^2 = 1/2.

Distinct elements are orthogonal.  Elements sitting in different family
slots or different mu components are orthogonal by definition of the
direct-sum space.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

FAMILIES = ("A", "B")
KIND_DIAG = "diag"
KIND_RE = "re"
KIND_IM = "im"
KINDS = (KIND_DIAG, KIND_RE, KIND_IM)

_HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class BasisElement:
    """One orthogonal basis matrix, tagged by family slot and Greek index.

    ``kind`` selects diagonal unit, off-diagonal real part, or off-diagonal
    imaginary part; ``k <= l`` always, with ``k < l`` for off-diagonal kinds.
    """

    family: str
    mu: int
    kind: str
    k: int
    l: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown family {self.family!r}")
        if self.kind not in KINDS:
            raise ValidationError(f"unknown kind {self.kind!r}")
        if self.mu < 1 or self.k < 1 or self.l < 1:
            raise ValidationError("indices are 1-based and must be positive")
        if self.kind == KIND_DIAG and self.k != self.l:
            raise ValidationError("diagonal kind requires k == l")
        if self.kind != KIND_DIAG and not self.k < self.l:
            raise ValidationError("off-diagonal kinds require k < l")

    def matrix(self, N: int) -> np.ndarray:
        """Realize the element as a complex Hermitian N x N array."""
        if self.l > N:
            raise ValidationError(f"element {self} does not fit in N={N}")
        m = np.zeros((N, N), dtype=complex)
        i, j = self.k - 1, self.l - 1
        if self.kind == KIND_DIAG:
            m[i, i] = 1.0
        elif self.kind == KIND_RE:
            m[i, j] = 0.5
            m[j, i] = 0.5
        else:
            m[i, j] = 0.5j
            m[j, i] = -0.5j
        return m

    def norm_sq(self) -> float:
        return 1.0 if self.kind == KIND_DIAG else 0.5


def cos_basis(N: int, d: int) -> list[BasisElement]:
    """Full orthogonal basis for both family slots: 2 * d * N^2 elements.

    Order is deterministic: family A before B, mu ascending, diagonal
    elements first, then off-diagonal (k, l) pairs lexicographically with
    the real part before the imaginary part.
    """
    if N < 1 or d < 1:
        raise ValidationError("N and d must be >= 1")
    out = []
    for family in FAMILIES:
        for mu in range(1, d + 1):
            for k in range(1, N + 1):
                out.append(BasisElement(family, mu, KIND_DIAG, k, k))
            for k in range(1, N + 1):
                for l in range(k + 1, N + 1):
                    out.append(BasisElement(family, mu, KIND_RE, k, l))
                    out.append(BasisElement(family, mu, KIND_IM, k, l))
    return out


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
