"""Per-monomial reference for the Wick-ordered quartic vertex.

``quartic_monomials`` spells out the d^2 N^4 entry products of
Q = sum_{mu nu} Tr(A_mu B_nu A_mu B_nu) one by one, and
``wick_order_quartic_per_monomial`` derives the counterterms (c1, c2) by
walking every one of them: its single contractions, keyed by the term
they leave, and its full Wick moment.  ``gaussian.wick_order_quartic``
walks one monomial per index pattern instead; tests require the two to
agree, and the oracle's ``quartic_positions`` to list these monomials.
"""
from collections import defaultdict

from triline.errors import InvariantViolation
from triline.gaussian import A, B, EntrySymbol, propagator, wick_moment

_SINGLE_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def quartic_monomials(N: int, d: int) -> tuple[tuple[EntrySymbol, ...], ...]:
    """Entry factors of sum_{mu nu} Tr(A_mu B_nu A_mu B_nu), one tuple each."""
    r = range(1, N + 1)
    return tuple((A(mu, j, l), B(nu, l, m), A(mu, m, n), B(nu, n, j))
                 for mu in range(1, d + 1) for nu in range(1, d + 1)
                 for j in r for l in r for m in r for n in r)


def wick_order_quartic_per_monomial(N: int, d: int) -> tuple[complex, complex]:
    """(c1, c2) from every monomial: c1 = -(the uniform coefficient of the
    single-contraction residue on each A_mu^{ab} B_mu^{ba}), c2 = E[Q]."""
    quad: dict[tuple[EntrySymbol, EntrySymbol], complex] = defaultdict(complex)
    const = 0.0 + 0.0j
    for mono in quartic_monomials(N, d):
        const += wick_moment(mono)
        for a, b in _SINGLE_PAIRS:
            v = propagator(mono[a], mono[b])
            if v == 0:
                continue
            rest = tuple(sorted(mono[i] for i in range(4) if i not in (a, b)))
            quad[rest] += v
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
    if expected_keys - set(quad) or lam is None:
        raise InvariantViolation("self-contraction residue has missing terms")
    return -lam, const
