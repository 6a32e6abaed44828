"""Exact tri-variate formal series: Z, ln Z, genus/link table, F(g).

Series are maps (grade k, N-power a, d-power b) -> coefficient,
truncated at a fixed g-order.  Every propagator carries i and every vertex
i times a real coupling, so the g^k coefficient is i^{3k} = (-i)^k times a
real rational: each series is real in h = -ig.  A coefficient is stored as
that rational r (a ``Fraction``), the coefficient of h^k; ``re_im`` turns
(k, r) back into the printed complex (-i)^k r.  Products of series add
grades, so the ring needs no i.  No floating point enters this module.

The normalized partition series is

    Z_norm = sum_k (1/k!) c^k sum_{ab pairings} i^{2k} N^{C-k} d^l

with c = i/2 under the ``action`` convention (vertex coupling g/(2N) in
the exponent exp(i S)) or c = i under the ``paper_series`` convention
(vertex coupling g/N); the two differ by 2^k at order g^k.  As
c^k i^{2k} = (-i)^k / 2^k or (-i)^k, Z_norm is real in h.  The formal
logarithm must equal the same sum restricted to connected pairings
(linked-cluster identity); its coefficients sit on the lattice
N-power = 2 - 2p, d-power = l >= 1, giving the table F_{l,p}(g).  The
constant part of the full log-series, d*N*log2 + d*N^2*logpi, is the free
partition function; F(g) = logpi + F_{1,0}(g) generates connected planar
single-Greek-loop diagrams, the alternating knot diagrams.  In h it is a
weighted count: F = ln(pi) + h + 2h^2 + 7h^3 + 65/2 h^4 + 898/5 h^5 + ...

The ``wick_ordered`` action adds c1 sum_mu Tr(A_mu B_mu) + c2 to each
vertex, c1 = -4iN and c2 = -2dN^3 (derived in ``gaussian.wick_order_quartic``,
checked by ``verify wick``, ``test_wick_order_constants`` and ``mixed``).
c1 turns exp(i Tr AB) into exp(i(1 + xh) Tr AB), x = 2 (action) or 4
(paper_series), so the same census gives the tadpole-free sums:
ln Z_wo(h) = dN^2 (xh/2 - ln(1 + xh)) + ln Z_std(h / (1 + xh)^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .census import Census, is_knot_shadow, pairing_census
from .errors import StructureError, ValidationError

CONVENTIONS = ("action", "paper_series")
SERIES_ACTIONS = ("standard", "wick_ordered")

Key = tuple[int, int, int]
CensusTable = dict[int, Census]   # order k -> pairing_census(k)


class TriSeries:
    """Truncated formal series in h = -ig (grade), N (any integer power), d (>= 0).

    ``terms[(k, a, b)]`` is the rational coefficient of h^k N^a d^b; the
    coefficient of g^k N^a d^b is (-i)^k times it.
    """

    def __init__(self, kmax: int, terms: dict[Key, Fraction] | None = None):
        if kmax < 0:
            raise ValidationError("kmax must be >= 0")
        self.kmax = kmax
        self.terms: dict[Key, Fraction] = {}
        if terms:
            for key, coeff in terms.items():
                self._accumulate(key, coeff)

    def _accumulate(self, key: Key, coeff: Fraction) -> None:
        k, a, b = key
        if k < 0 or b < 0:
            raise ValidationError(f"invalid series key {key}")
        if k > self.kmax or not coeff:
            return
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    @classmethod
    def one(cls, kmax: int) -> "TriSeries":
        return cls(kmax, {(0, 0, 0): Fraction(1)})

    def constant_term(self) -> Fraction:
        return self.terms.get((0, 0, 0), Fraction(0))

    def copy(self) -> "TriSeries":
        return TriSeries(self.kmax, dict(self.terms))

    def __add__(self, other: "TriSeries") -> "TriSeries":
        out = self.copy()
        for key, coeff in other.terms.items():
            out._accumulate(key, coeff)
        return out

    def __sub__(self, other: "TriSeries") -> "TriSeries":
        out = self.copy()
        for key, coeff in other.terms.items():
            out._accumulate(key, -coeff)
        return out

    def scale(self, factor) -> "TriSeries":
        factor = Fraction(factor)
        return TriSeries(self.kmax,
                         {key: coeff * factor for key, coeff in self.terms.items()})

    def __mul__(self, other: "TriSeries") -> "TriSeries":
        out = TriSeries(self.kmax)
        for (k1, a1, b1), c1 in self.terms.items():
            for (k2, a2, b2), c2 in other.terms.items():
                if k1 + k2 <= self.kmax:
                    out._accumulate((k1 + k2, a1 + a2, b1 + b2), c1 * c2)
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, TriSeries)
                and self.kmax == other.kmax and self.terms == other.terms)

    def __repr__(self) -> str:
        items = ", ".join(f"h^{k} N^{a} d^{b}: {c}"
                          for (k, a, b), c in sorted(self.terms.items()))
        return f"TriSeries(kmax={self.kmax}, {{{items}}})"


def _vertex_prefactor(k: int, convention: str) -> Fraction:
    """(c^k / k!) i^{2k} = (-i)^k r with c = i/2 (action) or i (paper_series).

    Returns r: 1/(2^k k!) or 1/k!.
    """
    if convention not in CONVENTIONS:
        raise ValidationError(f"unknown convention {convention!r}")
    denom = math.factorial(k) * (2 ** k if convention == "action" else 1)
    return Fraction(1, denom)


def census_table(kmax: int) -> CensusTable:
    """The census of every order 1..kmax, computed once per run.

    Every series consumer takes this table, so a run builds each order's
    census once, whatever it derives from it.
    """
    return {k: pairing_census(k) for k in range(1, kmax + 1)}


def _table_kmax(table: CensusTable) -> int:
    kmax = max(table, default=0)
    if sorted(table) != list(range(1, kmax + 1)):
        raise ValidationError("census table must hold every order 1..kmax")
    return kmax


def _assemble(table: CensusTable, convention: str, action: str,
              connected_only: bool) -> TriSeries:
    if action not in SERIES_ACTIONS:
        raise ValidationError(f"unknown action {action!r}")
    kmax = _table_kmax(table)
    out = TriSeries(kmax) if connected_only else TriSeries.one(kmax)
    for k in range(1, kmax + 1):
        pref = _vertex_prefactor(k, convention)
        for (C, l, conn), count in table[k].items():
            if conn or not connected_only:
                out._accumulate((k, C - k, l), pref * count)
    if action == "wick_ordered":
        out = _wick_order(out, 4 * _vertex_prefactor(1, convention),
                          connected_only)
    return out


def _wick_order(s: TriSeries, x: Fraction, log: bool) -> TriSeries:
    """``s`` at h / (1 + xh)^2, plus L (``log``) or times exp(L), where
    L = dN^2 (xh/2 - ln(1 + xh)) holds c2 and the Gaussian normalization."""
    out = TriSeries(s.kmax)
    for (k, a, b), c in s.terms.items():
        for j in range(s.kmax - k + 1):     # C(-2k, j) (xh)^j
            binom = math.comb(2 * k + j - 1, j) if j else 1
            out._accumulate((k + j, a, b), c * binom * (-x) ** j)
    L = TriSeries(s.kmax, {(m, 2, 1): (-x) ** m / m + (x / 2 if m == 1 else 0)
                           for m in range(1, s.kmax + 1)})
    if log:
        return out + L
    term = out
    for m in range(1, s.kmax + 1):          # out exp(L) = sum out L^m / m!
        term = (term * L).scale(Fraction(1, m))
        out = out + term
    return out


def assemble_Z(table: CensusTable, convention: str = "action",
               action: str = "standard") -> TriSeries:
    """Normalized partition series Z(N, d, g) / Z(N, d, 0) up to g^max(table).

    ``wick_ordered`` is the same census under the counterterm substitution.
    """
    return _assemble(table, convention, action, connected_only=False)


def connected_assemble(table: CensusTable, convention: str = "action",
                       action: str = "standard") -> TriSeries:
    """Sum over connected pairings only; the linked-cluster form of ln Z."""
    return _assemble(table, convention, action, connected_only=True)


def formal_log(s: TriSeries) -> TriSeries:
    """log(1 + u) = sum (-1)^{m+1} u^m / m, truncated at s.kmax."""
    if s.constant_term() != 1:
        raise ValidationError("formal_log requires constant term exactly 1")
    u = s - TriSeries.one(s.kmax)
    out = TriSeries(s.kmax)
    power = TriSeries.one(s.kmax)
    for m in range(1, s.kmax + 1):
        power = power * u
        sign = 1 if m % 2 == 1 else -1
        out = out + power.scale(Fraction(sign, m))
    return out


@dataclass
class FlpTable:
    """Genus/link table: (l >= 1, p >= 0) -> polynomial in h = -ig."""

    kmax: int
    table: dict[tuple[int, int], dict[int, Fraction]] = field(default_factory=dict)

    def add(self, l: int, p: int, k: int, coeff: Fraction) -> None:
        poly = self.table.setdefault((l, p), {})
        new = poly.get(k, 0) + coeff
        if new:
            poly[k] = new
        else:
            poly.pop(k, None)

    def poly(self, l: int, p: int) -> dict[int, Fraction]:
        return dict(self.table.get((l, p), {}))


def extract_Flp(lnz_norm: TriSeries) -> FlpTable:
    """Solve each coefficient position against N-power 2-2p, d-power l.

    Any coefficient off that lattice means the assembly upstream is broken
    and raises a structural error.
    """
    out = FlpTable(kmax=lnz_norm.kmax)
    for (k, a, b), coeff in lnz_norm.terms.items():
        if b < 1:
            raise StructureError(f"term g^{k} N^{a} d^{b} has d-power < 1")
        if a > 2 or (2 - a) % 2 != 0:
            raise StructureError(f"term g^{k} N^{a} d^{b} off the genus lattice")
        out.add(b, (2 - a) // 2, k, coeff)
    return out


@dataclass
class FSeries:
    """F(g) = ln(pi) + F_{1,0}(g): symbolic constant plus exact polynomial in h."""

    kmax: int
    coeffs: dict[int, Fraction]

    def render(self) -> str:
        """F in g, each coefficient (-i)^k r as a signed rational or imaginary."""
        parts = ["ln(pi)"]
        for k in sorted(self.coeffs):
            if not self.coeffs[k]:
                continue
            re, im = re_im(k, self.coeffs[k])
            mag = str(abs(re)) if re else ("" if abs(im) == 1 else str(abs(im)))
            mono = "g" if k == 1 else f"g^{k}"
            parts.append(f"{'-' if (re or im) < 0 else '+'} {mag}"
                         f"{'' if re else 'i'}*{mono}")
        return " ".join(parts)


def F_of_g(t: FlpTable) -> FSeries:
    """The alternating-knot-diagram generating function ln(pi) + F_{1,0}."""
    return FSeries(kmax=t.kmax, coeffs=t.poly(1, 0))


def double_limit_check(series: TriSeries) -> bool:
    """Term-by-term (1/dN^2) ln Z under N -> infinity then d -> 0.

    ``series`` is the connected (normalized log) series.  Divides it
    symbolically by d N^2, errors on any surviving positive N-power, drops
    negative ones, keeps d-power 0, and requires the result to equal
    F_{1,0} of the extracted table.  True on success.

    The g^0 constant of ln Z, d N log 2 + d N^2 log pi, is the free
    partition function (``gaussian.free_partition``), not part of the
    series: its limit is the fixed ln(pi) that ``F_of_g`` carries, so it
    needs no check.
    """
    limit_coeffs: dict[int, Fraction] = {}
    for (k, a, b), coeff in series.terms.items():
        if b < 1:
            raise StructureError(f"term g^{k} N^{a} d^{b} has d-power < 1")
        a2, b2 = a - 2, b - 1
        if a2 > 0:
            raise StructureError(
                f"term g^{k} N^{a} d^{b} survives the large-N limit unboundedly")
        if a2 == 0 and b2 == 0:
            limit_coeffs[k] = limit_coeffs.get(k, 0) + coeff
    f = F_of_g(extract_Flp(series))
    limit_coeffs = {k: c for k, c in limit_coeffs.items() if c}
    target = {k: c for k, c in f.coeffs.items() if c}
    if limit_coeffs != target:
        raise StructureError("double limit disagrees with F_{1,0}")
    return True


def planar_loop_counts(table: CensusTable) -> dict[int, int]:
    """Raw count per order of connected planar single-Greek-loop pairings.

    These are the knot shadows behind F_{1,0} (``census.is_knot_shadow``).
    """
    return {k: sum(count for (C, l, conn), count in table[k].items()
                   if is_knot_shadow(k, C, l, conn))
            for k in range(1, _table_kmax(table) + 1)}


def re_im(k: int, r: Fraction) -> tuple[Fraction, Fraction]:
    """The g^k coefficient (-i)^k r as its (real, imaginary) parts."""
    signed = r if k % 4 in (0, 3) else -r
    return (signed, Fraction(0)) if k % 2 == 0 else (Fraction(0), signed)


def coeff_json(k: int, r: Fraction) -> dict:
    """The g^k coefficient (-i)^k r as exact numerator/denominator fields."""
    re, im = re_im(k, r)
    return {"re_num": re.numerator, "re_den": re.denominator,
            "im_num": im.numerator, "im_den": im.denominator}


def series_to_json(s: TriSeries, convention: str) -> dict:
    terms = []
    for (k, a, b) in sorted(s.terms):
        entry = {"k": k, "n_pow": a, "d_pow": b}
        entry.update(coeff_json(k, s.terms[(k, a, b)]))
        terms.append(entry)
    return {"convention": convention, "kmax": s.kmax, "terms": terms}


def flp_to_json(t: FlpTable) -> dict:
    entries = []
    for (l, p) in sorted(t.table):
        poly = t.table[(l, p)]
        entries.append({
            "l": l, "p": p,
            "terms": [dict(k=k, **coeff_json(k, poly[k]))
                      for k in sorted(poly)],
        })
    return {"kmax": t.kmax, "entries": entries}


def f_to_json(f: FSeries) -> dict:
    return {
        "kmax": f.kmax,
        "logpi_num": 1,
        "logpi_den": 1,
        "terms": [dict(k=k, **coeff_json(k, f.coeffs[k]))
                  for k in sorted(f.coeffs) if f.coeffs[k]],
        "rendered": f.render(),
    }
