"""Output checks that share no code with triline.

The expected values are closed forms or fixed published numbers, and the
outputs are read with the standard library only:

* F(g) through g^5 under the ``action`` convention, as exact fractions:
  ln(pi) - i g - 2 g^2 + 7i g^3 + 65/2 g^4 - 898/5 i g^5;
* Tutte's count of rooted planar 4-regular maps (Tutte, "A census of
  planar maps", 1963), which equals the number of connected genus-0 ab
  pairings at order k: sum over l of F_{l,0} at g^k, divided by the vertex
  prefactor i^{3k} / (2^k k!);
* the knot-shadow counts per order, 2, 16, 336 and 12,480, with every
  Gauss code alternating over/under and the trefoil present at k = 3.
"""
from __future__ import annotations

import json
import re
from collections import Counter
from fractions import Fraction
from math import factorial
from pathlib import Path

# Gaussian rationals are (re, im) pairs of Fractions.
F_OF_G = {1: (0, -1), 2: (-2, 0), 3: (0, 7), 4: (Fraction(65, 2), 0),
          5: (0, Fraction(-898, 5))}
KNOT_RECORDS = {1: 2, 2: 16, 3: 336, 4: 12_480}
TREFOIL = "O1U2O3U1O2U3"
_TOKEN = re.compile(r"([OU])(\d+)")


def tutte_planar(k: int) -> int:
    """Rooted planar 4-regular maps with k vertices, times 2^{k-1} (k-1)!."""
    return (2 ** (k - 1) * factorial(k - 1) * 2 * 3 ** k * factorial(2 * k)
            // (factorial(k) * factorial(k + 2)))


def _gauss(term: dict) -> tuple[Fraction, Fraction]:
    return (Fraction(term["re_num"], term["re_den"]),
            Fraction(term["im_num"], term["im_den"]))


def _per_prefactor(c: tuple[Fraction, Fraction], k: int) -> tuple[Fraction, Fraction]:
    """c / (i^{3k} / (2^k k!)) = c * i^k * 2^k k!."""
    re, im = c
    for _ in range(k % 4):
        re, im = -im, re
    scale = 2 ** k * factorial(k)
    return re * scale, im * scale


def check_expand(path: Path, kmax: int) -> list[str]:
    """Problems in an ``expand --convention action`` JSON output."""
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        f = data["f_of_g"]
        f_terms = {t["k"]: _gauss(t) for t in f["terms"]}
        flp = {(e["l"], e["p"]): {t["k"]: _gauss(t) for t in e["terms"]}
               for e in data["flp_table"]["entries"]}
        planar = {int(k): v for k, v in data["planar_loop_counts"].items()}
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"expand output unreadable: {exc!r}"]
    problems = []
    if (f["logpi_num"], f["logpi_den"]) != (1, 1):
        problems.append("F(g) constant is not ln(pi)")
    want = {k: (Fraction(re), Fraction(im))
            for k, (re, im) in F_OF_G.items() if k <= kmax}
    if f_terms != want:
        problems.append(f"F(g) terms {f_terms} != {want}")
    for k in range(1, kmax + 1):
        genus0 = [poly.get(k, (0, 0)) for (l, p), poly in flp.items() if p == 0]
        total = (sum(c[0] for c in genus0), sum(c[1] for c in genus0))
        if _per_prefactor(total, k) != (tutte_planar(k), 0):
            problems.append(f"sum_l F_(l,0) at g^{k} / prefactor = "
                            f"{_per_prefactor(total, k)} != Tutte {tutte_planar(k)}")
        f10 = _per_prefactor(flp.get((1, 0), {}).get(k, (0, 0)), k)
        if f10 != (planar.get(k), 0):
            problems.append(f"planar_loop_counts[{k}] = {planar.get(k)} "
                            f"!= F_(1,0)/prefactor = {f10}")
    if sorted(planar) != list(range(1, kmax + 1)):
        problems.append(f"planar_loop_counts orders {sorted(planar)}")
    return problems


def _code_problem(code: str, k: int) -> str | None:
    tokens = _TOKEN.findall(code)
    if "".join(p + c for p, c in tokens) != code or len(tokens) != 2 * k:
        return "malformed"
    passages = [p for p, _ in tokens]
    n = len(passages)
    if any(passages[i] == passages[(i + 1) % n] for i in range(n)):
        return "not alternating"
    seen = Counter(tokens)
    if any(seen[("O", c)] != 1 or seen[("U", c)] != 1 for _, c in tokens):
        return "a crossing is not passed once over and once under"
    return None


def check_knots(path: Path, kmax: int) -> list[str]:
    """Problems in a ``knots`` JSON-lines output."""
    counts: Counter[int] = Counter()
    problems = []
    trefoil = False
    try:
        with path.open(encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                rec = json.loads(line)
                k, code = rec["k"], rec["code"]
                counts[k] += 1
                trefoil |= k == 3 and code == TREFOIL
                bad = _code_problem(code, k)
                if bad and len(problems) < 5:
                    problems.append(f"line {lineno}: code {code!r} {bad}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"knots output unreadable: {exc!r}"]
    want = {k: n for k, n in KNOT_RECORDS.items() if k <= kmax}
    if dict(counts) != want:
        problems.append(f"records per order {dict(counts)} != {want}")
    if kmax >= 3 and not trefoil:
        problems.append(f"trefoil {TREFOIL} missing at k=3")
    return problems
