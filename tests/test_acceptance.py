"""Acceptance gate: the eleven headline checks, one reported line each.

Run as `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines;
each criterion is a single test with its stated tolerance.
"""
import itertools
import math
import time
from fractions import Fraction

import numpy as np

from triline.census import pairing_census
from triline.diagrams import brute_force_index_sum, components_and_genus
from triline.gaussian import (EntrySymbol, entry_pool, free_partition,
                              iter_pair_partitions, propagator,
                              quartic_monomials, wick_moment, wick_order_quartic)
from triline.knots import (TREFOIL, canonical_code, enumerate_knot_diagrams,
                           reduce_R1)
from triline.mixed import counterterm_series
from triline.oracle import OracleCovariance, entry_positions, richardson_limit
from triline.series import (F_of_g, assemble_Z, census_table,
                            connected_assemble, extract_Flp, formal_log, re_im)
from row_census import row_census, tadpole_marginal
from unreduced import alternating_check, count_matchings, enumerate_matchings


def report(num, desc, ok, detail=""):
    tail = f"  ({detail})" if detail else ""
    print(f"\n{'PASS' if ok else 'FAIL'} criterion {num}: {desc}{tail}")
    assert ok, f"criterion {num}: {desc}{tail}"


def test_criterion_01_free_partition():
    worst = 0.0
    for N in (1, 2, 3):
        for d in (1, 2):
            got = richardson_limit(
                lambda e: OracleCovariance(N, d, e).normalization())
            want = free_partition(N, d)
            worst = max(worst, abs(got - want) / want)
    report(1, "extrapolated oracle normalization = 2^(dN) pi^(dN^2), "
              "rel err < 1e-6 for N <= 3, d <= 2",
           worst < 1e-6, f"worst rel err {worst:.2e}")


def test_criterion_02_propagator_pattern():
    worst = 0.0
    pairs = 0
    for N in (1, 2, 3):
        for d in (1, 2):
            pool = entry_pool(N, d)
            pos = entry_positions(pool, N, d)
            cov = richardson_limit(lambda e: OracleCovariance(N, d, e).cov)
            for x, i in zip(pool, pos):
                for y, j in zip(pool, pos):
                    worst = max(worst, abs(cov[i, j] - propagator(x, y)))
                    pairs += 1
    report(2, "all second moments at N <= 3, d <= 2 match the i*delta "
              "pattern, abs err < 1e-8",
           worst < 1e-8, f"{pairs} pairs, worst abs err {worst:.2e}")


def test_criterion_03_wick_theorem():
    for m in (2, 3):
        count = sum(1 for _ in iter_pair_partitions(2 * m))
        want = math.factorial(2 * m) // (2 ** m * math.factorial(m))
        assert count == want, (m, count, want)
    worst = 0.0
    moments = 0
    for N in (1, 2):
        for d in (1, 2):
            pool = entry_pool(N, d)
            for deg in (4, 6):
                combos = list(itertools.combinations_with_replacement(pool, deg))
                want = np.array([wick_moment(c) for c in combos])
                pos = entry_positions(combos, N, d)
                got = richardson_limit(
                    lambda e: OracleCovariance(N, d, e).moments(pos))
                worst = max(worst, float(np.max(np.abs(got - want))))
                moments += len(combos)
    report(3, "all degree-4/6 moments at N <= 2, d <= 2: pairing sum = "
              "oracle, abs err < 1e-8; pairing counts exact",
           worst < 1e-8, f"{moments} moments, worst abs err {worst:.2e}")


def test_criterion_04_matching_counts():
    ok = True
    detail = []
    for k in range(1, 6):
        ab = count_matchings(k)
        ok = ok and ab == math.factorial(2 * k)
        detail.append(f"k={k}: {ab}")
    report(4, "(2k)! ab pairings for k <= 5", ok, "; ".join(detail[-2:]))


def test_criterion_05_brute_force_weights():
    checked = 0
    ok = True
    for k in (1, 2, 3):
        for p in enumerate_matchings(k):
            rep = components_and_genus(p)
            for N in (1, 2, 3):
                for d in (1, 2):
                    want = complex((1j) ** (2 * k)) * N ** rep.C * d ** rep.l
                    got = brute_force_index_sum(p, N, d)
                    if got != want:
                        ok = False
                    checked += 1
    report(5, "brute-force index sum = i^(2k) N^C d^l exactly, "
              "k <= 3, N <= 3, d <= 2", ok, f"{checked} evaluations")


def test_criterion_06_euler_integrality():
    ok = True
    count = 0
    for k in (1, 2, 3, 4):
        for p in enumerate_matchings(k):
            rep = components_and_genus(p)   # raises if 2p is odd or negative
            total_genus = sum(rep.genus_per_component)
            # summed Euler relation: C - k = 2 components - 2 total genus
            if rep.C - k != 2 * rep.components - 2 * total_genus:
                ok = False
            if any(g < 0 for g in rep.genus_per_component):
                ok = False
            count += 1
    report(6, "every component of every pairing k <= 4 has non-negative "
              "integer genus with even Euler defect", ok, f"{count} pairings")


def test_criterion_07_linked_cluster():
    ok = True
    table = census_table(3)
    for convention in ("action", "paper_series"):
        if formal_log(assemble_Z(table, convention)) != \
                connected_assemble(table, convention):
            ok = False
    report(7, "formal_log(assemble_Z(3)) = connected_assemble(3) exactly, "
              "both conventions", ok)


def test_criterion_08_lattice_and_double_limit():
    ok = True
    detail = []
    for convention, want_f1 in (("action", (0, -1)),
                                ("paper_series", (0, -2))):
        lnz = connected_assemble(census_table(3), convention)
        f = F_of_g(extract_Flp(lnz))        # raises off-lattice
        f1 = re_im(1, f[1])
        ok = ok and f1 == want_f1
        detail.append(f"{convention}: F_1 = {f1[0]} + ({f1[1]})i")
        # brute-force confirmation at k = 1: the g-coefficient of Z equals
        # (i c / N) * sum over the two pairings of the index sum, c = 1/2 or 1
        c = Fraction(1, 2) if convention == "action" else Fraction(1)
        z = assemble_Z(census_table(1), convention)
        for N, d in ((1, 1), (2, 1), (2, 2), (3, 2)):
            series_val = sum(
                complex(*map(float, re_im(k, co))) * N ** a * d ** b
                for (k, a, b), co in z.terms.items() if k == 1)
            brute = sum(brute_force_index_sum(p, N, d)
                        for p in enumerate_matchings(1))
            if abs(series_val - 1j * float(c) / N * brute) > 1e-12:
                ok = False
    report(8, "ln Z fits the N^(2-2p) d^l lattice for k <= 3; double limit "
              "yields ln pi + F_{1,0} with F_1 = -i / -2i",
           ok, "; ".join(detail))


def test_criterion_09_knot_export():
    k1 = enumerate_knot_diagrams(1)
    ok = all(reduce_R1(c).serialize() == "" for c, _, _ in k1) and \
        sum(m for _, m, _ in k1) == 2
    trefoils = [c for c, _, _ in enumerate_knot_diagrams(3)
                if c.crossings() == 3 and reduce_R1(c) == c]
    ok = ok and trefoils and all(
        alternating_check(c) and canonical_code(c) == TREFOIL for c in trefoils)
    checked = 0
    for k in (1, 2, 3, 4):
        for c, mult, _ in enumerate_knot_diagrams(k):
            if not alternating_check(c):
                ok = False
            checked += mult
    report(9, "k=3 export contains the R1-fixed trefoil; all codes k <= 4 "
              "alternate; k=1 reduces to the empty code",
           bool(ok), f"{checked} labeled codes, {len(trefoils)} trefoil code")


def test_criterion_10_wick_ordered_vertex():
    worst = 0.0
    for N in (1, 2):
        for d in (1, 2):
            monomials = quartic_monomials(N, d)
            c1, c2 = wick_order_quartic(N, d, monomials)
            quartic = entry_positions(monomials, N, d)
            pairs = entry_positions(
                [(EntrySymbol("A", mu, a, b), EntrySymbol("B", mu, b, a))
                 for mu in range(1, d + 1)
                 for a in range(1, N + 1) for b in range(1, N + 1)], N, d)

            def ordered_mean(eps, N=N, d=d, c1=c1, c2=c2):
                orc = OracleCovariance(N, d, eps)
                return (orc.moments(quartic).sum()
                        + c1 * orc.moments(pairs).sum() + c2)

            worst = max(worst, abs(richardson_limit(ordered_mean)))
    exact = all(
        counterterm_series(2, convention) ==
        assemble_Z(census_table(2), convention, action="wick_ordered")
        for convention in ("action", "paper_series"))
    report(10, "E[normal-ordered quartic] = 0 within 1e-8; ordered series = "
               "standard minus tadpoles exactly at k <= 2",
           worst < 1e-8 and exact, f"worst |E| {worst:.2e}")


def test_criterion_11_performance():
    t0 = time.perf_counter()
    frontier = pairing_census(5)
    elapsed = time.perf_counter() - t0
    assert sum(frontier.values()) == math.factorial(10)
    # two independent folds: the transfer over open ends and the row tracer
    identical = frontier == tadpole_marginal(row_census(5))
    report(11, "k=5 census (3,628,800 pairings) single-threaded < 60 s; "
               "frontier census bit-identical to the row-census reference",
           elapsed < 60.0 and identical, f"{elapsed:.3f} s")
