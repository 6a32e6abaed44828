"""Exact series assembly, formal log/exp, genus/link table, F(g)."""
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triline import mixed
from triline.errors import (InvariantViolation, ResourceLimitError,
                            StructureError, ValidationError)
from triline.gaussian import EntrySymbol
from triline.mixed import counterterm_series
from triline.oracle import OracleCovariance, entry_positions, richardson_limit
from triline.series import (F_of_g, Flp, TriSeries, assemble_Z, census_table,
                            coeff_json, connected_assemble, extract_Flp,
                            f_to_json, flp_to_json, formal_log,
                            planar_loop_counts, re_im, render_F,
                            series_to_json)


def formal_exp(s: TriSeries) -> TriSeries:
    """exp(u) = sum u^m / m!, truncated; requires zero constant term."""
    if s.constant_term():
        raise ValidationError("formal_exp requires zero constant term")
    out = TriSeries.one(s.kmax)
    power = TriSeries.one(s.kmax)
    for m in range(1, s.kmax + 1):
        power = power * s
        out = out + power.scale(Fraction(1, math.factorial(m)))
    return out


# (kmax, convention) -> the wick_ordered F(g); the k = 7 values were frozen
# from the census that counted tadpoles, before the counterterm substitution
WICK_F = {
    (3, "action"): "ln(pi) + 1/3i*g^3",
    (3, "paper_series"): "ln(pi) + 8/3i*g^3",
    (7, "action"):
        "ln(pi) + 1/3i*g^3 + 1/2*g^4 - 6/5i*g^5 - 7*g^6 + 197/7i*g^7",
    (7, "paper_series"):
        "ln(pi) + 8/3i*g^3 + 8*g^4 - 192/5i*g^5 - 448*g^6 + 25216/7i*g^7",
}


def reconstruct(table: Flp, kmax: int) -> TriSeries:
    """Rebuild the normalized log-series from a genus/link table, exactly."""
    return TriSeries(kmax, {(k, 2 - 2 * p, l): coeff
                            for (l, p), poly in table.items()
                            for k, coeff in poly.items()})


def printed(s: TriSeries) -> dict:
    """Each term's g-coefficient (re, im), as the machine output writes it."""
    return {key: re_im(key[0], c) for key, c in s.terms.items()}


def test_re_im_turns_h_grades_into_g_coefficients():
    # the g^k coefficient of r h^k is (-i)^k r
    r = Fraction(3, 2)
    assert [re_im(k, r) for k in range(5)] == [
        (r, 0), (0, -r), (-r, 0), (0, r), (r, 0)]


def test_z_series_frozen_coefficients():
    z = assemble_Z(census_table(2))
    assert printed(z) == {
        (0, 0, 0): (1, 0),
        (1, 2, 1): (0, -1),
        (2, 0, 2): (Fraction(-1, 4), 0),
        (2, 2, 1): (-2, 0),
        (2, 2, 2): (Fraction(-1, 4), 0),
        (2, 4, 2): (Fraction(-1, 2), 0),
    }
    zp = assemble_Z(census_table(1), convention="paper_series")
    assert printed(zp)[(1, 2, 1)] == (0, -2)


def test_linked_cluster_exact():
    table = census_table(3)
    for convention in ("action", "paper_series"):
        z = assemble_Z(table, convention=convention)
        assert formal_log(z) == connected_assemble(table, convention=convention)


def test_wick_ordered_linked_cluster():
    for (kmax, convention), want in WICK_F.items():
        table = census_table(kmax)
        z = assemble_Z(table, convention, action="wick_ordered")
        conn = connected_assemble(table, convention, action="wick_ordered")
        assert formal_log(z) == conn
        assert render_F(F_of_g(extract_Flp(conn))) == want


@pytest.mark.parametrize("assemble", [assemble_Z, connected_assemble])
def test_assembly_refuses_unknown_action(assemble):
    with pytest.raises(ValidationError):
        assemble(census_table(1), action="symmetric")


def test_standard_assembly_first_order_against_oracle():
    # order-g coefficient of Z implies E[sum Tr(A_mu B_nu A_mu B_nu)]
    # = -2 N^3 d: two planar Wick pairings, each i^2 N^3 d; confirm it
    # against the numeric Gaussian oracle
    z = assemble_Z(census_table(1))
    for N, d in ((2, 1), (1, 2)):
        implied = -2j * N * sum(
            complex(*map(float, re_im(k, c))) * N ** a * d ** b
            for (k, a, b), c in z.terms.items() if k == 1)
        words = [[EntrySymbol("A", mu, j, l), EntrySymbol("B", nu, l, m),
                  EntrySymbol("A", mu, m, n), EntrySymbol("B", nu, n, j)]
                 for mu, nu, j, l, m, n in itertools.product(
                     range(1, d + 1), range(1, d + 1),
                     *[range(1, N + 1)] * 4)]
        pos = entry_positions(words, N, d)
        orc = OracleCovariance(N, d)
        got = richardson_limit(lambda eps: orc.moments(pos, eps).sum())
        want = -2 * N ** 3 * d
        assert abs(got - want) < 1e-8
        assert abs(implied - want) < 1e-12


def test_census_table_must_cover_every_order():
    table = census_table(3)
    del table[2]
    with pytest.raises(ValidationError):
        assemble_Z(table)
    with pytest.raises(ValidationError):
        planar_loop_counts(table)


def test_formal_exp_inverts_log():
    z = assemble_Z(census_table(3))
    assert formal_exp(formal_log(z)) == z


def test_formal_log_requires_unit_constant():
    with pytest.raises(ValidationError):
        formal_log(TriSeries(2, {(1, 0, 1): Fraction(1)}))
    with pytest.raises(ValidationError):
        formal_exp(TriSeries.one(2))


def test_flp_lattice_and_f_values():
    lnz = connected_assemble(census_table(3))
    table = extract_Flp(lnz)
    assert reconstruct(table, lnz.kmax) == lnz
    f = F_of_g(table)
    assert render_F(f) == "ln(pi) - i*g - 2*g^2 + 7i*g^3"
    assert [re_im(k, f[k]) for k in (1, 2, 3)] == [(0, -1), (-2, 0), (0, 7)]
    fp = F_of_g(extract_Flp(connected_assemble(census_table(3),
                                               convention="paper_series")))
    assert [re_im(k, fp[k]) for k in (1, 2, 3)] == [
        (0, -2), (-8, 0), (0, 56)]


def test_flp_genus_one_entry():
    # the crossing ladder at k=2 sits at N-power 0: genus 1, one Greek loop...
    table = extract_Flp(connected_assemble(census_table(2)))
    assert re_im(2, table[(2, 1)][2]) == (Fraction(-1, 4), 0)


def test_extract_flp_rejects_off_lattice():
    with pytest.raises(StructureError):
        extract_Flp(TriSeries(2, {(1, 3, 1): Fraction(1)}))
    with pytest.raises(StructureError):
        extract_Flp(TriSeries(2, {(1, 1, 1): Fraction(1)}))
    with pytest.raises(StructureError):
        extract_Flp(TriSeries(2, {(1, 2, 0): Fraction(1)}))
    # a term that would survive the large-N limit, among the census's own
    bad = connected_assemble(census_table(2))
    bad._accumulate((1, 4, 1), Fraction(1))
    with pytest.raises(StructureError):
        extract_Flp(bad)


def test_planar_loop_counts_frozen():
    assert planar_loop_counts(census_table(3)) == {1: 2, 2: 16, 3: 336}


def test_wick_ordered_assembly_drops_tadpoles_exactly():
    for convention in ("action", "paper_series"):
        wo = assemble_Z(census_table(2), convention=convention,
                        action="wick_ordered")
        ct = counterterm_series(2, convention=convention)
        assert ct == wo
    assert counterterm_series(3) == assemble_Z(census_table(3),
                                               action="wick_ordered")


def test_wick_ordered_kills_order_one():
    wo = assemble_Z(census_table(1), action="wick_ordered")
    assert wo == TriSeries.one(1)


def test_mixed_cap():
    with pytest.raises(ResourceLimitError):
        counterterm_series(4)


def test_mixed_refuses_a_term_off_the_grading(monkeypatch):
    # c1 = -4iN without its i: order-g terms with a quadratic vertex are real
    # in g, so not (-i)^k times a real number
    monkeypatch.setattr(mixed, "_C1", (0, mixed._C1[1]))
    with pytest.raises(InvariantViolation):
        counterterm_series(1)


def test_series_json_schema():
    z = assemble_Z(census_table(1))
    js = series_to_json(z, "action")
    assert js["convention"] == "action" and js["kmax"] == 1
    assert js["terms"][1] == {"k": 1, "n_pow": 2, "d_pow": 1,
                              "re_num": 0, "re_den": 1,
                              "im_num": -1, "im_den": 1}
    table = extract_Flp(connected_assemble(census_table(2)))
    fj = flp_to_json(table, 2)
    assert fj["kmax"] == 2 and {e["l"] for e in fj["entries"]} <= {1, 2}
    ff = f_to_json(F_of_g(table), 2)
    assert ff["kmax"] == 2 and ff["logpi_num"] == 1
    assert ff["rendered"].startswith("ln(pi)")
    assert coeff_json(3, Fraction(-2, 3)) == {
        "re_num": 0, "re_den": 1, "im_num": -2, "im_den": 3}
    assert coeff_json(2, Fraction(1, 3)) == {
        "re_num": -1, "re_den": 3, "im_num": 0, "im_den": 1}


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def small_series():
    keys = st.tuples(st.integers(1, 2), st.integers(-2, 2), st.integers(1, 2))
    return st.dictionaries(keys, small_fracs, max_size=3).map(
        lambda terms: TriSeries.one(3) + TriSeries(3, terms))


@settings(max_examples=30, deadline=None)
@given(small_series(), small_series())
def test_formal_log_turns_products_into_sums(u, v):
    assert formal_log(u * v) == formal_log(u) + formal_log(v)


@settings(max_examples=30, deadline=None)
@given(small_series())
def test_formal_roundtrip_on_random_series(u):
    assert formal_exp(formal_log(u)) == u
