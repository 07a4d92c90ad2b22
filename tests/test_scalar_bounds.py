"""Scalar bound families: frozen examples, oracle cross-checks, properties."""

import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanbound import reporting, scalar
from meanbound.scalar import (
    DomainError,
    compare_gap_bounds,
    comparison_poly_f,
    comparison_poly_g,
    corollary_one_term,
    fundamental_log_slack,
    heinz_reverse_main,
    heinz_reverse_sc,
    heinz_scalar,
    kittaneh_manasrah,
    lemma_sm_reverse,
    limit_inequality_slack,
    log_limit_gap,
    refinement_sum_s,
    reverse_young_basic,
    sababheh_choi_forward,
    sababheh_indices,
    theorem_extended_sc,
    theorem_main_reverse,
    weighted_geometric,
    young_lhs,
    zhao_wu_forward,
    zhao_wu_reverse,
    window_dyadic_high,
    window_dyadic_low,
    window_sc_high,
    window_sc_low,
)
from meanbound.harness import SCALAR_ROWS

import oracles

REL = 5e-15  # float64 agreement with the 50-digit oracle

positive = st.floats(min_value=1e-3, max_value=1e3)
unit_weight = st.floats(min_value=0.0, max_value=1.0)
wide_weight = st.floats(min_value=-6.0, max_value=6.0)
depth = st.integers(min_value=1, max_value=8)


def close(value, expected, rel=REL, abs_tol=0.0):
    assert value == pytest.approx(expected, rel=rel, abs=abs_tol), (value, expected)


# ---------------------------------------------------------------------------
# Elementary means
# ---------------------------------------------------------------------------

def test_young_lhs_examples():
    close(young_lhs(1.0, 16.0, 0.125), 2.875)
    assert young_lhs(5.0, 5.0, 0.3) == 5.0
    close(young_lhs(1.0, 4.0, 2.0), 7.0)


def test_weighted_geometric_examples():
    close(weighted_geometric(1.0, 16.0, 0.125), 1.4142135623730951, rel=1e-12)
    close(weighted_geometric(7.0, 7.0, -3.2), 7.0, rel=1e-12)
    close(weighted_geometric(2.0, 8.0, 2.0), 32.0, rel=1e-12)


def test_heinz_scalar_examples():
    close(heinz_scalar(1.0, 16.0, 0.125), 6.363961030678928, rel=1e-12)
    close(heinz_scalar(9.0, 9.0, 0.77), 9.0, rel=1e-12)
    close(heinz_scalar(1.0, 16.0, 0.5), 4.0, rel=1e-12)


def test_domain_errors():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            weighted_geometric(bad, 1.0, 0.5)
    with pytest.raises(DomainError):
        young_lhs(1.0, 1.0, math.nan)
    with pytest.raises(DomainError):
        theorem_main_reverse(1.0, 2.0, 0.1, 0, "i")
    with pytest.raises(DomainError):
        theorem_main_reverse(1.0, 2.0, 0.1, 31, "i")
    with pytest.raises(DomainError):
        heinz_reverse_main(1.0, 2.0, 0.1, 1, "i")  # needs n >= 2
    with pytest.raises(DomainError):
        corollary_one_term(1.0, 2.0, 0.1, "iii")


@given(a=positive, v=st.floats(min_value=-5.0, max_value=5.0))
def test_fixed_point_at_equal_operands(a, v):
    assert weighted_geometric(a, a, v) == pytest.approx(a, rel=1e-13)
    assert heinz_scalar(a, a, v) == pytest.approx(a, rel=1e-13)


@given(a=positive, b=positive, v=wide_weight)
def test_weighted_geometric_matches_oracle(a, b, v):
    # the exponent (1-v) ln a + v ln b reaches ~90, so allow ~exp(eps*90)
    close(weighted_geometric(a, b, v), float(oracles.wg(a, b, v)), rel=1e-13)


# ---------------------------------------------------------------------------
# Reverse families: frozen examples
# ---------------------------------------------------------------------------

def test_reverse_young_basic_examples():
    rep = reverse_young_basic(1.0, 4.0, 2.0)
    assert rep.hypothesis_ok and rep.holds
    close(rep.gap, 9.0, rel=1e-12)
    rep = reverse_young_basic(3.0, 3.0, 5.0)
    assert rep.hypothesis_ok and rep.holds
    close(rep.gap, 0.0, abs_tol=1e-12)
    rep = reverse_young_basic(1.0, 16.0, 0.125)
    assert not rep.hypothesis_ok
    assert rep.gap < 0.0  # the hypothesis really is necessary here


def test_corollary_one_term_examples():
    rep = corollary_one_term(4.0, 1.0, 2.0, "i")
    assert rep.hypothesis_ok and rep.holds
    close(rep.lhs, -2.0)
    close(rep.rhs, 2.25, rel=1e-12)
    close(rep.gap, 4.25, rel=1e-12)
    rep = corollary_one_term(6.0, 6.0, 0.9, "i")
    close(rep.gap, 0.0, abs_tol=1e-12)
    rep = corollary_one_term(1.0, 16.0, 0.125, "ii")
    assert rep.hypothesis_ok and rep.holds
    close(rep.rhs, 9.289213562373095, rel=1e-12)
    close(rep.lhs, 2.875)


def test_theorem_main_reverse_examples():
    rep = theorem_main_reverse(1.0, 16.0, 0.125, 2, "i")
    assert rep.hypothesis_ok and rep.holds
    close(rep.rhs, 6.289213562373095, rel=1e-13)
    close(rep.gap, 3.414213562373095, rel=1e-13)
    rep = theorem_main_reverse(2.0, 2.0, 0.9, 5, "i")
    close(rep.gap, 0.0, abs_tol=1e-12)
    rep = theorem_main_reverse(16.0, 1.0, 0.875, 2, "ii")
    close(rep.gap, 3.414213562373095, rel=1e-13)


def test_theorem_main_reverse_windows():
    assert theorem_main_reverse(1.0, 2.0, 0.5, 3, "i").hypothesis_ok is False
    assert theorem_main_reverse(1.0, 2.0, 0.625, 3, "i").hypothesis_ok is False
    assert theorem_main_reverse(1.0, 2.0, 0.6251, 3, "i").hypothesis_ok is True
    assert theorem_main_reverse(1.0, 2.0, 0.25, 2, "ii").hypothesis_ok is False
    assert theorem_main_reverse(1.0, 2.0, 0.2499, 2, "ii").hypothesis_ok is True


def test_sababheh_indices_examples():
    assert sababheh_indices(0.25, 2) == (2, 0, 1, 0.5)
    assert sababheh_indices(0.0, 7) == (7, 0, 0, 0.0)
    assert sababheh_indices(0.25, 1) == (1, 0, 0, 0.25)
    with pytest.raises(DomainError):
        sababheh_indices(1.5, 2)
    with pytest.raises(DomainError):
        sababheh_indices(0.5, 0)


def test_refinement_sum_examples():
    close(refinement_sum_s(0.25, 4.0, 16.0, 2), 1.6862915010152396, rel=1e-13)
    assert refinement_sum_s(0.0, 3.0, 11.0, 5) == 0.0
    close(refinement_sum_s(0.5, 4.0, 16.0, 1), 2.0, rel=1e-13)


def test_lemma_sm_reverse_examples():
    rep = lemma_sm_reverse(1.0, 16.0, 0.125, 2, "i")
    assert rep.hypothesis_ok and rep.holds
    close(rep.rhs, 7.602922061357856, rel=1e-13)
    rep = lemma_sm_reverse(10.0, 10.0, 0.3, 3, "i")
    close(rep.gap, 0.0, abs_tol=1e-12)
    rep = lemma_sm_reverse(16.0, 1.0, 0.875, 2, "ii")
    close(rep.gap, 4.727922061357856, rel=1e-13)
    with pytest.raises(DomainError):
        lemma_sm_reverse(1.0, 2.0, 0.7, 2, "i")  # branch i needs v <= 1/2


def test_kittaneh_manasrah_examples():
    rep = kittaneh_manasrah(1.0, 16.0, 0.125)
    assert rep.hypothesis_ok and rep.holds
    close(rep.rhs, 2.5392135623730951, rel=1e-13)
    close(rep.gap, 0.33578643762690495, rel=1e-12)
    rep = kittaneh_manasrah(7.5, 7.5, 0.4)
    close(rep.gap, 0.0, abs_tol=1e-12)
    rep = kittaneh_manasrah(1.0, 16.0, 0.5)
    close(rep.rhs, 8.5, rel=1e-13)
    close(rep.gap, 0.0, abs_tol=1e-9)
    assert kittaneh_manasrah(1.0, 2.0, 1.5).hypothesis_ok is False


def test_zhao_wu_forward_examples():
    rep = zhao_wu_forward(1.0, 16.0, 0.125)
    assert rep.hypothesis_ok and rep.holds
    close(rep.rhs, 2.789213562373095, rel=1e-13)
    close(rep.gap, 0.08578643762690495, rel=1e-11)
    rep = zhao_wu_forward(3.0, 3.0, 0.2)
    close(rep.gap, 0.0, abs_tol=1e-12)
    rep = zhao_wu_forward(16.0, 1.0, 0.875)
    close(rep.gap, 0.08578643762690495, rel=1e-11)


def test_zhao_wu_reverse_examples():
    rep = zhao_wu_reverse(1.0, 16.0, 0.125, "lemma")
    assert rep.hypothesis_ok and rep.holds
    close(rep.rhs, 8.289213562373095, rel=1e-13)
    rep = zhao_wu_reverse(5.0, 5.0, 0.6)
    close(rep.gap, 0.0, abs_tol=1e-12)
    rep = zhao_wu_reverse(1.0, 16.0, 0.125, "proposition")
    close(rep.rhs, 8.289213562373095, rel=1e-13)


def test_sababheh_choi_forward_examples():
    rep = sababheh_choi_forward(1.0, 16.0, 0.125, 1)
    close(rep.rhs, kittaneh_manasrah(1.0, 16.0, 0.125).rhs, rel=1e-15)
    rep = sababheh_choi_forward(2.5, 2.5, 0.7, 4)
    close(rep.gap, 0.0, abs_tol=1e-12)
    rep = sababheh_choi_forward(1.0, 16.0, 0.125, 2)
    close(rep.rhs, 2.789213562373095, rel=1e-13)
    with pytest.raises(DomainError):
        sababheh_choi_forward(1.0, 2.0, 1.5, 2)


def test_theorem_extended_sc_examples():
    rep = theorem_extended_sc(1.0, 4.0, 2.0, 1, "i")
    assert rep.hypothesis_ok and rep.holds
    close(rep.rhs, 18.0, rel=1e-12)
    close(rep.gap, 11.0, rel=1e-12)
    rep = theorem_extended_sc(1.0, 4.0, 2.0, 2, "i")
    close(rep.rhs, 18.68629150101524, rel=1e-13)
    rep = theorem_extended_sc(4.0, 4.0, -2.0, 3, "ii")
    close(rep.gap, 0.0, abs_tol=1e-12)


@given(a=positive, b=positive,
       v=st.floats(min_value=1e-3, max_value=6.0),
       n=st.integers(min_value=1, max_value=7))
def test_extended_sc_rhs_nondecreasing_in_depth_for_positive_weight(a, b, v, n):
    # each added summand is v times a nonnegative square, so for v > 0 the
    # bound can only grow (and its excluded window only shrinks) with n
    lo = theorem_extended_sc(a, b, v, n, "i").rhs
    hi = theorem_extended_sc(a, b, v, n + 1, "i").rhs
    assert hi >= lo - 1e-12 * (abs(lo) + a + b)
    assert scalar.gap_bound_extended_sc(a, b, 1.0, n + 1) >= \
        scalar.gap_bound_extended_sc(a, b, 1.0, n) - 1e-12 * (a + b)


def test_theorem_extended_sc_windows():
    assert theorem_extended_sc(1.0, 2.0, 0.125, 3, "i").hypothesis_ok is False
    assert theorem_extended_sc(1.0, 2.0, 0.1251, 3, "i").hypothesis_ok is True
    assert theorem_extended_sc(1.0, 2.0, -0.001, 3, "i").hypothesis_ok is True
    assert theorem_extended_sc(1.0, 2.0, 0.9, 3, "ii").hypothesis_ok is False
    assert theorem_extended_sc(1.0, 2.0, 1.01, 3, "ii").hypothesis_ok is True


def test_heinz_reverse_main_examples():
    rep = heinz_reverse_main(1.0, 16.0, 0.125, 2, "ii")
    assert rep.hypothesis_ok and rep.holds
    close(rep.lhs, 8.5)
    close(rep.rhs, 9.363961030678928, rel=1e-13)
    close(rep.gap, 0.8639610306789277, rel=1e-12)
    rep = heinz_reverse_main(3.0, 3.0, 2.0, 2, "i")
    close(rep.gap, 0.0, abs_tol=1e-12)
    rep = heinz_reverse_main(1.0, 16.0, 0.875, 2, "i")
    close(rep.rhs, 9.363961030678928, rel=1e-13)


def test_heinz_reverse_sc_examples():
    rep = heinz_reverse_sc(1.0, 4.0, 2.0, 1, "i")
    assert rep.hypothesis_ok and rep.holds
    close(rep.lhs, 2.5)
    close(rep.rhs, 10.125, rel=1e-12)
    close(rep.gap, 7.625, rel=1e-12)
    rep = heinz_reverse_sc(9.0, 9.0, -1.0, 3, "i")
    close(rep.gap, 0.0, abs_tol=1e-12)
    rep = heinz_reverse_sc(1.0, 4.0, -1.0, 1, "ii")
    close(rep.rhs, 10.125, rel=1e-12)
    close(rep.lhs, 2.5)


# ---------------------------------------------------------------------------
# Oracle cross-checks on random points
# ---------------------------------------------------------------------------

@settings(max_examples=60)
@given(a=positive, b=positive, v=wide_weight, n=depth)
def test_main_reverse_matches_oracle(a, b, v, n):
    for branch in ("i", "ii"):
        rep = theorem_main_reverse(a, b, v, n, branch)
        ref = float(oracles.rhs_main_reverse(a, b, v, n, branch))
        close(rep.rhs, ref, rel=5e-14, abs_tol=5e-14 * (abs(ref) + a + b))


@settings(max_examples=60)
@given(a=positive, b=positive, v=unit_weight, n=depth)
def test_sm_reverse_matches_oracle(a, b, v, n):
    branch = "i" if v <= 0.5 else "ii"
    rep = lemma_sm_reverse(a, b, v, n, branch)
    close(rep.rhs, float(oracles.rhs_sm_reverse(a, b, v, n, branch)))


@settings(max_examples=60)
@given(a=positive, b=positive, v=wide_weight, n=depth)
def test_extended_sc_matches_oracle(a, b, v, n):
    for branch in ("i", "ii"):
        rep = theorem_extended_sc(a, b, v, n, branch)
        ref = float(oracles.rhs_extended_sc(a, b, v, n, branch))
        close(rep.rhs, ref, rel=5e-14, abs_tol=5e-14 * (abs(ref) + a + b))


@settings(max_examples=40)
@given(a=positive, b=positive, v=wide_weight,
       n=st.integers(min_value=2, max_value=8))
def test_heinz_families_match_oracle(a, b, v, n):
    for branch in ("i", "ii"):
        ref = float(oracles.rhs_heinz_main(a, b, v, n, branch))
        close(heinz_reverse_main(a, b, v, n, branch).rhs, ref,
              rel=5e-14, abs_tol=5e-14 * (abs(ref) + a + b))
        ref = float(oracles.rhs_heinz_sc(a, b, v, n, branch))
        close(heinz_reverse_sc(a, b, v, n, branch).rhs, ref,
              rel=5e-14, abs_tol=5e-14 * (abs(ref) + a + b))


@settings(max_examples=60)
@given(v=unit_weight, a=positive, b=positive, n=st.integers(min_value=1, max_value=10))
def test_refinement_sum_matches_oracle_and_is_nonnegative(v, a, b, n):
    value = refinement_sum_s(v, a, b, n)
    close(value, float(oracles.refinement_sum(v, a, b, n)),
          abs_tol=1e-15 * (a + b))
    assert value >= -1e-15 * (a + b)


# ---------------------------------------------------------------------------
# Structural properties
# ---------------------------------------------------------------------------

@given(v=unit_weight, k=st.integers(min_value=1, max_value=20))
def test_index_coherence(v, k):
    idx = sababheh_indices(v, k)
    assert idx.r in (2 * idx.j, 2 * idx.j + 1)
    nxt = sababheh_indices(v, k + 1)
    assert nxt.j in (2 * idx.j, 2 * idx.j + 1)
    assert -1e-12 <= idx.s <= 0.5 + 1e-12


@given(a=positive, b=positive, v=wide_weight, n=depth)
def test_main_reverse_mirror_is_exact(a, b, v, n):
    lo = theorem_main_reverse(a, b, v, n, "ii")
    hi = theorem_main_reverse(b, a, 1.0 - v, n, "i")
    assert lo.rhs == hi.rhs and lo.lhs == hi.lhs and lo.gap == hi.gap
    assert lo.hypothesis_ok == hi.hypothesis_ok


@given(a=positive, b=positive, v=st.floats(min_value=0.5, max_value=1.0), n=depth)
def test_sm_mirror_is_exact(a, b, v, n):
    lo = lemma_sm_reverse(a, b, v, n, "ii")
    hi = lemma_sm_reverse(b, a, 1.0 - v, n, "i")
    assert lo.rhs == hi.rhs and lo.lhs == hi.lhs and lo.gap == hi.gap


@given(a=positive, b=positive, v=wide_weight,
       n=st.integers(min_value=2, max_value=8))
def test_heinz_swap_invariance_is_exact(a, b, v, n):
    assert heinz_reverse_main(a, b, v, n, "ii").rhs == \
        heinz_reverse_main(b, a, 1.0 - v, n, "i").rhs
    assert heinz_reverse_sc(a, b, v, n, "ii").rhs == \
        heinz_reverse_sc(b, a, 1.0 - v, n, "i").rhs


@given(a=positive, b=positive, v=unit_weight)
def test_zhao_wu_restatement_identity_is_exact(a, b, v):
    lemma = zhao_wu_reverse(a, b, v, "lemma")
    proposition = zhao_wu_reverse(a, b, v, "proposition")
    assert lemma.rhs == proposition.rhs


@given(a=positive, b=positive, v=wide_weight)
def test_reduction_to_one_term_bound(a, b, v):
    # empty tail sum: depth-1 dyadic branch i is bitwise the one-term branch ii
    assert theorem_main_reverse(a, b, v, 1, "i").rhs == \
        corollary_one_term(a, b, v, "ii").rhs
    assert theorem_main_reverse(a, b, v, 1, "i").hypothesis_ok == \
        corollary_one_term(a, b, v, "ii").hypothesis_ok
    # the mirrored branch agrees up to rounding of the swapped weight
    close(theorem_main_reverse(a, b, v, 1, "ii").rhs,
          corollary_one_term(a, b, v, "i").rhs, rel=1e-13,
          abs_tol=1e-13 * (a + b))


@given(a=positive, v=wide_weight, n=depth)
def test_equality_at_equal_operands(a, v, n):
    reports = [
        reverse_young_basic(a, a, v),
        corollary_one_term(a, a, v, "i"),
        corollary_one_term(a, a, v, "ii"),
        theorem_main_reverse(a, a, v, n, "i"),
        theorem_main_reverse(a, a, v, n, "ii"),
        theorem_extended_sc(a, a, v, n, "i"),
        theorem_extended_sc(a, a, v, n, "ii"),
        heinz_reverse_sc(a, a, v, n, "i"),
    ]
    if 0.0 <= v <= 1.0:
        reports += [
            kittaneh_manasrah(a, a, v),
            zhao_wu_forward(a, a, v),
            zhao_wu_reverse(a, a, v, "lemma"),
            sababheh_choi_forward(a, a, v, n),
            lemma_sm_reverse(a, a, v, n, "i" if v <= 0.5 else "ii"),
        ]
    for rep in reports:
        tau = scalar.REL_TOL * (abs(rep.lhs) + abs(rep.rhs))
        assert abs(rep.gap) <= tau, rep


def test_verdict_tolerance_contract():
    rep = theorem_main_reverse(1.0, 16.0, 0.125, 2, "i")
    tau = scalar.REL_TOL * (abs(rep.lhs) + abs(rep.rhs))
    assert rep.holds == (rep.gap >= -tau)


# ---------------------------------------------------------------------------
# Logarithmic limit behavior
# ---------------------------------------------------------------------------

def test_log_limit_gap_examples():
    b = math.exp(2.0)
    assert log_limit_gap(1.0, b, 20) <= 1e-5
    assert log_limit_gap(3.0, 3.0, 12) == 0.0
    assert limit_inequality_slack(1.0, 16.0, 0.5) == 0.0


@given(a=positive, b=positive, n=st.integers(min_value=5, max_value=20))
def test_log_limit_gap_matches_oracle(a, b, n):
    close(log_limit_gap(a, b, n), float(oracles.delta_log_limit(a, b, n)),
          abs_tol=1e-13 * (1.0 + abs(math.log(b / a))))


@given(x=st.floats(min_value=1e-6, max_value=1e6))
def test_fundamental_log_slack_nonnegative(x):
    assert fundamental_log_slack(x) >= 0.0


@given(a=positive, b=positive, v=wide_weight)
def test_limit_inequality_slack_nonnegative(a, b, v):
    assert limit_inequality_slack(a, b, v) >= 0.0


# ---------------------------------------------------------------------------
# Comparison polynomials and gap-bound comparison
# ---------------------------------------------------------------------------

def test_comparison_poly_examples():
    assert comparison_poly_f(1.0, 0.3) == pytest.approx(0.0, abs=1e-12)
    close(comparison_poly_f(2.0, 0.75), 20.0, rel=1e-12)
    close(comparison_poly_f(0.5, 1.0), 0.8125, rel=1e-12)
    assert comparison_poly_g(1.0, -2.0) == pytest.approx(0.0, abs=1e-12)
    close(comparison_poly_g(2.0, 0.75), 32.5, rel=1e-12)
    close(comparison_poly_g(3.0, 1.0), 1000.0, rel=1e-12)
    with pytest.raises(DomainError):
        comparison_poly_f(0.0, 0.8)
    with pytest.raises(DomainError):
        comparison_poly_g(-1.0, 0.8)


@given(x=st.floats(min_value=1e-2, max_value=1e2),
       v=st.floats(min_value=0.75, max_value=1.0))
def test_comparison_polys_nonnegative_on_their_window(x, v):
    scale = 20.0 * max(1.0, x) ** 6
    assert comparison_poly_f(x, v) >= -1e-12 * scale
    assert comparison_poly_g(x, v) >= -1e-12 * scale


def test_compare_gap_bounds_reference_point():
    rep = compare_gap_bounds(1.0, 16.0, 0.125, 3)
    values = {g.label: g for g in rep.bounds}
    dyadic = values["theorem-main-reverse/i/n2"]
    assert dyadic.hypothesis_ok
    assert abs(dyadic.value - 4.875) <= 1e-12
    sm = values["lemma-sm-reverse/i/n2"]
    assert sm.hypothesis_ok
    close(sm.value, 6.188708498984760, rel=1e-9)
    assert ("theorem-main-reverse/i/n2", "lemma-sm-reverse/i/n2") in {
        (t, l) for (t, l, _) in rep.dominance}
    close(rep.true_gap, 2.875 - 1.4142135623730951, rel=1e-13)


def test_compare_gap_bounds_equal_operands():
    rep = compare_gap_bounds(4.0, 4.0, 0.3, 3)
    assert abs(rep.true_gap) <= 1e-12
    for bound in rep.bounds:
        assert abs(bound.value) <= 1e-12


@settings(max_examples=40)
@given(a=positive, b=positive, v=unit_weight)
def test_valid_gap_bounds_dominate_true_gap(a, b, v):
    rep = compare_gap_bounds(a, b, v, 3)
    for bound in rep.bounds:
        if bound.hypothesis_ok:
            assert bound.value - rep.true_gap >= \
                -1e-9 * (abs(bound.value) + abs(rep.true_gap)) - 1e-13 * (a + b)


@settings(max_examples=60)
@given(a=positive, b=positive, v=unit_weight, n=st.integers(min_value=2, max_value=6))
def test_dominance_lists_every_ordered_pair_of_valid_bounds_once(a, b, v, n):
    rep = compare_gap_bounds(a, b, v, n)
    values = {g.label: g.value for g in rep.bounds if g.hypothesis_ok}
    for tighter, looser, margin in rep.dominance:
        assert tighter != looser and tighter in values and looser in values
        assert margin == values[looser] - values[tighter] >= 0.0
    expected = {(t, l) for t in values for l in values
                if t != l and values[l] - values[t] >= 0.0}
    pairs = [(t, l) for t, l, _ in rep.dominance]
    assert len(pairs) == len(expected) and set(pairs) == expected


# ---------------------------------------------------------------------------
# Family table: hypothesis flags, argument checks, verdict tolerance
# ---------------------------------------------------------------------------

_MIRRORED = {"theorem-main-reverse", "lemma-sm-reverse", "theorem-extended-sc",
             "heinz-reverse-main", "heinz-reverse-sc"}


def _weights_near_windows(n):
    """Every window endpoint at depth n, its float neighbours and its mirror,
    with the signed zeros, 1/2 and 1."""
    windows = [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0), window_dyadic_high(n),
               window_dyadic_low(n), window_sc_low(n), window_sc_high(n)]
    points = {0.0, -0.0, 0.5, 1.0}
    for end in (end for window in windows for end in window):
        points |= {end, math.nextafter(end, -math.inf), math.nextafter(end, math.inf),
                   1.0 - end}
    return sorted(points) + [-0.0]  # the set keeps only one of the zeros


def _written_out_flag(family, branch, v, n):
    """hypothesis_ok as the window functions give it; None where the
    evaluator raises because v is outside its domain."""
    if branch == "ii" and family in _MIRRORED:
        return _written_out_flag(family, "i", 1.0 - v, n)
    if family == "zhao-wu-forward" and v > 0.5:
        v = 1.0 - v  # the weight selects the mirrored side
    if family in ("theorem-main-reverse", "heinz-reverse-main"):
        lo, hi = window_dyadic_high(n)
    elif family in ("theorem-extended-sc", "heinz-reverse-sc"):
        lo, hi = window_sc_low(n)
    elif family in ("corollary-one-term", "lemma-sm-reverse"):
        lo, hi = (0.5, 1.0) if branch == "ii" else (0.0, 0.5)
    else:
        lo, hi = 0.0, 1.0
    if family in ("lemma-sm-reverse", "sababheh-choi-forward"):
        return True if lo <= v <= hi else None
    if family in ("kittaneh-manasrah", "zhao-wu-forward", "zhao-wu-reverse"):
        return lo <= v <= hi
    return not lo <= v <= hi


def test_every_row_flags_the_written_out_window_at_every_depth():
    for row in SCALAR_ROWS:
        depths = [None] if row.min_depth is None else range(row.min_depth, scalar.MAX_DEPTH + 1)
        for n in depths:
            for v in _weights_near_windows(n or 3):
                expected = _written_out_flag(row.family, row.branch, v, n)
                if expected is None:
                    with pytest.raises(DomainError):
                        row.evaluate(3.0, 0.5, v, n)
                else:
                    rep = row.evaluate(3.0, 0.5, v, n)
                    assert rep.hypothesis_ok is expected, (row.key, n, v)


@pytest.mark.parametrize("n", range(2, 7))
def test_compare_flags_match_the_written_out_windows(n):
    for v in _weights_near_windows(n):
        flags = {g.label: g.hypothesis_ok for g in compare_gap_bounds(3.0, 0.5, v, n).bounds}
        expected = {"corollary-one-term/i": not 0.0 <= v <= 0.5,
                    "corollary-one-term/ii": not 0.5 <= v <= 1.0}
        for d in range(2, n + 1):
            lo, hi = window_dyadic_high(d)
            expected[f"theorem-main-reverse/i/n{d}"] = not lo <= v <= hi
            lo, hi = window_dyadic_low(d)
            expected[f"theorem-main-reverse/ii/n{d}"] = not lo <= v <= hi
        if 0.0 <= v <= 1.0:  # the two-term and indexed bounds: listed only where valid
            expected.update({"zhao-wu-reverse/lemma": True,
                             "zhao-wu-reverse/proposition": True})
            for d in range(2, n + 1):
                if v <= 0.5:
                    expected[f"lemma-sm-reverse/i/n{d}"] = True
                if v >= 0.5:
                    expected[f"lemma-sm-reverse/ii/n{d}"] = True
        assert flags == expected, (n, v)


@pytest.mark.parametrize("call, message", [
    (lambda: heinz_reverse_main(1.0, 2.0, 3.0, 1, "i"),
     "depth must satisfy 2 <= n <= 30, got n=1"),
    (lambda: heinz_reverse_main(1.0, 2.0, 3.0, 1, "ii"),
     "depth must satisfy 2 <= n <= 30, got n=1"),
    (lambda: sababheh_choi_forward(1.0, 2.0, 0.5, 0),
     "depth must satisfy 1 <= n <= 30, got n=0"),
    (lambda: theorem_extended_sc(1.0, 2.0, 3.0, 2, "x"),
     "branch must be 'i' or 'ii', got 'x'"),
    (lambda: corollary_one_term(1.0, 2.0, 3.0, ""),
     "branch must be 'i' or 'ii', got ''"),
    (lambda: zhao_wu_reverse(1.0, 2.0, 0.5, "ii"),
     "form must be 'lemma' or 'proposition', got 'ii'"),
    # the weight is checked first, the operands next, the form last
    (lambda: zhao_wu_reverse(-1.0, 2.0, math.nan, "x"), "weight must be finite, got v=nan"),
    (lambda: zhao_wu_reverse(-1.0, 2.0, 0.5, "x"), "operands must be finite and > 0"),
    # a mirrored call names the caller's own arguments and window, checked
    # in branch i's order: depth, then window, then operands
    (lambda: lemma_sm_reverse(1, 2, 0.2, 2, "ii"),
     "branch ii requires v in [1/2, 1], got v=0.2"),
    (lambda: lemma_sm_reverse(1, 2, 0.8, 2, "i"),
     "branch i requires v in [0, 1/2], got v=0.8"),
    (lambda: lemma_sm_reverse(-1.0, 2.0, 0.2, 2, "ii"),
     "branch ii requires v in [1/2, 1], got v=0.2"),
    (lambda: heinz_reverse_main(-1.0, 2.0, 3.0, 1, "ii"),
     "depth must satisfy 2 <= n <= 30, got n=1"),
])
def test_argument_checks_keep_their_messages(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value).startswith(message)


def test_tol_is_the_verdict_tolerance_and_not_a_report_field():
    reports = [theorem_main_reverse(1.0, 16.0, 0.125, 2, "i"),
               reverse_young_basic(1.0, 16.0, 0.5),  # inside its window: violated
               kittaneh_manasrah(5.0, 5.0, 0.3),  # equal operands: gap ~ 0
               lemma_sm_reverse(2.0, 7.0, 0.75, 3, "ii")]
    assert not reports[1].holds
    for rep in reports:
        assert "tol" not in rep.as_dict()
        assert rep.tol == scalar.REL_TOL * (abs(rep.lhs) + abs(rep.rhs))
        assert rep.holds == (rep.gap >= -rep.tol)
    # gaps of -tol/2 and -3 tol/2: the verdict turns at exactly -tol
    family = scalar.SCALAR_BY_KEY["reverse-young-basic"]
    for rhs, holds in ((1.0 - 1e-9, True), (1.0 - 3e-9, False)):
        rep = scalar._report(family, "", 1.0, 2.0, 3.0, None, 1.0, rhs, upper=True)
        assert rep.holds is holds and rep.holds == (rep.gap >= -rep.tol)


# every evaluator that mirrors a call to (b, a, 1-v): the branch-ii rows, and
# zhao-wu-forward, whose weights above 1/2 select its mirrored side
_MIRRORING_ROWS = [row for row in SCALAR_ROWS
                   if row.branch == "ii" or row.family == "zhao-wu-forward"]


@pytest.mark.parametrize("row", _MIRRORING_ROWS, ids=lambda row: row.key)
@pytest.mark.parametrize("a, b, v, message", [
    (-1.0, 2.0, 0.7, "operands must be finite and > 0, got a=-1.0, b=2.0"),
    (1.0, math.inf, 0.7, "operands must be finite and > 0, got a=1.0, b=inf"),
    (1.0, 2.0, math.inf, "weight must be finite, got v=inf"),
])
def test_mirrored_calls_name_the_callers_arguments(row, a, b, v, message):
    with pytest.raises(DomainError) as err:
        row.evaluate(a, b, v, row.min_depth)
    assert str(err.value) == message



# ---------------------------------------------------------------------------
# Known answers: every report field, every dominance label and margin
# ---------------------------------------------------------------------------

def _digest(records) -> str:
    return hashlib.sha256(reporting.dumps(records).encode()).hexdigest()


# sha256 of compare_gap_bounds(1, t, v, n).as_dict() over the grid of the
# compare/bound-validity claim (20 ratios x 21 weights) at n = 2, 3, 4, and of
# row.evaluate(a, b, v, n).as_dict() (or the DomainError message) for every
# scalar row on a lattice that takes in branch ii, weights outside each
# hypothesis, window endpoints, bad operands and weights, and depths 1-6
COMPARE_GRID_SHA256 = (
    "3f5b2a6074aa8f7397ef1e11895f1742cd0a1d677872d110e2d2eb91524a3d20")
ROW_LATTICE_SHA256 = (
    "cb57ff95705ee028e3e0f7a0e391d91d08195c60811196258d5854ea3124a739")
_LATTICE_A = (-1.0, 0.03, 1.0, 7.0)
_LATTICE_B = (0.5, 1.0, 250.0)
_LATTICE_V = (-2.5, -0.25, 0.0, 1 / 32, 0.1, 0.25, 3 / 8, 0.45, 0.5, 17 / 32, 9 / 16,
              5 / 8, 0.7, 0.75, 31 / 32, 1.0, 1.3, 4.0, math.inf)


def test_compare_and_row_reports_known_answer():
    from meanbound.harness import _lin_grid, _log_grid

    compared = [compare_gap_bounds(1.0, t, v, n).as_dict()
                for n in (2, 3, 4)
                for t in _log_grid(1e-3, 1e3, 20) for v in _lin_grid(0.0, 1.0, 21)]
    records = []
    for row in SCALAR_ROWS:
        for a in _LATTICE_A:
            for b in _LATTICE_B:
                for v in _LATTICE_V:
                    for n in range(1, 7):
                        try:
                            records.append(row.evaluate(a, b, v, n).as_dict())
                        except DomainError as exc:
                            records.append({"row": row.key, "error": str(exc)})
    assert (_digest(compared), _digest(records)) == (COMPARE_GRID_SHA256, ROW_LATTICE_SHA256)


# sha256 over the dyadic root sums at depths past the lattice above: every
# report (or error message) of the four root-sum families, both branches, and
# gap_bound_main_reverse / gap_bound_extended_sc, at depths 7-30, operands from
# 1e-300 to 1e300 and ratios b/a out to e^+-700, weights on both sides of
# every window; repr keeps each float's exact bits
DEEP_DYADIC_SHA256 = (
    "1aa4137f281a985aae0b770572cabe9b094bce2c9d8ca4ad8ce5feaa1871741c")
_DEEP_A = (1e-300, 1.0, 1e300)
_DEEP_LOG_RATIO = (-700.0, -40.0, -3.0, 0.0, 1e-6, 3.0, 40.0, 700.0)
_DEEP_V = (-3.0, 2.0 ** -30, 0.25, 0.5 + 2.0 ** -30, 1.0 - 2.0 ** -30, 1.0, 4.0)
_DEEP_ROWS = (theorem_main_reverse, theorem_extended_sc, heinz_reverse_main, heinz_reverse_sc)


def test_deep_dyadic_sums_known_answer():
    digest = hashlib.sha256()
    for a in _DEEP_A:
        for lr in _DEEP_LOG_RATIO:
            b = a * math.exp(lr)
            for v in _DEEP_V:
                for n in range(7, scalar.MAX_DEPTH + 1):
                    for evaluate in _DEEP_ROWS:
                        for branch in ("i", "ii"):
                            try:
                                out = tuple(evaluate(a, b, v, n, branch))
                            except (DomainError, OverflowError) as exc:
                                out = str(exc)
                            digest.update(repr(out).encode())
                    if math.isfinite(b) and b > 0.0:
                        out = (scalar.gap_bound_main_reverse(a, b, v, n),
                               scalar.gap_bound_extended_sc(a, b, v, n))
                        digest.update(repr(out).encode())
    assert digest.hexdigest() == DEEP_DYADIC_SHA256


# A false failure, kept in view until the verdict is scaled to the size of
# the rhs's cancelling terms: at b/a = e^700 and v = 2^-30 the rhs cancels
# (1-v)(sqrt a - sqrt b)^2 against (2v-1) sqrt(ab) times the tail, so its
# rounding error is about 1e-16 b, while the tolerance REL_TOL * (|lhs| +
# |rhs|) scales with the sides, about v b, so it is about 2e-18 b.  In
# float64 the gap reads -2.2e288 against a tol of 1.9e286 (hypothesis_ok
# True); the 400-digit mpmath formula gives +1.6e-139 of the lhs at n = 7
# (and +3.7e-141 at n = 30): the bound holds.
@pytest.mark.xfail(strict=True, reason="rhs cancellation at b/a = e^700, v = 2^-30: "
                   "float64 gap -2.2e288 vs tol 1.9e286, 400-digit oracle gap "
                   "+1.6e-139 relative at n = 7; fixed by a scaled verdict")
@pytest.mark.parametrize("n", [7, 30])
def test_main_reverse_holds_at_extreme_ratio_and_tiny_weight(n):
    rep = theorem_main_reverse(1.0, math.exp(700.0), 2.0 ** -30, n, "i")
    assert rep.hypothesis_ok
    assert rep.holds
