"""Harness: sampling, random SPD generation, suites, determinism, replay."""

import builtins
import dataclasses
import hashlib
import inspect
import math
import sys
from collections import Counter

import numpy as np
import pytest

from meanbound import harness, reporting, scalar
from meanbound.harness import (
    OPERATOR_ROWS,
    SCALAR_ROWS,
    ConfigError,
    EmptyRegionError,
    Region,
    SuiteConfig,
    random_spd,
    replay_operator_failure,
    replay_scalar_failure,
    run_all,
    run_comparison_suite,
    run_operator_suite,
    run_scalar_suite,
    sample_weight,
)
from meanbound.matrices import LOEWNER_REL_TOL, MatrixError
from meanbound.operators import OperatorBoundReport
from meanbound.rng import Xoshiro256StarStar, derive_seed
from meanbound.scalar import (
    MAX_DEPTH,
    BoundReport,
    window_dyadic_high,
    window_dyadic_low,
    window_sc_high,
    window_sc_low,
)

SMALL = SuiteConfig(trials=40, grid_points=10)
# an interpreter that limits int-to-text conversion (4300 digits by default)
# cannot print 10 ** 5000, so messages show such an int by its bit length
LIMITED_INT_TEXT = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() <= 5000,
    reason="this interpreter prints ints of any length")


# ---------------------------------------------------------------------------
# RNG plumbing
# ---------------------------------------------------------------------------

def test_xoshiro_determinism_and_range():
    a = Xoshiro256StarStar(123)
    b = Xoshiro256StarStar(123)
    assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]
    c = Xoshiro256StarStar(124)
    assert a.next_u64() != c.next_u64()
    r = Xoshiro256StarStar(5)
    values = [r.random() for _ in range(1000)]
    assert all(0.0 <= x < 1.0 for x in values)
    assert 0.4 < sum(values) / len(values) < 0.6


def test_derive_seed_sensitivity():
    assert derive_seed(1, "x", 0) != derive_seed(1, "x", 1)
    assert derive_seed(1, "x", 0) != derive_seed(1, "y", 0)
    assert derive_seed(1, "x", 0) == derive_seed(1, "x", 0)


# ---------------------------------------------------------------------------
# Weight sampling
# ---------------------------------------------------------------------------

def test_sample_weight_outside_window():
    rng = Xoshiro256StarStar(7)
    region = Region("outside", 0.5, 0.75)
    assert region.intervals((-2.0, 3.0), 1e-6) == [(-2.0, 0.5 - 1e-6), (0.75 + 1e-6, 3.0)]
    for _ in range(500):
        v = sample_weight(region, (-2.0, 3.0), 1e-6, rng)
        assert -2.0 <= v <= 3.0
        assert v <= 0.5 - 1e-6 or v >= 0.75 + 1e-6


def test_sample_weight_window_disjoint_from_range():
    rng = Xoshiro256StarStar(7)
    region = Region("outside", 0.0, 0.125)
    assert region.intervals((0.2, 0.3), 1e-6) == [(0.2, 0.3)]
    for _ in range(100):
        assert 0.2 <= sample_weight(region, (0.2, 0.3), 1e-6, rng) <= 0.3


def test_sample_weight_empty_region():
    rng = Xoshiro256StarStar(7)
    with pytest.raises(EmptyRegionError):
        sample_weight(Region("outside", 0.0, 1.0), (0.1, 0.9), 1e-6, rng)


def test_region_of_an_unknown_kind_is_a_config_error():
    with pytest.raises(ConfigError, match="^unknown region kind 'between'$"):
        Region("between", 0.0, 1.0).intervals((-6.0, 6.0), 1e-6)


def test_sample_weight_rejects_pieces_wider_than_the_float_range():
    rng = Xoshiro256StarStar(7)
    with pytest.raises(ConfigError, match="wider than the floating-point range"):
        sample_weight(Region("outside", 0.0, 1.0), (-1e308, 1e308), 1e-6, rng)
    assert sample_weight(Region("outside", 0.0, 1.0), (-8e307, 8e307), 1e-6, rng) < 8e307


def test_sample_weight_inside_region_margin():
    rng = Xoshiro256StarStar(11)
    region = Region("inside", 0.0, 0.5)
    for _ in range(300):
        v = sample_weight(region, (-6.0, 6.0), 1e-3, rng)
        assert 1e-3 <= v <= 0.5 - 1e-3


# ---------------------------------------------------------------------------
# Random SPD generation
# ---------------------------------------------------------------------------

def test_random_spd_deterministic():
    a = random_spd(4, 1e4, Xoshiro256StarStar(42))
    b = random_spd(4, 1e4, Xoshiro256StarStar(42))
    assert np.array_equal(a.entries, b.entries)


def test_random_spd_conditioning():
    rng = Xoshiro256StarStar(3)
    for _ in range(20):
        m = random_spd(4, 1e4, rng)
        assert m.certified_min_eig >= 1e-2 * (1.0 - 1e-9)
        assert float(np.max(m.decomp.lam)) <= 1e2 * (1.0 + 1e-9)


def test_random_spd_one_by_one():
    rng = Xoshiro256StarStar(9)
    m = random_spd(1, 1e4, rng)
    assert m.dim == 1
    assert 1e-2 <= m.entries[0, 0] <= 1e2


def test_random_spd_bad_args():
    with pytest.raises(ConfigError):
        random_spd(0, 1e4, Xoshiro256StarStar(1))
    with pytest.raises(ConfigError):
        random_spd(2, 0.5, Xoshiro256StarStar(1))
    with pytest.raises(ConfigError, match="^dim must be an integer >= 1, got "):
        random_spd(-10 ** 5000, 1e4, Xoshiro256StarStar(1))


# sha256 of random_spd(dim, 1e4, Xoshiro256StarStar(seed)).entries: the
# generated matrices are pinned bit for bit, since seeded reports depend on them
RANDOM_SPD_DIGESTS = [
    (0, 1, "023f6e6a9b32dae5299c67d507fee23b290ce89f2ee5b00981dc5147ede1c988"),
    (0, 2, "92e3f360766553a03753d77c7fba9365d9cac4ba385c9ee93e1ce9b9a0b7e62b"),
    (0, 3, "41228deb1333a70aea8ff0d3e3fd9950734de2fe642ce0ed7ab906bb812e5d35"),
    (0, 4, "dddfd76201e07bca4db1f474e73da8cd142f1235f3d1bcdd2435b7e832de9493"),
    (0, 8, "5d5033a840df5a047c6c8abe0076eb5c7fe58aa0550f6898647d4050af50ce49"),
    (7, 1, "c092a023304b9525d30f01279dcb658b2ea3d16e70964400df197926bb40c5c8"),
    (7, 2, "cda7f8d57f3a4acbaa60d7f40e4d81718fa9f937df47f41a3a6fb00a4ea7d3fa"),
    (7, 3, "3b2e5d96332ca7a29226f2f808d665b1684fd4591f4b02da90794f708a635edc"),
    (7, 4, "e6792261008b54ea021f586bdee3b12638a6e2b7ad56ef3dc80ff2e8a128ce52"),
    (7, 8, "72815df4cd5cbe90dbfa51e7eb5a334f8a4147bc50ab82f4b16f74be31382757"),
    (2**64 - 1, 1, "7fd9296e9f8cd118440f729ffff6e15c7f2d4582584730672f7974839934a3dc"),
    (2**64 - 1, 2, "71f1c02d781041c15cca83302506f88a664f0790d87313d63272b8b21302a3a4"),
    (2**64 - 1, 3, "f4f19a17a7080fac7fa49208bad9389cb27e053eb990d341e765bc7985b9482f"),
    (2**64 - 1, 4, "2b3c6853ae2cab84a9f7dd445c322d52ac482dd457237033a3ac9272e7dd1330"),
    (2**64 - 1, 8, "342877185f7bfa65790b7811972177ba52934fee5df784a3836f4e77977e8c8b"),
]


@pytest.mark.parametrize("seed,dim,digest", RANDOM_SPD_DIGESTS)
def test_random_spd_known_answer(seed, dim, digest):
    entries = random_spd(dim, 1e4, Xoshiro256StarStar(seed)).entries
    assert entries.flags.c_contiguous and not entries.flags.writeable
    assert hashlib.sha256(entries.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("dim,cond_max", [
    (2, math.inf), (2, math.nan), (2, "1e4"), (2.0, 1e4), (True, 1e4),
    pytest.param(2, 10 ** 400, id="2-huge-int")])
def test_random_spd_takes_the_suite_settings_rule(dim, cond_max):
    # an integer dim >= 1 (no bool) and 1 <= cond_max < inf, as validate asks
    with pytest.raises(ConfigError, match="^(dim|cond_max) must be"):
        random_spd(dim, cond_max, Xoshiro256StarStar(1))


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig(trials=0).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(scalar_range=(1.0, 0.1)).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(v_range=(2.0, 2.0)).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(dims=()).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(depths=(0,)).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(depths=(31,)).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(families=("no-such-family",)).validate()
    SMALL.validate()


@pytest.mark.parametrize("field, value, message", [
    ("seed", 2 ** 64, f"seed must be a 64-bit unsigned integer, got {2 ** 64}"),
    ("trials", 0, "trials must be >= 1, got 0"),
    ("scalar_range", (1.0, 0.1), "scalar_range must satisfy 0 < lo < hi, got (1.0, 0.1)"),
    ("v_range", [2.0, 2.0],
     "v_range must satisfy lo < hi with a finite width hi - lo, got [2.0, 2.0]"),
    ("dims", (2, 0), "dims must be positive integers, got (2, 0)"),
    ("cond_max", 0.5, "cond_max must be finite and >= 1, got 0.5"),
    ("depths", (31,), "depths must lie in 1..30, got (31,)"),
    ("margin", -1e-6, "margin must be finite and >= 0, got -1e-06"),
    ("grid_points", 2, "grid_points must be >= 3, got 2"),
    # an int too long to print is shown by its bit length, not a bare ValueError
    pytest.param("seed", 10 ** 5000, "seed must be a 64-bit unsigned integer, got "
                 "<int of 16610 bits>", marks=LIMITED_INT_TEXT, id="seed-huge-int"),
    pytest.param("margin", 10 ** 5000, "margin must be a real number, got <int of 16610 bits>",
                 marks=LIMITED_INT_TEXT, id="margin-huge-int"),
    pytest.param("trials", -10 ** 5000, "trials must be >= 1, got <negative int of 16610 bits>",
                 marks=LIMITED_INT_TEXT, id="trials-huge-negative-int"),
    pytest.param("depths", (10 ** 5000,), "depths must lie in 1..30, got "
                 "(<int of 16610 bits>,)", marks=LIMITED_INT_TEXT, id="depths-huge-int"),
    pytest.param("dims", [-10 ** 5000], "dims must be positive integers, got "
                 "[<negative int of 16610 bits>]", marks=LIMITED_INT_TEXT, id="dims-huge-int"),
])
def test_config_value_rule_messages(field, value, message):
    # one bad value per rule, each with the exact words its error gives
    with pytest.raises(ConfigError) as info:
        dataclasses.replace(SMALL, **{field: value}).validate()
    assert str(info.value) == message


@pytest.mark.parametrize("field", ["cond_max", "margin"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_config_rejects_non_finite_settings(field, value):
    with pytest.raises(ConfigError, match=field):
        dataclasses.replace(SMALL, **{field: value}).validate()


@pytest.mark.parametrize("field, value", [
    ("families", None), ("families", 5), ("families", "t6"), ("families", ("t6", 6)),
    ("dims", 5), ("dims", (True,)), ("depths", 5), ("depths", (2.0,)),
    ("scalar_range", 5), ("scalar_range", (1.0, 2.0, 3.0)), ("v_range", None),
    ("v_range", ("0", "1")), ("grid_points", "3"), ("grid_points", 3.5),
    ("margin", "x"), ("cond_max", None), ("boundary_probe", "no"),
    ("seed", True), ("trials", True), ("trials", 2.0),
    # an int past the float range is no real number: it overflowed where it met a float
    pytest.param("v_range", (0, 10 ** 400), id="v_range-huge-int"),
    pytest.param("scalar_range", (1, 10 ** 400), id="scalar_range-huge-int"),
    pytest.param("cond_max", 10 ** 400, id="cond_max-huge-int"),
    pytest.param("margin", 10 ** 400, id="margin-huge-int"),
])
def test_config_rejects_settings_of_the_wrong_type(field, value):
    # a wrong type is a ConfigError naming the setting, from validate and from
    # run_all alike, never a bare TypeError or a setting taken as another type
    cfg = dataclasses.replace(SMALL, **{field: value})
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        cfg.validate()
    with pytest.raises(ConfigError, match=f"^{field} must be "):
        run_all(cfg)


def test_depth_requirement_mismatch():
    cfg = SuiteConfig(trials=5, depths=(1,), families=("heinz-reverse-main",))
    with pytest.raises(ConfigError):
        run_scalar_suite(cfg)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def test_scalar_suite_counts_and_no_failures():
    rep = run_scalar_suite(SMALL)
    assert len(rep.rows) == len(SCALAR_ROWS)
    assert rep.total_failures == 0
    for row in rep.rows:
        assert row.passes + row.failures + row.skipped == row.trials
        assert row.worst_gap is None or row.worst_gap >= -1e-12


def test_scalar_suite_family_subset():
    cfg = dataclasses.replace(SMALL, families=("theorem-main-reverse",))
    rep = run_scalar_suite(cfg)
    assert {row.family for row in rep.rows} == {"theorem-main-reverse"}
    assert len(rep.rows) == 2


def test_scalar_suite_unreachable_hypothesis_skips():
    cfg = dataclasses.replace(SMALL, families=("reverse-young-basic",),
                              v_range=(0.1, 0.9))
    rep = run_scalar_suite(cfg)
    row = rep.rows[0]
    assert row.skipped == row.trials and row.failures == 0 and row.passes == 0


def test_operator_suite_counts_and_no_failures():
    cfg = SuiteConfig(trials=8)
    rep = run_operator_suite(cfg)
    assert len(rep.rows) == len(OPERATOR_ROWS)
    assert rep.total_failures == 0
    for row in rep.rows:
        assert row.passes + row.failures + row.skipped == row.trials


def test_operator_suite_at_high_condition_has_no_kernel_breakdown():
    # At this configuration an A^(-1/2) B A^(-1/2) congruence fails its
    # symmetry self-check (t6/ii trial 28, t66/ii trial 36); the Cholesky
    # congruence of the mean kernel must not.
    cfg = SuiteConfig(seed=20260811, trials=60, dims=(2, 4, 8), cond_max=1e8,
                      families=("operator",))
    rep = run_operator_suite(cfg)
    causes = [rec["cause"] for rec in rep.all_failure_records()]
    assert not [cause for cause in causes if cause.startswith("MatrixError")], causes


def test_comparison_suite_no_failures():
    rep = run_comparison_suite(SuiteConfig(trials=1, grid_points=10))
    assert rep.total_failures == 0
    keys = {row.key for row in rep.rows}
    assert "dominance/a3" in keys and "limit/delta-decay" in keys
    assert "compare/bound-validity" in keys


def test_boundary_probe_mode():
    cfg = dataclasses.replace(SMALL, boundary_probe=True)
    rep = run_scalar_suite(cfg)
    assert rep.total_failures == 0
    by_key = {row.key: row for row in rep.rows}
    # rows without probe points are skipped wholesale
    assert by_key["zhao-wu-reverse/lemma"].skipped == SMALL.trials
    assert by_key["theorem-main-reverse/i"].passes == SMALL.trials
    op = run_operator_suite(dataclasses.replace(SuiteConfig(trials=5),
                                                boundary_probe=True))
    assert op.total_failures == 0


def test_suite_determinism():
    doc1 = run_all(SMALL).to_doc(include_wall_time=False)
    doc2 = run_all(SMALL).to_doc(include_wall_time=False)
    assert doc1 == doc2
    other = run_all(dataclasses.replace(SMALL, seed=43)).to_doc(include_wall_time=False)
    assert other != doc1


def _report_text(cfg: SuiteConfig) -> str:
    return reporting.dumps(run_all(cfg).to_doc(include_wall_time=False))


# sha256 of the seed-5 scalar and comparison report: float arithmetic in
# Python and libm only, no LAPACK, so its bytes are pinned on every supported
# Python and numpy build (the operator rows are pinned by the verdict digests)
SCALAR_COMPARISON_REPORT_SHA256 = (
    "3c05c5a4eda1f540cbdefe9aa35d7ccf1f614f7e983888d42a531611450b5f7a")


def test_seeded_report_known_answer():
    text = _report_text(SuiteConfig(seed=5, trials=40, families=("scalar", "comparison")))
    assert hashlib.sha256(text.encode()).hexdigest() == SCALAR_COMPARISON_REPORT_SHA256


@pytest.mark.parametrize("probe,draws,per_trial", [
    (False, 2600, {3: 280, 4: 440}),
    (True, 2440, {2: 80, 3: 280, 4: 360})])
def test_scalar_trials_draw_through_one_generator_each(monkeypatch, probe, draws, per_trial):
    # every draw goes through the module-level generator class, one per
    # trial, so a wrapper put there (as a tracer does) sees them all; the
    # counts are those of the step-by-step generator
    made = []

    class Counting(harness.Xoshiro256StarStar):
        def __init__(self, seed):
            super().__init__(seed)
            self.draws = 0
            made.append(self)

        def next_u64(self):
            self.draws += 1
            return super().next_u64()

    monkeypatch.setattr(harness, "Xoshiro256StarStar", Counting)
    cfg = SuiteConfig(seed=5, trials=40, families=("scalar",), boundary_probe=probe)
    report = run_scalar_suite(cfg)
    assert len(made) == sum(row.trials for row in report.rows) == 40 * len(SCALAR_ROWS)
    assert sum(rng.draws for rng in made) == draws
    assert Counter(rng.draws for rng in made) == per_trial


@pytest.mark.parametrize("settings", [
    {}, {"trials": 600, "v_range": (-3000.0, 3000.0)},
    {"trials": 600, "scalar_range": (1e-150, 1e150), "v_range": (-50.0, 50.0)},
    {"trials": 600, "scalar_range": (1e-300, 1e300), "v_range": (-400.0, 400.0)},
    {"trials": 600, "depths": (1, 7, 30)}, {"trials": 600, "margin": 0.0},
    {"trials": 600, "boundary_probe": True},
    {"trials": 2500}])  # three substream chunks
def test_row_pass_gives_the_rows_of_the_trial_loop(monkeypatch, settings):
    # the row pass decides only clear passes and leaves every other trial,
    # and the least margin, to the evaluator: with the pass's lookup turned
    # off every trial goes through the evaluator, and each row is the same
    cfg = SuiteConfig(seed=5, families=("scalar",), **settings)
    decided = []
    clear_passes = harness._clear_passes
    monkeypatch.setattr(harness, "_clear_passes",
                        lambda *args: decided.append(sum(out := clear_passes(*args))) or out)
    batched = run_scalar_suite(cfg).rows
    assert (sum(decided) > 0) != cfg.boundary_probe
    monkeypatch.setattr(harness, "_PASS_FAMILIES", {})
    looped = run_scalar_suite(cfg).rows
    assert batched == looped
    assert ([None if row.worst_gap is None else row.worst_gap.hex() for row in batched]
            == [None if row.worst_gap is None else row.worst_gap.hex() for row in looped])
    assert reporting.dumps([row.failure_records for row in batched]) == reporting.dumps(
        [row.failure_records for row in looped])


def _claim_rows(cfg, monkeypatch, claims) -> tuple:
    """The comparison rows of cfg with ``claims`` and the cells the claims'
    array pass decides, then the rows with that pass turned off."""
    monkeypatch.setattr(harness, "_comparison_claims", lambda: claims)
    decided = []
    clear = harness._clear
    monkeypatch.setattr(harness, "_clear",
                        lambda *args: decided.append(sum(out := clear(*args))) or out)
    batched = run_comparison_suite(cfg).rows
    monkeypatch.setattr(harness, "_clear", lambda _, margin, *rest: [False] * margin.shape[-1])
    return batched, sum(decided), run_comparison_suite(cfg).rows


@pytest.mark.parametrize("grid_points", [3, 16, 50])
@pytest.mark.parametrize("scalar_range", [(1e-3, 1e3), (1e-150, 1e150), (1e-300, 1e300)])
def test_claim_pass_gives_the_cells_of_the_grid_loop(monkeypatch, grid_points, scalar_range):
    # the dominance and bound-validity claims decide only clear passes in one
    # array pass and leave every other cell, and the least margin, to the
    # float functions: with the pass turned off every cell goes through them,
    # and each row is the same.  The mutant (dominance/a1-low and a1-high as
    # one claim, its bounds swapped) fails part of its grid, so failure
    # records go through the settling path too
    claims = harness._comparison_claims()
    mutant = harness._claim_dominance("mutant/a1-swapped", "zhao-wu-reverse/proposition",
                                      "theorem-main-reverse/i/n3", (0.0, 0.5), ())
    cfg = SuiteConfig(seed=5, grid_points=grid_points, scalar_range=scalar_range)
    batched, decided, looped = _claim_rows(cfg, monkeypatch, claims + [mutant])
    assert decided > 0
    assert batched == looped
    assert ([None if row.worst_gap is None else row.worst_gap.hex() for row in batched]
            == [None if row.worst_gap is None else row.worst_gap.hex() for row in looped])
    assert reporting.dumps([row.failure_records for row in batched]) == reporting.dumps(
        [row.failure_records for row in looped])
    assert sum(row.failures for row in batched) == batched[-1].failures > 0
    assert batched[-1].passes > 0


def _compensated_sum(values, start=0):
    """sum() as Python 3.12 and later form it for floats (Neumaier's
    compensated summation); integer sums as before."""
    values = list(values)
    if all(isinstance(x, int) for x in values):
        return builtins.sum(values, start)
    total, comp = float(start), 0.0
    for x in values:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_comparison_report_keeps_its_bytes_under_compensated_sum(monkeypatch):
    cfg = SuiteConfig(seed=5, trials=40, families=("comparison",))
    expected = _report_text(cfg)
    monkeypatch.setattr(harness, "sum", _compensated_sum, raising=False)
    assert _report_text(cfg) == expected


def test_config_as_dict_lists_the_fields_with_the_tolerances_after_margin():
    config = SuiteConfig(seed=7, dims=(2, 3), families=("t6",), boundary_probe=True)
    d = config.as_dict()
    assert list(d) == ["seed", "trials", "scalar_range", "v_range", "dims", "cond_max",
                       "depths", "families", "margin", "rel_tol", "loewner_rel",
                       "grid_points", "boundary_probe"]
    assert d["scalar_range"] == [1e-3, 1e3] and d["dims"] == [2, 3]
    assert d["families"] == ["t6"] and d["boundary_probe"] is True
    assert d["rel_tol"] == scalar.REL_TOL and d["loewner_rel"] == LOEWNER_REL_TOL


def test_coverage_spans_every_operation():
    rep = run_all(SuiteConfig(trials=4, grid_points=8))
    expected = {
        "young_lhs", "weighted_geometric", "heinz_scalar", "reverse_young_basic",
        "corollary_one_term", "theorem_main_reverse", "sababheh_indices",
        "refinement_sum_S", "lemma_sm_reverse", "kittaneh_manasrah",
        "zhao_wu_forward", "zhao_wu_reverse", "sababheh_choi_forward",
        "theorem_extended_sc", "heinz_reverse_main", "heinz_reverse_sc",
        "log_limit_gap", "comparison_poly_f", "comparison_poly_g",
        "compare_gap_bounds", "theorem_t6", "theorem_t66", "corollary_c3",
        "corollary_c33",
    }
    assert expected <= set(rep.coverage)
    assert all(rep.coverage[op] >= 1 for op in expected)


def test_default_suites_skip_no_trial():
    # a row whose region and evaluator disagree turns trials into skips,
    # never into failures, so the skip count is what shows a mismatch
    rows = run_scalar_suite(SuiteConfig()).rows
    rows += run_operator_suite(SuiteConfig(trials=40, dims=(1, 2))).rows
    assert len(rows) == len(SCALAR_ROWS) + len(OPERATOR_ROWS)
    for row in rows:
        assert row.skipped == 0, row.key


def test_window_midpoints_lie_outside_the_hypothesis():
    rng = Xoshiro256StarStar(11)
    mat_a, mat_b = random_spd(2, 1e2, rng), random_spd(2, 1e2, rng)
    for rows, a, b in ((SCALAR_ROWS, 3.0, 0.5), (OPERATOR_ROWS, mat_a, mat_b)):
        for row in rows:
            depths = [None] if row.min_depth is None else range(row.min_depth, 7)
            for n in depths:
                region = row.region(n)
                if region.kind != "outside":
                    continue
                rep = row.evaluate(a, b, 0.5 * (region.lo + region.hi), n)
                assert rep.hypothesis_ok is False, (row.key, n)


_DYADIC = (window_dyadic_high, window_dyadic_low)
_SC = (window_sc_low, window_sc_high)
_HALVES = (lambda n: (0.0, 0.5), lambda n: (0.5, 1.0))
_UNIT = (lambda n: (0.0, 1.0),) * 2
# kind and (branch i, branch ii) windows of every family, both written out
# from the window functions, so the rows' mirror-derived branch ii is
# checked against an independent pairing
_PAIRED_WINDOWS = {
    "reverse-young-basic": ("outside", _UNIT),
    "corollary-one-term": ("outside", _HALVES),
    "theorem-main-reverse": ("outside", _DYADIC),
    "lemma-sm-reverse": ("inside", _HALVES),
    "kittaneh-manasrah": ("inside", _UNIT),
    "zhao-wu-forward": ("inside", _UNIT),
    "zhao-wu-reverse": ("inside", _UNIT),
    "sababheh-choi-forward": ("inside", _UNIT),
    "theorem-extended-sc": ("outside", _SC),
    "heinz-reverse-main": ("outside", _DYADIC),
    "heinz-reverse-sc": ("outside", _SC),
    "t6": ("outside", _DYADIC),
    "t66": ("outside", _SC),
    "c3": ("outside", _DYADIC),
    "c33": ("outside", _SC),
}
_PROBES = {"lemma-sm-reverse": (0.5,), "zhao-wu-reverse": ()}


def test_rows_keep_the_hand_paired_windows_at_every_depth():
    assert {row.family for row in SCALAR_ROWS + OPERATOR_ROWS} == set(_PAIRED_WINDOWS)
    for row in SCALAR_ROWS + OPERATOR_ROWS:
        kind, windows = _PAIRED_WINDOWS[row.family]
        window = windows[1 if row.branch == "ii" else 0]
        depths = [None] if row.min_depth is None else range(row.min_depth, MAX_DEPTH + 1)
        for n in depths:
            region = row.region(n)
            expected = window(n)
            # repr tells 0.0 from -0.0, so the comparison is bit for bit
            assert region.kind == kind
            assert repr((region.lo, region.hi)) == repr(expected), (row.key, n)
            probe = _PROBES.get(row.family, expected)
            assert repr(tuple(row.probe(n))) == repr(probe), (row.key, n)


def test_run_all_is_the_three_suites_concatenated(monkeypatch):
    def canary(cfg):
        yield False, -1.0, {"x": 2.0}

    claims = harness._comparison_claims
    monkeypatch.setattr(harness, "_comparison_claims",
                        lambda: claims() + [("canary/claim", ("canary_op",), canary)])
    # weights in +-3000 overflow means and powers, so every kind has failures
    cfg = SuiteConfig(seed=3, trials=12, v_range=(-3000.0, 3000.0), dims=(1, 2),
                      grid_points=4)
    whole = run_all(cfg)
    parts = [run_scalar_suite(cfg), run_operator_suite(cfg), run_comparison_suite(cfg)]
    assert whole.kind == "all" and whole.config == cfg.as_dict()
    assert whole.rows == [row for part in parts for row in part.rows]
    records = whole.all_failure_records()
    assert records == [record for part in parts for record in part.all_failure_records()]
    assert {record["row"].partition("/")[0] for record in records} >= {
        "theorem-main-reverse", "t6", "canary"}
    assert records[-1] == {"row": "canary/claim", "trial": 0, "x": 2.0,
                           "cause": "claim violated"}
    assert whole.coverage == sum((Counter(part.coverage) for part in parts), Counter())


def test_comparison_suite_runs_every_claim_whatever_the_families():
    rep = run_comparison_suite(SuiteConfig(trials=1, grid_points=4, families=("scalar",)))
    assert len(rep.rows) == 17
    assert [row.key for row in rep.rows] == [key for key, _, _ in harness._comparison_claims()]


def test_bound_validity_makes_one_public_scalar_call_per_cell(monkeypatch):
    # bench/tracing.py counts scalar.evals through the public names of the
    # scalar module as harness sees them; a grid cell read through a private
    # helper would drop out of that count.  Every cell is read by the one
    # array pass, and each cell it does not decide by one gap_bounds call
    calls = Counter()

    class CountingScalar:
        def __getattr__(self, name):
            value = getattr(scalar, name)
            if not (inspect.isfunction(value) and value.__module__ == scalar.__name__
                    and not name.startswith("_")):
                return value

            def counted(*args, **kwargs):
                calls[name] += 1
                return value(*args, **kwargs)

            return counted

    monkeypatch.setattr(harness, "scalar", CountingScalar())
    cells = list(harness._claim_bound_validity(SuiteConfig()))
    assert len(cells) == 420 and all(ok for ok, _, _ in cells)
    settled = sum(margin is not None for _, margin, _ in cells)
    assert 0 < settled < 420
    assert calls == {"slot_gaps": 1, "gap_bounds": settled}


@pytest.mark.parametrize("run", [run_all, run_scalar_suite, run_operator_suite,
                                 run_comparison_suite])
def test_each_suite_call_validates_once(monkeypatch, run):
    calls = []
    validate = SuiteConfig.validate
    monkeypatch.setattr(SuiteConfig, "validate", lambda cfg: calls.append(validate(cfg)))
    run(SuiteConfig(trials=2, grid_points=3, dims=(1,)))
    assert len(calls) == 1


def test_overflowing_operator_mean_is_a_failure():
    # trial 21 of c33/ii draws v = 1050.01 on 1x1 operands; the power of the
    # inner eigenvalue stays finite but its product with W W^T overflows
    cfg = SuiteConfig(seed=3, trials=40, v_range=(-3000.0, 3000.0), families=("c33/ii",))
    row = run_operator_suite(cfg).rows[0]
    record = next(record for record in row.failure_records if record["trial"] == 21)
    assert record["dim"] == 1 and record["min_eig_gap"] is None
    assert record["cause"] == ("MatrixError: inner eigenvalue power overflows for "
                               f"weight {1.0 - record['v']!r}")


# ---------------------------------------------------------------------------
# Failure recording and replay
# ---------------------------------------------------------------------------

def test_failure_recording_and_replay_via_canary_row(monkeypatch):
    # a deliberately wrong row exercises the recording/replay machinery
    real = SCALAR_ROWS[0]
    canary = dataclasses.replace(
        real, key="canary", family="reverse-young-basic", branch="x",
        evaluate=lambda a, b, v, n: BoundReport(
            "canary", "x", a, b, v, n, 1.0, 0.5, -0.5, True, False))
    monkeypatch.setattr(harness, "SCALAR_ROWS", [canary])
    cfg = SuiteConfig(trials=6, families=("reverse-young-basic",))
    rep = run_scalar_suite(cfg)
    row = rep.rows[0]
    assert row.failures == row.trials
    assert len(row.failure_records) == row.trials
    record = row.failure_records[0]
    assert list(record) == ["row", "trial", "a", "b", "v", "n", "gap", "cause"]
    assert record["cause"] == "gap below tolerance"
    replayed = replay_scalar_failure(record)
    assert replayed.gap == record["gap"]


@pytest.mark.parametrize("probe", [False, True])
def test_probe_failures_recorded_via_canary_row(monkeypatch, probe):
    # outside its hypothesis a trial is skipped; a probe trial reads only
    # whether the gap is within tolerance of zero, whatever the hypothesis
    canary = dataclasses.replace(
        SCALAR_ROWS[0], key="canary", family="reverse-young-basic", branch="x",
        evaluate=lambda a, b, v, n: BoundReport(
            "canary", "x", a, b, v, n, 1.0, 0.5, -0.5, False, False))
    monkeypatch.setattr(harness, "SCALAR_ROWS", [canary])
    cfg = SuiteConfig(trials=6, families=("reverse-young-basic",), boundary_probe=probe)
    row = run_scalar_suite(cfg).rows[0]
    if not probe:
        assert row.skipped == row.trials and not row.failure_records
        return
    assert row.failures == row.trials == len(row.failure_records)
    for record in row.failure_records:
        assert list(record) == ["row", "trial", "a", "b", "v", "n", "gap", "cause"]
        assert record["v"] in (0.0, 1.0) and record["gap"] == -0.5
        assert record["cause"] == "gap below tolerance"


def _operator_canary(monkeypatch, evaluate, probe=False):
    canary = dataclasses.replace(OPERATOR_ROWS[0], key="canary", branch="x",
                                 evaluate=evaluate)
    monkeypatch.setattr(harness, "OPERATOR_ROWS", [canary])
    cfg = SuiteConfig(trials=4, dims=(1, 3), families=("operator",), boundary_probe=probe)
    return run_operator_suite(cfg).rows[0]


@pytest.mark.parametrize("probe", [False, True])
def test_operator_probe_failures_recorded_via_canary_row(monkeypatch, probe):
    def wrong(a, b, v, n):
        return OperatorBoundReport("canary", "x", a.dim, v, n, -1.0,
                                   1e-8, False, False, False, "", "")

    row = _operator_canary(monkeypatch, wrong, probe)
    if not probe:
        assert row.skipped == row.trials and not row.failure_records
        return
    assert row.failures == row.trials == len(row.failure_records)
    for record in row.failure_records:
        assert list(record) == ["row", "trial", "dim", "v", "n", "min_eig_gap",
                                "matrix_a", "matrix_b", "cause"]
        assert record["min_eig_gap"] == -1.0
        assert record["cause"] == "min eigenvalue below tolerance"


def test_operator_failure_recording_and_replay_via_canary_row(monkeypatch):
    def wrong(a, b, v, n):
        return OperatorBoundReport("canary", "x", a.dim, v, n, -float(a.entries.sum()),
                                   1e-8, True, False, False, "", "")

    row = _operator_canary(monkeypatch, wrong)
    assert row.failures == row.trials == len(row.failure_records)
    record = row.failure_records[0]
    assert list(record) == ["row", "trial", "dim", "v", "n", "min_eig_gap",
                            "matrix_a", "matrix_b", "cause"]
    assert record["cause"] == "min eigenvalue below tolerance"
    assert replay_operator_failure(record).min_eig_gap == record["min_eig_gap"]


def test_operator_evaluation_error_recorded_via_canary_row(monkeypatch):
    def broken(a, b, v, n):
        raise MatrixError("canary breakdown")

    row = _operator_canary(monkeypatch, broken)
    assert row.failures == row.trials and row.worst_gap is None
    for record in row.failure_records:
        assert record["min_eig_gap"] is None
        assert record["cause"] == "MatrixError: canary breakdown"


def test_comparison_failure_recording_via_canary_claim(monkeypatch):
    def cells(cfg):
        yield True, 0.5, {"x": 1.0, "v": 0.25}
        yield False, -1.0, {"x": 2.0, "v": 0.75}

    monkeypatch.setattr(harness, "_comparison_claims",
                        lambda: [("canary/claim", ("canary_op",), cells)])
    rep = run_comparison_suite(SMALL)
    row = rep.rows[0]
    assert (row.trials, row.passes, row.failures, row.worst_gap) == (2, 1, 1, 0.5)
    assert row.failure_records == [{"row": "canary/claim", "trial": 1, "x": 2.0,
                                    "v": 0.75, "cause": "claim violated"}]
    assert list(row.failure_records[0]) == ["row", "trial", "x", "v", "cause"]
    assert rep.coverage == {"canary_op": 2}


# the inputs a failing cell of each claim records; the ratio-quartic claim
# reads no scalar function, so NaN values cannot make it fail
_CELL_DETAILS = {
    "dominance": [("ratio", "v", "tighter", "looser")],
    "poly/f-grid": [("x", "v", "value"), ("x", "v", "min_at", "value_at_one")],
    "poly/g-grid": [("x", "v", "value"), ("x", "v", "min_at", "value_at_one")],
    "poly/factorizations": [("poly", "x", "value", "reference")],
    "limit/delta-decay": [("ratio", "n", "delta", "rate")],
    "limit/log-inequality": [("x", "slack"), ("ratio", "v", "slack")],
    "compare/bound-validity": [("ratio", "v")],
}


def test_grid_cells_record_their_inputs_only_when_they_fail(monkeypatch):
    # every public scalar value NaN, and a true gap of 1e300 above every
    # bound, so each claim but the ratio quartic fails cell by cell; the
    # array pass reads NaN everywhere, so it decides no cell
    class NanScalar:
        def __getattr__(self, name):
            value = getattr(scalar, name)
            if name == "gap_bounds":
                return lambda *args: (1e300, value(*args)[1])
            if name == "slot_gaps":
                return lambda a, *args: (a * math.nan, a, {
                    label: (a * math.nan, a, ok) for label, (_, _, ok)
                    in value(a, *args)[2].items()})
            if inspect.isfunction(value) and not name.startswith("_"):
                return lambda *args: math.nan
            return value

    cfg = SuiteConfig(grid_points=4)
    for key, _, runner in harness._comparison_claims():
        assert all(ok and details is None for ok, _, details in runner(cfg)), key
    # the claims bind the scalar functions they compare when they are listed
    monkeypatch.setattr(harness, "scalar", NanScalar())
    for key, _, runner in harness._comparison_claims():
        cells = list(runner(cfg))
        if key == "poly/ratio-quartic":
            assert all(ok and details is None for ok, _, details in cells)
            continue
        expected = _CELL_DETAILS.get(key.partition("/")[0], _CELL_DETAILS.get(key))
        assert cells and not any(ok for ok, _, _ in cells), key
        assert {tuple(details) for _, _, details in cells} == set(expected), key


def test_numeric_errors_recorded_not_fatal():
    # weights far outside the supported envelope overflow the power and the
    # suite must record the trial as a failure with its cause, not abort
    cfg = SuiteConfig(trials=5, families=("theorem-extended-sc",),
                      v_range=(4000.0, 5000.0))
    rep = run_scalar_suite(cfg)
    causes = [record.get("cause", "") for row in rep.rows
              for record in row.failure_records]
    assert causes and all("Error" in cause or "error" in cause for cause in causes)


def test_scalar_replay_reproduces_gap_bitwise():
    row = next(r for r in SCALAR_ROWS if r.key == "theorem-main-reverse/i")
    rep = row.evaluate(1.0, 16.0, 0.125, 2)
    record = {"row": row.key, "a": 1.0, "b": 16.0, "v": 0.125, "n": 2}
    assert replay_scalar_failure(record).gap == rep.gap


def test_operator_replay_from_recorded_entries():
    rng = Xoshiro256StarStar(5)
    a = random_spd(3, 1e3, rng)
    b = random_spd(3, 1e3, rng)
    row = next(r for r in OPERATOR_ROWS if r.key == "t66/i")
    rep = row.evaluate(a, b, 2.0, 2)
    record = {"row": "t66/i", "v": 2.0, "n": 2,
              "matrix_a": a.entries.tolist(), "matrix_b": b.entries.tolist()}
    replayed = replay_operator_failure(record)
    assert replayed.min_eig_gap == rep.min_eig_gap


def test_report_document_shape():
    rep = run_scalar_suite(dataclasses.replace(SMALL, families=("kittaneh-manasrah",)))
    doc = rep.to_doc()
    assert set(doc) == {"tool_version", "kind", "config", "results", "failures",
                        "coverage", "wall_time_s"}
    assert doc["results"][0]["key"] == "kittaneh-manasrah"
    assert doc["config"]["seed"] == SMALL.seed
