"""Harness: sampling, random SPD generation, suites, determinism, replay."""

import dataclasses
import hashlib

import numpy as np
import pytest

from meanbound import harness
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
from meanbound.matrices import MatrixError
from meanbound.operators import OperatorBoundReport
from meanbound.rng import Xoshiro256StarStar, derive_seed
from meanbound.scalar import BoundReport

SMALL = SuiteConfig(trials=40, grid_points=10)


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


@pytest.mark.parametrize("field", ["cond_max", "margin"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_config_rejects_non_finite_settings(field, value):
    with pytest.raises(ConfigError, match=field):
        dataclasses.replace(SMALL, **{field: value}).validate()


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


def _operator_canary(monkeypatch, evaluate):
    canary = dataclasses.replace(OPERATOR_ROWS[0], key="canary", branch="x",
                                 evaluate=evaluate)
    monkeypatch.setattr(harness, "OPERATOR_ROWS", [canary])
    cfg = SuiteConfig(trials=4, dims=(1, 3), families=("operator",))
    return run_operator_suite(cfg).rows[0]


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
