"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance below is pinned, nothing is calibrated at runtime.
"""

import json
import math
import time

import numpy as np

from meanbound import harness, reporting, scalar
from meanbound.cli import main as cli_main
from meanbound.harness import (
    OPERATOR_ROWS,
    SCALAR_ROWS,
    SuiteConfig,
    random_spd,
    run_comparison_suite,
    run_operator_suite,
    run_scalar_suite,
    sample_weight,
)
from meanbound.matrices import LOEWNER_REL_TOL, SpdMatrix, arithmetic_mean, \
    geometric_mean, heinz_mean, jacobi_eigh, loewner_leq, spd_power
from meanbound.rng import Xoshiro256StarStar, derive_seed

SEED = 20260811


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def test_criterion_1_reference_point_reproduction():
    start = time.perf_counter()
    bound_19 = scalar.gap_bound_main_reverse(1.0, 16.0, 0.125, 2)
    bound_15 = scalar.gap_bound_sm_reverse(1.0, 16.0, 0.125, 2)
    full_rhs = scalar.theorem_main_reverse(1.0, 16.0, 0.125, 2, "i").rhs
    elapsed = time.perf_counter() - start
    assert abs(bound_19 - 4.875) <= 1e-12
    assert abs(bound_15 - 6.1887085) <= 1e-6
    assert bound_15 > bound_19  # the qualitative claim: the dyadic bound is tighter
    assert abs(full_rhs - 6.2892136) <= 1e-6
    assert elapsed < 0.05
    report(1, f"(19)={bound_19}, (15) recomputed={bound_15:.7f}, "
              f"full rhs={full_rhs:.7f}, {elapsed * 1e3:.2f} ms")


def test_criterion_2_scalar_hypothesis_suites():
    rows_per_family: dict = {}
    for row in SCALAR_ROWS:
        rows_per_family[row.family] = rows_per_family.get(row.family, 0) + 1
    # suite verdicts are the evaluators' own, at this relative tolerance
    assert scalar.REL_TOL == 1e-9
    start = time.perf_counter()
    total_trials = 0
    failures = 0
    for family, count in rows_per_family.items():
        cfg = SuiteConfig(seed=SEED, trials=10000 // count, families=(family,),
                          scalar_range=(1e-3, 1e3), v_range=(-6.0, 6.0),
                          depths=(1, 2, 3, 4, 5, 6), margin=1e-6)
        rep = run_scalar_suite(cfg)
        failures += rep.total_failures
        total_trials += sum(row.trials for row in rep.rows)
    elapsed = time.perf_counter() - start
    assert failures == 0
    assert total_trials == 10000 * len(rows_per_family)
    assert elapsed < 10.0, f"scalar suites took {elapsed:.2f}s"
    report(2, f"{total_trials} trials across {len(rows_per_family)} families, "
              f"0 violations, {elapsed:.2f}s")


def test_criterion_3_operator_suites():
    # Loewner verdicts are the evaluators' own, at this tolerance factor
    assert LOEWNER_REL_TOL == 1e-8
    cfg = SuiteConfig(seed=SEED, trials=500, dims=(1, 2, 4, 8), cond_max=1e4,
                      depths=(1, 2, 3, 4, 5, 6), v_range=(-6.0, 6.0),
                      margin=1e-6)
    start = time.perf_counter()
    rep = run_operator_suite(cfg)
    elapsed = time.perf_counter() - start
    assert rep.total_failures == 0
    assert sum(row.trials for row in rep.rows) == 500 * len(OPERATOR_ROWS)
    assert elapsed < 60.0, f"operator suites took {elapsed:.2f}s"
    report(3, f"{500 * len(OPERATOR_ROWS)} trials, 0 Loewner violations, "
              f"{elapsed:.2f}s")


SCALAR_TWINS = {
    "t6": lambda a, b, v, n, br: scalar.theorem_main_reverse(a, b, v, n, br),
    "t66": lambda a, b, v, n, br: scalar.theorem_extended_sc(a, b, v, n, br),
    "c3": lambda a, b, v, n, br: scalar.heinz_reverse_main(a, b, v, n, br),
    "c33": lambda a, b, v, n, br: scalar.heinz_reverse_sc(a, b, v, n, br),
}


def _matched_draw(rng, row, depths):
    n = depths[rng.randint(len(depths))]
    v = sample_weight(row.region(n), (-6.0, 6.0), 1e-6, rng)
    a = rng.log_uniform(1e-3, 1e3)
    b = rng.log_uniform(1e-3, 1e3)
    return a, b, v, n


def test_criterion_4_cross_oracle_equivalence():
    combos = [(row, SCALAR_TWINS[row.family]) for row in OPERATOR_ROWS]
    worst_one = 0.0
    for trial in range(1000):
        row, twin = combos[trial % len(combos)]
        rng = Xoshiro256StarStar(derive_seed(SEED, "xoracle1", trial))
        depths = [n for n in (1, 2, 3, 4, 5, 6) if n >= row.min_depth]
        a, b, v, n = _matched_draw(rng, row, depths)
        op = row.evaluate(SpdMatrix([[a]]), SpdMatrix([[b]]), v, n)
        sc = twin(a, b, v, n, row.branch)
        scale = abs(sc.gap) + abs(sc.lhs) + abs(sc.rhs)
        err = abs(op.min_eig_gap - sc.gap) / scale
        worst_one = max(worst_one, err)
        assert err <= 1e-12, (row.key, a, b, v, n, err)
    worst_diag = 0.0
    for trial in range(1000):
        row, twin = combos[trial % len(combos)]
        rng = Xoshiro256StarStar(derive_seed(SEED, "xoracle2", trial))
        depths = [n for n in (1, 2, 3, 4, 5, 6) if n >= row.min_depth]
        _, _, v, n = _matched_draw(rng, row, depths)
        dim = 2 + rng.randint(7)
        diag_a = [rng.log_uniform(1e-3, 1e3) for _ in range(dim)]
        diag_b = [rng.log_uniform(1e-3, 1e3) for _ in range(dim)]
        op = row.evaluate(SpdMatrix(np.diag(diag_a)), SpdMatrix(np.diag(diag_b)), v, n)
        refs = [twin(x, y, v, n, row.branch) for x, y in zip(diag_a, diag_b)]
        expected = min(ref.gap for ref in refs)
        scale = sum(abs(ref.lhs) + abs(ref.rhs) for ref in refs) + abs(expected)
        err = abs(op.min_eig_gap - expected) / scale
        worst_diag = max(worst_diag, err)
        assert err <= 1e-10, (row.key, dim, v, n, err)
    report(4, f"1000 matched 1x1 draws (worst {worst_one:.2e} <= 1e-12) and "
              f"1000 diagonal draws (worst {worst_diag:.2e} <= 1e-10)")


def test_criterion_5_restatement_identity():
    worst = 0.0
    exact = 0
    for trial in range(10000):
        rng = Xoshiro256StarStar(derive_seed(SEED, "restate", trial))
        a = rng.log_uniform(1e-3, 1e3)
        b = rng.log_uniform(1e-3, 1e3)
        v = rng.random()
        lemma = scalar.zhao_wu_reverse(a, b, v, "lemma")
        proposition = scalar.zhao_wu_reverse(a, b, v, "proposition")
        err = abs(lemma.rhs - proposition.rhs) / abs(lemma.rhs)
        worst = max(worst, err)
        exact += lemma.rhs == proposition.rhs
        assert err <= 1e-15
    report(5, f"10000 draws, worst relative difference {worst:.2e}, "
              f"{exact} bit-identical")


def test_criterion_6_limit_properties():
    ratios = [10.0 ** e for e in np.linspace(-2.0, 2.0, 8)]
    worst_rate = math.inf
    for ratio in ratios:
        deltas = {n: scalar.log_limit_gap(1.0, ratio, n) for n in range(5, 21)}
        for n in range(5, 20):
            rate = deltas[n] / deltas[n + 1]
            worst_rate = min(worst_rate, rate)
            assert rate >= 1.9, (ratio, n, rate)
    xs = sorted(set(np.logspace(-2.0, 2.0, 49)) | {1.0, 1.0 - 1e-9, 1.0 + 1e-9})
    for x in xs:
        slack = scalar.fundamental_log_slack(x)
        assert slack >= 0.0
        if slack < 1e-12:
            assert abs(x - 1.0) < 1e-6, (x, slack)
    for ratio in ratios:
        for v in np.linspace(-6.0, 6.0, 25):
            slack = scalar.limit_inequality_slack(1.0, ratio, float(v))
            x = math.exp((v - 0.5) * math.log(ratio))
            assert slack >= 0.0
            if slack < 1e-12:
                assert abs(x - 1.0) < 1e-6
    report(6, f"delta halving rate >= {worst_rate:.4f} for n in 5..20; "
              f"log-inequality slack nonnegative with equality only at x=1")


def test_criterion_7_dominance_grids():
    cfg = SuiteConfig(seed=SEED, trials=1, grid_points=50)
    rep = run_comparison_suite(cfg)
    assert rep.total_failures == 0, [row.key for row in rep.rows if row.failures]
    cells = sum(row.trials for row in rep.rows)
    xs = sorted(set(np.logspace(-2.0, 2.0, 49)) | {1.0})
    for poly in (scalar.comparison_poly_f, scalar.comparison_poly_g):
        for v in np.linspace(0.75, 1.0, 50):
            values = [poly(x, float(v)) for x in xs]
            best = min(range(len(xs)), key=lambda i: values[i])
            assert xs[best] == 1.0
            assert abs(values[best]) <= 1e-12
    report(7, f"{cells} grid cells over every stated ordering, 0 violations; "
              f"f and g minima at x=1 within 1e-12")


def test_criterion_8_numerical_kernel_soundness():
    rng = Xoshiro256StarStar(derive_seed(SEED, "kernel"))
    worst_recon = worst_sqrt = 0.0
    for trial in range(1000):
        dim = 1 + trial % 16
        mat = random_spd(dim, 1e4, rng)
        decomp = jacobi_eigh(mat.entries)
        recon = (decomp.q * decomp.lam) @ decomp.q.T
        err = float(np.linalg.norm(recon - mat.entries)) / mat.fro()
        worst_recon = max(worst_recon, err)
        assert err <= 1e-11
        half = spd_power(mat, 0.5)
        err = float(np.linalg.norm(half.entries @ half.entries - mat.entries)) / mat.fro()
        worst_sqrt = max(worst_sqrt, err)
        assert err <= 1e-10
    report(8, f"1000 matrices (dims 1..16): reconstruction worst "
              f"{worst_recon:.2e} <= 1e-11, sqrt-square worst {worst_sqrt:.2e} <= 1e-10")


def test_criterion_9_mean_order_sandwich():
    rng = Xoshiro256StarStar(derive_seed(SEED, "sandwich"))
    for trial in range(1000):
        dim = (2, 3, 4, 6, 8)[rng.randint(5)]
        a = random_spd(dim, 1e4, rng)
        b = random_spd(dim, 1e4, rng)
        v = rng.random()
        assert loewner_leq(geometric_mean(a, b, v), arithmetic_mean(a, b, v)).holds
        hz = heinz_mean(a, b, v)
        assert loewner_leq(geometric_mean(a, b, 0.5), hz).holds
        assert loewner_leq(hz, arithmetic_mean(a, b, 0.5)).holds
    report(9, "1000 random SPD pairs: geometric <= arithmetic and "
              "geometric <= Heinz <= arithmetic, 0 violations")


def test_criterion_10_suite_determinism(tmp_path):
    args = ["suite", "--families", "all", "--trials", "60", "--seed", "42",
            "--grid-points", "12"]
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0

    def strip_wall(text: str) -> str:
        return "\n".join(line for line in text.splitlines()
                         if "wall_time_s" not in line)

    text1, text2 = out1.read_text(), out2.read_text()
    assert strip_wall(text1) == strip_wall(text2)
    doc = json.loads(text1)
    assert doc["failures"] == []
    cfg = SuiteConfig(seed=9, trials=25, grid_points=8)
    doc_a = reporting.dumps(harness.run_all(cfg).to_doc(include_wall_time=False))
    doc_b = reporting.dumps(harness.run_all(cfg).to_doc(include_wall_time=False))
    assert doc_a == doc_b
    report(10, "byte-identical suite reports for identical seeds "
               "(wall time excluded)")
