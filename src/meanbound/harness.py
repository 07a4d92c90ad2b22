"""Seeded randomized verification suites for the scalar and operator bounds.

Every trial derives its own generator substream from (seed, row key, trial
index), so identical configurations replay byte-identically and trials are
order-independent; a row's substream states come from one numpy pass.
Suites never abort on a failing trial; every failure is recorded with the
full inputs needed to replay it without randomness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from . import scalar
from .matrices import LOEWNER_REL_TOL, SpdMatrix
from .operators import BRANCHES, OPERATOR_BY_NAME, OPERATOR_TABLE
from .rng import Xoshiro256StarStar, derive_seed, fnv1a64, substream_states
from .scalar import (
    BoundReport,
    window_dyadic_high,
    window_dyadic_low,
    window_sc_high,
    window_sc_low,
)


class ConfigError(ValueError):
    """Invalid suite configuration."""


class EmptyRegionError(ValueError):
    """A sampling region is empty after clipping to the configured range."""


# ---------------------------------------------------------------------------
# Weight-sampling regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Region:
    """Admissible weight set: the inside or the complement of a closed window."""

    kind: str  # "inside" or "outside"
    lo: float
    hi: float

    def intervals(self, v_range: tuple, margin: float) -> list:
        """Clip to v_range, keeping samples `margin` away from window endpoints."""
        vlo, vhi = v_range
        if self.kind == "inside":
            pieces = [(max(vlo, self.lo + margin), min(vhi, self.hi - margin))]
        elif self.kind == "outside":
            pieces = [(vlo, min(vhi, self.lo - margin)),
                      (max(vlo, self.hi + margin), vhi)]
        else:
            raise ConfigError(f"unknown region kind {self.kind!r}")
        return [(lo, hi) for lo, hi in pieces if hi > lo]


def sample_weight(region: Region, v_range: tuple, margin: float,
                  rng: Xoshiro256StarStar) -> float:
    """Uniform draw over the clipped admissible set (up to two intervals)."""
    pieces = region.intervals(v_range, margin)
    if not pieces:  # every piece kept has positive width
        raise EmptyRegionError(
            f"region {region.kind} [{region.lo}, {region.hi}] is empty after "
            f"clipping to {list(v_range)} with margin {margin}"
        )
    return _sample_pieces(pieces, rng)


def _sample_pieces(pieces: list, rng: Xoshiro256StarStar) -> float:
    """Uniform draw over nonempty clipped pieces from Region.intervals."""
    total = sum(hi - lo for lo, hi in pieces)
    x = rng.random() * total
    for lo, hi in pieces:
        width = hi - lo
        if x < width or (lo, hi) == pieces[-1]:
            return lo + min(x, width)
        x -= width
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Random SPD instances
# ---------------------------------------------------------------------------

def random_spd(dim: int, cond_max: float, rng: Xoshiro256StarStar) -> SpdMatrix:
    """Random SPD matrix Q diag(lam) Q^T with log-uniform spectrum.

    Q comes from the QR orthogonalization of a standard-Gaussian matrix
    (sign-normalized so the factorization is unique); the eigenvalues are
    log-uniform in [cond_max^-1/2, cond_max^1/2].  Fully determined by the
    generator state.
    """
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}")
    if cond_max < 1.0:
        raise ConfigError(f"cond_max must be >= 1, got {cond_max}")
    # rng.log_uniform(cond_max ** -0.5, cond_max ** 0.5), its logs taken once
    llo, lhi = math.log(cond_max ** -0.5), math.log(cond_max ** 0.5)
    if dim == 1:
        return SpdMatrix._trusted(np.array([[math.exp(llo + (lhi - llo) * rng.random())]]))
    values = []
    while len(values) < dim * dim:
        values.extend(rng.gauss_pair())
    gauss = np.array(values[: dim * dim]).reshape(dim, dim)
    q, r = np.linalg.qr(gauss)
    q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
    lam = np.array([math.exp(llo + (lhi - llo) * rng.random()) for _ in range(dim)])
    entries = (q * lam) @ q.T
    entries = 0.5 * (entries + entries.T)
    # the factorization is recomputed from the entries on first use, so a
    # matrix rebuilt from a failure record replays through the same path
    return SpdMatrix._trusted(entries)


# ---------------------------------------------------------------------------
# Suite configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 42
    trials: int = 1000
    scalar_range: tuple = (1e-3, 1e3)
    v_range: tuple = (-6.0, 6.0)
    dims: tuple = (1, 2, 4, 8)
    cond_max: float = 1e4
    depths: tuple = (1, 2, 3, 4, 5, 6)
    families: tuple = ("all",)
    margin: float = 1e-6
    grid_points: int = 50
    boundary_probe: bool = False

    def validate(self) -> None:
        if not isinstance(self.seed, int) or self.seed < 0 or self.seed >= 2 ** 64:
            raise ConfigError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials!r}")
        lo, hi = self.scalar_range
        if not (0.0 < lo < hi) or not math.isfinite(hi):
            raise ConfigError(f"scalar_range must satisfy 0 < lo < hi, got {self.scalar_range}")
        vlo, vhi = self.v_range
        if not (vlo < vhi) or not (math.isfinite(vlo) and math.isfinite(vhi)):
            raise ConfigError(f"v_range must satisfy lo < hi, got {self.v_range}")
        if not self.dims or any((not isinstance(d, int)) or d < 1 for d in self.dims):
            raise ConfigError(f"dims must be positive integers, got {self.dims}")
        if not (1.0 <= self.cond_max < math.inf):
            raise ConfigError(f"cond_max must be finite and >= 1, got {self.cond_max}")
        if not self.depths or any(
            (not isinstance(n, int)) or n < 1 or n > scalar.MAX_DEPTH for n in self.depths
        ):
            raise ConfigError(f"depths must lie in 1..{scalar.MAX_DEPTH}, got {self.depths}")
        if not (0.0 <= self.margin < math.inf):
            raise ConfigError(f"margin must be finite and >= 0, got {self.margin}")
        if self.grid_points < 2:
            raise ConfigError(f"grid_points must be >= 2, got {self.grid_points}")
        if not self.families:
            raise ConfigError("families must name at least one family or selector")
        unknown = [f for f in self.families if f not in _KNOWN_FAMILY_SELECTORS]
        if unknown:
            raise ConfigError(f"unknown families: {unknown}; known: "
                              f"{sorted(_KNOWN_FAMILY_SELECTORS)}")

    def as_dict(self) -> dict:
        # the verdicts are the evaluators' own, at the library tolerances,
        # which the report records among the settings
        return {
            "seed": self.seed,
            "trials": self.trials,
            "scalar_range": list(self.scalar_range),
            "v_range": list(self.v_range),
            "dims": list(self.dims),
            "cond_max": self.cond_max,
            "depths": list(self.depths),
            "families": list(self.families),
            "margin": self.margin,
            "rel_tol": scalar.REL_TOL,
            "loewner_rel": LOEWNER_REL_TOL,
            "grid_points": self.grid_points,
            "boundary_probe": self.boundary_probe,
        }


# ---------------------------------------------------------------------------
# Family registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyRow:
    key: str
    family: str
    branch: str
    min_depth: Optional[int]  # None: the family takes no depth
    region: Callable
    probe: Callable
    evaluate: Callable
    ops: tuple


@dataclass(frozen=True)
class ScalarFamily:
    """One scalar family: the single place its suite rows and CLI entry come from.

    ``windows`` pairs with ``branches``; each window is a (lo, hi) pair or a
    function of the depth.  The suite samples the complement of the window
    for an "outside" family and the window itself for an "inside" one.
    ``probe`` lists the boundary-probe weights (None: the window endpoints).
    Coverage counts the evaluator's function name, ``ops`` and the base means.
    """

    name: str
    evaluate: Callable
    branches: tuple
    min_depth: Optional[int]  # None: the family takes no depth
    kind: str
    windows: tuple
    probe: Optional[tuple] = None
    ops: tuple = ()


_BASE_OPS = ("young_lhs", "weighted_geometric")
_INDEX_OPS = ("sababheh_indices", "refinement_sum_S")
_UNIT = ((0.0, 1.0),)

# Every scalar family in suite order, read by the suite rows and the CLI.
SCALAR_TABLE = (
    ScalarFamily("reverse-young-basic", scalar.reverse_young_basic, ("",), None,
                 "outside", _UNIT),
    ScalarFamily("corollary-one-term", scalar.corollary_one_term, BRANCHES, None,
                 "outside", ((0.0, 0.5), (0.5, 1.0))),
    ScalarFamily("theorem-main-reverse", scalar.theorem_main_reverse, BRANCHES, 1,
                 "outside", (window_dyadic_high, window_dyadic_low)),
    ScalarFamily("lemma-sm-reverse", scalar.lemma_sm_reverse, BRANCHES, 1,
                 "inside", ((0.0, 0.5), (0.5, 1.0)), probe=(0.5,), ops=_INDEX_OPS),
    ScalarFamily("kittaneh-manasrah", scalar.kittaneh_manasrah, ("",), None,
                 "inside", _UNIT),
    ScalarFamily("zhao-wu-forward", scalar.zhao_wu_forward, ("",), None,
                 "inside", _UNIT),
    ScalarFamily("zhao-wu-reverse", scalar.zhao_wu_reverse, ("lemma", "proposition"),
                 None, "inside", _UNIT * 2, probe=()),
    ScalarFamily("sababheh-choi-forward", scalar.sababheh_choi_forward, ("",), 1,
                 "inside", _UNIT, ops=_INDEX_OPS),
    ScalarFamily("theorem-extended-sc", scalar.theorem_extended_sc, BRANCHES, 1,
                 "outside", (window_sc_low, window_sc_high)),
    ScalarFamily("heinz-reverse-main", scalar.heinz_reverse_main, BRANCHES, 2,
                 "outside", (window_dyadic_high, window_dyadic_low), ops=("heinz_scalar",)),
    ScalarFamily("heinz-reverse-sc", scalar.heinz_reverse_sc, BRANCHES, 1,
                 "outside", (window_sc_low, window_sc_high), ops=("heinz_scalar",)),
)


def _row(key, family, branch, min_depth, kind, window, probe, evaluate, ops) -> FamilyRow:
    bounds = window if callable(window) else (lambda n: window)
    return FamilyRow(key, family, branch, min_depth,
                     lambda n: Region(kind, *bounds(n)),
                     bounds if probe is None else (lambda n: probe),
                     evaluate, ops)


def _scalar_evaluator(fn, takes_depth: bool, branch: str) -> Callable:
    """fn as a row evaluator (a, b, v, n), passing n and the branch or form
    only to the families that take them."""
    extra = (branch,) if branch else ()
    if takes_depth:
        return lambda a, b, v, n: fn(a, b, v, n, *extra)
    return lambda a, b, v, n: fn(a, b, v, *extra)


SCALAR_ROWS = [
    _row(f"{fam.name}/{branch}" if branch else fam.name, fam.name, branch,
         fam.min_depth, fam.kind, window, fam.probe,
         _scalar_evaluator(fam.evaluate, fam.min_depth is not None, branch),
         (fam.evaluate.__name__,) + fam.ops + _BASE_OPS)
    for fam in SCALAR_TABLE
    for branch, window in zip(fam.branches, fam.windows)
]
OPERATOR_ROWS = [
    _row(f"{fam.key}/{branch}", fam.key, branch, fam.min_depth, "outside", window,
         None, lambda a, b, v, n, _fn=fam.evaluate, _br=branch: _fn(a, b, v, n, _br),
         (fam.evaluate.__name__,))
    for fam in OPERATOR_TABLE
    for branch, window in zip(BRANCHES, fam.windows)
]

_KNOWN_FAMILY_SELECTORS = (
    {"all", "scalar", "operator", "comparison"} | set(OPERATOR_BY_NAME)
    | {row.family for row in SCALAR_ROWS} | {row.key for row in SCALAR_ROWS + OPERATOR_ROWS}
)


def _selected(cfg: SuiteConfig, rows: list, kind: str) -> list:
    wanted = {OPERATOR_BY_NAME[name].key if name in OPERATOR_BY_NAME else name
              for name in cfg.families}
    if "all" in wanted:
        return rows
    return [row for row in rows
            if kind in wanted or row.family in wanted or row.key in wanted]


def _comparison_selected(cfg: SuiteConfig) -> bool:
    return bool({"all", "comparison"} & set(cfg.families))


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class RowResult:
    key: str
    family: str
    branch: str
    trials: int
    passes: int
    failures: int
    skipped: int
    worst_gap: Optional[float]
    failure_records: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "failure_records"}


@dataclass
class SuiteReport:
    kind: str
    config: dict
    rows: list
    coverage: dict
    wall_time_s: float

    @property
    def total_failures(self) -> int:
        return sum(row.failures for row in self.rows)

    def all_failure_records(self) -> list:
        records = []
        for row in self.rows:
            records.extend(row.failure_records)
        return records

    def to_doc(self, include_wall_time: bool = True) -> dict:
        from . import __version__

        doc = {
            "tool_version": __version__,
            "kind": self.kind,
            "config": self.config,
            "results": [row.as_dict() for row in self.rows],
            "failures": self.all_failure_records(),
            "coverage": {key: self.coverage[key] for key in sorted(self.coverage)},
        }
        if include_wall_time:
            doc["wall_time_s"] = self.wall_time_s
        return doc


def merge_reports(kind: str, reports: list) -> SuiteReport:
    rows, coverage = [], {}
    config = reports[0].config if reports else {}
    wall = 0.0
    for rep in reports:
        rows.extend(rep.rows)
        wall += rep.wall_time_s
        for op, count in rep.coverage.items():
            coverage[op] = coverage.get(op, 0) + count
    return SuiteReport(kind, config, rows, coverage, wall)


# ---------------------------------------------------------------------------
# Suite runners
# ---------------------------------------------------------------------------

def _depth_candidates(cfg: SuiteConfig, row: FamilyRow) -> list:
    if row.min_depth is None:
        return [None]
    candidates = [n for n in cfg.depths if n >= row.min_depth]
    if not candidates:
        raise ConfigError(
            f"row {row.key} requires depth >= {row.min_depth}; none in {cfg.depths}")
    return candidates


def _pick(seq, rng: Xoshiro256StarStar):
    return seq[rng.randint(len(seq))] if len(seq) > 1 else seq[0]


def _weight_sources(cfg: SuiteConfig, row: FamilyRow, depths: list) -> dict:
    """Per depth, what a trial's weight is drawn from: the boundary-probe
    points, or the row's hypothesis region clipped to the configured v range;
    None when there is nothing to draw and the trial is skipped."""
    if cfg.boundary_probe:
        return {n: row.probe(n) or None for n in depths}
    return {n: row.region(n).intervals(cfg.v_range, cfg.margin) or None for n in depths}


def _draw_weight(source, probing: bool, rng: Xoshiro256StarStar):
    """The trial's weight from its depth's source (see _weight_sources)."""
    if source is None:
        return None
    return _pick(source, rng) if probing else _sample_pieces(source, rng)


def _tally(key, family, branch, outcomes, ops, coverage: dict) -> RowResult:
    """The one place a row's outcomes are counted.

    ``outcomes`` yields one (ok, margin, details) per trial: ok is True for
    a pass, False for a failure, recorded as {"row", "trial", **details},
    and None for a skip.  The worst margin is the least over the
    passes; every trial counts toward the coverage of ``ops``.
    """
    passes = failures = skipped = 0
    worst: Optional[float] = None
    records: list = []
    trials = 0
    for trials, (ok, margin, details) in enumerate(outcomes, 1):
        if ok:
            passes += 1
            if margin is not None:
                worst = margin if worst is None else min(worst, margin)
        elif ok is None:
            skipped += 1
        else:
            failures += 1
            records.append({"row": key, "trial": trials - 1, **details})
    for op in ops:
        coverage[op] = coverage.get(op, 0) + trials
    return RowResult(key, family, branch, trials, passes, failures, skipped, worst, records)


def _run_suite(cfg: SuiteConfig, kind: str, rows) -> SuiteReport:
    """Tally each row, given as (key, family, branch, outcomes, ops)."""
    start = time.perf_counter()
    coverage: dict = {}
    results = [_tally(*row, coverage) for row in rows]
    return SuiteReport(kind, cfg.as_dict(), results, coverage, time.perf_counter() - start)


def run_scalar_suite(cfg: SuiteConfig) -> SuiteReport:
    """Sample each scalar row inside its hypothesis region and collect verdicts.

    A trial fails iff the hypothesis held and the evaluator's verdict is
    false (gap below -REL_TOL * (|lhs| + |rhs|)); evaluation errors are
    failures with a cause.
    """
    cfg.validate()
    return _run_suite(cfg, "scalar", (
        (row.key, row.family, row.branch, _scalar_outcomes(cfg, row), row.ops)
        for row in _selected(cfg, SCALAR_ROWS, "scalar")))


def _scalar_outcomes(cfg: SuiteConfig, row: FamilyRow):
    depths = _depth_candidates(cfg, row)
    sources = _weight_sources(cfg, row, depths)
    # derive_seed(seed, key, trial) is derive_seed(derive_seed(seed, key), trial)
    row_seed = derive_seed(cfg.seed, fnv1a64("scalar/" + row.key))
    # a and b as rng.log_uniform(*cfg.scalar_range) draws them
    llo, lhi = (math.log(end) for end in cfg.scalar_range)
    probing = cfg.boundary_probe
    for state in substream_states(row_seed, cfg.trials):
        rng = Xoshiro256StarStar(state)
        n = _pick(depths, rng)
        a = math.exp(llo + (lhi - llo) * rng.random())
        b = math.exp(llo + (lhi - llo) * rng.random())
        v = _draw_weight(sources[n], probing, rng)
        if v is None:
            yield None, None, None
            continue
        try:
            rep = row.evaluate(a, b, v, n)
        except Exception as exc:  # recorded, never fatal
            ok, gap, cause = False, None, f"{type(exc).__name__}: {exc}"
        else:
            gap, cause = rep.gap, "gap below tolerance"
            if probing:
                ok = abs(gap) <= scalar.REL_TOL * (abs(rep.lhs) + abs(rep.rhs))
            else:
                ok = rep.holds if rep.hypothesis_ok else None
        if ok or ok is None:
            yield ok, gap, None
        else:
            yield False, gap, {"a": a, "b": b, "v": v, "n": n, "gap": gap, "cause": cause}


def run_operator_suite(cfg: SuiteConfig) -> SuiteReport:
    """Sample random SPD pairs for each operator row and collect Loewner verdicts."""
    cfg.validate()
    return _run_suite(cfg, "operator", (
        (row.key, row.family, row.branch, _operator_outcomes(cfg, row), row.ops)
        for row in _selected(cfg, OPERATOR_ROWS, "operator")))


def _operator_outcomes(cfg: SuiteConfig, row: FamilyRow):
    depths = _depth_candidates(cfg, row)
    sources = _weight_sources(cfg, row, depths)
    row_seed = derive_seed(cfg.seed, fnv1a64("operator/" + row.key))
    probing = cfg.boundary_probe
    for state in substream_states(row_seed, cfg.trials):
        rng = Xoshiro256StarStar(state)
        dim = _pick(cfg.dims, rng)
        n = _pick(depths, rng)
        v = _draw_weight(sources[n], probing, rng)
        if v is None:
            yield None, None, None
            continue
        mat_a = random_spd(dim, cfg.cond_max, rng)
        mat_b = random_spd(dim, cfg.cond_max, rng)
        try:
            rep = row.evaluate(mat_a, mat_b, v, n)
        except Exception as exc:  # recorded, never fatal
            ok, gap, cause = False, None, f"{type(exc).__name__}: {exc}"
        else:
            gap, cause = rep.min_eig_gap, "min eigenvalue below tolerance"
            if probing:
                ok = rep.degenerate or abs(gap) <= rep.tol
            else:
                ok = rep.holds if rep.hypothesis_ok else None
        if ok or ok is None:
            yield ok, gap, None
        else:
            yield False, gap, {"dim": dim, "v": v, "n": n, "min_eig_gap": gap,
                               "matrix_a": mat_a.entries.tolist(),
                               "matrix_b": mat_b.entries.tolist(), "cause": cause}


def replay_scalar_failure(record: dict) -> BoundReport:
    """Re-run a recorded scalar failure from its inputs alone (no randomness)."""
    row = next(r for r in SCALAR_ROWS if r.key == record["row"])
    return row.evaluate(record["a"], record["b"], record["v"], record["n"])


def replay_operator_failure(record: dict):
    """Re-run a recorded operator failure from its recorded matrices."""
    row = next(r for r in OPERATOR_ROWS if r.key == record["row"])
    mat_a = SpdMatrix.from_entries(record["matrix_a"])
    mat_b = SpdMatrix.from_entries(record["matrix_b"])
    return row.evaluate(mat_a, mat_b, record["v"], record["n"])


# ---------------------------------------------------------------------------
# Grid-based comparison suite
# ---------------------------------------------------------------------------

def _log_grid(lo: float, hi: float, count: int) -> list:
    llo, lhi = math.log10(lo), math.log10(hi)
    return [10.0 ** (llo + (lhi - llo) * i / (count - 1)) for i in range(count)]


def _lin_grid(lo: float, hi: float, count: int) -> list:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _claim_dominance(key, tighter, looser, v_window, ops):
    """Grid claim: tighter(t, v) <= looser(t, v) on the ratio grid x v window."""

    def runner(cfg: SuiteConfig):
        for t in _log_grid(*cfg.scalar_range, cfg.grid_points):
            for v in _lin_grid(*v_window, cfg.grid_points):
                low = tighter(1.0, t, v)
                high = looser(1.0, t, v)
                margin = high - low
                ok = margin >= -1e-9 * (abs(low) + abs(high))
                yield ok, margin, {"ratio": t, "v": v, "tighter": low, "looser": high}

    return key, ops, runner


def _poly_grid_claim(key, poly, op):
    """Nonnegativity of a comparison polynomial, with its minimum pinned at x=1."""

    def runner(cfg: SuiteConfig):
        xs = sorted(set(_log_grid(1e-2, 1e2, cfg.grid_points - 1)) | {1.0})
        for v in _lin_grid(0.75, 1.0, cfg.grid_points):
            values = [poly(x, v) for x in xs]
            best = min(range(len(xs)), key=lambda i: values[i])
            for x, val in zip(xs, values):
                scale = _poly_scale(x, v)
                yield val >= -1e-12 * scale, val, {"x": x, "v": v, "value": val}
            at_one = values[xs.index(1.0)]
            ok = xs[best] == 1.0 and abs(at_one) <= 1e-12
            yield ok, at_one, {"x": 1.0, "v": v, "min_at": xs[best], "value_at_one": at_one}

    return key, (op,), runner


def _poly_scale(x: float, v: float) -> float:
    return 20.0 * max(1.0, x) ** 6 * max(1.0, abs(v))


def _claim_quartic(cfg: SuiteConfig):
    # (4v-3) + (3-8v) t^(1/2) + (4-4v) t^(1/4) + (8v-4) t^(5/8) >= 0,
    # t > 0, v in [3/4, 1] (the ratio form of the quintic comparison check)
    for t in _log_grid(*cfg.scalar_range, cfg.grid_points):
        for v in _lin_grid(0.75, 1.0, cfg.grid_points):
            terms = ((4.0 * v - 3.0), (3.0 - 8.0 * v) * t ** 0.5,
                     (4.0 - 4.0 * v) * t ** 0.25, (8.0 * v - 4.0) * t ** 0.625)
            value = sum(terms)
            scale = sum(abs(term) for term in terms)
            yield value >= -1e-9 * (scale + 1.0), value, {"t": t, "v": v, "value": value}


def _claim_factorizations(cfg: SuiteConfig):
    xs = sorted(set(_log_grid(1e-2, 1e2, cfg.grid_points - 1)) | {1.0})
    for x in xs:
        f_val = scalar.comparison_poly_f(x, 0.75)
        f_ref = x * x * (x - 1.0) ** 2 * (2.0 * x + 1.0)
        ok = abs(f_val - f_ref) <= 1e-12 * _poly_scale(x, 0.75)
        yield ok, f_val - f_ref, {"poly": "f", "x": x, "value": f_val, "reference": f_ref}
        g_val = scalar.comparison_poly_g(x, 0.75)
        g_ref = (x - 1.0) ** 2 * (x ** 4 + x ** 3 + 1.5 * x * x + x + 0.5)
        ok = abs(g_val - g_ref) <= 1e-12 * _poly_scale(x, 0.75)
        yield ok, g_val - g_ref, {"poly": "g", "x": x, "value": g_val, "reference": g_ref}


def _claim_limit_delta(cfg: SuiteConfig):
    # Halving rate of the dyadic-root gap, plus the standard remainder bound.
    for exponent in _lin_grid(-2.0, 2.0, 8):
        ratio = 10.0 ** exponent
        log_ratio = math.log(ratio)
        deltas = {n: scalar.log_limit_gap(1.0, ratio, n) for n in range(5, 21)}
        for n in range(5, 20):
            rate = deltas[n] / deltas[n + 1]
            ok = rate >= 1.9 and deltas[n] <= log_ratio ** 2 * 2.0 ** (1 - n)
            yield ok, rate, {"ratio": ratio, "n": n, "delta": deltas[n], "rate": rate}


def _claim_limit_log(cfg: SuiteConfig):
    xs = sorted(set(_log_grid(1e-2, 1e2, cfg.grid_points - 1))
                | {1.0, 1.0 - 1e-9, 1.0 + 1e-9})
    for x in xs:
        slack = scalar.fundamental_log_slack(x)
        ok = slack >= 0.0 and (slack >= 1e-12 or abs(x - 1.0) < 1e-6)
        yield ok, slack, {"x": x, "slack": slack}
    for exponent in _lin_grid(-2.0, 2.0, 8):
        ratio = 10.0 ** exponent
        for v in _lin_grid(-6.0, 6.0, 25):
            slack = scalar.limit_inequality_slack(1.0, ratio, v)
            x = math.exp((v - 0.5) * math.log(ratio))
            ok = slack >= 0.0 and (slack >= 1e-12 or abs(x - 1.0) < 1e-6)
            yield ok, slack, {"ratio": ratio, "v": v, "slack": slack}


def _claim_bound_validity(cfg: SuiteConfig):
    # Every hypothesis-valid gap bound must dominate the true gap, and the
    # reported dominance pairs must be internally consistent.
    for t in _log_grid(*cfg.scalar_range, 20):
        for v in _lin_grid(0.0, 1.0, 21):
            rep = scalar.compare_gap_bounds(1.0, t, v, n=3)
            ok = True
            worst = math.inf
            for bound in rep.bounds:
                if not bound.hypothesis_ok:
                    continue
                slack = bound.value - rep.true_gap
                worst = min(worst, slack)
                if slack < (-1e-9 * (abs(bound.value) + abs(rep.true_gap))
                            - 1e-13 * (1.0 + t)):
                    ok = False
            values = {g.label: g.value for g in rep.bounds}
            for tighter, looser, margin in rep.dominance:
                if values[looser] - values[tighter] < -1e-12 * (
                        abs(values[looser]) + abs(values[tighter])):
                    ok = False
            yield ok, (None if worst is math.inf else worst), {"ratio": t, "v": v}


def _gap_bound(fn, branch: str, depth: int):
    """fn's branch-i gap bound at depth, or its branch-ii image under
    (a, b, v) -> (b, a, 1-v), as a function of (a, b, v)."""
    if branch == "i":
        return lambda a, b, v: fn(a, b, v, depth)
    return lambda a, b, v: fn(b, a, 1.0 - v, depth)


def _comparison_claims() -> list:
    gb_prop = scalar.gap_bound_zw_proposition
    main, sm = scalar.gap_bound_main_reverse, scalar.gap_bound_sm_reverse
    t2_i, t2_ii = _gap_bound(main, "i", 3), _gap_bound(main, "ii", 3)
    t2_ops = ("theorem_main_reverse", "compare_gap_bounds")
    zw_ops = t2_ops + ("zhao_wu_reverse",)
    sm_ops = t2_ops + ("lemma_sm_reverse", "refinement_sum_S", "sababheh_indices")
    claims = [
        _claim_dominance("dominance/a1-low", t2_i, gb_prop, (0.0, 0.25), zw_ops),
        _claim_dominance("dominance/a1-high", t2_i, gb_prop, (0.25, 0.5), zw_ops),
        _claim_dominance("dominance/a2", t2_i, gb_prop, (0.625, 0.75), zw_ops),
        _claim_dominance("dominance/a3", t2_i, gb_prop, (0.75, 1.0), zw_ops),
        _claim_dominance("dominance/b1", t2_ii, gb_prop, (0.0, 0.25), zw_ops),
        _claim_dominance("dominance/b2", t2_ii, gb_prop, (0.25, 0.375), zw_ops),
        _claim_dominance("dominance/b3-low", t2_ii, gb_prop, (0.5, 0.75), zw_ops),
        _claim_dominance("dominance/b3-high", t2_ii, gb_prop, (0.75, 1.0), zw_ops),
        _claim_dominance("dominance/sm-refines-dyadic", _gap_bound(sm, "i", 2),
                         _gap_bound(main, "i", 2), (0.25, 0.5), sm_ops),
        _claim_dominance("dominance/dyadic-recovers-sm", _gap_bound(main, "i", 2),
                         _gap_bound(sm, "ii", 2), (0.75, 1.0), sm_ops),
        _poly_grid_claim("poly/f-grid", scalar.comparison_poly_f, "comparison_poly_f"),
        _poly_grid_claim("poly/g-grid", scalar.comparison_poly_g, "comparison_poly_g"),
        ("poly/ratio-quartic", ("comparison_poly_f",), _claim_quartic),
        ("poly/factorizations", ("comparison_poly_f", "comparison_poly_g"),
         _claim_factorizations),
        ("limit/delta-decay", ("log_limit_gap",), _claim_limit_delta),
        ("limit/log-inequality", ("log_limit_gap",), _claim_limit_log),
        ("compare/bound-validity",
         ("compare_gap_bounds", "theorem_main_reverse", "lemma_sm_reverse",
          "zhao_wu_reverse", "corollary_one_term", "refinement_sum_S",
          "sababheh_indices", "young_lhs", "weighted_geometric"),
         _claim_bound_validity),
    ]
    return claims


def run_comparison_suite(cfg: SuiteConfig) -> SuiteReport:
    """Grid checks of the stated orderings between bound families, the
    comparison polynomials, and the logarithmic limit behavior."""
    cfg.validate()
    report = _run_suite(cfg, "comparison", (
        (key, "comparison", "", runner(cfg), ops) for key, ops, runner in _comparison_claims()))
    for record in report.all_failure_records():
        record["cause"] = "claim violated"
    return report


def run_all(cfg: SuiteConfig) -> SuiteReport:
    """Run the scalar, operator, and comparison suites selected by cfg.families."""
    cfg.validate()
    reports = []
    if _selected(cfg, SCALAR_ROWS, "scalar"):
        reports.append(run_scalar_suite(cfg))
    if _selected(cfg, OPERATOR_ROWS, "operator"):
        reports.append(run_operator_suite(cfg))
    if _comparison_selected(cfg):
        reports.append(run_comparison_suite(cfg))
    merged = merge_reports("all", reports)
    merged.config = cfg.as_dict()
    return merged
