"""Seeded randomized verification suites for the scalar and operator bounds.

Every trial derives its own generator substream from (seed, row key, trial
index), so identical configurations replay byte-identically and trials are
order-independent; a row's substream states come from one numpy pass.
Suites never abort on a failing trial; every failure is recorded with the
full inputs needed to replay it without randomness.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from . import scalar
from .matrices import LOEWNER_REL_TOL, SpdMatrix
from .operators import OPERATOR_BY_NAME, OPERATOR_TABLE
from .rng import SUBSTREAM_CHUNK, Xoshiro256StarStar, derive_seed, fnv1a64, substream_states
from .scalar import SCALAR_TABLE, BoundReport, DomainError, Family


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
    return _sample_pieces(_spread(pieces), rng.random())


def _spread(pieces: list) -> tuple:
    """Nonempty clipped pieces from Region.intervals as (((lo, width), ...),
    total width), the form _sample_pieces draws from."""
    spread = tuple((lo, hi - lo) for lo, hi in pieces)
    total = sum(width for _, width in spread)
    if not math.isfinite(total):  # every draw would land on the last endpoint
        raise ConfigError(f"weight pieces {pieces} are wider than the floating-point range")
    return spread, total


def _sample_pieces(source: tuple, u: float) -> float:
    """The point a fraction u in [0, 1) of the way through a _spread's
    pieces; rounding that carries it past the last piece stops at its end."""
    spread, total = source
    x = u * total
    for lo, width in spread[:-1]:
        if x < width:
            return lo + x
        x -= width
    lo, width = spread[-1]
    return lo + min(x, width)


# ---------------------------------------------------------------------------
# Random SPD instances
# ---------------------------------------------------------------------------

def random_spd(dim: int, cond_max: float, rng: Xoshiro256StarStar) -> SpdMatrix:
    """Random SPD matrix Q diag(lam) Q^T with log-uniform spectrum.

    Q is the orthogonal factor of the QR factorization of a standard-Gaussian
    matrix, with the column signs LAPACK gives: negating column j negates both
    factors of each product q_ij lam_j q_kj, so no sign choice changes a bit
    of Q diag(lam) Q^T.  The eigenvalues are log-uniform in [cond_max^-1/2,
    cond_max^1/2].  Fully determined by the generator state.
    """
    # dims and cond_max as SuiteConfig states them, dim as a one-entry dims
    if not (_is_int(dim) and _SETTINGS["dims"]["ok"]((dim,))):
        raise ConfigError(f"dim must be an integer >= 1, got {scalar._shown(dim)}")
    _check([("cond_max", cond_max, _SETTINGS["cond_max"])])
    # rng.log_uniform(cond_max ** -0.5, cond_max ** 0.5), its logs taken once
    llo, lhi = math.log(cond_max ** -0.5), math.log(cond_max ** 0.5)
    if dim == 1:
        return SpdMatrix._trusted(np.array([[math.exp(llo + (lhi - llo) * rng.random())]]))
    values = []
    while len(values) < dim * dim:
        values.extend(rng.gauss_pair())
    gauss = np.array(values[: dim * dim]).reshape(dim, dim)
    q = np.linalg.qr(gauss)[0]
    lam = np.array([math.exp(llo + (lhi - llo) * rng.random()) for _ in range(dim)])
    entries = (q * lam) @ q.T
    entries = 0.5 * (entries + entries.T)
    # the factorization is recomputed from the entries on each read, so a
    # matrix rebuilt from a failure record replays through the same path
    return SpdMatrix._trusted(entries)


# ---------------------------------------------------------------------------
# Suite configuration
# ---------------------------------------------------------------------------

def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    # an int past the float range would overflow where it meets a float
    return isinstance(x, float) or (_is_int(x) and abs(x) <= sys.float_info.max)


def _seq_of(item: Callable) -> Callable:
    return lambda x: isinstance(x, (list, tuple)) and all(map(item, x))


def _name_list(text: str) -> tuple:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def parse_number(text: str) -> float:
    """Parse a decimal or an integer fraction such as 1/8."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return int(num, 10) / int(den, 10)
        except (ValueError, ArithmeticError):  # a quotient past the float range too
            raise DomainError(f"cannot parse fraction {text!r}") from None
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"cannot parse number {text!r}") from None


# a setting's kind: type rule, words of its message, text cast (of each end,
# for a pair); no bool is a number here and no string a list of names
_INT = (_is_int, "an integer", int)
_REAL = (_is_real, "a real number", parse_number)
_PAIR = (lambda x: _seq_of(_is_real)(x) and len(x) == 2, "a pair of real numbers", parse_number)
_INTS = (_seq_of(_is_int), "a list or tuple of integers",
         lambda text: tuple(map(int, _name_list(text))))
_NAMES = (_seq_of(lambda x: isinstance(x, str)), "a list or tuple of names", _name_list)
_BOOL = (lambda x: isinstance(x, bool), "True or False",
         lambda text: bool(("false", "true").index(text.lower())))  # ValueError on other text


def _setting(default, kind: tuple, must: str = "", ok=None, help: Optional[str] = None):
    """A SuiteConfig field: its default; as metadata its kind, value rule and help."""
    is_type, words, cast = kind
    return field(default=default, metadata={"is_type": is_type, "words": words, "cast": cast,
                                            "must": must, "ok": ok, "help": help})


def _check(settings: list) -> None:
    """Raise the ConfigError of the first rule a (name, value, metadata) breaks;
    type rules go first, so no value rule sees a value of another type."""
    for name, value, meta in settings:
        if not meta["is_type"](value):
            raise ConfigError(f"{name} must be {meta['words']}, got {scalar._shown(value)}")
    for name, value, meta in settings:
        if meta["ok"] is not None and not meta["ok"](value):
            raise ConfigError(f"{name} must {meta['must']}, got {scalar._shown(value)}")


@dataclass(frozen=True)
class SuiteConfig:
    """The settings of a suite run, each stated once, as its field.

    ``_setting`` makes each field: its default and, as metadata, its kind
    (type rule, type-message words, text cast), its value rule with the words
    of that rule's message, and its flag help.  ``validate``, ``random_spd``,
    the CLI flags and the config-file keys read the fields, so adding a
    setting means adding one field; field order is the report's order."""

    seed: int = _setting(42, _INT, "be a 64-bit unsigned integer", lambda s: 0 <= s < 2 ** 64,
                         help="overridden by $MEANBOUND_SEED when set")
    trials: int = _setting(1000, _INT, "be >= 1", lambda trials: trials >= 1)
    scalar_range: tuple = _setting((1e-3, 1e3), _PAIR, "satisfy 0 < lo < hi",
                                   lambda r: 0.0 < r[0] < r[1] and math.isfinite(r[1]))
    # a width past the float range would send every draw to the last endpoint
    v_range: tuple = _setting((-6.0, 6.0), _PAIR, "satisfy lo < hi with a finite width hi - lo",
                              lambda r: r[0] < r[1] and math.isfinite(r[1] - r[0]))
    dims: tuple = _setting((1, 2, 4, 8), _INTS, "be positive integers",
                           lambda ds: bool(ds) and all(d >= 1 for d in ds),
                           help="comma list, e.g. 1,2,4,8")
    cond_max: float = _setting(1e4, _REAL, "be finite and >= 1", lambda c: 1.0 <= c < math.inf)
    depths: tuple = _setting((1, 2, 3, 4, 5, 6), _INTS, f"lie in 1..{scalar.MAX_DEPTH}",
                             lambda ns: bool(ns) and all(1 <= n <= scalar.MAX_DEPTH for n in ns),
                             help="comma list, e.g. 1,2,3,4,5,6")
    # no value rule: validate checks the names last, with messages of their own
    families: tuple = _setting(("all",), _NAMES,
                               help="comma list of families, or all/scalar/operator/comparison")
    margin: float = _setting(1e-6, _REAL, "be finite and >= 0", lambda m: 0.0 <= m < math.inf)
    # the x grids take grid_points - 1 >= 2 points
    grid_points: int = _setting(50, _INT, "be >= 3", lambda points: points >= 3)
    boundary_probe: bool = _setting(False, _BOOL,
                                    help="sample exactly at window endpoints and expect equality")

    def validate(self) -> None:
        _check([(f.name, getattr(self, f.name), f.metadata) for f in fields(self)])
        if not self.families:
            raise ConfigError("families must name at least one family or selector")
        unknown = [f for f in self.families if f not in _KNOWN_FAMILY_SELECTORS]
        if unknown:
            raise ConfigError(f"unknown families: {unknown}; known: "
                              f"{sorted(_KNOWN_FAMILY_SELECTORS)}")

    def as_dict(self) -> dict:
        # the verdicts are the evaluators' own, at the library tolerances,
        # which the report records among the settings, after the margin
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
            if f.name == "margin":
                out.update(rel_tol=scalar.REL_TOL, loewner_rel=LOEWNER_REL_TOL)
        return out


_SETTINGS = {f.name: f.metadata for f in fields(SuiteConfig)}


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


_BASE_OPS = ("young_lhs", "weighted_geometric")


def _evaluator(fn, takes_depth: bool, branch: str) -> Callable:
    """fn as a row evaluator (a, b, v, n), passing n and the branch or form
    only to the families that take them."""
    takes = (takes_depth, bool(branch))
    return lambda a, b, v, n: fn(a, b, v, *itertools.compress((n, branch), takes))


def _rows(table: tuple, base_ops: tuple) -> list:
    """One suite row per family of ``table`` and branch (or form)."""

    def row(fam: Family, branch: str) -> FamilyRow:
        bounds = functools.partial(fam.bounds, branch)
        return FamilyRow(f"{fam.key}/{branch}" if branch else fam.key, fam.key, branch,
                         fam.min_depth, lambda n: Region(fam.kind, *bounds(n)),
                         bounds if fam.probe is None else (lambda n: fam.probe),
                         _evaluator(fam.evaluate, fam.min_depth is not None, branch),
                         (fam.evaluate.__name__,) + fam.ops + base_ops)

    return [row(fam, branch) for fam in table for branch in fam.branches]


SCALAR_ROWS = _rows(SCALAR_TABLE, _BASE_OPS)
# (family, branch) -> the family whose row pass serves the row; other rows loop
_PASS_FAMILIES = {(fam.key, branch): fam for fam in SCALAR_TABLE for branch in fam.branches}
OPERATOR_ROWS = _rows(OPERATOR_TABLE, ())

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


# ---------------------------------------------------------------------------
# Suite runners
# ---------------------------------------------------------------------------

def _pick(seq, rng: Xoshiro256StarStar):
    return seq[rng.randint(len(seq))] if len(seq) > 1 else seq[0]


def _weight_sources(cfg: SuiteConfig, row: FamilyRow) -> list:
    """(n, source) for each depth n of cfg.depths the row takes, repeats
    kept, in order (n None for a family that takes no depth).  A source is
    what a trial's weight is drawn from: the boundary-probe points, or the
    _spread of the row's hypothesis region clipped to the v range; None when
    there is nothing to draw and the trial is skipped."""
    depths = [None] if row.min_depth is None else [n for n in cfg.depths if n >= row.min_depth]
    if not depths:
        raise ConfigError(
            f"row {row.key} requires depth >= {row.min_depth}; none in {cfg.depths}")
    if cfg.boundary_probe:
        return [(n, row.probe(n) or None) for n in depths]
    return [(n, _spread(pieces) if (pieces := row.region(n).intervals(cfg.v_range, cfg.margin))
             else None) for n in depths]


def _verdict(evaluate: Callable, x, y, v, n, probing: bool, cause: str) -> tuple:
    """The one trial rule of both suites, as (ok, gap, cause) of
    evaluate(x, y, v, n): an evaluation error fails the trial, its type and
    message the cause; a boundary probe passes iff |gap| <= tol; otherwise
    the evaluator's verdict stands where its hypothesis holds, and the trial
    is skipped (None) elsewhere."""
    try:
        rep = evaluate(x, y, v, n)
    except Exception as exc:  # recorded, never fatal
        return False, None, f"{type(exc).__name__}: {exc}"
    ok = abs(rep.gap) <= rep.tol if probing else (rep.holds if rep.hypothesis_ok else None)
    return ok, rep.gap, cause


def _tally(key, family, branch, outcomes, ops, tail: dict, coverage: dict) -> RowResult:
    """The one place a row's outcomes are counted and its failures recorded.

    ``outcomes`` yields one (ok, margin, details) per trial: ok is True for
    a pass, False for a failure, recorded as {"row", "trial", **details,
    **tail}, and None for a skip; only a failure builds its details.  The
    worst margin is the least over the passes; every trial counts toward the
    coverage of ``ops``.
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
            records.append({"row": key, "trial": trials - 1, **details, **tail})
    for op in ops:
        coverage[op] = coverage.get(op, 0) + trials
    return RowResult(key, family, branch, trials, passes, failures, skipped, worst, records)


def _run_suite(cfg: SuiteConfig, kind: str) -> SuiteReport:
    """Validate cfg once and tally every selected row of one kind, or of all
    (the comparison claims when cfg.families selects them), in one pass; the
    report's wall time is the whole pass."""
    start = time.perf_counter()
    cfg.validate()
    kinds = (kind,)
    if kind == "all":
        comparison = ("comparison",) if {"all", "comparison"} & set(cfg.families) else ()
        kinds = ("scalar", "operator") + comparison
    coverage: dict = {}
    results = [_tally(*row, coverage) for part in kinds for row in _kind_rows(cfg, part)]
    return SuiteReport(kind, cfg.as_dict(), results, coverage, time.perf_counter() - start)


def _kind_rows(cfg: SuiteConfig, kind: str) -> list:
    """Each row of one kind as (key, family, branch, outcomes, ops, tail), the
    tail closing its failure records (a grid claim's cause); the comparison
    claims are all taken whatever cfg.families says."""
    if kind == "comparison":
        return [(key, "comparison", "", runner(cfg), ops, {"cause": "claim violated"})
                for key, ops, runner in _comparison_claims()]
    rows, outcomes = ((SCALAR_ROWS, _scalar_outcomes) if kind == "scalar"
                      else (OPERATOR_ROWS, _operator_outcomes))
    return [(row.key, row.family, row.branch, outcomes(cfg, row), row.ops, {})
            for row in _selected(cfg, rows, kind)]


def run_scalar_suite(cfg: SuiteConfig) -> SuiteReport:
    """Sample each scalar row inside its hypothesis region and collect verdicts."""
    return _run_suite(cfg, "scalar")


def _scalar_outcomes(cfg: SuiteConfig, row: FamilyRow):
    picks = _weight_sources(cfg, row)
    count = len(picks)
    # derive_seed(seed, key, trial) is derive_seed(derive_seed(seed, key), trial)
    row_seed = derive_seed(cfg.seed, fnv1a64("scalar/" + row.key))
    # a and b as rng.log_uniform(*cfg.scalar_range) draws them
    llo, lhi = (math.log(end) for end in cfg.scalar_range)
    width = lhi - llo
    probing = cfg.boundary_probe
    evaluate = row.evaluate
    fam = None if probing else _PASS_FAMILIES.get((row.family, row.branch))
    # a trial draws at most four words (depth, a, b, v): all come from the
    # lockstep pass, and the generator steps itself only past them
    states = substream_states(row_seed, cfg.trials, ahead=4)
    for _ in range(0, cfg.trials, SUBSTREAM_CHUNK):
        points = []
        for state in itertools.islice(states, SUBSTREAM_CHUNK):
            rng = Xoshiro256StarStar(state)
            n, source = picks[rng.randint(count)] if count > 1 else picks[0]
            a = math.exp(llo + width * rng.random())
            b = math.exp(llo + width * rng.random())
            points.append(None if source is None else (
                a, b, _pick(source, rng) if probing else _sample_pieces(source, rng.random()), n))
        drawn = [point for point in points if point]
        clear = iter(_clear_passes(fam, row.branch, drawn) if fam and drawn else ())
        for point in points:
            if point is None:
                yield None, None, None
            elif next(clear, False):
                yield True, None, None
            else:
                a, b, v, n = point
                ok, gap, cause = _verdict(evaluate, a, b, v, n, probing, "gap below tolerance")
                yield ok, gap, None if ok or ok is None else {
                    "a": a, "b": b, "v": v, "n": n, "gap": gap, "cause": cause}


def _clear_passes(fam: Family, branch: str, points: list) -> list:
    """Per point (a, b, v, n) drawn, whether the row pass decides it as a pass
    by the settlement rule (_clear), where the hypothesis holds and lhs and rhs
    are finite."""
    a, b, v, depths = zip(*points)
    v, n = np.array(v), None if fam.min_depth is None else np.array(depths)
    lhs, rhs, gap, scale = scalar.row_gaps(fam.key, branch, np.array(a), np.array(b), v, n)
    with np.errstate(all="ignore"):
        ok = fam.hypothesis(branch, v, n) & np.isfinite(lhs) & np.isfinite(rhs)
        return _clear(ok, gap, scalar._tol(lhs, rhs), scale)


def _clear(counted, margin, tol, scale) -> list:
    """The one settlement rule of the scalar rows and the grid claims: per
    point, whether its array pass decides it as a pass; the float path settles
    every other point.  margin, tol and the error scale M hold a row per bound
    (a 1-d array: one bound a point), of which ``counted`` marks those the
    point's verdict reads.  A point is clear where it has a counted bound and
    each has finite margin and M, M <= PASS_SCALE_MAX and margin + tol > delta
    = PASS_REL_ERROR * M; save those whose least margin is within 2 delta of
    the least margin + delta of all of them (delta the point's largest), so
    that the float path settles the least margin."""
    counted, margin, tol, scale = np.broadcast_arrays(
        *map(np.atleast_2d, (counted, margin, tol, scale)))
    with np.errstate(all="ignore"):
        delta = scalar.PASS_REL_ERROR * scale
        fine = np.isfinite(margin) & (scale <= scalar.PASS_SCALE_MAX) & (margin + tol > delta)
        ok = (fine | ~counted).all(axis=0) & counted.any(axis=0)
        if ok.any():
            least = np.where(counted, margin, np.inf).min(axis=0)
            delta = np.where(counted, delta, 0.0).max(axis=0)
            ok &= least - delta > (least + delta)[ok].min()
    return ok.tolist()


def run_operator_suite(cfg: SuiteConfig) -> SuiteReport:
    """Sample random SPD pairs for each operator row and collect Loewner verdicts."""
    return _run_suite(cfg, "operator")


def _operator_outcomes(cfg: SuiteConfig, row: FamilyRow):
    picks = _weight_sources(cfg, row)
    row_seed = derive_seed(cfg.seed, fnv1a64("operator/" + row.key))
    probing = cfg.boundary_probe
    # no read-ahead: a trial draws dozens of words in random_spd, and over
    # a row of few trials a lockstep pass of few lanes cost more than it saved
    for state in substream_states(row_seed, cfg.trials):
        rng = Xoshiro256StarStar(state)
        dim = _pick(cfg.dims, rng)
        n, source = _pick(picks, rng)
        if source is None:
            yield None, None, None
            continue
        v = _pick(source, rng) if probing else _sample_pieces(source, rng.random())
        mat_a = random_spd(dim, cfg.cond_max, rng)
        mat_b = random_spd(dim, cfg.cond_max, rng)
        ok, gap, cause = _verdict(row.evaluate, mat_a, mat_b, v, n, probing,
                                  "min eigenvalue below tolerance")
        yield ok, gap, None if ok or ok is None else {
            "dim": dim, "v": v, "n": n, "min_eig_gap": gap, "matrix_a": mat_a.entries.tolist(),
            "matrix_b": mat_b.entries.tolist(), "cause": cause}


def replay_scalar_failure(record: dict) -> BoundReport:
    """Re-run a recorded scalar failure from its inputs alone (no randomness)."""
    row = next(r for r in SCALAR_ROWS if r.key == record["row"])
    return row.evaluate(record["a"], record["b"], record["v"], record["n"])


def replay_operator_failure(record: dict):
    """Re-run a recorded operator failure from its recorded matrices."""
    row = next(r for r in OPERATOR_ROWS if r.key == record["row"])
    mat_a = SpdMatrix(record["matrix_a"])
    mat_b = SpdMatrix(record["matrix_b"])
    return row.evaluate(mat_a, mat_b, record["v"], record["n"])


# ---------------------------------------------------------------------------
# Grid-based comparison suite
# ---------------------------------------------------------------------------

def _log_grid(lo: float, hi: float, count: int) -> list:
    llo, lhi = math.log10(lo), math.log10(hi)
    return [10.0 ** (llo + (lhi - llo) * i / (count - 1)) for i in range(count)]


def _lin_grid(lo: float, hi: float, count: int) -> list:
    return [lo + (hi - lo) * i / (count - 1) for i in range(count)]


def _grid(ts: list, vs: list) -> tuple:
    """a = 1, b = t and v of the cells (t, v) of the ratio grid ts x vs, in
    itertools.product's order, as arrays."""
    b = np.repeat(ts, len(vs))
    return np.ones_like(b), b, np.tile(vs, len(ts))


def _claim_dominance(key, tighter, looser, v_window, ops):
    """Grid claim: the gap bound gap_bounds lists as ``tighter`` is at most the
    one it lists as ``looser``, on the ratio grid x v window."""

    def cell(t, v):
        low = scalar.gap_bound(tighter, 1.0, t, v)
        high = scalar.gap_bound(looser, 1.0, t, v)
        margin = high - low
        ok = margin >= -scalar._tol(low, high)
        return ok, margin, None if ok else {"ratio": t, "v": v, "tighter": low, "looser": high}

    def runner(cfg: SuiteConfig):
        ts = _log_grid(*cfg.scalar_range, cfg.grid_points)
        vs = _lin_grid(*v_window, cfg.grid_points)
        _, _, slots = scalar.slot_gaps(*_grid(ts, vs), scalar.MAX_DEPTH, (tighter, looser))
        (low, low_m, _), (high, high_m, _) = slots.values()
        with np.errstate(all="ignore"):
            clear = _clear(True, high - low, scalar._tol(low, high), low_m + high_m)
        for (t, v), ok in zip(itertools.product(ts, vs), clear):
            yield (True, None, None) if ok else cell(t, v)

    return key, ops, runner


def _poly_grid_claim(key, poly, op):
    """Nonnegativity of a comparison polynomial, with its minimum pinned at x=1."""

    def runner(cfg: SuiteConfig):
        xs = sorted(set(_log_grid(1e-2, 1e2, cfg.grid_points - 1)) | {1.0})
        for v in _lin_grid(0.75, 1.0, cfg.grid_points):
            values = [poly(x, v) for x in xs]
            best = min(range(len(xs)), key=lambda i: values[i])
            for x, val in zip(xs, values):
                ok = val >= -1e-12 * _poly_scale(x, v)
                yield ok, val, None if ok else {"x": x, "v": v, "value": val}
            at_one = values[xs.index(1.0)]
            ok = xs[best] == 1.0 and abs(at_one) <= 1e-12
            yield ok, at_one, (None if ok else
                               {"x": 1.0, "v": v, "min_at": xs[best], "value_at_one": at_one})

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
            value = scale = 0.0
            for term in terms:  # left to right: sum() compensates from Python 3.12 on
                value += term
                scale += abs(term)
            ok = value >= -1e-9 * (scale + 1.0)
            yield ok, value, None if ok else {"t": t, "v": v, "value": value}


def _claim_factorizations(cfg: SuiteConfig):
    xs = sorted(set(_log_grid(1e-2, 1e2, cfg.grid_points - 1)) | {1.0})
    # read here, not at import, so a traced scalar function is the one called
    polys = (("f", scalar.comparison_poly_f,
              lambda x: x * x * (x - 1.0) ** 2 * (2.0 * x + 1.0)),
             ("g", scalar.comparison_poly_g,
              lambda x: (x - 1.0) ** 2 * (x ** 4 + x ** 3 + 1.5 * x * x + x + 0.5)))
    for x in xs:
        for name, poly, factored in polys:
            value, reference = poly(x, 0.75), factored(x)
            ok = abs(value - reference) <= 1e-12 * _poly_scale(x, 0.75)
            yield ok, value - reference, (None if ok else {"poly": name, "x": x, "value": value,
                                                           "reference": reference})


def _claim_limit_delta(cfg: SuiteConfig):
    # Halving rate of the dyadic-root gap, plus the standard remainder bound.
    for exponent in _lin_grid(-2.0, 2.0, 8):
        ratio = 10.0 ** exponent
        log_ratio = math.log(ratio)
        deltas = {n: scalar.log_limit_gap(1.0, ratio, n) for n in range(5, 21)}
        for n in range(5, 20):
            rate = deltas[n] / deltas[n + 1]
            ok = rate >= 1.9 and deltas[n] <= log_ratio ** 2 * 2.0 ** (1 - n)
            yield ok, rate, (None if ok else
                             {"ratio": ratio, "n": n, "delta": deltas[n], "rate": rate})


def _claim_limit_log(cfg: SuiteConfig):
    xs = sorted(set(_log_grid(1e-2, 1e2, cfg.grid_points - 1))
                | {1.0, 1.0 - 1e-9, 1.0 + 1e-9})
    for x in xs:
        slack = scalar.fundamental_log_slack(x)
        ok = slack >= 0.0 and (slack >= 1e-12 or abs(x - 1.0) < 1e-6)
        yield ok, slack, None if ok else {"x": x, "slack": slack}
    for exponent in _lin_grid(-2.0, 2.0, 8):
        ratio = 10.0 ** exponent
        for v in _lin_grid(-6.0, 6.0, 25):
            slack = scalar.limit_inequality_slack(1.0, ratio, v)
            x = math.exp((v - 0.5) * math.log(ratio))
            ok = slack >= 0.0 and (slack >= 1e-12 or abs(x - 1.0) < 1e-6)
            yield ok, slack, None if ok else {"ratio": ratio, "v": v, "slack": slack}


def _claim_bound_validity(cfg: SuiteConfig):
    # Every hypothesis-valid gap bound must dominate the true gap; the pairs
    # compare_gap_bounds adds need no check, as it keeps only margins >= 0.
    rel_tol = scalar.REL_TOL
    ts, vs = _log_grid(*cfg.scalar_range, 20), _lin_grid(0.0, 1.0, 21)
    a, b, v = _grid(ts, vs)
    true_gap, true_m, slots = scalar.slot_gaps(a, b, v, 3)
    values, scales, valid = map(np.array, zip(*slots.values()))
    with np.errstate(all="ignore"):
        tol = rel_tol * (abs(values) + abs(true_gap)) + 1e-13 * (1.0 + b)
        listed = np.isfinite(values).all(axis=0) & np.isfinite(true_gap)
        clear = _clear(valid & listed, values - true_gap, tol, scales + true_m)
    for (t, v), ok in zip(itertools.product(ts, vs), clear):
        if ok:
            yield True, None, None
            continue
        true_gap, bounds = scalar.gap_bounds(1.0, t, v, 3)
        ok = True
        worst = math.inf
        for _, value, hypothesis_ok in bounds:
            if not hypothesis_ok:
                continue
            slack = value - true_gap
            worst = min(worst, slack)
            if slack < -rel_tol * (abs(value) + abs(true_gap)) - 1e-13 * (1.0 + t):
                ok = False
        worst = None if worst is math.inf else worst
        yield ok, worst, None if ok else {"ratio": t, "v": v}


def _comparison_claims() -> list:
    t2_i, t2_ii = "theorem-main-reverse/i/n3", "theorem-main-reverse/ii/n3"
    gb_prop = "zhao-wu-reverse/proposition"
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
        _claim_dominance("dominance/sm-refines-dyadic", "lemma-sm-reverse/i/n2",
                         "theorem-main-reverse/i/n2", (0.25, 0.5), sm_ops),
        _claim_dominance("dominance/dyadic-recovers-sm", "theorem-main-reverse/i/n2",
                         "lemma-sm-reverse/ii/n2", (0.75, 1.0), sm_ops),
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
    return _run_suite(cfg, "comparison")


def run_all(cfg: SuiteConfig) -> SuiteReport:
    """Run the scalar, operator, and comparison rows selected by cfg.families
    in one pass."""
    return _run_suite(cfg, "all")
