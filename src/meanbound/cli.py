"""Command-line interface.

Subcommands: bound (evaluate one scalar bound at a point), check-scalar
(every applicable scalar bound at a point), check-operator (one operator
bound on two matrix files), compare (gap-bound comparison at a point),
suite (randomized verification suites), repro (the fixed reference-point
comparison).

Exit codes: 0 when the checked inequalities hold or their hypotheses are
not met, 1 when a hypothesis-valid inequality is violated (or a suite
records failures), 2 on input or configuration errors and on results that
overflow the floating-point range.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import __version__, harness, reporting, scalar
from .harness import ConfigError, EmptyRegionError, SuiteConfig
from .matrices import JacobiConvergenceError, MatrixError, load_spd_matrix
from .operators import OPERATOR_BY_NAME, OPERATOR_TABLE
from .scalar import DomainError

_SEED_ENV = "MEANBOUND_SEED"

# Published values of the reference-point comparison (a=1, b=16, v=1/8):
# the two-term dyadic bound (19) and the quoted value for the depth-2
# indexed-refinement bound (15), which actually matches the full right-hand
# side of the dyadic inequality at the same point.
_REPORTED_19 = 4.875
_REPORTED_15 = 6.2892


def parse_number(text: str) -> float:
    """Parse a decimal or an integer fraction such as 1/8."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            return int(num, 10) / int(den, 10)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"cannot parse fraction {text!r}") from None
    try:
        return float(text)
    except ValueError:
        raise DomainError(f"cannot parse number {text!r}") from None


def _emit(doc: dict, csv_rows: list, text: str, fmt: str, out_path) -> None:
    if fmt == "json":
        payload = reporting.dumps(doc)
    elif fmt == "csv":
        payload = reporting.to_csv(csv_rows)
    else:
        payload = text
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")


def _doc(config: dict, results: list, failures: list) -> dict:
    return {"tool_version": __version__, "config": config,
            "results": results, "failures": failures}


def _report_text(rep) -> str:
    d = rep.as_dict()
    pairs = " ".join(f"{key}={_short(value)}" for key, value in d.items())
    return pairs


def _short(value) -> str:
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return str(value)
    return "%.10g" % value


def cmd_bound(args) -> int:
    family = args.family
    rows = [row for row in harness.SCALAR_ROWS if row.family == family]
    if not rows:
        names = sorted({row.family for row in harness.SCALAR_ROWS})
        raise DomainError(f"unknown family {family!r}; scalar families: "
                          f"{', '.join(names)}")
    if rows[0].min_depth is not None and args.n is None:
        raise DomainError(f"family {family} requires --n")
    if rows[0].branch == "i" and args.branch is None:
        raise DomainError(f"family {family} requires --branch i|ii")
    # one row, or one per branch (picked by --branch) or per form (--form)
    row = next(r for r in rows if r.branch in ("", args.branch, args.form))
    rep = row.evaluate(args.a, args.b, args.v, args.n)
    doc = _doc({"command": "bound"}, [rep.as_dict()], [])
    _emit(doc, [rep.as_dict()], _report_text(rep), args.format, args.out)
    return 0 if (rep.holds or not rep.hypothesis_ok) else 1


def cmd_check_scalar(args) -> int:
    wanted = args.family or sorted({row.family for row in harness.SCALAR_ROWS})
    results, lines, violated = [], [], False
    for family in wanted:
        rows = [row for row in harness.SCALAR_ROWS if row.family == family]
        if not rows:
            raise DomainError(f"unknown family {family!r}")
        for row in rows:
            try:
                rep = row.evaluate(args.a, args.b, args.v, args.n)
            except DomainError as exc:
                lines.append(f"{family}/{row.branch}: not applicable ({exc})")
                continue
            results.append(rep.as_dict())
            lines.append(_report_text(rep))
            if rep.hypothesis_ok and not rep.holds:
                violated = True
    doc = _doc({"command": "check-scalar"}, results, [])
    _emit(doc, results, "\n".join(lines), args.format, args.out)
    return 1 if violated else 0


def cmd_check_operator(args) -> int:
    family = OPERATOR_BY_NAME.get(args.family)
    if family is None:
        raise DomainError(f"unknown operator family {args.family!r}; families: "
                          f"{', '.join(fam.name for fam in OPERATOR_TABLE)}")
    if args.n is None:
        raise DomainError("check-operator requires --n")
    mat_a = load_spd_matrix(args.matrix_a)
    mat_b = load_spd_matrix(args.matrix_b)
    rep = family.evaluate(mat_a, mat_b, args.v, args.n, args.branch or "i")
    doc = _doc({"command": "check-operator"}, [rep.as_dict()], [])
    _emit(doc, [rep.as_dict()], _report_text(rep), args.format, args.out)
    return 0 if (rep.holds or not rep.hypothesis_ok) else 1


def cmd_compare(args) -> int:
    rep = scalar.compare_gap_bounds(args.a, args.b, args.v, args.n if args.n else 3)
    lines = [f"true gap (lhs - geometric): {_short(rep.true_gap)}"]
    for bound in rep.bounds:
        flag = "ok " if bound.hypothesis_ok else "off"
        lines.append(f"  [{flag}] {bound.label}: {_short(bound.value)}")
    valid = [g for g in rep.bounds if g.hypothesis_ok]
    if valid:
        best = min(valid, key=lambda g: g.value)
        lines.append(f"tightest valid bound: {best.label} = {_short(best.value)}")
    doc = _doc({"command": "compare"}, [rep.as_dict()], [])
    _emit(doc, [g.as_dict() for g in rep.bounds], "\n".join(lines),
          args.format, args.out)
    return 0


def cmd_repro(args) -> int:
    a, b, v = 1.0, 16.0, 0.125
    geo = scalar.weighted_geometric(a, b, v)
    gb_dyadic = scalar.gap_bound_main_reverse(a, b, v, 2)
    gb_sm = scalar.gap_bound_sm_reverse(a, b, v, 2)
    full_rhs = geo + gb_dyadic
    tighter_ok = (abs(gb_dyadic - _REPORTED_19) <= 1e-12
                  and abs(gb_sm - 6.1887085) <= 1e-6
                  and abs(full_rhs - 6.2892136) <= 1e-6
                  and gb_dyadic < gb_sm)
    lines = [
        "reference point: a=1 b=16 v=1/8",
        f"(19): {_short(gb_dyadic)}  [published: {_short(_REPORTED_19)}]",
        f"(15) recomputed: {_short(gb_sm)}",
        f"(15) as published: {_short(_REPORTED_15)}  "
        f"(matches the full right-hand side {_short(full_rhs)} of (19)'s "
        f"inequality, geometric-mean term included)",
        f"tighter: {'(19)' if gb_dyadic < gb_sm else '(15)'}",
    ]
    results = [{
        "a": a, "b": b, "v": v,
        "bound_19": gb_dyadic,
        "bound_19_published": _REPORTED_19,
        "bound_15_recomputed": gb_sm,
        "bound_15_published": _REPORTED_15,
        "full_rhs_depth2": full_rhs,
        "tighter": "(19)" if gb_dyadic < gb_sm else "(15)",
        "consistent": tighter_ok,
    }]
    doc = _doc({"command": "repro"}, results, [])
    _emit(doc, results, "\n".join(lines), args.format, args.out)
    return 0 if tighter_ok else 1


def _name_list(text: str) -> tuple:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _int_list(text: str) -> tuple:
    return tuple(map(int, _name_list(text)))


def _boolean(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


# Every suite setting once: its config-file key (the flag is --key with
# dashes), the cast of its text, and the flag's help.  Flags and the file
# both give text; $MEANBOUND_SEED wins over --seed, a flag over the file.
_SUITE_SETTINGS = (
    ("families", _name_list, "comma list of families, or all/scalar/operator/comparison"),
    ("trials", int, None),
    ("seed", int, f"overridden by ${_SEED_ENV} when set"),
    ("scalar_lo", float, None),
    ("scalar_hi", float, None),
    ("v_lo", float, None),
    ("v_hi", float, None),
    ("dims", _int_list, "comma list, e.g. 1,2,4,8"),
    ("depths", _int_list, "comma list, e.g. 1,2,3,4,5,6"),
    ("cond_max", float, None),
    ("margin", float, None),
    ("grid_points", int, None),
    ("boundary_probe", _boolean, "sample exactly at window endpoints and expect equality"),
)
_RANGES = (("scalar_range", "scalar_lo", "scalar_hi"), ("v_range", "v_lo", "v_hi"))


def _config_from_file(path: str) -> dict:
    """Flat key = value file; keys match the suite flags."""
    values: dict = {}
    known = [key for key, _, _ in _SUITE_SETTINGS]
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line {raw.rstrip()!r}")
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}; known: {', '.join(known)}")
            values[key] = value.strip()
    return values


def _build_suite_config(args) -> SuiteConfig:
    sources = (("$" + _SEED_ENV, {"seed": os.environ.get(_SEED_ENV) or None}),
               ("flag", vars(args)),
               ("config file", _config_from_file(args.config) if args.config else {}))
    values: dict = {}
    for key, cast, _ in _SUITE_SETTINGS:
        for source, given in sources:
            text = given.get(key)
            if text is not None:
                try:
                    values[key] = cast(text)
                except ValueError:
                    raise ConfigError(f"{key!r} ({source}): cannot parse {text!r}") from None
                break
    for name, lo, hi in _RANGES:
        if lo in values or hi in values:
            base = getattr(SuiteConfig, name)
            values[name] = (values.pop(lo, base[0]), values.pop(hi, base[1]))
    cfg = SuiteConfig(**values)
    cfg.validate()
    return cfg


def cmd_suite(args) -> int:
    cfg = _build_suite_config(args)
    report = harness.run_all(cfg)
    code = 0 if report.total_failures == 0 else 1
    doc = report.to_doc(include_wall_time=True)
    if args.format == "csv":  # the rows, to --out when given
        _emit(doc, [row.as_dict() for row in report.rows], "", "csv", args.out)
        return code
    # text and json runs write the JSON report to --out
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(reporting.dumps(doc))
    if args.format == "json" and not args.out:
        sys.stdout.write(reporting.dumps(doc))
        return code
    lines = []
    for row in report.rows:
        worst = "n/a" if row.worst_gap is None else "%.6g" % row.worst_gap
        lines.append(f"{row.key}: trials={row.trials} passes={row.passes} "
                     f"failures={row.failures} skipped={row.skipped} worst_gap={worst}")
    lines.append(f"total failures: {report.total_failures} "
                 f"(wall {report.wall_time_s:.2f}s)")
    sys.stdout.write("\n".join(lines) + "\n")
    return code


@functools.cache  # built once per process; parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanbound",
        description="Evaluate and verify reverse Young/Heinz mean bounds, "
                    "scalar and operator (SPD) versions.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "json", "csv"), default="text")
        p.add_argument("--out", default=None, help="write output to this file")

    def add_point(p, need_ab=True):
        if need_ab:
            p.add_argument("--a", type=parse_number, required=True)
            p.add_argument("--b", type=parse_number, required=True)
        p.add_argument("--v", type=parse_number, required=True,
                       help="weight; decimals and fractions like 1/8 accepted")
        p.add_argument("--n", type=int, default=None, help="refinement depth")

    p_bound = sub.add_parser("bound", help="evaluate one scalar bound at a point")
    p_bound.add_argument("--family", required=True)
    p_bound.add_argument("--branch", choices=("i", "ii"), default=None)
    p_bound.add_argument("--form", choices=("lemma", "proposition"), default="lemma")
    add_point(p_bound)
    add_common(p_bound)
    p_bound.set_defaults(func=cmd_bound)

    p_check = sub.add_parser("check-scalar",
                             help="evaluate every applicable scalar bound at a point")
    p_check.add_argument("--family", action="append", default=None)
    add_point(p_check)
    add_common(p_check)
    p_check.set_defaults(func=cmd_check_scalar)

    p_op = sub.add_parser("check-operator",
                          help="evaluate one operator bound on two matrix files")
    p_op.add_argument("matrix_a", help="path to the left matrix file")
    p_op.add_argument("matrix_b", help="path to the right matrix file")
    p_op.add_argument("--family", required=True)
    p_op.add_argument("--branch", choices=("i", "ii"), default=None)
    add_point(p_op, need_ab=False)
    add_common(p_op)
    p_op.set_defaults(func=cmd_check_operator)

    p_cmp = sub.add_parser("compare", help="compare gap bounds at a point")
    add_point(p_cmp)
    add_common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_suite = sub.add_parser("suite", help="run the randomized verification suites")
    for key, cast, text in _SUITE_SETTINGS:
        flag = "--" + key.replace("_", "-")
        if cast is _boolean:  # a bare switch, given as the text "true"
            p_suite.add_argument(flag, action="store_const", const="true", help=text)
        else:
            p_suite.add_argument(flag, help=text)
    p_suite.add_argument("--config", default=None, help="flat key=value config file")
    add_common(p_suite)
    p_suite.set_defaults(func=cmd_suite)

    p_repro = sub.add_parser("repro",
                             help="reproduce the reference-point bound comparison")
    add_common(p_repro)
    p_repro.set_defaults(func=cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, MatrixError, ConfigError, EmptyRegionError,
            JacobiConvergenceError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
