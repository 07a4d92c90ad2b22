"""Command-line interface.

Subcommands: bound (evaluate one scalar bound at a point), check-scalar
(every applicable scalar bound at a point), check-operator (one operator
bound on two matrix files), compare (gap-bound comparison at a point),
suite (randomized verification suites), repro (the fixed reference-point
comparison).

Exit codes: 0 when the checked inequalities hold or their hypotheses are
not met, 1 when a hypothesis-valid inequality is violated (or a suite
records failures), 2 by error class: a ValueError (every input and
configuration error, and a file that is not UTF-8 text), an
ArithmeticError (a result past the floating-point range), an OSError or a
JacobiConvergenceError.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from . import __version__, harness, reporting, scalar
from .harness import ConfigError, SuiteConfig, parse_number
from .matrices import JacobiConvergenceError, _read_text, load_spd_matrix
from .operators import OPERATOR_BY_NAME, OPERATOR_TABLE
from .scalar import DomainError

_SEED_ENV = "MEANBOUND_SEED"

# Published values of the reference-point comparison (a=1, b=16, v=1/8):
# the two-term dyadic bound (19) and the quoted value for the depth-2
# indexed-refinement bound (15), which actually matches the full right-hand
# side of the dyadic inequality at the same point.
_REPORTED_19 = 4.875
_REPORTED_15 = 6.2892


def _number_flag(text: str) -> float:
    """parse_number for argparse, which prints only an ArgumentTypeError's text."""
    try:
        return parse_number(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _emit(args, results: list, text: str = "", rows=None, doc=None, fmt=None) -> None:
    """Write a command's output in fmt (args.format unless given) to --out,
    else to stdout: as json its document (unless given, the point verbs'
    document of ``results``), as csv its ``rows`` (unless given, ``results``),
    or its text."""
    fmt = fmt or args.format
    if fmt == "json":
        doc = doc or {"tool_version": __version__, "config": {"command": args.command},
                      "results": results, "failures": []}
        payload = reporting.dumps(doc)
    elif fmt == "csv":
        payload = reporting.to_csv(results if rows is None else rows)
    else:
        payload = text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload)
    else:
        sys.stdout.write(payload if payload.endswith("\n") else payload + "\n")


def _emit_reports(args, reports: list, text: str) -> int:
    """Write evaluated reports; exit 1 iff one's hypothesis holds and its
    inequality does not."""
    _emit(args, [rep.as_dict() for rep in reports], text)
    return int(any(rep.hypothesis_ok and not rep.holds for rep in reports))


def _report_text(rep) -> str:
    return " ".join(f"{key}={_short(value)}" for key, value in rep.as_dict().items())


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
    return _emit_reports(args, [rep], _report_text(rep))


def cmd_check_scalar(args) -> int:
    wanted = args.family or sorted({row.family for row in harness.SCALAR_ROWS})
    reports, lines = [], []
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
            reports.append(rep)
            lines.append(_report_text(rep))
    return _emit_reports(args, reports, "\n".join(lines))


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
    return _emit_reports(args, [rep], _report_text(rep))


def cmd_compare(args) -> int:
    rep = scalar.compare_gap_bounds(args.a, args.b, args.v, 3 if args.n is None else args.n)
    lines = [f"true gap (lhs - geometric): {_short(rep.true_gap)}"]
    for bound in rep.bounds:
        flag = "ok " if bound.hypothesis_ok else "off"
        lines.append(f"  [{flag}] {bound.label}: {_short(bound.value)}")
    valid = [g for g in rep.bounds if g.hypothesis_ok]
    if valid:
        best = min(valid, key=lambda g: g.value)
        lines.append(f"tightest valid bound: {best.label} = {_short(best.value)}")
    _emit(args, [rep.as_dict()], "\n".join(lines), rows=[g.as_dict() for g in rep.bounds])
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
    _emit(args, results, "\n".join(lines))
    return 0 if tighter_ok else 1


def _suite_keys() -> list:
    """(key, field, end, cast, help) of each config-file key, in field order;
    a pair <stem>_range gives <stem>_lo and <stem>_hi (end 0 and 1)."""
    keys = []
    for f in dataclasses.fields(SuiteConfig):
        stem = f.name.removesuffix("_range")
        ends = ((stem + "_lo", 0), (stem + "_hi", 1)) if stem != f.name else ((f.name, None),)
        keys += [(key, f.name, end, f.metadata["cast"], f.metadata["help"]) for key, end in ends]
    return keys


def _config_from_file(path: str) -> dict:
    """Flat key = value file; keys match the suite flags."""
    values: dict = {}
    known = [key for key, *_ in _suite_keys()]
    # text mode leaves "\n" as the only line end, as iterating the file would
    for raw in _read_text(path, ConfigError).split("\n"):
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
    # flags and the file both give text; $MEANBOUND_SEED wins over --seed, a flag over the file
    sources = (("$" + _SEED_ENV, {"seed": os.environ.get(_SEED_ENV) or None}),
               ("flag", vars(args)),
               ("config file", _config_from_file(args.config) if args.config else {}))
    values: dict = {}
    for key, name, end, cast, _ in _suite_keys():
        for source, given in sources:
            text = given.get(key)
            if text is not None:
                try:
                    value = cast(text)
                except ValueError:
                    raise ConfigError(f"{key!r} ({source}): cannot parse {text!r}") from None
                if end is not None:  # one end of a pair: the other keeps its default
                    pair = values.get(name, getattr(SuiteConfig, name))
                    value = (value, pair[1]) if end == 0 else (pair[0], value)
                values[name] = value
                break
    return SuiteConfig(**values)


def cmd_suite(args) -> int:
    report = harness.run_all(_build_suite_config(args))
    code = 0 if report.total_failures == 0 else 1
    # csv runs write the rows, json runs the JSON report, and text runs the
    # JSON report to --out if given; text runs, and json runs with --out,
    # then print the text summary
    if args.out or args.format != "text":
        _emit(args, [row.as_dict() for row in report.rows], doc=report.to_doc(),
              fmt="json" if args.format == "text" else None)
    if args.format == "csv" or (args.format == "json" and not args.out):
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that records each of its options that take one value
    (argparse makes the subparsers of its class too)."""

    def __init__(self, *args, **kwargs):
        self.value_flags = set()
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        if action.nargs is None:  # a positional records no option string
            self.value_flags.update(action.option_strings)
        return action


def _joined(argv: list, commands: dict) -> list:
    """argv with each one-value flag of the subcommand argv names and a
    following token that parse_number accepts joined as flag=token, up to a
    "--": argparse reads a token such as -1/8 or -1e-3 as an option, and only
    -1 or -.5 as a number.  A flag may be abbreviated as argparse allows, to
    a prefix of exactly one such flag."""
    command = commands.get(next((token for token in argv if not token.startswith("-")), None))
    flags = command.value_flags if command else set()

    def one_value(token: str) -> bool:
        return token in flags or (
            token.startswith("--") and sum(flag.startswith(token) for flag in flags) == 1)

    out = []
    for token in argv:
        if out and "--" not in out and one_value(out[-1]):
            try:
                parse_number(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


@functools.cache  # built once per process; parse_args keeps no state in it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
            p.add_argument("--a", type=_number_flag, required=True)
            p.add_argument("--b", type=_number_flag, required=True)
        p.add_argument("--v", type=_number_flag, required=True,
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
    for key, name, _, _, text in _suite_keys():
        flag = "--" + key.replace("_", "-")
        if isinstance(getattr(SuiteConfig, name), bool):  # a bare switch, given as "true"
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

    parser.commands = sub.choices  # name -> subparser, each with its value_flags
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_joined(argv, parser.commands))
    try:
        return args.func(args)
    # every library input error is a ValueError, as is UnicodeDecodeError
    except (ValueError, ArithmeticError, OSError, JacobiConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
