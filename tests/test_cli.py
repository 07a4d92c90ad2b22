"""Command-line surface: exit codes, formats, matrix files, determinism."""

import csv
import dataclasses
import hashlib
import io
import json
import re
import warnings

import pytest

from meanbound import harness
from meanbound.cli import main, parse_number
from meanbound.harness import SCALAR_ROWS, SuiteConfig, SuiteReport
from meanbound.operators import OPERATOR_TABLE
from meanbound.scalar import BoundReport, DomainError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Number parsing
# ---------------------------------------------------------------------------

def test_parse_number_fractions_and_decimals():
    assert parse_number("1/8") == 0.125
    assert parse_number("-3/4") == -0.75
    assert parse_number("0.125") == 0.125
    assert parse_number("2") == 2.0


_HUGE_FRACTION = "1" + "0" * 400 + "/3"  # its quotient is past the float range


@pytest.mark.parametrize("text", ["1/0", "x/y", "abc", _HUGE_FRACTION],
                         ids=["zero-denominator", "not-integers", "not-a-number", "huge-quotient"])
def test_parse_number_rejects_with_a_domain_error(text):
    with pytest.raises(DomainError, match="^cannot parse"):
        parse_number(text)


@pytest.mark.parametrize("flag", ["--a", "--b", "--v"])
@pytest.mark.parametrize("text, message", [
    ("1/3e", "cannot parse fraction '1/3e'"),
    ("abc", "cannot parse number 'abc'"),
    ("1/0", "cannot parse fraction '1/0'"),
    ("1" + "0" * 40 + "/3e", "cannot parse fraction '1" + "0" * 40 + "/3e'"),
], ids=["bad-denominator", "not-a-number", "zero-denominator", "41-digit-numerator"])
def test_number_flags_show_why_they_failed_to_parse(capsys, flag, text, message):
    point = {"--a": "1", "--b": "2", "--v": "0.5", flag: text}
    argv = ["bound", "--family", "reverse-young-basic"]
    for name, value in point.items():
        argv += [name, value]
    with pytest.raises(SystemExit) as stop:
        main(argv)
    captured = capsys.readouterr()
    assert stop.value.code == 2 and captured.out == ""
    assert captured.err.endswith(f"error: argument {flag}: {message}\n")


def test_weight_past_the_float_range_is_a_usage_error(capsys):
    # argparse turns the DomainError of a type function into its exit 2
    with pytest.raises(SystemExit) as stop:
        main(["bound", "--family", "kittaneh-manasrah", "--a", "1", "--b", "2",
              "--v", _HUGE_FRACTION])
    captured = capsys.readouterr()
    assert stop.value.code == 2 and captured.out == ""
    assert "argument --v" in captured.err and "Traceback" not in captured.err


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), argparse's own exit included."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _suite_number_flags():
    """The suite flag of each setting that is one integer or real number."""
    flags = []
    for f in dataclasses.fields(SuiteConfig):
        if f.metadata["cast"] in (int, harness.parse_number):
            stem = f.name.removesuffix("_range")
            names = (f.name,) if stem == f.name else (stem + "_lo", stem + "_hi")
            flags += ["--" + name.replace("_", "-") for name in names]
    return flags


_POINT = {"--a": "1", "--b": "16", "--v": "1/8", "--n": "2"}
# each command's fixed arguments and its number flags, with the value each
# takes when another is under test (None: left out)
_NUMBER_FLAGS = {
    "bound": (["--family", "theorem-main-reverse", "--branch", "i"], _POINT),
    "check-scalar": ([], _POINT),
    "compare": ([], _POINT),
    "check-operator": (["a.txt", "b.txt", "--family", "t6"], {"--v": "1/8", "--n": "2"}),
    "suite": (["--families", "kittaneh-manasrah", "--trials", "3", "--format", "csv"],
              dict.fromkeys(_suite_number_flags())),
}


@pytest.mark.parametrize("text", ["-1/8", "-1e-3"])
@pytest.mark.parametrize("command, flag", [(command, flag) for command, (_, flags)
                                           in _NUMBER_FLAGS.items() for flag in flags])
def test_negative_numbers_reach_every_number_flag_as_separate_tokens(
        capsys, tmp_path, monkeypatch, command, flag, text):
    # argparse reads "-1/8" and "-1e-3" alone as options; given apart from its
    # flag, such a value must do exactly what flag=value does
    monkeypatch.chdir(tmp_path)
    write(tmp_path / "a.txt", "1\n1\n")
    write(tmp_path / "b.txt", "1\n16\n")
    fixed, flags = _NUMBER_FLAGS[command]
    argv = [command, *fixed]
    for name, value in flags.items():
        if name != flag and value is not None:
            argv += [name, value]
    apart = _outcome(capsys, argv + [flag, text])
    assert "expected one argument" not in apart[2]
    assert apart == _outcome(capsys, argv + [f"{flag}={text}"])
    if flag in ("--v", "--v-lo", "--v-hi"):  # a valid weight, fractions too
        assert apart[0] == 0, apart
    if (command, flag) == ("bound", "--v"):
        assert f" v={parse_number(text):.10g} " in apart[1]


_SUITE_FIXED = ["suite", "--families", "kittaneh-manasrah", "--trials", "3", "--format", "csv"]


def test_abbreviated_flag_takes_a_negative_number_apart(capsys):
    # argparse takes an unambiguous prefix of an option; a negative value
    # given apart from such a prefix reaches the flag it names
    apart = _outcome(capsys, _SUITE_FIXED + ["--v-l", "-1/8"])
    assert apart == _outcome(capsys, _SUITE_FIXED + ["--v-lo=-1/8"])
    assert apart[0] == 0 and apart[1]


def test_abbreviated_flag_value_reaches_the_setting_rule(capsys):
    code, _, err = _outcome(capsys, _SUITE_FIXED + ["--cond", "-1e-3"])
    assert code == 2 and "expected one argument" not in err
    assert err == "error: cond_max must be finite and >= 1, got -0.001\n"


def test_ambiguous_flag_prefix_keeps_argparse_error(capsys):
    code, _, err = _outcome(capsys, _SUITE_FIXED + ["--scalar", "-1e-3"])
    assert code == 2
    assert "ambiguous option: --scalar could match --scalar-lo, --scalar-hi" in err


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------

def test_bound_reference_point(capsys):
    code, out, _ = run_cli(capsys, "bound", "--family", "theorem-main-reverse",
                           "--branch", "i", "--a", "1", "--b", "16",
                           "--v", "0.125", "--n", "2")
    assert code == 0
    assert "gap=3.414213562" in out
    assert "holds=True" in out


def test_bound_accepts_fraction_weight(capsys):
    code, out, _ = run_cli(capsys, "bound", "--family", "theorem-main-reverse",
                           "--branch", "i", "--a", "1", "--b", "16",
                           "--v", "1/8", "--n", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["gap"] == pytest.approx(3.414213562373095, rel=1e-15)


def test_bound_hypothesis_not_met_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "bound", "--family", "reverse-young-basic",
                           "--a", "1", "--b", "4", "--v", "0.3")
    assert code == 0
    assert "hypothesis_ok=False" in out


def test_bound_domain_error_exits_two(capsys):
    code, _, err = run_cli(capsys, "bound", "--family", "kittaneh-manasrah",
                           "--a", "0", "--b", "1", "--v", "0.5")
    assert code == 2
    assert "error" in err


def test_bound_unknown_family_exits_two(capsys):
    code, _, err = run_cli(capsys, "bound", "--family", "nope",
                           "--a", "1", "--b", "2", "--v", "0.5")
    assert code == 2


def test_bound_missing_depth_exits_two(capsys):
    code, _, err = run_cli(capsys, "bound", "--family", "theorem-main-reverse",
                           "--branch", "i", "--a", "1", "--b", "2", "--v", "2")
    assert code == 2
    assert "--n" in err


def test_bound_json_csv_numeric_equality(capsys):
    args = ("bound", "--family", "kittaneh-manasrah",
            "--a", "1", "--b", "16", "--v", "1/8")
    code, out_json, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    code, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    row_json = json.loads(out_json)["results"][0]
    row_csv = next(csv.DictReader(io.StringIO(out_csv)))
    for key in ("lhs", "rhs", "gap"):
        assert float(row_csv[key]) == row_json[key]


@pytest.mark.parametrize("row", SCALAR_ROWS, ids=lambda row: row.key)
def test_bound_json_gap_matches_row_evaluate(capsys, row):
    # a weight inside the row's sampling region, so every row evaluates
    lo, hi = row.region(3).intervals((-6.0, 6.0), 1e-6)[0]
    v = 0.5 * (lo + hi)
    args = ["bound", "--family", row.family, "--a", "3", "--b", "0.5",
            "--v", repr(v), "--n", "3", "--format", "json"]
    if row.branch in ("i", "ii"):
        args += ["--branch", row.branch]
    elif row.branch:
        args += ["--form", row.branch]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    result = json.loads(out)["results"][0]
    assert (result["family"], result["branch"]) == (row.family, row.branch)
    assert result["gap"] == row.evaluate(3.0, 0.5, v, 3).gap


_TINY_HUGE = ("--a", "1e-300", "--b", "1e300", "--v", "6")  # the mean overflows
_HUGE_PAIR = ("--a", "1e308", "--b", "1.7e308", "--v", "-6")  # the lhs overflows
_HUGE_GAP = ("--a", "1e-300", "--b", "1.7e308", "--v", "-1")  # a bound overflows


@pytest.mark.parametrize("command", [
    ("bound", "--family", "reverse-young-basic", *_TINY_HUGE),
    ("bound", "--family", "theorem-main-reverse", "--branch", "i", "--n", "2", *_TINY_HUGE),
    ("check-scalar", "--n", "2", *_TINY_HUGE),
    ("compare", *_TINY_HUGE),
    ("bound", "--family", "reverse-young-basic", *_HUGE_PAIR),
    ("check-scalar", "--n", "2", *_HUGE_PAIR),
    ("compare", *_HUGE_PAIR),
    ("bound", "--family", "corollary-one-term", "--branch", "ii", *_HUGE_GAP),
    ("compare", *_HUGE_GAP),
])
def test_unrepresentable_result_exits_two(capsys, command):
    for fmt in ("text", "json"):
        code, out, err = run_cli(capsys, *command, "--format", fmt)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


_REFERENCE = ("--a", "1", "--b", "16", "--v", "1/8", "--n", "2")
_SCALAR_VERBS = {
    "bound": ("bound", "--family", "theorem-main-reverse", "--branch", "i", *_REFERENCE),
    "check-scalar": ("check-scalar", *_REFERENCE),
    "compare": ("compare", *_REFERENCE),
    "repro": ("repro",),
}


# the scalar path gives the same bits on every supported CPython, so these
# stdout bytes are portable; check-operator's floats are per BLAS kernel
@pytest.mark.parametrize("verb, fmt, digest", [
    ("bound", "text", "9a2a8098e92e691f16b02636881d329414e6453a5711553132bd68b3eefaa8d1"),
    ("bound", "json", "e31ec3cb55b2ebac1c48651ca998190c64e9cd4e2693ad52745ede197267375c"),
    ("bound", "csv", "f04c26f7a92b9c298bd91f53361f214f8f3c1159527d1e48e7b7f073413314f6"),
    ("check-scalar", "text", "4648375514956532091b40d62ab161550b70f64b662300dd31193e27f0759d89"),
    ("check-scalar", "json", "4ebb26aa075544837d1bffd5f3ffc754319fbed51b90529636f990385b8f74ed"),
    ("check-scalar", "csv", "483828718acc94aba85eafb588de376fd843f99a481cfcbde001350e9af8a088"),
    ("compare", "text", "237d5a3786b6de8496bb907ed1909e9bef36150632efdd100823e0fcd0a1f4c3"),
    ("compare", "json", "bee15607b9524746472885a5f660663bc9625ea989564f89d9da0b24899e6a8e"),
    ("compare", "csv", "091c962f5c66290b3e638bf18427b5e72bb7708e608396690e03258cf27a31ca"),
    ("repro", "text", "100b48c4453c6861dbb22727a2af5742ef8701cdbc27f0e7bd9ca3c9c5398452"),
    ("repro", "json", "947f17e9433bb471c62c04a832ee65371bcd96243f229aadfce6fd43d1919e03"),
    ("repro", "csv", "a02859c7f27e2bb8a21c039e141d69ffd58f42e155d9dc3b5703dd59b16bc367"),
])
def test_scalar_verb_output_known_answer(capsys, verb, fmt, digest):
    code, out, err = run_cli(capsys, *_SCALAR_VERBS[verb], "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# ---------------------------------------------------------------------------
# check-scalar / compare / repro
# ---------------------------------------------------------------------------

def test_check_scalar_violation_exits_one(capsys, monkeypatch):
    # a deliberately wrong row: its hypothesis holds and its bound does not
    canary = dataclasses.replace(
        SCALAR_ROWS[0], key="canary", family="canary", branch="",
        evaluate=lambda a, b, v, n: BoundReport(
            "canary", "", a, b, v, n, 1.0, 0.5, -0.5, True, False))
    monkeypatch.setattr(harness, "SCALAR_ROWS", [canary])
    code, out, err = run_cli(capsys, "check-scalar", *_REFERENCE)
    assert (code, err) == (1, "")
    assert "family=canary" in out and "holds=False" in out


def test_check_scalar_table(capsys):
    code, out, _ = run_cli(capsys, "check-scalar", "--a", "1", "--b", "16",
                           "--v", "1/8", "--n", "2")
    assert code == 0
    assert "kittaneh-manasrah" in out
    assert "not applicable" in out  # SM branch ii is undefined at v=1/8


def test_back_to_back_calls_share_no_parsed_state(capsys):
    point = ("--a", "1", "--b", "16", "--v", "1/8", "--n", "2", "--format", "json")

    def families(*argv):
        code, out, _ = run_cli(capsys, "check-scalar", *argv, *point)
        assert code == 0
        return {result["family"] for result in json.loads(out)["results"]}

    assert families("--family", "kittaneh-manasrah") == {"kittaneh-manasrah"}
    assert families() == {row.family for row in SCALAR_ROWS}

    suite = ("suite", "--families", "kittaneh-manasrah", "--trials", "2", "--format", "json")
    configs = [json.loads(run_cli(capsys, *suite, *extra)[1])["config"]
               for extra in (("--boundary-probe", "--seed", "7"), ())]
    assert configs[0]["boundary_probe"] is True and configs[0]["seed"] == 7
    assert configs[1]["boundary_probe"] is False and configs[1]["seed"] == 42


def test_compare_reference_point(capsys):
    code, out, _ = run_cli(capsys, "compare", "--a", "1", "--b", "16", "--v", "1/8")
    assert code == 0
    assert "theorem-main-reverse/i/n2: 4.875" in out
    assert "lemma-sm-reverse/i/n2: 6.188708499" in out
    # the mirrored branch applies at v=1/8 too and is tighter than both
    assert "tightest valid bound: theorem-main-reverse/ii/n2 = 1.875" in out


@pytest.mark.parametrize("depth", ["0", "1"])
def test_compare_depth_below_two_exits_two(capsys, depth):
    code, out, err = run_cli(capsys, "compare", "--a", "1", "--b", "16", "--v", "1/8",
                             "--n", depth)
    assert (code, out) == (2, "")
    assert err == f"error: depth must satisfy 2 <= n <= 30, got n={depth}\n"


def test_branch_ii_errors_name_the_given_weight(capsys):
    point = ("--a", "1", "--b", "2", "--v", "0.2", "--n", "2")
    code, out, err = run_cli(capsys, "bound", "--family", "lemma-sm-reverse",
                             "--branch", "ii", *point)
    assert (code, out) == (2, "")
    assert err == "error: branch ii requires v in [1/2, 1], got v=0.2\n"
    code, out, _ = run_cli(capsys, "check-scalar", "--family", "lemma-sm-reverse", *point)
    assert code == 0
    assert out.splitlines()[1] == ("lemma-sm-reverse/ii: not applicable "
                                   "(branch ii requires v in [1/2, 1], got v=0.2)")


def test_repro_reference_lines(capsys):
    code, out, _ = run_cli(capsys, "repro")
    assert code == 0
    assert "(19): 4.875" in out
    assert "(15) recomputed: 6.188708499" in out
    assert "6.2892" in out
    assert "tighter: (19)" in out


def test_repro_json(capsys):
    code, out, _ = run_cli(capsys, "repro", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    row = doc["results"][0]
    assert abs(row["bound_19"] - 4.875) <= 1e-12
    assert row["bound_15_recomputed"] == pytest.approx(6.1887084989847604, rel=1e-12)
    assert row["full_rhs_depth2"] == pytest.approx(6.2892135623730951, rel=1e-12)
    assert row["tighter"] == "(19)" and row["consistent"] is True


# ---------------------------------------------------------------------------
# check-operator
# ---------------------------------------------------------------------------

def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_check_operator_one_by_one(capsys, tmp_path):
    a = write(tmp_path / "a.txt", "1\n1\n")
    b = write(tmp_path / "b.txt", "1\n16\n")
    code, out, _ = run_cli(capsys, "check-operator", a, b, "--family", "theorem-t6",
                           "--branch", "i", "--v", "0.125", "--n", "2")
    assert code == 0
    assert "min_eig_gap=3.414213562" in out


@pytest.mark.parametrize("family", OPERATOR_TABLE, ids=lambda family: family.key)
def test_check_operator_accepts_long_and_short_names(capsys, tmp_path, family):
    a = write(tmp_path / "a.txt", "1\n1\n")
    b = write(tmp_path / "b.txt", "1\n16\n")
    outputs = []
    for name in (family.name, family.key):
        code, out, _ = run_cli(capsys, "check-operator", a, b, "--family", name,
                               "--branch", "ii", "--v", "2", "--n", "2")
        assert code == 0
        assert f"family={family.key} branch=ii" in out
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_check_operator_identical_files_degenerate(capsys, tmp_path):
    text = "2\n2.0 1.0\n1.0 2.0\n"
    a = write(tmp_path / "a.txt", text)
    b = write(tmp_path / "b.txt", text)
    code, out, _ = run_cli(capsys, "check-operator", a, b, "--family", "theorem-t66",
                           "--branch", "i", "--v", "2", "--n", "1")
    assert code == 0
    assert "degenerate=True" in out


def test_check_operator_asymmetric_file_exits_two(capsys, tmp_path):
    a = write(tmp_path / "a.txt", "2\n1.0 0.5\n0.9 1.0\n")
    b = write(tmp_path / "b.txt", "2\n1.0 0.0\n0.0 1.0\n")
    code, _, err = run_cli(capsys, "check-operator", a, b, "--family", "theorem-t6",
                           "--branch", "i", "--v", "2", "--n", "2")
    assert code == 2
    assert "residual" in err


def test_check_operator_huge_asymmetric_file_exits_two(capsys, tmp_path):
    # relative asymmetry 1e-8 is rejected at every scale, also where the
    # plain sum of squares of the entries overflows
    a = write(tmp_path / "a.txt", "2\n1e200 0.5e200\n0.50000001e200 2e200\n")
    b = write(tmp_path / "b.txt", "2\n1 0\n0 1\n")
    code, _, err = run_cli(capsys, "check-operator", a, b, "--family", "t66",
                           "--branch", "i", "--v", "2", "--n", "1")
    assert code == 2
    assert "residual" in err


@pytest.mark.parametrize("family", OPERATOR_TABLE, ids=lambda family: family.key)
def test_check_operator_huge_pair_has_finite_tolerance(capsys, tmp_path, family):
    a = write(tmp_path / "a.txt", "2\n3e200 1e200\n1e200 2e200\n")
    b = write(tmp_path / "b.txt", "2\n1e200 -0.5e200\n-0.5e200 4e200\n")
    code, out, _ = run_cli(capsys, "check-operator", a, b, "--family", family.key,
                           "--branch", "i", "--v", "2.5", "--n", "2", "--format", "json")
    result = json.loads(out)["results"][0]
    assert code == 0 and result["degenerate"] is False
    assert 0.0 < result["tol"] < 1e195


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_check_operator_overflowing_mean_exits_two(capsys, tmp_path, fmt):
    # inner eigenvalue 1e150: its power 1e195 is finite, the mean 1e345 is not
    a = write(tmp_path / "a.txt", "1\n1e150\n")
    b = write(tmp_path / "b.txt", "1\n1e300\n")
    code, out, err = run_cli(capsys, "check-operator", a, b, "--family", "t66",
                             "--branch", "i", "--v", "1.3", "--n", "1", "--format", fmt)
    assert (code, out) == (2, "")
    assert err == "error: inner eigenvalue power overflows for weight 1.3\n"


@pytest.mark.parametrize("entry", ["1e308", "1.7e308"])
def test_check_operator_entry_past_9e307_exits_two(capsys, tmp_path, entry):
    h = write(tmp_path / "h.txt", f"1\n{entry}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "check-operator", h, h, "--family", "t6",
                                 "--branch", "i", "--v", "-2", "--n", "2")
    assert (code, out) == (2, "")
    assert err == "error: symmetrization overflows: an entry exceeds about 9e307 in magnitude\n"


@pytest.mark.parametrize("family", ["t6", "t66", "c3", "c33"])
@pytest.mark.parametrize("branch", ["i", "ii"])
def test_check_operator_overflowing_sides_print_only_the_error(capsys, tmp_path, family,
                                                               branch):
    a = write(tmp_path / "a.txt", "1\n1e307\n")
    b = write(tmp_path / "b.txt", "1\n5e307\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, "check-operator", a, b, "--family", family,
                                 "--branch", branch, "--v", "-6", "--n", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_check_operator_large_weight_has_finite_tolerance(capsys, tmp_path):
    # A #_30 B has entries near 1e177, whose squares overflow
    a = write(tmp_path / "a.txt", "2\n1e3 0\n0 1e-3\n")
    b = write(tmp_path / "b.txt", "2\n1e-3 0\n0 1e3\n")
    code, out, _ = run_cli(capsys, "check-operator", a, b, "--family", "t66",
                           "--n", "2", "--v", "30", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"][0]["tol"] == pytest.approx(1e169, rel=1e-9)


def test_check_operator_file_not_utf8_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff")
    a = write(tmp_path / "a.txt", "1\n1\n")
    code, out, err = run_cli(capsys, "check-operator", str(bad), a, "--family", "t6",
                             "--branch", "i", "--v", "2", "--n", "2")
    assert (code, out) == (2, "")
    assert err == f"error: {bad}: not UTF-8 text (byte 0xff at position 0)\n"


def test_check_operator_names_the_file_that_is_not_utf8(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1\n\xff")
    ok = write(tmp_path / "ok.txt", "1\n1\n")
    for files in ([ok, str(bad)], [str(bad), ok]):
        code, out, err = run_cli(capsys, "check-operator", *files, "--family", "t6",
                                 "--branch", "i", "--v", "2", "--n", "2")
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: not UTF-8 text (byte 0xff at position 2)\n"


def test_check_operator_not_spd_exits_two(capsys, tmp_path):
    a = write(tmp_path / "a.txt", "2\n1.0 0.0\n0.0 -1.0\n")
    b = write(tmp_path / "b.txt", "2\n1.0 0.0\n0.0 1.0\n")
    code, _, err = run_cli(capsys, "check-operator", a, b, "--family", "corollary-c3",
                           "--branch", "i", "--v", "2", "--n", "2")
    assert code == 2
    assert "positive definite" in err


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

def test_suite_zero_trials_exits_two(capsys):
    code, _, err = run_cli(capsys, "suite", "--trials", "0")
    assert code == 2
    assert "trials" in err


def test_suite_small_run_and_determinism(capsys, tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ("suite", "--families", "all", "--trials", "10", "--seed", "42",
            "--grid-points", "8")
    code, _, _ = run_cli(capsys, *args, "--out", str(out1))
    assert code == 0
    code, _, _ = run_cli(capsys, *args, "--out", str(out2))
    assert code == 0

    def strip_wall(text):
        return "\n".join(line for line in text.splitlines()
                         if "wall_time_s" not in line)

    text1, text2 = out1.read_text(), out2.read_text()
    assert strip_wall(text1) == strip_wall(text2)
    doc = json.loads(text1)
    assert doc["failures"] == []
    assert doc["config"]["seed"] == 42


def test_suite_env_seed_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MEANBOUND_SEED", "7")
    out = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "suite", "--families", "kittaneh-manasrah",
                         "--trials", "5", "--seed", "42", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["config"]["seed"] == 7


def test_suite_config_file(capsys, tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("trials = 5\nseed = 11\nfamilies = kittaneh-manasrah\n",
                   encoding="utf-8")
    out = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "suite", "--config", str(cfg), "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == 11 and doc["config"]["trials"] == 5
    assert doc["results"][0]["key"] == "kittaneh-manasrah"


def test_suite_real_settings_take_fractions_from_file_and_flag(capsys, tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("trials = 5\nfamilies = kittaneh-manasrah\nv_lo = -1/8\ncond_max = 10/4\n",
                   encoding="utf-8")
    code, out, _ = run_cli(capsys, "suite", "--config", str(cfg), "--format", "json",
                           "--scalar-hi", "1/2", "--margin", "1/1024")
    config = json.loads(out)["config"]
    assert code == 0
    assert (config["v_range"], config["cond_max"]) == ([-0.125, 6.0], 2.5)
    assert (config["scalar_range"], config["margin"]) == ([1e-3, 0.5], 2.0 ** -10)


def test_suite_flag_overrides_config_file(capsys, tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("trials = 5\nseed = 11\n", encoding="utf-8")
    out = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "suite", "--config", str(cfg), "--seed", "3",
                         "--families", "zhao-wu-forward", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["config"]["seed"] == 3


@pytest.mark.parametrize("line, key", [("trials = abc", "trials"),
                                       ("cond_max = 1e4x", "cond_max"),
                                       ("dims = 1,two", "dims")])
def test_suite_bad_config_value_exits_two(capsys, tmp_path, line, key):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "suite", "--config", str(cfg))
    assert code == 2
    assert err.startswith("error: ") and repr(key) in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_suite_non_finite_cond_max_exits_two(capsys, value):
    code, _, err = run_cli(capsys, "suite", "--families", "operator", "--dims", "2",
                           "--cond-max", value, "--trials", "5")
    assert code == 2
    assert err.startswith("error: cond_max must be finite")


@pytest.mark.parametrize("points", ["2", "1"])
def test_suite_too_few_grid_points_exits_two(capsys, points):
    code, out, err = run_cli(capsys, "suite", "--families", "comparison",
                             "--grid-points", points)
    assert (code, out) == (2, "")
    assert err == f"error: grid_points must be >= 3, got {points}\n"


def test_suite_config_file_not_utf8_exits_two(capsys, tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_bytes(b"trials = 5\n\xff\n")
    code, out, err = run_cli(capsys, "suite", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == f"error: {cfg}: not UTF-8 text (byte 0xff at position 11)\n"


def test_suite_config_file_reads_every_line_end_as_iterating_the_file_does(capsys, tmp_path):
    # \r and \r\n end lines; \f and \v do not, so a key hidden behind one is unknown
    cfg = tmp_path / "suite.cfg"
    cfg.write_bytes(b"families = kittaneh-manasrah\r\ntrials = 3\rseed = 5\n")
    code, out, _ = run_cli(capsys, "suite", "--config", str(cfg), "--format", "json")
    assert code == 0 and json.loads(out)["config"]["trials"] == 3
    cfg.write_bytes(b"trials = 3\x0cseed = 5\n")
    code, _, err = run_cli(capsys, "suite", "--config", str(cfg))
    assert code == 2 and "cannot parse '3\\x0cseed = 5'" in err


def test_suite_unknown_config_key_exits_two(capsys, tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("trails = 3\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "suite", "--config", str(cfg))
    assert code == 2 and out == ""
    assert err.startswith("error: unknown config key 'trails'")


def test_suite_boundary_probe_config_key_matches_flag(capsys, tmp_path):
    args = ("suite", "--families", "theorem-main-reverse,t66", "--trials", "6",
            "--format", "json")
    outputs = []
    for setting in ("true", "false"):
        cfg = tmp_path / f"{setting}.cfg"
        cfg.write_text(f"boundary_probe = {setting}\n", encoding="utf-8")
        outputs.append(run_cli(capsys, *args, "--config", str(cfg)))
    outputs.append(run_cli(capsys, *args, "--boundary-probe"))
    outputs.append(run_cli(capsys, *args))

    def strip_wall(result):
        code, out, _ = result
        return code, [line for line in out.splitlines() if "wall_time_s" not in line]

    probe_file, plain_file, probe_flag, plain = map(strip_wall, outputs)
    assert probe_file == probe_flag and plain_file == plain
    assert probe_file != plain_file


@pytest.mark.parametrize("flag", ["--dims", "--depths"])
def test_suite_empty_list_setting_exits_two(capsys, flag):
    code, _, err = run_cli(capsys, "suite", "--families", "operator", "--trials", "2",
                           flag, ",")
    assert code == 2
    assert err.startswith(f"error: {flag[2:]} must")


def test_suite_csv_out_writes_the_csv_rows(capsys, tmp_path):
    args = ("suite", "--families", "kittaneh-manasrah", "--trials", "2", "--seed", "42")
    code, expected, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    out = tmp_path / "r.csv"
    code, printed, _ = run_cli(capsys, *args, "--format", "csv", "--out", str(out))
    assert code == 0 and printed == ""
    assert out.read_text() == expected
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert [row["key"] for row in rows] == ["kittaneh-manasrah"]
    assert rows[0]["trials"] == "2"


# ---------------------------------------------------------------------------
# Argument and configuration exit paths
# ---------------------------------------------------------------------------

def test_bound_two_branch_family_without_branch_exits_two(capsys):
    code, out, err = run_cli(capsys, "bound", "--family", "corollary-one-term",
                             "--a", "1", "--b", "2", "--v", "3")
    assert (code, out) == (2, "")
    assert err == "error: family corollary-one-term requires --branch i|ii\n"


def test_check_scalar_unknown_family_exits_two(capsys):
    code, out, err = run_cli(capsys, "check-scalar", "--family", "nope",
                             "--a", "1", "--b", "2", "--v", "0.5")
    assert (code, out) == (2, "")
    assert err == "error: unknown family 'nope'\n"


def test_check_operator_unknown_family_exits_two(capsys, tmp_path):
    path = write(tmp_path / "a.txt", "1\n2\n")
    code, out, err = run_cli(capsys, "check-operator", path, path,
                             "--family", "nope", "--v", "0.5", "--n", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown operator family 'nope'; families: theorem-t6")


def test_check_operator_without_depth_exits_two(capsys, tmp_path):
    path = write(tmp_path / "a.txt", "1\n2\n")
    code, out, err = run_cli(capsys, "check-operator", path, path,
                             "--family", "t6", "--v", "0.5")
    assert (code, out) == (2, "")
    assert err == "error: check-operator requires --n\n"


def test_suite_config_file_skips_comments_and_blank_lines(capsys, tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("# a comment line\n\n   \ntrials = 4  # trailing comment\n"
                   "families = kittaneh-manasrah\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "suite", "--config", str(cfg), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["config"]["trials"] == 4 and doc["config"]["families"] == ["kittaneh-manasrah"]


def test_suite_config_line_without_equals_exits_two(capsys, tmp_path):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("trials 4\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "suite", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: bad config line 'trials 4'\n"


def test_suite_range_flags_land_in_the_report(capsys):
    code, out, _ = run_cli(capsys, "suite", "--families", "kittaneh-manasrah",
                           "--trials", "3", "--format", "json",
                           "--scalar-lo", "0.5", "--scalar-hi", "2",
                           "--v-lo", "0.25", "--v-hi", "0.75")
    assert code == 0
    config = json.loads(out)["config"]
    assert config["scalar_range"] == [0.5, 2.0] and config["v_range"] == [0.25, 0.75]
    # one end given: the other keeps its default
    code, out, _ = run_cli(capsys, "suite", "--families", "kittaneh-manasrah",
                           "--trials", "3", "--format", "json", "--v-hi", "0.75")
    assert code == 0
    config = json.loads(out)["config"]
    assert config["v_range"] == [-6.0, 0.75] and config["scalar_range"] == [1e-3, 1e3]


# one value off the default per setting, with the text of each of its keys
SETTING_TEXTS = {
    "seed": (7, {"seed": "7"}),
    "trials": (3, {"trials": "3"}),
    "scalar_range": ((0.5, 2.0), {"scalar_lo": "0.5", "scalar_hi": "2"}),
    "v_range": ((-1.5, 2.5), {"v_lo": "-1.5", "v_hi": "2.5"}),
    "dims": ((2, 3), {"dims": "2,3"}),
    "cond_max": (100.0, {"cond_max": "100"}),
    "depths": ((2, 5), {"depths": "2, 5"}),
    "families": (("t6", "scalar"), {"families": "t6,scalar"}),
    "margin": (1e-3, {"margin": "1e-3"}),
    "grid_points": (7, {"grid_points": "7"}),
    "boundary_probe": (True, {"boundary_probe": "true"}),
}


def test_setting_texts_cover_every_setting():
    assert list(SETTING_TEXTS) == [f.name for f in dataclasses.fields(SuiteConfig)]


@pytest.mark.parametrize("name", list(SETTING_TEXTS))
def test_each_setting_lands_in_the_report_from_its_flag_and_its_file_key(
        capsys, tmp_path, monkeypatch, name):
    # the suite itself is stubbed: the report's config is what the CLI built
    monkeypatch.delenv("MEANBOUND_SEED", raising=False)
    monkeypatch.setattr(harness, "run_all", lambda cfg: (
        cfg.validate(), SuiteReport("all", cfg.as_dict(), [], {}, 0.0))[1])
    value, texts = SETTING_TEXTS[name]
    expected = SuiteConfig(**{name: value}).as_dict()
    assert expected != SuiteConfig().as_dict()
    flags = []
    for key, text in texts.items():
        flag = "--" + key.replace("_", "-")
        flags += [flag] if value is True else [flag, text]  # a bool is a bare switch
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("".join(f"{key} = {text}\n" for key, text in texts.items()),
                   encoding="utf-8")
    for args in (flags, ["--config", str(cfg)]):
        code, out, _ = run_cli(capsys, "suite", *args, "--format", "json")
        assert code == 0
        assert json.loads(out)["config"] == expected


def test_suite_flags_are_the_settings_and_the_output_options(capsys):
    with pytest.raises(SystemExit):
        main(["suite", "--help"])
    flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
    expected = {"--config", "--format", "--out"}
    for f in dataclasses.fields(SuiteConfig):
        flag = "--" + f.name.replace("_", "-")
        if flag.endswith("-range"):  # a pair: one flag per end
            stem = flag[: -len("range")]
            expected |= {stem + "lo", stem + "hi"}
        else:
            expected.add(flag)
    assert flags == expected


@pytest.mark.parametrize("args, message", [
    (("--families", ","), "error: families must name at least one family or selector\n"),
    (("--seed", str(2 ** 64)),
     f"error: seed must be a 64-bit unsigned integer, got {2 ** 64}\n"),
])
def test_suite_empty_families_and_wide_seed_exit_two(capsys, args, message):
    code, out, err = run_cli(capsys, "suite", "--trials", "2", *args)
    assert (code, out, err) == (2, "", message)


def test_suite_weight_range_wider_than_the_float_range_exits_two(capsys):
    # a width of 2e308 overflowed, and every draw landed on the last endpoint
    code, out, err = run_cli(capsys, "suite", "--families", "reverse-young-basic",
                             "--trials", "5", "--v-lo=-1e308", "--v-hi=1e308")
    assert (code, out) == (2, "")
    assert err == ("error: v_range must satisfy lo < hi with a finite width hi - lo, "
                   "got (-1e+308, 1e+308)\n")
    code, _, _ = run_cli(capsys, "suite", "--families", "reverse-young-basic",
                         "--trials", "5", "--v-lo=-8e307", "--v-hi=8e307")
    assert code == 1  # a finite width: the draws overflow the evaluator, as recorded


def test_operator_window_covering_the_weight_range_skips_every_trial(capsys):
    # t6 branch i excludes [1/2, 3/4] at depth 2, which covers v in [0.55, 0.6]
    code, out, _ = run_cli(capsys, "suite", "--families", "t6", "--depths", "2",
                           "--v-lo", "0.55", "--v-hi", "0.6", "--trials", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t6/i: trials=3 passes=0 failures=0 skipped=3 worst_gap=n/a"
    assert lines[1].startswith("t6/ii: trials=3 passes=3 failures=0 skipped=0 ")
