"""Command-line surface: exit codes, formats, matrix files, determinism."""

import csv
import io
import json

import pytest

from meanbound.cli import main, parse_number
from meanbound.harness import SCALAR_ROWS
from meanbound.operators import OPERATOR_TABLE


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
    with pytest.raises(Exception):
        parse_number("1/0")
    with pytest.raises(Exception):
        parse_number("x/y")


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


# ---------------------------------------------------------------------------
# check-scalar / compare / repro
# ---------------------------------------------------------------------------

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


def test_check_operator_large_weight_has_finite_tolerance(capsys, tmp_path):
    # A #_30 B has entries near 1e177, whose squares overflow
    a = write(tmp_path / "a.txt", "2\n1e3 0\n0 1e-3\n")
    b = write(tmp_path / "b.txt", "2\n1e-3 0\n0 1e3\n")
    code, out, _ = run_cli(capsys, "check-operator", a, b, "--family", "t66",
                           "--n", "2", "--v", "30", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"][0]["tol"] == pytest.approx(1e169, rel=1e-9)


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
