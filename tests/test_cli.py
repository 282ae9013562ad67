import csv
import ctypes.util
import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import secrets
import subprocess
import sys

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noncomm import cli, scenarios
from noncomm.cli import main, parse_value, split_assignments
from noncomm.measurement import trial_records
from noncomm.scenarios import SCENARIOS, peak_bytes, run_scenario, validate_params
from noncomm.schema import MANIFEST_SCHEMA, RESULT_SCHEMA
from noncomm.states import NumericalInvariantError, ZeroProbabilityError


# ---------------------------------------------------------------- plumbing


def test_parse_value_forms():
    assert parse_value("1") == 1
    assert parse_value("0.25") == 0.25
    assert parse_value("pi") == math.pi
    assert parse_value("pi/4") == math.pi / 4
    assert parse_value("2*pi") == 2 * math.pi
    assert parse_value("-3") == -3
    assert parse_value("[1, -1]") == [1, -1]
    assert parse_value("[[0,1],[1,0]]") == [[0, 1], [1, 0]]
    assert parse_value("true") is True
    assert parse_value("singlet") == "singlet"
    assert parse_value('"quoted"') == "quoted"


def test_an_int_of_the_digit_limit_is_a_number_under_every_limit():
    # 10^D - 1, D nines, is a number and 10^D stays text, where D is the
    # interpreter's int-to-str digit limit, its default when unlimited; the
    # bound follows the limit as it is set, none is kept from an earlier one
    limit = sys.get_int_max_str_digits()
    try:
        for digits, setting in ((4300, 0), (1000, 1000), (4300, 4300), (2000, 2000)):
            sys.set_int_max_str_digits(setting)
            assert type(parse_value("9" * digits)) is int
            assert parse_value(f"10**{digits}") == f"10**{digits}"
            assert parse_value(f"-{'9' * digits} + 1") == 2 - 10**digits
            assert cli._number(-(10**digits - 1)) == 1 - 10**digits
            for past in (10**digits, -(10**digits), 10**4300 if digits < 4300 else 10**5000):
                with pytest.raises(ValueError, match="not a number"):
                    cli._number(past)
    finally:
        sys.set_int_max_str_digits(limit)


def test_split_assignments_respects_brackets():
    assert split_assignments("omega=pi,T=1,n=100") == ["omega=pi", "T=1", "n=100"]
    assert split_assignments("amp_l=[1,-1],state=singlet") == ["amp_l=[1,-1]",
                                                               "state=singlet"]


# -------------------------------------------------------------------- list


def test_list_text(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out


def test_list_json(capsys):
    assert main(["list", "--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert set(doc) == set(SCENARIOS)
    assert doc["zeno_precise"]["parameters"][0]["name"] == "omega"
    # what `print(json.dumps(doc, indent=2))` wrote
    assert out == json.dumps({name: s.schema() for name, s in SCENARIOS.items()}, indent=2) + "\n"


# --------------------------------------------------------------------- run


def test_run_unknown_scenario(capsys):
    assert main(["run", "nosuch"]) == 2
    # the message is the one `run_scenario` raises, printed once, with no traceback
    err = capsys.readouterr().err
    assert err.startswith("error: unknown scenario 'nosuch'; try one of [") and err.count("\n") == 1
    # inputs are judged before the name: an --out in no directory exits 3 first
    assert main(["run", "nosuch", "--out", "/nonexistent-dir/out.json"]) == 3


def test_list_json_bytes_are_pinned(capsys):
    assert main(["list", "--json"]) == 0
    digest = "84dd597758906867738b1974261addf27e158453636c794d501ac54bf3acec1b"
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_run_bad_parameter(capsys):
    assert main(["run", "epr", "--set", "bogus=1"]) == 3
    assert main(["run", "epr", "--set", "state=w"]) == 3
    assert main(["run", "zeno_precise", "--trials", "0"]) == 3
    assert main(["run", "epr", "--seed", "-4"]) == 3
    assert main(["run", "epr", "--seed", str(10**400)]) == 3
    assert main(["run", "zeno_precise", "--set", "n=true"]) == 3
    assert main(["run", "zeno_precise", "--set", "T=false"]) == 3


def test_run_semantic_parameter_error(capsys):
    assert main(["run", "polarization_sequence", "--set", "angles=[10]"]) == 3


def test_run_bad_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    assert main(["run", "epr", "--config", str(path)]) == 3
    path.write_text(json.dumps({"unexpected": 1}))
    assert main(["run", "epr", "--config", str(path)]) == 3
    assert main(["run", "epr", "--config", str(tmp_path / "missing.json")]) == 3
    path.write_text(json.dumps({"seed": "abc"}))
    assert main(["run", "epr", "--config", str(path)]) == 3
    path.write_text(json.dumps({"trials": "many"}))
    assert main(["run", "epr", "--config", str(path)]) == 3


@pytest.mark.parametrize("scenario, assignments, config", [
    ("zeno_coarse", "dt=nan", None),
    ("zeno_precise", "omega=nan", None),
    ("zeno_coarse", "coupling=inf", None),
    ("zeno_precise", "T=inf", None),
    ("zeno_precise", "omega=-1e400", None),
    ("zeno_precise", "n=1e400", None),
    ("polarization_sequence", "angles=[0,NaN]", None),
    ("two_slit", "amp_l=[[0.5,Infinity],0.5]", None),
    ("two_slit", "amp_r=[0.5,[NaN,0]]", None),
    ("zeno_precise", None, {"parameters": {"omega": math.nan}}),
    ("zeno_coarse", None, {"parameters": {"dt": -math.inf}}),
    ("polarization_sequence", None, {"parameters": {"angles": [0, math.inf]}}),
    ("two_slit", None, {"parameters": {"amp_l": [[0.5, math.nan], 0.5]}}),
    ("epr", None, {"trials": math.inf}),
    ("epr", None, {"seed": math.inf}),
])
def test_run_non_finite_input_is_a_config_error(tmp_path, capsys, scenario, assignments, config):
    args = ["run", scenario]
    if assignments is not None:
        args += ["--set", assignments]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))  # writes NaN and Infinity, as json.load reads them
        args += ["--config", str(path)]
    assert main(args) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("config", [{"trials": 2.5}, {"seed": 2.5}, {"trials": None},
                                    {"seed": [7]}])
def test_run_non_integral_trials_or_seed_is_a_config_error(tmp_path, capsys, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    assert main(["run", "epr", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_run_hands_its_inputs_to_run_scenario(monkeypatch, tmp_path):
    # the CLI gathers trials and seed but validates neither itself
    calls = []

    def spy(*args):
        calls.append(args)
        return run_scenario(*args)

    monkeypatch.setattr(cli, "run_scenario", spy)
    monkeypatch.setenv("NONCOMM_SEED", "11")
    out = tmp_path / "r.csv"
    assert main(["run", "epr", "--trials", "3", "--set", "state=product", "--out", str(out)]) == 0
    assert calls == [("epr", {"state": "product"}, "3", "11", False)]
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert (manifest["seed"], manifest["trials"]) == (11, 3)


def test_run_numerical_violation_exit_code(monkeypatch, capsys):
    def explode(params, trials, seed, record):
        raise ZeroProbabilityError("conditioned on the impossible")

    monkeypatch.setitem(SCENARIOS, "epr", dataclasses.replace(SCENARIOS["epr"], fn=explode))
    assert main(["run", "epr"]) == 4


@pytest.mark.parametrize("error, exit_code", [
    (NumericalInvariantError("outcome probability nan outside [0, 1]"), 4),
    (ValueError("a programming error, not a numerical fault"), None),
])
def test_run_exit_4_means_a_numerical_fault(monkeypatch, capsys, error, exit_code):
    def explode(params, trials, seed, record):
        raise error

    monkeypatch.setitem(SCENARIOS, "epr", dataclasses.replace(SCENARIOS["epr"], fn=explode))
    if exit_code is not None:
        assert main(["run", "epr"]) == exit_code
        assert "numerical invariant violation" in capsys.readouterr().err
    else:
        # a plain ValueError is a bug: it propagates instead of reading as exit 4
        with pytest.raises(ValueError, match="programming error"):
            main(["run", "epr"])


# finite parameters whose derived values overflow a double: a config error,
# caught before the arithmetic (a RuntimeWarning is an error in this suite)
@pytest.mark.parametrize("scenario, settings, name", [
    ("zeno_precise", "omega=1e308,T=1e308", "omega"),
    ("zeno_precise", "T=1e308,n=1", "T"),
    ("zeno_coarse", "coupling=1e308", "coupling"),
    ("zeno_coarse", "coupling=1e308,dt=1e-300", "coupling"),
    ("zeno_coarse", "coupling=1e154,dt=1e154", "dt"),
    ("two_slit", "amp_l=[1e200,1e200],amp_r=[1e200,-1e200]", "amp_l"),
    ("two_slit", "amp_l=[1e160,1],amp_r=[1,1]", "amp_l"),
])
def test_overflowing_parameters_exit_3(capsys, scenario, settings, name):
    assert main(["run", scenario, "--set", settings, "--trials", "4"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and name in err[0], err


# inputs a run cannot serve: each exits 3 with one line naming the parameter
# (or the config), where they once ended in a traceback, argparse's exit 2, a
# memory message despite a broken rule, or (10**10**8) a power still computing
_HUGE_RUN = ["--trials", str(10**15)]
REFUSED = {
    "T=1/0": ("T", ["zeno_precise", "--set", "T=1/0"]),
    "T=0**-1": ("T", ["zeno_precise", "--set", "T=0**-1"]),
    "T=1e308**2": ("T", ["zeno_precise", "--set", "T=1e308**2"]),
    "T=2**2**20": ("T", ["zeno_precise", "--set", "T=2**2**20"]),
    "n=20000-minus-signs": ("n", ["zeno_precise", "--set", "n=" + "-" * 20000 + "1"]),
    "n=5000-digits": ("n", ["zeno_precise", "--set", "n=" + "7" * 5000]),
    "n=10**5000": ("n", ["zeno_precise", "--set", "n=10**5000"]),
    "n=10**10**8": ("n", ["zeno_precise", "--set", "n=10**10**8"]),
    "angles-20000-deep": ("angles", ["polarization_sequence", "--set",
                                     "angles=" + "[" * 20000 + "]" * 20000]),
    "config-5000-digits": ("config", ["epr", "--config", '{"trials": ' + "7" * 5000 + "}"]),
    "config-100000-deep": ("config", ["epr", "--config", "[" * 100000 + "]" * 100000]),
    "trials=abc": ("trials", ["epr", "--trials", "abc"]),
    "amp_l-reciprocal": ("amp_l", ["two_slit", "--set", "amp_l=[1e-161],amp_r=[0]"]),
    "window_width": ("window_width", ["zeno_coarse", "--set", "window_width=99", *_HUGE_RUN]),
    "initial_level": ("initial_level", ["zeno_coarse", "--set", "initial_level=99", *_HUGE_RUN]),
    "one-angle": ("angles", ["polarization_sequence", "--set", "angles=[0]", *_HUGE_RUN]),
    "angles-string": ("angles", ["polarization_sequence", "--set", "angles=090"]),
    "config-angles-string": ("angles", ["polarization_sequence", "--config",
                                        '{"parameters": {"angles": "0945"}}']),
    "amp_l-string": ("amp_l", ["two_slit", "--set", 'amp_l="11"']),
    "amp-lengths": ("amp_l", ["two_slit", "--set", "amp_l=[1],amp_r=[1,1]", *_HUGE_RUN]),
    "omega*T": ("omega", ["zeno_precise", "--set", "omega=1e308,T=10", *_HUGE_RUN]),
}


@pytest.mark.parametrize("name, argv", REFUSED.values(), ids=REFUSED.keys())
def test_refused_input_exits_3_naming_it(tmp_path, capsys, name, argv):
    argv = ["run", *argv]
    if "--config" in argv:  # the text after it is the file's content
        at = argv.index("--config") + 1
        (tmp_path / "cfg.json").write_text(argv[at])
        argv[at] = str(tmp_path / "cfg.json")
    if "n=10**10**8" in argv:  # a child, so a power being computed cannot hang the suite
        proc = subprocess.run([sys.executable, "-m", "noncomm", *argv], capture_output=True,
                              text=True, timeout=10)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = main(argv), capsys.readouterr().err
    lines = err.splitlines()
    assert code == 3 and "Traceback" not in err
    assert len(lines) == 1 and lines[0].startswith("error: ") and name in lines[0], lines


# a long refused value is cut in its message, which stays one short line
_DEEP = "[" * 20000 + "]" * 20000
LONG_REFUSED = {
    "angles-20000-deep": ["polarization_sequence", "--set", "angles=" + _DEEP],
    "T-20000-deep": ["zeno_precise", "--set", "T=" + _DEEP],
    "choice": ["classical_control", "--set", "scenario=" + "x" * 5000],
    "unknown-key": ["epr", "--set", "k" * 5000 + "=1"],
    "no-equals": ["epr", "--set", "k" * 5000],
}


@pytest.mark.parametrize("argv", LONG_REFUSED.values(), ids=LONG_REFUSED.keys())
def test_long_refused_values_are_cut_to_one_short_line(capsys, argv):
    code, err = main(["run", *argv]), capsys.readouterr().err
    assert code == 3 and len(err.splitlines()) == 1 and len(err.encode()) < 1024, err[:300]


_TOKENS = st.sampled_from(["0", "1", "7", "9", ".", "e", "+", "-", "*", "/", "**", "[", "]",
                           "(", ")", '"', "pi", "nan", "null", "true"])
_OPERANDS = st.sampled_from(["0", "1", "7", "9.5", ".5", "9e99", "1e-9", "pi", "nan", "null",
                             "true", '"7"', "[1]", "(7)"])
_OPERATORS = st.sampled_from(["+", "-", "*", "/", "**"])
# token strings, most of them not arithmetic, and operand-operator chains,
# most of them arithmetic
_VALUES = st.one_of(
    st.lists(_TOKENS, max_size=12).map("".join),
    st.builds(lambda head, tail: head + "".join(map("".join, tail)),
              _OPERANDS, st.lists(st.tuples(_OPERATORS, _OPERANDS), max_size=4)))


@settings(max_examples=300, deadline=None)
@given(_VALUES)
@example("1/0")
@example("9e99**9")
def test_any_value_parses_and_runs_or_exits_3(text):
    parse_value(text)
    assert main(["run", "zeno_precise", "--set", f"T={text}", "--trials", "1"]) in (0, 3)


def test_run_stdout_csv(capsys):
    code = main(["run", "zeno_precise", "--set", "omega=pi,T=1,n=100",
                 "--trials", "500", "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "scenario,statistic,value"
    stats = {line.split(",")[1] for line in lines[1:]}
    assert {"n", "analytic", "empirical", "ci_halfwidth"} <= stats
    analytic = [l for l in lines if l.split(",")[1] == "analytic"][0].split(",")[2]
    assert abs(float(analytic) - math.cos(math.pi / 200) ** 200) <= 1e-15
    # 17 significant digits survive a round trip
    assert float(analytic) == float(format(float(analytic), ".17g"))


def test_run_writes_result_and_manifest(tmp_path):
    out = tmp_path / "epr.csv"
    code = main(["run", "epr", "--trials", "200", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "anticorrelation_rate,1" in text
    manifest_text = (tmp_path / "epr.csv.manifest.json").read_text()
    manifest = json.loads(manifest_text)
    assert manifest_text == json.dumps(manifest, indent=2) + "\n"
    jsonschema.validate(manifest, MANIFEST_SCHEMA)
    assert manifest["scenario"] == "epr"
    assert manifest["seed"] == 1
    assert str(out) in manifest["outputs"]
    assert manifest["blas_core"] == cli.blas_core() != ""


def test_run_keeps_foreign_tmp_file_and_leaves_no_temp(tmp_path):
    out = tmp_path / "res.csv"
    (tmp_path / "res.csv.tmp").write_text("not ours")
    assert main(["run", "three_observer", "--trials", "5", "--seed", "1",
                 "--snapshots", "--out", str(out)]) == 0
    assert (tmp_path / "res.csv.tmp").read_text() == "not ours"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "res.csv", "res.csv.manifest.json", "res.csv.tmp", "res.csv.trials.csv"]


def test_failed_write_removes_its_temp_file(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="disk full"):
        cli._atomic_write(str(tmp_path / "res.csv"), "ours\n")
    assert list(tmp_path.iterdir()) == []
    # `run` reports the failed write as one error line, exit 3
    assert main(["run", "epr", "--trials", "5", "--out", str(tmp_path / "res.csv")]) == 3
    assert list(tmp_path.iterdir()) == []


def test_run_never_changes_the_process_umask(tmp_path, monkeypatch):
    # another thread's file, created while the umask was briefly 0, would be world-writable
    def refuse(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", refuse)
    assert main(["run", "three_observer", "--trials", "5", "--snapshots",
                 "--out", str(tmp_path / "res.csv")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "res.csv", "res.csv.manifest.json", "res.csv.trials.csv"]


def test_outputs_take_the_mode_open_gives_under_the_callers_umask(tmp_path):
    # a child, so the umask it sets is not this process's
    out = tmp_path / "res.csv"
    subprocess.run([sys.executable, "-c", "import os, sys; os.umask(0o027); "
                    "from noncomm.cli import main; sys.exit(main(sys.argv[1:]))",
                    "run", "epr", "--trials", "8", "--snapshots", "--out", str(out)], check=True)
    for name in ("res.csv", "res.csv.trials.csv", "res.csv.manifest.json"):
        assert (tmp_path / name).stat().st_mode & 0o777 == 0o640, name


def test_out_with_a_240_character_basename_writes_result_and_manifest(tmp_path):
    # the manifest's name is 254 characters, so its temporary name must be cut to fit
    out = tmp_path / ("r" * 236 + ".csv")
    assert main(["run", "epr", "--trials", "5", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / (out.name + ".manifest.json")).read_text())
    assert manifest["outputs"] == [str(out)] and "anticorrelation_rate" in out.read_text()
    assert len(list(tmp_path.iterdir())) == 2


def test_out_whose_manifest_name_is_too_long_exits_3_before_running(tmp_path, capsys):
    # the result's name, 249 bytes, fits; its manifest's, 263, does not: nothing is written
    out = tmp_path / ("b" * 245 + ".csv")
    assert main(["run", "epr", "--trials", "2", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: --out {str(out)!r} is too long") and err.count("\n") == 1
    assert "Traceback" not in err and not any(tmp_path.iterdir())


def test_out_the_filesystem_refuses_exits_3_with_one_error_line(tmp_path, monkeypatch, capsys):
    def read_only(*args):
        raise OSError(errno.EROFS, os.strerror(errno.EROFS), args[0])

    monkeypatch.setattr(os, "open", read_only)
    assert main(["run", "epr", "--trials", "2", "--out", str(tmp_path / "res.csv")]) == 3
    monkeypatch.undo()
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write --out {str(tmp_path / 'res.csv')!r}: ")
    assert err.count("\n") == 1 and "Read-only file system" in err
    assert not any(tmp_path.iterdir())


def test_temp_name_collision_draws_again_and_keeps_the_foreign_file(tmp_path, monkeypatch):
    out, foreign = tmp_path / "res.csv", tmp_path / "res.csv.deadbeef"
    foreign.write_text("not ours")
    names = iter(["deadbeef", "deadbeef", "cafef00d"])
    monkeypatch.setattr(secrets, "token_hex", lambda nbytes: next(names))
    cli._atomic_write(str(out), "ours\n")
    assert out.read_text() == "ours\n" and foreign.read_text() == "not ours"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["res.csv", "res.csv.deadbeef"]
    # a bounded number of draws: when every one is taken, the write fails and changes nothing
    drawn = []
    monkeypatch.setattr(secrets, "token_hex", lambda nbytes: drawn.append(nbytes) or "deadbeef")
    with pytest.raises(FileExistsError):
        cli._atomic_write(str(out), "theirs\n")
    monkeypatch.undo()
    assert 1 < len(drawn) <= 1000
    assert out.read_text() == "ours\n" and foreign.read_text() == "not ours"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["res.csv", "res.csv.deadbeef"]


def test_out_in_a_missing_directory_exits_3_before_running(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(cli, "run_scenario", refuse)
    (tmp_path / "file").write_text("")
    monkeypatch.chdir(tmp_path)  # where an empty --out would write
    for out in (tmp_path / "missing" / "res.csv", tmp_path / "file" / "res.csv", ""):
        assert main(["run", "epr", "--trials", "5", "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: --out ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_out_naming_a_directory_exits_3_before_running(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("the scenario ran")

    monkeypatch.setattr(cli, "run_scenario", refuse)
    (tmp_path / "results").mkdir()
    for out in (tmp_path / "results", tmp_path):
        assert main(["run", "epr", "--trials", "5", "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: --out {str(out)!r} is a directory\n"
    assert [p.name for p in tmp_path.iterdir()] == ["results"]
    assert not any((tmp_path / "results").iterdir())


def test_run_json_result_validates_against_schema(tmp_path):
    out = tmp_path / "res.json"
    code = main(["run", "two_slit", "--trials", "100", "--seed", "3",
                 "--format", "json", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, RESULT_SCHEMA)
    assert doc["scenario"] == "two_slit"
    assert doc["series"]["analytic_no_which_path"] == [1.0, 0.0]


def test_every_scenario_result_validates_against_schema():
    from noncomm.cli import result_json
    from noncomm.scenarios import run_scenario

    for name in SCENARIOS:
        res = run_scenario(name, trials=20, seed=8, record_trials=True)
        doc = json.loads(result_json(res))
        jsonschema.validate(doc, RESULT_SCHEMA)


# ------------------------------------------------------------- JSON writer

_TEXT = st.text(st.one_of(st.sampled_from('"\\{}[],: \n\t\x00\x1f\x7f\xe9\u2603\ud800\U0001f600'),
                          st.characters()), max_size=8)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _TEXT, st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 2 ** 64, -(2 ** 64) - 1, 10 ** 30]))
_TREES = st.recursive(_SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(_TEXT, children, max_size=4)), max_leaves=24)


@settings(max_examples=500, deadline=None)
@given(_TREES)
def test_json_text_is_json_dumps_indent_2(tree):
    assert cli.json_text(tree) == json.dumps(tree, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(_TREES)
@example([[1, [2]], {"k": [3]}])
def test_json_text_writes_a_shared_container_as_json_dumps(tree):
    # one object met twice at one depth, then at two more depths
    doc = [tree, tree, {"k": tree}, [[tree]]]
    assert cli.json_text(doc) == json.dumps(doc, indent=2) + "\n"


def memos_of_json_text(monkeypatch, doc) -> list:
    """Every memo `json_text` hands `_indented` while it writes `doc`."""
    memos, indented = [], cli._indented

    def spy(obj, memo, *args, **kwargs):
        memos.append(memo)
        return indented(obj, memo, *args, **kwargs)

    monkeypatch.setattr(cli, "_indented", spy)
    assert cli.json_text(doc) == json.dumps(doc, indent=2) + "\n"
    return memos


def test_json_text_keeps_text_only_for_a_container_met_twice(monkeypatch):
    once, shared = [{"a": [1]}], [[2], {"b": 3}]
    memos = memos_of_json_text(monkeypatch, {"once": once, "shared": [shared, shared, [shared]]})
    memo, = {id(memo): memo for memo in memos}.values()  # one memo for the document
    # `shared` twice at depth 2, once at depth 3; flat containers take no entry
    assert {key for key, text in memo.items() if text is not None} == {(id(shared), 2)}
    assert memo[id(shared), 3] is None and memo[id(once), 1] is None


def test_json_text_keeps_no_text_for_records_of_distinct_histories(monkeypatch):
    # each polarizer at 45 degrees to the last: 2**20 histories for 30 trials
    res = run_scenario("polarization_sequence", {"angles": [0, 45] * 10 + [0]}, trials=30,
                       seed=3, record_trials=True)
    assert len({id(record["entries"]) for record in res.trial_records}) == 30
    memo, = {id(memo): memo for memo in memos_of_json_text(monkeypatch, res.to_dict())}.values()
    assert all((id(record["entries"]), 3) in memo for record in res.trial_records)
    assert set(memo.values()) == {None}


def _trials_csv_by_json_dumps(res) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trial", "record"])
    writer.writerows([rec.get("trial"), json.dumps(rec)] for rec in res.trial_records)
    return buf.getvalue()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trials_csv_writes_json_dumps_of_each_record(name):
    res = run_scenario(name, trials=12, seed=5, record_trials=True)
    assert cli.trials_csv(res) == _trials_csv_by_json_dumps(res)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_TREES, max_size=3), min_size=1, max_size=3),
       st.lists(st.tuples(_SCALARS, st.integers(0, 2)), min_size=1, max_size=6), st.booleans())
def test_trials_csv_with_shared_entries_lists_is_csv_of_json_dumps(pool, rows, entries_first):
    columns = {"value": [v for v, _ in rows], "entries": [pool[k % len(pool)] for _, k in rows]}
    if entries_first:
        columns = {"entries": columns["entries"], "value": columns["value"]}
    res = dataclasses.replace(run_scenario("three_observer", trials=1, seed=0),
                              trial_records=trial_records(**columns))
    assert cli.trials_csv(res) == _trials_csv_by_json_dumps(res)


def test_trials_csv_encodes_each_distinct_entries_list_once(monkeypatch):
    res = run_scenario("zeno_precise", {"n": 20}, trials=40, seed=1, record_trials=True)
    distinct = {id(rec["entries"]) for rec in res.trial_records}
    assert 1 < len(distinct) < 40
    encoded, dumps = [], json.dumps

    def spy(obj, **kwargs):
        encoded.append(id(obj))
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", spy)
    text = cli.trials_csv(res)
    monkeypatch.undo()
    assert sorted(i for i in encoded if i in distinct) == sorted(distinct)
    assert text == _trials_csv_by_json_dumps(res)


@pytest.mark.parametrize("record", [False, True])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_result_json_is_json_dumps_indent_2(name, record):
    res = run_scenario(name, trials=12, seed=5, record_trials=record)
    assert cli.result_json(res) == json.dumps(res.to_dict(), indent=2) + "\n"


def test_run_snapshots_outputs(tmp_path):
    out = tmp_path / "res.json"
    assert main(["run", "three_observer", "--trials", "10", "--seed", "2",
                 "--format", "json", "--snapshots", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, RESULT_SCHEMA)
    assert len(doc["trial_records"]) == 10

    out_csv = tmp_path / "res.csv"
    assert main(["run", "three_observer", "--trials", "10", "--seed", "2",
                 "--snapshots", "--out", str(out_csv)]) == 0
    trials_file = tmp_path / "res.csv.trials.csv"
    assert trials_file.exists()
    assert trials_file.read_text().startswith("trial,record")


def test_snapshots_with_csv_on_stdout_build_no_records(monkeypatch, capsys):
    # CSV on stdout writes no record, so --snapshots neither builds nor prices them:
    # under a limit between the two estimates the run goes ahead, as without it
    params = validate_params("zeno_precise", {})
    lean, heavy = (peak_bytes("zeno_precise", params, 200, record) for record in (False, True))
    argv = ["run", "zeno_precise", "--trials", "200", "--seed", "3"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    calls = []

    def spy(*args):
        calls.append(args)
        return run_scenario(*args)

    monkeypatch.setattr(scenarios, "memory_limit", lambda: (lean + heavy) // 2)
    monkeypatch.setattr(cli, "run_scenario", spy)
    assert main([*argv, "--snapshots"]) == 0
    assert capsys.readouterr().out.encode() == plain.encode()
    assert [args[-1] for args in calls] == [False]


def test_run_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(["run", "zeno_precise", "--set", "n=20", "--trials", "300",
                     "--seed", "9", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()

    aj, bj = tmp_path / "a.json", tmp_path / "b.json"
    for path in (aj, bj):
        assert main(["run", "epr", "--trials", "300", "--seed", "9",
                     "--format", "json", "--snapshots", "--out", str(path)]) == 0
    assert aj.read_bytes() == bj.read_bytes()


def test_run_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["run", "three_observer", "--trials", "200", "--seed", "1",
          "--format", "json", "--snapshots", "--out", str(a)])
    main(["run", "three_observer", "--trials", "200", "--seed", "2",
          "--format", "json", "--snapshots", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_config_and_set_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 4, "trials": 50,
                               "parameters": {"n": 10, "omega": 1.0}}))
    assert main(["run", "zeno_precise", "--config", str(cfg),
                 "--set", "n=25"]) == 0
    out = capsys.readouterr().out
    rows = {line.split(",")[1]: line.split(",")[2]
            for line in out.strip().splitlines()[1:]}
    assert rows["n"] == "25"            # --set beats config
    assert rows["omega"] == "1"         # config beats default
    expected = math.cos(1.0 / 50) ** 50
    assert abs(float(rows["analytic"]) - expected) <= 1e-15


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("NONCOMM_SEED", "77")
    out = tmp_path / "r.csv"
    assert main(["run", "epr", "--trials", "50", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    assert manifest["seed"] == 77
    monkeypatch.setenv("NONCOMM_SEED", "not-a-number")
    assert main(["run", "epr", "--trials", "50"]) == 3


# -------------------------------------------------------------------- check


def test_check_single_suite(capsys):
    assert main(["check", "--suite", "algebra"]) == 0
    out = capsys.readouterr().out
    assert "PASS algebra.star_algebra_laws" in out
    assert "invariants passed" in out


def test_check_strict_states(capsys):
    assert main(["check", "--suite", "states", "--tolerance-profile", "strict"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_check_failure_exit_code(monkeypatch, capsys):
    import noncomm.checks as checks
    from noncomm.checks import CheckResult

    broken = (lambda profile: CheckResult("dynamics", "always_wrong", False, 1.0, 0.0),)
    monkeypatch.setitem(checks.SUITES, "dynamics", broken)
    assert main(["check", "--suite", "dynamics"]) == 1
    assert "FAIL dynamics.always_wrong" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "noncomm", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "zeno_precise" in proc.stdout


# sha256 of `noncomm run zeno_coarse --format json --snapshots` output,
# recorded when every window was rebuilt from its own eigendecomposition;
# windows cut from one shared decomposition must give the same bytes
@pytest.mark.parametrize("settings,seed,trials,digest", [
    ((), 0, 20, "3c63cdae0b2b9028e8992e2521dafbd516fdefd35940514d4f0b69505d10d3b1"),
    ((), 7, 20, "9366a160c6b553e51722358682a54fb84cb0ae43eb82ec32448b5b35680bd2d6"),
    (("--set", "num_levels=16,steps=48"), 3, 6,
     "598034cb14fabac09b7f3a386840db291ae0649418f52c7b667ae8fd0177657c"),
    (("--set", "num_levels=16,steps=48"), 2026, 6,
     "019f92aaff8deb8e7443f1d57b9d7540b9b492708f1e45360cf1022aaf359329"),
])
def test_zeno_coarse_snapshot_bytes_pinned(tmp_path, settings, seed, trials, digest):
    out = tmp_path / "zeno_coarse.json"
    assert main(["run", "zeno_coarse", *settings, "--trials", str(trials), "--seed", str(seed),
                 "--format", "json", "--snapshots", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# ------------------------------------------------------------ one process


def test_main_builds_its_parser_once(monkeypatch):
    built, build = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for argv in (["list"], ["list", "--json"], ["list"]):
            assert main(argv) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_main_twice_leaks_nothing_into_the_second_run(tmp_path):
    argv = ["run", "epr", "--trials", "6", "--seed", "4", "--format", "json"]
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert main([*argv, "--set", "state=product", "--snapshots", "--out", str(first)]) == 0
    assert main([*argv, "--out", str(second)]) == 0
    fresh = subprocess.run([sys.executable, "-m", "noncomm", *argv],
                           capture_output=True, check=True).stdout
    assert second.read_bytes() == fresh
    assert first.read_bytes() != fresh and b"trial_records" in first.read_bytes()


# ------------------------------------------------------------------ limits

# Each would allocate far past memory; it must exit 3 before allocating.
# The child caps its own address space, so a broken estimate fails fast.
OVERSIZED = {
    "zeno_precise-n": ["zeno_precise", "--set", "n=10**8", "--trials", "1"],
    "zeno_coarse-levels": ["zeno_coarse", "--set", "num_levels=10**6", "--trials", "1"],
    "classical-points": ["classical_control", "--set", "num_points=10**8", "--trials", "1"],
    "epr-trials": ["epr", "--trials", str(10**10), "--snapshots"],
}
_UNDER_CAP = """
import resource, sys, tracemalloc
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 1536 << 20 if hard == resource.RLIM_INFINITY else min(1536 << 20, hard)
resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
from noncomm.cli import main
tracemalloc.start()
code = main(["run", *sys.argv[1:]])
print(code, tracemalloc.get_traced_memory()[1], cap)
"""


@pytest.mark.parametrize("argv", OVERSIZED.values(), ids=OVERSIZED.keys())
def test_oversized_run_exits_3_before_allocating(argv):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _UNDER_CAP, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    code, peak, cap = map(int, proc.stdout.split())
    assert code == 3 and peak < 1 << 20
    # the limit is the soft address-space cap, measured in the child
    assert f"more than the {cap >> 20} MiB this process may use" in proc.stderr


def test_classical_zeno_of_a_hundred_thousand_points_runs_under_the_cap(tmp_path):
    # the run compiles the point mass's one question and reads every step from the
    # flow, so its bytes grow with the points, not their square
    out = tmp_path / "cz.json"
    argv = ["classical_control", "--set", "scenario=zeno,num_points=100000,steps=1000",
            "--trials", str(10**12), "--format", "json", "--out", str(out)]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _UNDER_CAP, *argv], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.stdout.split()[0] == "0", proc.stderr
    doc = json.loads(out.read_text())
    assert doc["series"]["position_trajectory"] == list(range(1001))
    assert doc["summary"]["frozen_steps"] == 0


# -------------------------------------------------------------- BLAS core


def test_blas_core_names_the_kernel_openblas_picked():
    env = {**os.environ, "OPENBLAS_CORETYPE": "Haswell"}
    proc = subprocess.run([sys.executable, "-c",
                           "from noncomm.cli import blas_core; print(blas_core())"],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "Haswell"


def test_blas_core_is_unknown_without_the_library_or_symbol(monkeypatch):
    # no bundled OpenBLAS, then a library (the C library) without the symbol
    try:
        for libs in ([], [ctypes.util.find_library("c")]):
            monkeypatch.setattr(cli.glob, "glob", lambda pattern: libs)
            cli.blas_core.cache_clear()
            assert cli.blas_core() == "unknown"
    finally:
        monkeypatch.undo()
        cli.blas_core.cache_clear()
