"""Command line behavior: output shapes, exit codes, determinism."""
import hashlib
import json
import re
import time

import pytest

from mdscache import cli
from mdscache.cli import build_parser, dec_str, main
from mdscache.delivery import require_enumerable
from mdscache.params import SystemParams
from mdscache.simulate import run_trials
from fractions import Fraction


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dec_str_significant_digits():
    assert dec_str(Fraction(1, 3)) == "0.333333333333"
    assert dec_str(Fraction(45, 64)) == "0.703125"
    assert dec_str(Fraction(2)) == "2"


def test_rate_prints_all_schemes(capsys):
    code, out, _ = run(capsys, "rate", "--n", "2", "--m", "1", "--k", "3", "--r", "2")
    assert code == 0
    assert "45/64" in out and "0.703125" in out
    assert "uncoded decentralized" in out
    assert "uncoded centralized" in out
    assert "stop_index=2" in out


def test_rate_accepts_rational_flags(capsys):
    code, out, _ = run(capsys, "rate", "--n", "2", "--m", "1", "--k", "3",
                       "--r", "3/2")
    assert code == 0
    assert "25/36" in out


def test_rate_missing_flag_exits_2(capsys):
    code, _, err = run(capsys, "rate", "--n", "2", "--m", "1", "--k", "3")
    assert code == 2
    assert "--r" in err


def test_rate_invalid_params_exit_2(capsys):
    code, _, err = run(capsys, "rate", "--n", "2", "--m", "5", "--k", "3", "--r", "2")
    assert code == 2
    assert "cache budget" in err


def test_simulate_beyond_subset_budget_exits_2_at_once(capsys):
    start = time.perf_counter()
    code, _, err = run(capsys, "simulate", "--n", "2", "--m", "1", "--k", "17",
                       "--r", "2", "--f", "64", "--trials", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "121670" in err and "65536" in err
    # every k <= 16 fits, including m = 0 where delivery runs down to size 1
    for m in (0, 1):
        require_enumerable(SystemParams(n_files=2, k_prime=16, k=16, m=Fraction(m),
                                        r=Fraction(2), f=64))


def test_exact_mode_beyond_matrix_budget_exits_2_at_once(capsys):
    # the decode refuses before it allocates the system, at trial 0's first user
    start = time.perf_counter()
    code, _, err = run(capsys, "simulate", "--mode", "exact", "--codec", "real", "--n", "2",
                       "--k", "3", "--m", "1", "--r", "2", "--f", "8192", "--trials", "1")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert "f=8192" in err and "256 MB" in err and "--mode accounting" in err
    assert re.search(r"needs \d+ MB", err)


def test_refused_exact_run_in_workers_writes_nothing(tmp_path, capsys):
    out, log = tmp_path / "report.json", tmp_path / "trials.jsonl"
    code, _, err = run(capsys, "verify", "--n", "2", "--m", "1", "--k", "3", "--r", "2",
                       "--f", "8192", "--trials", "2", "--jobs", "2",
                       "--out", str(out), "--log", str(log))
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "f=8192" in lines[0]
    assert not out.exists() and not log.exists()


def test_exact_mode_admits_small_f():
    # the verify preset's default f and the f=128 exact-mode benchmark point run
    for f in (64, 128):
        p = SystemParams(n_files=2, k_prime=3, k=3, m=Fraction(1), r=Fraction(2), f=f)
        stats = run_trials(p, trials=1, seed=3, mode="exact", codec="real")
        assert all(stats.trials[0].exact_successes)


def test_sweep_csv_shape(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "100", "--m", "2", "--k", "10",
                       "--r", "1", "--axis", "r", "--values", "1,2,10")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("r,coded_prefetch_exact,")
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "1"
    # r=1 column equals the uncoded decentralized rate
    assert first[1] == first[3]


def test_sweep_single_point(capsys):
    code, out, _ = run(capsys, "sweep", "--n", "2", "--m", "1", "--k", "3",
                       "--r", "2", "--axis", "m", "--values", "1")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_sweep_warns_on_infeasible_point(capsys):
    code, out, err = run(capsys, "sweep", "--n", "2", "--m", "1", "--k", "3",
                         "--r", "2", "--axis", "m", "--values", "1,3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert lines[2].endswith(",,,,,,")  # empty cells for m > n
    assert "skipping" in err


def test_sweep_writes_file(tmp_path, capsys):
    path = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--n", "2", "--m", "1", "--k", "2",
                     "--r", "2", "--axis", "k", "--values", "2,3,4",
                     "--out", str(path))
    assert code == 0
    assert len(path.read_text().splitlines()) == 4


def test_best_r_output(capsys):
    code, out, _ = run(capsys, "best-r", "--n", "20", "--m", "12", "--k", "4",
                       "--grid", "1,1.25,1.5,1.75,2")
    assert code == 0
    assert out.startswith("r=3/2 ")


def test_simulate_report_and_log(tmp_path, capsys):
    report = tmp_path / "report.json"
    log = tmp_path / "trials.jsonl"
    code, _, err = run(capsys, "simulate", "--n", "2", "--m", "1", "--k", "3",
                       "--r", "2", "--f", "1000", "--trials", "4", "--seed", "3",
                       "--out", str(report), "--log", str(log))
    assert code == 0
    assert "PASS" in err
    obj = json.loads(report.read_text())
    assert obj["params"] == {"n_files": 2, "k_prime": 3, "k": 3, "m": "1", "r": "2", "f": 1000}
    assert obj["comparison"]["passed"] is True
    assert obj["settings"]["trials"] == 4
    assert obj["aggregate"]["success_fraction"] == 1.0
    lines = log.read_text().splitlines()
    assert len(lines) == 4
    rec = json.loads(lines[0])
    assert rec["trial"] == 0 and all(rec["successes"])


def test_simulate_same_seed_byte_identical(tmp_path, capsys):
    paths = []
    for name in ("a", "b"):
        report = tmp_path / f"report_{name}.json"
        log = tmp_path / f"log_{name}.jsonl"
        code, _, _ = run(capsys, "simulate", "--n", "2", "--m", "1", "--k", "3",
                         "--r", "2", "--f", "1000", "--trials", "3",
                         "--seed", "11", "--out", str(report), "--log", str(log))
        assert code == 0
        paths.append((report.read_bytes(), log.read_bytes()))
    assert paths[0] == paths[1]


def test_simulate_different_seed_differs(tmp_path, capsys):
    logs = []
    for seed in ("1", "2"):
        log = tmp_path / f"log_{seed}.jsonl"
        run(capsys, "simulate", "--n", "2", "--m", "1", "--k", "3", "--r", "2",
            "--f", "1000", "--trials", "3", "--seed", seed, "--log", str(log))
        logs.append(log.read_bytes())
    assert logs[0] != logs[1]


def test_simulate_infeasible_f_suggests(capsys, monkeypatch):
    code, _, err = run(capsys, "simulate", "--n", "2", "--m", "1", "--k", "3",
                       "--r", "3/2", "--f", "1001")
    assert code == 2
    assert "smallest feasible f" in err
    # a worker count or tolerance that no run can use is an error, not a serial run
    base = ("simulate", "--n", "2", "--m", "1", "--k", "3", "--r", "2", "--f", "64",
            "--trials", "1")
    for flag, value, needle in (("--jobs", "0", "jobs"), ("--jobs", "-3", "jobs"),
                                ("--tolerance", "-0.1", "tolerance")):
        code, _, err = run(capsys, *base, flag, value)
        assert code == 2
        assert f"{needle} must be >= " in err
    # a bad tolerance is caught before any trial runs
    calls = []
    monkeypatch.setattr(cli, "run_trials", lambda *a, **kw: calls.append(a))
    for value in ("-0.1", "abc"):
        code, _, err = run(capsys, *base, "--tolerance", value)
        assert code == 2
        assert "tolerance must be" in err
    assert calls == []


def test_simulate_tolerance_zero_fails_with_explanation(capsys):
    code, _, err = run(capsys, "simulate", "--n", "2", "--m", "1", "--k", "3",
                       "--r", "2", "--f", "1000", "--trials", "2",
                       "--tolerance", "0")
    assert code == 1
    assert "tolerance 0" in err


def test_simulate_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "n": 2, "m": 1, "k": 3, "r": 2, "f": 1000, "trials": 2, "seed": 5,
        "tolerance": 0.05,
    }))
    code, out, err = run(capsys, "simulate", "--config", str(config))
    assert code == 0
    # flags win over the config file
    code2, _, err2 = run(capsys, "simulate", "--config", str(config),
                         "--tolerance", "0")
    assert code2 == 1
    assert "tolerance 0" in err2


def test_config_key_typo_exits_2_with_closest_flag(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 2, "m": 1, "k": 3, "r": 2, "f": 100,
                                  "trails": 3}))
    code, out, err = run(capsys, "simulate", "--config", str(config))
    assert code == 2
    assert out == ""
    assert "'trails'" in err and "--trials" in err


@pytest.mark.parametrize("content", [[1, 2], [["n", 2], ["m", 1], ["k", 3], ["r", 2]]],
                         ids=["list", "pairs"])
def test_config_that_is_not_an_object_exits_2_naming_the_file(tmp_path, capsys, content):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(content))
    code, out, err = run(capsys, "rate", "--config", str(config))
    assert code == 2
    assert out == ""
    assert str(config) in err and "JSON object" in err


def run_to_exit(capsys, *argv):
    """``run``, with an argparse error's ``SystemExit`` read as its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("m", [1.5, "3/2", "1.5"], ids=["number", "fraction", "decimal"])
def test_config_value_parses_as_the_flag_text(tmp_path, capsys, m):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"m": m}))
    code, out, _ = run(capsys, "rate", "--n", "2", "--k", "3", "--r", "2",
                       "--config", str(config))
    assert code == 0
    assert out == run(capsys, "rate", "--n", "2", "--m", "3/2", "--k", "3", "--r", "2")[1]


@pytest.mark.parametrize("command,key,value,needle", [
    ("simulate", "f", 64.9, "argument --f: invalid int value: '64.9'"),
    ("simulate", "n", 2.5, "argument --n: invalid int value: '2.5'"),
    ("simulate", "trials", True, "config key 'trials' (--trials)"),
    ("simulate", "mode", None, "config key 'mode' (--mode)"),
    ("simulate", "demand", [1, 2, 1], "config key 'demand' (--demand)"),
    ("simulate", "no_reconstruct", "yes", "(--no-reconstruct) takes true or false"),
    ("sweep", "axis", "q", "argument --axis: invalid choice: 'q'"),
], ids=["f", "n", "trials", "mode", "demand", "no_reconstruct", "axis"])
def test_bad_config_value_exits_2_naming_the_flag(tmp_path, capsys, monkeypatch, command, key,
                                                  value, needle):
    def no_trials(*args, **kwargs):
        raise AssertionError("run_trials ran on a bad config value")

    monkeypatch.setattr(cli, "run_trials", no_trials)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    point = ("--n", "2", "--m", "1", "--k", "3", "--r", "2")
    extra = ("--f", "64", "--trials", "1") if command == "simulate" else ("--values", "1,2")
    code, out, err = run_to_exit(capsys, command, *point, *extra, "--config", str(config))
    assert code == 2
    assert out == ""
    assert needle in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,key,value,needle", [
    ("simulate", "f", 64.9, "argument --f: invalid int value: '64.9'"),
    ("rate", "m", "1/0", "argument --m: '1/0' has a zero denominator"),
    ("sweep", "axis", "q", "argument --axis: invalid choice: 'q'"),
], ids=["f", "m", "axis"])
def test_bad_config_value_names_the_file(tmp_path, capsys, command, key, value, needle):
    # the value is reported with the file it came from, on one error line
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: value}))
    point = ["--n", "2", "--m", "1", "--k", "3", "--r", "2"]
    if key == "m":
        del point[2:4]  # the config file supplies --m
    extra = {"simulate": ("--f", "64", "--trials", "1"), "sweep": ("--values", "1,2")}
    code, out, err = run_to_exit(capsys, command, *point, *extra.get(command, ()),
                                 "--config", str(config))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: config file {config}: {needle}") and err.count("\n") == 1


@pytest.mark.parametrize("switch", [True, False])
def test_config_switch_gives_the_flag_golden_digest(tmp_path, capsys, switch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 3, "m": 1, "k": 6, "r": 2, "f": 300, "trials": 4,
                                  "seed": 5, "tolerance": 1, "no_reconstruct": switch}))
    log = tmp_path / "trials.jsonl"
    code, _, err = run(capsys, "simulate", "--config", str(config), "--log", str(log))
    assert code == 0, err
    extra = ("--no-reconstruct",) if switch else ()
    assert hashlib.sha256(log.read_bytes()).hexdigest() == GOLDEN_LOGS[extra]


def test_verify_preset_then_config_then_flags(tmp_path, capsys, monkeypatch):
    class Ran(Exception):
        pass

    def record(params, **kwargs):
        seen.append((kwargs["trials"], kwargs["mode"]))
        raise Ran

    monkeypatch.setattr(cli, "run_trials", record)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trials": 2, "mode": "accounting"}))
    base = ("verify", "--n", "2", "--m", "1", "--k", "3", "--r", "2")
    seen = []
    for argv in (base, (*base, "--config", str(config)),
                 (*base, "--trials", "3", "--mode", "exact", "--config", str(config))):
        with pytest.raises(Ran):
            main(list(argv))
    assert seen == [(5, "exact"), (2, "accounting"), (3, "exact")]


def test_simulate_lists_every_missing_parameter_at_once(capsys):
    code, out, err = run(capsys, "simulate", "--trials", "1")
    assert code == 2
    assert out == ""
    assert err == "error: missing required parameters: --n, --m, --k, --r, --f\n"


@pytest.mark.parametrize("argv", [
    ("rate", "--n", "2", "--m", "1/0", "--k", "3", "--r", "2"),
    ("rate", "--n", "2", "--m", "1", "--k", "3", "--r", "1/0"),
    ("best-r", "--n", "2", "--m", "1", "--k", "3", "--grid", "1,1/0"),
    ("sweep", "--n", "2", "--m", "1", "--k", "3", "--r", "2", "--axis", "m", "--values", "1,1/0"),
], ids=["m", "r", "grid", "values"])
def test_zero_denominator_exits_2_with_one_error_line(capsys, argv):
    code, out, err = run_to_exit(capsys, *argv)
    assert code == 2
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "'1/0' has a zero denominator" in errors[0]
    assert "Traceback" not in err


@pytest.mark.parametrize("flag", ["--config", "--out", "--log"])
def test_directory_path_exits_2_with_one_error_line(tmp_path, capsys, flag):
    # a path that cannot be read or written is bad usage (2), not a failed check (1)
    base = ("rate", "--n", "2", "--m", "1", "--k", "3", "--r", "2") if flag == "--config" else \
        ("simulate", "--n", "2", "--m", "1", "--k", "3", "--r", "2", "--f", "100", "--trials", "1")
    code, out, err = run(capsys, *base, flag, str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_unwritable_log_fails_before_any_trial_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                                   command):
    def no_trials(*args, **kwargs):
        raise AssertionError("run_trials ran before the output paths were checked")

    monkeypatch.setattr(cli, "run_trials", no_trials)
    base = (command, "--n", "2", "--m", "1", "--k", "3", "--r", "2", "--f", "64")
    report = tmp_path / "report.json"
    code, out, err = run(capsys, *base, "--out", str(report), "--log", str(tmp_path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and str(tmp_path) in err
    assert list(tmp_path.iterdir()) == []
    code, _, err = run(capsys, *base, "--out", str(tmp_path / "missing" / "report.json"))
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_k_prime_zero_is_rejected_not_defaulted(capsys):
    code, out, err = run(capsys, "simulate", "--n", "2", "--m", "1", "--k", "3",
                         "--k-prime", "0", "--r", "2", "--f", "64")
    assert code == 2
    assert out == ""
    assert "k_prime=0" in err


# sha256 of the per-trial log at a point with top-ups, fallbacks and users
# knowing more than f symbols; a change to seeded output must update these
# digests and say so in CHANGES.md
GOLDEN_LOGS = {
    (): "ead5883d5eaacd4778bb82a93d83ecce83d8117406ffe01d16f4384a59f47001",
    ("--no-reconstruct",): "82c21b0f85cdc9de9934be73b9bd7c979cce96bb534b9d05908f0dde11c81b78",
}


@pytest.mark.parametrize("extra", sorted(GOLDEN_LOGS), ids=["reconstruct", "no-reconstruct"])
def test_simulate_log_matches_golden_digest(tmp_path, capsys, extra):
    log = tmp_path / "trials.jsonl"
    code, _, err = run(capsys, "simulate", "--n", "3", "--m", "1", "--k", "6",
                       "--r", "2", "--f", "300", "--trials", "4", "--seed", "5",
                       "--tolerance", "1", "--log", str(log), *extra)
    assert code == 0, err
    assert hashlib.sha256(log.read_bytes()).hexdigest() == GOLDEN_LOGS[extra]


def test_verify_preset_runs_exact_mode(tmp_path, capsys):
    report = tmp_path / "verify.json"
    code, _, err = run(capsys, "verify", "--n", "2", "--m", "1", "--k", "3",
                       "--r", "2", "--seed", "5", "--out", str(report))
    assert code == 0, err
    obj = json.loads(report.read_text())
    assert obj["settings"]["mode"] == "exact"
    assert obj["settings"]["codec"] == "real"
    assert obj["comparison"]["exact_success_fraction"] == 1.0


def test_selftest_passes(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) >= 6
    assert all(line.startswith("PASS") for line in lines)


def test_demand_flag(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, _, _ = run(capsys, "simulate", "--n", "2", "--m", "1", "--k", "3",
                     "--r", "2", "--f", "1000", "--trials", "2",
                     "--demand", "1,1,1", "--tolerance", "0.1",
                     "--out", str(report))
    assert code == 0
    obj = json.loads(report.read_text())
    assert obj["demand"] == [1, 1, 1]
    assert obj["comparison"]["distinct_files"] == 1


def test_parser_help_lists_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("rate", "sweep", "simulate", "verify", "selftest", "best-r"):
        assert name in text
