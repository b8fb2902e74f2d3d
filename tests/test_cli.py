"""Command-line surface: exit codes, CSV and JSON shapes, determinism."""

import ast
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

import pytest

import chainrate
import golden
from chainrate import cli, montecarlo, verify
from chainrate.cli import build_parser, main
from chainrate.keyrate import RateParams, finite_rate, noise_tolerance
from chainrate.noise import noise_parameter, observed_qx, uniform_chain
from frozen import DELTA_7E5_1E7, DPRIME_7E5, EPSILON_FAIL_1E36, EPSILON_PA_1E36, PRESET, SMOOTHING_1E36


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def write_config(tmp_path, payload):
    path = tmp_path / "chain.json"
    path.write_text(json.dumps(payload))
    return str(path)


THREE_REPEATERS = json.loads((Path(__file__).parent / "golden" / "three_repeaters.json").read_text())


def test_noise_sweep_table(capsys):
    rc, out, err = run(capsys, "noise", "--steps", "4", "--q-max", "0.12")
    assert rc == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["q", "qx_total", "p_star_h1", "p_star_h2", "p_star_h3", "p_star_h4"]
    assert len(rows) == 4
    assert [float(r[0]) for r in rows] == [0.0, 0.04, 0.08, 0.12]
    # Spot-check one row against the library at full CSV precision.
    q = 0.08
    row = rows[2]
    assert row[1] == format(observed_qx(uniform_chain(5, q, 0, 0)), ".12g")
    assert row[3] == format(noise_parameter(uniform_chain(5, q, 1, 1)), ".12g")


def test_rate_finite_round_sweep(capsys):
    rc, out, err = run(capsys, "rate-finite", "--sweep", "N", "--n-min", "1e5", "--n-max", "1e7", "--per-decade", "1")
    assert rc == 0 and err == ""
    header, rows = parse_csv(out)
    assert header[0] == "N"
    assert header[1:] == [
        "rate_h0",
        "rate_h0_clamped",
        "rate_h2",
        "rate_h2_clamped",
        "rate_h4",
        "rate_h4_clamped",
        "rate_bb84f",
        "rate_bb84f_clamped",
    ]
    assert [r[0] for r in rows] == ["100000", "1000000", "10000000"]
    # The default preset is the 3% chain; verify one cell end to end.
    params = RateParams(n=10**7, m=700_000, epsilon=1e-36, p_star=noise_parameter(PRESET))
    expected = finite_rate(observed_qx(PRESET), params).rate
    assert math.isclose(float(rows[2][5]), expected, rel_tol=1e-10)
    for row in rows:
        for raw, clamped in zip(row[1::2], row[2::2]):
            assert float(clamped) == max(0.0, float(raw))


def test_rate_finite_noise_sweep(capsys):
    rc, out, err = run(capsys, "rate-finite", "--sweep", "qx", "--steps", "5", "--qx-max", "0.12", "--rounds", "1e6")
    assert rc == 0 and err == ""
    header, rows = parse_csv(out)
    assert header[0] == "qx"
    assert len(rows) == 5
    assert float(rows[-1][0]) == 0.12


def test_rate_asymptotic_table_and_threshold_row(capsys):
    rc, out, err = run(capsys, "rate-asymptotic", "--steps", "3", "--qx-max", "0.1")
    assert rc == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["qx", "rate_h0", "rate_h2", "rate_h4", "rate_bb84a"]
    assert rows[-1][0] == "threshold"
    data = rows[:-1]
    assert len(data) == 3
    # Without honest stations the curve is the plain baseline, digit for digit.
    for row in rows:
        assert row[1] == row[4]
    thresholds = [float(v) for v in rows[-1][1:]]
    assert thresholds[0] < thresholds[1] < thresholds[2]


#: Every golden ``rate-asymptotic`` case that prints a table, and every honest count on the preset.
THRESHOLD_ARGVS = [
    argv for name, argv in golden.read_manifest().items() if argv[:1] == ["rate-asymptotic"] and golden.recorded(name)[2] == 0
] + [["rate-asymptotic", "--honest", "0,1,2,3,4,5"]]


@pytest.mark.parametrize("argv", THRESHOLD_ARGVS, ids=" ".join)
def test_every_threshold_is_the_last_positive_float(monkeypatch, capsys, argv):
    found = []

    def recording(rate_fn):
        threshold = noise_tolerance(rate_fn)
        found.append((threshold, rate_fn))
        return threshold

    monkeypatch.setattr(cli, "noise_tolerance", recording)
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and err == ""
    header, rows = parse_csv(out)
    assert len(found) == len(header) - 1 == len(rows[-1]) - 1
    for threshold, rate_fn in found:
        assert 0.0 < threshold < 0.5
        assert rate_fn(threshold) > 0.0 >= rate_fn(math.nextafter(threshold, 1.0))


def test_bounds_report(capsys):
    rc, out, err = run(capsys, "bounds", "--rounds", "1e7")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["n"] == 10**7
    assert payload["m"] == 700_000
    assert payload["epsilon"] == 1e-36
    assert math.isclose(payload["delta"], DELTA_7E5_1E7, rel_tol=1e-12)
    assert math.isclose(payload["delta_prime"], DPRIME_7E5, rel_tol=1e-12)
    assert math.isclose(payload["failure_bound_at_delta"], 1e-72, rel_tol=1e-9)
    assert math.isclose(payload["epsilon_pa"], EPSILON_PA_1E36, rel_tol=1e-12)
    assert math.isclose(payload["epsilon_fail"], EPSILON_FAIL_1E36, rel_tol=1e-12)
    assert math.isclose(payload["smoothing"], SMOOTHING_1E36, rel_tol=1e-12)


def test_bounds_honors_epsilon_flag(capsys):
    _, strict_out, _ = run(capsys, "bounds", "--rounds", "1e6")
    _, loose_out, _ = run(capsys, "bounds", "--rounds", "1e6", "--epsilon", "1e-10")
    assert json.loads(loose_out)["delta"] < json.loads(strict_out)["delta"]


def test_bounds_at_half_split(capsys):
    rc, out, err = run(capsys, "bounds", "--rounds", "10", "--m-fraction", "0.5")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["m"] == 5
    assert math.isclose(payload["failure_bound_at_delta"], payload["epsilon"] ** 2, rel_tol=1e-9)


def test_half_split_fraction_runs_at_odd_rounds(capsys):
    # --m-fraction 0.5 takes m = n // 2 at odd n, where round(n / 2) would exceed n/2.
    rc, out, err = run(capsys, "rate-finite", "--n-min", "10", "--n-max", "100", "--per-decade", "5",
                       "--m-fraction", "0.5", "--epsilon", "1e-5")
    assert rc == 0 and err == ""
    _, rows = parse_csv(out)
    assert "63" in [row[0] for row in rows]
    rc, out, err = run(capsys, "bounds", "--rounds", "63", "--m-fraction", "0.5")
    assert rc == 0 and err == ""
    assert json.loads(out)["m"] == 31
    rc, out, err = run(capsys, "mc-verify", "--rounds", "63", "--m-fraction", "0.5", "--trials", "10")
    assert rc in (0, 2) and err == ""
    assert json.loads(out)["sample_size"] == 31


def test_simulate_report_and_determinism(capsys):
    rc, first, err = run(capsys, "simulate", "--rounds", "2e4", "--seed", "7")
    assert rc == 0 and err == ""
    rc2, second, _ = run(capsys, "simulate", "--rounds", "2e4", "--seed", "7")
    assert rc2 == 0
    assert first == second
    payload = json.loads(first)
    assert payload["rounds"] == 20_000
    assert payload["sample_size"] == 1_400
    assert payload["seed"] == 7
    assert 0.0 <= payload["qx_hat"] <= 1.0
    assert "rate" in payload["rate_from_observation"]
    rc3, third, _ = run(capsys, "simulate", "--rounds", "2e4", "--seed", "8")
    assert rc3 == 0 and third != first


def test_simulate_accepts_p_star_override(capsys, tmp_path):
    config = write_config(tmp_path, dict(THREE_REPEATERS, p_star_override=0.01))
    rc, out, _ = run(capsys, "simulate", "--config", config, "--rounds", "1e4", "--seed", "1")
    assert rc == 0
    assert json.loads(out)["p_star"] == 0.01


def test_simulate_at_a_trillion_rounds(capsys):
    rc, out, err = run(capsys, "simulate", "--rounds", "1e12", "--seed", "3")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["rounds"] == 10**12
    qx, m = payload["qx_analytic"], payload["sample_size"]
    assert abs(payload["qx_hat"] - qx) <= 6 * math.sqrt(qx * (1 - qx) / m)


@pytest.mark.parametrize("rounds", ["inf", "1e400", "nan"])
def test_non_finite_round_count_is_a_one_line_error(capsys, rounds):
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--rounds", rounds])
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert "--rounds" in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv,lo,hi", [
    (["--n-max", "99999999999"], 10**5, 99_999_999_999),
    (["--n-min", "10", "--per-decade", "66"], 10, 10**12),
])
def test_round_grid_stays_within_its_ends(capsys, argv, lo, hi):
    # The float exponent steps past --n-max: the last point rounds to 1e11 and 1e12 + 1.
    rc, out, err = run(capsys, "rate-finite", "--sweep", "N", *argv)
    assert rc == 0 and err == ""
    rounds = [int(row[0]) for row in parse_csv(out)[1]]
    assert rounds[0] == lo and rounds[-1] == hi
    assert rounds == sorted(set(rounds))


def test_mc_verify_passes_on_honest_chain(capsys):
    rc, out, err = run(capsys, "mc-verify", "--rounds", "1000", "--trials", "300", "--seed", "5")
    assert rc == 0 and err == ""
    payload = json.loads(out)
    assert payload["sampling_ok"] and payload["hoeffding_ok"]
    assert payload["trials"] == 300
    assert payload["epsilon"] == 0.05  # scan default, not the key-rate epsilon


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_suite_passes(capsys, seed):
    rc, out, err = run(capsys, "verify", "--seed", str(seed))
    assert rc == 0 and err == ""
    *checks, summary = out.strip().splitlines()
    names = [line.split(":")[0].split()[1] for line in checks]
    assert len(set(names)) == len(names) == 17
    assert all(line.startswith("PASS ") for line in checks)
    assert summary == "17/17 checks passed"


def test_verify_fault_injection_is_caught(capsys):
    rc, out, _ = run(capsys, "verify", "--inject-fault", "convolve")
    assert rc == 2
    failed = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert len(failed) == 1 and failed[0].startswith("FAIL oracle_equivalence:")
    assert out.endswith("16/17 checks passed\n")


def test_unknown_fault_is_refused_by_verify(capsys):
    # verify.run_all owns the list of faults; the parser passes any name through to it.
    rc, out, err = run(capsys, "verify", "--inject-fault", "bogus")
    assert (rc, out, err) == (1, "", "chainrate: error: unknown fault 'bogus'\n")


@pytest.mark.parametrize("argv", [
    ["noise"],
    ["rate-finite", "--sweep", "N"],
    ["rate-finite", "--sweep", "qx"],
    ["rate-asymptotic"],
], ids=["noise", "rate-finite-N", "rate-finite-qx", "rate-asymptotic"])
def test_honest_count_without_room_is_refused_by_chain_spec(capsys, monkeypatch, argv):
    monkeypatch.setattr(cli, "_emit", lambda text, out: pytest.fail("a row was printed"))
    config = str(Path(__file__).parent / "golden" / "three_repeaters.json")
    rc, out, err = run(capsys, *argv, "--config", config, "--honest", "4", "--steps", "2")
    assert (rc, out, err) == (1, "", "chainrate: error: honest counts 2+2 exceed 3 stations\n")


@pytest.mark.parametrize("command", ["simulate", "mc-verify", "verify"])
def test_negative_seed_names_the_flag(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--seed", "-1"])
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"chainrate {command}: error: argument --seed: expected a non-negative integer, got '-1'\n"


def test_out_writes_file_instead_of_stdout(capsys, tmp_path):
    target = tmp_path / "table.csv"
    rc, out, _ = run(capsys, "noise", "--steps", "2", "--q-max", "0.05", "--out", str(target))
    assert rc == 0
    assert out == ""
    header, rows = parse_csv(target.read_text())
    assert header[0] == "q" and len(rows) == 2


@pytest.mark.parametrize("argv", [
    ["noise", "--steps", "2"],
    ["bounds"],
    ["verify"],
], ids=["csv", "json", "verify"])
@pytest.mark.parametrize("target, reason", [
    ("missing/out.txt", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing-dir", "directory"])
def test_unwritable_out_is_a_one_line_error(capsys, monkeypatch, tmp_path, argv, target, reason):
    # The full suite takes seconds; one stub check reaches the same write.
    monkeypatch.setattr(verify, "run_all", lambda **_: [verify.CheckResult("stub", True, "")])
    path = str(tmp_path / target)
    rc, out, err = run(capsys, *argv, "--out", path)
    assert rc == 1 and out == ""
    assert err == f"chainrate: error: cannot write {path}: {reason}\n"


def test_verify_without_numpy_is_a_one_line_error(capsys, monkeypatch):
    # Unload verify so that the command imports it again, with numpy made unimportable.
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.delitem(sys.modules, "chainrate.verify")
    monkeypatch.delattr(chainrate, "verify")
    rc, out, err = run(capsys, "verify")
    assert rc == 1 and out == ""
    assert err == "chainrate: error: verify needs numpy, which cannot be imported\n"


def test_verify_lets_any_other_import_error_propagate(capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "chainrate.verify", None)
    monkeypatch.delattr(chainrate, "verify")
    with pytest.raises(ModuleNotFoundError) as raised:
        main(["verify"])
    assert raised.value.name == "chainrate.verify"


def without_blas_threads(monkeypatch):
    """Remove OPENBLAS_NUM_THREADS for this test; teardown restores the value it had, or its absence."""
    # delenv of an absent name records nothing to restore, so setenv first.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "unset")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")


def run_entry(capsys, monkeypatch, *argv):
    monkeypatch.setattr(sys, "argv", ["chainrate", *argv])
    with pytest.raises(SystemExit) as exited:
        cli.entry()
    capsys.readouterr()
    return exited.value.code


def test_entry_runs_blas_on_one_thread_unless_the_variable_is_set(capsys, monkeypatch):
    without_blas_threads(monkeypatch)
    assert run_entry(capsys, monkeypatch, "bounds", "--rounds", "1e7") == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    assert run_entry(capsys, monkeypatch, "bounds", "--rounds", "1e7") == 0
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_main_leaves_the_environment_alone(capsys, monkeypatch):
    without_blas_threads(monkeypatch)
    before = dict(os.environ)
    assert run(capsys, "bounds", "--rounds", "1e7")[0] == 0
    assert dict(os.environ) == before


def test_deeply_nested_config_is_a_one_line_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    rc, out, err = run(capsys, "noise", "--config", str(path))
    assert rc == 1 and out == ""
    assert err.startswith(f"chainrate: error: {path}") and len(err.splitlines()) == 1


def test_huge_integer_in_config_is_a_one_line_error(capsys, tmp_path):
    # A count of 4300 digits, the most JSON decoding takes, is too long for a record's message to print.
    for key, payload in [
        ("links[0].q", dict(THREE_REPEATERS, links=[{"type": "depolarizing", "q": 10**400}] * 4)),
        ("repeaters", dict(THREE_REPEATERS, repeaters=int("9" * 4300))),
    ]:
        config = write_config(tmp_path, payload)
        rc, out, err = run(capsys, "noise", "--config", config)
        assert rc == 1 and out == ""
        assert err.startswith(f"chainrate: error: {config}.{key}: ") and len(err.splitlines()) == 1


def test_usage_errors_exit_one(capsys):
    # An unknown subcommand is an argparse choices error, whose wording differs
    # between Python releases, so tests/golden/cli/cases.txt cannot pin it.
    with pytest.raises(SystemExit) as exited:
        main(["no-such-command"])
    assert exited.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1


#: The long flags each subcommand reads; it must accept no others.
FLAGS = {
    "noise": {"--config", "--out", "--q-min", "--q-max", "--steps", "--honest"},
    "rate-finite": {
        "--config", "--out", "--epsilon", "--m-fraction", "--ec-factor", "--strict-leak", "--sweep",
        "--n-min", "--n-max", "--per-decade", "--rounds", "--qx-min", "--qx-max", "--steps", "--q", "--honest",
    },
    "rate-asymptotic": {"--config", "--out", "--qx-min", "--qx-max", "--steps", "--honest"},
    "bounds": {"--out", "--epsilon", "--m-fraction", "--rounds"},
    "simulate": {"--config", "--out", "--seed", "--epsilon", "--m-fraction", "--ec-factor", "--strict-leak", "--rounds"},
    "mc-verify": {"--config", "--out", "--seed", "--epsilon", "--m-fraction", "--rounds", "--trials"},
    "verify": {"--out", "--seed", "--inject-fault"},
}


def test_each_subcommand_accepts_only_the_flags_it_reads():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert set(subparsers) == set(FLAGS)
    for command, parser in subparsers.items():
        flags = {flag for action in parser._actions for flag in action.option_strings if flag != "--help"}
        assert flags - {"-h"} == FLAGS[command], command


@pytest.mark.parametrize("argv", [
    ["rate-asymptotic", "--epsilon", "1e-3"],
    ["verify", "--config", "chain.json"],
    ["noise", "--seed", "1"],
    ["bounds", "--config", "chain.json"],
    ["mc-verify", "--ec-factor", "1.1"],
    ["rate-finite", "--seed", "1"],
])
def test_unread_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


def test_honest_list_refuses_a_non_integer(capsys):
    # Without this case only the hypothesis fuzz reaches the refusal, so tools/coverage.py's verdict hung on its draws.
    with pytest.raises(SystemExit) as exit_info:
        main(["noise", "--honest", "1,x"])
    assert exit_info.value.code == 1
    assert capsys.readouterr().err == "chainrate noise: error: argument --honest: expected comma-separated integers, got '1,x'\n"


def test_q_sets_the_round_sweep_links(capsys):
    _, out, _ = run(capsys, "rate-finite", "--q", "0.05", "--n-min", "1e7", "--n-max", "1e8", "--per-decade", "1")
    _, rows = parse_csv(out)
    chain = uniform_chain(5, 0.05, 2, 2)
    params = RateParams(n=10**7, m=700_000, epsilon=1e-36, p_star=noise_parameter(chain))
    assert float(rows[0][5]) == pytest.approx(finite_rate(observed_qx(chain), params).rate, rel=1e-10)


def test_non_finite_json_is_a_one_line_error(capsys, monkeypatch):
    monkeypatch.setattr(montecarlo, "simulate_e91", lambda spec, params, seed: {"rate": float("-inf")})
    rc, out, err = run(capsys, "simulate", "--rounds", "1e4")
    assert rc == 1 and out == ""
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("sweep_argv", [
    ["--sweep", "N", "--n-min", "1e5", "--n-max", "1e6"],
    ["--sweep", "qx", "--steps", "3"],
], ids=["N", "qx"])
def test_each_row_validates_its_p_star(capsys, monkeypatch, sweep_argv):
    # Every row's RateParams goes through its constructor, so an out-of-range p* never reaches a rate.
    monkeypatch.setattr(cli, "noise_parameter", lambda spec: 0.5)
    monkeypatch.setattr(cli, "finite_rate", lambda qx, params: pytest.fail(f"finite_rate got {params}"))
    rc, out, err = run(capsys, "rate-finite", *sweep_argv)
    assert rc == 1 and out == ""
    assert err == "chainrate: error: honest-zone parameter must be in [0, 0.5), got 0.5\n"


def test_one_function_chooses_the_rated_chain():
    # Links, honest split and p* override are decided in _rated_chain; every other part of cli only calls it.
    deciding = {"uniform_chain", "strength_for_observed_qx", "noise_parameter", "ChainSpec", "p_star_override"}
    users = {}
    for node in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body:
        used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        used |= {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}
        if used & deciding:
            users[getattr(node, "name", f"line {node.lineno}")] = used & deciding
    assert users == {"_rated_chain": deciding}


@pytest.mark.parametrize("n_max,shown", [("1e300", "1e+300"), ("1000000000001", "1000000000001")])
def test_n_max_above_max_rounds_is_refused_before_any_row(capsys, monkeypatch, n_max, shown):
    monkeypatch.setattr(cli, "finite_rate", lambda qx, params: pytest.fail(f"finite_rate got {params}"))
    rc, out, err = run(capsys, "rate-finite", "--n-max", n_max, "--per-decade", "1")
    assert rc == 1 and out == ""
    assert err == f"chainrate: error: --n-max must be at most 1000000000000, got {shown}\n"


def test_tables_are_capped_at_max_rows(capsys, monkeypatch):
    monkeypatch.setattr(cli, "MAX_ROWS", 5)
    assert run(capsys, "noise", "--steps", "5")[0] == 0
    assert run(capsys, "rate-asymptotic", "--steps", "6")[0] == 1
    assert run(capsys, "rate-finite", "--sweep", "qx", "--steps", "6")[0] == 1
    # 10^5..10^6 at 4 per decade is 5 rows; at 5 per decade, 6.
    assert run(capsys, "rate-finite", "--n-min", "1e5", "--n-max", "1e6", "--per-decade", "4")[0] == 0
    rc, out, err = run(capsys, "rate-finite", "--n-min", "1e5", "--n-max", "1e6", "--per-decade", "5")
    assert rc == 1 and out == "" and "rows" in err
