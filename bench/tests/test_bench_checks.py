"""Output checks accept the program's real output and reject altered output."""

import pytest

import checks
from chainrate.cli import main
from workloads import CliOp


def run_cli(capsys, argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("rate-finite", "--sweep", "N"),
    ("rate-finite", "--sweep", "qx", "--rounds", "2099907", "--qx-max", "0.066", "--steps", "21", "--honest", "1,2,4"),
    ("noise", "--steps", "9", "--honest", "0,3"),
    ("bounds", "--rounds", "1e7", "--epsilon", "1e-36"),
])
def test_analytic_output_passes_and_altered_output_fails(capsys, argv):
    op = CliOp(argv, "analytic")
    code, out = run_cli(capsys, argv)
    checks.check_cli(op, code, out, "")
    altered = out.replace("0.0", "0.1", 1) if "0.0" in out else out.replace("1", "2", 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_cli(op, code, altered, "")


def test_unexpected_exit_and_traceback_fail():
    op = CliOp(("bounds",), "analytic")
    with pytest.raises(checks.CheckFailed):
        checks.check_cli(op, 1, "", "chainrate: error: bad input")
    with pytest.raises(checks.CheckFailed):
        checks.check_cli(op, 0, "{}", "Traceback (most recent call last):\n  ...")


def test_verify_fault_must_fail_exactly_the_oracle_check():
    fault = CliOp(("verify", "--inject-fault", "convolve"), "verify-fault", 2)
    good = "PASS a: x\nFAIL oracle_equivalence: y\nPASS b: z\n2/3 checks passed\n"
    checks.check_cli(fault, 2, good, "")
    with pytest.raises(checks.CheckFailed):
        checks.check_cli(fault, 2, good.replace("PASS a", "FAIL a").replace("2/3", "1/3"), "")
    with pytest.raises(checks.CheckFailed):
        checks.check_cli(CliOp(("verify",), "verify"), 0, good, "")


def test_mc_verify_exit_must_agree_with_its_report():
    op = CliOp(("mc-verify", "--rounds", "2000", "--trials", "10"), "mc-verify", None)
    report = '{"trials": 10, "rounds": 2000, "sampling_ok": true, "hoeffding_ok": false}'
    assert checks.check_cli(op, 2, report, "")["hoeffding_ok"] is False
    with pytest.raises(checks.CheckFailed):
        checks.check_cli(op, 0, report, "")


def test_readme_library_example_reproduces():
    checks.check_readme_library()
