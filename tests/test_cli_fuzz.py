"""In-process fuzz of the command line: any argv ends in exit 0, 1 or 2 with
parseable output, exit 1 prints exactly one line on stderr, and a round sweep
stays within ``--n-min`` and ``--n-max``.

Flags are drawn from every subcommand's set, so each command also sees flags
it does not read. ``--out`` is a writable file, a path under a missing
directory or a directory. Magnitudes stay bounded (steps <= 200, trials <=
1e4, per-decade <= 20) so that no case can allocate or loop without limit; no
process is started. ``verify`` is left out: it takes seconds per run.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrate.cli import build_parser, main

COMMANDS = ("noise", "rate-finite", "rate-asymptotic", "bounds", "simulate", "mc-verify")
JSON_COMMANDS = ("bounds", "simulate", "mc-verify")

#: Out-of-range and malformed values, tried on every flag.
ODD = ("0", "-1", "nan", "inf", "-inf", "1e-200", "1e400", "1e13", "2.5", "x", "")


def _value(good):
    """Mostly an in-range value, sometimes an odd one."""
    return st.one_of(good, good, good, st.sampled_from(ODD))


def _number(lo, hi):
    return _value(st.floats(min_value=lo, max_value=hi).map(repr))


def _integer(lo, hi):
    return _value(st.integers(min_value=lo, max_value=hi).map(str))


def flag_values(configs, outs):
    """Every flag any subcommand reads, each with a value strategy (None: a switch)."""
    return {
        "--config": st.sampled_from(configs),
        "--out": st.sampled_from(outs),
        "--seed": _integer(0, 2**64),
        "--epsilon": _number(1e-60, 1e-3),
        "--m-fraction": _number(1e-3, 0.6),
        "--ec-factor": _number(0.5, 3.0),
        "--strict-leak": None,
        "--q-min": _number(0.0, 0.1),
        "--q-max": _number(0.05, 1.0),
        "--qx-min": _number(0.0, 0.2),
        "--qx-max": _number(0.1, 0.49),
        "--q": _number(0.0, 1.0),
        "--steps": _integer(2, 200),
        "--per-decade": _integer(1, 20),
        "--sweep": st.sampled_from(("N", "qx", "x")),
        "--n-min": _integer(10, 10**6),
        "--n-max": _integer(10**5, 10**12),
        "--rounds": _integer(2, 10**12),
        "--trials": _integer(1, 10**4),
        "--honest": _value(st.lists(st.integers(0, 5), min_size=1, max_size=4).map(lambda c: ",".join(map(str, c)))),
        "--inject-fault": st.just("convolve"),
    }


def own_flags(command):
    """The flags ``command`` reads, from its parser."""
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    return sorted(flag for a in subparsers[command]._actions for flag in a.option_strings if flag.startswith("--")
                  and flag != "--help")


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("configs")
    links = [{"type": "depolarizing", "q": 0.03}, {"type": "explicit", "probs": [0.91, 0.03, 0.03, 0.03]}]
    payloads = {
        "mixed.json": {"repeaters": 3, "honest_left": 1, "honest_right": 1, "links": links * 2},
        "override.json": {"repeaters": 1, "honest_left": 0, "honest_right": 1, "links": links, "p_star_override": 0.1},
        "broken.json": {"repeaters": 3, "links": links},
    }
    for name, payload in payloads.items():
        (directory / name).write_text(json.dumps(payload))
    return [str(directory / name) for name in payloads] + [str(directory / "missing.json")]


@pytest.fixture(scope="module")
def outs(tmp_path_factory):
    """A writable file, a path under a missing directory and a directory."""
    directory = tmp_path_factory.mktemp("out")
    return [str(directory / "out.txt"), str(directory / "missing" / "out.txt"), str(directory)]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 1), f"{argv}: SystemExit({exc.code!r})"
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _no_constants(name):
    raise ValueError(f"non-standard JSON constant {name}")


def check_output(command, stdout):
    if command in JSON_COMMANDS:
        assert isinstance(json.loads(stdout, parse_constant=_no_constants), dict)
        return
    rows = list(csv.reader(io.StringIO(stdout)))
    assert len(rows) >= 2 and all(len(row) == len(rows[0]) for row in rows)
    assert len(set(rows[0])) == len(rows[0]), rows[0]
    for row in rows[1:]:
        for cell in row:
            assert cell == "threshold" or math.isfinite(float(cell)), row


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_contract_holds_for_any_flags(configs, outs, data):
    values = flag_values(configs, outs)
    command = data.draw(st.sampled_from(COMMANDS))
    flags = data.draw(st.lists(st.sampled_from(own_flags(command)), max_size=4, unique=True))
    # Now and then one flag of any command, which may be one this command does not read.
    flags += data.draw(st.one_of(st.just([]), st.just([]), st.just([]), st.lists(st.sampled_from(sorted(values)), max_size=1)))
    argv = [command]
    out = None
    for flag in flags:
        argv.append(flag)
        if values[flag] is not None:
            argv.append(data.draw(values[flag]))
        if flag == "--out":
            out = Path(argv[-1])
    Path(outs[0]).unlink(missing_ok=True)  # so an earlier example's file cannot pass for this one's output
    code, stdout, stderr = run(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert stdout == "" and len(stderr.splitlines()) == 1, (argv, stderr)
        assert "Traceback" not in stderr
        return
    assert code == 0 or command == "mc-verify", argv
    assert stderr == "", (argv, stderr)
    if out is not None:
        assert stdout == "", argv
        stdout = out.read_text()
    check_output(command, stdout)
    args = build_parser().parse_args(argv)
    if command == "rate-finite" and args.sweep == "N":
        rounds = [int(row[0]) for row in list(csv.reader(io.StringIO(stdout)))[1:]]
        assert all(args.n_min <= n <= args.n_max for n in rounds), (argv, rounds)
