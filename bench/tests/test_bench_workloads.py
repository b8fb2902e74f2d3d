"""Workload generation: deterministic per seed, and every argv is valid CLI input."""

import json

import pytest

import workloads
from chainrate.cli import build_parser
from chainrate.config import parse_chain_config
from workloads import CliOp, LibraryEval, LibraryThreshold

SEEDS = range(1, 21)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name):
    first, second = workloads.build(name, 7), workloads.build(name, 7)
    assert first.ops == second.ops
    assert first.files == second.files


@pytest.mark.parametrize("name", ["analytic-cli", "montecarlo-cli", "library-sweep"])
def test_other_seed_other_inputs(name):
    assert workloads.build(name, 1).ops != workloads.build(name, 2).ops


@pytest.mark.parametrize("name", ["analytic-cli", "montecarlo-cli", "verify-cli"])
def test_every_argv_passes_the_cli_parser(name):
    parser = build_parser()
    for seed in SEEDS:
        wl = workloads.build(name, seed)
        for op in wl.ops:
            assert isinstance(op, CliOp)
            parser.parse_args(list(op.argv))  # exits on invalid input
        for text in wl.files.values():
            parse_chain_config(json.loads(text))


def test_analytic_runs_the_readme_commands_verbatim():
    argvs = [op.argv for op in workloads.build("analytic-cli", 3).ops]
    assert argvs[: len(workloads.README_COMMANDS)] == list(workloads.README_COMMANDS)
    assert not any("--config" in argv for argv in argvs)


def test_verify_keeps_the_default_seed():
    for seed in SEEDS:
        argvs = sorted(op.argv for op in workloads.build("verify-cli", seed).ops)
        assert argvs == [("verify",), ("verify", "--inject-fault", "convolve")]


def test_montecarlo_cost_does_not_depend_on_the_seed():
    sizes = set()
    for seed in SEEDS:
        ops = workloads.build("montecarlo-cli", seed).ops
        assert ops[-1 - len(workloads.MC_VERIFY_SIZES)] == ops[2]  # the repeated (config, seed)
        sizes.add(workloads.mc_trials_total(ops))
        top = ops[len(workloads.SIMULATE_EXPONENTS)]
        assert top.argv[top.argv.index("--rounds") + 1] == str(workloads.SIMULATE_TOP_ROUNDS)
    assert len(sizes) == 1


def test_library_sweep_shape():
    ops = workloads.build("library-sweep", 5).ops
    evals = [op for op in ops if isinstance(op, LibraryEval)]
    thresholds = [op for op in ops if isinstance(op, LibraryThreshold)]
    assert len(evals) == workloads.LIBRARY_CHAINS * workloads.LIBRARY_TRIPLES_PER_CHAIN
    assert len(thresholds) == workloads.LIBRARY_THRESHOLDS
    for op in evals:
        assert 1 <= op.m and 2 * op.m <= op.n and 0.0 < op.epsilon < 1.0
        assert len(op.chain["links"]) == op.chain["repeaters"] + 1
    for op in thresholds:
        assert op.honest_left + op.honest_right <= op.repeaters
