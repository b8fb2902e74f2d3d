"""Self-verification suite: individual checks pass, and the negative control trips."""

import itertools

import numpy as np
import pytest

from chainrate import sampling, verify
from chainrate.bell import BellDiagonal, fold_convolve
from chainrate.literal import enumerate_phase_parity, random_dists
from chainrate.noise import depolarizing_dist
from chainrate.verify import (
    _corrupted_convolve,
    check_baseline_identity,
    check_depolarizing_decomposition,
    check_epsilon_ledger,
    check_measurement_semantics,
    check_oracle_equivalence,
    check_pauli_correction,
    check_states_orthonormal,
    check_swap_identity,
    run_all,
)


def test_enumeration_matches_convolution():
    dists = [depolarizing_dist(0.1), depolarizing_dist(0.2), BellDiagonal((0.25, 0.25, 0.25, 0.25))]
    folded = fold_convolve(dists)
    assert abs(enumerate_phase_parity(dists) - (folded.probs[1] + folded.probs[3])) < 1e-14


def test_enumeration_single_link():
    d = depolarizing_dist(0.08)
    assert abs(enumerate_phase_parity([d]) - 0.04) < 1e-15


def _nested_loop_phase_parity(dists):
    """The per-link loop enumerate_phase_parity replaced, kept as its float-for-float reference."""
    total = 0.0
    for combo in itertools.product(range(4), repeat=len(dists)):
        parity = 0
        weight = 1.0
        for dist, index in zip(dists, combo):
            parity ^= index & 1
            weight *= dist.probs[index]
        if parity:
            total += weight
    return total


def test_enumeration_is_float_identical_to_the_nested_loop():
    rng = np.random.default_rng(29)
    for n_links in range(8):
        for _ in range(3):
            dists = random_dists(rng, n_links)
            assert enumerate_phase_parity(dists) == _nested_loop_phase_parity(dists)


def test_run_all_decomposes_nothing_above_16x16(monkeypatch):
    dims = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(matrix, *args, **kwargs):
        dims.append(np.shape(matrix)[-1])
        return eigvalsh(matrix, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    results = run_all(0)
    assert len(results) == 17 and all(r.ok for r in results)
    assert dims and max(dims) <= 16


def test_run_all_rejects_an_unknown_fault_before_any_check(monkeypatch):
    ran = []
    for name in dir(verify):
        if name.startswith("check_"):
            monkeypatch.setattr(verify, name, lambda *args, _name=name, **kwargs: ran.append(_name))
    with pytest.raises(ValueError, match="unknown fault 'bogus'"):
        run_all(0, inject_fault="bogus")
    assert ran == []
    assert len(run_all(0)) == len(ran) == 17


def test_random_dist_is_normalized():
    for d in random_dists(np.random.default_rng(3), 20):
        assert abs(sum(d.probs) - 1.0) < 1e-12
        assert min(d.probs) >= 0.0


def test_random_dists_draw_equals_single_draws():
    # verify's seeded output depends on this: a chain drawn at once equals its links drawn in turn.
    for seed, k in itertools.product(range(10), (1, 2, 3, 5, 7, 10)):
        at_once, in_turn = np.random.default_rng(seed), np.random.default_rng(seed)
        assert random_dists(at_once, k) == [d for _ in range(k) for d in random_dists(in_turn, 1)]
        assert at_once.bit_generator.state == in_turn.bit_generator.state


def test_individual_fast_checks():
    assert check_states_orthonormal().ok
    assert check_swap_identity().ok
    assert check_pauli_correction().ok
    assert check_measurement_semantics().ok
    assert check_depolarizing_decomposition().ok
    assert check_epsilon_ledger().ok
    assert check_baseline_identity().ok


def test_epsilon_ledger_refuses_the_bare_power_cube_root(monkeypatch):
    # The bare power lands ~10 ulp from the frozen ledger at epsilon 1e-36: within a relative 1e-12, outside 2 ulp.
    monkeypatch.setattr(sampling, "_cube_root", lambda x: x ** (1.0 / 3.0))
    assert not check_epsilon_ledger().ok


def test_oracle_equivalence_accepts_custom_fold():
    corrupted = check_oracle_equivalence(seed=11, convolve_fn=_corrupted_convolve)
    assert not corrupted.ok
    honest = check_oracle_equivalence(seed=11)
    assert honest.ok
