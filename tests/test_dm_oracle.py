"""Density-matrix reference path: states, swaps, corrections, chain simulation."""

import itertools
import math
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

from chainrate import dm_oracle, noise
from chainrate.bell import BellDiagonal, convolve, fold_convolve
from chainrate.config import default_chain_config, load_chain_config
from chainrate.dm_oracle import (
    MAX_LINKS,
    bell_diagonal_dm,
    bell_state_vector,
    bell_swap,
    dm_to_bell_diagonal,
    pauli_correct,
    simulate_chain_exact,
    validate_density_matrix,
)
from chainrate.verify import random_dist

GOLDEN = Path(__file__).resolve().parent / "golden"
UNIFORM = BellDiagonal((0.25, 0.25, 0.25, 0.25))


def test_diagonal_dm_eigenvalues_are_the_weights():
    dist = BellDiagonal((0.5, 0.25, 0.15, 0.1))
    rho = bell_diagonal_dm(dist)
    assert validate_density_matrix(rho) == 2
    eigs = sorted(np.linalg.eigvalsh(rho).real)
    assert np.allclose(eigs, sorted(dist.probs), atol=1e-12)


def test_validate_rejects_non_square():
    with pytest.raises(ValueError):
        validate_density_matrix(np.zeros((2, 3)))


def test_validate_rejects_bad_dimension():
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(3) / 3.0)


def test_validate_rejects_non_hermitian():
    rho = np.array([[0.5, 0.5j], [0.5j, 0.5]])
    with pytest.raises(ValueError):
        validate_density_matrix(rho)


def test_validate_rejects_wrong_trace():
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(2))


def test_validate_rejects_negative_eigenvalue():
    rho = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError):
        validate_density_matrix(rho)


def test_validate_rejects_a_nan_entry():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        validate_density_matrix(rho)


def test_validate_rejects_an_all_nan_matrix():
    with pytest.raises(ValueError, match="non-finite"):
        validate_density_matrix(np.full((4, 4), np.nan))


@pytest.mark.parametrize(
    "operation",
    [validate_density_matrix, dm_to_bell_diagonal, lambda states: pauli_correct(states, [], 0)],
    ids=["validate_density_matrix", "dm_to_bell_diagonal", "pauli_correct"],
)
def test_operations_reject_an_empty_stack(operation):
    with pytest.raises(ValueError, match=r"expected at least one matrix, got shape \(0, 4, 4\)"):
        operation(np.zeros((0, 4, 4)))


def _non_hermitian_4q():
    rho = np.kron(bell_diagonal_dm(UNIFORM), bell_diagonal_dm(UNIFORM))
    rho[0, 5] += 0.01j
    return rho


def _negative_eigenvalue_4q():
    return np.diag([-0.1] + [1.1 / 15] * 15).astype(complex)


def _nan_4q():
    rho = np.eye(16, dtype=complex) / 16.0
    rho[3, 3] = np.nan
    return rho


@pytest.mark.parametrize(
    "make_state, reason",
    [(_non_hermitian_4q, "Hermitian"), (_negative_eigenvalue_4q, "negative eigenvalue"), (_nan_4q, "non-finite")],
)
@pytest.mark.parametrize(
    "operation",
    [lambda rho: bell_swap(rho, (1, 2)), lambda rho: pauli_correct(rho[None], [0b11], 0)],
    ids=["bell_swap", "pauli_correct"],
)
def test_public_operations_reject_invalid_states(make_state, reason, operation):
    with pytest.raises(ValueError, match=reason):
        operation(make_state())


def test_swap_input_validation():
    rho = bell_diagonal_dm(UNIFORM)
    with pytest.raises(ValueError):
        bell_swap(rho, (0, 1))  # nothing would remain
    rho4 = np.kron(rho, rho)
    with pytest.raises(ValueError):
        bell_swap(rho4, (1, 1))
    with pytest.raises(ValueError):
        bell_swap(rho4, (0, 9))


def test_swap_branch_probabilities_follow_the_convolution():
    """Swapping two diagonal pairs p and q: the middle qubits are maximally
    mixed, so each outcome x has probability 1/4, and branch x leaves the
    outer pair labelled s with probability convolve(p, q)(s + x)."""
    rng = np.random.default_rng(4131)
    for _ in range(5):
        p, q = random_dist(rng), random_dist(rng)
        folded = convolve(p, q)
        weights, posts = bell_swap(np.kron(bell_diagonal_dm(p), bell_diagonal_dm(q)), (1, 2))
        assert np.max(np.abs(weights - 0.25)) < 1e-12
        for x, post in enumerate(dm_to_bell_diagonal(posts)):
            for s in range(4):
                assert abs(post.probs[s] - folded.probs[s ^ x]) < 1e-12


def test_swap_flags_zero_probability_branches_as_degenerate():
    """On |00><00| x |00><00| the middle pair is |00>: half on each phase of the
    equal-bit states, nothing on the unequal-bit ones."""
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0
    weights, posts = bell_swap(np.kron(zero, zero), (1, 2))
    assert weights.shape == (4,) and posts.shape == (4, 4, 4)
    assert (weights == 0.0).tolist() == [False, False, True, True]
    assert np.allclose(weights[:2], 0.5, atol=1e-12)
    assert np.allclose(posts[:2], zero, atol=1e-12)
    assert validate_density_matrix(posts[2:]) == 2
    assert np.array_equal(posts[2:], np.array([np.eye(4) / 4.0] * 2))


def _near_bell_state():
    """Bell weights (1 + 3.6e-10, -0.9e-10, -0.9e-10, -0.9e-10): within DM_TOL of a
    state, so validate_density_matrix accepts it, but its clipped weights sum past 1."""
    vecs = [bell_state_vector(s) for s in range(4)]
    return sum(w * np.outer(v, v.conj()) for w, v in zip([1 + 3.6e-10, -0.9e-10, -0.9e-10, -0.9e-10], vecs))


def test_dm_decomposition_rejects_weights_that_do_not_sum_to_one():
    rho = _near_bell_state()
    assert validate_density_matrix(rho) == 2
    with pytest.raises(ValueError, match="diagonal weights sum to"):
        dm_to_bell_diagonal(rho[None])


def test_swap_rejects_branch_probabilities_that_do_not_sum_to_one():
    zero = np.diag([1.0, 0.0]).astype(complex)
    rho = np.kron(zero, _near_bell_state())
    assert validate_density_matrix(rho) == 3
    with pytest.raises(ValueError, match="branch probabilities sum to"):
        bell_swap(rho, (1, 2))


@pytest.mark.parametrize("operation", [lambda stack: bell_swap(stack, (1, 2))], ids=["bell_swap"])
@pytest.mark.parametrize("n_qubits", [2, 3])
def test_single_state_operations_reject_a_stack(operation, n_qubits):
    stack = np.array([np.eye(2**n_qubits, dtype=complex) / 2**n_qubits] * 4)
    with pytest.raises(ValueError, match="^expected one .*state, got shape") as raised:
        operation(stack)
    assert "\n" not in str(raised.value)


@pytest.mark.parametrize("n_qubits", [2, 3])
def test_dm_decomposition_takes_only_a_stack_of_two_qubit_states(n_qubits):
    """A single two-qubit matrix is refused, and so is a stack of larger states."""
    rho = np.eye(2**n_qubits, dtype=complex) / 2**n_qubits
    with pytest.raises(ValueError, match="^expected a stack of two-qubit states, got shape") as raised:
        dm_to_bell_diagonal(rho if n_qubits == 2 else np.array([rho] * 4))
    assert "\n" not in str(raised.value)


def test_pauli_correction_target_range():
    rho = bell_diagonal_dm(UNIFORM)
    with pytest.raises(ValueError):
        pauli_correct(rho[None], [0b10], 2)


@pytest.mark.parametrize("outcomes", [[-1], [4], [0, 1]], ids=["negative", "too-large", "too-many"])
def test_pauli_correction_checks_its_outcomes(outcomes):
    """A symbol outside 0..3 or an outcome count other than the stack's is refused
    in one line, not applied as another symbol or left to numpy's indexing."""
    rho = bell_diagonal_dm(UNIFORM)
    with pytest.raises(ValueError) as raised:
        pauli_correct(rho[None], outcomes, 0)
    assert str(raised.value) == f"expected one symbol in 0..3 per state, got {outcomes} for shape (1, 4, 4)"


def test_dm_decomposition_roundtrip():
    rng = np.random.default_rng(4132)
    dists = [random_dist(rng) for _ in range(10)]
    for dist, back in zip(dists, dm_to_bell_diagonal(np.array([bell_diagonal_dm(d) for d in dists]))):
        assert np.allclose(back.probs, dist.probs, atol=1e-12)


def test_dm_decomposition_rejects_cross_terms():
    # |00><00| has weight 1/2 on two basis states plus cross terms.
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    with pytest.raises(ValueError):
        dm_to_bell_diagonal(rho[None])


def test_dm_decomposition_rejects_larger_systems():
    rho = np.kron(bell_diagonal_dm(UNIFORM), bell_diagonal_dm(UNIFORM))
    with pytest.raises(ValueError):
        dm_to_bell_diagonal(rho[None])


def _random_mixed_state(rng):
    gram = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = gram @ gram.conj().T
    return rho / np.trace(rho).real


def _join_pairs():
    rng = np.random.default_rng(4139)
    zero = np.zeros((4, 4), dtype=complex)
    zero[0, 0] = 1.0
    point = bell_diagonal_dm(BellDiagonal.point())
    pairs = [(bell_diagonal_dm(random_dist(rng)), bell_diagonal_dm(random_dist(rng))) for _ in range(5)]
    pairs += [(point, bell_diagonal_dm(random_dist(rng))), (bell_diagonal_dm(random_dist(rng)), point), (point, point)]
    pairs += [(_random_mixed_state(rng), _random_mixed_state(rng)) for _ in range(3)]
    pairs.append((zero, zero))
    return pairs


@pytest.mark.parametrize("left, right", _join_pairs())
def test_station_join_matches_the_per_branch_public_path(left, right):
    """The stacked join equals bell_swap, then pauli_correct on each branch alone,
    then the Born-weighted sum. Bell-diagonal factors leave the middle pair maximally
    mixed (four branches of 1/4, point() factors too); |00><00| x |00><00| has two
    degenerate branches."""
    weights, posts = bell_swap(np.kron(left, right), (1, 2))
    reference = sum(weights[x] * pauli_correct(posts[x][None], [x], 0)[0] for x in range(4))
    assert np.max(np.abs(dm_oracle._join(left[None], right[None])[0] - reference)) <= 1e-12


def _bad_4x4(reason):
    if reason == "non-Hermitian":
        rho = bell_diagonal_dm(UNIFORM)
        rho[0, 1] += 0.01j
    elif reason == "trace":
        rho = np.eye(4, dtype=complex) / 2.0
    elif reason == "negative eigenvalue":
        rho = np.diag([-0.1, 1.1 / 3, 1.1 / 3, 1.1 / 3]).astype(complex)
    else:
        rho = np.eye(4, dtype=complex) / 4.0
        rho[2, 2] = np.nan
    return rho


@pytest.mark.parametrize("position", [0, 1, 3])
@pytest.mark.parametrize("reason", ["non-Hermitian", "trace", "negative eigenvalue", "NaN"])
def test_stack_validator_names_the_one_bad_member(reason, position):
    rng = np.random.default_rng(4140)
    bad = _bad_4x4(reason)
    stack = np.array([bell_diagonal_dm(random_dist(rng)) for _ in range(4)])
    stack[position] = bad
    with pytest.raises(ValueError) as alone:
        validate_density_matrix(bad)
    with pytest.raises(ValueError) as stacked:
        validate_density_matrix(stack)
    assert str(stacked.value) == str(alone.value)


def _full_kron_reference(links, order):
    """The whole chain as one state, swapped with the public operations: the
    correction goes on the chain's leftmost qubit, and no product is assumed."""
    rho = reduce(np.kron, [bell_diagonal_dm(d) for d in links])
    labels = list(range(2 * len(links)))
    for station in order:
        i, j = labels.index(2 * station - 1), labels.index(2 * station)
        weights, posts = bell_swap(rho, (i, j))
        rho = np.einsum("x,xij->ij", weights, pauli_correct(posts, range(4), 0))
        del labels[j], labels[i]
    return rho


def _every_order(n_links, seed):
    rng = np.random.default_rng(seed)
    links = [random_dist(rng) for _ in range(n_links)]
    return [pytest.param(links, order, id=f"{n_links}links-{order}") for order in itertools.permutations(range(1, n_links))]


@pytest.mark.parametrize(
    "links, order",
    _every_order(1, 4131) + _every_order(2, 4132) + _every_order(3, 4133) + _every_order(4, 4134),
)
def test_segment_joins_match_the_full_kron_reference(links, order):
    """The segment-product premise: joining two-qubit segments gives the same
    final state, entry for entry, as swapping the full Kronecker product."""
    segment = bell_diagonal_dm(simulate_chain_exact([links], [order])[0])
    assert np.max(np.abs(_full_kron_reference(links, order) - segment)) < 1e-12


# MAX_LINKS is a time guard only: the longest chain it admits is exact too.
@pytest.mark.parametrize("n_links", [1, 2, 3, 4, MAX_LINKS])
def test_chain_simulation_matches_convolution(n_links):
    rng = np.random.default_rng([413, n_links])
    links = [random_dist(rng) for _ in range(n_links)]
    exact = simulate_chain_exact([links])[0]
    fast = fold_convolve(links)
    assert max(abs(a - b) for a, b in zip(exact.probs, fast.probs)) < 1e-10


@pytest.mark.parametrize(
    "config",
    [
        default_chain_config(),
        load_chain_config(str(GOLDEN / "noisy_chain.json")),
        load_chain_config(str(GOLDEN / "three_repeaters.json")),
    ],
    ids=["preset", "noisy_chain", "three_repeaters"],
)
def test_chain_simulation_matches_every_rated_chain(config):
    exact = simulate_chain_exact([config.spec.links])[0]
    fast = noise.end_to_end_dist(config.spec)
    assert max(abs(a - b) for a, b in zip(exact.probs, fast.probs)) < 1e-10


def test_chain_simulation_decomposes_no_product_state(monkeypatch):
    """Each station joins two 4x4 segment states through one 16x16 product, so
    in any station order only stacks of 16x16 products reach the branch
    measurement, only stacks of 4x4 states reach eigvalsh, and no product is
    larger. Each state is validated once: each of the five joins checks its two
    inputs and four post states, and the readout the final segment, so
    6L - 5 = 31 matrices reach eigvalsh per order."""
    rng = np.random.default_rng(4136)
    links = [random_dist(rng) for _ in range(6)]
    eig_dims, swap_dims = [], []
    eigvalsh, swap_branches = np.linalg.eigvalsh, dm_oracle._swap_branches

    def recording_eigvalsh(matrix, *args, **kwargs):
        eig_dims.append(np.shape(matrix))
        return eigvalsh(matrix, *args, **kwargs)

    def recording_swap_branches(states, *args):
        swap_dims.append(np.shape(states))
        return swap_branches(states, *args)

    monkeypatch.setattr(dm_oracle.np.linalg, "eigvalsh", recording_eigvalsh)
    monkeypatch.setattr(dm_oracle, "_swap_branches", recording_swap_branches)
    fast = fold_convolve(links)
    orders = [(1, 2, 3, 4, 5), (5, 4, 3, 2, 1), (3, 1, 5, 2, 4), (2, 4, 1, 5, 3)]
    for order in orders:
        eig_dims.clear()
        exact = simulate_chain_exact([links], [order])[0]
        assert max(abs(a - b) for a, b in zip(exact.probs, fast.probs)) < 1e-10
        assert sum(math.prod(dims[:-2]) for dims in eig_dims) == 6 * len(links) - 5
    assert eig_dims and {dims[-2:] for dims in eig_dims} == {(4, 4)}
    assert swap_dims and {dims[-2:] for dims in swap_dims} == {(16, 16)}
    assert sum(math.prod(dims[:-2]) for dims in swap_dims) == 5 * len(orders)


def _mixed_stack():
    """Three chains of each length 1..8, each with its own seeded station order."""
    rng = np.random.default_rng(4142)
    chains = [[random_dist(rng) for _ in range(n)] for n in range(1, 9) for _ in range(3)]
    return chains, [rng.permutation(range(1, len(links))).tolist() for links in chains]


def test_stacking_chains_changes_no_result():
    """One call on a mixed stack equals each chain simulated alone, bit for bit,
    and reversing the stack changes no member: no chain sees another's station."""
    chains, orders = _mixed_stack()
    stacked = simulate_chain_exact(chains, orders)
    alone = [simulate_chain_exact([links], [order])[0] for links, order in zip(chains, orders)]
    assert [d.probs for d in stacked] == [d.probs for d in alone]
    reversed_stack = simulate_chain_exact(chains[::-1], orders[::-1])
    assert [d.probs for d in reversed_stack[::-1]] == [d.probs for d in stacked]


def test_chain_simulation_single_link_is_identity():
    d = BellDiagonal((0.9, 0.05, 0.03, 0.02))
    out = simulate_chain_exact([[d]])[0]
    assert np.allclose(out.probs, d.probs, atol=1e-12)


def test_chain_simulation_station_order_is_irrelevant():
    rng = np.random.default_rng(4137)
    links = [random_dist(rng) for _ in range(3)]
    forward, backward = simulate_chain_exact([links, links], [(1, 2), (2, 1)])
    assert np.allclose(forward.probs, backward.probs, atol=1e-10)


def test_chain_simulation_every_order_on_five_links_matches_convolution():
    rng = np.random.default_rng(4138)
    links = [random_dist(rng) for _ in range(5)]
    fast = fold_convolve(links)
    orders = list(itertools.permutations(range(1, 5)))
    assert len(orders) == 24
    for exact in simulate_chain_exact([links] * len(orders), orders):
        assert max(abs(a - b) for a, b in zip(exact.probs, fast.probs)) < 1e-10


def test_chain_simulation_rejects_bad_order():
    links = [UNIFORM] * 3
    with pytest.raises(ValueError):
        simulate_chain_exact([links], [(1,)])
    with pytest.raises(ValueError):
        simulate_chain_exact([links], [(1, 3)])
    with pytest.raises(ValueError, match=r"^chain 1: order must permute stations \[1\], got \[2\]$"):
        simulate_chain_exact([links, links[:2]], [(1, 2), (2,)])
    with pytest.raises(ValueError, match="^expected one order per chain, got 1 for 2 chains$"):
        simulate_chain_exact([links, links], [(1, 2)])


def test_chain_simulation_link_count_limits():
    with pytest.raises(ValueError):
        simulate_chain_exact([[]])
    too_many = [UNIFORM] * (MAX_LINKS + 1)
    with pytest.raises(ValueError):
        simulate_chain_exact([too_many])
    with pytest.raises(ValueError, match=rf"^chain 2: link count must be in 1..{MAX_LINKS}, got {MAX_LINKS + 1}$"):
        simulate_chain_exact([[UNIFORM], [UNIFORM] * 2, too_many])
    assert simulate_chain_exact([]) == []
