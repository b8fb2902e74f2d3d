"""Density-matrix reference path: states, swaps, corrections, chain simulation."""

import itertools
from functools import reduce

import numpy as np
import pytest

from chainrate import dm_oracle
from chainrate.bell import BellDiagonal, convolve, fold_convolve
from chainrate.dm_oracle import (
    MAX_LINKS,
    bell_diagonal_dm,
    bell_swap,
    dm_to_bell_diagonal,
    pauli_correct,
    simulate_chain_exact,
    validate_density_matrix,
)
from chainrate.verify import random_dist

RNG = np.random.default_rng(413)
UNIFORM = BellDiagonal((0.25, 0.25, 0.25, 0.25))
#: Link states whose Kronecker product the product-certificate tests perturb.
PRODUCT_DISTS = [
    BellDiagonal((0.7, 0.1, 0.15, 0.05)),
    BellDiagonal((0.4, 0.3, 0.2, 0.1)),
    BellDiagonal((0.55, 0.05, 0.25, 0.15)),
]


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
    [lambda rho: bell_swap(rho, (1, 2)), lambda rho: pauli_correct(rho, 0b11, 0)],
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
    for _ in range(5):
        p, q = random_dist(RNG), random_dist(RNG)
        folded = convolve(p, q)
        for br in bell_swap(np.kron(bell_diagonal_dm(p), bell_diagonal_dm(q)), (1, 2)):
            assert abs(br.probability - 0.25) < 1e-12
            post = dm_to_bell_diagonal(br.post_state)
            for s in range(4):
                assert abs(post.probs[s] - folded.probs[s ^ br.outcome]) < 1e-12


def test_pauli_correction_target_range():
    rho = bell_diagonal_dm(UNIFORM)
    with pytest.raises(ValueError):
        pauli_correct(rho, 0b10, 2)


def test_dm_decomposition_roundtrip():
    for _ in range(10):
        dist = random_dist(RNG)
        back = dm_to_bell_diagonal(bell_diagonal_dm(dist))
        assert np.allclose(back.probs, dist.probs, atol=1e-12)


def test_dm_decomposition_rejects_cross_terms():
    # |00><00| has weight 1/2 on two basis states plus cross terms.
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    with pytest.raises(ValueError):
        dm_to_bell_diagonal(rho)


def test_dm_decomposition_rejects_larger_systems():
    rho = np.kron(bell_diagonal_dm(UNIFORM), bell_diagonal_dm(UNIFORM))
    with pytest.raises(ValueError):
        dm_to_bell_diagonal(rho)


@pytest.mark.parametrize("n_links", [1, 2, 3, 4])
def test_chain_simulation_matches_convolution(n_links):
    links = [random_dist(RNG) for _ in range(n_links)]
    exact = simulate_chain_exact(links)
    fast = fold_convolve(links)
    assert max(abs(a - b) for a, b in zip(exact.probs, fast.probs)) < 1e-10


def test_chain_simulation_decomposes_no_product_state(monkeypatch):
    """The initial product is certified through its 4x4 factors, the first
    swap's 6-qubit branches through their 4x4 marginals and the averaged states
    by convexity, so in every station order only the 4-qubit branches of later
    swaps and smaller states reach eigvalsh."""
    links = [random_dist(RNG) for _ in range(MAX_LINKS)]
    factors = [bell_diagonal_dm(d) for d in links]
    assert validate_density_matrix(reduce(np.kron, factors)) == 2 * MAX_LINKS
    dims = []
    eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(matrix, *args, **kwargs):
        dims.append(np.shape(matrix)[0])
        return eigvalsh(matrix, *args, **kwargs)

    monkeypatch.setattr(dm_oracle.np.linalg, "eigvalsh", recording_eigvalsh)
    fast = fold_convolve(links)
    for order in itertools.permutations(range(1, MAX_LINKS)):
        exact = simulate_chain_exact(links, order=order)
        assert max(abs(a - b) for a, b in zip(exact.probs, fast.probs)) < 1e-10
    assert dims and max(dims) <= 16


def test_chain_simulation_single_link_is_identity():
    d = BellDiagonal((0.9, 0.05, 0.03, 0.02))
    out = simulate_chain_exact([d])
    assert np.allclose(out.probs, d.probs, atol=1e-12)


def test_chain_simulation_station_order_is_irrelevant():
    links = [random_dist(RNG) for _ in range(3)]
    forward = simulate_chain_exact(links, order=(1, 2))
    backward = simulate_chain_exact(links, order=(2, 1))
    assert np.allclose(forward.probs, backward.probs, atol=1e-10)


def test_chain_simulation_every_order_on_max_links_matches_convolution():
    """Swapping any station but 1 first leaves an averaged state that mixes
    products, which only the convexity certificate covers."""
    links = [random_dist(RNG) for _ in range(MAX_LINKS)]
    fast = fold_convolve(links)
    orders = list(itertools.permutations(range(1, MAX_LINKS)))
    assert len(orders) == 6
    for order in orders:
        exact = simulate_chain_exact(links, order=order)
        assert max(abs(a - b) for a, b in zip(exact.probs, fast.probs)) < 1e-10


def _three_factor_product(dists):
    return reduce(np.kron, [bell_diagonal_dm(d) for d in dists])


def test_product_certificate_accepts_a_product():
    assert dm_oracle._validate_product(_three_factor_product(PRODUCT_DISTS)) == 6
    for _ in range(5):
        assert dm_oracle._validate_product(_three_factor_product([random_dist(RNG) for _ in range(3)])) == 6


def test_product_certificate_rejects_a_correlated_state():
    other = [BellDiagonal((0.1, 0.2, 0.3, 0.4))] * 3
    mixture = (_three_factor_product(PRODUCT_DISTS) + _three_factor_product(other)) / 2.0
    assert validate_density_matrix(mixture) == 6
    with pytest.raises(ValueError, match="not a product"):
        dm_oracle._validate_product(mixture)


def test_product_certificate_rejects_a_perturbed_product():
    rho = _three_factor_product(PRODUCT_DISTS)
    rho[0, 0] += 0.05
    rho[63, 63] -= 0.05
    assert np.linalg.eigvalsh(rho).min() < -0.01
    with pytest.raises(ValueError, match="negative eigenvalue"):
        validate_density_matrix(rho)
    with pytest.raises(ValueError, match="not a product"):
        dm_oracle._validate_product(rho)


def test_product_certificate_scales_its_tolerance_with_dimension():
    # A coherence far below DM_TOL, yet above DM_TOL / dim: spectral validation
    # would pass it, the product certificate must not.
    rng = np.random.default_rng(16)
    rho = _three_factor_product([random_dist(rng) for _ in range(3)])
    rho[0, 1] += 1e-11
    rho[1, 0] += 1e-11
    tensor = rho.reshape((4,) * 6)
    marginals = [np.einsum(spec, tensor) for spec in ("abcdbc->ad", "abcaec->be", "abcabf->cf")]
    deviation = np.max(np.abs(rho - reduce(np.kron, marginals)))
    assert dm_oracle.DM_TOL / 64 < deviation < dm_oracle.DM_TOL
    with pytest.raises(ValueError, match="not a product"):
        dm_oracle._validate_product(rho)


def test_chain_simulation_rejects_bad_order():
    links = [UNIFORM] * 3
    with pytest.raises(ValueError):
        simulate_chain_exact(links, order=(1,))
    with pytest.raises(ValueError):
        simulate_chain_exact(links, order=(1, 3))


def test_chain_simulation_link_count_limits():
    with pytest.raises(ValueError):
        simulate_chain_exact([])
    too_many = [UNIFORM] * (MAX_LINKS + 1)
    with pytest.raises(ValueError):
        simulate_chain_exact(too_many)
