"""Self-verification suite: independent oracles checked against the fast paths.

Each check pits a literal computation from :mod:`chainrate.dm_oracle` or
:mod:`chainrate.literal` (explicit density matrices, exhaustive enumeration,
direct sampling) against the fast paths and returns a named pass/fail result.
The CLI's ``verify`` subcommand runs the whole list at its ``--seed``; the
acceptance tests call individual checks with their own seeds; no check takes
a size.

``run_all`` accepts ``inject_fault='convolve'`` as a negative control: it
swaps a corrupted convolution into the oracle-equivalence check, which must
then fail, proving the oracle actually constrains the implementation.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import bell, dm_oracle, keyrate, literal, montecarlo, noise, sampling
from .bell import BellDiagonal
from .config import default_chain_config
from .noise import ChainSpec, depolarizing_dist

#: Frozen references, computed once with 50-digit arithmetic; tools/references.py
#: regenerates them.
BB84_ASYMPTOTIC_THRESHOLD = 0.11002786443835955
EPSILON_PA_1E36 = 5.0396841995794927e-12
EPSILON_FAIL_1E36 = 2.5198420997897463e-12

#: The preset chain, which the sampling and simulation checks run on.
_PRESET = default_chain_config().spec
#: Unequal Pauli weights (end-to-end cells 1-3 ~0.12, 0.07, 0.02) expose permuted error cells.
_SKEWED = noise.ChainSpec(1, 0, 0, (BellDiagonal((0.88, 0.07, 0.04, 0.01)),) * 2)

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
#: The four entangled basis vectors, indexed by symbol, built once for the state-level checks.
_BASIS = [dm_oracle.bell_state_vector(s) for s in range(4)]


class CheckResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _gap(first: Sequence[BellDiagonal], second: Sequence[BellDiagonal]) -> float:
    """Largest entrywise |p - q| over the paired records of ``first`` and ``second``."""
    return max(abs(p - q) for a, b in zip(first, second) for p, q in zip(a.probs, b.probs))


def _words(seed: int, n: int) -> dict[str, list[int]]:
    """The subset checks' two n-bit words: half ones, and one seeded draw at the preset's observed rate."""
    sampled = np.random.default_rng(seed).random(n) < noise.observed_qx(_PRESET)
    return {"balanced": [1] * (n // 2) + [0] * (n - n // 2), "chain_sampled": sampled.astype(int).tolist()}


def check_states_orthonormal() -> CheckResult:
    """The four entangled basis vectors are orthonormal."""
    worst = max(abs(complex(u.conj() @ v) - float(a == b)) for a, u in enumerate(_BASIS) for b, v in enumerate(_BASIS))
    return CheckResult("states_orthonormal", worst <= 1e-12, f"max deviation {worst:.3e}")


def check_swap_identity() -> CheckResult:
    """Measuring the middle pair of two pure labelled states: four equal branches,
    each collapsing the outer pair to the label sum plus the outcome."""
    worst_prob = 0.0
    worst_fidelity = 1.0
    for a, vec_a in enumerate(_BASIS):
        for b, vec_b in enumerate(_BASIS):
            rho = np.kron(np.outer(vec_a, vec_a.conj()), np.outer(vec_b, vec_b.conj()))
            weights, posts = dm_oracle.bell_swap(rho, (1, 2))
            worst_prob = max(worst_prob, float(np.abs(weights - 0.25).max()))
            for x in range(4):
                target = _BASIS[a ^ b ^ x]
                fidelity = float((target.conj() @ posts[x] @ target).real)
                worst_fidelity = min(worst_fidelity, fidelity)
    ok = worst_prob <= 1e-10 and worst_fidelity >= 1.0 - 1e-10
    return CheckResult(
        "swap_identity",
        ok,
        f"max |prob - 1/4| {worst_prob:.3e}, min fidelity {worst_fidelity:.12f}",
    )


def check_pauli_correction() -> CheckResult:
    """The announced-outcome correction restores the label on either qubit."""
    labels = [(s, x) for s in range(4) for x in range(4)]
    shifted = np.array([_BASIS[s ^ x] for s, x in labels])
    targets = np.array([_BASIS[s] for s, _ in labels])
    states = np.einsum("ki,kj->kij", shifted, shifted.conj())
    expected = np.einsum("ki,kj->kij", targets, targets.conj())
    outcomes = [x for _, x in labels]
    worst = max(float(np.abs(dm_oracle.pauli_correct(states, outcomes, q) - expected).max()) for q in (0, 1))
    return CheckResult("pauli_correction", worst <= 1e-12, f"max deviation {worst:.3e}")


def check_oracle_equivalence(
    seed: int,
    convolve_fn: Callable[..., BellDiagonal] | None = None,
) -> CheckResult:
    """The fold every command runs, ``convolve(*links)``, equals the exact multi-qubit simulation.

    Each chain is folded in one ``convolve_fn(*links)`` call. Covers every
    single link over the whole pool, every ordered pair of the named
    distributions, the preset chain, and seeded random 2-, 3-, 4- and 6-link
    chains, 10 of each length.
    """
    fn = convolve_fn if convolve_fn is not None else bell.convolve
    rng = np.random.default_rng(seed)
    named = [BellDiagonal.point(), depolarizing_dist(0.01), depolarizing_dist(0.05), depolarizing_dist(0.3)]
    pool = named + literal.random_dists(rng, 10)
    chains: list[list[BellDiagonal]] = [[d] for d in pool]
    chains += [[a, b] for a in named for b in named]
    chains.append(list(_PRESET.links))
    for length in (2, 3, 4, 6):
        for _ in range(10):
            chains.append([pool[i] for i in rng.integers(0, len(pool), size=length)])
    worst = _gap(dm_oracle.simulate_chain_exact(chains), [fn(*links) for links in chains])
    return CheckResult(
        "oracle_equivalence",
        worst <= 1e-10,
        f"{len(chains)} chains, max entrywise deviation {worst:.3e}",
    )


def check_swap_order(seed: int) -> CheckResult:
    """Station measurement order does not change the end-to-end distribution:
    6-link chains swapped left to right and in a seeded permutation."""
    rng = np.random.default_rng(seed)
    chains = [
        [depolarizing_dist(0.05)] * 6,
        [depolarizing_dist(0.01), BellDiagonal.point(), depolarizing_dist(0.3)] * 2,
    ]
    chains += [literal.random_dists(rng, 6) for _ in range(4)]
    orders = [range(1, 6)] * len(chains) + [rng.permutation(range(1, 6)).tolist() for _ in chains]
    exact = dm_oracle.simulate_chain_exact(chains * 2, orders)
    worst = _gap(exact[: len(chains)], exact[len(chains):])
    return CheckResult("swap_order", worst <= 1e-10, f"max deviation {worst:.3e}")


def check_depolarizing_decomposition() -> CheckResult:
    """One-sided depolarizing of a perfect pair decomposes to (1-3q/4, q/4, q/4, q/4)."""
    rho_perfect = np.outer(_BASIS[0], _BASIS[0].conj())
    qs = (0.0, 0.01, 0.05, 0.3, 0.5, 1.0)
    mixed = np.array([(1.0 - q) * rho_perfect + (q / 4.0) * np.eye(4, dtype=complex) for q in qs])
    worst = _gap(dm_oracle.dm_to_bell_diagonal(mixed), [depolarizing_dist(q) for q in qs])
    return CheckResult("depolarizing_decomposition", worst <= 1e-12, f"max deviation {worst:.3e}")


def check_chain_noise_closed_form() -> CheckResult:
    """Identical-link chains: enumeration, the folded distribution, and the
    closed form (1 - (1-q)**L)/2 all agree on the end-to-end phase rate."""
    worst = 0.0
    worst_pair = 0.0
    for q in (0.0, 0.01, 0.03, 0.1, 0.5, 1.0):
        links = [depolarizing_dist(q)] * 6
        closed = (1.0 - (1.0 - q) ** 6) / 2.0
        enumerated = literal.enumerate_phase_parity(links)
        folded = bell.phase_error_prob(bell.convolve(*links))
        worst = max(worst, abs(enumerated - closed), abs(folded - closed))
        worst_pair = max(worst_pair, abs(enumerated - folded))
    ok = worst <= 1e-12 and worst_pair <= 1e-12
    return CheckResult("chain_noise_closed_form", ok, f"max deviation {worst:.3e}")


def check_noise_parameter_routes(seed: int) -> CheckResult:
    """The honest-zone double sum equals the two-marginal parity formula, and
    enumeration over honest links confirms both on small chains. On the preset
    and the first 10 seeded chains with an honest link, the density-matrix oracle
    swaps the honest-left links followed by the honest-right links: the end-to-end
    phase is the XOR of the two segments' phases, so its phase error equals p*."""
    chains = 100
    rng = np.random.default_rng(seed)
    worst = 0.0
    left_links, right_links = noise.honest_segments(_PRESET)
    zones = [(left_links + right_links, noise.noise_parameter(_PRESET))]
    for _ in range(chains):
        repeaters = int(rng.integers(1, 7))
        links = tuple(literal.random_dists(rng, repeaters + 1))
        honest_left = int(rng.integers(0, repeaters + 1))
        honest_right = int(rng.integers(0, repeaters - honest_left + 1))
        spec = ChainSpec(repeaters, honest_left, honest_right, links)
        double_sum = noise.noise_parameter(spec)
        left, right = noise.honest_marginals(spec)
        p_l = bell.phase_error_prob(left)
        p_r = bell.phase_error_prob(right)
        parity = p_l * (1.0 - p_r) + p_r * (1.0 - p_l)
        worst = max(worst, abs(double_sum - parity))
        left_links, right_links = noise.honest_segments(spec)
        honest_links = left_links + right_links
        worst = max(worst, abs(double_sum - literal.enumerate_phase_parity(honest_links)))
        if honest_links and len(zones) <= 10:
            zones.append((honest_links, double_sum))
    exact = dm_oracle.simulate_chain_exact([z for z, _ in zones])
    worst_oracle = max(abs(bell.phase_error_prob(e) - p) for e, (_, p) in zip(exact, zones))
    return CheckResult(
        "noise_parameter_routes",
        worst <= 1e-12 and worst_oracle <= 1e-12,
        f"{chains} chains, max deviation {worst:.3e}; "
        f"oracle on {len(zones)} honest zones, max deviation {worst_oracle:.3e}",
    )


def check_sampling_roundtrip() -> CheckResult:
    """Bound and tolerance invert each other across the working parameter grid."""
    worst = 0.0
    epsilons = np.logspace(-40, -2, 20)
    for m, n in ((70, 10**3), (700, 10**4), (7 * 10**5, 10**7)):
        for eps in epsilons:
            eps = float(eps)
            delta = sampling.deviation_for_failure(eps, m, n)
            back = sampling.sampling_failure_bound(delta, m, n)
            worst = max(worst, abs(back - eps**2) / eps**2)
            delta_prime = sampling.hoeffding_deviation(eps, m)
            mean_back = 2.0 * math.exp(-2.0 * delta_prime**2 * m)
            worst = max(worst, abs(mean_back - eps) / eps)
    return CheckResult("sampling_roundtrip", worst <= 1e-12, f"max relative error {worst:.3e}")


def check_sampling_exhaustive(seed: int) -> CheckResult:
    """Exact subset enumeration honors the analytic bound at n=20, m=10."""
    details = []
    ok = True
    deltas = (0.15, 0.3, 0.45)
    for label, bits in _words(seed, 20).items():
        for delta, exact in zip(deltas, literal.exhaustive_failure(bits, 10, deltas)):
            bound = sampling.sampling_failure_bound(delta, 10, 20)
            ok = ok and exact <= bound
            details.append(f"{label} d={delta}: {exact:.5f} <= {bound:.5f}")
    return CheckResult("sampling_exhaustive", ok, "; ".join(details))


def check_sampling_empirical(seed: int) -> CheckResult:
    """Monte Carlo subset failure stays within the bound plus sampling slack."""
    n, m, trials, delta = 1000, 50, 20_000, 0.2
    details = []
    ok = True
    for label, bits in _words(seed, n).items():
        freq = literal.empirical_failure_bits(bits, m, delta, trials, seed)
        limit = sampling.frequency_limit(sampling.sampling_failure_bound(delta, m, n), trials)
        ok = ok and freq <= limit
        details.append(f"{label}: {freq:.3e} <= {limit:.3e}")
    return CheckResult("sampling_empirical", ok, "; ".join(details))


def check_baseline_identity() -> CheckResult:
    """Zero honest stations removes the whole advantage: the asymptotic chain
    rate coincides with the asymptotic baseline, float for float, and both
    thresholds lie within 2 ulp of the frozen root."""
    qs = [i / 1000 for i in range(491)]
    exact = all(keyrate.asymptotic_rate(q, 0.0) == keyrate.bb84_asymptotic(q) for q in qs)
    ours = keyrate.noise_tolerance(lambda q: keyrate.asymptotic_rate(q, 0.0))
    baseline = keyrate.noise_tolerance(keyrate.bb84_asymptotic)
    close = all(abs(t - BB84_ASYMPTOTIC_THRESHOLD) <= 2 * math.ulp(BB84_ASYMPTOTIC_THRESHOLD) for t in (ours, baseline))
    return CheckResult(
        "baseline_identity",
        exact and close,
        f"grid exact: {exact}, thresholds {ours:.6f} vs {baseline:.6f}",
    )


def check_epsilon_ledger() -> CheckResult:
    """Ledger values at the working epsilon lie within 2 ulp of the frozen
    references and stay monotone in epsilon."""
    ledger = sampling.epsilon_ledger(1e-36)
    pairs = ((ledger.epsilon_pa, EPSILON_PA_1E36), (ledger.epsilon_fail, EPSILON_FAIL_1E36))
    rel_pa, rel_fail = (abs(x - ref) / ref for x, ref in pairs)
    grid = [sampling.epsilon_ledger(float(e)) for e in np.logspace(-40, -6, 12)]
    monotone = all(
        a.epsilon_pa <= b.epsilon_pa and a.epsilon_fail <= b.epsilon_fail and a.smoothing <= b.smoothing
        for a, b in zip(grid, grid[1:])
    )
    ok = monotone and all(abs(x - ref) <= 2 * math.ulp(ref) for x, ref in pairs)
    return CheckResult("epsilon_ledger", ok, f"rel errors {rel_pa:.2e}/{rel_fail:.2e}, monotone {monotone}")


def check_measurement_semantics() -> CheckResult:
    """Projector-level disagreement probabilities equal the symbol bits exactly:
    same-basis Z disagreement is bt, X disagreement is ph."""
    worst = 0.0
    basis_change = np.kron(_HADAMARD, _HADAMARD)
    for s, vec in enumerate(_BASIS):
        z_probs = np.abs(vec) ** 2
        worst = max(worst, abs(float(z_probs[1] + z_probs[2]) - (s >> 1)))
        x_probs = np.abs(basis_change @ vec) ** 2
        worst = max(worst, abs(float(x_probs[1] + x_probs[2]) - (s & 1)))
    return CheckResult("measurement_semantics", worst <= 1e-12, f"max deviation {worst:.3e}")


#: Chi-square with 3 degrees of freedom exceeds this with probability ~1e-4.
CHI2_3DOF_P1E4 = 21.1


def check_round_sampler(seed: int) -> CheckResult:
    """On ``_SKEWED``, sampled end-to-end symbols follow the folded distribution
    (4-sigma gate), the symbol counts the simulator draws with its pure-Python
    multinomial over that distribution (the same law as counting the symbols of
    ``sample_rounds``) agree with the numpy per-link sampler's (two-sample
    chi-square, 3 dof, gate at p = 1e-4), and a noiseless chain yields only the
    identity symbol."""
    draws = 200_000
    rng = np.random.default_rng(seed)
    symbols = montecarlo.sample_rounds(_SKEWED, draws, rng)
    expected = noise.end_to_end_dist(_SKEWED)
    sampled = [np.count_nonzero(symbols == index) for index in range(4)]
    worst_sigma = max(abs(count / draws - p) / math.sqrt(p * (1.0 - p) / draws) for p, count in zip(expected.probs, sampled))
    # Equal sample sizes: sum over cells, in cell order, of (a - b)**2 / (a + b).
    counted = montecarlo.multinomial(draws, expected.probs, random.Random(seed))
    c0, c1, c2, c3 = [(a - b) ** 2 / (a + b) for a, b in zip(sampled, counted)]
    chi2 = 0.0 + c0 + c1 + c2 + c3
    noiseless = noise.uniform_chain(2, 0.0, 1, 1)
    clean = montecarlo.sample_rounds(noiseless, 1000, np.random.default_rng(seed))
    ok = worst_sigma <= 4.0 and chi2 <= CHI2_3DOF_P1E4 and not np.any(clean)
    return CheckResult(
        "round_sampler",
        ok,
        f"worst cell deviation {worst_sigma:.2f} sigma, two-sample chi2 {chi2:.2f} (gate {CHI2_3DOF_P1E4})",
    )


def check_concentration(seed: int) -> CheckResult:
    """Quick bound-violation scan of the simulator's sampling machinery."""
    trials = 1500
    params = keyrate.RateParams(n=2000, m=140, epsilon=0.05, p_star=noise.noise_parameter(_PRESET))
    summary = montecarlo.verify_concentration(_PRESET, params, trials, seed)
    detail = (
        f"sampling {summary.sampling_violations}/{trials} (limit {summary.sampling_limit:.3e}), "
        f"mean {summary.hoeffding_violations}/{trials} (limit {summary.hoeffding_limit:.3e})"
    )
    return CheckResult("concentration", summary.ok, detail)


def check_simulation_determinism(seed: int) -> CheckResult:
    """Identical arguments reproduce identical reports."""
    params = keyrate.RateParams(n=20_000, m=1400, epsilon=1e-36, p_star=noise.noise_parameter(_PRESET))
    first = montecarlo.simulate_e91(_PRESET, params, seed)
    second = montecarlo.simulate_e91(_PRESET, params, seed)
    return CheckResult("simulation_determinism", first == second, f"qx_hat {first.qx_hat:.6f}")


def _corrupted_convolve(*dists: BellDiagonal) -> BellDiagonal:
    """The fold with its symbol-0 weight raised by 0.002 and renormalised, once per chain."""
    p0, p1, p2, p3 = bell.convolve(*dists).probs
    p0 += 0.002
    total = 0.0 + p0 + p1 + p2 + p3
    return BellDiagonal((p0 / total, p1 / total, p2 / total, p3 / total))


def run_all(seed: int, inject_fault: str | None = None) -> list[CheckResult]:
    """Run every check; ``inject_fault='convolve'`` must make the oracle check fail."""
    if inject_fault not in (None, "convolve"):
        raise ValueError(f"unknown fault {inject_fault!r}")
    convolve_fn = _corrupted_convolve if inject_fault == "convolve" else None
    return [
        check_states_orthonormal(),
        check_swap_identity(),
        check_pauli_correction(),
        check_oracle_equivalence(seed, convolve_fn=convolve_fn),
        check_swap_order(seed),
        check_depolarizing_decomposition(),
        check_chain_noise_closed_form(),
        check_noise_parameter_routes(seed),
        check_sampling_roundtrip(),
        check_sampling_exhaustive(seed),
        check_sampling_empirical(seed),
        check_baseline_identity(),
        check_epsilon_ledger(),
        check_measurement_semantics(),
        check_round_sampler(seed),
        check_concentration(seed),
        check_simulation_determinism(seed),
    ]
