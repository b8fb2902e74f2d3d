"""Seeded Monte Carlo of the entanglement-based protocol.

Rounds are i.i.d.: each carries the XOR of one symbol per link, so its
end-to-end symbol follows the folded distribution. Measurement statistics
follow from the exact two-qubit picture (certified against the
density-matrix reference by ``verify.check_measurement_semantics``): on a
round carrying symbol ``s``, Z-basis outcomes disagree iff its bit-flip bit
``s >> 1`` is set and X-basis outcomes iff its phase bit ``s & 1`` is set, so
disagreement frequencies are bit means.

Every statistic the simulations read is a count: how many test or hidden
rounds carry each symbol, how many revealed phase bits are set, how many of
them an honest station flips. Because rounds are i.i.d. and the test subset
is uniform and independent of them, those counts have closed-form laws
(multinomial, binomial), and drawing the counts directly is exact in
distribution and costs O(1) per run or trial instead of O(rounds).
``sample_rounds`` keeps the literal per-link round sampler as the oracle
that certifies the count path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import BellDiagonal, bit_error_prob, phase_error_prob
from .keyrate import RateParams, RateReport, finite_rate
from .noise import ChainSpec, end_to_end_dist, observed_qx
from .sampling import deviation_for_failure, hoeffding_deviation, require_admissible


@dataclass(frozen=True)
class MCReport:
    """Observed statistics of one simulated run plus the rate they imply."""

    rounds: int
    sample_size: int
    seed: int
    qx_hat: float
    qz_hat: float
    qx_analytic: float
    qz_analytic: float
    p_star: float
    sampling_violations: int
    rate_from_observation: RateReport


def _cumulative(dist: BellDiagonal) -> np.ndarray:
    cdf = np.cumsum(np.asarray(dist.probs, dtype=float))
    cdf[-1] = 1.0  # guard against cumulative rounding at the top
    return cdf


def sample_rounds(spec: ChainSpec, rounds: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``rounds`` end-to-end symbol indices: one draw per link, XOR-folded."""
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    folded = np.zeros(rounds, dtype=np.uint8)
    for link in spec.links:
        draws = np.searchsorted(_cumulative(link), rng.random(rounds), side="right")
        folded ^= draws.astype(np.uint8)
    return folded


def symbol_counts(spec: ChainSpec, rounds: int, rng: np.random.Generator) -> np.ndarray:
    """How many of ``rounds`` i.i.d. rounds carry each end-to-end symbol, by index.

    One multinomial draw: the same law as ``np.bincount`` of
    ``sample_rounds(spec, rounds, rng)``, without materializing the rounds.
    """
    return rng.multinomial(rounds, end_to_end_dist(spec).probs)


def simulate_e91(spec: ChainSpec, params: RateParams, seed: int) -> MCReport:
    """Simulate one run: reveal a uniformly random test subset, rate the rest.

    The run has ``params.n`` rounds, ``params.m`` of them revealed, and is
    rated with ``params`` at the observed phase-error fraction. The test
    rounds are ``m`` i.i.d. rounds and the hidden rounds ``n - m`` more,
    independent of them, so the run is drawn as two symbol-count vectors,
    Multinomial(m, end_to_end) then Multinomial(n - m, end_to_end).
    qx_hat is the test rounds' phase-error fraction (symbols with ph = 1,
    index & 1), qz_hat the hidden rounds' bit-error fraction (bt = 1,
    index >> 1), and the subset check compares the test and hidden phase
    weights. Identical arguments reproduce the report bit for bit.
    """
    rng = np.random.default_rng(seed)
    n, m = params.n, params.m
    test = symbol_counts(spec, m, rng)
    hidden = symbol_counts(spec, n - m, rng)

    qx_hat = int(test[1] + test[3]) / m
    qz_hat = int(hidden[2] + hidden[3]) / (n - m)
    dist = end_to_end_dist(spec)

    delta = deviation_for_failure(params.epsilon, m, n)
    hidden_qx = int(hidden[1] + hidden[3]) / (n - m)
    violations = int(abs(qx_hat - hidden_qx) > delta)

    return MCReport(
        rounds=n,
        sample_size=m,
        seed=seed,
        qx_hat=qx_hat,
        qz_hat=qz_hat,
        qx_analytic=phase_error_prob(dist),
        qz_analytic=bit_error_prob(dist),
        p_star=params.p_star,
        sampling_violations=violations,
        rate_from_observation=finite_rate(qx_hat, params),
    )


@dataclass(frozen=True)
class ConcentrationSummary:
    """Violation counts for the two estimation bounds over many seeded trials."""

    trials: int
    rounds: int
    sample_size: int
    epsilon: float
    p_star: float
    delta: float
    delta_prime: float
    sampling_violations: int
    sampling_bound: float
    sampling_limit: float
    hoeffding_violations: int
    hoeffding_bound: float
    hoeffding_limit: float
    sampling_ok: bool
    hoeffding_ok: bool

    @property
    def ok(self) -> bool:
        return self.sampling_ok and self.hoeffding_ok


def verify_concentration(spec: ChainSpec, params: RateParams, trials: int, seed: int) -> ConcentrationSummary:
    """Measure how often the deviation bounds at ``params.epsilon`` are violated.

    Each trial reveals a uniformly random size-``m`` subset of an ``n``-bit
    phase word whose bits are i.i.d. with the chain's end-to-end phase-error
    rate qx. Both checked statistics depend only on how many phase bits are
    set in the revealed and hidden parts and on how many revealed bits the
    honest noise flips, so all trials are drawn at once as counts, from one
    generator seeded with ``seed``: the revealed and hidden weights are
    independent Binomial(m, qx) and Binomial(n - m, qx), and at rate p*
    Binomial(ones, p*) of the revealed ones and Binomial(m - ones, p*) of the
    revealed zeros flip. (For a fixed word the subset law is
    ``sampling.empirical_failure_bits``.)

    The subset check compares revealed and hidden weights against the
    subset-sampling tolerance; the mean check compares the flipped revealed
    mean with its expectation against the i.i.d. tolerance. Frequencies must
    stay within bound plus three binomial standard deviations.
    """
    require_admissible(trials=trials)
    n, m, epsilon, p_star = params.n, params.m, params.epsilon, params.p_star
    delta = deviation_for_failure(epsilon, m, n)
    delta_prime = hoeffding_deviation(epsilon, m)

    rng = np.random.default_rng(seed)
    qx = observed_qx(spec)
    ones = rng.binomial(m, qx, size=trials)
    rest_ones = rng.binomial(n - m, qx, size=trials)
    w_sample = ones / m
    w_rest = rest_ones / (n - m)
    sampling_violations = int(np.count_nonzero(np.abs(w_sample - w_rest) > delta))

    flipped_ones = ones - rng.binomial(ones, p_star) + rng.binomial(m - ones, p_star)
    expected = w_sample * (1.0 - p_star) + (1.0 - w_sample) * p_star
    hoeffding_violations = int(np.count_nonzero(np.abs(flipped_ones / m - expected) > delta_prime))

    def limit(bound: float) -> float:
        return bound + 3.0 * math.sqrt(bound * (1.0 - bound) / trials)

    sampling_bound = min(1.0, epsilon**2)
    hoeffding_bound = min(1.0, epsilon)
    sampling_limit = limit(sampling_bound)
    hoeffding_limit = limit(hoeffding_bound)
    return ConcentrationSummary(
        trials=trials,
        rounds=n,
        sample_size=m,
        epsilon=epsilon,
        p_star=p_star,
        delta=delta,
        delta_prime=delta_prime,
        sampling_violations=sampling_violations,
        sampling_bound=sampling_bound,
        sampling_limit=sampling_limit,
        hoeffding_violations=hoeffding_violations,
        hoeffding_bound=hoeffding_bound,
        hoeffding_limit=hoeffding_limit,
        sampling_ok=sampling_violations / trials <= sampling_limit,
        hoeffding_ok=hoeffding_violations / trials <= hoeffding_limit,
    )
