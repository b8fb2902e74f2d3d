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

``simulate_e91`` and ``verify_concentration`` draw their binomial variates
in pure Python from a ``random.Random``, so their streams are the same on
every supported Python. ``sample_rounds`` is the literal per-link round
sampler that certifies the count path.
"""

from __future__ import annotations

import functools
import math
import random
from typing import NamedTuple, Sequence

from .bell import BellDiagonal, bit_error_prob, phase_error_prob
from .keyrate import RateParams, RateReport, finite_rate
from .noise import ChainSpec, end_to_end_dist, observed_qx
from .sampling import _deviation_for_failure, _hoeffding_deviation, frequency_limit, require_admissible, subset_deviates

_LOG_2PI = math.log(2.0 * math.pi)
_BLOCK = 2**14  # rounds per block of sample_rounds: its float64 and int64 temporaries never outgrow one block


def _stirling_error(k: int) -> float:
    """log(k!) - [(k + 1/2) log k - k + log(2 pi) / 2] for k >= 1."""
    if k <= 15:
        return math.lgamma(k + 1.0) - (k + 0.5) * math.log(k) + k - 0.5 * _LOG_2PI
    k2 = float(k) * k
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * k2)) / k2) / k2) / k2) / k


def _deviance(x: int, mean: float) -> float:
    """x log(x / mean) + mean - x, summed as a series where x is near mean."""
    if abs(x - mean) < 0.1 * (x + mean):
        v = (x - mean) / (x + mean)
        total = (x - mean) * v
        term = 2.0 * x * v
        v2 = v * v
        j = 1
        while True:
            term *= v2
            extended = total + term / (2 * j + 1)
            if extended == total:
                return total
            total = extended
            j += 1
    return x * math.log(x / mean) + mean - x


def _binomial_log_pmf(n: int, p: float, k: int) -> float:
    """log P(Binomial(n, p) = k) for 0 < p < 1 and 0 <= k <= n, unchecked: only BTRS's rejection loop calls it.

    Loader's saddle-point form (2000): Stirling remainders plus deviance
    terms, none of which is a difference of large numbers, so it keeps
    ~1e-12 absolute accuracy up to n = 1e12, where lgamma differences lose
    ~1e-3.
    """
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    mean = n * p
    return (
        _stirling_error(n) - _stirling_error(k) - _stirling_error(n - k)
        - _deviance(k, mean) - _deviance(n - k, n - mean)
        + 0.5 * (math.log(n) - _LOG_2PI - math.log(k) - math.log(n - k))
    )


def binomial(n: int, p: float, rng: random.Random) -> int:
    """One Binomial(n, p) variate, exact in law, drawn from ``rng``.

    p > 1/2 draws n - Binomial(n, 1 - p). Below that, n p < 10 uses Devroye's
    geometric method (O(n p) uniforms) and n p >= 10 Hoermann's BTRS
    transformed rejection (Hoermann 1993, about 1.2 pairs of uniforms per
    draw). Pure Python, so the stream depends only on ``rng``'s.
    """
    if type(n) is not int:  # refuses bool too; a float n would draw a variate
        raise TypeError(f"binomial needs an int n, got {n!r}")
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValueError(f"binomial needs n >= 0 and 0 <= p <= 1, got n={n}, p={p}")
    if p > 0.5:
        return n - binomial(n, 1.0 - p, rng)
    if n == 0 or p == 0.0:
        return 0
    if n * p < 10.0:
        return _binomial_geometric(n, p, rng)
    return _binomial_btrs(n, p, rng)


def _binomial_geometric(n: int, p: float, rng: random.Random) -> int:
    # The trials up to each success are i.i.d. Geometric(p): floor(log U / log(1 - p)) + 1.
    log_q = math.log1p(-p)
    successes, remaining = 0, n
    while True:
        gap = math.log(1.0 - rng.random()) / log_q
        if gap >= remaining:
            return successes
        remaining -= math.floor(gap) + 1
        successes += 1


@functools.lru_cache(maxsize=256)
def _btrs_setup(n: int, p: float) -> tuple[float, float, float, float, float, float]:
    """BTRS's constants (a, b, c, v_r, alpha) and log f(mode) of Binomial(n, p), computed once per (n, p)."""
    spq = math.sqrt(n * p * (1.0 - p))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    v_r = 0.92 - 4.2 / b
    alpha = (2.83 + 5.1 / b) * spq
    return a, b, c, v_r, alpha, _binomial_log_pmf(n, p, math.floor((n + 1) * p))


def _binomial_btrs(n: int, p: float, rng: random.Random) -> int:
    # Hoermann's BTRS for n p >= 10 and p <= 1/2; the acceptance test compares
    # with the exact log density ratio f(k) / f(mode).
    a, b, c, v_r, alpha, log_f_mode = _btrs_setup(n, p)
    while True:
        u = rng.random() - 0.5
        us = 0.5 - abs(u)
        if us == 0.0:
            continue
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = 1.0 - rng.random()
        if us >= 0.07 and v <= v_r:
            return k
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= _binomial_log_pmf(n, p, k) - log_f_mode:
            return k


def multinomial(n: int, probs: Sequence[float], rng: random.Random) -> tuple[int, ...]:
    """One Multinomial(n, probs) draw as conditional binomials over the cells in order.

    Cell i takes Binomial(left, probs[i] / mass) of the ``left`` trials not yet
    placed, with ``mass`` the probability not yet assigned and the ratio
    clamped to [0, 1]; the last cell takes the remainder. So the cells are
    >= 0 and sum to ``n`` however the ratios round. The weights must pass
    ``BellDiagonal``'s rule: four cells, each >= 0, summing to 1.
    """
    probs = BellDiagonal(probs).probs
    counts = []
    left, mass = n, 1.0
    for prob in probs[:-1]:
        share = min(max(prob / mass, 0.0), 1.0) if mass > 0.0 else 1.0
        drawn = binomial(left, share, rng)
        counts.append(drawn)
        left -= drawn
        mass -= prob
    counts.append(left)
    return tuple(counts)


class MCReport(NamedTuple):
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


def sample_rounds(spec: ChainSpec, rounds: int, rng: "np.random.Generator") -> "np.ndarray":
    """Draw ``rounds`` end-to-end symbol indices: one draw per link, XOR-folded.

    Each link is drawn ``_BLOCK`` rounds at a time, so ``rng`` yields the doubles of one ``rng.random(rounds)`` per
    link and only the uint8 output, one byte per round, grows with ``rounds``.
    """
    import numpy as np
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    folded = np.zeros(rounds, dtype=np.uint8)
    for link in spec.links:
        cdf = np.cumsum(np.asarray(link.probs, dtype=float))
        cdf[-1] = 1.0  # guard against cumulative rounding at the top
        for block in (folded[start:start + _BLOCK] for start in range(0, rounds, _BLOCK)):
            block ^= np.searchsorted(cdf, rng.random(block.size), side="right").astype(np.uint8)
    return folded


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
    weights. Identical arguments reproduce the report bit for bit, on every
    supported Python. Only a ``RateParams`` is taken: it has admitted its
    (n, m, epsilon).
    """
    if not isinstance(params, RateParams):
        raise TypeError(f"simulate_e91 needs RateParams, got {type(params).__name__}")
    rng = random.Random(seed)
    n, m = params.n, params.m
    dist = end_to_end_dist(spec)
    test = multinomial(m, dist.probs, rng)
    hidden = multinomial(n - m, dist.probs, rng)

    qx_hat = (test[1] + test[3]) / m
    qz_hat = (hidden[2] + hidden[3]) / (n - m)

    delta = _deviation_for_failure(params.epsilon, m, n)
    violations = int(subset_deviates(test[1] + test[3], hidden[1] + hidden[3], m, n, delta))

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


class ConcentrationSummary(NamedTuple):
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
    honest noise flips, so each trial is four binomial draws, trial by trial
    from one ``random.Random`` seeded with ``seed``: the revealed and hidden
    weights are independent Binomial(m, qx) and Binomial(n - m, qx), and at
    rate p* Binomial(ones, p*) of the revealed ones and Binomial(m - ones, p*)
    of the revealed zeros flip. (For a fixed word the subset law is
    ``literal.empirical_failure_bits``.)

    The subset check compares revealed and hidden weights against the
    subset-sampling tolerance; the mean check compares the flipped revealed
    mean with its expectation against the i.i.d. tolerance. Frequencies must
    stay within bound plus three binomial standard deviations. Only a
    ``RateParams`` is taken: it has admitted its (n, m, epsilon).
    """
    if not isinstance(params, RateParams):
        raise TypeError(f"verify_concentration needs RateParams, got {type(params).__name__}")
    require_admissible(trials=trials)
    n, m, epsilon, p_star = params.n, params.m, params.epsilon, params.p_star
    delta = _deviation_for_failure(epsilon, m, n)
    delta_prime = _hoeffding_deviation(epsilon, m)

    rng = random.Random(seed)
    qx = observed_qx(spec)
    sampling_violations = hoeffding_violations = 0
    for _ in range(trials):
        ones = binomial(m, qx, rng)
        rest_ones = binomial(n - m, qx, rng)
        sampling_violations += subset_deviates(ones, rest_ones, m, n, delta)
        w_sample = ones / m
        flipped_ones = ones - binomial(ones, p_star, rng) + binomial(m - ones, p_star, rng)
        expected = w_sample * (1.0 - p_star) + (1.0 - w_sample) * p_star
        hoeffding_violations += abs(flipped_ones / m - expected) > delta_prime

    sampling_bound = epsilon**2
    hoeffding_bound = epsilon
    sampling_limit = frequency_limit(sampling_bound, trials)
    hoeffding_limit = frequency_limit(hoeffding_bound, trials)
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
