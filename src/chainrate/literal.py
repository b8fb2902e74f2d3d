"""Literal estimators that certify the fast paths, beside :mod:`chainrate.dm_oracle`.

From the fast-path modules they take only ``BellDiagonal``, the (n, m, ε) rule
and the deviation event. numpy is imported only inside ``empirical_failure_bits``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from collections.abc import Iterable
from typing import Sequence

from .bell import BellDiagonal
from .sampling import _require_deviation, require_admissible, subset_deviates

# Guard for exhaustive subset enumeration.
MAX_EXHAUSTIVE_SUBSETS = 5_000_000


def enumerate_phase_parity(dists: Sequence[BellDiagonal]) -> float:
    """Probability of odd total phase over independent per-link symbols.

    Exhaustive sum over all 4**L symbol tuples; shares nothing with the
    convolution code path. The weights and phase parities of the first L - 1
    links' tuples are built as prefix products in lexicographic order; each
    prefix then takes the last link's four symbols in turn. So every weight is
    the same left-to-right product of its L probabilities, no list holds more
    than 4**(L-1) entries, and the odd tuples are added one by one in
    lexicographic order (never with ``sum``, whose compensated summation from
    Python 3.12 on would change the bits).
    """
    if not dists:
        return 0.0
    weights, odd = [1.0], [0]
    for dist in dists[:-1]:
        weights = [w * p for w in weights for p in dist.probs]
        odd = [parity ^ bit for parity in odd for bit in (0, 1, 0, 1)]
    p0, p1, p2, p3 = dists[-1].probs
    total = 0.0
    for weight, parity in zip(weights, odd):
        if parity:
            total += weight * p0
            total += weight * p2
        else:
            total += weight * p1
            total += weight * p3
    return total


def random_dists(rng: "np.random.Generator", k: int) -> list[BellDiagonal]:
    """``k`` random distributions over the four symbols (flat Dirichlet), from one draw of ``k`` rows.

    The rows equal ``k`` single draws in turn and leave ``rng`` in the same state.
    """
    dists = []
    for row in rng.dirichlet((1.0, 1.0, 1.0, 1.0), size=k):
        total = float(row.sum())
        dists.append(BellDiagonal(tuple(float(v) / total for v in row)))
    return dists


def _as_bits(word: Iterable[int]) -> list[int]:
    bits = list(word)
    if not bits or any(isinstance(bit, Iterable) for bit in bits):
        raise ValueError("expected a nonempty one-dimensional bit sequence")
    if any(bit not in (0, 1) for bit in bits):
        raise ValueError("bits must be 0 or 1")
    return [int(bit) for bit in bits]


def empirical_failure_bits(
    bits: Sequence[int],
    m: int,
    delta: float,
    trials: int,
    seed: int,
) -> float:
    """Monte Carlo frequency of |w(sample) - w(rest)| > delta over uniform subsets.

    Operates on a fixed binary word of weight K. The test depends on a subset
    only through how many ones it holds, which is Hypergeometric(K, n - K, m)
    for a uniform size-``m`` subset drawn without replacement, so all trials
    are one hypergeometric draw from a generator seeded with ``seed``;
    results are reproducible.
    """
    import numpy as np
    bits = _as_bits(bits)
    n = len(bits)
    require_admissible(m=m, n=n, trials=trials)
    _require_deviation(delta)
    total_ones = sum(bits)
    ones_in_sample = np.random.default_rng(seed).hypergeometric(total_ones, n - total_ones, m, size=trials)
    return int(np.count_nonzero(subset_deviates(ones_in_sample, total_ones - ones_in_sample, m, n, delta))) / trials


def exhaustive_failure(word: Sequence[int], m: int, deltas: Sequence[float]) -> tuple[float, ...]:
    """Exact failure probability for each tolerance in ``deltas``, by enumerating every size-``m`` subset.

    A size-``m`` subset is exactly one pair of a ``j``-subset of the left
    ``n // 2`` positions and an ``(m - j)``-subset of the rest, and holds the
    sum of their ones. So each half's subsets are enumerated once, position by
    position, and the histogram of ones per sample adds up the pairs' counts.
    No binomial coefficient enters and positions are never grouped by bit
    value, so the histogram stays an independent check of the hypergeometric
    count C(K, k) * C(n - K, m - k). Every tolerance's failures are then
    counted off it. Only feasible for tiny words; refuses more than
    MAX_EXHAUSTIVE_SUBSETS subsets.
    """
    bits = _as_bits(word)
    n = len(bits)
    require_admissible(m=m, n=n)
    for delta in deltas:
        _require_deviation(delta)
    n_subsets = math.comb(n, m)
    if n_subsets > MAX_EXHAUSTIVE_SUBSETS:
        raise ValueError(f"{n_subsets} subsets exceed the enumeration guard")
    total_ones = sum(bits)
    left, right = bits[: n // 2], bits[n // 2:]
    histogram: Counter[int] = Counter()
    for j in range(max(0, m - len(right)), min(m, len(left)) + 1):
        right_counts = Counter(map(sum, itertools.combinations(right, m - j)))
        for a, left_subsets in Counter(map(sum, itertools.combinations(left, j))).items():
            for b, right_subsets in right_counts.items():
                histogram[a + b] += left_subsets * right_subsets
    fractions = []
    for delta in deltas:
        failures = sum(
            subsets for ones, subsets in histogram.items() if subset_deviates(ones, total_ones - ones, m, n, delta)
        )
        fractions.append(failures / n_subsets)
    return tuple(fractions)
