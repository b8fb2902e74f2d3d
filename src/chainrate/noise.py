"""Chain noise model: per-link distributions, end-to-end noise, honest-zone parameter.

A chain has ``repeaters`` middle stations and ``repeaters + 1`` links. The
first ``honest_left`` stations (next to the left end) and the last
``honest_right`` stations (next to the right end) behave honestly; everything
between them is treated as controlled by the adversary. The honest-zone noise
parameter is the probability that the phase coordinates contributed by the two
honest segments disagree; links touching the corrupted zone are excluded from
both segments because their noise is attributed to the adversary.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple, Sequence

from .bell import BellDiagonal, bit_error_prob, fold_convolve, phase_error_prob


def depolarizing_dist(q: float) -> BellDiagonal:
    """Symbol distribution of a pair sent through a depolarizing channel of strength ``q``."""
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"depolarizing strength must be in [0, 1], got {q!r}")
    return BellDiagonal((1.0 - 0.75 * q, 0.25 * q, 0.25 * q, 0.25 * q))


class ChainSpec(namedtuple("ChainSpec", "repeaters honest_left honest_right links")):
    """A repeater chain with an honest prefix and suffix of stations.

    ``links`` has one distribution per link, left to right, length
    ``repeaters + 1``. ``honest_left + honest_right <= repeaters``.
    """

    __slots__ = ()

    def __new__(cls, repeaters: int, honest_left: int, honest_right: int, links: tuple[BellDiagonal, ...]) -> "ChainSpec":
        if repeaters < 1:
            raise ValueError(f"need at least one station, got {repeaters}")
        if honest_left < 0 or honest_right < 0:
            raise ValueError("honest station counts must be >= 0")
        if honest_left + honest_right > repeaters:
            raise ValueError(f"honest counts {honest_left}+{honest_right} exceed {repeaters} stations")
        if not isinstance(links, tuple):
            links = tuple(links)
        if len(links) != repeaters + 1:
            raise ValueError(f"expected {repeaters + 1} links, got {len(links)}")
        for link in links:
            if not isinstance(link, BellDiagonal):
                raise TypeError(f"links must be BellDiagonal, got {type(link).__name__}")
        return super().__new__(cls, repeaters, honest_left, honest_right, links)

    @classmethod
    def _make(cls, iterable) -> "ChainSpec":
        """Build through the constructor, so ``_replace`` checks its fields too."""
        return cls(*iterable)


def uniform_chain(repeaters: int, q: float, honest_left: int, honest_right: int) -> ChainSpec:
    """Chain with identical depolarizing links of strength ``q``."""
    return ChainSpec(repeaters, honest_left, honest_right, (depolarizing_dist(q),) * (repeaters + 1))


def balanced_honest_chain(links: Sequence[BellDiagonal], honest_total: int) -> ChainSpec:
    """Chain over ``links`` with ``honest_total`` honest stations split evenly.

    The left end gets the extra station when the count is odd. For identical
    links the honest-zone parameter depends only on the total count, so there
    the split is a presentation choice.
    """
    left = (honest_total + 1) // 2
    return ChainSpec(len(links) - 1, left, honest_total - left, tuple(links))


def end_to_end_dist(spec: ChainSpec) -> BellDiagonal:
    """Symbol distribution between the two ends after all stations swap honestly."""
    return fold_convolve(spec.links)


def observed_qx(spec: ChainSpec) -> float:
    """Phase-disagreement probability between the ends (the X-basis error rate)."""
    return phase_error_prob(end_to_end_dist(spec))


def honest_marginals(spec: ChainSpec) -> tuple[BellDiagonal, BellDiagonal]:
    """Symbol distributions contributed by the honest left and right segments.

    The left segment folds the first ``honest_left`` links, the right segment
    the last ``honest_right``; the links adjacent to the corrupted zone belong
    to neither. An empty segment contributes the deterministic (0,0) symbol.
    """
    left = fold_convolve(spec.links[: spec.honest_left])
    right = fold_convolve(spec.links[len(spec.links) - spec.honest_right :])
    return left, right


def noise_parameter(spec: ChainSpec) -> float:
    """Probability that the honest segments' phase contributions disagree.

    The literal double sum over both honest marginals of the products with ``x ^ y`` odd, written
    out from ``0.0`` in the nested loop's (x, y) order, so the float is bit-identical to that loop's.
    """
    left, right = honest_marginals(spec)
    (l0, l1, l2, l3), (r0, r1, r2, r3) = left.probs, right.probs
    return 0.0 + l0 * r1 + l0 * r3 + l1 * r0 + l1 * r2 + l2 * r1 + l2 * r3 + l3 * r0 + l3 * r2


def resolve_p_star(spec: ChainSpec, override: float | None) -> float:
    """The honest-zone parameter a rate is credited with: ``override`` when set, else computed."""
    return noise_parameter(spec) if override is None else override


class NoiseReport(NamedTuple):
    """End-to-end noise figures of a chain plus its honest-zone parameter."""

    end_to_end: BellDiagonal
    observed_qx: float
    observed_qz: float
    p_star: float
    p_left: float
    p_right: float


def noise_report(spec: ChainSpec) -> NoiseReport:
    dist = end_to_end_dist(spec)
    left, right = honest_marginals(spec)
    return NoiseReport(
        end_to_end=dist,
        observed_qx=phase_error_prob(dist),
        observed_qz=bit_error_prob(dist),
        p_star=noise_parameter(spec),
        p_left=phase_error_prob(left),
        p_right=phase_error_prob(right),
    )


def strength_for_observed_qx(qx: float, n_links: int) -> float:
    """Invert the identical-link chain: the per-link strength giving end-to-end ``qx``.

    Only defined for qx < 1/2 (an identical-link chain can never reach 1/2).
    """
    if n_links < 1:
        raise ValueError("need at least one link")
    if not (0.0 <= qx < 0.5):
        raise ValueError(f"end-to-end phase noise must be in [0, 0.5), got {qx!r}")
    return 1.0 - (1.0 - 2.0 * qx) ** (1.0 / n_links)
