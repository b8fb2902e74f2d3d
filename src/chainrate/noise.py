"""Chain noise model: per-link distributions, end-to-end noise, honest-zone parameter.

A chain has ``repeaters`` middle stations and ``repeaters + 1`` links. The
first ``honest_left`` stations (next to the left end) and the last
``honest_right`` stations (next to the right end) behave honestly; everything
between them is treated as controlled by the adversary. The honest-zone noise
parameter is the probability that the phase coordinates contributed by the two
honest segments disagree; links touching the corrupted zone are excluded from
both segments because their noise is attributed to the adversary. Each fold of
link noise is one ``bell.convolve(*links)`` call, which reads every link once.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

from .bell import BellDiagonal, _checked, _make_checked, convolve, phase_error_prob


def depolarizing_dist(q: float) -> BellDiagonal:
    """Symbol distribution of a pair sent through a depolarizing channel of strength ``q``."""
    if not (0.0 <= q <= 1.0):
        raise ValueError(f"depolarizing strength must be in [0, 1], got {q!r}")
    quarter = float(0.25 * q)
    return _checked(BellDiagonal, (float(1.0 - 0.75 * q), quarter, quarter, quarter))


class ChainSpec(namedtuple("ChainSpec", "repeaters honest_left honest_right links")):
    """A repeater chain with an honest prefix and suffix of stations.

    The counts are ``int``, not ``bool``: ``repeaters >= 1``, ``0 <= honest_left, honest_right`` and
    ``honest_left + honest_right <= repeaters``. ``links`` has one distribution per link, left to right, ``repeaters + 1`` of them.
    """

    __slots__ = ()

    def __new__(cls, repeaters: int, honest_left: int, honest_right: int, links: tuple[BellDiagonal, ...]) -> "ChainSpec":
        if not (type(repeaters) is int and type(honest_left) is int and type(honest_right) is int):  # refuses bool too
            raise TypeError(f"repeaters, honest_left and honest_right must be int, got {repeaters!r}, {honest_left!r}, {honest_right!r}")
        if repeaters < 1:
            raise ValueError(f"repeaters must be >= 1, got {repeaters}")
        if honest_left < 0 or honest_right < 0:
            raise ValueError(f"honest_left and honest_right must be >= 0, got {honest_left} and {honest_right}")
        if honest_left + honest_right > repeaters:
            raise ValueError(f"honest counts {honest_left}+{honest_right} exceed {repeaters} stations")
        links = tuple(links)
        if len(links) != repeaters + 1:
            raise ValueError(f"expected {repeaters + 1} links, got {len(links)}")
        for link in links:
            if not isinstance(link, BellDiagonal):
                raise TypeError(f"links must be BellDiagonal, got {type(link).__name__}")
        return tuple.__new__(cls, (repeaters, honest_left, honest_right, links))

    _make = classmethod(_make_checked)


def uniform_chain(repeaters: int, q: float, honest_left: int, honest_right: int) -> ChainSpec:
    """Chain with identical depolarizing links of strength ``q``."""
    return ChainSpec(repeaters, honest_left, honest_right, (depolarizing_dist(q),) * (repeaters + 1))


def end_to_end_dist(spec: ChainSpec) -> BellDiagonal:
    """Symbol distribution between the two ends after all stations swap honestly."""
    return convolve(*spec.links)


def observed_qx(spec: ChainSpec) -> float:
    """Phase-disagreement probability between the ends (the X-basis error rate)."""
    return phase_error_prob(end_to_end_dist(spec))


def honest_segments(spec: ChainSpec) -> tuple[tuple[BellDiagonal, ...], tuple[BellDiagonal, ...]]:
    """The links of the honest left and right segments: the first ``honest_left`` and the last ``honest_right``.

    The links adjacent to the corrupted zone belong to neither.
    """
    return spec.links[: spec.honest_left], spec.links[len(spec.links) - spec.honest_right :]


def honest_marginals(spec: ChainSpec) -> tuple[BellDiagonal, BellDiagonal]:
    """Symbol distributions of the two ``honest_segments``; an empty segment contributes the deterministic (0,0) symbol."""
    left, right = honest_segments(spec)
    return convolve(*left), convolve(*right)


def noise_parameter(spec: ChainSpec) -> float:
    """Probability that the honest segments' phase contributions disagree.

    The literal double sum over both honest marginals of the products with ``x ^ y`` odd, written
    out from ``0.0`` in the nested loop's (x, y) order, so the float is bit-identical to that loop's.
    """
    left, right = honest_marginals(spec)
    (l0, l1, l2, l3), (r0, r1, r2, r3) = left.probs, right.probs
    return 0.0 + l0 * r1 + l0 * r3 + l1 * r0 + l1 * r2 + l2 * r1 + l2 * r3 + l3 * r0 + l3 * r2


class NoiseReport(NamedTuple):
    """Observed phase noise between the ends of a chain plus its honest-zone parameter."""

    observed_qx: float
    p_star: float


def noise_report(spec: ChainSpec) -> NoiseReport:
    return NoiseReport(observed_qx(spec), noise_parameter(spec))


def strength_for_observed_qx(qx: float, n_links: int) -> float:
    """Invert the identical-link chain: the per-link strength giving end-to-end ``qx``.

    Only defined for qx < 1/2 (an identical-link chain can never reach 1/2).
    """
    if n_links < 1:
        raise ValueError("need at least one link")
    if not (0.0 <= qx < 0.5):
        raise ValueError(f"end-to-end phase noise must be in [0, 0.5), got {qx!r}")
    return 1.0 - (1.0 - 2.0 * qx) ** (1.0 / n_links)
