"""Two-bit symbol algebra for entanglement-swapped links.

A symbol is an index ``s`` in 0..3 packing two bits: the bit-flip coordinate
``bt = s >> 1`` and the phase-flip coordinate ``ph = s & 1``. Symbols add
coordinate-wise modulo 2, which on the index is ``a ^ b``, so the four symbols
form the Klein group. Distributions over the symbols compose under
XOR-convolution, which is exactly how link noise folds together when a chain
of entangled pairs is swapped end to end.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from typing import Iterable

# Distributions must sum to 1 within this tolerance; entries must be >= 0.
NORMALIZATION_TOL = 1e-12


class BellDiagonal(namedtuple("BellDiagonal", "probs")):
    """Probability distribution over the four symbols: ``probs[s]`` is the weight of symbol ``s``."""

    __slots__ = ()

    def __new__(cls, probs: tuple[float, float, float, float]) -> "BellDiagonal":
        if not isinstance(probs, tuple):
            probs = tuple(float(p) for p in probs)
        if len(probs) != 4:
            raise ValueError(f"expected 4 probabilities, got {len(probs)}")
        for p in probs:
            if not (p >= 0.0):  # also rejects NaN
                raise ValueError(f"probabilities must be >= 0, got {p!r}")
        total = sum(probs)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"probabilities must sum to 1 within {NORMALIZATION_TOL}, got {total!r}")
        return super().__new__(cls, probs)

    @classmethod
    def _make(cls, iterable) -> "BellDiagonal":
        """Build through the constructor, so ``_replace`` checks its fields too."""
        return cls(*iterable)

    @classmethod
    def point(cls) -> "BellDiagonal":
        """Deterministic distribution on symbol 0, the convolution identity."""
        return cls((1.0, 0.0, 0.0, 0.0))


def convolve(p: BellDiagonal, q: BellDiagonal) -> BellDiagonal:
    """XOR-convolution: out(s) = sum_a p(a) * q(s ^ a).

    Models one ideal swap of two noisy links: the end-to-end symbol is the sum
    of the per-link symbols, so its law is the convolution over the group.
    Each entry is ``0.0`` plus its four products in the order of ``for a in range(4)``:
    the float operations of ``acc += p(a) * q(s ^ a)``, so bit-identical to that loop.
    """
    (p0, p1, p2, p3), (q0, q1, q2, q3) = p.probs, q.probs
    return BellDiagonal((
        0.0 + p0 * q0 + p1 * q1 + p2 * q2 + p3 * q3,
        0.0 + p0 * q1 + p1 * q0 + p2 * q3 + p3 * q2,
        0.0 + p0 * q2 + p1 * q3 + p2 * q0 + p3 * q1,
        0.0 + p0 * q3 + p1 * q2 + p2 * q1 + p3 * q0,
    ))


def fold_convolve(dists: Iterable[BellDiagonal]) -> BellDiagonal:
    """Convolution of any number of distributions: none gives the identity, one comes back as it is.

    Starting from the first instead of ``point()`` is exact: ``0.0 + 1.0 * d + 0.0 * ...`` is ``d`` for finite ``d >= 0`` except ``-0.0``.
    """
    rest = iter(dists)
    return reduce(convolve, rest, next(rest, None) or BellDiagonal.point())


def phase_error_prob(p: BellDiagonal) -> float:
    """Probability that the phase coordinate is 1."""
    return p.probs[1] + p.probs[3]


def bit_error_prob(p: BellDiagonal) -> float:
    """Probability that the bit coordinate is 1."""
    return p.probs[2] + p.probs[3]
