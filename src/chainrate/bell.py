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
    def point(cls) -> "BellDiagonal":
        """Deterministic distribution on symbol 0, the convolution identity."""
        return cls((1.0, 0.0, 0.0, 0.0))


def convolve(p: BellDiagonal, q: BellDiagonal) -> BellDiagonal:
    """XOR-convolution: out(s) = sum_a p(a) * q(s ^ a).

    Models one ideal swap of two noisy links: the end-to-end symbol is the sum
    of the per-link symbols, so its law is the convolution over the group.
    """
    pp, qp = p.probs, q.probs
    out = [0.0, 0.0, 0.0, 0.0]
    for s in range(4):
        acc = 0.0
        for a in range(4):
            acc += pp[a] * qp[s ^ a]
        out[s] = acc
    return BellDiagonal(tuple(out))


def fold_convolve(dists: Iterable[BellDiagonal]) -> BellDiagonal:
    """Convolution of any number of distributions; empty input gives the identity."""
    return reduce(convolve, dists, BellDiagonal.point())


def phase_error_prob(p: BellDiagonal) -> float:
    """Probability that the phase coordinate is 1."""
    return p.probs[1] + p.probs[3]


def bit_error_prob(p: BellDiagonal) -> float:
    """Probability that the bit coordinate is 1."""
    return p.probs[2] + p.probs[3]
