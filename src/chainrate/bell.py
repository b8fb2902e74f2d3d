"""Two-bit symbol algebra for entanglement-swapped links.

A symbol is an index ``s`` in 0..3 packing two bits: the bit-flip coordinate
``bt = s >> 1`` and the phase-flip coordinate ``ph = s & 1``. Symbols add
coordinate-wise modulo 2, which on the index is ``a ^ b``, so the four symbols
form the Klein group. Distributions over the symbols compose under
XOR-convolution, which is exactly how link noise folds together when a chain
of entangled pairs is swapped end to end. ``convolve(*dists)`` folds a whole
chain in one call and builds one record for the result.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

# Entries must be >= 0 and sum to 1 within this tolerance, added in index order as 0.0 + p0 + p1 + p2 + p3 on every Python.
NORMALIZATION_TOL = 1e-12
#: Entry types that are not probabilities, although float() reads '1', b'1' and True all as 1.0.
_NOT_NUMBERS = (bool, str, bytes, bytearray)


def _make_checked(cls, iterable):
    """Build through the constructor, so ``_replace`` checks its fields too."""
    return cls(*iterable)


class BellDiagonal(namedtuple("BellDiagonal", "probs")):
    """Probability distribution over the four symbols: ``probs[s]`` is the weight of symbol ``s``."""

    __slots__ = ()

    def __new__(cls, probs: Iterable[float]) -> "BellDiagonal":
        entries = (probs,) if isinstance(probs, _NOT_NUMBERS) else tuple(probs)
        for p in entries:
            if isinstance(p, _NOT_NUMBERS):
                raise TypeError(f"probabilities must be numbers, not {type(p).__name__}")
        try:
            probs = tuple(map(float, entries))
        except OverflowError as exc:  # an int past the float range; printing it could pass the digit limit
            raise ValueError(f"probabilities must lie in the float range: {exc}") from None
        if len(probs) != 4:
            raise ValueError(f"expected 4 probabilities, got {len(probs)}")
        return _checked(cls, probs)

    _make = classmethod(_make_checked)

    @staticmethod
    def point() -> "BellDiagonal":
        """Deterministic distribution on symbol 0, the convolution identity (one shared record)."""
        return _POINT


def _checked(cls: type, probs: tuple) -> BellDiagonal:
    """Check a 4-tuple as a distribution and wrap it without re-entering the constructor."""
    p0, p1, p2, p3 = probs
    if not (p0 >= 0.0 and p1 >= 0.0 and p2 >= 0.0 and p3 >= 0.0):  # also rejects NaN
        bad = next(p for p in probs if not (p >= 0.0))
        raise ValueError(f"probabilities must be >= 0, got {bad!r}")
    total = 0.0 + p0 + p1 + p2 + p3
    if abs(total - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"probabilities must sum to 1 within {NORMALIZATION_TOL}, got {total!r}")
    return tuple.__new__(cls, (probs,))


_POINT = BellDiagonal((1.0, 0.0, 0.0, 0.0))


def convolve(*dists: BellDiagonal) -> BellDiagonal:
    """XOR-convolution of the dists, left to right: out(s) = sum_a p(a) * q(s ^ a) at each step.

    Models ideal swaps of noisy links: the end-to-end symbol is the sum of the per-link symbols. None gives
    ``point()``, one comes back as it is (exact: ``0.0 + 1.0 * d + 0.0 * ...`` is ``d`` for finite d >= 0 but -0.0).
    Each step adds ``0.0`` and its four products as ``acc += p(a) * q(s ^ a)`` does for ``a in range(4)``, so it is
    bit-identical to that loop, and passes ``_checked``'s test, so a fold raises where a pairwise fold would.
    """
    if len(dists) < 2:
        return dists[0] if dists else _POINT
    p0, p1, p2, p3 = dists[0].probs
    for q in dists[1:]:
        q0, q1, q2, q3 = q.probs
        p0, p1, p2, p3 = (
            0.0 + p0 * q0 + p1 * q1 + p2 * q2 + p3 * q3,
            0.0 + p0 * q1 + p1 * q0 + p2 * q3 + p3 * q2,
            0.0 + p0 * q2 + p1 * q3 + p2 * q0 + p3 * q1,
            0.0 + p0 * q3 + p1 * q2 + p2 * q1 + p3 * q0,
        )
        if not (p0 >= 0.0 and p1 >= 0.0 and p2 >= 0.0 and p3 >= 0.0 and abs(0.0 + p0 + p1 + p2 + p3 - 1.0) <= NORMALIZATION_TOL):
            _checked(BellDiagonal, (p0, p1, p2, p3))  # raises with the record's message
    return tuple.__new__(BellDiagonal, ((p0, p1, p2, p3),))


def phase_error_prob(p: BellDiagonal) -> float:
    """Probability that the phase coordinate is 1."""
    return p.probs[1] + p.probs[3]


def bit_error_prob(p: BellDiagonal) -> float:
    """Probability that the bit coordinate is 1."""
    return p.probs[2] + p.probs[3]
