"""Symbol algebra: group laws, distributions, XOR-convolution."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainrate.bell import (
    IDENTITY_SYMBOL,
    SYMBOLS,
    BellDiagonal,
    BellSymbol,
    bit_error_prob,
    convolve,
    fold_convolve,
    phase_error_prob,
    symbol_add,
)

indices = st.integers(min_value=0, max_value=3)
UNIFORM = BellDiagonal((0.25, 0.25, 0.25, 0.25))


def dist_strategy():
    """Arbitrary normalized distribution over the four symbols."""
    return st.lists(
        st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
        min_size=4,
        max_size=4,
    ).map(lambda raw: BellDiagonal(tuple(v / sum(raw) for v in raw)))


def test_symbol_index_roundtrip():
    for i in range(4):
        assert SYMBOLS[i].index == i
    assert IDENTITY_SYMBOL == BellSymbol(0, 0)


def test_symbol_index_layout():
    # index = (bt << 1) | ph
    assert BellSymbol(0, 1).index == 1
    assert BellSymbol(1, 0).index == 2
    assert BellSymbol(1, 1).index == 3


@pytest.mark.parametrize("bt,ph", [(2, 0), (0, -1), (1, 2)])
def test_symbol_rejects_non_bits(bt, ph):
    with pytest.raises(ValueError):
        BellSymbol(bt, ph)


@given(indices, indices)
def test_symbol_add_is_xor(a, b):
    assert symbol_add(SYMBOLS[a], SYMBOLS[b]).index == a ^ b


@given(indices, indices, indices)
def test_symbol_group_laws(a, b, c):
    x, y, z = SYMBOLS[a], SYMBOLS[b], SYMBOLS[c]
    assert symbol_add(x, y) == symbol_add(y, x)
    assert symbol_add(symbol_add(x, y), z) == symbol_add(x, symbol_add(y, z))
    assert symbol_add(x, x) == IDENTITY_SYMBOL
    assert symbol_add(x, IDENTITY_SYMBOL) == x


@pytest.mark.parametrize(
    "probs",
    [
        (0.5, 0.5, 0.0),  # wrong arity
        (0.5, 0.5, 0.5, 0.5),  # sum 2
        (-0.1, 0.4, 0.4, 0.3),  # negative
        (float("nan"), 0.4, 0.3, 0.3),
    ],
)
def test_distribution_validation(probs):
    with pytest.raises(ValueError):
        BellDiagonal(probs)


def test_point_and_uniform():
    point = BellDiagonal.point()
    assert point.probs == (1.0, 0.0, 0.0, 0.0)
    shifted = BellDiagonal.point(BellSymbol(1, 1))
    assert shifted.prob(BellSymbol(1, 1)) == 1.0
    assert all(UNIFORM.prob(s) == 0.25 for s in SYMBOLS)


@given(dist_strategy())
def test_point_is_convolution_identity(p):
    assert convolve(p, BellDiagonal.point()) == p
    left = convolve(BellDiagonal.point(), p)
    for got, want in zip(left.probs, p.probs):
        assert math.isclose(got, want, rel_tol=0, abs_tol=1e-15)


@given(dist_strategy(), dist_strategy())
def test_convolve_commutes(p, q):
    a = convolve(p, q)
    b = convolve(q, p)
    for x, y in zip(a.probs, b.probs):
        assert math.isclose(x, y, rel_tol=0, abs_tol=1e-14)


@given(dist_strategy(), dist_strategy(), dist_strategy())
def test_convolve_associates(p, q, r):
    a = convolve(convolve(p, q), r)
    b = convolve(p, convolve(q, r))
    for x, y in zip(a.probs, b.probs):
        assert math.isclose(x, y, rel_tol=0, abs_tol=1e-14)


@given(dist_strategy())
def test_uniform_absorbs(p):
    out = convolve(p, UNIFORM)
    for v in out.probs:
        assert math.isclose(v, 0.25, rel_tol=0, abs_tol=1e-14)


@given(dist_strategy(), dist_strategy())
def test_convolve_matches_pair_enumeration(p, q):
    # Law of the sum of two independent symbols, summed the long way.
    out = convolve(p, q)
    for s in range(4):
        direct = sum(p.probs[a] * q.probs[b] for a in range(4) for b in range(4) if a ^ b == s)
        assert math.isclose(out.probs[s], direct, rel_tol=0, abs_tol=1e-14)


@given(dist_strategy(), dist_strategy())
def test_phase_marginal_composes_independently(p, q):
    # Phase coordinates XOR independently of the bit coordinates.
    pp, qq = phase_error_prob(p), phase_error_prob(q)
    assert math.isclose(
        phase_error_prob(convolve(p, q)),
        pp * (1 - qq) + qq * (1 - pp),
        rel_tol=0,
        abs_tol=1e-14,
    )


def test_fold_convolve_empty_is_identity():
    assert fold_convolve([]) == BellDiagonal.point()


def test_fold_convolve_single():
    d = BellDiagonal((0.7, 0.1, 0.1, 0.1))
    assert fold_convolve([d]) == d


def test_error_prob_readout():
    d = BellDiagonal((0.4, 0.3, 0.2, 0.1))
    assert phase_error_prob(d) == 0.3 + 0.1
    assert bit_error_prob(d) == 0.2 + 0.1
