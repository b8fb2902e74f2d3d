"""Symbol algebra: distributions, XOR-convolution."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainrate.bell import BellDiagonal, bit_error_prob, convolve, fold_convolve, phase_error_prob

UNIFORM = BellDiagonal((0.25, 0.25, 0.25, 0.25))


def dist_strategy():
    """Arbitrary normalized distribution over the four symbols."""
    return st.lists(
        st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
        min_size=4,
        max_size=4,
    ).map(lambda raw: BellDiagonal(tuple(v / sum(raw) for v in raw)))


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
    with pytest.raises(ValueError):
        BellDiagonal(list(probs))


def test_make_and_replace_go_through_the_constructor():
    with pytest.raises(ValueError, match="expected 4 probabilities, got 3"):
        BellDiagonal((1, 0, 0, 0))._replace(probs=(2.0, -1.0, 0.0))
    with pytest.raises(ValueError, match="must be >= 0, got -0.5"):
        BellDiagonal._make([(1.5, -0.5, 0.0, 0.0)])
    d = BellDiagonal.point()._replace(probs=[0.5, 0.5, 0.0, 0.0])
    assert type(d) is BellDiagonal and d.probs == (0.5, 0.5, 0.0, 0.0)


def test_distribution_stores_a_tuple_and_is_frozen():
    d = BellDiagonal([0.4, 0.3, 0.2, 0.1])
    assert d.probs == (0.4, 0.3, 0.2, 0.1) and isinstance(d.probs, tuple)
    assert d == BellDiagonal((0.4, 0.3, 0.2, 0.1)) and hash(d) == hash(BellDiagonal((0.4, 0.3, 0.2, 0.1)))
    assert repr(d) == "BellDiagonal(probs=(0.4, 0.3, 0.2, 0.1))"
    with pytest.raises(AttributeError):
        d.probs = (1.0, 0.0, 0.0, 0.0)


def test_point_and_uniform():
    point = BellDiagonal.point()
    assert point.probs == (1.0, 0.0, 0.0, 0.0)
    assert all(UNIFORM.probs[s] == 0.25 for s in range(4))


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


def test_convolve_is_bit_identical_to_the_attribute_loop():
    # The sum order, and so every float, must match this loop; -0.0 passes the >= 0 check, and the
    # loop's sums start at 0.0, so the last pair's all-negative-zero sums must come out as 0.0.
    rng = random.Random(16)

    def draw():
        raw = [rng.random() for _ in range(4)]
        return BellDiagonal(tuple(v / sum(raw) for v in raw))

    pairs = [(draw(), draw()) for _ in range(500)]
    pairs.append((BellDiagonal((1.0, -0.0, 0.0, 0.0)), BellDiagonal((1.0, -0.0, -0.0, -0.0))))
    for p, q in pairs:
        want = [0.0, 0.0, 0.0, 0.0]
        for s in range(4):
            acc = 0.0
            for a in range(4):
                acc += p.probs[a] * q.probs[s ^ a]
            want[s] = acc
        assert [x.hex() for x in convolve(p, q).probs] == [x.hex() for x in want]


def test_fold_convolve_empty_is_identity():
    assert fold_convolve([]) == BellDiagonal.point()


def test_fold_convolve_single():
    d = BellDiagonal((0.7, 0.1, 0.1, 0.1))
    assert fold_convolve([d]) is d
    assert fold_convolve(iter([d])) is d


def test_error_prob_readout():
    d = BellDiagonal((0.4, 0.3, 0.2, 0.1))
    assert phase_error_prob(d) == 0.3 + 0.1
    assert bit_error_prob(d) == 0.2 + 0.1
