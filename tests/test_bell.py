"""Symbol algebra: distributions, XOR-convolution."""

import math
import random
import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chainrate.bell import NORMALIZATION_TOL, BellDiagonal, bit_error_prob, convolve, phase_error_prob

UNIFORM = BellDiagonal((0.25, 0.25, 0.25, 0.25))


def dist_strategy():
    """Arbitrary normalized distribution over the four symbols."""
    return st.lists(
        st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
        min_size=4,
        max_size=4,
    ).map(lambda raw: BellDiagonal(tuple(v / sum(raw) for v in raw)))


def _loop_check(probs):
    """The constructor's checks written as a per-entry loop: the stored tuple, or the error message."""
    probs = tuple(float(p) for p in probs)
    if len(probs) != 4:
        return f"expected 4 probabilities, got {len(probs)}"
    total = 0.0
    for p in probs:
        if not (p >= 0.0):
            return f"probabilities must be >= 0, got {p!r}"
        total += p  # index order from 0.0, as builtin sum() added floats before Python 3.12
    if abs(total - 1.0) > NORMALIZATION_TOL:
        return f"probabilities must sum to 1 within {NORMALIZATION_TOL}, got {total!r}"
    return probs


_NAN, _INF = float("nan"), float("inf")
_ABOVE, _BELOW = 1.0 + NORMALIZATION_TOL, 1.0 - NORMALIZATION_TOL


@pytest.mark.parametrize(
    "probs",
    [
        (0.5, 0.5, 0.0),  # wrong arity
        (0.5, 0.5, 0.5, 0.5),  # sum 2
        (-0.1, 0.4, 0.4, 0.3),  # negative
        (_NAN, 0.4, 0.3, 0.3),
        # A negative, NaN or infinite entry in each position; the first offending entry is named.
        (0.4, -0.1, 0.4, 0.3),
        (0.4, 0.4, -0.1, 0.3),
        (0.4, 0.4, 0.3, -0.1),
        (0.4, -0.1, -0.2, 0.9),
        (0.4, 0.3, _NAN, 0.3),
        (0.4, 0.3, 0.3, _NAN),
        (_INF, 0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0, -_INF),
        (0.5, _INF, -_INF, 0.5),
        (-0.0, 1.0, 0.0, 0.0),  # negative zero is >= 0
        (-0.0, -0.0, -0.0, 1.0),
        (),
        (1.0,),
        (0.5, 0.5, 0.0, 0.0, 0.0),
        # Sums one ulp either side of each edge of the tolerance.
        (math.nextafter(_ABOVE, 2.0), 0.0, 0.0, 0.0),
        (_ABOVE, 0.0, 0.0, 0.0),
        (math.nextafter(_ABOVE, 0.0), 0.0, 0.0, 0.0),
        (math.nextafter(_BELOW, 2.0), 0.0, 0.0, 0.0),
        (_BELOW, 0.0, 0.0, 0.0),
        (math.nextafter(_BELOW, 0.0), 0.0, 0.0, 0.0),
        (1, 0, 0, 0),  # ints become floats from any iterable
        # Accepted, then refused, on every Python: in index order the sums fall just inside and just
        # outside the tolerance, and compensated summation (builtin sum() from Python 3.12 on) swaps them.
        (0.7806789323891895, 0.09345066276822098, 0.0070642621800366965, 0.11880614266155273),
        (0.5107570388741124, 0.004851804519561697, 0.36364636254019095, 0.120744794065135),
    ],
)
def test_distribution_validation(probs):
    # A tuple, a list and a generator of the same entries must be accepted or refused exactly as the loop did.
    want = _loop_check(probs)
    for given_probs in (probs, list(probs), (p for p in probs)):
        if isinstance(want, str):
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                BellDiagonal(given_probs)
        else:
            assert repr(BellDiagonal(given_probs).probs) == repr(want)  # repr tells -0.0 and ints apart


@pytest.mark.parametrize("text", ["1000", b"1000", bytearray(b"\x01\x00\x00\x00")])
def test_text_is_not_a_distribution(text):
    # float() would read each character or byte as one entry and accept the point distribution.
    with pytest.raises(TypeError, match="^probabilities must be numbers, not "):
        BellDiagonal(text)


@pytest.mark.parametrize(
    "entries, kind",
    [
        ([True, 0, 0, 0], "bool"),
        ((0, 0, 0, True), "bool"),
        (["1", "0", "0", "0"], "str"),
        ([1.0, 0.0, b"0", 0.0], "bytes"),
        ([bytearray(b"1"), 0, 0, 0], "bytearray"),
    ],
)
def test_an_entry_that_is_not_a_number_is_refused(entries, kind):
    # float() reads each of these as a number, so True or '1' would pass as the point distribution.
    for given_entries in (entries, tuple(entries), (p for p in entries)):
        with pytest.raises(TypeError, match=f"^probabilities must be numbers, not {kind}$"):
            BellDiagonal(given_entries)


@pytest.mark.parametrize("entries", [(10**400, 0, 0, 0), (0.5, 0.5, 0, -(10**309))])
def test_an_int_past_the_float_range_is_a_value_error(entries):
    with pytest.raises(ValueError, match="^probabilities must lie in the float range: int too large to convert to float$"):
        BellDiagonal(entries)


def test_numpy_scalars_are_numbers():
    assert BellDiagonal([np.float64(0.5), np.int64(0), np.float32(0.25), 0.25]).probs == (0.5, 0.0, 0.25, 0.25)


def test_int_entries_give_float_error_probabilities():
    d = BellDiagonal((1, 0, 0, 0))
    assert repr(phase_error_prob(d)) == "0.0" and repr(bit_error_prob(d)) == "0.0"


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
    assert point is BellDiagonal.point()
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
    # The sum order, and so every float, must match this loop run link by link from the first link;
    # -0.0 passes the >= 0 check, and the loop's sums start at 0.0, so all-negative-zero sums must come out as 0.0.
    rng = random.Random(16)

    def draw():
        raw = [rng.random() for _ in range(4)]
        return BellDiagonal(tuple(v / sum(raw) for v in raw))

    folds = [[draw(), draw()] for _ in range(500)]
    folds += [[draw() for _ in range(length)] for length in range(11) for _ in range(30)]
    signed = [BellDiagonal((1.0, -0.0, 0.0, 0.0)), BellDiagonal((1.0, -0.0, -0.0, -0.0))]
    folds += [signed, signed * 2, signed[1:] * 5]
    for links in folds:
        want = list(links[0].probs) if links else [1.0, 0.0, 0.0, 0.0]
        for q in links[1:]:
            p, want = want, [0.0, 0.0, 0.0, 0.0]
            for s in range(4):
                acc = 0.0
                for a in range(4):
                    acc += p[a] * q.probs[s ^ a]
                want[s] = acc
        assert [x.hex() for x in convolve(*links).probs] == [x.hex() for x in want]


def test_convolve_of_nothing_is_the_shared_identity():
    assert convolve() is BellDiagonal.point()


def test_convolve_keeps_the_sum_check():
    # Each input is within the tolerance; their convolution sums to 1.0000000000018 and is refused.
    a = BellDiagonal((0.5 + 0.9e-12, 0.5, 0.0, 0.0))
    with pytest.raises(ValueError, match=r"^probabilities must sum to 1 within 1e-12, got 1\.0000000000018$"):
        convolve(a, a)


def test_convolve_checks_every_step_of_a_fold():
    # a * a sums to 1.0000000000016, outside the tolerance; folding in b twice brings the sum back within it,
    # so a check on the result alone would pass. The pairwise fold refuses a * a, and so must one call.
    a = BellDiagonal((0.5 + 0.8e-12, 0.5, 0.0, 0.0))
    b = BellDiagonal((0.5 - 0.8e-12, 0.5, 0.0, 0.0))
    message = r"^probabilities must sum to 1 within 1e-12, got 1\.0000000000016$"
    with pytest.raises(ValueError, match=message):
        reduce(convolve, (a, b, b), a)
    with pytest.raises(ValueError, match=message):
        convolve(a, a, b, b)


def test_convolve_single_comes_back_as_it_is():
    d = BellDiagonal((0.7, 0.1, 0.1, 0.1))
    assert convolve(d) is d


def test_error_prob_readout():
    d = BellDiagonal((0.4, 0.3, 0.2, 0.1))
    assert phase_error_prob(d) == 0.3 + 0.1
    assert bit_error_prob(d) == 0.2 + 0.1
