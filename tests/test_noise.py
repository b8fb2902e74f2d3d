"""Chain noise model: closed forms, honest marginals, the disagreement parameter."""

import math
import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrate import bell
from chainrate.bell import BellDiagonal, bit_error_prob, fold_convolve, phase_error_prob
from chainrate.noise import (
    ChainSpec,
    balanced_honest_chain,
    depolarizing_dist,
    end_to_end_dist,
    honest_marginals,
    noise_parameter,
    noise_report,
    observed_qx,
    strength_for_observed_qx,
    uniform_chain,
)
from chainrate.verify import enumerate_phase_parity, random_dist
from frozen import P_STAR_1_1, P_STAR_PRESET, PRESET


def sparse_chain(seed, max_repeaters=8):
    """A seeded chain with any honest split whose links are often the identity or have zero entries."""
    rng = random.Random(seed)
    repeaters = rng.randint(1, max_repeaters)
    links = []
    for _ in range(repeaters + 1):
        raw = [0.0 if rng.random() < 0.3 else rng.random() for _ in range(4)]
        links.append(BellDiagonal(tuple(v / sum(raw) for v in raw)) if any(raw) and rng.random() < 0.8 else BellDiagonal.point())
    left = rng.randint(0, repeaters)
    return ChainSpec(repeaters, left, rng.randint(0, repeaters - left), tuple(links))


SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def random_chain(rng, max_repeaters=6):
    repeaters = int(rng.integers(1, max_repeaters + 1))
    links = tuple(random_dist(rng) for _ in range(repeaters + 1))
    left = int(rng.integers(0, repeaters + 1))
    right = int(rng.integers(0, repeaters - left + 1))
    return ChainSpec(repeaters, left, right, links)


def test_chain_spec_replace_goes_through_the_constructor():
    with pytest.raises(ValueError, match="honest counts 4\\+2 exceed 5 stations"):
        PRESET._replace(honest_left=4)
    with pytest.raises(ValueError, match="expected 6 links, got 5"):
        ChainSpec._make((5, 2, 2, PRESET.links[:5]))
    assert PRESET._replace(honest_left=3) == uniform_chain(5, 0.03, 3, 2)


def test_depolarizing_dist_layout():
    d = depolarizing_dist(0.04)
    assert d.probs == (1.0 - 0.03, 0.01, 0.01, 0.01)
    assert math.isclose(phase_error_prob(d), 0.02, rel_tol=0, abs_tol=1e-15)


def test_depolarizing_dist_extremes():
    assert depolarizing_dist(0.0) == BellDiagonal.point()
    assert depolarizing_dist(1.0) == BellDiagonal((0.25, 0.25, 0.25, 0.25))


@pytest.mark.parametrize("q", [-0.01, 1.01])
def test_depolarizing_dist_domain(q):
    with pytest.raises(ValueError):
        depolarizing_dist(q)


def test_chain_spec_validation():
    links3 = (depolarizing_dist(0.1),) * 3
    with pytest.raises(ValueError):
        ChainSpec(0, 0, 0, (depolarizing_dist(0.1),))
    with pytest.raises(ValueError):
        ChainSpec(2, -1, 0, links3)
    with pytest.raises(ValueError):
        ChainSpec(2, 2, 1, links3)  # honest counts exceed stations
    with pytest.raises(ValueError):
        ChainSpec(2, 0, 0, links3[:2])  # wrong link count
    with pytest.raises(TypeError):
        ChainSpec(2, 0, 0, ((0.25, 0.25, 0.25, 0.25),) * 3)
    spec = ChainSpec(2, 1, 0, list(links3))
    assert spec.links == links3 and isinstance(spec.links, tuple)
    with pytest.raises(AttributeError):
        spec.links = links3[:1]
    with pytest.raises(AttributeError):
        spec.repeaters = 3


def test_balanced_chain_puts_extra_station_on_the_left():
    links = uniform_chain(5, 0.03, 0, 0).links
    spec = balanced_honest_chain(links, 3)
    assert (spec.repeaters, spec.honest_left, spec.honest_right, spec.links) == (5, 2, 1, links)
    even = balanced_honest_chain(links, 4)
    assert (even.honest_left, even.honest_right) == (2, 2)


@pytest.mark.parametrize("q", [0.0, 0.01, 0.03, 0.1, 0.5])
def test_identical_chain_closed_form(q):
    """Six-link identical chain: qx = (1 - (1-q)^6) / 2, checked three ways."""
    spec = uniform_chain(5, q, 0, 0)
    closed = (1.0 - (1.0 - q) ** 6) / 2.0
    fast = observed_qx(spec)
    brute = enumerate_phase_parity(spec.links)
    assert abs(fast - closed) < 1e-12
    assert abs(brute - closed) < 1e-12


def test_depolarizing_chain_is_symmetric_in_bit_and_phase():
    spec = uniform_chain(4, 0.07, 1, 1)
    assert math.isclose(observed_qx(spec), bit_error_prob(end_to_end_dist(spec)), rel_tol=0, abs_tol=1e-15)


def test_end_to_end_matches_enumeration_heterogeneous():
    rng = np.random.default_rng(99)
    spec = random_chain(rng, max_repeaters=4)
    assert abs(phase_error_prob(end_to_end_dist(spec)) - enumerate_phase_parity(spec.links)) < 1e-12


def test_honest_marginals_use_only_end_links():
    # Distinct links so the selection is visible in the numbers.
    links = tuple(depolarizing_dist(q) for q in (0.02, 0.04, 0.06, 0.08, 0.10))
    spec = ChainSpec(4, 1, 2, links)
    left, right = honest_marginals(spec)
    assert left == links[0]
    expected_right = enumerate_phase_parity(links[3:])
    assert abs(phase_error_prob(right) - expected_right) < 1e-12


def test_honest_marginals_empty_segments_are_deterministic():
    spec = uniform_chain(3, 0.2, 0, 0)
    left, right = honest_marginals(spec)
    assert left == BellDiagonal.point()
    assert right == BellDiagonal.point()
    assert noise_parameter(spec) == 0.0


@given(SEEDS)
def test_fold_is_bit_identical_to_a_fold_from_the_identity(seed):
    links = sparse_chain(seed).links[: seed % 10]
    folded = fold_convolve(links).probs
    from_point = reduce(bell.convolve, links, BellDiagonal.point()).probs
    assert [x.hex() for x in folded] == [x.hex() for x in from_point]


@given(SEEDS)
def test_noise_parameter_is_bit_identical_to_the_double_loop(seed):
    spec = sparse_chain(seed)
    left, right = honest_marginals(spec)
    total = 0.0
    for x in range(4):
        for y in range(4):
            if (x ^ y) & 1:
                total += left.probs[x] * right.probs[y]
    assert noise_parameter(spec).hex() == total.hex()


def test_noise_parameter_adds_from_positive_zero_as_the_loop_did():
    # Every odd-parity product of these single-link marginals is -0.0; the loop's sum started at 0.0.
    signed = BellDiagonal((1.0, -0.0, 0.0, -0.0))
    assert noise_parameter(ChainSpec(2, 1, 1, (signed, BellDiagonal.point(), signed))).hex() == (0.0).hex()


@given(SEEDS)
def test_reversed_chain_with_swapped_split_has_the_same_noise(seed):
    spec = sparse_chain(seed)
    mirror = ChainSpec(spec.repeaters, spec.honest_right, spec.honest_left, spec.links[::-1])
    assert abs(observed_qx(mirror) - observed_qx(spec)) <= 1e-15
    assert abs(noise_parameter(mirror) - noise_parameter(spec)) <= 1e-15


def test_folds_convolve_once_per_link_after_the_first(monkeypatch):
    calls = []
    convolve = bell.convolve
    monkeypatch.setattr(bell, "convolve", lambda p, q: calls.append(1) or convolve(p, q))
    for repeaters in range(1, 7):
        for left in range(repeaters + 1):
            for right in range(repeaters - left + 1):
                spec = uniform_chain(repeaters, 0.03, left, right)
                calls.clear()
                end_to_end_dist(spec)
                assert len(calls) == repeaters
                calls.clear()
                noise_parameter(spec)
                assert len(calls) == max(left - 1, 0) + max(right - 1, 0)


def test_noise_parameter_zero_requires_no_honest_stations():
    spec = uniform_chain(3, 0.2, 1, 0)
    assert noise_parameter(spec) > 0.0


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_noise_parameter_equals_marginal_combination(seed):
    spec = random_chain(np.random.default_rng(seed))
    left, right = honest_marginals(spec)
    pl, pr = phase_error_prob(left), phase_error_prob(right)
    assert abs(noise_parameter(spec) - (pl * (1 - pr) + pr * (1 - pl))) < 1e-12


@pytest.mark.parametrize("total", [1, 2, 3, 4])
def test_noise_parameter_identical_links_closed_form(total):
    # Depends only on the number of honest links when links are identical.
    q = 0.03
    spec = balanced_honest_chain(uniform_chain(5, q, 0, 0).links, total)
    closed = (1.0 - (1.0 - q) ** total) / 2.0
    assert abs(noise_parameter(spec) - closed) < 1e-12


def test_noise_parameter_split_invariance():
    q = 0.05
    values = {
        split: noise_parameter(uniform_chain(5, q, split, 4 - split))
        for split in (0, 1, 2, 3, 4)
    }
    reference = values[2]
    for v in values.values():
        assert abs(v - reference) < 1e-12


def test_preset_noise_parameter_values():
    assert abs(noise_parameter(PRESET) - P_STAR_PRESET) < 1e-12
    assert abs(noise_parameter(uniform_chain(5, 0.03, 1, 1)) - P_STAR_1_1) < 1e-12


def test_noise_report_is_consistent():
    report = noise_report(PRESET)
    assert report.observed_qx == observed_qx(PRESET)
    assert report.observed_qz == bit_error_prob(end_to_end_dist(PRESET))
    assert report.p_star == noise_parameter(PRESET)
    pl, pr = report.p_left, report.p_right
    assert abs(report.p_star - (pl * (1 - pr) + pr * (1 - pl))) < 1e-15
    assert report.end_to_end == end_to_end_dist(PRESET)


@pytest.mark.parametrize("q", [0.0, 0.01, 0.2, 0.6])
def test_strength_roundtrip(q):
    spec = uniform_chain(3, q, 0, 0)
    qx = observed_qx(spec)
    if qx < 0.5:
        assert abs(strength_for_observed_qx(qx, 4) - q) < 1e-12


def test_strength_domain():
    with pytest.raises(ValueError):
        strength_for_observed_qx(0.5, 4)
    with pytest.raises(ValueError):
        strength_for_observed_qx(-0.01, 4)
    with pytest.raises(ValueError):
        strength_for_observed_qx(0.1, 0)
