"""Unit tests for the swap-chain fidelity model.

The numeric anchors below were computed once with the step-by-step
``iterate_swaps`` fold (cross-checked against exact rational arithmetic to
within two ulps) and frozen.  The closed form must reproduce them.
"""

import itertools
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qrepnet import (
    MIN_LINK_FIDELITY,
    MIN_NOISE_RATE,
    NoiseClass,
    end_to_end_fidelity,
    iterate_swaps,
    swap_noise_factor,
    two_class_fidelity,
    werner_fidelity,
    werner_parameter,
)

HQ = NoiseClass("HQ", 0.999)
LQ = NoiseClass("LQ", 0.8)

# (n_h, n_l, eta_l, expected) at link fidelity 0.975, eta_h 0.999.
FROZEN = [
    (7, 0, 0.8, 0.8112567981592362),
    (5, 0, 0.8, 0.8538461447096396),
    (3, 2, 0.8, 0.4141538810016838),
    (0, 5, 0.99, 0.7849671906537664),
    (0, 5, 0.8, 0.2732668955732336),
]

etas = st.floats(min_value=0.501, max_value=1.0, allow_nan=False)
fids = st.floats(min_value=0.2501, max_value=1.0, allow_nan=False)


def test_werner_parameter_endpoints():
    assert werner_parameter(1.0) == 1.0
    assert werner_parameter(0.25 + 1e-9) == pytest.approx(0.0, abs=2e-9)
    assert werner_fidelity(1.0) == 1.0
    assert werner_fidelity(0.0) == 0.25


def test_swap_factor_endpoints():
    assert swap_noise_factor(1.0) == 1.0
    # A barely-working node contracts the Werner parameter to almost nothing.
    assert swap_noise_factor(0.5 + 1e-9) == pytest.approx(0.0, abs=3e-9)


def test_zero_swaps_returns_link_fidelity():
    assert two_class_fidelity(0, 0, 0.999, 0.8, 0.975) == pytest.approx(0.975, abs=1e-15)
    assert iterate_swaps([], 0.975) == pytest.approx(0.975, abs=1e-15)


@pytest.mark.parametrize("n_h,n_l,eta_l,expected", FROZEN)
def test_frozen_values_closed_form(n_h, n_l, eta_l, expected):
    got = two_class_fidelity(n_h, n_l, 0.999, eta_l, 0.975)
    assert got == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("n_h,n_l,eta_l,expected", FROZEN)
def test_frozen_values_composition(n_h, n_l, eta_l, expected):
    comp = {NoiseClass("HQ", 0.999): n_h, NoiseClass("LQ", eta_l): n_l}
    assert end_to_end_fidelity(comp, 0.975) == pytest.approx(expected, abs=1e-12)


def test_composition_rejects_negative_count():
    with pytest.raises(ValueError, match="non-negative"):
        end_to_end_fidelity({HQ: -1}, 0.975)
    with pytest.raises(ValueError, match="non-negative"):
        end_to_end_fidelity({HQ: 3, LQ: -1}, 0.975)


@pytest.mark.parametrize("bad", [0.25, 0.1, 0.0, 1.01, -1.0])
def test_link_fidelity_domain(bad):
    with pytest.raises(ValueError):
        werner_parameter(bad)


@pytest.mark.parametrize("bad", [0.5, 0.4, 0.0, 1.0001])
def test_noise_rate_domain(bad):
    with pytest.raises(ValueError):
        swap_noise_factor(bad)
    with pytest.raises(ValueError):
        NoiseClass("X", bad)


def test_two_class_rejects_negative_counts():
    with pytest.raises(ValueError):
        two_class_fidelity(-1, 0, 0.999, 0.8, 0.975)
    with pytest.raises(ValueError):
        two_class_fidelity(0, -2, 0.999, 0.8, 0.975)


@given(st.lists(etas, max_size=12), fids)
def test_closed_form_matches_stepwise_fold(eta_list, f):
    """The product form and the one-swap-at-a-time fold agree to 1e-12."""
    comp = {NoiseClass(f"c{i}", eta): 1 for i, eta in enumerate(eta_list)}
    assert abs(end_to_end_fidelity(comp, f) - iterate_swaps(eta_list, f)) <= 1e-12


@given(st.lists(etas, max_size=12), fids, st.randoms())
def test_fold_is_order_independent(eta_list, f, rnd):
    shuffled = list(eta_list)
    rnd.shuffle(shuffled)
    assert iterate_swaps(shuffled, f) == pytest.approx(iterate_swaps(eta_list, f), abs=1e-12)


@given(st.integers(0, 10), st.integers(0, 10), etas, etas, fids)
def test_fidelity_never_falls_below_floor(n_h, n_l, eta_h, eta_l, f):
    """The swap chain cannot push fidelity below 1/4.

    Near the domain edges the correction term underflows and the result
    rounds to the floor exactly, so the bound is non-strict here; the strict
    version at workaday parameters is the next test.
    """
    assert two_class_fidelity(n_h, n_l, eta_h, eta_l, f) >= 0.25


@given(st.integers(0, 10), st.integers(0, 10), etas, st.one_of(etas, st.none()), fids)
@example(3, 2, 0.85, 0.97, 1.0)
@example(1, 2, 0.83, None, 0.592)
def test_two_class_fidelity_is_symmetric_in_the_classes(n_h, n_l, eta_h, eta_l, f):
    """Swapping the two classes gives the same bits, at distinct and at
    equal noise rates (``eta_l`` of ``None``), so a score does not depend on
    which class is called high quality."""
    eta_l = eta_h if eta_l is None else eta_l
    assert two_class_fidelity(n_h, n_l, eta_h, eta_l, f) == two_class_fidelity(
        n_l, n_h, eta_l, eta_h, f
    )


@given(st.integers(0, 10), st.integers(0, 10))
def test_fidelity_strictly_above_floor_at_default_rates(n_h, n_l):
    assert two_class_fidelity(n_h, n_l, 0.999, 0.8, 0.975) > 0.25


@given(st.integers(0, 10), st.integers(0, 10))
def test_extra_node_never_helps(n_h, n_l):
    base = two_class_fidelity(n_h, n_l, 0.999, 0.8, 0.975)
    assert two_class_fidelity(n_h + 1, n_l, 0.999, 0.8, 0.975) < base
    assert two_class_fidelity(n_h, n_l + 1, 0.999, 0.8, 0.975) < base


@given(st.integers(0, 10), st.integers(1, 10))
def test_upgrading_a_node_helps(n_h, n_l):
    worse = two_class_fidelity(n_h, n_l, 0.999, 0.8, 0.975)
    better = two_class_fidelity(n_h + 1, n_l - 1, 0.999, 0.8, 0.975)
    assert better > worse


def test_many_random_mixed_chains_against_fold():
    rnd = random.Random(20240917)
    for _ in range(200):
        n_h = rnd.randrange(0, 7)
        n_l = rnd.randrange(0, 7)
        f = rnd.uniform(0.3, 1.0)
        closed = two_class_fidelity(n_h, n_l, 0.999, 0.8, f)
        fold = iterate_swaps([0.999] * n_h + [0.8] * n_l, f)
        assert abs(closed - fold) <= 1e-12


def test_both_closed_forms_give_the_same_bits():
    """``two_class_fidelity`` and ``end_to_end_fidelity`` of the same two
    classes are one statement of the closed form, so they agree bit for
    bit, at distinct and at equal noise rates."""
    for f in (0.975, 0.99, 0.6):
        for eta_h, eta_l in itertools.product((0.999, 0.99, 0.9, 0.8), repeat=2):
            for n_h, n_l in itertools.product(range(12), repeat=2):
                comp = {NoiseClass("HQ", eta_h): n_h, NoiseClass("LQ", eta_l): n_l}
                assert two_class_fidelity(n_h, n_l, eta_h, eta_l, f) == end_to_end_fidelity(
                    comp, f
                ), (n_h, n_l, eta_h, eta_l, f)


def test_composition_does_not_depend_on_the_order_of_its_classes():
    """Every order of the classes of a composition gives the same bits."""
    rnd = random.Random(29)
    for _ in range(500):
        items = [
            (NoiseClass(f"c{i}", rnd.choice((0.999, 0.99, 0.95, 0.9, 0.8))), rnd.randrange(13))
            for i in range(rnd.randrange(2, 5))
        ]
        f = rnd.choice((0.975, 0.99, 0.9))
        first = end_to_end_fidelity(dict(items), f)
        for order in itertools.permutations(items):
            assert end_to_end_fidelity(dict(order), f) == first, (order, f)


def test_constants_exported():
    assert MIN_LINK_FIDELITY == 0.25
    assert MIN_NOISE_RATE == 0.5
