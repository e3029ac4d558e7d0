"""Tests for the deterministic LCG stream."""

import numpy as np
import pytest

from mammoscope.rng import INCREMENT, MULTIPLIER, Rng

_MASK = (1 << 64) - 1


def serial_states(seed, n):
    """Reference: the recurrence applied one step at a time."""
    state = seed & _MASK
    out = []
    for _ in range(n):
        state = (state * MULTIPLIER + INCREMENT) & _MASK
        out.append(state)
    return out


def test_block_path_equals_serial_recurrence():
    rng = Rng(42)
    block = rng._raw_block(10000)
    assert [int(v) for v in block] == serial_states(42, 10000)
    # stream continues from where the block left off
    assert int(rng._raw_block(1)[0]) == serial_states(42, 10001)[-1]


def test_same_seed_same_sequence():
    a = Rng(123)
    b = Rng(123)
    assert np.array_equal(a._raw_block(100), b._raw_block(100))
    assert np.array_equal(Rng(5).normals(999), Rng(5).normals(999))


@pytest.mark.parametrize("seed", [0, 1, 42, -1, 2**63, 2**64 - 1])
def test_uniform_and_randrange_take_one_serial_step_each(seed):
    """Drawn in turn, each call consumes the next state of the recurrence."""
    rng = Rng(seed)
    states = serial_states(seed, 300)
    for k, state in enumerate(states, start=1):
        if k % 2:
            assert rng.uniform() == (state >> 11) * 2.0**-53
        else:
            assert rng.randrange(k) == state % k
    assert rng.state == states[-1]


def test_uniform_range_and_spread():
    rng = Rng(7)
    draws = np.array([rng.uniform() for _ in range(20000)])
    assert draws.min() >= 0.0 and draws.max() < 1.0
    assert abs(draws.mean() - 0.5) < 0.01


def test_normals_moments():
    draws = Rng(11).normals(200000)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.std() - 1.0) < 0.01
    assert abs(np.mean(draws**3)) < 0.05  # symmetric
    assert abs(np.mean(draws**4) - 3.0) < 0.1  # Gaussian tails


def test_normals_concatenation_is_stream_stable():
    # even-sized requests keep Box-Muller pairs aligned with one big request
    rng = Rng(99)
    joined = np.concatenate([rng.normals(2500), rng.normals(2500)])
    assert np.array_equal(joined, Rng(99).normals(5000))


def test_shuffle_is_a_deterministic_permutation():
    items = list(range(50))
    a, b = items.copy(), items.copy()
    Rng(3).shuffle(a)
    Rng(3).shuffle(b)
    assert a == b
    assert a != items
    assert sorted(a) == items


def test_randrange_bounds():
    rng = Rng(1)
    values = [rng.randrange(7) for _ in range(1000)]
    assert min(values) >= 0 and max(values) < 7
    assert len(set(values)) == 7


def per_call_shuffle(rng, items):
    """Reference: Fisher-Yates with one randrange call per swap."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("n", [0, 1, 2, 17, 20000])
def test_shuffle_matches_one_draw_per_swap(n):
    for seed in range(31):
        fast, slow = Rng(seed), Rng(seed)
        got, want = list(range(n)), list(range(n))
        fast.shuffle(got)
        per_call_shuffle(slow, want)
        assert got == want
        assert fast.state == slow.state
