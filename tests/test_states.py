from math import comb

import numpy as np
import pytest

from scattershot.errors import InstanceTooLargeError, InvalidConfigurationError
from scattershot.states import (
    COLLISION_FREE,
    FULL_FOCK,
    collision_free_ranks,
    count_states,
    enumerate_states,
    state_from_string,
    state_to_string,
)


def test_counts():
    assert count_states(6, 3, COLLISION_FREE) == comb(6, 3)
    assert count_states(6, 3, FULL_FOCK) == comb(8, 3)


def test_enumeration_sizes_and_sums():
    for family in (COLLISION_FREE, FULL_FOCK):
        occ, modes = enumerate_states(5, 3, family)
        assert occ.shape == (count_states(5, 3, family), 5)
        assert np.all(occ.sum(axis=1) == 3)
        assert modes.shape == (occ.shape[0], 3)
    occ, _ = enumerate_states(5, 3, COLLISION_FREE)
    assert occ.max() == 1


def test_lexicographic_occupation_order():
    for family in (COLLISION_FREE, FULL_FOCK):
        occ, _ = enumerate_states(4, 2, family)
        rows = [tuple(r) for r in occ.tolist()]
        assert rows == sorted(rows)


def test_modes_match_occupations():
    occ, modes = enumerate_states(5, 3, FULL_FOCK)
    rebuilt = np.zeros_like(occ)
    for i, row in enumerate(modes):
        for j in row:
            rebuilt[i, j] += 1
    assert np.array_equal(rebuilt, occ)


@pytest.mark.parametrize("m,k", [(1, 1), (5, 1), (5, 5), (6, 3), (12, 4), (20, 5), (30, 2)])
def test_collision_free_ranks_follow_enumeration_order(m, k):
    _, modes = enumerate_states(m, k, COLLISION_FREE)
    assert np.array_equal(collision_free_ranks(modes, m), np.arange(modes.shape[0]))


def test_collision_free_ranks_mark_repeated_modes():
    occ, modes = enumerate_states(6, 3, FULL_FOCK)
    ranks = collision_free_ranks(modes, 6)
    bunched = occ.max(axis=1) > 1
    assert np.all(ranks[bunched] == -1)
    cf_occ, _ = enumerate_states(6, 3, COLLISION_FREE)
    assert np.array_equal(cf_occ[ranks[~bunched]], occ[~bunched])


def test_cap_enforced():
    with pytest.raises(InstanceTooLargeError):
        enumerate_states(40, 10, COLLISION_FREE, cap=1000)


def test_collision_free_needs_enough_modes():
    with pytest.raises(InvalidConfigurationError):
        enumerate_states(2, 3, COLLISION_FREE)


def test_state_string_round_trip():
    s = state_from_string("0:2:1:0")
    assert s.tolist() == [0, 2, 1, 0]
    assert state_to_string(s) == "0:2:1:0"
    with pytest.raises(InvalidConfigurationError):
        state_from_string("1:x:0")
