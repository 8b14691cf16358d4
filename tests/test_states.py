from math import comb

import numpy as np
import pytest
from helpers import reference_enumeration, reference_rows

from scattershot.errors import InstanceTooLargeError, InvalidConfigurationError
from scattershot.states import (
    COLLISION_FREE,
    FORMAT_CHUNK,
    FULL_FOCK,
    DEFAULT_STATE_CAP,
    count_states,
    enumerate_states,
    expansion_index,
    first_mode_blocks,
    format_states,
    state_from_string,
)


def test_counts():
    assert count_states(6, 3, COLLISION_FREE) == comb(6, 3)
    assert count_states(6, 3, FULL_FOCK) == comb(8, 3)


def test_enumeration_sizes_and_sums():
    for family in (COLLISION_FREE, FULL_FOCK):
        occ, index = enumerate_states(5, 3, family)
        assert occ.shape == (count_states(5, 3, family), 5)
        assert np.all(occ.sum(axis=1) == 3)
        assert len(index) == 3 and index[-1][0].shape == (3, occ.shape[0])
    occ, _ = enumerate_states(5, 3, COLLISION_FREE)
    assert occ.max() == 1


def test_lexicographic_occupation_order():
    for family in (COLLISION_FREE, FULL_FOCK):
        occ, _ = enumerate_states(4, 2, family)
        rows = [tuple(r) for r in occ.tolist()]
        assert rows == sorted(rows)


def test_modes_match_occupations():
    occ, index = enumerate_states(5, 3, FULL_FOCK)
    rebuilt = np.zeros_like(occ)
    for i, row in enumerate(index[-1][0].T):
        for j in row:
            rebuilt[i, j] += 1
    assert np.array_equal(rebuilt, occ)


_GRID = (
    [(m, n, f) for m in range(1, 7) for n in range(1, 7) for f in (COLLISION_FREE, FULL_FOCK)
     if f == FULL_FOCK or n <= m]
    + [(12, 4, COLLISION_FREE), (20, 6, FULL_FOCK), (2, 10, FULL_FOCK), (1, 9, FULL_FOCK),
       (70, 68, COLLISION_FREE)]
)


@pytest.mark.parametrize("m,n,family", _GRID)
def test_enumeration_matches_itertools_reference(m, n, family):
    if max(count_states(m, k, family) for k in range(1, n + 1)) > DEFAULT_STATE_CAP:
        # (70, 68): the family fits the cap, the middle levels of its expansion do not
        with pytest.raises(InstanceTooLargeError):
            enumerate_states(m, n, family)
        return
    occ, index = enumerate_states(m, n, family)
    want_occ, want_modes = reference_enumeration(m, n, family)
    assert occ.dtype == want_occ.dtype
    assert np.array_equal(occ, want_occ)
    assert np.array_equal(index[-1][0].T, want_modes)


def _occupations_by_photon_rows(modes, m):
    """The per-photon (row, mode) fill the flat pass of enumerate_states replaced."""
    occ = np.zeros((modes.shape[1], m), dtype=np.uint8)
    rows = np.arange(modes.shape[1])
    for photon in modes:
        occ[rows, photon] += 1
    return occ


@pytest.mark.parametrize("m,n,family", [(6, 3, COLLISION_FREE), (6, 3, FULL_FOCK),
                                        (20, 7, COLLISION_FREE), (20, 4, FULL_FOCK),
                                        (2, 10, FULL_FOCK), (1, 9, FULL_FOCK)])
def test_flat_occupation_pass_matches_per_photon_fill(m, n, family):
    occ, index = enumerate_states(m, n, family)
    assert np.array_equal(occ, _occupations_by_photon_rows(index[-1][0], m))


def test_cap_enforced():
    # C(40, 10) ~ 8.5e8 states exceeds DEFAULT_STATE_CAP
    with pytest.raises(InstanceTooLargeError):
        enumerate_states(40, 10, COLLISION_FREE)


FAMILY_SIZES = [(COLLISION_FREE, m, n) for m, n in ((1, 1), (5, 3), (6, 6), (9, 4), (12, 5))] + [
    (FULL_FOCK, m, n) for m, n in ((1, 3), (2, 4), (5, 3), (7, 4), (9, 2))]


@pytest.mark.parametrize("family,m,n", FAMILY_SIZES)
def test_first_mode_blocks_tile_the_family(family, m, n):
    for k in range(1, n + 1):
        blocks = first_mode_blocks(m, k, family)
        ends = [0] + [start + count for _, start, count in blocks]
        assert [start for _, start, _ in blocks] == ends[:-1]
        assert ends[-1] == count_states(m, k, family)
        assert all(count > 0 for _, _, count in blocks)
        _, modes = reference_enumeration(m, k, family)
        for c0, start, count in blocks:
            assert np.all(modes[start:start + count, 0] == c0)


@pytest.mark.parametrize("family,m,n", FAMILY_SIZES)
def test_expansion_index_levels_and_parents(family, m, n):
    index = expansion_index(m, n, family)
    assert len(index) == n
    for k, (modes, parents) in enumerate(index, start=1):
        assert (modes.dtype, parents.dtype) == (np.uint8, np.int32)
        assert np.array_equal(modes.T, reference_enumeration(m, k, family)[1])
        below = reference_rows(m, k - 1, family) if k > 1 else {(): 0}
        for t in range(k):
            rest = np.delete(modes.T, t, axis=1)
            assert parents[t].tolist() == [below[tuple(row)] for row in rest.tolist()]


def test_expansion_index_refuses_an_oversized_level():
    # C(25, 14) fits the cap, but the levels k = 12, 13 on the way hold C(25, 12) rows
    assert count_states(25, 14, COLLISION_FREE) <= DEFAULT_STATE_CAP
    assert count_states(25, 12, COLLISION_FREE) > DEFAULT_STATE_CAP
    with pytest.raises(InstanceTooLargeError, match="level of 5200300 rows"):
        expansion_index(25, 14, COLLISION_FREE)
    with pytest.raises(InstanceTooLargeError, match="level of 5200300 rows"):
        enumerate_states(25, 14, COLLISION_FREE)
    with pytest.raises(InstanceTooLargeError):
        expansion_index(40, 10, COLLISION_FREE)
    # full-Fock levels grow with k: the last one, the family itself, is the largest
    with pytest.raises(InstanceTooLargeError):
        expansion_index(30, 9, FULL_FOCK)
    with pytest.raises(InvalidConfigurationError):
        expansion_index(2, 3, COLLISION_FREE)


def test_collision_free_needs_enough_modes():
    with pytest.raises(InvalidConfigurationError):
        enumerate_states(2, 3, COLLISION_FREE)


def test_format_states_matches_row_by_row_reference():
    # one chunk holds an occupation of 10 or more, the others single digits only
    occ = np.random.default_rng(3).integers(0, 10, size=(2 * FORMAT_CHUNK + 5, 3), dtype=np.uint8)
    occ[FORMAT_CHUNK + 7, 1] = 12
    assert format_states(occ) == [":".join(str(int(k)) for k in row) for row in occ]
    assert format_states(occ[:0]) == []


def test_state_string_round_trip():
    s = state_from_string("0:2:1:0")
    assert s.tolist() == [0, 2, 1, 0]
    assert format_states(s.astype(np.uint8)[None, :]) == ["0:2:1:0"]
    with pytest.raises(InvalidConfigurationError):
        state_from_string("1:x:0")

