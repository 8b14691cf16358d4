import numpy as np
import pytest
from helpers import matrix_json

from scattershot.errors import InvalidConfigurationError, InvalidDimensionError
from scattershot.linalg import (
    build_submatrix,
    haar_random_unitary,
    matrix_from_json,
    mode_indices,
    occupation_factorial,
    unitarity_defect,
)


def test_single_mode_is_pure_phase():
    u = haar_random_unitary(1, 5)
    assert abs(abs(u[0, 0]) - 1.0) < 1e-12


def test_unitarity_across_sizes():
    for m in (2, 3, 8, 16, 32):
        u = haar_random_unitary(m, 123 + m)
        assert unitarity_defect(u) <= 1e-12


def test_determinism_bit_identical():
    a = haar_random_unitary(6, 99)
    b = haar_random_unitary(6, 99)
    assert a.tobytes() == b.tobytes()
    assert haar_random_unitary(6, 100).tobytes() != a.tobytes()


def test_zero_dimension_rejected():
    with pytest.raises(InvalidDimensionError):
        haar_random_unitary(0, 1)


def test_haar_first_moment():
    # E |u_ij|^2 = 1/m for Haar; Monte-Carlo check at m=4 over 2000 draws
    m, draws = 4, 2000
    acc = np.zeros((m, m))
    for s in range(draws):
        acc += np.abs(haar_random_unitary(m, 10_000 + s)) ** 2
    mean = acc / draws
    stderr = 1.0 / (m * np.sqrt(draws))  # |u|^2 has variance ~ 1/m^2 per draw
    assert np.all(np.abs(mean - 1.0 / m) < 3 * stderr * m)


def test_submatrix_single_photon():
    u = haar_random_unitary(4, 2)
    s = [0, 1, 0, 0]
    t = [0, 0, 0, 1]
    sub = build_submatrix(u, s, t)
    assert sub.shape == (1, 1)
    assert sub[0, 0] == u[3, 1]


def test_submatrix_collision_free_selection():
    u = haar_random_unitary(4, 3)
    sub = build_submatrix(u, [1, 1, 0, 0], [0, 0, 1, 1])
    expected = np.array([[u[2, 0], u[2, 1]], [u[3, 0], u[3, 1]]])
    assert np.array_equal(sub, expected)


def test_submatrix_repeated_column_two_photon_amplitude():
    # s_1 = 2 duplicates column 1; |per|^2 / 2 must equal the direct
    # second-quantized two-photon amplitude squared
    u = haar_random_unitary(2, 8)
    sub = build_submatrix(u, [2, 0], [1, 1])
    assert np.array_equal(sub[:, 0], sub[:, 1])
    per = sub[0, 0] * sub[1, 1] + sub[0, 1] * sub[1, 0]
    # both photons enter mode 0: amplitude onto (1,1) is sqrt(2) u00 u10
    amp = np.sqrt(2.0) * u[0, 0] * u[1, 0]
    norm = occupation_factorial([2, 0]) * occupation_factorial([1, 1])
    assert np.isclose(abs(per) ** 2 / norm, abs(amp) ** 2, atol=1e-12)


def test_submatrix_permutation_consistency():
    rng = np.random.default_rng(4)
    u = haar_random_unitary(5, 14)
    s = np.array([1, 0, 1, 1, 0], dtype=np.int64)
    t = np.array([0, 1, 1, 0, 1], dtype=np.int64)
    perm = rng.permutation(5)
    u_p = u[np.ix_(perm, perm)]
    direct = build_submatrix(u_p, s[perm], t[perm])
    # permuting mode labels only reorders the repeated rows/columns
    ref = build_submatrix(u, s, t)
    assert np.allclose(np.sort(direct.ravel()), np.sort(ref.ravel()))


def test_submatrix_photon_mismatch():
    u = haar_random_unitary(3, 0)
    with pytest.raises(InvalidConfigurationError):
        build_submatrix(u, [1, 1, 0], [1, 0, 0])


def test_mode_indices():
    assert mode_indices([0, 2, 1]).tolist() == [1, 1, 2]


def test_matrix_json_round_trip():
    u = haar_random_unitary(3, 55)
    again = matrix_from_json(matrix_json(u))
    assert np.array_equal(u, again)


def test_matrix_json_rejects_bad_shapes():
    with pytest.raises(InvalidDimensionError):
        matrix_from_json('{"m": 2, "re": [[1.0]], "im": [[0.0]]}')
