import itertools
import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from scattershot import permanent
from scattershot.errors import (
    InsufficientDataError,
    InvalidDimensionError,
    OracleScaleExceededError,
)
from scattershot.permanent import (
    GLYNN_MAX_N,
    NAIVE_MAX_N,
    SEGMENT_BYTES,
    TimingModel,
    fit_timing_model,
    permanent_glynn,
    permanent_glynn_parallel,
    permanent_naive,
)


def permanent_reference(a):
    """Plain itertools permanent, independent of the package's vectorized paths."""
    n = a.shape[0]
    return sum(
        np.prod([a[i, p[i]] for i in range(n)]) for p in itertools.permutations(range(n))
    )


def random_complex(rng, n):
    return rng.random((n, n)) + 1j * rng.random((n, n)) - (0.5 + 0.5j)


def test_naive_identity():
    assert permanent_naive(np.eye(3, dtype=complex)) == 1.0


def test_naive_all_ones():
    assert permanent_naive(np.ones((4, 4), dtype=complex)) == 24.0


def test_naive_zero_row():
    a = np.ones((3, 3), dtype=complex)
    a[1] = 0.0
    assert permanent_naive(a) == 0.0


def test_naive_matches_reference():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        for _ in range(3):
            a = random_complex(rng, n)
            ref = permanent_reference(a)
            assert abs(permanent_naive(a) - ref) <= 1e-12 * max(1.0, abs(ref))


def test_naive_rejects_large_and_nonsquare():
    with pytest.raises(OracleScaleExceededError):
        permanent_naive(np.ones((11, 11), dtype=complex))
    with pytest.raises(InvalidDimensionError):
        permanent_naive(np.ones((2, 3), dtype=complex))


def test_glynn_base_case():
    z = 0.3 - 1.7j
    assert permanent_glynn(np.array([[z]])) == z


def test_glynn_all_ones_5():
    assert np.isclose(permanent_glynn(np.ones((5, 5), dtype=complex)), 120.0, rtol=1e-9)


def test_glynn_vs_naive_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        a = rng.random((6, 6)) + 1j * rng.random((6, 6))
        g = permanent_glynn(a)
        nv = permanent_naive(a)
        assert abs(g - nv) <= 1e-9 * max(1.0, abs(nv))


def test_glynn_rejects_nonsquare():
    with pytest.raises(InvalidDimensionError):
        permanent_glynn(np.ones((3, 4), dtype=complex))


def test_parallel_degenerate_split():
    rng = np.random.default_rng(11)
    a = random_complex(rng, 6)
    assert permanent_glynn_parallel(a, 1) == permanent_glynn(a)


def test_parallel_bit_identical_across_partitions():
    rng = np.random.default_rng(13)
    for n in (8, 14, 16, 18):  # one, one, two and eight segments
        a = random_complex(rng, n)
        base = permanent_glynn(a)
        for partitions in (2, 3, 4, 8):
            assert permanent_glynn_parallel(a, partitions) == base


def test_parallel_all_ones_8():
    value = permanent_glynn_parallel(np.ones((8, 8), dtype=complex), 4)
    assert np.isclose(value, 40320.0, rtol=1e-9)


def test_parallel_rejects_bad_partitions():
    with pytest.raises(InvalidDimensionError):
        permanent_glynn_parallel(np.ones((2, 2), dtype=complex), 0)


def test_multilinearity_in_rows():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = random_complex(rng, 5)
        c = rng.random() + 1j * rng.random()
        k = rng.integers(0, 5)
        scaled = a.copy()
        scaled[k] *= c
        assert np.isclose(permanent_glynn(scaled), c * permanent_glynn(a), rtol=1e-12)


def test_row_column_permutation_invariance():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a = random_complex(rng, 5)
        p = rng.permutation(5)
        q = rng.permutation(5)
        assert np.isclose(permanent_glynn(a[p][:, q]), permanent_glynn(a), rtol=1e-12)


def test_transpose_invariance():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = random_complex(rng, 6)
        assert np.isclose(permanent_glynn(a.T), permanent_glynn(a), rtol=1e-12)


def test_fit_recovers_reference_constants():
    a, b = 4.47e-8, 1.05
    pts = [(n, a * n * 2 ** (b * n)) for n in range(10, 21)]
    model = fit_timing_model(pts)
    assert np.isclose(model.a, a, rtol=1e-6)
    assert np.isclose(model.b, b, rtol=1e-6)


def test_fit_exact_power_model():
    pts = [(n, n * 2.0**n) for n in (5, 8, 11, 14)]
    model = fit_timing_model(pts)
    assert np.isclose(model.a, 1.0, rtol=1e-9)
    assert np.isclose(model.b, 1.0, rtol=1e-9)


def test_fit_needs_three_distinct_points():
    with pytest.raises(InsufficientDataError):
        fit_timing_model([(5, 1.0), (5, 1.1), (6, 2.0)])


def test_timing_model_validates():
    with pytest.raises(InsufficientDataError):
        TimingModel(a=-1.0, b=1.0)
    assert TimingModel(a=2.0, b=1.0).predict(3) == 2.0 * 3 * 8


ENTRIES = hst.floats(-1.0, 1.0, allow_subnormal=False)


def _matrices():
    """(n, n) matrices of entries in [-1, 1], n <= NAIVE_MAX_N."""
    sizes = hst.integers(1, NAIVE_MAX_N)
    return sizes.flatmap(lambda n: arrays(np.float64, (n, n), elements=ENTRIES))


def _close_to_naive(value, a):
    """Within 1e-10 of the oracle, relative to prod_j sum_i |a_ij|.

    That product bounds every Glynn term, so rounding scales with it; |per(a)|
    itself can be far smaller through cancellation. The 1e-300 floor only
    covers subnormal underflow.
    """
    scale = np.prod(np.abs(a).sum(axis=0))
    return abs(value - permanent_naive(a)) <= 1e-10 * max(scale, 1e-300)


@settings(max_examples=200, deadline=None)
@given(re=_matrices(), data=hst.data())
def test_glynn_matches_naive_property(re, data):
    im = data.draw(arrays(np.float64, re.shape, elements=ENTRIES))
    for a in (re, re + 1j * im):
        assert _close_to_naive(permanent_glynn(a), a)


@settings(max_examples=100, deadline=None)
@given(re=_matrices(), data=hst.data())
def test_glynn_drivers_match_naive_property(re, data):
    # the driver keeps real input real and complex input complex
    im = data.draw(arrays(np.float64, re.shape, elements=ENTRIES))
    real = permanent._glynn(re, 1)
    assert isinstance(real, np.float64)
    assert _close_to_naive(real, re)
    cplx = permanent._glynn(re + 1j * im, 1)
    assert isinstance(cplx, np.complex128)
    assert _close_to_naive(cplx, re + 1j * im)


def test_glynn_real_input_stays_real():
    rng = np.random.default_rng(31)
    for a in rng.random((5, 4, 4)):
        real = permanent._glynn(a, 1)
        assert isinstance(real, np.float64)
        assert np.isclose(real, permanent_naive(a).real, rtol=1e-10)


def test_glynn_temporaries_within_budget():
    # n=18: the whole table would take 40 MB
    a = random_complex(np.random.default_rng(37), 18)
    expect = permanent_glynn(a)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = permanent_glynn(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == expect
    assert SEGMENT_BYTES // 2 < peak - before <= SEGMENT_BYTES


def test_glynn_rejects_matrices_above_cap():
    with pytest.raises(InvalidDimensionError):
        permanent_glynn(np.zeros((GLYNN_MAX_N + 1, GLYNN_MAX_N + 1)))


def test_pool_width_is_bounded_by_cpu_count(monkeypatch):
    widths = []

    def recording_pool(max_workers, **kwargs):
        widths.append(max_workers)
        return ThreadPoolExecutor(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(permanent, "ThreadPoolExecutor", recording_pool)
    a = random_complex(np.random.default_rng(43), 18)  # 8 segments
    assert permanent_glynn_parallel(a, 64) == permanent_glynn(a)
    assert widths == [2]
