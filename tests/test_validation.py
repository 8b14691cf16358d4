import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from scattershot import sources, validation
from scattershot import states as st
from scattershot.distribution import (
    DISTINGUISHABLE,
    INDISTINGUISHABLE,
    MAX_DRAWS,
    LossConfig,
    OutputDistribution,
    lossy_distribution,
)
from scattershot.errors import (
    DegenerateHypothesisError,
    InstanceTooLargeError,
    InsufficientDataError,
    InvalidConfigurationError,
)
from scattershot.linalg import haar_random_unitary
from scattershot.validation import (
    FIRST_PREFIX,
    MAX_ENSEMBLE,
    _log_ratios,
    fit_sample_scaling,
    min_samples_to_validate,
)


def test_trajectory_single_event_arithmetic():
    # the per-event log-ratio whose running sum validate tracks: V_1 = 0.5 / 0.25
    occ, _ = st.enumerate_states(3, 1, st.COLLISION_FREE)
    p = OutputDistribution(3, 1, st.COLLISION_FREE, occ, np.array([0.5, 0.3, 0.2]), 1.0, True)
    q = OutputDistribution(3, 1, st.COLLISION_FREE, occ, np.array([0.25, 0.55, 0.2]), 1.0, True)
    assert np.exp(_log_ratios(p, q)[0]) == pytest.approx(2.0, rel=1e-12)


def test_trajectory_degenerate_denominator():
    occ, _ = st.enumerate_states(3, 1, st.COLLISION_FREE)
    p = OutputDistribution(3, 1, st.COLLISION_FREE, occ, np.array([0.5, 0.5, 0.0]), 1.0, True)
    q = OutputDistribution(3, 1, st.COLLISION_FREE, occ, np.array([0.0, 0.5, 0.5]), 1.0, True)
    with pytest.raises(DegenerateHypothesisError):
        _log_ratios(p, q)


def test_min_samples_deterministic():
    a = min_samples_to_validate(10, 3, LossConfig(0, 0), ensemble=4, trials=200, seed=5,
                                max_samples=200)
    b = min_samples_to_validate(10, 3, LossConfig(0, 0), ensemble=4, trials=200, seed=5,
                                max_samples=200)
    assert np.array_equal(a.per_unitary, b.per_unitary)
    assert a.min_samples_mean == b.min_samples_mean
    assert a.n_detected == 3


# (m, n, loss, max_samples) -> per-unitary minima at ensemble=10, trials=500,
# seed=1. The output-loss figures come from the earlier full-Fock output-loss
# path, which building the table on the detected basis must not move; the
# other two from the unsorted inverse-CDF search, which the chunked lookup
# must not move.
PINNED_MINIMA = {
    "m20-n3-loss-out-1": ((20, 3, LossConfig(0, 1), 1500),
                          [118, 105, 109, 89, 104, 98, 90, 91, 101, 107]),
    "m30-n5-lossless": ((30, 5, LossConfig(0, 0), 200), [10, 11, 10, 11, 11, 12, 13, 9, 9, 10]),
    "m20-n4-loss-in-1": ((20, 4, LossConfig(1, 0), 700), [43, 34, 44, 43, 49, 42, 44, 40, 44, 36]),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(PINNED_MINIMA))
def test_minima_are_pinned(case, workers):
    (m, n, loss, max_samples), minima = PINNED_MINIMA[case]
    r = min_samples_to_validate(m, n, loss, ensemble=10, trials=500, seed=1,
                                max_samples=max_samples, workers=workers)
    assert r.per_unitary.tolist() == minima


def test_validate_pool_width_is_bounded_by_cpu_count(monkeypatch):
    widths = []

    def recording_pool(max_workers, **kwargs):
        widths.append(max_workers)
        return ThreadPoolExecutor(max_workers=max_workers, **kwargs)

    args = dict(m=10, n=3, loss=LossConfig(0, 1), ensemble=4, trials=100, seed=5,
                max_samples=400)
    serial = min_samples_to_validate(**args)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sources, "ThreadPoolExecutor", recording_pool)
    pooled = min_samples_to_validate(**args, workers=64)
    assert np.array_equal(pooled.per_unitary, serial.per_unitary)
    assert widths == [2]


@pytest.mark.parametrize("ensemble,workers", [(2, 1), (5, 1), (5, 2)])
def test_ensemble_enumerates_its_basis_once(monkeypatch, ensemble, workers):
    calls = []
    enumerate_states = st.enumerate_states

    def counting(m, n, family):
        calls.append((m, n, family))
        return enumerate_states(m, n, family)

    monkeypatch.setattr(st, "enumerate_states", counting)
    min_samples_to_validate(10, 3, LossConfig(0, 1), ensemble=ensemble, trials=100, seed=5,
                            max_samples=400, workers=workers)
    assert calls == [(10, 2, st.COLLISION_FREE)]


def test_min_samples_sane_range_smoke():
    r = min_samples_to_validate(12, 3, LossConfig(0, 0), ensemble=6, trials=200, seed=1,
                                max_samples=300)
    assert 5 <= r.min_samples_mean <= 60
    assert r.trials_per_unitary == 200
    assert r.unitaries_used == 6


def test_input_losses_raise_sample_demand():
    lossless = min_samples_to_validate(12, 3, LossConfig(0, 0), ensemble=8, trials=200,
                                       seed=2, max_samples=600)
    lossy = min_samples_to_validate(12, 3, LossConfig(1, 0), ensemble=8, trials=200,
                                    seed=2, max_samples=600)
    assert lossy.min_samples_mean > lossless.min_samples_mean


def test_mode_independence_above_complexity_threshold():
    means, stds = [], []
    for m in (15, 20, 30):
        r = min_samples_to_validate(m, 3, LossConfig(0, 0), ensemble=12, trials=300,
                                    seed=31, max_samples=300)
        means.append(r.min_samples_mean)
        stds.append(r.min_samples_std)
    for i in range(len(means)):
        for j in range(i + 1, len(means)):
            assert abs(means[i] - means[j]) < stds[i] + stds[j]


def test_min_samples_argument_validation():
    with pytest.raises(InvalidConfigurationError):
        min_samples_to_validate(10, 3, LossConfig(0, 3), ensemble=4, trials=200, seed=0)
    with pytest.raises(InvalidConfigurationError):
        min_samples_to_validate(4, 3, LossConfig(2, 0), ensemble=4, trials=200, seed=0)
    with pytest.raises(InsufficientDataError):
        min_samples_to_validate(10, 3, LossConfig(0, 0), ensemble=2, trials=200, seed=0,
                                max_samples=2)


def test_oversized_draw_table_is_refused_before_any_unitary(monkeypatch):
    def no_unitary(*args):
        raise AssertionError("a unitary was built")

    monkeypatch.setattr(validation, "haar_random_unitary", no_unitary)
    with pytest.raises(InstanceTooLargeError):
        min_samples_to_validate(10, 3, LossConfig(0, 0), ensemble=2, trials=50,
                                max_samples=MAX_DRAWS // 50 + 1)


def test_oversized_ensemble_is_refused_before_any_spawn(monkeypatch):
    def no_unitary(*args):
        raise AssertionError("a unitary was built")

    def no_seeds(*args, **kwargs):
        raise AssertionError("a seed sequence was made")

    monkeypatch.setattr(validation, "haar_random_unitary", no_unitary)
    monkeypatch.setattr(np.random, "SeedSequence", no_seeds)
    with pytest.raises(InstanceTooLargeError):
        min_samples_to_validate(10, 3, LossConfig(0, 0), ensemble=MAX_ENSEMBLE + 1, trials=50,
                                max_samples=100)


def _full_stream_minima(m, n, loss, ensemble, trials, seed, max_samples, confidence=0.95):
    """Per-unitary minima by the whole-stream search: every column of every
    stream is looked up and summed before the first hit is taken."""
    minima = []
    for child in np.random.SeedSequence(seed).spawn(ensemble):
        u_ss, stream_ss = child.spawn(2)
        u = haar_random_unitary(m, u_ss)
        heralded = np.zeros(m, dtype=np.uint8)
        heralded[: n + loss.n_lost_in] = 1
        p_bs = lossy_distribution(u, heralded, loss, model=INDISTINGUISHABLE)
        p_cl = lossy_distribution(u, heralded, loss, model=DISTINGUISHABLE)
        log_r = _log_ratios(p_bs, p_cl)
        rng = np.random.Generator(np.random.PCG64(stream_ss))
        draws = rng.random(trials * max_samples).reshape(trials, max_samples)
        cdf = np.cumsum(p_bs.probs)
        cdf[-1] = 1.0
        idx = np.searchsorted(cdf, draws, side="right")
        cums = np.cumsum(log_r[idx], axis=1)
        hits = np.nonzero(np.mean(cums > 0.0, axis=0) >= confidence)[0]
        if hits.size == 0:
            raise InsufficientDataError(
                f"validation did not reach {confidence:.0%} within {max_samples} samples"
            )
        minima.append(int(hits[0]) + 1)
    return np.array(minima)


# (loss, max_samples, where the largest answer must fall for the case to test
# what it names); the prefixes read are [0, 32), [32, 64), [64, 128), ...
PREFIX_CASES = {
    "lossless-first-block": (LossConfig(0, 0), 400, lambda top: top <= FIRST_PREFIX),
    "output-loss-past-two-boundaries": (LossConfig(0, 1), 400,
                                        lambda top: top > 2 * FIRST_PREFIX),
    "partial-last-block": (LossConfig(0, 1), 170, lambda top: top > 4 * FIRST_PREFIX),
}


@pytest.mark.parametrize("case", sorted(PREFIX_CASES))
def test_prefix_reading_matches_full_stream_search(case):
    loss, max_samples, reaches = PREFIX_CASES[case]
    want = _full_stream_minima(8, 3, loss, 3, 100, 4, max_samples)
    got = min_samples_to_validate(8, 3, loss, ensemble=3, trials=100, seed=4,
                                  max_samples=max_samples).per_unitary
    assert reaches(int(want.max()))
    assert np.array_equal(got, want)


def test_prefix_reading_cap_matches_full_stream_search():
    loss = LossConfig(0, 1)
    with pytest.raises(InsufficientDataError) as want:
        _full_stream_minima(8, 3, loss, 3, 100, 4, 70)
    with pytest.raises(InsufficientDataError) as got:
        min_samples_to_validate(8, 3, loss, ensemble=3, trials=100, seed=4, max_samples=70)
    assert str(got.value) == str(want.value)


def test_fit_sample_scaling_exact():
    a, b = fit_sample_scaling([(n, 10.0 + 500.0 * n**-3) for n in range(3, 9)])
    assert a == pytest.approx(10.0, abs=1e-9)
    assert b == pytest.approx(500.0, abs=1e-9)


def test_fit_sample_scaling_constant():
    a, b = fit_sample_scaling([(n, 42.0) for n in range(3, 8)])
    assert a == pytest.approx(42.0, abs=1e-9)
    assert b == pytest.approx(0.0, abs=1e-9)


def test_fit_sample_scaling_needs_points():
    with pytest.raises(InsufficientDataError):
        fit_sample_scaling([(3, 50.0), (3, 52.0)])


def test_fit_quality_on_generated_lossless_data():
    # fitted curve should track measured lossless demands within 15% RMS
    pts = []
    for n in (3, 4, 5):
        r = min_samples_to_validate(20, n, LossConfig(0, 0), ensemble=10, trials=300,
                                    seed=13, max_samples=300)
        pts.append((n, r.min_samples_mean))
    a, b = fit_sample_scaling(pts)
    resid = [s - (a + b * n**-3) for n, s in pts]
    rms = np.sqrt(np.mean(np.square(resid)))
    mean_count = np.mean([s for _, s in pts])
    assert rms < 0.15 * mean_count
