import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from helpers import reference_enumeration, sample_events

from scattershot import distribution
from scattershot import states as st
from scattershot.distribution import (
    DISTINGUISHABLE,
    INDISTINGUISHABLE,
    LossConfig,
    OutputDistribution,
    _distributions,
    _targets,
    bs_probability,
    distinguishable_probability,
    full_distribution,
    lossy_distribution,
    total_variation_distance,
)
from scattershot.errors import (
    InvalidComparisonError,
    InvalidConfigurationError,
    InvalidDistributionError,
)
from scattershot.linalg import haar_random_unitary, mode_indices, photon_number

BEAM_SPLITTER = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def two_photon_amplitude(u, s, t):
    """Second-quantized 2-photon transition probability by explicit path sum."""
    ins = mode_indices(s)
    outs = mode_indices(t)
    amp = sum(
        u[outs[p[0]], ins[0]] * u[outs[p[1]], ins[1]]
        for p in itertools.permutations(range(2))
    )
    norm = math.prod(math.factorial(int(k)) for k in s)
    norm *= math.prod(math.factorial(int(k)) for k in t)
    return abs(amp) ** 2 / norm


def test_identity_passthrough():
    u = np.eye(4, dtype=complex)
    assert bs_probability(u, [1, 0, 1, 0], [1, 0, 1, 0]) == pytest.approx(1.0, abs=1e-15)
    assert bs_probability(u, [1, 0, 1, 0], [0, 1, 1, 0]) == pytest.approx(0.0, abs=1e-15)
    assert distinguishable_probability(u, [1, 0, 1, 0], [1, 0, 1, 0]) == pytest.approx(1.0)


def test_hong_ou_mandel():
    assert bs_probability(BEAM_SPLITTER, [1, 1], [1, 1]) == pytest.approx(0.0, abs=1e-12)
    assert distinguishable_probability(BEAM_SPLITTER, [1, 1], [1, 1]) == pytest.approx(
        0.5, abs=1e-12
    )


def test_two_photon_brute_force_equivalence():
    for m in (2, 3, 4):
        u = haar_random_unitary(m, 70 + m)
        occ, _ = st.enumerate_states(m, 2, st.FULL_FOCK)
        for s in occ[:4]:
            for t in occ:
                assert bs_probability(u, s, t) == pytest.approx(
                    two_photon_amplitude(u, s, t), abs=1e-10
                )


def test_single_photon_models_agree():
    u = haar_random_unitary(5, 3)
    for j in range(5):
        t = np.zeros(5, dtype=int)
        t[j] = 1
        s = np.array([1, 0, 0, 0, 0])
        assert bs_probability(u, s, t) == pytest.approx(
            distinguishable_probability(u, s, t), abs=1e-14
        )
        assert bs_probability(u, s, t) == pytest.approx(abs(u[j, 0]) ** 2, abs=1e-14)


def test_full_fock_completeness():
    for seed in range(3):
        u = haar_random_unitary(3, seed)
        d = full_distribution(u, [1, 1, 0], family=st.FULL_FOCK)
        assert d.raw_mass == pytest.approx(1.0, abs=1e-9)
        d = full_distribution(u, [1, 1, 0], family=st.FULL_FOCK, model=DISTINGUISHABLE)
        assert d.raw_mass == pytest.approx(1.0, abs=1e-9)


def test_collision_free_mass_complement():
    u = haar_random_unitary(20, 5)
    cf = full_distribution(u, [1] * 3 + [0] * 17, family=st.COLLISION_FREE)
    ff = full_distribution(u, [1] * 3 + [0] * 17, family=st.FULL_FOCK)
    assert cf.raw_mass < 1.0
    collision_mass = ff.raw_mass - cf.raw_mass
    assert collision_mass == pytest.approx(1.0 - cf.raw_mass, abs=1e-9)
    assert 1.0 - cf.raw_mass < 0.5  # birthday regime, collisions are the minority


def test_identity_distinguishable_point_mass():
    u = np.eye(4, dtype=complex)
    d = full_distribution(u, [1, 1, 0, 0], model=DISTINGUISHABLE)
    (hit,) = np.flatnonzero(np.all(d.states == [1, 1, 0, 0], axis=1))
    assert d.probs[hit] == pytest.approx(1.0)
    assert d.raw_mass == pytest.approx(1.0)


def test_lossless_lossy_equals_full():
    u = haar_random_unitary(6, 9)
    lossy = lossy_distribution(u, [1, 1, 1, 0, 0, 0], LossConfig(0, 0))
    full = full_distribution(u, [1, 1, 1, 0, 0, 0], renormalize=True)
    assert np.allclose(lossy.probs, full.probs, atol=1e-12)


def test_input_loss_identity_mixture():
    u = np.eye(3, dtype=complex)
    d = lossy_distribution(u, [1, 1, 0], LossConfig(1, 0))
    assert d.n_detected == 1
    got = dict(zip(map(tuple, d.states.tolist()), d.probs.tolist()))
    assert got[(1, 0, 0)] == pytest.approx(0.5)
    assert got[(0, 1, 0)] == pytest.approx(0.5)
    assert got[(0, 0, 1)] == pytest.approx(0.0)


def test_output_loss_matches_direct_marginalization_oracle():
    # enumerate all 3-photon outputs, bin each onto its three 2-photon
    # sub-patterns with uniform weight, keep collision-free detected patterns
    m, n = 8, 3
    u = haar_random_unitary(m, 41)
    inp = [1, 1, 1, 0, 0, 0, 0, 0]
    _, modes = reference_enumeration(m, n, st.FULL_FOCK)
    oracle = {}
    for row in modes:
        p = bs_probability(u, inp, np.bincount(row, minlength=m))
        for drop in range(n):
            kept = tuple(x for k, x in enumerate(row.tolist()) if k != drop)
            if len(set(kept)) == len(kept):
                oracle[kept] = oracle.get(kept, 0.0) + p / n
    total = sum(oracle.values())

    d = lossy_distribution(u, inp, LossConfig(0, 1))
    for state, prob in zip(d.states, d.probs):
        kept = tuple(np.nonzero(state)[0].tolist())
        assert prob == pytest.approx(oracle.get(kept, 0.0) / total, abs=1e-12)


def _marginal_row_by_row(probs_n, modes_n, m, n_lost_out):
    """Reference output-loss binning: one dict lookup per (output, kept-photon subset)."""
    n = modes_n.shape[1]
    n_det = n - n_lost_out
    det_occ, det_modes = reference_enumeration(m, n_det, st.COLLISION_FREE)
    index = {tuple(row.tolist()): i for i, row in enumerate(det_modes)}
    out = np.zeros(det_modes.shape[0], dtype=np.float64)
    weight = 1.0 / math.comb(n, n_lost_out)
    for p, row in zip(probs_n, modes_n):
        for keep in itertools.combinations(row.tolist(), n_det):
            hit = index.get(keep)
            if hit is not None:
                out[hit] += p * weight
    return det_occ, out


def _lossy_oracle(u, heralded, loss, model):
    """Raw detected table of a heralded state under loss, built without the fast path.

    Input loss averages over the injected photon subsets. Each subset's
    full-Fock outputs get one per-state Glynn value each, and the row-by-row
    reference bins them onto their collision-free detected sub-patterns.
    """
    m = len(heralded)
    rule = bs_probability if model == INDISTINGUISHABLE else distinguishable_probability
    n = photon_number(heralded) - loss.n_lost_in
    _, modes = reference_enumeration(m, n, st.FULL_FOCK)
    subsets = list(itertools.combinations(mode_indices(heralded).tolist(), n))
    total = 0.0
    for sub in subsets:
        injected = np.bincount(sub, minlength=m)
        probs = [rule(u, injected, np.bincount(row, minlength=m)) for row in modes]
        det_occ, raw = _marginal_row_by_row(probs, modes, m, loss.n_lost_out)
        total = total + raw
    return det_occ, total / len(subsets)


def _assert_matches_oracle(d, want_occ, want):
    assert np.array_equal(d.states, want_occ)
    np.testing.assert_allclose(d.probs, want / want.sum(), rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(d.raw_mass, want.sum(), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("model", [INDISTINGUISHABLE, DISTINGUISHABLE])
@pytest.mark.parametrize("heralded,loss", [
    ([1, 1, 1, 1, 0, 0, 0, 0, 0], LossConfig(0, 1)),
    ([1, 1, 1, 1, 0, 0, 0, 0, 0], LossConfig(0, 2)),
    ([2, 1, 0, 1, 0, 0, 0, 0, 0], LossConfig(0, 1)),
    ([2, 1, 0, 1, 0, 0, 0, 0, 0], LossConfig(1, 1)),
    ([2, 1, 0, 1, 0, 0, 0, 0, 0], LossConfig(2, 0)),
    ([1, 1, 1, 1, 1, 0, 0, 0, 0, 0], LossConfig(2, 1)),
])
def test_lossy_table_matches_row_by_row_output_loss_oracle(heralded, loss, model):
    u = haar_random_unitary(len(heralded), 17)
    d = lossy_distribution(u, heralded, loss, model=model)
    _assert_matches_oracle(d, *_lossy_oracle(u, heralded, loss, model))


@settings(max_examples=40, deadline=None)
@given(data=hst.data())
def test_output_loss_is_input_loss_property(data):
    # uniform loss commutes with the interferometer: LossConfig(a, b) and
    # LossConfig(a + b, 0) both equal the output-loss oracle
    m = data.draw(hst.integers(2, 6), label="m")
    heralded = data.draw(hst.lists(hst.integers(0, 2), min_size=m, max_size=m)
                         .filter(lambda occ: 2 <= sum(occ) <= 4), label="heralded")
    n_her = sum(heralded)
    n_det = data.draw(hst.integers(1, min(n_her - 1, m)), label="n_det")
    a = data.draw(hst.integers(0, n_her - n_det), label="loss_in")
    loss = LossConfig(a, n_her - n_det - a)
    model = data.draw(hst.sampled_from([INDISTINGUISHABLE, DISTINGUISHABLE]), label="model")
    u = haar_random_unitary(m, data.draw(hst.integers(0, 2**32 - 1), label="seed"))
    want_occ, want = _lossy_oracle(u, heralded, loss, model)
    for config in (loss, LossConfig(loss.total, 0)):
        _assert_matches_oracle(lossy_distribution(u, heralded, config, model=model),
                               want_occ, want)


@pytest.mark.parametrize("loss", [LossConfig(0, 0), LossConfig(1, 0), LossConfig(0, 1),
                                  LossConfig(1, 1)])
def test_shared_builder_matches_separate_builds(loss):
    u = haar_random_unitary(8, 23)
    her = [1, 1, 1, 1, 0, 0, 0, 0]
    models = (INDISTINGUISHABLE, DISTINGUISHABLE)
    for got, model in zip(_distributions(u, her, loss, models), models):
        wants = [lossy_distribution(u, her, loss, model=model)]
        if loss == LossConfig(0, 0):
            wants.append(full_distribution(u, her, model=model, renormalize=True))
        for want in wants:
            assert np.array_equal(got.states, want.states)
            assert np.array_equal(got.probs, want.probs)
            assert (got.raw_mass, got.family, got.renormalized) == (
                want.raw_mass, want.family, want.renormalized)


def _per_state_table(u, heralded, n_det, states, model):
    """Raw table by one per-state Glynn value per (injected subset, output state).

    Subsets of heralded photons are listed as the parent builder listed them,
    repeats of a bunched state included.
    """
    m = len(heralded)
    rule = bs_probability if model == INDISTINGUISHABLE else distinguishable_probability
    subsets = [np.bincount(sub, minlength=m)
               for sub in itertools.combinations(mode_indices(heralded).tolist(), n_det)]
    return np.array([sum(rule(u, s, t) for s in subsets) for t in states]) / len(subsets)


@pytest.mark.parametrize("heralded,loss,family", [
    ([1, 1, 1, 0, 0, 0, 0], LossConfig(), st.COLLISION_FREE),
    ([1, 1, 1, 0, 0, 0, 0], LossConfig(), st.FULL_FOCK),
    ([2, 0, 1, 1, 0, 0, 0], LossConfig(), st.FULL_FOCK),
    ([1, 1, 1, 1, 0, 0, 0], LossConfig(1, 0), st.COLLISION_FREE),
    ([1, 1, 1, 1, 0, 0, 0], LossConfig(0, 1), st.COLLISION_FREE),
    ([2, 1, 0, 1, 0, 0, 0], LossConfig(1, 1), st.COLLISION_FREE),
    ([3, 0, 1, 1, 0, 0, 0], LossConfig(0, 2), st.COLLISION_FREE),
])
def test_tables_match_per_state_glynn(heralded, loss, family, monkeypatch):
    # the recursion and permanent_naive share one algorithm, so the reference
    # is Glynn, one state and one injected subset at a time
    u = haar_random_unitary(len(heralded), 29)
    models = (INDISTINGUISHABLE, DISTINGUISHABLE)
    dists = _distributions(u, heralded, loss, models, family, False)
    # rows are computed in chunks: tiny ones put many chunk edges in these tables
    monkeypatch.setattr(distribution, "EXPAND_ROWS", 4)
    chunked = _distributions(u, heralded, loss, models, family, False)
    for model, *tables in zip(models, dists, chunked):
        want = _per_state_table(u, heralded, tables[0].n_detected, tables[0].states, model)
        for d in tables:
            got = d.probs * d.raw_mass if d.renormalized else d.probs
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
            np.testing.assert_allclose(d.raw_mass, want.sum(), rtol=1e-12, atol=0.0)


def test_bunched_heralded_state_evaluates_each_injected_tuple_once():
    # photons in modes (0, 0, 1, 3): of the 6 two-photon subsets, (0, 1) and
    # (0, 3) each arise twice
    targets = _targets(np.array([2, 1, 0, 1, 0, 0, 0]), 2)
    assert targets == [((0, 0), 1), ((0, 1), 2), ((0, 3), 2), ((1, 3), 1)]


def test_two_model_build_memory_is_bounded():
    # 77520 states at m=20, n=7: their gathered (K, n, n) stack alone is 61 MB
    u = haar_random_unitary(20, 9)
    her = [1] * 7 + [0] * 13
    tracemalloc.start()
    try:
        _distributions(u, her, LossConfig(), (INDISTINGUISHABLE, DISTINGUISHABLE))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_probabilities_must_match_states():
    occ, _ = st.enumerate_states(4, 2, st.COLLISION_FREE)
    with pytest.raises(InvalidDistributionError):
        OutputDistribution(4, 2, st.COLLISION_FREE, occ, np.full(5, 0.2), 1.0, True)


@pytest.mark.parametrize("bad", [{"probs": [0.5, float("nan"), 0.5]},
                                 {"probs": [0.5, float("inf"), 0.5]},
                                 {"raw_mass": float("inf")}, {"raw_mass": float("nan")}])
@pytest.mark.parametrize("renormalized", [True, False])
def test_non_finite_values_are_refused(bad, renormalized):
    occ, _ = st.enumerate_states(3, 1, st.COLLISION_FREE)
    fields = {"probs": [0.25, 0.5, 0.25], "raw_mass": 1.0, **bad}
    with pytest.raises(InvalidDistributionError):
        OutputDistribution(3, 1, st.COLLISION_FREE, occ, fields["probs"], fields["raw_mass"],
                           renormalized)


def test_renormalizing_zero_mass_is_refused_by_name():
    # two photons in one mode of the identity never reach a collision-free state
    with pytest.raises(InvalidDistributionError, match="zero mass"):
        full_distribution(np.eye(2, dtype=complex), [2, 0], renormalize=True)


def test_lossy_normalization_and_errors():
    u = haar_random_unitary(7, 21)
    for loss in (LossConfig(1, 0), LossConfig(0, 1), LossConfig(1, 1)):
        d = lossy_distribution(u, [1, 1, 1, 1, 0, 0, 0], loss, model=DISTINGUISHABLE)
        assert d.probs.sum() == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(InvalidConfigurationError):
        lossy_distribution(u, [1, 1, 0, 0, 0, 0, 0], LossConfig(1, 1))
    # a bunched heralded state takes input loss: it equals output loss of the same total
    got = lossy_distribution(u, [2, 1, 0, 0, 0, 0, 0], LossConfig(1, 0))
    want = lossy_distribution(u, [2, 1, 0, 0, 0, 0, 0], LossConfig(0, 1))
    assert np.array_equal(got.states, want.states)
    np.testing.assert_allclose(got.probs, want.probs, rtol=1e-15, atol=0.0)


def test_tvd_basics():
    u = haar_random_unitary(6, 1)
    d = full_distribution(u, [1, 1, 0, 0, 0, 0], renormalize=True)
    assert total_variation_distance(d, d) == 0.0
    point = np.zeros_like(d.probs)
    point[0] = 1.0
    other = np.zeros_like(d.probs)
    other[1] = 1.0
    pa = OutputDistribution(6, 2, d.family, d.states, point, 1.0, True)
    pb = OutputDistribution(6, 2, d.family, d.states, other, 1.0, True)
    assert total_variation_distance(pa, pb) == 1.0


def test_tvd_axioms_on_random_distributions():
    rng = np.random.default_rng(8)
    occ, _ = st.enumerate_states(5, 2, st.COLLISION_FREE)
    dists = []
    for _ in range(3):
        p = rng.random(occ.shape[0])
        p /= p.sum()
        dists.append(OutputDistribution(5, 2, st.COLLISION_FREE, occ, p, 1.0, True))
    a, b, c = dists
    assert total_variation_distance(a, b) == pytest.approx(total_variation_distance(b, a))
    assert 0.0 <= total_variation_distance(a, b) <= 1.0
    assert total_variation_distance(a, c) <= (
        total_variation_distance(a, b) + total_variation_distance(b, c) + 1e-12
    )


def test_tvd_family_mismatch():
    u = haar_random_unitary(6, 1)
    d2 = full_distribution(u, [1, 1, 0, 0, 0, 0], renormalize=True)
    d3 = full_distribution(u, [1, 1, 1, 0, 0, 0], renormalize=True)
    with pytest.raises(InvalidComparisonError):
        total_variation_distance(d2, d3)
    unnorm = full_distribution(u, [1, 1, 0, 0, 0, 0])
    with pytest.raises(InvalidComparisonError):
        total_variation_distance(unnorm, unnorm)


def test_tvd_requires_matching_state_lists():
    u = haar_random_unitary(6, 1)
    d = full_distribution(u, [1, 1, 0, 0, 0, 0], renormalize=True)
    order = np.arange(len(d))[::-1]
    flipped = OutputDistribution(6, 2, d.family, d.states[order], d.probs[order], 1.0, True)
    with pytest.raises(InvalidComparisonError):
        total_variation_distance(d, flipped)


def test_tvd_reference_value_bunched_input():
    # distance between 1-1-1 and 2-1-0 inputs at n=3, m=15 sits near 0.47
    vals = []
    for ss in np.random.SeedSequence(70).spawn(20):
        u = haar_random_unitary(15, ss)
        ref = full_distribution(u, [1, 1, 1] + [0] * 12, renormalize=True)
        alt = full_distribution(u, [2, 1, 0] + [0] * 12, renormalize=True)
        vals.append(total_variation_distance(ref, alt))
    assert abs(np.mean(vals) - 0.473) < 2 * 0.054


def test_sampling_point_mass_and_determinism():
    occ, _ = st.enumerate_states(4, 2, st.COLLISION_FREE)
    p = np.zeros(occ.shape[0])
    p[3] = 1.0
    d = OutputDistribution(4, 2, st.COLLISION_FREE, occ, p, 1.0, True)
    events = sample_events(d, 5, 50)
    assert np.all(events == occ[3])
    a = sample_events(d, 5, 50)
    assert np.array_equal(events, a)


def test_sampling_uniform_frequencies():
    occ, _ = st.enumerate_states(4, 1, st.COLLISION_FREE)
    p = np.full(4, 0.25)
    d = OutputDistribution(4, 1, st.COLLISION_FREE, occ, p, 1.0, True)
    events = sample_events(d, 9, 100_000)
    counts = events.sum(axis=0).astype(np.int64)
    se = np.sqrt(0.25 * 0.75 * 100_000)
    assert np.all(np.abs(counts - 25_000) < 5 * se)


@pytest.mark.parametrize("build", ["full", "lossy-in", "lossy-out", "full-fock"])
def test_each_build_enumerates_its_basis_once(monkeypatch, build):
    calls = []
    enumerate_states = st.enumerate_states

    def counting(m, n, family):
        calls.append((m, n, family))
        return enumerate_states(m, n, family)

    monkeypatch.setattr(st, "enumerate_states", counting)
    u = haar_random_unitary(6, 8)
    if build == "full":
        full_distribution(u, [1, 1, 1, 0, 0, 0])
    elif build == "full-fock":
        full_distribution(u, [1, 1, 1, 0, 0, 0], family=st.FULL_FOCK)
    else:
        loss = LossConfig(1, 0) if build == "lossy-in" else LossConfig(0, 1)
        lossy_distribution(u, [1, 1, 1, 0, 0, 0], loss, model=DISTINGUISHABLE)
    family = st.FULL_FOCK if build == "full-fock" else st.COLLISION_FREE
    assert calls == [(6, 3 if build.startswith("full") else 2, family)]


@settings(max_examples=150, deadline=None)
@given(data=hst.data())
def test_lookup_matches_searchsorted_property(data):
    # the oracle is numpy's unsorted search over the same pinned CDF
    weight = hst.sampled_from([0.0, 1.0]) | hst.floats(0.0, 1.0, allow_subnormal=False)
    weights = data.draw(hst.lists(weight, min_size=1, max_size=30))
    probs = np.array(weights)
    if probs.sum() == 0.0:
        probs[data.draw(hst.integers(0, probs.size - 1))] = 1.0  # a point mass
    # scaled up by a few ulps, the cumsum can round above 1.0 before the last
    # entry is pinned to it
    probs *= data.draw(hst.sampled_from([1.0, 1.0 + 2**-52, 1.0 + 2**-50])) / probs.sum()
    cdf = distribution._cdf(probs)
    chunk = distribution.LOOKUP_CHUNK
    count = data.draw(hst.sampled_from([0, 1, 7, chunk - 1, chunk, chunk + 1]))
    rng = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1)))
    uniforms = rng.random(count)
    # keys equal to a CDF entry below 1.0, to 0.0 or to the largest uniform,
    # at random positions
    special = np.concatenate([cdf[cdf < 1.0], [0.0, 1.0 - 2**-53]])
    at = rng.integers(0, count, size=min(count, 3 * special.size)) if count else []
    uniforms[at] = rng.choice(special, size=len(at))
    got = distribution._lookup(cdf, uniforms, np.empty(count, np.int64))
    assert np.array_equal(got, np.searchsorted(cdf, uniforms, side="right"))


def test_sampling_requires_renormalized():
    u = haar_random_unitary(5, 2)
    d = full_distribution(u, [1, 1, 0, 0, 0])
    with pytest.raises(InvalidDistributionError):
        sample_events(d, 0, 10)
