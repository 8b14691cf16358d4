import math
import os
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from math import comb
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from scattershot import sources
from scattershot.cli import main
from scattershot.errors import InstanceTooLargeError, InvalidConfigurationError
from scattershot.sources import (
    MAX_MODES,
    MAX_TRIALS,
    MwParams,
    QdParams,
    SpdcParams,
    monte_carlo_mw,
    monte_carlo_spdc,
    p_mw_in,
    p_mw_lossy,
    p_mw_lossy_dark,
    p_qd,
    p_qd_lossy_one,
    p_sbs,
    p_sbs_fake,
    p_sbs_lossy,
)

SPDC_REF = SpdcParams(g=0.02, eta_t=0.6, p_in=0.7, eta_d=0.6)
MW_REF = MwParams(p_in=0.9, eta_d=0.7, p_dark=0.1, t_step=0.3e-6)


# ---------------------------------------------------------------- oracles


def p_gen2(m, s, t, g):
    """Probability that s of m sources make single pairs and t make double pairs."""
    return comb(m, s) * comb(m - s, t) * g**s * (g * g) ** t * (1 - g - g * g) ** (m - s - t)


def exact_spdc_classes(m, n, params, max_lost=2):
    """Exact event-class probabilities by full enumeration of the shot process.

    Independent of the closed forms: sums over generation configurations,
    trigger outcomes, per-mode injection outcomes and detection counts.
    """
    g, eta_t, p_in, eta_d = params.g, params.eta_t, params.p_in, params.eta_d
    eta_t2 = params.eta_t2
    trig_weight = {}
    for s in range(0, m + 1):
        for t in range(0, m - s + 1):
            pg = p_gen2(m, s, t, g)
            if pg == 0.0:
                continue
            for st_ in range(0, s + 1):
                ps = comb(s, st_) * eta_t**st_ * (1 - eta_t) ** (s - st_)
                for dt in range(0, t + 1):
                    if st_ + dt != n:
                        continue
                    pd = comb(t, dt) * eta_t2**dt * (1 - eta_t2) ** (t - dt)
                    key = (st_, dt)
                    trig_weight[key] = trig_weight.get(key, 0.0) + pg * ps * pd
    out = {"success": 0.0, "fake": 0.0}
    for k in range(1, max_lost + 1):
        out[f"lossy{k}"] = 0.0
    for (st_, dt), pw in trig_weight.items():
        for z in range(0, st_ + 1):  # singles injecting their photon
            pz = comb(st_, z) * p_in**z * (1 - p_in) ** (st_ - z)
            for x in range(0, dt + 1):  # pairs injecting both photons
                for y in range(0, dt - x + 1):  # pairs injecting exactly one
                    ways = math.factorial(dt) // (
                        math.factorial(x) * math.factorial(y) * math.factorial(dt - x - y)
                    )
                    pxy = (
                        ways
                        * p_in ** (2 * x)
                        * (2 * p_in * (1 - p_in)) ** y
                        * (1 - p_in) ** (2 * (dt - x - y))
                    )
                    n_inj = z + 2 * x + y
                    correct = z == st_ and x == 0 and y == dt
                    subset = x == 0
                    for det in range(0, n_inj + 1):
                        pdet = comb(n_inj, det) * eta_d**det * (1 - eta_d) ** (n_inj - det)
                        p_event = pw * pz * pxy * pdet
                        if det == n:
                            out["success" if correct else "fake"] += p_event
                        elif subset and n - det <= max_lost:
                            out[f"lossy{n - det}"] += p_event
    return out


def exact_mw_apparent(m, n, params):
    """Exact apparent-loss-class probabilities of the microwave process."""
    out = {}
    p_in, eta_d, p_d = params.p_in, params.eta_d, params.p_dark
    for k in range(0, n + 1):
        pk = comb(n, k) * p_in**k * (1 - p_in) ** (n - k)
        for r in range(0, k + 1):
            pr = comb(k, r) * eta_d**r * (1 - eta_d) ** (k - r)
            for j in range(0, m - k + 1):
                pj = comb(m - k, j) * p_d**j * (1 - p_d) ** (m - k - j)
                lost = n - (r + j)
                out[lost] = out.get(lost, 0.0) + pk * pr * pj
    return out


# ----------------------------------------------------------- SPDC closed forms


def test_p_gen2_single_source_cases():
    g = 0.02
    assert p_gen2(1, 1, 0, g) == pytest.approx(0.02, rel=1e-12)
    assert p_gen2(1, 0, 1, g) == pytest.approx(0.0004, rel=1e-12)
    assert p_gen2(1, 0, 0, g) == pytest.approx(0.9796, rel=1e-12)


def test_p_gen2_no_generation():
    g = 0.05
    assert p_gen2(12, 0, 0, g) == pytest.approx((1 - g - g * g) ** 12, rel=1e-12)


def test_p_gen2_completeness():
    for m in (1, 5, 20, 50):
        total = sum(p_gen2(m, s, t, 0.03) for s in range(m + 1) for t in range(m - s + 1))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_p_sbs_no_detection():
    assert p_sbs(6, 2, replace(SPDC_REF, eta_d=0.0)) == 0.0


def test_p_sbs_leading_order_small_g():
    # at g -> 0 only single-pair, fully-triggered terms survive:
    # p_sbs ~ C(m,n) (g eta_t p_in eta_d)^n (1 - g eta_t - g^2)^(m-n)
    g = 1e-6
    params = SpdcParams(g=g, eta_t=1.0, p_in=0.7, eta_d=0.6)
    m, n = 8, 2
    lead = (
        comb(m, n)
        * (g * params.p_in * params.eta_d) ** n
        * (1 - g - g * g) ** (m - n)
    )
    assert p_sbs(m, n, params) == pytest.approx(lead, rel=1e-3)


def test_p_sbs_matches_exact_enumeration():
    for (m, n) in ((4, 2), (5, 3)):
        exact = exact_spdc_classes(m, n, SPDC_REF)
        assert p_sbs(m, n, SPDC_REF) == pytest.approx(exact["success"], rel=1e-12)


def test_p_sbs_monte_carlo_agreement():
    mc = monte_carlo_spdc(10, 2, SPDC_REF, 1_000_000, 21)
    assert mc.success.sigmas_from(p_sbs(10, 2, SPDC_REF)) < 3.0


def test_p_sbs_fake_vanishes_faster_than_success():
    m, n = 8, 2
    ratios = []
    for g in (0.02, 0.002, 0.0002):
        params = SpdcParams(g=g, eta_t=0.6, p_in=0.7, eta_d=0.6)
        ratios.append(p_sbs(m, n, params) / p_sbs_fake(m, n, params))
    assert ratios[1] > 5 * ratios[0]
    assert ratios[2] > 5 * ratios[1]


def test_success_to_fake_ratio_decreases_with_modes():
    prev = None
    for m in range(10, 101, 10):
        eta_d = 0.6 - 0.25 * (m - 10) / 90
        params = replace(SPDC_REF, eta_d=eta_d)
        ratio = p_sbs(m, 4, params) / p_sbs_fake(m, 4, params)
        if prev is not None:
            assert ratio < prev
        prev = ratio


FAKE_MN = ((6, 1), (6, 2), (6, 3), (7, 4), (5, 5), (10, 2), (10, 3))


@pytest.mark.parametrize(
    "params,mns",
    [
        (SPDC_REF, FAKE_MN),
        (replace(SPDC_REF, eta_d=1.0), FAKE_MN),
        (replace(SPDC_REF, g=1e-4), FAKE_MN),
        (replace(SPDC_REF, eta_d=1.0), ((6, 1), (3, 1))),  # no fake can be detected
    ],
    ids=["reference", "eta_d=1", "g=1e-4", "n=1,eta_d=1"],
)
def test_p_sbs_fake_matches_exact_process(params, mns):
    for m, n in mns:
        exact = exact_spdc_classes(m, n, params)["fake"]
        formula = p_sbs_fake(m, n, params)
        assert formula >= 0.0
        if exact == 0.0 or (n == 1 and params.eta_d == 1.0):
            assert formula == 0.0 == exact, (m, n)
        else:
            assert math.isclose(formula, exact, rel_tol=1e-12, abs_tol=0.0), (m, n)


def test_sources_cli_fake_row_matches_exact_process(capsys):
    # the shipped config's eta_D schedule starts at 0.6 at m = 10: SPDC_REF
    config = Path(__file__).resolve().parents[1] / "configs" / "spdc.json"
    assert main(["sources", "--config", str(config), "--m", "10", "--n", "3",
                 "--trials", "20000", "--seed", "1"]) == 0
    rows = {r[0]: r for r in (ln.split(",") for ln in capsys.readouterr().out.splitlines()
                              if not ln.startswith("#"))}
    exact = exact_spdc_classes(10, 3, SPDC_REF)["fake"]
    assert math.isclose(float(rows["fake"][1]), exact, rel_tol=1e-12, abs_tol=0.0)


def test_p_sbs_fake_monte_carlo_agreement():
    mc = monte_carlo_spdc(10, 2, SPDC_REF, 1_000_000, 21)
    assert mc.fake.sigmas_from(p_sbs_fake(10, 2, SPDC_REF)) < 3.0


def test_p_sbs_lossy_reduces_to_success():
    for (m, n) in ((6, 2), (10, 3), (15, 4)):
        a = p_sbs_lossy(m, n, 0, SPDC_REF)
        b = p_sbs(m, n, SPDC_REF)
        assert abs(a - b) <= 1e-12 * max(a, b)


def test_p_sbs_lossy_input_only_manual_expansion():
    # eta_d = 1 forces i = n_lost (all losses at injection); n=2, n_lost=1:
    # sum over generations of [single fails] + [pair injects neither]
    params = SpdcParams(g=0.015, eta_t=0.8, p_in=0.6, eta_d=1.0)
    m, n = 4, 2
    g, et, et2, p = params.g, params.eta_t, params.eta_t2, params.p_in
    manual = 0.0
    for q in range(n, m + 1):
        for t in range(0, q + 1):
            s = q - t
            pg = p_gen2(m, s, t, g)
            for n1 in range(max(n - t, 0), min(s, n) + 1):
                trig = (
                    et**n1
                    * et2 ** (n - n1)
                    * (1 - et) ** (s - n1)
                    * comb(s, n1)
                    * (1 - et2) ** (t - n + n1)
                    * comb(t, n - n1)
                )
                # exactly one of the n heralded modes injects nothing
                inj = 0.0
                for j in (0, 1):  # failures among the n1 singles
                    fail_pairs = 1 - j
                    if j > n1 or fail_pairs > n - n1:
                        continue
                    inj += (
                        comb(n1, j)
                        * p ** (n1 - j)
                        * (1 - p) ** j
                        * comb(n - n1, fail_pairs)
                        * ((1 - p) ** 2) ** fail_pairs
                        * (2 * p * (1 - p)) ** (n - n1 - fail_pairs)
                    )
                manual += pg * trig * inj
    assert p_sbs_lossy(m, n, 1, params) == pytest.approx(manual, rel=1e-12)


def test_p_sbs_lossy_matches_exact_enumeration():
    for (m, n, k) in ((4, 2, 1), (5, 3, 1), (5, 3, 2)):
        exact = exact_spdc_classes(m, n, SPDC_REF)
        assert p_sbs_lossy(m, n, k, SPDC_REF) == pytest.approx(exact[f"lossy{k}"], rel=1e-12)


def test_p_sbs_lossy_monte_carlo_agreement():
    mc = monte_carlo_spdc(10, 3, SPDC_REF, 1_000_000, 21)
    assert mc.lossy[1].sigmas_from(p_sbs_lossy(10, 3, 1, SPDC_REF)) < 3.0


# values of the former (q, t)-loop closed forms at the reference parameters;
# `fake` as the exact thinning sum gives it (within 7e-14 of exact_spdc_classes)
GOLDEN_SPDC = {
    (60, 7): {
        "success": 1.8568270341663737e-08,
        "fake": 1.6589411339804296e-08,
        "lossy1": 1.7872629791360357e-07,
        "lossy2": 7.372736004131874e-07,
    },
    (120, 10): {
        "success": 3.70159218006046e-10,
        "fake": 7.993365352190475e-10,
        "lossy1": 5.0898799369258945e-09,
        "lossy2": 3.149481204424279e-08,
    },
}


@pytest.mark.parametrize("m,n", sorted(GOLDEN_SPDC))
def test_spdc_closed_forms_golden_values(m, n):
    want = GOLDEN_SPDC[(m, n)]
    got = {
        "success": p_sbs(m, n, SPDC_REF),
        "fake": p_sbs_fake(m, n, SPDC_REF),
        "lossy1": p_sbs_lossy(m, n, 1, SPDC_REF),
        "lossy2": p_sbs_lossy(m, n, 2, SPDC_REF),
    }
    for key, value in want.items():
        assert math.isclose(got[key], value, rel_tol=1e-12, abs_tol=0.0), key


def test_monte_carlo_empty_source():
    mc = monte_carlo_spdc(6, 2, SpdcParams(g=0.0, eta_t=0.6, p_in=0.7, eta_d=0.6),
                          20_000, 3)
    assert mc.success.probability == 0.0
    assert mc.fake.probability == 0.0
    assert mc.lossy[1].probability == 0.0


def test_monte_carlo_matches_exact_process_every_class():
    # 7 values (n=2: success, fake, lossy1; n=3: success, fake, lossy1,
    # lossy2), each within 4 sigma of the exact process with the stderr of the
    # exact probability: two-sided 6.3e-5 each, family-wise <= 4.4e-4
    # (Bonferroni). g = 0.3 populates every class, fakes included, and gives
    # more active sources per chunk than MC_CHUNK, so the grouped draw runs.
    params = SpdcParams(g=0.3, eta_t=0.6, p_in=0.7, eta_d=0.6)
    trials = 1_000_000
    for n in (2, 3):
        exact = exact_spdc_classes(5, n, params, max_lost=n - 1)
        mc = monte_carlo_spdc(5, n, params, trials, 5)
        got = {"success": mc.success, "fake": mc.fake}
        got.update({f"lossy{k}": est for k, est in mc.lossy.items()})
        assert set(got) == set(exact)
        for name, p in exact.items():
            z = (got[name].probability - p) / math.sqrt(p * (1.0 - p) / trials)
            assert abs(z) < 4.0, (n, name, z)


@pytest.mark.parametrize("g,trials", [(0.02, 200_000), (0.3, 50_000)])
def test_monte_carlo_memory_is_bounded(g, trials):
    # a dense (shots x m) draw needs ~550 MB at g = 0.02; at g = 0.3 the
    # ~2e6 active sources of one chunk need ~55 MB unless drawn in groups
    tracemalloc.start()
    try:
        monte_carlo_spdc(100, 4, SpdcParams(g=g, eta_t=0.6, p_in=0.7, eta_d=0.6), trials, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@pytest.mark.parametrize("sampler,args", [
    (monte_carlo_spdc, (10, 3, SPDC_REF)), (monte_carlo_mw, (16, 3, MW_REF))], ids=["spdc", "mw"])
def test_monte_carlo_chunk_memory_does_not_grow_with_chunk_size(sampler, args):
    # a chunk draws its branch counts, not a value per shot: per-shot draws of
    # 200000-shot chunks peaked at 1.8 MB (SPDC) and 2.7 MB (microwave); the
    # first call is made untraced, since it imports numpy.random's generators
    sampler(*args, 20_000, 9)
    tracemalloc.start()
    try:
        sampler(*args, 1_000_000, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**10


def test_monte_carlo_deterministic_and_worker_invariant():
    a = monte_carlo_spdc(6, 2, SPDC_REF, 450_000, 17, workers=1)
    b = monte_carlo_spdc(6, 2, SPDC_REF, 450_000, 17, workers=3)
    assert a.success.probability == b.success.probability
    assert a.fake.probability == b.fake.probability
    assert a.lossy[1].probability == b.lossy[1].probability


def _assert_within(mc_counts, exact, trials, z_max):
    """Each frequency within z_max stderrs of its exact probability, the
    stderr taken from that probability; an impossible or certain class must
    read exactly 0 or 1."""
    for name, p in exact.items():
        got = mc_counts[name].probability
        if p in (0.0, 1.0):
            assert got == p, (name, got)
        else:
            z = (got - p) / math.sqrt(p * (1.0 - p) / trials)
            assert abs(z) < z_max, (name, z)


def test_monte_carlo_n_equals_m_matches_exact_process():
    # 5 values within 4.5 sigma: two-sided 6.8e-6 each, family-wise <= 3.4e-5;
    # the smallest class (success) expects about 1000 hits
    params = SpdcParams(g=0.5, eta_t=0.6, p_in=0.7, eta_d=0.6)
    trials = 1_000_000
    mc = monte_carlo_spdc(4, 4, params, trials, 13)
    got = {"success": mc.success, "fake": mc.fake}
    got.update({f"lossy{k}": est for k, est in mc.lossy.items()})
    exact = exact_spdc_classes(4, 4, params, max_lost=3)
    assert set(got) == set(exact)
    _assert_within(got, exact, trials, 4.5)


def _pmf_reference(T, q):
    """P(X = k), k = 0..T, for X ~ Binomial(T, q), with math.comb."""
    return [comb(T, k) * q**k * (1.0 - q) ** (T - k) for k in range(T + 1)]


@pytest.mark.parametrize("q", [0.0, 1.0, 1e-4, 0.02, 0.1, 0.5, 0.9])
def test_binomial_pmf_matches_comb_reference(q):
    # T = 0 is the point mass [1]; q = 0 and q = 1 put all mass on k = 0 and
    # k = T with exact zeros elsewhere
    for T in range(0, 61):
        got = sources._binomial_pmf(T, q)
        want = _pmf_reference(T, q)
        assert got.shape == (T + 1,)
        for k, (a, b) in enumerate(zip(got, want)):
            if b == 0.0:
                assert a == 0.0, (T, k)
            else:
                assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), (T, k, a, b)


def _tail_reference(m, q):
    """P(pairs >= k), k = 0..m, for pairs ~ Binomial(m, q), with math.comb."""
    pmf = _pmf_reference(m, q)
    return [math.fsum(pmf[k:]) for k in range(m + 1)]


G_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # g + g^2 = 1 up to rounding


@pytest.mark.parametrize("g", [0.0, 1e-4, 0.02, 0.3, 0.6, G_GOLDEN])
def test_pair_tail_matches_comb_reference(g):
    for m in range(1, 61):
        got = sources._pair_tail(m, g)
        want = _tail_reference(m, g + g * g)
        assert got.shape == (m + 1,)
        for k, (a, b) in enumerate(zip(got, want)):
            if b == 0.0:
                assert a == 0.0, (m, k)
            else:
                assert math.isclose(a, min(b, 1.0), rel_tol=1e-12, abs_tol=0.0), (m, k, a, b)


@pytest.mark.parametrize("m", [1100, 5000])
@pytest.mark.parametrize("g", [1e-4, 0.02, 0.3, 0.6])
def test_pair_tail_is_finite_at_large_m(m, g):
    # math.comb(m, k) * float overflows from m ~ 1030 on; the log-space table
    # must not, and its sum is the mean: sum_k>=1 P(pairs >= k) = m (g + g^2)
    tail = sources._pair_tail(m, g)
    assert np.isfinite(tail).all()
    assert tail[0] == 1.0 and (tail <= 1.0).all() and (tail >= 0.0).all()
    assert (np.diff(tail) <= 0.0).all()
    assert math.isclose(math.fsum(tail[1:]), m * (g + g * g), rel_tol=1e-9)


def test_pair_tail_without_pairs_keeps_no_shot():
    # g = 0: no uniform lies below P(pairs >= n) = 0, for any n >= 1
    tail = sources._pair_tail(12, 0.0)
    assert tail[0] == 1.0 and not tail[1:].any()


@pytest.mark.parametrize("sampler", ["spdc", "mw"])
def test_oversized_modes_are_refused_before_any_law_or_spawn(sampler, monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a law table or seed sequence was made")

    monkeypatch.setattr(sources, "_binomial_pmf", fail)
    monkeypatch.setattr(np.random, "SeedSequence", fail)
    with pytest.raises(InstanceTooLargeError):
        if sampler == "spdc":
            monte_carlo_spdc(MAX_MODES + 1, 2, SPDC_REF, 20_000, 1)
        else:
            monte_carlo_mw(MAX_MODES + 1, 3, MW_REF, 20_000, 1)


def test_mode_cap_admits_max_modes():
    # about 1e4 dark counts per shot in the idle modes: every class is impossible
    mc = monte_carlo_mw(MAX_MODES, 3, MW_REF, 20_000, 1)
    assert [est.probability for est in mc.values()] == [0.0] * 4


@pytest.mark.parametrize("sampler", ["spdc", "mw"])
def test_oversized_trials_are_refused_before_any_spawn(sampler, monkeypatch):
    def no_seeds(*args, **kwargs):
        raise AssertionError("a seed sequence was made")

    monkeypatch.setattr(np.random, "SeedSequence", no_seeds)
    with pytest.raises(InstanceTooLargeError):
        if sampler == "spdc":
            monte_carlo_spdc(10, 2, SPDC_REF, MAX_TRIALS + 1, 1)
        else:
            monte_carlo_mw(16, 3, MW_REF, MAX_TRIALS + 1, 1)


# ------------------------------------------------------------- quantum dot


def test_qd_passive_baseline():
    params = QdParams(eta=1.0, eta_dm=1.0, p_in=1.0, eta_d=1.0)
    assert p_qd(4, 1, params, "passive") == pytest.approx(0.25)
    assert p_qd(4, 4, params, "active") == pytest.approx(1.0)


def test_qd_active_passive_ratio_identity():
    params = QdParams(eta=0.35, eta_dm=0.7, p_in=0.7, eta_d=0.6)
    for (n_array, i) in ((3, 3), (5, 4), (8, 2)):
        ratio = p_qd(n_array, i, params, "active") / p_qd(n_array, i, params, "passive")
        expect = (params.eta_dm * n_array) ** i
        assert abs(ratio - expect) <= 1e-12 * expect


def test_qd_active_beats_passive_at_figure_parameters():
    params = QdParams(eta=0.35, eta_dm=0.7, p_in=0.7, eta_d=0.6)
    assert p_qd(3, 3, params, "active") > p_qd(3, 3, params, "passive")
    assert p_qd_lossy_one(3, 3, params, "active") > 0.0


@pytest.mark.parametrize("fn", [p_qd, p_qd_lossy_one])
def test_qd_rejects_unknown_demux(fn):
    params = QdParams(eta=0.35, eta_dm=0.7, p_in=0.7, eta_d=0.6)
    with pytest.raises(InvalidConfigurationError):
        fn(4, 4, params, "bogus")


# ---------------------------------------------------------------- microwave


def test_p_mw_in_binomial():
    for n in (1, 3, 5):
        total = sum(p_mw_in(n, k, 0.8) for k in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)
    assert p_mw_in(4, 0, 1.0) == 1.0
    assert p_mw_in(5, 2, 0.9) == pytest.approx(0.0729, rel=1e-10)


def test_p_mw_lossy_edges():
    assert p_mw_lossy(4, 0, MW_REF) == pytest.approx((0.9 * 0.7) ** 4, rel=1e-12)
    perfect = MwParams(p_in=0.85, eta_d=1.0, p_dark=0.0)
    for k in range(0, 4):
        assert p_mw_lossy(4, k, perfect) == pytest.approx(p_mw_in(4, k, 0.85), rel=1e-12)


def test_p_mw_lossy_is_exact_two_stage_binomial():
    # closed form equals the exact (creation, detection) marginal
    for n in (2, 4, 6):
        for k in range(0, n + 1):
            exact = 0.0
            for li in range(0, k + 1):
                exact += (
                    comb(n, li)
                    * MW_REF.p_in ** (n - li)
                    * (1 - MW_REF.p_in) ** li
                    * comb(n - li, k - li)
                    * MW_REF.eta_d ** (n - k)
                    * (1 - MW_REF.eta_d) ** (k - li)
                )
            assert p_mw_lossy(n, k, MW_REF) == pytest.approx(exact, rel=1e-12)


def test_p_mw_lossy_dark_reduces_without_darks():
    quiet = MwParams(p_in=0.9, eta_d=0.7, p_dark=0.0)
    for (m, n, k) in ((10, 3, 0), (10, 3, 1), (16, 4, 2)):
        a = p_mw_lossy_dark(m, n, k, quiet)
        b = p_mw_lossy(n, k, quiet)
        assert abs(a - b) <= 1e-12 * max(a, b)


def test_p_mw_lossy_dark_manual_expansion_n_eq_m():
    # n = m = 2, n_lost = 0: dark counts fire only in modes left empty, so two
    # clicks come from 2, 1 or 0 created photons with 0, 1 or 2 dark counts
    val = p_mw_lossy_dark(2, 2, 0, MW_REF)
    p, eta, dark = MW_REF.p_in, MW_REF.eta_d, MW_REF.p_dark
    manual = (p * eta) ** 2 + 2 * p * (1 - p) * eta * dark + ((1 - p) * dark) ** 2
    assert val == pytest.approx(manual, rel=1e-12)


def test_mw_monte_carlo_matches_exact_process():
    mc = monte_carlo_mw(16, 3, MW_REF, 400_000, 9)
    exact = exact_mw_apparent(16, 3, MW_REF)
    for k in (0, 1, 2):
        assert mc[k].sigmas_from(exact[k]) < 4.0


# 36 random class frequencies, each within 4.5 sigma of the exact process with
# the stderr of the exact probability: two-sided 6.8e-6 each, family-wise
# <= 2.5e-4 (Bonferroni); the smallest class expects 74 hits in 400000 shots.
# "ideal" is deterministic (every photon created and seen, no darks), and at
# p_dark = 1 every one of the 13 or more vacuum modes clicks, so every class
# is impossible.
MW_EXACT_CASES = {
    "m16-n3": (16, 3, MW_REF),
    "m30-n5": (30, 5, MW_REF),
    "n=m=4": (4, 4, MW_REF),
    "n0": (16, 0, MW_REF),
    "p_dark=0": (16, 3, replace(MW_REF, p_dark=0.0)),
    "p_in=1": (16, 3, replace(MW_REF, p_in=1.0)),
    "eta_d=1": (16, 3, replace(MW_REF, eta_d=1.0)),
    "ideal": (16, 3, MwParams(p_in=1.0, eta_d=1.0, p_dark=0.0)),
    "p_dark=1": (16, 3, replace(MW_REF, p_dark=1.0)),
    "p_in=0": (16, 3, replace(MW_REF, p_in=0.0)),
    "eta_d=0": (16, 3, replace(MW_REF, eta_d=0.0)),
}


@pytest.mark.parametrize("case", sorted(MW_EXACT_CASES))
def test_mw_monte_carlo_matches_exact_process_every_class(case):
    m, n, params = MW_EXACT_CASES[case]
    trials = 400_000
    mc = monte_carlo_mw(m, n, params, trials, 11)
    exact = exact_mw_apparent(m, n, params)
    assert set(mc) == set(range(n + 1))
    _assert_within(mc, {k: exact.get(k, 0.0) for k in range(n + 1)}, trials, 4.5)


def test_monte_carlo_pool_width_is_bounded_by_cpu_count(monkeypatch):
    widths = []

    def recording_pool(max_workers, **kwargs):
        widths.append(max_workers)
        return ThreadPoolExecutor(max_workers=max_workers, **kwargs)

    serial = (monte_carlo_mw(16, 3, MW_REF, 1_000_000, 9),
              monte_carlo_spdc(6, 2, SPDC_REF, 600_000, 9))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sources, "ThreadPoolExecutor", recording_pool)
    pooled = (monte_carlo_mw(16, 3, MW_REF, 1_000_000, 9, workers=64),  # 5 chunks
              monte_carlo_spdc(6, 2, SPDC_REF, 600_000, 9, workers=64))  # 3 chunks
    assert pooled == serial
    assert widths == [2, 2]


def test_mw_monte_carlo_rejects_more_photons_than_modes():
    with pytest.raises(InvalidConfigurationError):
        monte_carlo_mw(2, 3, MW_REF, 20_000, 1)


def test_p_mw_lossy_dark_monte_carlo_agreement():
    mc = monte_carlo_mw(16, 3, MW_REF, 10_000_000, 9)
    assert mc[1].sigmas_from(p_mw_lossy_dark(16, 3, 1, MW_REF)) < 3.0


def test_p_mw_lossy_dark_matches_exact_process():
    for m, n in ((16, 3), (30, 5)):
        exact = exact_mw_apparent(m, n, MW_REF)
        for k in range(n + 1):
            assert math.isclose(p_mw_lossy_dark(m, n, k, MW_REF), exact[k], rel_tol=1e-12), (m, k)


# ------------------------------------------------------------- properties


def test_probabilities_stay_in_unit_interval():
    rng = np.random.default_rng(12)
    for _ in range(10_000):
        g = rng.uniform(0.0, 0.3)
        params = SpdcParams(
            g=g,
            eta_t=rng.uniform(0.0, 1.0),
            p_in=rng.uniform(0.0, 1.0),
            eta_d=rng.uniform(0.0, 1.0),
        )
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, m + 1))
        which = rng.integers(0, 4)
        if which == 0:
            v = p_sbs(m, n, params)
        elif which == 1:
            v = p_sbs_fake(m, n, params)
        elif which == 2:
            v = p_sbs_lossy(m, n, int(rng.integers(0, n)), params)
        else:
            # the dark-count series is unnormalized and only stays a
            # probability for small p_dark; 0.1 is the reference operating value
            v = p_mw_lossy_dark(
                m, n, int(rng.integers(0, n + 1)),
                MwParams(p_in=params.p_in, eta_d=params.eta_d, p_dark=rng.uniform(0, 0.1)),
            )
        assert 0.0 <= v <= 1.0


unit = hst.floats(0.0, 1.0)
spdc_params = hst.builds(
    SpdcParams,
    g=hst.one_of(hst.just(0.0), hst.floats(1e-4, 0.3)),
    eta_t=unit,
    p_in=unit,
    eta_d=unit,
)
small_mn = hst.integers(1, 6).flatmap(lambda m: hst.tuples(hst.just(m), hst.integers(1, m)))


def _close(a, b):
    # the floor only absorbs subnormal underflow at extreme efficiencies
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)


@settings(max_examples=150, deadline=None)
@given(params=spdc_params, mn=small_mn)
def test_p_sbs_and_lossy_match_process_oracle(params, mn):
    m, n = mn
    exact = exact_spdc_classes(m, n, params, max_lost=n - 1)
    assert _close(p_sbs(m, n, params), exact["success"])
    for k in range(1, n):
        assert _close(p_sbs_lossy(m, n, k, params), exact[f"lossy{k}"])


@settings(max_examples=150, deadline=None)
@given(params=spdc_params, mn=small_mn)
def test_p_sbs_fake_matches_process_oracle(params, mn):
    m, n = mn
    assert _close(p_sbs_fake(m, n, params), exact_spdc_classes(m, n, params)["fake"])


def test_p_sbs_monotone_in_efficiencies():
    m, n = 8, 2
    grid = [0.3, 0.5, 0.7, 0.9]
    for fixed in (0.4, 0.8):
        prev = -1.0
        for eta_t in grid:
            v = p_sbs(m, n, SpdcParams(g=0.03, eta_t=eta_t, p_in=fixed, eta_d=fixed))
            assert v >= prev
            prev = v
        prev = -1.0
        for p_in in grid:
            v = p_sbs(m, n, SpdcParams(g=0.03, eta_t=fixed, p_in=p_in, eta_d=fixed))
            assert v >= prev
            prev = v
        prev = -1.0
        for eta_d in grid:
            v = p_sbs(m, n, SpdcParams(g=0.03, eta_t=fixed, p_in=fixed, eta_d=eta_d))
            assert v >= prev
            prev = v


def test_param_validation():
    with pytest.raises(InvalidConfigurationError):
        SpdcParams(g=1.2, eta_t=0.5, p_in=0.5, eta_d=0.5)
    with pytest.raises(InvalidConfigurationError):
        SpdcParams(g=0.02, eta_t=0.5, p_in=0.5, eta_d=0.5, pump_rate=0.0)
    with pytest.raises(InvalidConfigurationError):
        MwParams(p_in=0.9, eta_d=0.7, p_dark=0.1, t_step=0.0)
    with pytest.raises(InvalidConfigurationError):
        QdParams(eta=1.5, eta_dm=0.7, p_in=0.7, eta_d=0.6)
