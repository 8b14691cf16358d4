"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here. Stochastic criteria run at fixed seeds so the
whole suite is reproducible; the stated runtime budgets hold with a wide
margin on an ordinary build machine.
"""
import json
import time

import numpy as np
import pytest
from helpers import crossing_modes, matrix_json

from scattershot import states as st
from scattershot.cli import main
from scattershot.distribution import (
    DISTINGUISHABLE,
    INDISTINGUISHABLE,
    LossConfig,
    bs_probability,
    distinguishable_probability,
    full_distribution,
    lossy_distribution,
    total_variation_distance,
)
from scattershot.linalg import haar_random_unitary
from scattershot.permanent import (
    fit_timing_model,
    measure_glynn_times,
    permanent_glynn,
    permanent_naive,
)
from scattershot.sources import (
    MwParams,
    QdParams,
    SpdcParams,
    monte_carlo_spdc,
    p_mw_lossy,
    p_mw_lossy_dark,
    p_qd,
    p_sbs,
    p_sbs_fake,
    p_sbs_lossy,
)
from scattershot.supremacy import (
    GENERALIZED,
    supremacy_sweep_mw,
    supremacy_sweep_spdc,
)
from scattershot.validation import min_samples_to_validate

SPDC_REF = SpdcParams(g=0.02, eta_t=0.6, p_in=0.7, eta_d=0.6, pump_rate=8.0e7)
MW_REF = MwParams(p_in=0.9, eta_d=0.7, p_dark=0.1, t_step=0.3e-6)

VALIDATION_SEED = 99
MC_SEED = 21


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_permanent_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for n in range(2, 10):
        for _ in range(500):
            a = rng.random((n, n)) + 1j * rng.random((n, n)) - (0.5 + 0.5j)
            g = permanent_glynn(a)
            nv = permanent_naive(a)
            worst = max(worst, abs(g - nv) / max(1.0, abs(nv)))
    elapsed = time.time() - t0
    report(
        1,
        worst <= 1e-9 and elapsed < 60,
        f"glynn vs naive, 500 matrices per n in [2,9]: worst rel err {worst:.2e} "
        f"(tol 1e-9), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_glynn_scaling():
    t0 = time.time()
    pts = measure_glynn_times(range(14, 23), seed=7, repeats=3)
    model = fit_timing_model(pts)
    elapsed = time.time() - t0
    report(
        2,
        0.95 <= model.b <= 1.25 and elapsed < 600,
        f"wall-clock fit over n in [14,22]: B = {model.b:.3f} (band [0.95, 1.25], "
        f"reference fit 1.05), {elapsed:.1f}s (< 600s)",
    )


def test_criterion_03_full_fock_completeness():
    t0 = time.time()
    worst = 0.0
    for (n, m) in ((3, 6), (4, 7)):
        inp = [1] * n + [0] * (m - n)
        for k in range(20):
            u = haar_random_unitary(m, 300 + 31 * k + m)
            d = full_distribution(u, inp, family=st.FULL_FOCK)
            worst = max(worst, abs(d.raw_mass - 1.0))
    elapsed = time.time() - t0
    report(
        3,
        worst <= 1e-9 and elapsed < 60,
        f"full-Fock raw mass over 20 unitaries at (3,6) and (4,7): worst |mass-1| "
        f"= {worst:.2e} (tol 1e-9), {elapsed:.1f}s (< 60s)",
    )


def test_criterion_04_hong_ou_mandel():
    u = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)
    coincidence = bs_probability(u, [1, 1], [1, 1])
    classical = distinguishable_probability(u, [1, 1], [1, 1])
    report(
        4,
        abs(coincidence) <= 1e-12 and abs(classical - 0.5) <= 1e-12,
        f"50:50 splitter coincidence: indistinguishable {coincidence:.2e} (0 tol 1e-12), "
        f"distinguishable {classical:.15f} (1/2 tol 1e-12)",
    )


def test_criterion_05_validation_lossless():
    t0 = time.time()
    bands = {3: (16, 22), 4: (12, 16), 5: (10, 14)}
    results = {}
    ok = True
    for n, (lo, hi) in bands.items():
        r = min_samples_to_validate(
            20, n, LossConfig(0, 0), ensemble=50, trials=500,
            seed=VALIDATION_SEED, max_samples=300,
        )
        results[n] = r.min_samples_mean
        ok &= lo <= r.min_samples_mean <= hi
    elapsed = time.time() - t0
    report(
        5,
        ok and elapsed < 900,
        "lossless minimum samples (reference 19+-3, 14+-2, 12+-2): "
        + ", ".join(f"n={n}: {results[n]:.1f} in {bands[n]}" for n in bands)
        + f", {elapsed:.1f}s (< 900s)",
    )


def test_criterion_06_validation_input_loss():
    t0 = time.time()
    bands = {3: (44, 56), 4: (33, 41)}
    results = {}
    ok = True
    for n, (lo, hi) in bands.items():
        r = min_samples_to_validate(
            20, n, LossConfig(1, 0), ensemble=50, trials=500,
            seed=VALIDATION_SEED, max_samples=700,
        )
        results[n] = r.min_samples_mean
        ok &= lo <= r.min_samples_mean <= hi
    elapsed = time.time() - t0
    report(
        6,
        ok and elapsed < 1200,
        "one input loss (reference 50+-6, 37+-4): "
        + ", ".join(f"n={n}: {results[n]:.1f} in {bands[n]}" for n in bands)
        + f", {elapsed:.1f}s (< 1200s)",
    )


def test_criterion_07_validation_output_loss():
    t0 = time.time()
    r = min_samples_to_validate(
        20, 3, LossConfig(0, 1), ensemble=50, trials=500,
        seed=VALIDATION_SEED, max_samples=1500,
    )
    elapsed = time.time() - t0
    report(
        7,
        87 <= r.min_samples_mean <= 115 and elapsed < 1200,
        f"one output loss, n=3 (reference 101+-14): mean {r.min_samples_mean:.1f} in "
        f"[87, 115], {elapsed:.1f}s (< 1200s)",
    )


def test_criterion_08_tvd_wrong_input_table():
    t0 = time.time()
    m = 15
    bands = {
        "2-1-0": (0.473, 0.108),
        "2-1-1": (0.222, 0.032),
        "1-0-1-1": (0.316, 0.052),
        "1-1-1-1": (0.337, 0.058),
    }
    acc = {k: [] for k in bands}
    for ss in np.random.SeedSequence(808).spawn(100):
        u = haar_random_unitary(m, ss)
        ref = full_distribution(u, [1, 1, 1] + [0] * 12, renormalize=True)
        alt = full_distribution(u, [2, 1, 0] + [0] * 12, renormalize=True)
        acc["2-1-0"].append(total_variation_distance(ref, alt))
        acc["2-1-1"].append(
            total_variation_distance(
                ref, lossy_distribution(u, [2, 1, 1] + [0] * 12, LossConfig(0, 1))
            )
        )
        acc["1-0-1-1"].append(
            total_variation_distance(
                ref, lossy_distribution(u, [1, 1, 1, 1] + [0] * 11, LossConfig(1, 0))
            )
        )
        acc["1-1-1-1"].append(
            total_variation_distance(
                ref, lossy_distribution(u, [1, 1, 1, 1] + [0] * 11, LossConfig(0, 1))
            )
        )
    elapsed = time.time() - t0
    ok = True
    parts = []
    for key, (center, tol) in bands.items():
        mean = float(np.mean(acc[key]))
        ok &= abs(mean - center) <= tol
        parts.append(f"{key}: {mean:.3f} (target {center}+-{tol})")
    report(8, ok and elapsed < 600, "; ".join(parts) + f", {elapsed:.1f}s (< 600s)")


def test_criterion_09_source_monte_carlo_agreement():
    t0 = time.time()
    trials = 10_000_000
    mc2 = monte_carlo_spdc(10, 2, SPDC_REF, trials, MC_SEED)
    mc3 = monte_carlo_spdc(10, 3, SPDC_REF, trials, MC_SEED)
    s_sig = mc2.success.sigmas_from(p_sbs(10, 2, SPDC_REF))
    f_sig = mc2.fake.sigmas_from(p_sbs_fake(10, 2, SPDC_REF))
    l_sig = mc3.lossy[1].sigmas_from(p_sbs_lossy(10, 3, 1, SPDC_REF))
    elapsed = time.time() - t0
    report(
        9,
        max(s_sig, f_sig, l_sig) < 3.0 and elapsed < 600,
        f"analytic vs 1e7-trial Monte-Carlo at reference parameters: success {s_sig:.2f} sigma, "
        f"fake {f_sig:.2f} sigma, lossy(3,1) {l_sig:.2f} sigma (all < 3), "
        f"{elapsed:.1f}s (< 600s)",
    )


def test_criterion_10_supremacy_crossings():
    t0 = time.time()
    spdc_points = supremacy_sweep_spdc(range(10, 121, 5), SPDC_REF)
    spdc_cross = crossing_modes(spdc_points, GENERALIZED)
    spdc_ratio = {p.m: p.ratio for p in spdc_points if p.event_class == GENERALIZED}
    mw_points = supremacy_sweep_mw(range(10, 71), MW_REF)
    mw_cross = crossing_modes(mw_points, GENERALIZED)
    elapsed = time.time() - t0
    ok = (
        spdc_cross is not None
        and 60 <= spdc_cross <= 100
        and spdc_ratio[60] < 1.0 <= spdc_ratio[100]
        and mw_cross is not None
        and 40 <= mw_cross <= 60
        and elapsed < 300
    )
    report(
        10,
        ok,
        f"SPDC generalized crossing at m = {spdc_cross} (band [60, 100], reference ~80); "
        f"microwave crossing at m = {mw_cross} (band [40, 60], reference ~50), "
        f"{elapsed:.1f}s (< 300s)",
    )


def test_criterion_11_platform_identities():
    worst_mw = 0.0
    for (m, n, k) in ((10, 3, 0), (10, 3, 1), (16, 4, 2), (12, 5, 3)):
        quiet = MwParams(p_in=0.9, eta_d=0.7, p_dark=0.0)
        a = p_mw_lossy_dark(m, n, k, quiet)
        b = p_mw_lossy(n, k, quiet)
        worst_mw = max(worst_mw, abs(a - b) / max(a, b))
    worst_sbs = 0.0
    for (m, n) in ((6, 2), (10, 3), (15, 4)):
        a = p_sbs_lossy(m, n, 0, SPDC_REF)
        b = p_sbs(m, n, SPDC_REF)
        worst_sbs = max(worst_sbs, abs(a - b) / max(a, b))
    worst_qd = 0.0
    qd = QdParams(eta=0.35, eta_dm=0.7, p_in=0.7, eta_d=0.6)
    for (n_array, i) in ((3, 3), (5, 4), (8, 2)):
        ratio = p_qd(n_array, i, qd, "active") / p_qd(n_array, i, qd, "passive")
        expect = (qd.eta_dm * n_array) ** i
        worst_qd = max(worst_qd, abs(ratio - expect) / expect)
    worst = max(worst_mw, worst_sbs, worst_qd)
    report(
        11,
        worst <= 1e-12,
        f"identities p_mw_lossy_dark(p_dark=0), p_sbs_lossy(n_lost=0), QD active/passive "
        f"ratio: worst rel dev {worst:.2e} (tol 1e-12)",
    )


def test_criterion_12_cli_determinism(tmp_path):
    cfg = tmp_path / "spdc.json"
    cfg.write_text(json.dumps({
        "platform": "spdc", "g": 0.02, "eta_T": 0.6, "p_in": 0.7,
        "eta_D_schedule": {"kind": "linear", "a": 0.6, "b": 0.25, "m0": 10, "span": 90},
        "pump_rate": 8.0e7,
    }))
    matrix = tmp_path / "ones.json"
    matrix.write_text(matrix_json(np.ones((8, 8), dtype=complex)))
    runs = {
        "validate": ["validate", "--m", "10", "--n", "3", "--ensemble", "5",
                     "--trials", "200", "--seed", "4", "--max-samples", "200"],
        "sources": ["sources", "--config", str(cfg), "--m", "6", "--n", "2",
                    "--trials", "450000", "--seed", "8"],
        "supremacy": ["supremacy", "--config", str(cfg), "--m-min", "10",
                      "--m-max", "20", "--step", "5"],
    }
    ok = True
    details = []
    for name, args in runs.items():
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        assert main(args + ["--threads", "1", "--out", str(a)]) == 0
        assert main(args + ["--threads", "4", "--out", str(b)]) == 0
        same = a.read_bytes() == b.read_bytes()
        ok &= same
        details.append(f"{name}: {'identical' if same else 'DIFFER'}")
    import contextlib
    import io

    outs = []
    for parts in (1, 4):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            main(["permanent", "--matrix", str(matrix), "--partitions", str(parts)])
        outs.append(buf.getvalue())
    same = outs[0] == outs[1]
    ok &= same
    details.append(f"permanent partitions 1 vs 4: {'identical' if same else 'DIFFER'}")
    report(12, ok, "byte-identical artifacts across --threads: " + "; ".join(details))
