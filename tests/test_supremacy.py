from itertools import combinations
from math import comb, inf

import pytest
from helpers import crossing_modes

from scattershot.distribution import LossConfig
from scattershot.sources import MwParams, QdParams, SpdcParams
from scattershot.supremacy import (
    A_PRIME_TIANHE2,
    EXACT,
    GENERALIZED,
    SupremacyPoint,
    _sweep,
    linear_eta_schedule,
    max_photons_under_complexity,
    scattershot_photon_range,
    supremacy_sweep_mw,
    supremacy_sweep_qd,
    supremacy_sweep_spdc,
    t_classical_lossy,
    t_classical_lossy_either,
)

SPDC_REF = SpdcParams(g=0.02, eta_t=0.6, p_in=0.7, eta_d=0.6, pump_rate=8.0e7)
MW_REF = MwParams(p_in=0.9, eta_d=0.7, p_dark=0.1, t_step=0.3e-6)
QD_REF = QdParams(eta=0.35, eta_dm=0.7, p_in=0.7, eta_d=0.6)


def test_t_classical_arithmetic():
    lossless = LossConfig()
    assert t_classical_lossy(10, 3, lossless, a_prime=1.0) == pytest.approx(
        3 * 8 * 120, rel=1e-12
    )
    assert t_classical_lossy(7, 1, lossless, a_prime=2.5e-9) == pytest.approx(
        2.5e-9 * 2 * 7, rel=1e-12
    )


def test_t_classical_reference_regimes():
    # the original 20-photon/400-mode regime dwarfs the 8-photon/80-mode one
    lossless = LossConfig()
    assert t_classical_lossy(400, 20, lossless) / t_classical_lossy(80, 8, lossless) > 1e9


def test_t_classical_monotone():
    lossless = LossConfig()
    for m in range(5, 30):
        assert t_classical_lossy(m + 1, 3, lossless) > t_classical_lossy(m, 3, lossless)
    for n in range(1, 10):
        assert t_classical_lossy(30, n + 1, lossless) > t_classical_lossy(30, n, lossless)


def test_t_classical_overflow_sentinel():
    assert t_classical_lossy(10_000, 5_000, LossConfig()) == inf


def test_t_classical_lossy_reductions():
    lossless = A_PRIME_TIANHE2 * 4 * 2**4 * comb(12, 4)
    assert t_classical_lossy(12, 4, LossConfig(0, 0)) == pytest.approx(lossless, rel=1e-12)
    assert t_classical_lossy(12, 4, LossConfig(1, 0)) == pytest.approx(5 * lossless, rel=1e-12)


def test_t_classical_lossy_output_multiplier():
    # per detected pattern the enumeration grows by the superset count
    m, n = 20, 4
    expect = 1.2e-14 * n * 2**n * comb(m, 3) * 17
    assert t_classical_lossy(m, n, LossConfig(0, 1)) == pytest.approx(expect, rel=1e-12)


def test_output_superset_count_by_enumeration():
    # m=6: 4-photon collision-free supersets of a fixed 3-mode detected pattern
    m, detected = 6, (0, 2, 4)
    supersets = [
        c for c in combinations(range(m), 4) if set(detected) <= set(c)
    ]
    assert len(supersets) == comb(m - len(detected), 1)


def test_t_classical_lossy_either_averages_splits():
    m, n_trig = 15, 4
    by_hand = 0.5 * t_classical_lossy(m, 3, LossConfig(1, 0)) + 0.5 * t_classical_lossy(
        m, 4, LossConfig(0, 1)
    )
    assert t_classical_lossy_either(m, n_trig, 1, 1.2e-14) == pytest.approx(by_hand, rel=1e-12)


def test_photon_policies():
    assert scattershot_photon_range(10) == [3]
    assert scattershot_photon_range(50) == [3, 4, 5, 6, 7]
    assert scattershot_photon_range(9) == []
    assert max_photons_under_complexity(50) == 7
    assert max_photons_under_complexity(2) == 1
    assert max_photons_under_complexity(1) is None
    assert max_photons_under_complexity(4, minimum=2) is None
    assert max_photons_under_complexity(5, minimum=2) == 2


def test_eta_schedule():
    sched = linear_eta_schedule()
    assert sched(10) == pytest.approx(0.6)
    assert sched(100) == pytest.approx(0.35)
    assert sched(10_000) == 0.0


def test_degenerate_sweep_ratio_equals_classical_time():
    # event probability forced to 1 at rate 1 Hz makes t_q exactly one second
    tc = t_classical_lossy(12, 3, LossConfig())
    points = _sweep([12], A_PRIME_TIANHE2, lambda m: ("n=3", 1.0, [(3, [1.0])]))
    assert [p.event_class for p in points] == [EXACT, GENERALIZED]
    for p in points:
        assert p.t_q == 1.0
        assert p.ratio == pytest.approx(tc, rel=1e-12)


def test_sweep_class_without_events_waits_forever():
    points = _sweep([12], A_PRIME_TIANHE2, lambda m: ("n=3", 1.0, [(3, [0.5, 0.0])]))
    lossy = points[1]
    assert (lossy.event_class, lossy.t_c, lossy.t_q, lossy.ratio) == ("lossy1", inf, inf, 0.0)


def test_point_ratio_consistency_and_ordering():
    points = supremacy_sweep_spdc(range(10, 41, 10), SPDC_REF)
    by_m = {}
    for p in points:
        assert p.ratio == pytest.approx(p.t_c / p.t_q, rel=1e-12)
        assert p.t_c > 0 and p.t_q > 0
        by_m.setdefault(p.m, {})[p.event_class] = p.ratio
    for classes in by_m.values():
        assert classes[GENERALIZED] >= classes[EXACT]


def test_qd_sweep_covers_every_mode():
    pts = supremacy_sweep_qd([10, 17, 26], QD_REF)
    assert {p.m for p in pts} == {10, 17, 26}


def test_every_platform_emits_one_class_order():
    sweeps = {
        "spdc": supremacy_sweep_spdc(range(10, 41, 10), SPDC_REF, include_lossy_up_to=2),
        "qd": supremacy_sweep_qd(range(10, 41, 10), QD_REF),
        "mw": supremacy_sweep_mw(range(10, 41, 10), MW_REF),
    }
    lossy = {"spdc": ["lossy1", "lossy2"], "qd": ["lossy1"], "mw": ["lossy1"]}
    for platform, pts in sweeps.items():
        for m in range(10, 41, 10):
            order = [p.event_class for p in pts if p.m == m]
            assert order == [EXACT] + lossy[platform] + [GENERALIZED], platform


# (t_c, t_q, ratio) reprs at m=30, per class, as the per-platform loops gave them;
# the microwave lossy classes as the exact process sum gives them
PINNED = {
    "spdc": {
        "exact": ("1.9863868496809383e-09", "4.1458632705510185e-05", "4.791250265754499e-05"),
        "lossy1": ("4.459876638512828e-09", "8.45330287549722e-06", "0.0005275898313593195"),
        "lossy2": ("6.5386037376615185e-09", "5.116244593427585e-06", "0.0012780084333851279"),
        "generalized": ("5.485816887403641e-09", "2.9596897864763622e-06",
                        "0.0018535107674019925"),
    },
    "qd": {
        "exact": ("2.736115200000012e-07", "0.001761252157694844", "0.00015535056624606694"),
        "lossy1": ("7.366464000000052e-07", "0.00021691543629778502", "0.003396007276258224"),
        "generalized": ("6.858724345780099e-07", "0.00019312963238149979",
                        "0.003551357842504291"),
    },
    "mw": {
        "exact": ("2.736115200000012e-07", "9.06858988968124e-05", "0.0030171341225975166"),
        "lossy1": ("7.366464000000052e-07", "5.8726872809478256e-05", "0.012543599969809967"),
        "generalized": ("5.546499736331461e-07", "3.56442035664484e-05",
                        "0.015560734092407486"),
    },
    # p_dark = 0: the dark-free microwave lossy class
    "mw-no-dark": {
        "exact": ("2.736115200000012e-07", "9.06858988968124e-05", "0.0030171341225975166"),
        "lossy1": ("7.366464000000052e-07", "3.0882225029725255e-05", "0.023853410798313802"),
        "generalized": ("6.190206038709721e-07", "2.303714367136764e-05",
                        "0.026870544920911323"),
    },
}


def test_sweep_values_are_pinned():
    sweeps = {
        "spdc": supremacy_sweep_spdc([30], SPDC_REF, include_lossy_up_to=2),
        "qd": supremacy_sweep_qd([30], QD_REF),
        "mw": supremacy_sweep_mw([30], MW_REF),
        "mw-no-dark": supremacy_sweep_mw(
            [30], MwParams(p_in=0.9, eta_d=0.7, p_dark=0.0, t_step=0.3e-6)
        ),
    }
    for platform, pts in sweeps.items():
        got = {p.event_class: (repr(p.t_c), repr(p.t_q), repr(p.ratio)) for p in pts}
        assert got == PINNED[platform], platform


def test_mw_sweep_steps_and_crossing_band():
    pts = supremacy_sweep_mw(range(10, 60), MW_REF)
    labels = {p.m: p.n_policy for p in pts}
    assert labels[49] == "n=6"
    assert labels[50] == "n=7"
    cross = crossing_modes(pts, GENERALIZED)
    assert cross is not None and 40 <= cross <= 60


def test_qd_active_outperforms_passive_in_sweep():
    act = {p.m: p.ratio for p in supremacy_sweep_qd([30], QD_REF, demux="active")
           if p.event_class == EXACT}
    pas = {p.m: p.ratio for p in supremacy_sweep_qd([30], QD_REF, demux="passive")
           if p.event_class == EXACT}
    assert act[30] > pas[30]


def test_crossing_modes_scans_ascending():
    pts = [
        SupremacyPoint(20, "n=3", EXACT, 1.0, 2.0, 0.5),
        SupremacyPoint(30, "n=3", EXACT, 2.0, 1.0, 2.0),
        SupremacyPoint(10, "n=3", EXACT, 1.0, 10.0, 0.1),
    ]
    assert crossing_modes(pts, EXACT) == 30
    assert crossing_modes(pts, GENERALIZED) is None
