"""Classical vs quantum per-event time models and crossing sweeps.

The classical simulator is brute force: full distribution then sampling, at
A' n 2^n per permanent and C(m, n) permanents per distribution. Lossy events
multiply that by the number of loss configurations a detected pattern is
compatible with. The quantum side inverts the per-shot event probability of
the platform. Sweeps report, per mode count, the event-ensemble averaged
classical time, the per-event quantum time, and their ratio.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from math import exp, inf, log

from . import sources as src
from .distribution import LossConfig
from .errors import InvalidConfigurationError
from .sources import _log_comb

A_PRIME_TIANHE2 = 1.2e-14
_LOG_MAX = math.log(1.7976931348623157e308)

EXACT = "exact"
GENERALIZED = "generalized"


def lossy_class(k: int) -> str:
    return f"lossy{k}"


def _exp_or_inf(log_value: float) -> float:
    return inf if log_value > _LOG_MAX else exp(log_value)


def t_classical(m: int, n: int, a_prime: float = A_PRIME_TIANHE2) -> float:
    """Brute-force time A' n 2^n C(m, n) to compute and sample one n-photon event."""
    if not 1 <= n <= m:
        raise InvalidConfigurationError(f"need 1 <= n <= m, got n={n}, m={m}")
    if a_prime <= 0:
        raise InvalidConfigurationError("a_prime must be positive")
    return _exp_or_inf(log(a_prime) + log(n) + n * log(2.0) + _log_comb(m, n))


def t_classical_lossy(
    m: int, n: int, loss: LossConfig, a_prime: float = A_PRIME_TIANHE2
) -> float:
    """Classical time for a lossy event with n photons propagated through U.

    Input losses multiply the cost by the C(n + l_in, l_in) injected subsets;
    output losses enlarge the per-pattern enumeration by the
    C(m - n_det, l_out) supersets of each detected n_det = n - l_out pattern.
    """
    n_det = n - loss.n_lost_out
    if n_det < 1:
        raise InvalidConfigurationError(f"output losses {loss.n_lost_out} leave no photons")
    if n + loss.n_lost_in > m:
        raise InvalidConfigurationError("heralded photons exceed mode count")
    lt = (
        log(a_prime)
        + log(n)
        + n * log(2.0)
        + _log_comb(n + loss.n_lost_in, loss.n_lost_in)
        + _log_comb(m, n_det)
        + _log_comb(m - n_det, loss.n_lost_out)
    )
    return _exp_or_inf(lt)


def t_classical_lossy_either(m: int, n_triggered: int, n_lost: int, a_prime: float) -> float:
    """Classical time for an n_triggered event with n_lost photons lost at an
    unknown location, averaged uniformly over the loss splits.

    A split with l_in input losses propagates n_triggered - l_in photons.
    """
    total = 0.0
    for l_in in range(0, n_lost + 1):
        l_out = n_lost - l_in
        total += t_classical_lossy(m, n_triggered - l_in, LossConfig(l_in, l_out), a_prime)
    return total / (n_lost + 1)


@dataclass
class SupremacyPoint:
    """One sweep sample: ensemble-averaged t_c, per-event t_q and their ratio."""

    m: int
    n_policy: str
    event_class: str
    t_c: float
    t_q: float
    ratio: float


def linear_eta_schedule(a: float = 0.6, b: float = 0.25, m0: int = 10, span: int = 90):
    """eta_D(m) = a - b (m - m0)/span, clamped to [0, 1]."""

    def schedule(m: int) -> float:
        return min(1.0, max(0.0, a - b * (m - m0) / span))

    return schedule


def constant_eta_schedule(value: float):
    def schedule(m: int) -> float:
        return value

    return schedule


def scattershot_photon_range(m: int) -> list[int]:
    """All n with 3 <= n < sqrt(m), the hardness-respecting event window."""
    return [n for n in range(3, m + 1) if n * n < m]


def max_photons_under_complexity(m: int, minimum: int = 1) -> int | None:
    """Largest n with n^2 < m, or None below the minimum."""
    n = int(math.isqrt(m - 1)) if m > 1 else 0
    return n if n >= minimum else None


def _assemble_points(m, policy_label, weighted):
    """Build one SupremacyPoint per event class from accumulated event data.

    weighted maps class -> (sum of event probabilities, probability-weighted
    sum of classical times, events-per-second rate factor). The reported t_c
    is the mean classical time per event of the class, t_q the mean wait for
    one such event, so ratio = t_c / t_q = rate * sum(P * t_c) compares the
    classical cost of keeping up with the quantum event stream.
    """
    points = []
    for cls, (sum_p, sum_ptc, rate) in weighted.items():
        if sum_p <= 0.0:
            # no events of this class ever occur: infinite wait, nothing to simulate
            points.append(SupremacyPoint(m, policy_label, cls, inf, inf, 0.0))
            continue
        t_c = sum_ptc / sum_p
        t_q = 1.0 / (rate * sum_p)
        points.append(SupremacyPoint(m, policy_label, cls, t_c, t_q, t_c / t_q))
    return points


def supremacy_sweep_spdc(
    m_range,
    params: src.SpdcParams,
    a_prime: float = A_PRIME_TIANHE2,
    eta_schedule=None,
    include_lossy_up_to: int = 1,
) -> list[SupremacyPoint]:
    """SPDC sweep with the 3 <= n < sqrt(m) event window.

    Per event class the reported t_c is the event-probability weighted mean of
    the per-event classical times and t_q is the mean wait for any event of
    the class, so ratio = t_c / t_q compares the classical cost of keeping up
    with the quantum event stream.
    """
    if eta_schedule is None:
        eta_schedule = linear_eta_schedule()
    points = []
    for m in m_range:
        ns = scattershot_photon_range(m)
        if not ns:
            continue
        pars = params.with_eta_d(eta_schedule(m))
        classes: dict[str, list[float]] = {EXACT: [0.0, 0.0], GENERALIZED: [0.0, 0.0]}
        for k in range(1, include_lossy_up_to + 1):
            classes[lossy_class(k)] = [0.0, 0.0]
        for n in ns:
            p_ok = src.p_sbs(m, n, pars)
            tc_ok = t_classical(m, n, a_prime)
            classes[EXACT][0] += p_ok
            classes[EXACT][1] += p_ok * tc_ok
            classes[GENERALIZED][0] += p_ok
            classes[GENERALIZED][1] += p_ok * tc_ok
            for k in range(1, include_lossy_up_to + 1):
                p_k = src.p_sbs_lossy(m, n, k, pars)
                tc_k = t_classical_lossy_either(m, n, k, a_prime)
                classes[lossy_class(k)][0] += p_k
                classes[lossy_class(k)][1] += p_k * tc_k
                classes[GENERALIZED][0] += p_k
                classes[GENERALIZED][1] += p_k * tc_k
        label = f"n={ns[0]}..{ns[-1]}"
        weighted = {cls: (v[0], v[1], params.pump_rate) for cls, v in classes.items()}
        points.extend(_assemble_points(m, label, weighted))
    return points


def supremacy_sweep_qd(
    m_range,
    params: src.QdParams,
    demux: str = "active",
    rep_rate: float = 8.0e7,
    a_prime: float = A_PRIME_TIANHE2,
    eta_schedule=None,
) -> list[SupremacyPoint]:
    """Quantum-dot sweep at the largest n with n^2 < m (stepped jumps)."""
    if eta_schedule is None:
        eta_schedule = linear_eta_schedule()
    points = []
    for m in m_range:
        n = max_photons_under_complexity(m)
        if n is None:
            continue
        pars = params.with_eta_d(eta_schedule(m))
        p_ok = src.p_qd(n, n, pars, demux)
        p_lossy = src.p_qd_lossy_one(n, n, pars, demux)
        tc_ok = t_classical(m, n, a_prime)
        tc_lossy = t_classical_lossy_either(m, n, 1, a_prime)
        weighted = {
            EXACT: (p_ok, p_ok * tc_ok, rep_rate),
            lossy_class(1): (p_lossy, p_lossy * tc_lossy, rep_rate),
            GENERALIZED: (p_ok + p_lossy, p_ok * tc_ok + p_lossy * tc_lossy, rep_rate),
        }
        points.extend(_assemble_points(m, f"n={n}", weighted))
    return points


def supremacy_sweep_mw(
    m_range,
    params: src.MwParams,
    a_prime: float = A_PRIME_TIANHE2,
    include_dark: bool = True,
) -> list[SupremacyPoint]:
    """Microwave sweep at the largest n with n^2 < m; rate bound m t_step.

    The effective event rate is 1 / (m t_step), so the weighted assembly gets
    rate = 1 / (m t_step) per point.
    """
    points = []
    for m in m_range:
        n = max_photons_under_complexity(m)
        if n is None:
            continue
        rate = 1.0 / (m * params.t_step)
        p_ok = src.p_mw_lossy(n, 0, params)
        p_lossy = (
            src.p_mw_lossy_dark(m, n, 1, params) if include_dark else src.p_mw_lossy(n, 1, params)
        )
        tc_ok = t_classical(m, n, a_prime)
        tc_lossy = t_classical_lossy_either(m, n, 1, a_prime)
        weighted = {
            EXACT: (p_ok, p_ok * tc_ok, rate),
            lossy_class(1): (p_lossy, p_lossy * tc_lossy, rate),
            GENERALIZED: (p_ok + p_lossy, p_ok * tc_ok + p_lossy * tc_lossy, rate),
        }
        points.extend(_assemble_points(m, f"n={n}", weighted))
    return points


def supremacy_sweep(platform: str, m_range, params, **kwargs) -> list[SupremacyPoint]:
    """Dispatch a sweep by platform name ('spdc', 'qd' or 'mw')."""
    if platform == "spdc":
        return supremacy_sweep_spdc(m_range, params, **kwargs)
    if platform == "qd":
        return supremacy_sweep_qd(m_range, params, **kwargs)
    if platform == "mw":
        return supremacy_sweep_mw(m_range, params, **kwargs)
    raise InvalidConfigurationError(f"unknown platform {platform!r}")


def crossing_modes(points, event_class: str = GENERALIZED) -> int | None:
    """Smallest m where the class ratio first reaches 1, scanning ascending m."""
    rows = sorted(
        (p for p in points if p.event_class == event_class), key=lambda p: p.m
    )
    for p in rows:
        if p.ratio >= 1.0:
            return p.m
    return None
