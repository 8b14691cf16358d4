"""Classical vs quantum per-event time models and crossing sweeps.

The classical simulator is brute force: full distribution then sampling, at
A' n 2^n per permanent and C(m, n) permanents per distribution. Lossy events
multiply that by the number of loss configurations a detected pattern is
compatible with. The quantum side inverts the per-shot event probability of
the platform. Each platform sweep (SPDC, quantum dot, microwave) only states
its events at mode count m: the photon-number policy, the shot rate and the
exact and lossy-k probabilities per n. One loop turns those into, per mode
count and class (exact, lossy1..K, generalized), the event-ensemble averaged
classical time, the per-event quantum time and their ratio.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
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


def _check_a_prime(a_prime: float) -> None:
    if not 0 < a_prime < inf:  # NaN fails too
        raise InvalidConfigurationError(f"a_prime must be positive and finite, got {a_prime}")


def t_classical_lossy(
    m: int, n: int, loss: LossConfig, a_prime: float = A_PRIME_TIANHE2
) -> float:
    """Classical time for a lossy event with n photons propagated through U.

    Without loss this is the brute-force time A' n 2^n C(m, n) to compute
    and sample one n-photon event. Input losses multiply the cost by the
    C(n + l_in, l_in) injected subsets; output losses enlarge the per-pattern
    enumeration by the C(m - n_det, l_out) supersets of each detected
    n_det = n - l_out pattern.
    """
    _check_a_prime(a_prime)
    n_det = n - loss.n_lost_out
    if n_det < 1:
        raise InvalidConfigurationError(f"n={n} with {loss.n_lost_out} output losses detects none")
    if n + loss.n_lost_in > m:
        raise InvalidConfigurationError(f"heralded photons exceed mode count m={m}")
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

    A split with l_in input losses propagates n_triggered - l_in photons;
    n_lost = 0 is the lossless cost.
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


def _sweep(m_range, a_prime: float, events_at) -> list[SupremacyPoint]:
    """One SupremacyPoint per event class and mode count, for any platform.

    events_at(m) describes the platform at m: None when no event window
    exists, else (n_policy, rate, events) with the shot rate in Hz and, per
    photon number n, the per-shot probabilities [exact, lossy1, ..., lossyK].
    Each class accumulates sum(P) and sum(P * t_c), and generalized takes
    every event in order. The reported t_c is the mean classical time per
    event of the class, t_q the mean wait for one such event, so
    ratio = t_c / t_q = rate * sum(P * t_c) compares the classical cost of
    keeping up with the quantum event stream. a_prime is checked first, so a
    range without events refuses a bad one too.
    """
    _check_a_prime(a_prime)
    points = []
    for m in m_range:
        described = events_at(m)
        if described is None:
            continue
        label, rate, events = described
        n_lossy = len(events[0][1]) - 1
        classes = [EXACT] + [lossy_class(k) for k in range(1, n_lossy + 1)] + [GENERALIZED]
        sums = [[0.0, 0.0] for _ in classes]
        for n, probs in events:
            for k, p in enumerate(probs):
                t_c = t_classical_lossy_either(m, n, k, a_prime)
                for acc in (sums[k], sums[-1]):
                    acc[0] += p
                    acc[1] += p * t_c
        for cls, (sum_p, sum_ptc) in zip(classes, sums):
            if sum_p <= 0.0:
                # no events of this class ever occur: infinite wait, nothing to simulate
                points.append(SupremacyPoint(m, label, cls, inf, inf, 0.0))
                continue
            t_c = sum_ptc / sum_p
            t_q = 1.0 / (rate * sum_p)
            points.append(SupremacyPoint(m, label, cls, t_c, t_q, t_c / t_q))
    return points


def supremacy_sweep_spdc(
    m_range,
    params: src.SpdcParams,
    a_prime: float = A_PRIME_TIANHE2,
    eta_schedule=None,
    include_lossy_up_to: int = 1,
) -> list[SupremacyPoint]:
    """SPDC sweep over the 3 <= n < sqrt(m) event window at the pump rate."""
    if eta_schedule is None:
        eta_schedule = linear_eta_schedule()

    def events_at(m):
        ns = scattershot_photon_range(m)
        if not ns:
            return None
        pars = replace(params, eta_d=eta_schedule(m))
        events = [
            (n, [src.p_sbs(m, n, pars)]
             + [src.p_sbs_lossy(m, n, k, pars) for k in range(1, include_lossy_up_to + 1)])
            for n in ns
        ]
        return f"n={ns[0]}..{ns[-1]}", params.pump_rate, events

    return _sweep(m_range, a_prime, events_at)


def supremacy_sweep_qd(
    m_range,
    params: src.QdParams,
    demux: str = "active",
    a_prime: float = A_PRIME_TIANHE2,
    eta_schedule=None,
) -> list[SupremacyPoint]:
    """Quantum-dot sweep at the largest n >= 2 with n^2 < m (stepped jumps)."""
    if eta_schedule is None:
        eta_schedule = linear_eta_schedule()

    def events_at(m):
        n = max_photons_under_complexity(m, minimum=2)
        if n is None:
            return None
        pars = replace(params, eta_d=eta_schedule(m))
        probs = [src.p_qd(n, n, pars, demux), src.p_qd_lossy_one(n, n, pars, demux)]
        return f"n={n}", params.rep_rate, [(n, probs)]

    return _sweep(m_range, a_prime, events_at)


def supremacy_sweep_mw(
    m_range,
    params: src.MwParams,
    a_prime: float = A_PRIME_TIANHE2,
) -> list[SupremacyPoint]:
    """Microwave sweep at the largest n >= 2 with n^2 < m.

    The event rate is bounded by m time steps per run, 1 / (m t_step); the
    lossy class counts dark clicks (p_dark = 0 gives the dark-free form).
    """

    def events_at(m):
        n = max_photons_under_complexity(m, minimum=2)
        if n is None:
            return None
        probs = [src.p_mw_lossy(n, 0, params), src.p_mw_lossy_dark(m, n, 1, params)]
        return f"n={n}", 1.0 / (m * params.t_step), [(n, probs)]

    return _sweep(m_range, a_prime, events_at)
