"""Closed-form source and loss models for the three sampling platforms.

SPDC scattershot: per-shot pair generation up to second order, heralding with
non-number-resolving triggers, shuttered injection and lumped propagation +
detection efficiency. Each source independently ends a shot in one of three
heralding outcomes: a triggered single (g eta_t), a triggered double
(g^2 eta_t2) or no click (the rest). The number of sources heralding n1
singles and n - n1 doubles is therefore multinomial, and the success, fake
and lossy event probabilities are short sums over n1 (and the injection
losses) on top of that one weight. Each is exact against the shot process,
which an independent Monte-Carlo simulation samples to cross-check them.

Quantum dot: passive (1/n per photon) or active (eta_dm per photon)
demultiplexing of a single-photon train.

Microwave: deterministic qubit sources with input loss, output loss and dark
counts in vacuum modes, summed exactly over created photons and real clicks.

All multinomial weights are assembled in log space so large mode counts do
not overflow or underflow intermediate factors.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import exp, inf, lgamma, log

import numpy as np

from .errors import InstanceTooLargeError, InvalidConfigurationError

MC_CHUNK = 200_000
MAX_TRIALS = 10**10  # 50000 chunk seeds, about 26 MB of SeedSequences
MAX_MODES = 10**5  # _binomial_pmf(MAX_MODES, q) peaks at about 4 MB, 40 bytes per entry


def _check_prob(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise InvalidConfigurationError(f"{name} must lie in [0, 1], got {value}")


def _check_positive(name: str, value: float) -> None:
    if not value > 0:  # NaN fails too
        raise InvalidConfigurationError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class SpdcParams:
    """SPDC scattershot parameters: g, eta_t, p_in, eta_d, pump rate (Hz)."""

    g: float
    eta_t: float
    p_in: float
    eta_d: float
    pump_rate: float = 8.0e7

    def __post_init__(self):
        for name in ("g", "eta_t", "p_in", "eta_d"):
            _check_prob(name, getattr(self, name))
        if self.g + self.g**2 > 1.0:
            raise InvalidConfigurationError(f"g + g^2 must be <= 1, got g={self.g}")
        _check_positive("pump_rate", self.pump_rate)

    @property
    def eta_t2(self) -> float:
        """Pair-click trigger efficiency 1 - (1 - eta_t)^2."""
        return 1.0 - (1.0 - self.eta_t) ** 2


@dataclass(frozen=True)
class QdParams:
    """Quantum-dot parameters: source, injection, detection, demux efficiencies, rate (Hz)."""

    eta: float
    p_in: float
    eta_d: float
    eta_dm: float = 1.0
    rep_rate: float = 8.0e7

    def __post_init__(self):
        for name in ("eta", "eta_dm", "p_in", "eta_d"):
            _check_prob(name, getattr(self, name))
        _check_positive("rep_rate", self.rep_rate)


@dataclass(frozen=True)
class MwParams:
    """Microwave parameters: creation and detection efficiency, dark counts, step time."""

    p_in: float
    eta_d: float
    p_dark: float = 0.0
    t_step: float = 0.3e-6

    def __post_init__(self):
        for name in ("p_in", "eta_d", "p_dark"):
            _check_prob(name, getattr(self, name))
        _check_positive("t_step", self.t_step)


def _log_pow(base: float, k: float) -> float:
    """k * log(base) with the 0^0 = 1 convention; -inf for 0^positive."""
    if k == 0:
        return 0.0
    if base <= 0.0:
        return -inf
    return k * log(base)


def _log_comb(n: int, k: int) -> float:
    if k < 0 or k > n or n < 0:
        return -inf
    return lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)


def _log_binom(k: int, n: int, p: float) -> float:
    """Log of the Binomial(n, p) probability of k; -inf outside 0..n."""
    return _log_comb(n, k) + _log_pow(p, k) + _log_pow(1.0 - p, n - k)


def _log_herald(m: int, n: int, n1: int, params: SpdcParams) -> float:
    """Log probability that exactly n of m sources herald, n1 of them with a
    single pair and n - n1 with a double pair.

    Per source the outcomes are a triggered single (g eta_t), a triggered
    double (g^2 eta_t2) or no click, so the counts are multinomial.
    """
    g, eta_t, eta_t2 = params.g, params.eta_t, params.eta_t2
    return (
        _log_comb(m, n)
        + _log_comb(n, n1)
        + _log_pow(g * eta_t, n1)
        + _log_pow(g * g * eta_t2, n - n1)
        + _log_pow(1.0 - g * eta_t - g * g * eta_t2, m - n)
    )


def p_sbs(m: int, n: int, params: SpdcParams) -> float:
    """Probability of a correct n-photon scattershot run with m sources.

    n triggers click (n1 singles, n - n1 doubles), each heralded mode injects
    exactly one photon (a double injects one of two, 2 p_in (1 - p_in)) and
    all n photons are detected.
    """
    if not 1 <= n <= m:
        raise InvalidConfigurationError(f"need 1 <= n <= m, got n={n}, m={m}")
    p_in = params.p_in
    total = sum(
        exp(
            _log_herald(m, n, n1, params)
            + _log_pow(p_in, n1)
            + _log_pow(2.0 * p_in * (1.0 - p_in), n - n1)
        )
        for n1 in range(0, n + 1)
    )
    return exp(_log_pow(params.eta_d, n)) * total


def p_sbs_fake(m: int, n: int, params: SpdcParams) -> float:
    """Probability of an undetectably wrong run: n triggers and n detections
    with an injected state that differs from the heralded singles.

    With n1 heralded singles and j = n - n1 heralded doubles, n + j photons
    sit behind open shutters, and each is injected and detected independently
    with p_in eta_d. So n of them are detected with probability
    C(n+j, j) (p_in eta_d)^n (1 - p_in eta_d)^j, and the correct run takes
    (p_in eta_d)^n (2 (1 - p_in))^j of it. Their difference is written as two
    non-negative terms, (C(n+j, j) - 2^j) (1 - p_in)^j and
    C(n+j, j) (a^j - b^j) with a = 1 - p_in eta_d and b = 1 - p_in, so no
    cancellation loses precision; a^j - b^j = (a - b) a^(j-1) sum_i (b/a)^i
    with a - b = p_in (1 - eta_d) taken directly. j = 0 cannot fake.
    """
    if not 1 <= n <= m:
        raise InvalidConfigurationError(f"need 1 <= n <= m, got n={n}, m={m}")
    p_in, eta_d = params.p_in, params.eta_d
    b, a_minus_b = 1.0 - p_in, p_in * (1.0 - eta_d)
    a = b + a_minus_b  # 1 - p_in eta_d, accurate also where it is small
    lead = _log_pow(p_in * eta_d, n)
    total = 0.0
    for j in range(1, n + 1):
        lh = _log_herald(m, n, n - j, params) + lead
        ways = math.comb(n + j, j)
        if ways > 1 << j:
            total += exp(lh + log(ways - (1 << j)) + _log_pow(b, j))
        if a_minus_b > 0.0:
            geometric = sum((b / a) ** i for i in range(j))
            total += exp(
                lh + log(ways) + log(a_minus_b) + _log_pow(a, j - 1) + log(geometric)
            )
    return total


def p_sbs_lossy(m: int, n: int, n_lost: int, params: SpdcParams) -> float:
    """Probability of an n-trigger run where n_lost photons vanish.

    On top of the heralding weight of n1 singles and n - n1 doubles, i
    heralded modes inject nothing (j singles failing with 1 - p_in, i - j
    doubles with (1 - p_in)^2), the other doubles inject exactly one photon,
    and n_lost - i of the n - i injected photons are lost before detection.
    Every heralded mode injects at most one photon, so the input is a subset
    of the heralded singles.
    """
    if not 0 <= n_lost < n:
        raise InvalidConfigurationError(f"need 0 <= n_lost < n, got n_lost={n_lost}, n={n}")
    if n > m:
        raise InvalidConfigurationError(f"need n <= m, got n={n}, m={m}")
    p_in, eta_d = params.p_in, params.eta_d
    total = 0.0
    for n1 in range(0, n + 1):
        lh = _log_herald(m, n, n1, params)
        for i in range(0, n_lost + 1):
            lpref = (
                lh
                + _log_pow(eta_d, n - n_lost)
                + _log_pow(1.0 - eta_d, n_lost - i)
                + _log_comb(n - i, n_lost - i)
                + _log_pow(p_in, n - i)
                + _log_pow(1.0 - p_in, n + i - n1)
            )
            for j in range(0, i + 1):
                total += exp(
                    lpref
                    + (n - n1 - i + j) * log(2.0)
                    + _log_comb(n1, j)
                    + _log_comb(n - n1, i - j)
                )
    return total


@dataclass
class McEstimate:
    probability: float
    stderr: float
    trials: int

    def sigmas_from(self, value: float) -> float:
        """z of the estimate against `value`, with the binomial stderr of
        `value` itself, so a class with no hits still reads a finite z."""
        se = max(math.sqrt(value * (1.0 - value) / self.trials), 1e-300)
        return abs(value - self.probability) / se


def _mc_chunks(trials: int, seed: int) -> list[tuple[int, np.random.SeedSequence]]:
    """(size, SeedSequence) pairs: MC_CHUNK shots each, then the remainder.

    The plan depends only on `trials` and `seed`, so the per-chunk streams,
    and every count, are the same for any worker count. More than MAX_TRIALS
    trials are refused before any seed is spawned.
    """
    if trials < 10_000:
        raise InvalidConfigurationError("Monte-Carlo needs at least 1e4 trials")
    if trials > MAX_TRIALS:
        raise InstanceTooLargeError(
            f"Monte-Carlo trials above {MAX_TRIALS:.0e} are refused, got {trials}"
        )
    sizes = [MC_CHUNK] * (trials // MC_CHUNK)
    if trials % MC_CHUNK:
        sizes.append(trials % MC_CHUNK)
    return list(zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))))


def _pool_map(fn, jobs: list, workers: int) -> list:
    """[fn(job) for job in jobs], in job order, on up to `workers` threads.

    The pool is as wide as `workers`, the job count and the CPU count allow;
    one worker runs inline, since a one-thread pool measured 10-15% slower.
    """
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, jobs))
    return [fn(job) for job in jobs]


def _mc_run(trials: int, seed: int, workers: int, count) -> list[int]:
    """Sum of count(size, rng) over the chunks of _mc_chunks(trials, seed),
    run by _pool_map; chunk counts are reduced in index order."""

    def run(job):
        size, ss = job
        return count(size, np.random.Generator(np.random.PCG64(ss)))

    return np.sum(_pool_map(run, _mc_chunks(trials, seed), workers), axis=0).tolist()


def _mc_estimate(count: int, trials: int) -> McEstimate:
    """Frequency of `count` hits in `trials` shots with its binomial stderr."""
    p = count / trials
    return McEstimate(p, math.sqrt(p * (1.0 - p) / trials), trials)


@dataclass
class SpdcMcResult:
    """Monte-Carlo frequencies of the scattershot event classes at fixed n."""

    trials: int
    success: McEstimate
    fake: McEstimate
    lossy: dict[int, McEstimate]


def _check_modes(m: int) -> None:
    """Refuse more than MAX_MODES modes before any law table is built."""
    if m > MAX_MODES:
        raise InstanceTooLargeError(
            f"Monte-Carlo modes above {MAX_MODES:.0e} are refused, got {m}"
        )


def _binomial_pmf(T: int, q: float) -> np.ndarray:
    """P(X = k) for k = 0..T, X ~ Binomial(T, q): the law every Monte-Carlo
    draw is split by.

    Built from T and q alone (log factorials by `math.lgamma`), not from any
    event-class closed form, so the Monte-Carlo stays an independent oracle.
    The pmf is exponentiated after subtracting its largest log, so nothing
    overflows at large T, and divided by its sum, which cancels the rounding
    of log T! that every term shares.
    """
    k = np.arange(T + 1)
    log_fact = np.fromiter((lgamma(j + 1) for j in range(T + 1)), float, count=T + 1)
    log_pmf = -(log_fact + log_fact[::-1])  # log C(T, k) - log T!
    with np.errstate(divide="ignore"):
        log_pmf[1:] += k[1:] * np.log(q)  # 0^0 = 1 at k = 0, and k = T below
        log_pmf[:-1] += (T - k[:-1]) * np.log1p(-q)
    pmf = np.exp(log_pmf - log_pmf.max())
    return pmf / pmf.sum()


def _pair_tail(m: int, g: float) -> np.ndarray:
    """P(pairs >= k) for k = 0..m, where pairs ~ Binomial(m, g + g^2) counts
    the sources of a shot that make a pair.

    Summed from k = m down, so the small tails keep their relative precision;
    dividing by the whole sum makes P(pairs >= 0) exactly 1.
    """
    tail = np.cumsum(_binomial_pmf(m, g + g * g)[::-1])[::-1]
    return tail / tail[0]


def monte_carlo_spdc(
    m: int,
    n: int,
    params: SpdcParams,
    trials: int,
    seed: int,
    workers: int = 1,
) -> SpdcMcResult:
    """Simulate the physical scattershot process.

    Per shot: each source makes 0/1/2 pairs; triggered singles click with
    eta_t, doubles with eta_t2; shutters keep unheralded modes closed; every
    signal photon behind an open shutter injects with p_in; every injected
    photon is detected with eta_d. Shots with exactly n triggers are classed
    as success (each heralded mode injected exactly one, n detected), fake
    (n detected, injected state wrong) or lossy-k for k = 1..n-1 (injected
    state a subset of the heralded singles, k photons short at detection).

    The draw is sparse but samples the same process. Per shot the number of
    pair-making sources is Binomial(m, g + g^2), with tail t_k = P(pairs >= k)
    (`_pair_tail`, from `_binomial_pmf`). A shot with fewer than n pairs
    cannot herald n, so a chunk of `size` shots first draws how many it keeps,
    Binomial(size, t_n): that is the law of the number of iid U(0, 1) below
    t_n, and given that number those uniforms are iid U(0, t_n). So each kept
    shot draws one uniform on [0, t_n), held below t_n so no rounding gives it
    n - 1 pairs, and inverts it against the tail. Only the pair-making sources
    of the kept shots draw their pair type (double with g^2 / (g + g^2)),
    trigger and injection. A source without a pair never triggers, and the
    modes are exchangeable, so which sources fired changes no event class. A
    chunk costs O(kept shots + their pairs), and its active sources are
    processed in groups of at most MC_CHUNK + m, so every temporary holds
    O(MC_CHUNK + m) elements whatever m and g are.

    Trials are split into fixed-size chunks with seeds derived per chunk, and
    chunk counts are reduced in index order, so results do not depend on the
    worker count. More than MAX_MODES modes are refused before the tail is
    built.
    """
    if not 1 <= n <= m:
        raise InvalidConfigurationError(f"need 1 <= n <= m, got n={n}, m={m}")
    _check_modes(m)
    g, eta_t, eta_t2, p_in = params.g, params.eta_t, params.eta_t2, params.p_in
    p_double = g / (1.0 + g)  # g^2 / (g + g^2), and 0 at g = 0

    def classify(pairs, rng):
        """Counts [success, fake, lossy1..lossy(n-1)] of shots with `pairs`
        pair-making sources each."""
        shot = np.repeat(np.arange(pairs.size), pairs)
        double = rng.random(shot.size) < p_double
        trig = rng.random(shot.size) < np.where(double, eta_t2, eta_t)
        inj = (rng.random(shot.size) < p_in).astype(np.int64)
        inj += double & (rng.random(shot.size) < p_in)
        shot, inj = shot[trig], inj[trig]  # closed shutters inject nothing
        triggers = np.bincount(shot, minlength=pairs.size)
        injected = np.bincount(shot, weights=inj, minlength=pairs.size).astype(np.int64)
        not_one = np.bincount(shot[inj != 1], minlength=pairs.size) > 0
        two = np.bincount(shot[inj == 2], minlength=pairs.size) > 0
        sel = triggers == n
        detected = rng.binomial(injected[sel], params.eta_d)
        heralded = detected == n
        deficit = n - detected[~two[sel]]  # subset inputs inject at most n
        return np.concatenate((
            [np.count_nonzero(heralded & ~not_one[sel]),
             np.count_nonzero(heralded & not_one[sel])],
            np.bincount(deficit, minlength=n + 1)[1:n],
        ))

    # a shot with u < P(pairs >= n) makes n - 1 + #{k >= n : u < P(pairs >= k)} pairs
    tail = _pair_tail(m, g)[n:]
    ascending = tail[::-1].copy()
    below = np.nextafter(tail[0], 0.0)

    def run_chunk(size, rng):
        u = np.minimum(rng.random(rng.binomial(size, tail[0])) * tail[0], below)
        pairs = m - np.searchsorted(ascending, u, side="right")
        ends = np.cumsum(pairs)
        cuts = np.searchsorted(ends, np.arange(MC_CHUNK, pairs.sum(), MC_CHUNK), "right")
        return sum(classify(group, rng) for group in np.split(pairs, cuts))

    totals = _mc_run(trials, seed, workers, run_chunk)

    return SpdcMcResult(
        trials=trials,
        success=_mc_estimate(totals[0], trials),
        fake=_mc_estimate(totals[1], trials),
        lossy={k: _mc_estimate(totals[k + 1], trials) for k in range(1, n)},
    )


def _qd_route(n_array: int, i: int, params: QdParams, demux: str) -> float:
    """Chance that the demux routes one photon to its port; checks i and demux."""
    if not 1 <= i <= n_array:
        raise InvalidConfigurationError(f"need 1 <= i <= n_array, got i={i}, n_array={n_array}")
    if demux == "passive":
        return 1.0 / n_array
    if demux == "active":
        return params.eta_dm
    raise InvalidConfigurationError(f"demux must be 'passive' or 'active', got {demux!r}")


def p_qd(n_array: int, i: int, params: QdParams, demux: str = "passive") -> float:
    """Quantum-dot run probability for i photons from an n_array-port demux."""
    route = _qd_route(n_array, i, params, demux)
    return (params.eta * route * params.p_in * params.eta_d) ** i


def p_qd_lossy_one(n_array: int, i: int, params: QdParams, demux: str = "passive") -> float:
    """One photon of i lost either at injection or at detection, rest correct."""
    route = _qd_route(n_array, i, params, demux)
    per_photon = params.eta * route * params.p_in * params.eta_d
    loss_one = params.eta * route * (
        (1.0 - params.p_in) + params.p_in * (1.0 - params.eta_d)
    )
    return i * per_photon ** (i - 1) * loss_one


def p_mw_in(n: int, n_lost_in: int, p_in: float) -> float:
    """Binomial chance of losing n_lost_in of n photons at creation."""
    if not 0 <= n_lost_in <= n:
        raise InvalidConfigurationError(f"need 0 <= n_lost_in <= n, got {n_lost_in}, {n}")
    return exp(
        _log_pow(p_in, n - n_lost_in)
        + _log_pow(1.0 - p_in, n_lost_in)
        + _log_comb(n, n_lost_in)
    )


def p_mw_lossy(n: int, n_lost: int, params: MwParams) -> float:
    """Microwave run losing n_lost photons overall, split over input/output."""
    if not 0 <= n_lost <= n:
        raise InvalidConfigurationError(f"need 0 <= n_lost <= n, got {n_lost}, {n}")
    eta_d = params.eta_d
    total = 0.0
    for l in range(0, n_lost + 1):
        total += exp(
            _log_pow(eta_d, n - n_lost)
            + _log_pow(1.0 - eta_d, n_lost - l)
            + _log_comb(n - l, n_lost - l)
        ) * p_mw_in(n, l, params.p_in)
    return total


def p_mw_lossy_dark(m: int, n: int, n_lost: int, params: MwParams) -> float:
    """Microwave run with n_lost apparent losses including dark counts.

    Sums the process directly: c of the n photons are created (p_in), r of
    them click (eta_d), and the other n - n_lost - r clicks are dark counts
    among the m - c vacuum modes (p_dark each). At p_dark = 0 only
    r = n - n_lost survives, which is p_mw_lossy.
    """
    if not 0 <= n_lost <= n or n > m:
        raise InvalidConfigurationError(
            f"need 0 <= n_lost <= n <= m, got n_lost={n_lost}, n={n}, m={m}"
        )
    clicks = n - n_lost
    total = 0.0
    for c in range(0, n + 1):
        lc = _log_binom(c, n, params.p_in)
        for r in range(0, min(c, clicks) + 1):
            total += exp(
                lc
                + _log_binom(r, c, params.eta_d)
                + _log_binom(clicks - r, m - c, params.p_dark)
            )
    return total


def monte_carlo_mw(
    m: int, n: int, params: MwParams, trials: int, seed: int, workers: int = 1
) -> dict[int, McEstimate]:
    """Bernoulli-process oracle for the microwave model.

    Per shot: each of n photons is created with p_in, in its own source mode;
    each created photon is detected with eta_d; each of the m - created
    vacuum modes fires a dark count with p_dark. Events are classed by the
    apparent deficit n - (real clicks + dark clicks), k = 0..n.

    Shots are iid, so a chunk draws how many shots take each branch, not each
    shot. Its created counts c = 0..n are one Multinomial(size, Bin(n, p_in)).
    The s_c shots with c created photons split by real clicks r with
    Multinomial(s_c, Bin(c, eta_d)), and each (c, r) group by the dark clicks
    of its n - c unlit source modes, Bin(n - c, p_dark), which gives the
    clicks j <= n of the n source modes. Last, the shots with j such clicks
    split by the dark clicks d of the m - n modes without a source,
    Bin(m - n, p_dark), in cells d = 0..n - j and one cell for more, and
    cell d adds its shots to class n - j - d. The two dark counts of a shot
    sum to its Bin(m - c, p_dark), and only the last law has O(m) entries,
    so it is built once per call; the others hold at most n + 1. A chunk
    makes at most 1 + (n + 1)(n + 6) / 2 draws of at most n + 2 cells,
    whatever its size. Every law comes from `_binomial_pmf`, built from its
    own (T, q), so the oracle shares no formula with `p_mw_lossy_dark`.
    Chunks and seeds are planned as in monte_carlo_spdc, so results do not
    depend on the worker count. More than MAX_MODES modes are refused before
    any law is built.
    """
    if not 0 <= n <= m:
        raise InvalidConfigurationError(f"need 0 <= n <= m, got n={n}, m={m}")
    _check_modes(m)
    created_law = _binomial_pmf(n, params.p_in)
    idle_law = _binomial_pmf(m - n, params.p_dark)[:n + 2]

    def run_chunk(size, rng):
        lit = np.zeros(n + 1, dtype=np.int64)  # shots by clicks j of the n source modes
        for c, s_c in enumerate(rng.multinomial(size, created_law).tolist()):
            if s_c:
                unlit_law = _binomial_pmf(n - c, params.p_dark)
                real = rng.multinomial(s_c, _binomial_pmf(c, params.eta_d))
                for r, s_cr in enumerate(real.tolist()):
                    if s_cr:
                        lit[r:r + n - c + 1] += rng.multinomial(s_cr, unlit_law)
        counts = np.zeros(n + 1, dtype=np.int64)
        for j, s_j in enumerate(lit.tolist()):
            if s_j:
                # cells d = 0..n - j; a last cell d > n - j, if any, is dropped
                dark = rng.multinomial(s_j, idle_law[:n - j + 2])[:n - j + 1]
                counts[n - j - dark.size + 1:n - j + 1] += dark[::-1]
        return counts

    totals = _mc_run(trials, seed, workers, run_chunk)
    return {k: _mc_estimate(totals[k], trials) for k in range(n + 1)}
