"""Exact boson-sampling output distributions and their lossy averages.

Indistinguishable photons follow the squared-permanent rule; the
distinguishable-particle alternative uses the permanent of the elementwise
|u|^2 matrix. One private builder, `_distributions`, makes every table, for
one or both particle models from one basis.

Loss here is uniform and mode-independent: every photon is equally likely to
be lost, wherever it is. Such loss commutes with a passive linear
interferometer (Aaronson and Brod, "BosonSampling with lost photons",
arXiv:1510.05245), so with l photons lost in all the detected distribution
does not depend on where they were lost: `LossConfig(a, b)` gives the table of
`LossConfig(a + b, 0)`. The builder therefore averages uniformly over the
injected subsets of the heralded photons that reach the detectors, and
evaluates each subset's permanents over the detected family only. A bunched
heralded state gives repeated subsets, which carry the thinning multiplicity.
A table with output loss is renormalized over the collision-free detected
family. Mode-dependent loss would not commute and is not modelled.
`full_distribution` (lossless) and `lossy_distribution` are single calls into
the builder; certification calls it for both models at once, on one basis
shared by the whole ensemble.

The submatrix gather lives in the Glynn driver (`permanent._glynn_stack`):
a build hands it the column block u[:, in_modes] and the output-mode rows,
and each chunk gathers its own matrices, so the gather's temporaries stay
within CHUNK_BYTES and a build's memory is a few vectors of the basis size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import states as st
from .errors import (
    InvalidComparisonError,
    InvalidConfigurationError,
    InvalidDistributionError,
)
from .linalg import build_submatrix, mode_indices, occupation_factorial, photon_number
from .permanent import _glynn_stack, permanent_glynn, permanents_batch

INDISTINGUISHABLE = "indistinguishable"
DISTINGUISHABLE = "distinguishable"

NORMALIZATION_TOL = 1e-9


@dataclass
class OutputDistribution:
    """Probability table over one n-photon state family.

    states holds the (K, m) occupation vectors in the canonical lexicographic
    order, probs the matching probabilities. raw_mass is the total probability
    mass before any renormalization.
    """

    m: int
    n_detected: int
    family: str
    states: np.ndarray
    probs: np.ndarray
    raw_mass: float
    renormalized: bool

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.shape != (len(self.states),):
            raise InvalidDistributionError(
                f"{self.probs.size} probabilities for {len(self.states)} states"
            )
        if np.any(self.probs < -1e-15):
            raise InvalidDistributionError("negative probability entry")
        self.probs = np.clip(self.probs, 0.0, None)
        # the sum of non-negative entries is finite only if every entry is
        total = float(self.probs.sum())
        if not (math.isfinite(total) and math.isfinite(self.raw_mass)):
            raise InvalidDistributionError("non-finite probability or raw_mass")
        if self.renormalized and abs(total - 1.0) > NORMALIZATION_TOL:
            raise InvalidDistributionError(f"renormalized distribution sums to {total!r}")

    def __len__(self) -> int:
        return self.probs.size

    def indices_of(self, events) -> np.ndarray:
        """Row of each occupation vector in `states`, located by its canonical rank.

        An event outside the family, or a distribution whose row at that rank
        holds another state (a file need not list states in canonical order),
        raises InvalidConfigurationError.
        """
        ev = np.asarray(events, dtype=np.int64)
        if ev.size == 0:
            ev = ev.reshape(0, self.m)
        if ev.ndim != 2 or ev.shape[1] != self.m or ev.min(initial=0) < 0:
            raise InvalidConfigurationError(f"events must be non-negative rows of length {self.m}")
        bad = ev.sum(axis=1) != self.n_detected
        if np.any(bad):
            raise InvalidConfigurationError(
                f"state {tuple(ev[bad][0].tolist())} has a photon number other than "
                f"n={self.n_detected}"
            )
        modes = np.repeat(np.tile(np.arange(self.m), len(ev)), ev.ravel())
        idx = st.state_ranks(modes.reshape(len(ev), self.n_detected), self.m, self.family)
        ok = (idx >= 0) & (idx < len(self.states))
        ok[ok] = np.all(self.states[idx[ok]] == ev[ok], axis=1)
        if not np.all(ok):
            raise InvalidConfigurationError(f"state {tuple(ev[~ok][0].tolist())} not in family")
        return idx


def bs_probability(u: np.ndarray, input_state, output_state) -> float:
    """|per(U_{S,T})|^2 / (prod s_i! prod t_j!) for indistinguishable photons."""
    sub = build_submatrix(u, input_state, output_state)
    per = permanent_glynn(sub)
    norm = occupation_factorial(input_state) * occupation_factorial(output_state)
    return float(abs(per) ** 2 / norm)


def distinguishable_probability(u: np.ndarray, input_state, output_state) -> float:
    """per(|U_{S,T}|^2) / prod t_j!, the classical-particle transition rule."""
    sub = build_submatrix(u, input_state, output_state)
    per = permanents_batch(np.abs(sub[None, :, :]) ** 2)[0]
    return float(per.real / occupation_factorial(output_state))


def _batch_probabilities(u, in_modes, out_modes_stack, out_occ, model) -> np.ndarray:
    """Probabilities of every output pattern in the stack, one batch of permanents.

    The Glynn driver gathers the submatrices from the column block; the
    distinguishable model hands it the real |u[:, in_modes]|^2, which holds
    the same entries as |gather|^2.
    """
    if model == INDISTINGUISHABLE:
        probs = np.abs(_glynn_stack(u[:, in_modes], 1, out_modes_stack)) ** 2
        probs /= math.prod(math.factorial(int(c)) for c in np.bincount(in_modes))
    elif model == DISTINGUISHABLE:
        probs = _glynn_stack(np.abs(u[:, in_modes]) ** 2, 1, out_modes_stack)
    else:
        raise InvalidConfigurationError(f"unknown particle model {model!r}")
    n = out_modes_stack.shape[1]
    if np.any(out_occ > 1):
        fact = np.array([math.factorial(i) for i in range(n + 1)], dtype=np.float64)
        probs /= np.prod(fact[out_occ], axis=1)
    return probs


def full_distribution(
    u: np.ndarray,
    input_state,
    family: str = st.COLLISION_FREE,
    model: str = INDISTINGUISHABLE,
    renormalize: bool = False,
) -> OutputDistribution:
    """Exact lossless output distribution of one input state over a whole family."""
    return _distributions(u, input_state, LossConfig(), (model,), family, renormalize)[0]


@dataclass(frozen=True)
class LossConfig:
    """Photon losses before injection and before output detection."""

    n_lost_in: int = 0
    n_lost_out: int = 0

    def __post_init__(self):
        if self.n_lost_in < 0 or self.n_lost_out < 0:
            raise InvalidConfigurationError("loss counts must be >= 0")

    @property
    def total(self) -> int:
        return self.n_lost_in + self.n_lost_out


def lossy_distribution(
    u: np.ndarray,
    heralded_state,
    loss: LossConfig,
    model: str = INDISTINGUISHABLE,
) -> OutputDistribution:
    """Detected-pattern distribution of a heralded input under known losses.

    n_her photons are heralded, loss.n_lost_in are lost before the
    interferometer and loss.n_lost_out of the propagated photons before
    detection, each uniformly at random. Since uniform loss commutes with the
    interferometer, this is the average over the injected subsets of
    n_her - loss.total heralded photons (see the module docstring); the
    heralded state may be bunched. The result is renormalized over the
    collision-free detected family.
    """
    return _distributions(u, heralded_state, loss, (model,))[0]


def _distributions(u, state, loss: LossConfig, models, family=st.COLLISION_FREE,
                   renormalize=True, basis=None) -> list:
    """The distribution of each model in turn, all from one basis.

    state holds the heralded photons; loss.total of them are lost, and as
    output loss is input loss (see the module docstring) the table averages
    uniformly over the injected subsets of the rest. Without output loss the
    result spans `family` and is renormalized if `renormalize`; with it, the
    result is always renormalized over the collision-free detected family.
    The detected basis (occ, modes) comes from `basis`, as
    `states.enumerate_states` returns it, or is enumerated here when it is
    None. Per injected subset each model evaluates its own permanents, one
    model after the other. Each result equals a one-model call bit for bit.
    """
    her = np.asarray(state)
    m = u.shape[0]
    n_her = photon_number(her)
    if n_her < 1:
        raise InvalidConfigurationError("need at least one photon")
    if loss.total >= n_her:
        raise InvalidConfigurationError(
            f"losses ({loss.total}) must be fewer than heralded photons ({n_her})"
        )
    n_det = n_her - loss.total
    if loss.n_lost_out:
        family, renormalize = st.COLLISION_FREE, True
    occ, modes = st.enumerate_states(m, n_det, family) if basis is None else basis
    subsets = list(combinations(mode_indices(her).tolist(), n_det))
    acc = np.zeros((len(models), modes.shape[0]), dtype=np.float64)
    for sub in subsets:
        in_modes = np.array(sub, dtype=np.int64)
        for row, model in zip(acc, models):
            row += _batch_probabilities(u, in_modes, modes, occ, model)
    acc /= len(subsets)

    dists = []
    for row in acc:
        mass = float(row.sum())
        if renormalize and mass == 0.0:
            raise InvalidDistributionError(
                "cannot renormalize: no state of the table is reachable (zero mass)")
        dists.append(OutputDistribution(
            m=m,
            n_detected=n_det,
            family=family,
            states=occ,
            probs=row / mass if renormalize else row,
            raw_mass=mass,
            renormalized=renormalize,
        ))
    return dists


def _require_comparable(p: OutputDistribution, q: OutputDistribution) -> None:
    """Refuse two distributions whose probabilities cannot be compared by position:
    another family, m or n, an unrenormalized table, or state lists that differ."""
    if (p.family, p.m, p.n_detected) != (q.family, q.m, q.n_detected):
        raise InvalidComparisonError(
            f"family mismatch: {(p.family, p.m, p.n_detected)} vs {(q.family, q.m, q.n_detected)}"
        )
    if not (p.renormalized and q.renormalized):
        raise InvalidComparisonError("comparison needs renormalized distributions")
    if not np.array_equal(p.states, q.states):
        raise InvalidComparisonError("state lists differ; probabilities are compared by position")


def total_variation_distance(p: OutputDistribution, q: OutputDistribution) -> float:
    """0.5 * sum |p_i - q_i| over a shared, renormalized family whose state
    lists match row for row."""
    _require_comparable(p, q)
    return float(0.5 * np.sum(np.abs(p.probs - q.probs)))


def _cdf(probs: np.ndarray) -> np.ndarray:
    """Cumulative probabilities for inverse-CDF draws, the last pinned to 1.0 so
    every uniform in [0, 1) lands on a state despite rounding in the sum."""
    cdf = np.cumsum(probs)
    cdf[-1] = 1.0
    return cdf


def sample_event_indices(dist: OutputDistribution, seed, count: int) -> np.ndarray:
    """Inverse-CDF draws of state indices; deterministic for a fixed seed."""
    if count < 0:
        raise InvalidConfigurationError(f"sample count must be >= 0, got {count}")
    if not dist.renormalized:
        raise InvalidDistributionError("sampling needs a renormalized distribution")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed))
    )
    u = rng.random(count)
    return np.searchsorted(_cdf(dist.probs), u, side="right").astype(np.int64)


def sample_events(dist: OutputDistribution, seed, count: int) -> np.ndarray:
    """I.i.d. sampled occupation vectors, (count, m)."""
    idx = sample_event_indices(dist, seed, count)
    return dist.states[idx]
