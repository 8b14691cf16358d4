"""Lossy scattershot boson sampling: exact distributions, source models,
likelihood-ratio validation and classical-vs-quantum sampling-time sweeps."""

__version__ = "0.1.0"

from .distribution import (
    DISTINGUISHABLE,
    INDISTINGUISHABLE,
    LossConfig,
    OutputDistribution,
    bs_probability,
    distinguishable_probability,
    full_distribution,
    lossy_distribution,
    total_variation_distance,
)
from .linalg import build_submatrix, haar_random_unitary, matrix_from_json
from .permanent import (
    TimingModel,
    fit_timing_model,
    permanent_glynn,
    permanent_glynn_parallel,
    permanent_naive,
)
from .sources import (
    MwParams,
    QdParams,
    SpdcParams,
    monte_carlo_mw,
    monte_carlo_spdc,
    p_mw_in,
    p_mw_lossy,
    p_mw_lossy_dark,
    p_qd,
    p_sbs,
    p_sbs_fake,
    p_sbs_lossy,
)
from .states import COLLISION_FREE, FULL_FOCK, enumerate_states
from .supremacy import (
    SupremacyPoint,
    supremacy_sweep_mw,
    supremacy_sweep_qd,
    supremacy_sweep_spdc,
    t_classical_lossy,
)
from .validation import (
    ValidationResult,
    fit_sample_scaling,
    min_samples_to_validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
