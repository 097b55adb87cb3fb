"""Objective Bayesian inference for the Yule-Simon distribution.

Provides the distribution itself (pmf, survival, moments, exact sampling),
two objective priors (Jeffreys via the closed-form Fisher information, and
the KL-worth loss-based prior on a discretized parameter space), MCMC
posterior samplers with an exact-enumeration oracle, a frequentist
validation harness, and data pipelines for frequency-table and
daily-return applications.
"""

from .data import (
    PriceSeries,
    ReturnSeries,
    discretize_returns,
    ingest_prices,
    load_count_table,
    music_hits_by_artist,
    music_hits_frequencies,
    to_returns,
    write_sample_csv,
)
from .distribution import (
    FrequencySample,
    YuleSimonModel,
    log_likelihood,
    log_pmf,
    mean,
    pmf,
    sample,
    survival,
)
from .errors import (
    DataFormatError,
    NumericError,
    QuadratureError,
    SeriesConvergenceError,
    TuningWarning,
)
from .experiments import (
    PriorSpec,
    StudyConfig,
    StudyResult,
    StudyRow,
    default_grid,
    run_coverage_study,
    run_fixed_sample_study,
)
from .inference import (
    Chain,
    McmcConfig,
    PosteriorSummary,
    exact_grid_posterior,
    sample_posterior_continuous,
    sample_posterior_discrete,
    summarize,
)
from .priors import (
    NORMALIZER_UPPER_BOUND,
    FisherOracleEstimate,
    GridPrior,
    JeffreysPrior,
    fisher_information,
    fisher_information_oracle,
    jeffreys_log_unnormalized,
    jeffreys_normalizer,
    jeffreys_unnormalized,
    kl_divergence,
    loss_based_prior,
)
from .special import SeriesControl, hyp3f2_unit_excess, log_gamma_ratio

__version__ = "0.1.0"


def backend_name() -> str:
    """Always ``"python"``: all numerics run on numpy and scipy.

    Kept because benchmark records carry this name and two records are
    compared only when it matches.
    """
    return "python"


__all__ = [
    "backend_name",
    "SeriesControl",
    "PriceSeries",
    "ReturnSeries",
    "ingest_prices",
    "to_returns",
    "discretize_returns",
    "load_count_table",
    "write_sample_csv",
    "music_hits_frequencies",
    "music_hits_by_artist",
    "FrequencySample",
    "YuleSimonModel",
    "log_pmf",
    "pmf",
    "survival",
    "mean",
    "sample",
    "log_likelihood",
    "DataFormatError",
    "NumericError",
    "QuadratureError",
    "SeriesConvergenceError",
    "TuningWarning",
    "PriorSpec",
    "StudyConfig",
    "StudyResult",
    "StudyRow",
    "default_grid",
    "run_coverage_study",
    "run_fixed_sample_study",
    "Chain",
    "McmcConfig",
    "PosteriorSummary",
    "exact_grid_posterior",
    "sample_posterior_continuous",
    "sample_posterior_discrete",
    "summarize",
    "NORMALIZER_UPPER_BOUND",
    "FisherOracleEstimate",
    "GridPrior",
    "JeffreysPrior",
    "fisher_information",
    "fisher_information_oracle",
    "jeffreys_log_unnormalized",
    "jeffreys_normalizer",
    "jeffreys_unnormalized",
    "kl_divergence",
    "loss_based_prior",
    "log_gamma_ratio",
    "hyp3f2_unit_excess",
]
