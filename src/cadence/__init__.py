"""Bayesian non-homogeneous Poisson process modelling of CDM arrival cadence."""

from .errors import (
    CadenceError,
    DiagnosticsError,
    FormatError,
    InsufficientHistoryError,
    RowError,
)
from .evaluation import MetricsReport, interval_coverage, mae, rmse, run_benchmark, score_runs
from .inference import (
    PosteriorSamples,
    SamplerConfig,
    ess,
    log_prior,
    make_log_posterior,
    r_hat,
    sample_posterior,
)
from .ingest import (
    CdmRecord,
    ConjunctionEvent,
    assemble_events,
    events_to_csv,
    parse_csv,
    parse_kvn,
    split_at_cutoff,
)
from .intensity import (
    BinnedCounts,
    PolynomialIntensity,
    RidgeConfig,
    bin_events,
    cumulative_intensity,
    fit_ridge,
    prior_from_fit,
)
from .point_process import (
    ArrivalPrediction,
    ObservationWindow,
    log_likelihood,
    mixture_next_arrival,
    next_arrival_survival,
    simulate_thinning,
)
from .prediction import (
    PredictionRun,
    mean_baseline,
    naive_baseline,
    predict_event_sequence,
    runs_at_cutoff,
)
from .priors import DEFAULT_PRIOR, GaussianPrior

__version__ = "0.1.0"
