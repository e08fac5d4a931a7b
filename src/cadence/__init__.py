"""Bayesian non-homogeneous Poisson process modelling of CDM arrival cadence."""

from .evaluation import score_runs
from .prediction import runs_at_cutoff

__version__ = "0.1.0"
