"""Bayesian inference over intensity coefficients.

Gaussian priors combined with the exact NHPP likelihood of the pre-cutoff
history give the per-event log-posterior, a closure that maps states
(k, dim) to k log-densities.  An adaptive random-walk Metropolis sampler
draws from it across several independent chains, which step in lock step
as one (chains, dim) array: one log-density call per step for all chains.
Each chain draws its randomness from its own child of the seed.  Split
R-hat and effective sample size are computed for every
coefficient; callers gate on R-hat alone (see ``prediction``), and ESS
is reported only.
"""
from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .intensity import bernstein_matrix, clamped_integral
from .priors import GaussianPrior

logger = logging.getLogger(__name__)

LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
TARGET_ACCEPTANCE = 0.234
MIN_TOTAL_DRAWS = 100  # fewest draws, over all chains, that ``ess`` accepts
STEP_SCALE = 0.1  # first coordinate step, as a share of the prior scale


@dataclass(frozen=True)
class SamplerConfig:
    """Multi-chain sampling protocol: chain count, lengths, seed."""

    chains: int = 4
    draws: int = 1000
    warmup: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.chains < 2:
            raise ValueError("at least 2 chains required for diagnostics")
        if self.draws < 1 or self.warmup < 1:
            raise ValueError("draws and warmup must be at least 1")
        if self.chains * self.draws < MIN_TOTAL_DRAWS:
            raise ValueError(f"chains * draws must be at least {MIN_TOTAL_DRAWS} for ESS")


@dataclass(frozen=True)
class PosteriorSamples:
    """Retained MCMC draws plus per-chain and per-coefficient diagnostics."""

    draws: np.ndarray  # (chains, draws, dim)
    acceptance: tuple[float, ...]
    r_hat: tuple[float, ...]
    ess: tuple[float, ...]

    @property
    def dim(self) -> int:
        return self.draws.shape[2]

    def flat_draws(self) -> np.ndarray:
        """All chains stacked: (chains * draws, dim)."""
        return self.draws.reshape(-1, self.dim)


def log_prior(prior: GaussianPrior, beta) -> float:
    """Sum of independent Normal log-densities of beta under the prior."""
    beta = np.asarray(beta, dtype=float)
    mu = np.asarray(prior.mu)
    sigma = np.asarray(prior.sigma)
    if beta.shape != mu.shape:
        raise ValueError("beta length must match the prior")
    z = (beta - mu) / sigma
    return float(np.sum(-np.log(sigma) - LOG_SQRT_TWO_PI - 0.5 * z * z))


def make_log_posterior(
    prior: GaussianPrior,
    arrivals: list[float],
    t_c: float,
    clamp_floor: float = 1e-6,
) -> Callable[[np.ndarray], np.ndarray]:
    """Log-posterior closure given the history observed on [0, t_c].

    The closure takes states of shape (k, dim) and returns their k
    log-densities.  The likelihood window ends at the cutoff, not the TCA:
    the model conditions only on information available at decision time.
    A zero-width window contributes no likelihood.  The integrated rate is
    exact: when all Bernstein coefficients of p on [0, t_c] are at least the
    floor, so is p, and the integral is linear in beta; other states go
    through ``clamped_integral`` one row at a time.
    """
    dim = len(prior.mu)
    mu = np.asarray(prior.mu)
    sigma = np.asarray(prior.sigma)
    norm_const = float(np.sum(-np.log(sigma) - LOG_SQRT_TWO_PI))

    if t_c > 0:
        moments = t_c * t_c ** np.arange(dim) / np.arange(1, dim + 1)
        arrival_powers = np.vander(np.asarray(arrivals, dtype=float), dim, increasing=True)
        # One product gives the Bernstein coefficients, the rate at each arrival
        # and the integral of the unclamped rate.
        design = np.vstack([bernstein_matrix(dim, 0.0, t_c), arrival_powers, moments]).T

    def density(states: np.ndarray) -> np.ndarray:
        z = (states - mu) / sigma
        lp = norm_const - 0.5 * (z * z).sum(axis=1)
        if t_c <= 0:
            return lp
        product = states @ design
        integral = product[:, -1]
        for i in (product[:, :dim].min(axis=1) < clamp_floor).nonzero()[0]:
            integral[i] = clamped_integral(states[i], clamp_floor, 0.0, t_c)
        lam_points = np.maximum(product[:, dim:-1], clamp_floor)
        return lp + np.log(lam_points).sum(axis=1) - integral

    return density


def _proposal_cholesky(states: np.ndarray, init_scale: np.ndarray) -> np.ndarray:
    """Cholesky factors of regularized empirical covariances, one per chain.

    ``states`` is (chains, n, dim); the result is (chains, dim, dim).  A
    chain falls back to a diagonal factor built from init_scale when its
    states are too few or too degenerate to support a full-rank estimate.
    """
    chains, n, dim = states.shape
    fallback = np.diag(init_scale)
    if n < max(10, 2 * dim):
        return np.broadcast_to(fallback, (chains, dim, dim))
    centered = states - states.mean(axis=1, keepdims=True)
    cov = centered.transpose(0, 2, 1) @ centered / (n - 1)
    ridge = 1e-10 * np.maximum(np.trace(cov, axis1=1, axis2=2) / dim, 1.0)
    cov += ridge[:, None, None] * np.eye(dim)
    factors = []
    for one in cov:
        try:
            factors.append(np.linalg.cholesky(one))
        except np.linalg.LinAlgError:
            factors.append(fallback)
    return np.stack(factors)


def _metropolis(log_density, x, lp, proposal, uniforms):
    """One accept/reject decision per chain: accepted proposals overwrite x and lp in place.

    Returns the acceptance probabilities and which chains accepted.
    """
    lp_prop = np.asarray(log_density(proposal), dtype=float)
    accept_prob = np.exp(np.minimum(lp_prop - lp, 0.0))
    accept = uniforms < accept_prob
    np.copyto(x, proposal, where=accept[:, None])
    np.copyto(lp, lp_prop, where=accept)
    return accept_prob, accept


def sample_posterior(
    log_density: Callable[[np.ndarray], np.ndarray],
    init_mean,
    init_scale,
    config: SamplerConfig,
) -> PosteriorSamples:
    """Covariance-adaptive random-walk Metropolis, all chains in lock step.

    ``log_density`` maps states (k, dim) to k log-densities; every step
    evaluates the proposals of all chains in one call.  Each chain starts
    at the prior mean jittered by a tenth of the prior scale.  Warmup runs
    in two stages: first, coordinate-at-a-time updates whose per-coordinate
    scales adapt by Robbins-Monro toward the target acceptance rate; then
    joint Gaussian proposals whose covariance is the empirical covariance
    of the chain's warmup states (polynomial coefficients are strongly
    correlated, so axis-aligned proposals alone mix too slowly), with a
    single Robbins-Monro scale factor.  Everything freezes after warmup so
    the retained draws satisfy detailed balance.  Each chain adapts on its
    own, and draws all its normals and uniforms up front from its own
    child of the seed, so a chain's draws do not depend on how many
    chains run beside it.  Deterministic given the seed.
    """
    init_mean = np.asarray(init_mean, dtype=float)
    init_scale = np.asarray(init_scale, dtype=float)
    dim = len(init_mean)
    stage_a = config.warmup // 2
    stage_b = config.warmup - stage_a

    def chain_noise(rng):
        # Start, stage A (one normal per coordinate step), stage B, sampling.
        return (rng.standard_normal(dim),
                rng.standard_normal((stage_a, dim)), rng.uniform(size=(stage_a, dim)),
                rng.standard_normal((stage_b, dim)), rng.uniform(size=stage_b),
                rng.standard_normal((config.draws, dim)), rng.uniform(size=config.draws))

    # Each chain's normals and uniforms, drawn up front from its own child seed.
    noise = [chain_noise(np.random.default_rng(seed))
             for seed in np.random.SeedSequence(config.seed).spawn(config.chains)]
    start, a_normals, a_uniforms, b_normals, b_uniforms, s_normals, s_uniforms = (
        np.stack(block) for block in zip(*noise))

    x = init_mean + 0.1 * init_scale * start
    lp = np.array(log_density(x), dtype=float)
    bad = np.flatnonzero(~np.isfinite(lp))
    if bad.size:
        raise RuntimeError(f"chain {bad[0]}: non-finite log-density at initialization")

    # Stage A: per-coordinate adaptation, collecting states for the
    # covariance estimate.
    log_scales = np.tile(np.log(STEP_SCALE * init_scale), (config.chains, 1))
    stage_a_states = np.empty((config.chains, max(stage_a, 1), dim))
    stage_a_states[:, 0] = x
    for it in range(stage_a):
        gamma = (it + 1) ** -0.6
        for j in range(dim):
            proposal = x.copy()
            proposal[:, j] += np.exp(log_scales[:, j]) * a_normals[:, it, j]
            accept_prob, _ = _metropolis(log_density, x, lp, proposal, a_uniforms[:, it, j])
            log_scales[:, j] += gamma * (accept_prob - TARGET_ACCEPTANCE)
        stage_a_states[:, it] = x

    chol = _proposal_cholesky(stage_a_states[:, stage_a // 2 :], init_scale)
    log_factor = np.full(config.chains, math.log(2.38 / math.sqrt(dim)))

    # Stage B: joint proposals, scale-only adaptation, one covariance
    # refresh halfway through.
    stage_b_states = np.empty((config.chains, max(stage_b, 1), dim))
    stage_b_states[:, 0] = x
    for it in range(stage_b):
        if stage_b >= 20 and it == stage_b // 2:
            chol = _proposal_cholesky(stage_b_states[:, :it], init_scale)
        direction = (chol @ b_normals[:, it, :, None])[:, :, 0]
        proposal = x + np.exp(log_factor)[:, None] * direction
        accept_prob, _ = _metropolis(log_density, x, lp, proposal, b_uniforms[:, it])
        log_factor += (it + 1) ** -0.6 * (accept_prob - TARGET_ACCEPTANCE)
        stage_b_states[:, it] = x

    # Sampling: frozen kernel.
    step = np.exp(log_factor)[:, None, None] * chol
    increments = s_normals @ step.transpose(0, 2, 1)
    all_draws = np.empty((config.chains, config.draws, dim))
    accepted = np.zeros(config.chains)
    for it in range(config.draws):
        _, accept = _metropolis(log_density, x, lp, x + increments[:, it], s_uniforms[:, it])
        accepted += accept
        all_draws[:, it] = x

    r_hats = tuple(r_hat(all_draws[:, :, j]) for j in range(dim))
    ess_vals = tuple(ess(all_draws[:, :, j]) for j in range(dim))
    return PosteriorSamples(
        draws=all_draws,
        acceptance=tuple(float(a) for a in accepted / config.draws),
        r_hat=r_hats,
        ess=ess_vals,
    )


def r_hat(chain_draws: np.ndarray) -> float:
    """Split R-hat: each chain halved, between/within half-chain variances."""
    chain_draws = np.asarray(chain_draws, dtype=float)
    if chain_draws.ndim != 2 or chain_draws.shape[0] < 2 or chain_draws.shape[1] < 4:
        raise ValueError("need >= 2 chains with >= 4 draws each")
    n_half = chain_draws.shape[1] // 2
    halves = np.vstack(
        [chain_draws[:, :n_half], chain_draws[:, n_half : 2 * n_half]]
    )
    if np.ptp(halves) == 0.0:
        return 1.0
    within = float(np.mean(np.var(halves, axis=1, ddof=1)))
    if within == 0.0:
        return 1.0
    between = n_half * float(np.var(np.mean(halves, axis=1), ddof=1))
    var_est = (n_half - 1) / n_half * within + between / n_half
    return float(math.sqrt(var_est / within))


def ess(chain_draws: np.ndarray) -> float:
    """Effective sample size via the initial-positive-sequence estimator.

    Autocorrelations are averaged across chains and summed in adjacent
    pairs, truncating at the first non-positive pair; the result is
    capped at the total draw count.
    """
    chain_draws = np.asarray(chain_draws, dtype=float)
    if chain_draws.ndim != 2:
        raise ValueError("expected (chains, draws) array")
    n_chains, n = chain_draws.shape
    total = n_chains * n
    if total < MIN_TOTAL_DRAWS:
        raise ValueError(f"need at least {MIN_TOTAL_DRAWS} total draws")
    if np.ptp(chain_draws) == 0.0:
        warnings.warn("degenerate (constant) draws: ESS capped at the draw count")
        return float(total)

    acf = np.zeros(n)
    for c in range(n_chains):
        centered = chain_draws[c] - chain_draws[c].mean()
        var = float(centered @ centered) / n
        if var == 0.0:
            acf += np.concatenate([[1.0], np.zeros(n - 1)])
            continue
        padded = np.zeros(2 * n)
        padded[:n] = centered
        spectrum = np.fft.rfft(padded)
        autocov = np.fft.irfft(spectrum * np.conj(spectrum))[:n] / n
        acf += autocov / var
    acf /= n_chains

    tau = 1.0
    k = 1
    while k + 1 < n:
        pair = acf[k] + acf[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
        k += 2
    return float(min(total / tau, total))
