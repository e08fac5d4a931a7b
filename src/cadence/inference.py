"""Bayesian inference over intensity coefficients.

Gaussian priors combined with the exact NHPP likelihood of the pre-cutoff
history give the per-event log-posterior, a closure that maps states
(k, dim) to k log-densities.  An independence Metropolis-Hastings sampler
draws from it across several independent chains: damped Newton steps find
the mode, and a Student-t proposal fitted there stays fixed for every
draw.  Each chain draws its randomness from its own child of the seed, and
one log-density call evaluates every chain's proposals.  Split R-hat and
effective sample size are computed for every coefficient and gate nothing:
``prediction`` logs a warning on a high R-hat, and ESS is only stored on
``PosteriorSamples``; no output carries it.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .intensity import CLAMP_FLOOR, ClampedPolynomials, bernstein_matrix
from .priors import GaussianPrior

LOG_SQRT_TWO_PI = 0.5 * math.log(2.0 * math.pi)
MIN_TOTAL_DRAWS = 100  # fewest draws, over all chains, that ``ess`` accepts
MIN_CHAIN_DRAWS = 4  # fewest draws per chain that split R-hat accepts
PROPOSAL_DOF = 5.0  # degrees of freedom of the Student-t proposal
NEWTON_STEPS = 30  # most stencil evaluations in the search for the mode
NEWTON_TOL = 1e-8  # Newton stops once grad . step (nats) falls below this
FD_STEP = 1e-4  # finite-difference step, as a share of init_scale


@dataclass(frozen=True)
class SamplerConfig:
    """Multi-chain sampling protocol: chain count, draws per chain, seed."""

    chains: int = 4
    draws: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.chains < 2:
            raise ValueError("at least 2 chains required for diagnostics")
        if self.draws < MIN_CHAIN_DRAWS:
            raise ValueError(f"at least {MIN_CHAIN_DRAWS} draws per chain required for R-hat")
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


def make_log_posterior(
    prior: GaussianPrior,
    arrivals: list[float],
    t_c: float,
) -> Callable[[np.ndarray], np.ndarray]:
    """Log-posterior closure given the history observed on [0, t_c].

    The closure takes states of shape (k, dim) and returns their k
    log-densities.  The likelihood window ends at the cutoff, not the TCA:
    the model conditions only on information available at decision time.
    A zero-width window contributes no likelihood.  The integrated rate is
    exact: when all Bernstein coefficients of p on [0, t_c] are at least the
    floor, so is p, and the integral is linear in beta; the other states go
    through one ``ClampedPolynomials`` together.
    """
    dim = len(prior.mu)
    mu = np.asarray(prior.mu)
    sigma = np.asarray(prior.sigma)
    norm_const = float(np.sum(-np.log(sigma) - LOG_SQRT_TWO_PI))

    if t_c > 0:
        moments = t_c * t_c ** np.arange(dim) / np.arange(1, dim + 1)
        arrival_powers = np.vander(np.asarray(arrivals, dtype=float), dim, increasing=True)
        # One product gives the Bernstein coefficients, the rate at each arrival
        # and the integral of the unclamped rate.  Row-major: with the transposed
        # layout OpenBLAS ran 4004-state products on threads that kept spinning.
        design = np.vstack([bernstein_matrix(dim, 0.0, t_c), arrival_powers, moments]).T.copy()

    def density(states: np.ndarray) -> np.ndarray:
        z = (states - mu) / sigma
        lp = norm_const - 0.5 * (z * z).sum(axis=1)
        if t_c <= 0:
            return lp
        product = states @ design
        integral = product[:, -1]
        crossing = product[:, :dim].min(axis=1) < CLAMP_FLOOR
        if crossing.any():
            integral[crossing] = ClampedPolynomials(states[crossing], 0.0, t_c).integral(t_c)
        lam_points = product[:, dim:-1]  # in place: a call holds one (k, arrivals) array
        np.log(np.maximum(lam_points, CLAMP_FLOOR, out=lam_points), out=lam_points)
        return lp + lam_points.sum(axis=1) - integral

    return density


def _fit_proposal(log_density, init_mean: np.ndarray, init_scale: np.ndarray):
    """Centre and Cholesky factor of the proposal scale: the mode and the inverse negative Hessian.

    Damped Newton steps run from ``init_mean``.  Each takes its gradient and
    Hessian from central differences: the 4 dim^2 states x +- h_i e_i +- h_j e_j
    go through one density call, and the states with i = j give the gradient
    and x itself.  A step that does not raise the log-density is halved.  A
    non-finite value or a Hessian that is not negative definite gives
    ``init_mean`` with scale ``init_scale`` instead.
    """
    dim = len(init_mean)
    h = FD_STEP * init_scale
    offsets = np.diag(h)
    stencil = np.stack([si * offsets[:, None] + sj * offsets[None, :]
                        for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))]).reshape(-1, dim)
    fallback = init_mean, np.diag(init_scale)
    x = step = None
    lp = -math.inf
    trial = init_mean
    for _ in range(NEWTON_STEPS):
        values = np.asarray(log_density(trial + stencil), dtype=float).reshape(4, dim, dim)
        if values[1, 0, 0] > lp:
            if not np.isfinite(values).all():
                return fallback
            x, lp = trial, values[1, 0, 0]
            grad = (np.diagonal(values[0]) - np.diagonal(values[3])) / (4.0 * h)
            hess = (values[0] - values[1] - values[2] + values[3]) / (4.0 * np.outer(h, h))
            try:
                cov = np.linalg.inv(-hess)
                chol = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError:
                return fallback
            step = cov @ grad
        elif x is None:
            return fallback  # not finite at init_mean; the sampler reports it
        else:
            step = step / 2.0
        if grad @ step < NEWTON_TOL:
            break
        trial = x + step
    return x, chol


def sample_posterior(
    log_density: Callable[[np.ndarray], np.ndarray],
    init_mean,
    init_scale,
    config: SamplerConfig,
) -> PosteriorSamples:
    """Independence Metropolis-Hastings from a Student-t fitted at the mode.

    ``log_density`` maps states (k, dim) to k log-densities.  The proposal
    is a multivariate Student-t with PROPOSAL_DOF degrees of freedom,
    centred at the mode with the inverse negative Hessian there as its
    scale (see ``_fit_proposal``, which falls back to ``init_mean`` and
    ``init_scale``).  The kernel is fixed from the first draw, so every
    draw is retained and satisfies detailed balance (Tierney, 1994).  Each
    chain starts at the proposal's centre and draws its normals, chi-square
    values and uniforms up front from its own child of the seed; one density
    call evaluates every chain's proposals, and each chain then keeps or
    rejects its own in order.  A chain's draws therefore do not depend on
    how many chains run beside it.  Deterministic given the seed.
    """
    init_mean = np.asarray(init_mean, dtype=float)
    init_scale = np.asarray(init_scale, dtype=float)
    dim = len(init_mean)
    centre, chol = _fit_proposal(log_density, init_mean, init_scale)
    nu = PROPOSAL_DOF

    rngs = list(map(np.random.default_rng, np.random.SeedSequence(config.seed).spawn(config.chains)))
    normals = np.stack([rng.standard_normal((config.draws, dim)) for rng in rngs])
    stretch = np.stack([nu / rng.chisquare(nu, config.draws) for rng in rngs])
    log_uniforms = np.log([rng.uniform(size=config.draws) for rng in rngs])
    states = np.concatenate([np.broadcast_to(centre, (config.chains, 1, dim)),
                             centre + np.sqrt(stretch)[:, :, None] * (normals @ chol.T)], axis=1)
    # Squared Mahalanobis distance from the centre, where every chain starts.
    distance = np.pad(stretch * (normals * normals).sum(axis=2), ((0, 0), (1, 0)))
    log_proposal = -0.5 * (nu + dim) * np.log1p(distance / nu)
    values = log_density(states.reshape(-1, dim))
    log_weights = (np.reshape(values, distance.shape) - log_proposal).tolist()

    all_draws = np.empty((config.chains, config.draws, dim))
    acceptance = []
    for c, (weights, uniforms) in enumerate(zip(log_weights, log_uniforms.tolist())):
        if not math.isfinite(weights[0]):
            raise RuntimeError(f"chain {c}: non-finite log-density at initialization")
        current, accepted, kept = 0, 0, []
        for i, log_u in enumerate(uniforms, start=1):
            if log_u < weights[i] - weights[current]:
                current = i
                accepted += 1
            kept.append(current)
        all_draws[c] = states[c, kept]
        acceptance.append(accepted / config.draws)

    r_hats = tuple(r_hat(all_draws[:, :, j]) for j in range(dim))
    ess_vals = tuple(ess(all_draws[:, :, j]) for j in range(dim))
    return PosteriorSamples(
        draws=all_draws,
        acceptance=tuple(acceptance),
        r_hat=r_hats,
        ess=ess_vals,
    )


def r_hat(chain_draws: np.ndarray) -> float:
    """Split R-hat: each chain halved, between/within half-chain variances."""
    chain_draws = np.asarray(chain_draws, dtype=float)
    if chain_draws.ndim != 2 or chain_draws.shape[0] < 2 or chain_draws.shape[1] < MIN_CHAIN_DRAWS:
        raise ValueError(f"need >= 2 chains with >= {MIN_CHAIN_DRAWS} draws each")
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
