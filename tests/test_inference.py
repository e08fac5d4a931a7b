"""Prior/posterior densities, the independence sampler, and MCMC diagnostics."""

import math

import numpy as np
import pytest
import scipy.stats

from cadence.inference import (
    SamplerConfig,
    _fit_proposal,
    ess,
    make_log_posterior,
    r_hat,
    sample_posterior,
)
from cadence.intensity import CLAMP_FLOOR, PolynomialIntensity
from cadence.point_process import ObservationWindow, simulate_thinning
from cadence.priors import GaussianPrior
from support import quad_clamped_integral


def prior_log_density(prior, beta):
    """The prior's log-density at ``beta``: the log-posterior of a window of zero width."""
    return make_log_posterior(prior, [], 0.0)(np.array([beta], dtype=float))[0]


class TestLogPrior:
    def test_standard_normal_at_zero(self):
        prior = GaussianPrior(mu=(0.0,), sigma=(1.0,))
        assert prior_log_density(prior, [0.0]) == pytest.approx(-0.918939, abs=1e-6)

    def test_at_the_mean(self):
        prior = GaussianPrior(mu=(1.0, -2.0), sigma=(0.5, 3.0))
        expected = -sum(math.log(s * math.sqrt(2 * math.pi)) for s in prior.sigma)
        assert prior_log_density(prior, prior.mu) == pytest.approx(expected, abs=1e-12)

    def test_historical_prior_at_its_mean(self):
        historical = GaussianPrior(mu=(8.58, -0.54, -0.60, -0.01), sigma=(3.42, 0.41, 0.37, 0.19))
        expected = (
            -(math.log(3.42) + math.log(0.41) + math.log(0.37) + math.log(0.19))
            - 4 * math.log(math.sqrt(2 * math.pi))
        )
        assert expected == pytest.approx(-1.3588, abs=1e-4)
        assert prior_log_density(historical, historical.mu) == pytest.approx(expected, abs=1e-9)


def reference_log_posterior(prior, arrivals, t_c, beta):
    """Oracle: Normal log-densities plus the clamped NHPP likelihood on [0, t_c] by quadrature."""
    rates = np.maximum(np.polynomial.polynomial.polyval(arrivals, beta), CLAMP_FLOOR)
    return (scipy.stats.norm.logpdf(beta, prior.mu, prior.sigma).sum() + np.log(rates).sum()
            - quad_clamped_integral(beta, 0.0, t_c))


class TestLogPosterior:
    def test_zero_width_window_is_prior_only(self):
        prior = GaussianPrior((2.0,), (0.5,))
        density = make_log_posterior(prior, [], 0.0)
        expected = scipy.stats.norm.logpdf(1.7, 2.0, 0.5)
        assert density(np.array([[1.7]]))[0] == pytest.approx(expected, rel=1e-15)

    def test_flat_prior_argmax_near_mle(self):
        # Homogeneous rate, 6 arrivals on [0, 3]: the MLE is n / T = 2.
        prior = GaussianPrior((1.0,), (1e6,))
        arrivals = [0.3, 0.8, 1.2, 1.9, 2.4, 2.9]
        density = make_log_posterior(prior, arrivals, 3.0)
        grid = np.linspace(0.5, 5.0, 2001)
        values = density(grid[:, None])
        assert grid[int(np.argmax(values))] == pytest.approx(2.0, abs=0.01)

    def test_tight_prior_argmax_near_mu(self):
        prior = GaussianPrior((4.0,), (1e-4,))
        arrivals = [0.3, 0.8]
        density = make_log_posterior(prior, arrivals, 3.0)
        grid = np.linspace(3.5, 4.5, 2001)
        values = density(grid[:, None])
        assert grid[int(np.argmax(values))] == pytest.approx(4.0, abs=0.01)

    def test_fast_closure_matches_reference(self):
        prior = GaussianPrior((1.5, 0.2, -0.05, 0.01), (1.0, 0.5, 0.2, 0.1))
        arrivals = [0.4, 1.1, 2.7, 3.9]
        density = make_log_posterior(prior, arrivals, 4.5)
        rng = np.random.default_rng(0)
        betas = np.vstack([rng.normal(prior.mu, prior.sigma, size=(20, 4)),
                           rng.normal(0, 2, size=(20, 4))])
        # Both sides of the closure's clamp check: states whose Bernstein
        # coefficients on [0, 4.5] (interpolated at 4 nodes) all exceed the
        # floor, and states whose rate crosses the floor.
        nodes = np.linspace(0.0, 1.0, 4)
        basis = np.array([[math.comb(3, k) * s**k * (1 - s) ** (3 - k) for k in range(4)]
                          for s in nodes])
        values = np.vander(4.5 * nodes, 4, increasing=True) @ betas.T
        bernstein = np.linalg.solve(basis, values)
        grid = np.vander(np.linspace(0.0, 4.5, 1001), 4, increasing=True)
        assert (bernstein.min(axis=0) >= 1e-6).sum() >= 5
        assert ((grid @ betas.T).min(axis=0) < 1e-6).sum() >= 5
        for beta in betas:
            reference = reference_log_posterior(prior, arrivals, 4.5, beta)
            assert density(beta[None])[0] == pytest.approx(reference, rel=1e-9, abs=1e-9)
        # One call on all 40 states, crossing and not, matches row by row.
        batched = density(betas)
        assert batched.shape == (40,)
        for beta, value in zip(betas, batched):
            reference = reference_log_posterior(prior, arrivals, 4.5, beta)
            assert value == pytest.approx(reference, rel=1e-9, abs=1e-9)


    def test_crossing_batch_matches_reference(self):
        # One call on states that cross the floor on [0, t_c], states that stay
        # above it and states below it throughout matches, row by row, a call
        # on each state on its own and the quadrature oracle.
        prior = GaussianPrior((2.0, -1.2, 0.0, 0.04), (1.0, 0.5, 0.2, 0.05))
        arrivals = [0.2, 0.9, 1.4, 5.8, 6.3]
        density = make_log_posterior(prior, arrivals, 6.5)
        rng = np.random.default_rng(3)
        noise = [0.02, 0.01, 0.002, 0.0002]
        betas = np.vstack([
            [2.0, -1.2, 0.0, 0.04] + rng.normal(0.0, noise, size=(30, 4)),  # dip below the floor
            [3.0, 0.1, 0.0, 0.01] + rng.normal(0.0, noise, size=(20, 4)),  # stay above it
            [-1.0, -0.1, 0.0, -0.01] + rng.normal(0.0, noise, size=(10, 4)),  # below it throughout
        ])
        grid = np.vander(np.linspace(0.0, 6.5, 1001), 4, increasing=True) @ betas.T
        lowest, highest = grid.min(axis=0), grid.max(axis=0)
        assert np.all((lowest[:30] < 1e-6) & (highest[:30] > 1e-6))
        assert np.all(lowest[30:50] > 1e-6) and np.all(highest[50:] < 1e-6)
        batched = density(betas)
        for beta, value in zip(betas, batched):
            assert value == pytest.approx(density(beta[None])[0], rel=1e-12)
            assert value == pytest.approx(reference_log_posterior(prior, arrivals, 6.5, beta),
                                          rel=1e-9, abs=1e-9)


def standard_normal(states):
    return -0.5 * (states * states).sum(axis=1)


class TestSamplePosterior:
    def test_standard_normal_recovery(self):
        config = SamplerConfig(chains=4, draws=1000, seed=1)
        samples = sample_posterior(standard_normal, [0.0], [1.0], config)
        flat = samples.flat_draws()[:, 0]
        assert abs(flat.mean()) < 0.05
        assert abs(flat.var() - 1.0) < 0.15
        assert samples.r_hat[0] < 1.05
        assert samples.ess[0] > 500

    def test_conjugate_gamma_poisson(self):
        # Homogeneous-rate likelihood with Gamma(a, b) prior: the posterior
        # is Gamma(a + n, b + T) with known mean.
        a, b = 2.0, 1.0
        arrivals = [0.2, 0.9, 1.7, 2.1, 2.8, 3.3, 4.1]
        n, total_time = len(arrivals), 5.0

        def log_density(states):
            rate = states[:, 0]
            with np.errstate(divide="ignore", invalid="ignore"):
                value = (a - 1 + n) * np.log(rate) - (b + total_time) * rate
            return np.where(rate > 0, value, -np.inf)

        config = SamplerConfig(chains=4, draws=1000, seed=7)
        samples = sample_posterior(log_density, [1.5], [0.6], config)
        flat = samples.flat_draws()[:, 0]
        analytic_mean = (a + n) / (b + total_time)
        stderr = flat.std(ddof=1) / math.sqrt(samples.ess[0])
        assert abs(flat.mean() - analytic_mean) <= 3 * stderr

    def test_correlated_gaussian(self):
        rho = 0.8
        precision = np.linalg.inv(np.array([[1.0, rho], [rho, 1.0]]))

        def log_density(states):
            return -0.5 * np.einsum("ki,ij,kj->k", states, precision, states)

        config = SamplerConfig(chains=4, draws=1000, seed=11)
        samples = sample_posterior(log_density, [0.0, 0.0], [1.0, 1.0], config)
        flat = samples.flat_draws()
        assert np.corrcoef(flat.T)[0, 1] == pytest.approx(rho, abs=0.1)

    def test_seed_determinism(self):
        config = SamplerConfig(chains=2, draws=200, seed=42)
        first = sample_posterior(standard_normal, [0.0], [1.0], config)
        second = sample_posterior(standard_normal, [0.0], [1.0], config)
        assert np.array_equal(first.draws, second.draws)
        assert first.acceptance == second.acceptance

    def test_chains_do_not_depend_on_the_chain_count(self):
        # Each chain draws from its own child of the seed, so the first two
        # chains of a 4-chain run are those of a 2-chain run.
        prior = GaussianPrior((1.5, 0.2, -0.05, 0.01), (1.0, 0.5, 0.2, 0.1))
        density = make_log_posterior(prior, [0.4, 1.1, 2.7, 3.9], 4.5)
        two = sample_posterior(density, prior.mu, prior.sigma,
                               SamplerConfig(chains=2, draws=200, seed=3))
        four = sample_posterior(density, prior.mu, prior.sigma,
                                SamplerConfig(chains=4, draws=200, seed=3))
        assert four.draws[:2].tobytes() == two.draws.tobytes()
        assert four.acceptance[:2] == two.acceptance

    def test_symmetric_target_symmetric_draws(self):
        config = SamplerConfig(chains=4, draws=1000, seed=5)
        samples = sample_posterior(standard_normal, [0.0], [1.0], config)
        flat = samples.flat_draws()[:, 0]
        stderr = flat.std(ddof=1) / math.sqrt(samples.ess[0])
        assert abs(flat.mean()) <= 3 * stderr

    def test_bimodal_target_uses_the_fallback_proposal(self):
        # Equal mixture of N(-3, 1) and N(3, 1): the log-density is convex at
        # the start 0, so the proposal keeps the start and its scale.  That
        # t proposal covers both modes: mean 0, variance 1 + 9 = 10.
        def log_density(states):
            x = states[:, 0]
            return np.logaddexp(-0.5 * (x - 3.0) ** 2, -0.5 * (x + 3.0) ** 2)

        centre, chol = _fit_proposal(log_density, np.array([0.0]), np.array([3.0]))
        assert centre.tolist() == [0.0] and chol.tolist() == [[3.0]]
        samples = sample_posterior(log_density, [0.0], [3.0],
                                   SamplerConfig(chains=4, draws=1000, seed=3))
        flat = samples.flat_draws()[:, 0]
        n_eff = samples.ess[0]
        assert abs(flat.mean()) <= 3 * flat.std(ddof=1) / math.sqrt(n_eff)
        squares = (flat - flat.mean()) ** 2
        assert abs(flat.var() - 10.0) <= 3 * squares.std(ddof=1) / math.sqrt(n_eff)
        assert samples.r_hat[0] < 1.05

    def test_non_finite_initialization_errors(self):
        config = SamplerConfig(chains=2, draws=50, seed=0)
        with pytest.raises(RuntimeError, match="initialization"):
            sample_posterior(lambda states: np.full(len(states), -np.inf), [0.0], [1.0], config)


    def test_too_few_total_draws_rejected(self):
        # ess needs 100 draws over all chains; the config says so up front.
        with pytest.raises(ValueError, match="at least 100"):
            SamplerConfig(chains=2, draws=49)
        SamplerConfig(chains=2, draws=50)


class TestRHat:
    def test_iid_chains_near_one(self):
        rng = np.random.default_rng(0)
        draws = rng.standard_normal((4, 1000))
        assert 0.99 <= r_hat(draws) <= 1.01

    def test_offset_chain_flags_divergence(self):
        rng = np.random.default_rng(1)
        draws = rng.standard_normal((4, 1000))
        draws[0] += 100.0
        assert r_hat(draws) > 2.0

    def test_constant_draws_convention(self):
        assert r_hat(np.full((4, 100), 3.3)) == 1.0

    def test_too_few_chains(self):
        with pytest.raises(ValueError):
            r_hat(np.zeros((1, 100)))


class TestEss:
    def test_iid_draws(self):
        rng = np.random.default_rng(2)
        draws = rng.standard_normal((4, 1000))
        assert 3000 <= ess(draws) <= 4000

    def test_ar1_draws(self):
        phi = 0.9
        rng = np.random.default_rng(3)
        chains = np.empty((4, 20_000))
        for c in range(4):
            noise = rng.standard_normal(20_000)
            x = np.empty(20_000)
            x[0] = noise[0]
            for i in range(1, 20_000):
                x[i] = phi * x[i - 1] + noise[i]
            chains[c] = x
        analytic = chains.size * (1 - phi) / (1 + phi)
        assert ess(chains) == pytest.approx(analytic, rel=0.3)

    def test_constant_draws_capped_with_warning(self):
        with pytest.warns(UserWarning, match="degenerate"):
            assert ess(np.full((2, 100), 1.0)) == 200.0

    def test_too_few_draws(self):
        with pytest.raises(ValueError):
            ess(np.zeros((2, 10)))


class TestPosteriorConsistency:
    def test_coverage_and_shrinkage_with_more_history(self):
        # On synthetic events from a known coefficient vector, the posterior
        # tightens toward the truth as the observed history grows.
        beta_star = np.array([2.0, 0.3])
        truth = PolynomialIntensity(tuple(beta_star))
        prior = GaussianPrior(mu=(1.5, 0.5), sigma=(1.5, 0.6))
        config = SamplerConfig(chains=2, draws=300, seed=0)

        errors = {2.0: [], 7.0: []}
        covered = {2.0: 0, 7.0: 0}
        n_events = 50
        for t_c in (2.0, 7.0):
            for k in range(n_events):
                arrivals = simulate_thinning(truth, ObservationWindow(0.0, t_c), 1000 + k)
                density = make_log_posterior(prior, arrivals, t_c)
                samples = sample_posterior(density, prior.mu, prior.sigma,
                                           SamplerConfig(chains=2, draws=300, seed=k))
                flat = samples.flat_draws()
                errors[t_c].append(np.linalg.norm(flat.mean(axis=0) - beta_star))
                lo = np.percentile(flat, 2.5, axis=0)
                hi = np.percentile(flat, 97.5, axis=0)
                if np.all((lo <= beta_star) & (beta_star <= hi)):
                    covered[t_c] += 1

        assert np.mean(errors[7.0]) < np.mean(errors[2.0])
        assert covered[7.0] / n_events >= 0.8
