"""Gaussian coefficient priors and their JSON serialization."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class GaussianPrior:
    """Independent Normal priors, one per polynomial coefficient."""

    mu: tuple[float, ...]
    sigma: tuple[float, ...]

    def __post_init__(self):
        if len(self.mu) != len(self.sigma):
            raise ValueError("mu and sigma must have the same length")
        if not all(math.isfinite(v) for v in self.mu + self.sigma):
            raise ValueError("mu and sigma must be finite")
        if any(s <= 0 for s in self.sigma):
            raise ValueError("all sigma must be positive")

    @property
    def degree(self) -> int:
        return len(self.mu) - 1

    def to_json(self) -> str:
        payload = {
            "degree": self.degree,
            "mu": list(self.mu),
            "sigma": list(self.sigma),
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "GaussianPrior":
        payload = json.loads(text)
        mu = tuple(float(v) for v in payload["mu"])
        sigma = tuple(float(v) for v in payload["sigma"])
        if len(mu) != int(payload["degree"]) + 1:
            raise ValueError("coefficient count must equal degree + 1")
        return cls(mu=mu, sigma=sigma)


# Degree-3 defaults extracted from historical LEO screening data; usable
# when no training set is available to fit fresh priors.
DEFAULT_PRIOR = GaussianPrior(
    mu=(8.58, -0.54, -0.60, -0.01),
    sigma=(3.42, 0.41, 0.37, 0.19),
)
