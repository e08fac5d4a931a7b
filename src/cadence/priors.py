"""Gaussian coefficient priors and their JSON serialization."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .errors import FormatError


@dataclass(frozen=True)
class GaussianPrior:
    """Independent Normal priors, one per polynomial coefficient."""

    mu: tuple[float, ...]
    sigma: tuple[float, ...]

    def __post_init__(self):
        if not self.mu:
            raise ValueError("at least one coefficient required")
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
        """Inverse of ``to_json``; a missing or mistyped field raises FormatError naming it."""
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise FormatError(f"expected a JSON object, got {type(payload).__name__}")
        missing = sorted({"degree", "mu", "sigma"} - payload.keys())
        if missing:
            raise FormatError(f"missing field(s) {', '.join(missing)}")
        degree, mu, sigma = payload["degree"], payload["mu"], payload["sigma"]
        for name, values in (("mu", mu), ("sigma", sigma)):
            if not isinstance(values, list) or not all(type(v) in (int, float) for v in values):
                raise FormatError(f"field {name!r} must be a list of numbers, got {values!r}")
        if type(degree) is not int or len(mu) != degree + 1:
            raise FormatError(f"field 'degree' must be the integer len(mu) - 1, got {degree!r}")
        return cls(mu=tuple(map(float, mu)), sigma=tuple(map(float, sigma)))

