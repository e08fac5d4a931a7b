"""Shared test helpers: oracles for the CSV writer, the timestamp check and the clamped rate.

The quadrature oracles use scipy only, never the integral they check.
The CSV oracles are the plain forms the fast paths must match byte for
byte: ``csv.writer.writerows`` over every row, and a stamp check that
formats each parsed stamp back and compares it with its text.
"""

import csv
import io
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import scipy.integrate
import scipy.optimize

from cadence.inference import make_log_posterior
from cadence.ingest import cutoff_time
from cadence.intensity import CLAMP_FLOOR
from cadence.prediction import runs_at_cutoff
from cadence.priors import GaussianPrior


def floor_crossings(coeffs, floor, a, b):
    """Where p - floor changes sign on [a, b]: a 10^4-point scan refined by brentq."""
    def excess(t):
        return np.polynomial.polynomial.polyval(t, coeffs) - floor

    grid = np.linspace(a, b, 10_001)
    values = excess(grid)
    cells = np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0)
    roots = [scipy.optimize.brentq(excess, grid[i], grid[i + 1], xtol=1e-15) for i in cells]
    on_grid = np.flatnonzero(values[1:-1] == 0.0) + 1  # a root can fall on a grid point
    return sorted(roots + [grid[i] for i in on_grid if values[i - 1] * values[i + 1] < 0])


def quad_clamped_integral(coeffs, a, b):
    """Oracle: adaptive quadrature of max(p, CLAMP_FLOOR) over [a, b], split at the floor crossings."""
    def rate(t):
        return max(np.polynomial.polynomial.polyval(t, coeffs), CLAMP_FLOOR)

    value, _ = scipy.integrate.quad(rate, a, b, points=floor_crossings(coeffs, CLAMP_FLOOR, a, b)
                                    or None, epsabs=0.0, epsrel=1e-12, limit=200)
    return value


def likelihood_term(coefficients, arrivals, t_c):
    """The NHPP log-likelihood of ``arrivals`` on [0, t_c] inside ``make_log_posterior``.

    The log-posterior of one state less its prior-only value (a window of
    zero width), under a standard Normal prior.
    """
    dim = len(coefficients)
    prior = GaussianPrior((0.0,) * dim, (1.0,) * dim)
    state = np.array([coefficients], dtype=float)
    return float(make_log_posterior(prior, arrivals, t_c)(state)[0]
                 - make_log_posterior(prior, [], 0.0)(state)[0])


def fixed_cutoff_runs(events, prior, cutoff_days_before_tca, sampler):
    """The runs of every event at one cutoff, as ``cadence predict`` makes them."""
    return [run for event in events
            for run in runs_at_cutoff(event, prior, cutoff_time(event, cutoff_days_before_tca),
                                      sampler)[0]]


def csv_writer_events_to_csv(events):
    """Oracle for ``ingest.events_to_csv``: one ``csv.writer`` row per arrival."""
    epoch = datetime(1970, 1, 1, tzinfo=timezone.utc)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("event_id", "tca", "creation_date"))
    for event in events:
        tca = (event.tca - epoch) // timedelta(seconds=1)
        before = np.rint((event.window_days - np.array(event.arrivals, dtype=float)) * 86400.0)
        seconds = np.r_[tca, tca - before.astype(np.int64)].astype("datetime64[s]")
        tca_text, *created = np.datetime_as_string(seconds, unit="s", timezone="UTC").tolist()
        writer.writerows((event.event_id, tca_text, text) for text in created)
    return out.getvalue()


def round_trip_epoch_seconds(texts):
    """Oracle for ``ingest._epoch_seconds``: a stamp is exact when numpy formats it back to its text."""
    raw = [text.strip().removesuffix("Z") for text in texts]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns, and still converts, at an offset
            stamps = np.array(raw, dtype="datetime64[s]")
    except (ValueError, UserWarning):
        return None
    in_range = (stamps >= np.datetime64("0001-01-01T00:00:00", "s")) & (
        stamps <= np.datetime64("9999-12-31T23:59:59", "s"))
    if not in_range.all() or np.datetime_as_string(stamps, unit="s").tolist() != raw:
        return None
    return stamps.astype(np.int64)
