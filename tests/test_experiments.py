"""``experiments.fit_slope``: the closed-form log-log line against ``np.polyfit``,
and drift sweeps that run without LAPACK."""

import math

import numpy as np
import pytest

from adiakit.config import RunConfig
from adiakit.experiments import SlopeFit, fit_slope, order_sweep

EPS = 0.2 / 2.0 ** np.arange(5)  # the default grid, 0.2 .. 0.0125
# Over 2000 seeded draws of 2-6 points, slopes 0-3 and 10 % log-normal noise,
# the closed form and ``np.polyfit`` differed by ≤ 5.8e-15 in the slope and
# ≤ 8.9e-15 in the residual
FIT_TOL = 1e-14


def polyfit_slope(eps_values, drifts, order):
    """``fit_slope`` as it was with ``np.polyfit``: the reference."""
    le, ld = np.log(eps_values), np.log(drifts)

    def fit(idx):
        slope, intercept = np.polyfit(le[idx], ld[idx], 1)
        return slope, np.abs(ld[idx] - (slope * le[idx] + intercept))

    idx = np.arange(le.size)
    slope, resid = fit(idx)
    excluded = ()
    if le.size >= 4:
        big = int(np.argmax(eps_values))
        if resid[big] > 3.0 * np.max(np.delete(resid, big)):
            idx = np.delete(idx, big)
            slope, resid = fit(idx)
            excluded = (float(eps_values[big]),)
    return SlopeFit(order=order, slope=float(slope), residual=float(np.max(resid)),
                    n_points=int(idx.size), excluded_eps=excluded)


def noisy_drifts(rng, eps, power, noise=0.1):
    return rng.uniform(1e-10, 1e-3) * eps ** power * np.exp(rng.normal(0.0, noise, eps.size))


def assert_matches_reference(eps, drifts, order):
    got, ref = fit_slope(eps, drifts, order), polyfit_slope(eps, drifts, order)
    assert abs(got.slope - ref.slope) <= FIT_TOL
    assert abs(got.residual - ref.residual) <= FIT_TOL
    assert (got.n_points, got.excluded_eps) == (ref.n_points, ref.excluded_eps)
    return got


@pytest.mark.parametrize("seed", range(20))
def test_slope_and_residual_match_polyfit(seed):
    rng = np.random.default_rng(seed)
    eps = EPS[:rng.integers(2, 6)]
    power = rng.uniform(0.0, 3.0)
    got = assert_matches_reference(eps, noisy_drifts(rng, eps, power), 1)
    assert got.slope == pytest.approx(power, abs=0.5)


def test_the_largest_eps_is_excluded_as_with_polyfit():
    # Least-squares residuals sum to zero against 1 and log ε, so the largest
    # ε's can exceed three times every other's only on 10 or more log-uniform
    # ε. Here a fifth-order correction that matters only at the largest of 12
    # gives a ratio of 3.08
    eps = 0.2 / 2.0 ** np.arange(12)
    got = assert_matches_reference(eps, eps ** 2 * (1.0 + 3e3 * eps ** 5), 2)
    assert got.excluded_eps == (0.2,) and got.n_points == 11
    assert got.slope == pytest.approx(2.0, abs=0.01) and got.in_window


def test_the_largest_eps_stays_as_with_polyfit():
    drifts = noisy_drifts(np.random.default_rng(4), EPS, 1.0, noise=0.01)
    got = assert_matches_reference(EPS, drifts, 0)
    assert got.excluded_eps == () and got.n_points == 5
    assert got.in_window


@pytest.mark.parametrize("bad", [0.0, -1e-6])
def test_a_non_positive_drift_gives_a_nan_fit(bad):
    drifts = EPS ** 2
    drifts[2] = bad
    got = fit_slope(EPS, drifts, 2)
    assert math.isnan(got.slope) and math.isnan(got.residual)
    assert (got.n_points, got.excluded_eps, got.in_window) == (5, (), False)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", [0, 3])
def test_a_nan_or_inf_drift_gives_a_nan_slope_outside_the_window(bad, where):
    # as ``np.polyfit`` gave: a nan slope and residual over all points
    drifts = EPS ** 1.0
    drifts[where] = bad
    got = fit_slope(EPS, drifts, 1)
    assert math.isnan(got.slope) and math.isnan(got.residual)
    assert (got.n_points, got.excluded_eps, got.in_window) == (5, (), False)


def test_a_drift_sweep_calls_no_lapack(monkeypatch):
    # the first LAPACK call in a process costs a drift run about 1.3 MB of
    # resident memory, for a two-parameter fit
    def lapack(*args, **kwargs):
        raise AssertionError("LAPACK called")

    monkeypatch.setattr(np, "polyfit", lapack)
    monkeypatch.setattr(np.linalg, "lstsq", lapack)
    config = RunConfig(fixture="elastic_pendulum", eps_grid=(0.2, 0.1, 0.05), samples=8,
                       orders=(0, 1))
    report = order_sweep(config)
    assert sorted(report.slopes) == [0, 1]
    assert all(fit.n_points == 3 and math.isfinite(fit.slope)
               for fit in report.slopes.values())
