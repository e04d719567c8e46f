"""``experiments.fit_slope``: the closed-form log-log line over every ε against
``np.polyfit``, and drift sweeps that run without LAPACK and evaluate F₂ once
per ε."""

import math

import numpy as np
import pytest

from adiakit import invariants
from adiakit.config import RunConfig
from adiakit.errors import SlopeUndefined
from adiakit.experiments import fit_slope, order_sweep

EPS = 0.2 / 2.0 ** np.arange(5)  # the default grid, 0.2 .. 0.0125
# Over 20000 seeded draws of 2-12 ε spanning the default grid, log-uniform or
# irregular, slopes 0-3 and 10 % log-normal noise, the closed form and
# ``np.polyfit`` differed by ≤ 6.7e-15 in the slope and by ≤ 9 units in the
# last place of the largest |log drift| (≤ 2.1e-14) in the residual
FIT_TOL = 1e-14
RESIDUAL_ULPS = 16


def polyfit_slope(eps_values, drifts):
    """(slope, max residual) of ``np.polyfit``'s line over every point: the
    reference."""
    le, ld = np.log(eps_values), np.log(drifts)
    slope, intercept = np.polyfit(le, ld, 1)
    return slope, np.max(np.abs(ld - (slope * le + intercept)))


def noisy_drifts(rng, eps, power, noise=0.1):
    return rng.uniform(1e-10, 1e-3) * eps ** power * np.exp(rng.normal(0.0, noise, eps.size))


def assert_matches_reference(eps, drifts, order):
    got = fit_slope(eps, drifts, order)
    slope, residual = polyfit_slope(eps, drifts)
    assert abs(got.slope - slope) <= FIT_TOL
    assert abs(got.residual - residual) <= RESIDUAL_ULPS * np.spacing(
        np.max(np.abs(np.log(drifts))))
    return got


@pytest.mark.parametrize("seed", range(40))
def test_slope_and_residual_match_polyfit(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    if seed % 2:
        eps = np.geomspace(EPS[0], EPS[-1], n)
    else:  # irregular spacing over the same span, in no order
        inner = np.exp(rng.uniform(np.log(EPS[-1]), np.log(EPS[0]), n - 2))
        eps = rng.permutation(np.concatenate([EPS[[0, -1]], inner]))
    power = rng.uniform(0.0, 3.0)
    got = assert_matches_reference(eps, noisy_drifts(rng, eps, power), 1)
    assert got.slope == pytest.approx(power, abs=0.5)


def test_every_eps_is_fitted_on_12_log_uniform_eps():
    # a fifth-order correction that matters only at ε = 0.2 gives that point a
    # residual 3.08 times every other's; the line still runs through all 12
    eps = 0.2 / 2.0 ** np.arange(12)
    drifts = eps ** 2 * (1.0 + 3e3 * eps ** 5)
    got = assert_matches_reference(eps, drifts, 2)
    without_largest, _ = polyfit_slope(eps[1:], drifts[1:])
    assert abs(got.slope - without_largest) > 0.03
    assert got.slope == pytest.approx(2.039, abs=1e-3) and got.in_window


@pytest.mark.parametrize("eps", [[0.1], [0.1, 0.1], [0.1, 0.1, 0.1]])
def test_fewer_than_two_distinct_eps_raise(eps):
    with pytest.raises(SlopeUndefined, match="two distinct eps values"):
        fit_slope(eps, np.linspace(1e-3, 2e-3, len(eps)), 1)


@pytest.mark.parametrize("bad", [0.0, -1e-6])
def test_a_non_positive_drift_gives_a_nan_fit(bad):
    drifts = EPS ** 2
    drifts[2] = bad
    got = fit_slope(EPS, drifts, 2)
    assert math.isnan(got.slope) and math.isnan(got.residual) and not got.in_window


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", [0, 3])
def test_a_nan_or_inf_drift_gives_a_nan_slope_outside_the_window(bad, where):
    # as ``np.polyfit`` gave: a nan slope and residual
    drifts = EPS ** 1.0
    drifts[where] = bad
    got = fit_slope(EPS, drifts, 1)
    assert math.isnan(got.slope) and math.isnan(got.residual) and not got.in_window


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
    assert report.eps_grid == (0.2, 0.1, 0.05) and sorted(report.slopes) == [0, 1]
    assert all(math.isfinite(fit.slope) for fit in report.slopes.values())


def test_a_drift_sweep_and_its_f2_check_take_one_f2_pass_per_eps(monkeypatch):
    # the check reads F2 and its residual off the first eps job's batch at
    # sample 0, so no one-point pass runs besides the eps batches
    calls = []
    h_f1_bracket = invariants._h_f1_bracket

    def counted(*args):
        calls.append(args)
        return h_f1_bracket(*args)

    monkeypatch.setattr(invariants, "_h_f1_bracket", counted)
    config = RunConfig(fixture="elastic_pendulum", eps_grid=(0.2, 0.1, 0.05), samples=8,
                       orders=(0, 1, 2))
    report = order_sweep(config)
    assert report.f2_check["ok"] and report.f2_check["resolved"]
    assert len(calls) == len(config.eps_grid)
