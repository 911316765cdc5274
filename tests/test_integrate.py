"""Adaptive embedded Runge-Kutta stepper: accuracy and guard rails."""

import numpy as np
import pytest

from loewner_basin import _integrate
from loewner_basin._integrate import integrate_adaptive
from loewner_basin.errors import (EscapeError, InvalidInputError,
                                  NumericalFailureError)


def _decay(tau, y):
    return -y


def test_scalar_exponential_accuracy():
    y0 = np.array([0.7 + 0.2j])
    y, stats = integrate_adaptive(_decay, 0.0, 3.0, y0, 1e-10)
    assert abs(y[0] - y0[0] * np.exp(-3.0)) < 1e-11
    assert stats.steps_taken > 0
    assert stats.rhs_evaluations >= 6 * stats.steps_taken


def test_zero_span_is_identity():
    y0 = np.array([0.4 + 0.1j, -0.2 + 0j])
    y, stats = integrate_adaptive(_decay, 1.0, 1.0, y0, 1e-10)
    assert np.array_equal(y, y0)
    assert stats.steps_taken == 0


def test_error_shrinks_with_tolerance():
    def rhs(tau, y):
        return -(1.0 + np.sin(3.0 * tau)) * y

    y0 = np.array([0.5 + 0j])
    exact = y0[0] * np.exp(-(2.0 + (1.0 - np.cos(6.0)) / 3.0))
    errs = []
    for tol in (1e-6, 1e-9, 1e-12):
        y, _ = integrate_adaptive(rhs, 0.0, 2.0, y0, tol)
        errs.append(abs(y[0] - exact))
    assert errs[0] > errs[2]
    assert errs[2] < 1e-12


def test_breakpoints_make_piecewise_rhs_accurate():
    # rate jumps at tau = 1; without the breakpoint the stepper would
    # still converge, but with it the jump never sits inside a step
    def rhs(tau, y):
        return -(1.0 if tau < 1.0 else 3.0) * y

    y0 = np.array([0.6 + 0j])
    y, _ = integrate_adaptive(rhs, 0.0, 2.0, y0, 1e-11, breakpoints=(1.0,))
    assert abs(y[0] - 0.6 * np.exp(-4.0)) < 1e-12


def test_pure_relative_control_tracks_decaying_state():
    # after 60 units the state is ~1e-26; with the default absolute
    # floor the relative error there is unbounded, with atol=0 the
    # answer stays correct to many digits relative to itself
    y0 = np.array([1.0 + 0j])
    y, _ = integrate_adaptive(_decay, 0.0, 60.0, y0, 1e-10, atol=0.0)
    exact = np.exp(-60.0)
    assert abs(y[0] - exact) / exact < 1e-7


def test_escape_guard_reports_crossing_time():
    def rhs(tau, y):
        return y  # growing

    with pytest.raises(EscapeError) as exc:
        integrate_adaptive(rhs, 0.0, 5.0, np.array([0.5 + 0j]), 1e-10,
                           escape_radius=1.0)
    # 0.5 e^tau hits 1 at tau = log 2
    assert 0.0 < exc.value.t < np.log(2.0) + 0.5


def test_on_step_times_increase_strictly():
    seen = []
    integrate_adaptive(_decay, 0.0, 2.0, np.array([0.3 + 0j]), 1e-8,
                       on_step=lambda tau, y: seen.append(tau))
    assert seen and seen[-1] == 2.0
    assert all(b > a for a, b in zip(seen, seen[1:]))


def test_input_validation():
    y0 = np.array([0.1 + 0j])
    with pytest.raises(InvalidInputError):
        integrate_adaptive(_decay, 1.0, 0.0, y0, 1e-10)
    with pytest.raises(InvalidInputError):
        integrate_adaptive(_decay, 0.0, 1.0, y0, 1e-1)
    with pytest.raises(InvalidInputError):
        integrate_adaptive(_decay, 0.0, 1.0, y0, 1e-10, atol=-1.0)


def test_non_finite_step_raises():
    def nan_after(tau, y):
        return np.full_like(y, np.nan) if tau > 0.5 else -y

    y0 = np.array([0.1 + 0j])
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalFailureError):
            integrate_adaptive(nan_after, 0.0, 1.0, y0, 1e-10)
        with pytest.raises(NumericalFailureError):
            integrate_adaptive(lambda tau, y: np.full_like(y, np.inf),
                               0.0, 1.0, y0, 1e-10)


def test_tableau_is_dormand_prince():
    A, C, E = _integrate._A, _integrate._C, _integrate._E
    assert A.shape == (7, 7) and np.all(np.triu(A) == 0.0)
    assert np.max(np.abs(A.sum(axis=1) - C)) <= 1e-15
    # row 6 is the 5th order solution, and row 6 minus E the 4th order
    # one: each meets the quadrature conditions sum_i b_i c_i^(k-1) = 1/k
    b5 = A[6]
    b4 = b5 - E
    for b, order in ((b5, 5), (b4, 4)):
        for k in range(1, order + 1):
            assert abs(b @ C ** (k - 1) - 1.0 / k) <= 1e-15
    assert abs(E.sum()) <= 1e-15


def test_step_budget_raises_numerical_failure(monkeypatch):
    y0 = np.array([0.3 + 0j])
    _, stats = integrate_adaptive(_decay, 0.0, 50.0, y0, 1e-10)
    spent = stats.steps_taken + stats.steps_rejected
    monkeypatch.setattr(_integrate, "_MAX_STEPS", spent)
    y, _ = integrate_adaptive(_decay, 0.0, 50.0, y0, 1e-10)
    assert abs(y[0] - 0.3 * np.exp(-50.0)) < 1e-14
    monkeypatch.setattr(_integrate, "_MAX_STEPS", spent - 1)
    with pytest.raises(NumericalFailureError) as exc:
        integrate_adaptive(_decay, 0.0, 50.0, y0, 1e-10)
    assert exc.value.iterations == spent - 1
