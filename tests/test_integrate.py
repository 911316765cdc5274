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
                       on_step=lambda rows, tau, y: seen.extend(tau))
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


# ---------------------------------------------------------------------------
# per-row spans


def _jumpy(tau, y):
    # row-wise rate that jumps at the breakpoints 1.0 and 2.5
    rate = (1.0 + (tau > 1.0) + 2.0 * (tau > 2.5)) * (1.0 + 0.3 * np.sin(tau))
    return -rate[:, None] * y


_KNOTS = (2.5, 1.0, 7.0)
#: spans crossing no breakpoint, one, or both; one ends on a breakpoint,
#: one starts on one, and one has zero length
_SPANS = [(0.0, 3.0), (0.5, 1.0), (1.2, 2.8), (2.0, 2.0), (0.9, 1.1),
          (0.0, 0.4), (2.5, 4.0)]


def test_rows_with_own_spans_step_as_they_would_alone():
    y0 = np.array([[0.6 + 0.1j, -0.2j], [0.3, 0.4], [0.05j, 0.7],
                   [0.2, 0.2], [-0.5, 0.1], [0.9, 0.0], [0.1, 0.1j]])
    alone = [integrate_adaptive(_jumpy, s, t, y[None], 1e-10,
                                breakpoints=_KNOTS)
             for (s, t), y in zip(_SPANS, y0)]
    assert alone[3][0][0].tobytes() == y0[3].tobytes()  # zero span: as is
    assert alone[3][1].rhs_evaluations == 0
    for order in (range(7), (3, 6, 0, 5, 1, 4, 2), (6, 5, 4, 3, 2, 1, 0)):
        order = list(order)
        s, t = np.array(_SPANS)[order].T
        y, stats = integrate_adaptive(_jumpy, s, t, y0[order], 1e-10,
                                      breakpoints=_KNOTS)
        for row, k in zip(y, order):
            assert row.tobytes() == alone[k][0][0].tobytes(), (order, k)
        assert (stats.steps_taken, stats.steps_rejected,
                stats.rhs_evaluations, stats.max_local_error) == (
            sum(a[1].steps_taken for a in alone),
            sum(a[1].steps_rejected for a in alone),
            sum(a[1].rhs_evaluations for a in alone),
            max(a[1].max_local_error for a in alone))
    # a scalar end shared by rows with their own starts
    y, _ = integrate_adaptive(_jumpy, np.array([0.0, 1.2]), 2.8, y0[:2],
                              1e-10, breakpoints=_KNOTS)
    assert y[1].tobytes() == integrate_adaptive(
        _jumpy, 1.2, 2.8, y0[1:2], 1e-10, breakpoints=_KNOTS)[0][0].tobytes()


def test_on_step_reports_each_rows_accepted_steps():
    y0 = np.array([[0.6 + 0j], [0.3j]])
    spans = [(0.0, 3.0), (1.2, 2.8)]
    seen = {0: [], 1: []}

    def on_step(rows, taus, states):
        assert states.shape == (len(rows), 1)
        for i, tau, w in zip(rows.tolist(), taus.tolist(), states):
            seen[i].append((tau, w.tobytes()))

    s, t = np.array(spans).T
    integrate_adaptive(_jumpy, s, t, y0, 1e-10, breakpoints=_KNOTS,
                       on_step=on_step)
    for i, (a, b) in enumerate(spans):
        lone = []
        integrate_adaptive(_jumpy, a, b, y0[i:i + 1], 1e-10,
                           breakpoints=_KNOTS,
                           on_step=lambda rows, taus, states: lone.append(
                               (float(taus[0]), states[0].tobytes())))
        assert seen[i] == lone and lone[-1][0] == b


def test_step_budget_error_names_the_rows_own_span(monkeypatch):
    y0 = np.array([[0.3 + 0j], [0.5 + 0j]])
    spans = [(0.0, 5.0), (2.0, 52.0)]

    def tries(k):
        _, stats = integrate_adaptive(_decay, *spans[k], y0[k:k + 1], 1e-10)
        return stats.steps_taken + stats.steps_rejected

    spent = [tries(0), tries(1)]
    assert spent[0] < spent[1] - 1  # only the long row runs out
    monkeypatch.setattr(_integrate, "_MAX_STEPS", spent[1] - 1)
    with pytest.raises(NumericalFailureError) as lone:
        integrate_adaptive(_decay, *spans[1], y0[1:], 1e-10)
    s, t = np.array(spans).T
    with pytest.raises(NumericalFailureError) as block:
        integrate_adaptive(_decay, s, t, y0, 1e-10)
    assert "on [2.0, 52.0]" in str(block.value)
    assert (str(block.value), block.value.iterations) == (
        str(lone.value), lone.value.iterations)


@pytest.mark.parametrize("s, t", [
    (np.zeros(2), 1.0),                   # one start too few
    (0.0, np.ones(4)),                    # one end too many
    (np.zeros((3, 1)), 1.0),              # not 1-D
    (np.array([0.0, 2.0, 0.0]), 1.0),     # t_1 < s_1
    (0.0, np.array([1.0, np.nan, 1.0])),  # not finite
    (np.array([-np.inf, 0.0, 0.0]), 1.0),
    (0.0, np.inf),
])
def test_spans_admission(s, t):
    with pytest.raises(InvalidInputError):
        integrate_adaptive(_decay, s, t, np.full((3, 1), 0.1 + 0j), 1e-10)
