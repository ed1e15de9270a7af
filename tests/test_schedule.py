import math

import numpy as np
import pytest

from uag.schedule import (
    ScheduleParams,
    default_schedule,
    logistic_gate,
    schedule_weights,
)


def test_gate_center_is_half():
    assert logistic_gate(5, 0.5479, 5) == 0.5


def test_gate_derived_value():
    # 1 / (1 + e^(0.5479 * 5)) evaluated directly
    assert logistic_gate(10, 0.5479, 5) == pytest.approx(0.06068239707803423, abs=1e-12)


def test_gate_zero_delta_constant():
    for t in (1, 7, 100):
        assert logistic_gate(t, 0.0, -3.0) == 0.5


def test_gate_monotone():
    values = [logistic_gate(t, 0.5, 10.0) for t in range(1, 30)]
    assert all(a > b for a, b in zip(values, values[1:]))
    rising = [logistic_gate(t, -0.5, 10.0) for t in range(1, 30)]
    assert all(a < b for a, b in zip(rising, rising[1:]))


def test_gate_point_symmetry():
    rng = np.random.default_rng(0)
    for x in rng.uniform(-60, 60, size=1000):
        total = logistic_gate(12 + x, 0.7, 12) + logistic_gate(12 - x, 0.7, 12)
        assert abs(total - 1.0) < 1e-12


def test_gate_saturates_instead_of_overflowing():
    assert 0.0 <= logistic_gate(1e6, 5.0, 0.0) < 1e-300
    assert logistic_gate(-1e6, 5.0, 0.0) == 1.0
    assert math.isfinite(logistic_gate(1e308, 1e300, 0.0))


def test_logistic_weights_at_center():
    params = ScheduleParams(alpha=2.0, beta=4.0, l0=7, delta=1.3, horizon=20)
    w = schedule_weights(7, params)
    assert w.w_local == pytest.approx(1.0)
    assert w.w_global == pytest.approx(2.0)


def test_constant_kind_returns_magnitudes_unchanged():
    params = ScheduleParams(alpha=1.766, beta=1.077, l0=38, delta=0.8024,
                            kind="constant", horizon=200)
    for t in (1, 38, 200):
        w = schedule_weights(t, params)
        assert (w.w_local, w.w_global) == (1.766, 1.077)


def test_linear_kind_endpoints_exact():
    params = ScheduleParams(alpha=0.3, beta=1.1, l0=0, delta=0, kind="linear",
                            horizon=200)
    first = schedule_weights(1, params)
    last = schedule_weights(200, params)
    assert (first.w_local, first.w_global) == (0.3, 0.0)
    assert (last.w_local, last.w_global) == (0.0, 1.1)


def test_linear_kind_single_step_degenerates_to_constant():
    params = ScheduleParams(alpha=0.5, beta=0.6, l0=0, delta=0, kind="linear",
                            horizon=1)
    w = schedule_weights(1, params)
    assert (w.w_local, w.w_global) == (0.5, 0.6)


def test_logistic_fractions_sum_to_one():
    params = ScheduleParams(alpha=0.3395, beta=1.3339, l0=5, delta=0.5479,
                            horizon=200)
    for t in range(1, 201):
        w = schedule_weights(t, params)
        assert w.w_local / params.alpha + w.w_global / params.beta == pytest.approx(1.0)


def test_weights_always_finite_and_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(500):
        params = ScheduleParams(
            alpha=float(rng.uniform(0, 10)),
            beta=float(rng.uniform(0, 10)),
            l0=float(rng.uniform(-1e4, 1e4)),
            delta=float(rng.uniform(0, 1e3)),  # x = delta (t - l0) still spans +-1e7
            kind=str(rng.choice(["logistic", "constant", "linear"])),
            horizon=int(rng.integers(1, 1000)),
        )
        t = int(rng.integers(1, params.horizon + 1))
        w = schedule_weights(t, params)
        assert math.isfinite(w.w_local) and w.w_local >= 0
        assert math.isfinite(w.w_global) and w.w_global >= 0


def test_negative_delta_rejected():
    # a negative sharpness would hand the weight from global to local
    with pytest.raises(ValueError, match="delta"):
        ScheduleParams(alpha=1, beta=1, l0=5, delta=-0.5, horizon=10)
    assert ScheduleParams(alpha=1, beta=1, l0=5, delta=0.0, horizon=10).delta == 0.0


def test_step_outside_horizon_rejected():
    params = ScheduleParams(alpha=1, beta=1, l0=5, delta=1, horizon=10)
    with pytest.raises(ValueError):
        schedule_weights(0, params)
    with pytest.raises(ValueError):
        schedule_weights(11, params)


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        ScheduleParams(alpha=-0.1, beta=1, l0=0, delta=1, horizon=10)
    with pytest.raises(ValueError):
        ScheduleParams(alpha=1, beta=1, l0=0, delta=1, horizon=0)
    with pytest.raises(ValueError):
        ScheduleParams(alpha=1, beta=1, l0=0, delta=1, kind="cosine", horizon=10)


def test_default_schedule_centered():
    params = default_schedule(40)
    assert params.l0 == 20.0
    assert params.horizon == 40
    mid = schedule_weights(20, params)
    assert mid.w_local == pytest.approx(params.alpha / 2)
