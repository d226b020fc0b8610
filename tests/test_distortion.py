"""Unit tests for loss matrices, discretized sources, and bounds."""
import math

import numpy as np
import pytest

from rdbridge.blahut import ba_fixed_point
from rdbridge.distortion import (
    DistortionMatrix,
    SourceSpec,
    _check_rows,
    d_floor,
    d_max,
    discretize_gaussian,
    discretize_uniform,
    expected_loss,
    hamming,
    normalize_loss,
    slb_mse,
    squared_error,
)
from rdbridge.errors import InvalidInputError
from rdbridge.measures import ProbabilityVector


# --- construction and validation ------------------------------------------


def test_distortion_matrix_validation():
    with pytest.raises(InvalidInputError):
        DistortionMatrix(np.array([[-1.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        DistortionMatrix(np.array([[0.0, float("nan")]]))
    with pytest.raises(InvalidInputError):
        DistortionMatrix(np.zeros((0, 2)))
    d = DistortionMatrix(np.array([[0.0, float("inf")], [2.0, 0.0]]))
    assert d.shape == (2, 2)
    # Rows need not attain zero.
    assert DistortionMatrix(np.array([[1.0, 2.0]])).rho.tolist() == [[1.0, 2.0]]


def test_hamming_shape_and_values():
    h = hamming(3)
    assert h.rho.tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    with pytest.raises(InvalidInputError):
        hamming(0)


def test_squared_error_normalization_detection():
    grid = np.array([-1.0, 0.0, 1.0])
    same = squared_error(grid, grid)
    assert np.all(same.rho.min(axis=1) == 0.0)
    assert same.rho[0, 2] == 4.0
    offset = squared_error(grid, grid + 0.25)
    assert np.all(offset.rho.min(axis=1) == 0.0625)


def test_squared_error_rejects_empty_or_non_vector_grids():
    grid = np.array([-1.0, 0.0, 1.0])
    for x, y in [([], grid), (grid, []), (np.ones((2, 2)), grid), (grid, 1.0)]:
        with pytest.raises(InvalidInputError, match="non-empty 1-D"):
            squared_error(x, y)


def test_normalize_loss_shifts_and_is_idempotent():
    raw = DistortionMatrix(np.array([[1.0, 3.0], [2.0, 0.5]]))
    fixed, offsets = normalize_loss(raw)
    assert np.all(fixed.rho.min(axis=1) == 0.0)
    assert offsets.tolist() == [1.0, 0.5]
    again, zero = normalize_loss(fixed)
    assert np.array_equal(again.rho, fixed.rho)
    assert np.all(zero == 0.0)
    with pytest.raises(InvalidInputError):
        normalize_loss(DistortionMatrix(np.array([[float("inf"), float("inf")]])))


# --- characteristic distortions -------------------------------------------


def test_d_max_bernoulli():
    mu = ProbabilityVector([0.7, 0.3])
    value, col = d_max(mu, hamming(2))
    assert value == pytest.approx(0.3, abs=1e-15)
    assert col == 0


def test_d_max_tie_takes_smallest_column():
    mu = ProbabilityVector([0.5, 0.5])
    _, col = d_max(mu, hamming(2))
    assert col == 0


def test_d_floor():
    mu = ProbabilityVector([0.6, 0.4])
    assert d_floor(mu, hamming(2)) == 0.0
    shifted = DistortionMatrix(np.array([[1.0, 2.0], [3.0, 1.5]]))
    assert d_floor(mu, shifted) == pytest.approx(0.6 * 1.0 + 0.4 * 1.5, abs=1e-15)


def test_one_row_count_check_serves_every_caller():
    mu = ProbabilityVector([0.2, 0.3, 0.5])
    message = "mu has 3 atoms but rho has 2 rows"
    with pytest.raises(InvalidInputError, match=message):
        _check_rows(mu, hamming(2))
    for caller in (d_max, d_floor, lambda m, d: ba_fixed_point(m, d, 1.0)):
        with pytest.raises(InvalidInputError, match=message):
            caller(mu, hamming(2))


def test_expected_loss_guards_infinities():
    dist = DistortionMatrix(np.array([[0.0, float("inf")], [1.0, 0.0]]))
    no_mass_on_inf = np.array([[0.5, 0.0], [0.25, 0.25]])
    assert expected_loss(no_mass_on_inf, dist) == pytest.approx(0.25, abs=1e-15)
    mass_on_inf = np.array([[0.4, 0.1], [0.25, 0.25]])
    assert expected_loss(mass_on_inf, dist) == float("inf")
    with pytest.raises(InvalidInputError):
        expected_loss(np.ones((3, 3)) / 9, dist)


def _guarded_loss(joint, rho):
    return float(np.sum(np.where(joint > 0, joint * np.where(np.isfinite(rho), rho, 0.0), 0.0)))


def test_expected_loss_on_finite_losses_is_the_guarded_sum_bit_for_bit():
    rng = np.random.default_rng(7)
    x = np.linspace(-3.0, 3.0, 41)
    dist = squared_error(x, x)
    for _ in range(20):
        joint = rng.random((41, 41)) * (rng.random((41, 41)) < 0.3)
        joint /= joint.sum()
        assert expected_loss(joint, dist) == _guarded_loss(joint, dist.rho)
    # An all-zero joint reads 0.0, not -0.0, as the guarded sum does.
    value = expected_loss(-np.zeros((41, 41)), dist)
    assert value == 0.0 and math.copysign(1.0, value) == 1.0
    # A negative or nan entry counts as no mass.
    joint = np.full((2, 2), 0.25)
    joint[0, 1] = -0.25
    assert expected_loss(joint, hamming(2)) == 0.25
    joint[0, 1] = float("nan")
    assert expected_loss(joint, hamming(2)) == 0.25


def test_slb_mse_value_and_validation():
    # Gaussian differential entropy makes the bound exactly (1/2) ln(s^2/D).
    h = 0.5 * math.log(2 * math.pi * math.e * 4.0)
    assert slb_mse(h, 1.0) == pytest.approx(0.5 * math.log(4.0), abs=1e-12)
    with pytest.raises(InvalidInputError):
        slb_mse(h, 0.0)


# --- discretized sources ---------------------------------------------------


def test_discretize_gaussian_entropy_matches_continuous():
    src = discretize_gaussian(1.0)
    assert len(src.weights) == 257
    assert src.grid[0] == -6.0 and src.grid[-1] == 6.0
    assert abs(src.grid[128]) < 1e-15
    h = -np.sum(src.weights.weights * np.log(src.weights.weights))
    h_diff = h + src.diff_entropy_offset
    assert abs(h_diff - 0.5 * math.log(2 * math.pi * math.e)) < 1e-6


def test_discretize_gaussian_validation():
    with pytest.raises(InvalidInputError):
        discretize_gaussian(0.0)
    with pytest.raises(InvalidInputError):
        discretize_gaussian(1.0, half_width_sigmas=2.0)
    with pytest.raises(InvalidInputError):
        discretize_gaussian(1.0, points=256)
    with pytest.raises(InvalidInputError):
        discretize_gaussian(1.0, points=1)


def test_discretize_uniform_entropy_is_exact():
    src = discretize_uniform(-1.0, 1.0, 401)
    h = -np.sum(src.weights.weights * np.log(src.weights.weights))
    assert abs(h + src.diff_entropy_offset - math.log(2.0)) < 1e-12
    assert abs(src.grid[200]) < 1e-15
    with pytest.raises(InvalidInputError):
        discretize_uniform(1.0, -1.0, 11)
    with pytest.raises(InvalidInputError):
        discretize_uniform(-1.0, 1.0, 0)


def test_uniform_source_d_max_regression():
    # Frozen: best single reconstruction sits at the center of the grid.
    src = discretize_uniform(-1.0, 1.0, 401)
    dist = squared_error(src.grid, src.grid)
    value, col = d_max(src.weights, dist)
    assert col == 200
    assert value == pytest.approx(0.33333126037773403, abs=1e-14)


def test_source_spec_derives_grid_and_offset():
    grid = np.array([0.0, 1.0, 3.0])
    weights = ProbabilityVector([0.25, 0.25, 0.5], labels=grid)
    spec = SourceSpec(weights, np.array([1.0, 1.5, 2.5]))
    assert spec.grid is weights.labels
    assert spec.diff_entropy_offset == pytest.approx(
        0.25 * math.log(1.5) + 0.5 * math.log(2.5), abs=1e-15
    )
    with pytest.raises(InvalidInputError, match="labels"):
        SourceSpec(ProbabilityVector([0.5, 0.5]), np.array([1.0, 1.0]))
    with pytest.raises(InvalidInputError, match="increasing"):
        SourceSpec(ProbabilityVector([0.5, 0.5], labels=[1.0, 0.0]), np.array([1.0, 1.0]))
    for widths in ([1.0, 0.0], [1.0, -1.0], [1.0]):
        with pytest.raises(InvalidInputError, match="cell widths"):
            SourceSpec(ProbabilityVector([0.5, 0.5], labels=[0.0, 1.0]), np.array(widths))
