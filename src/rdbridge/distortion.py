"""Distortion matrices, discretized sources, and characteristic distortions.

A distortion matrix holds rho[i][j] >= 0 (possibly +inf for forbidden
reconstructions).  No solver or certificate needs a row to attain zero:
adding m_i to row i of rho moves the expected distortion by
sum_i mu_i m_i and leaves the optimal law, the rate, the certificate
slack and the dual value as they were.  ``normalize_loss`` subtracts the
row minima where a zero floor is wanted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .measures import ProbabilityVector, _as_float_array


@dataclass
class DistortionMatrix:
    """A per-pair loss rho(x_i, y_j) on finite alphabets.

    Args:
        rho: matrix of nonnegative reals; +inf marks forbidden pairs.
            Rows need not attain zero.
    """

    rho: np.ndarray

    def __post_init__(self):
        self.rho = _as_float_array(self.rho, "rho", 2)
        # One pass: the minimum is nan if any entry is.
        if not self.rho.min() >= 0.0:
            raise InvalidInputError("rho entries must be nonnegative (or +inf)")

    @property
    def shape(self) -> tuple[int, int]:
        return self.rho.shape


@dataclass
class SourceSpec:
    """A continuous source discretized onto a grid.

    ``weights`` is labelled by the grid points, which ``grid`` returns,
    and ``cell_widths`` holds the width Delta_i of each point's cell.
    ``diff_entropy_offset`` is sum_i w_i ln(Delta_i): adding it to the
    discrete entropy of ``weights`` estimates the differential entropy.
    """

    weights: ProbabilityVector
    cell_widths: np.ndarray

    def __post_init__(self):
        self.cell_widths = np.asarray(self.cell_widths, dtype=float)
        if self.grid is None:
            raise InvalidInputError("source weights need grid labels")
        if np.any(np.diff(self.grid) <= 0):
            raise InvalidInputError("grid must be strictly increasing")
        if self.cell_widths.shape != self.grid.shape or np.any(self.cell_widths <= 0):
            raise InvalidInputError("cell widths must be positive, one per grid point")

    @property
    def grid(self) -> np.ndarray:
        return self.weights.labels

    @property
    def diff_entropy_offset(self) -> float:
        return float(np.sum(self.weights.weights * np.log(self.cell_widths)))


def hamming(n: int) -> DistortionMatrix:
    """0/1 loss on an n-letter alphabet."""
    if n < 1:
        raise InvalidInputError(f"alphabet size must be >= 1, got {n}")
    return DistortionMatrix(1.0 - np.eye(n))


def squared_error(xgrid, ygrid) -> DistortionMatrix:
    """Squared difference (x_i - y_j)^2 between two real grids.

    A row attains zero only where its source point lies on the
    reconstruction grid; the solvers and certificates take either kind.
    """
    x = np.asarray(xgrid, dtype=float)
    y = np.asarray(ygrid, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size == 0 or y.size == 0:
        raise InvalidInputError("grids must be non-empty 1-D arrays")
    return DistortionMatrix((x[:, None] - y[None, :]) ** 2)


def normalize_loss(dist: DistortionMatrix) -> tuple[DistortionMatrix, np.ndarray]:
    """Subtract each row's minimum so every row attains zero.

    Returns:
        (normalized matrix, offsets): offsets[i] is the amount subtracted
        from row i; expected distortions shift by sum_i mu_i offsets[i].

    Raises:
        InvalidInputError: if some row is identically +inf (no finite loss).
    """
    finite_min = np.min(dist.rho, axis=1)
    if np.any(~np.isfinite(finite_min)):
        bad = int(np.flatnonzero(~np.isfinite(finite_min))[0])
        raise InvalidInputError(f"row {bad} has no finite entry; cannot normalize")
    shifted = dist.rho - finite_min[:, None]
    return DistortionMatrix(shifted), finite_min


def _check_rows(mu: ProbabilityVector, dist: DistortionMatrix) -> None:
    if len(mu) != dist.shape[0]:
        raise InvalidInputError(f"mu has {len(mu)} atoms but rho has {dist.shape[0]} rows")


def d_max(mu: ProbabilityVector, dist: DistortionMatrix) -> tuple[float, int]:
    """Smallest distortion achievable at zero rate, with its witness column.

    Returns:
        (value, argmin): value = min_j E_mu[rho(X, y_j)], i.e. the best
        single-reconstruction expected loss; ties resolve to the smallest
        column index.
    """
    _check_rows(mu, dist)
    # E_mu[rho(X, y_j)] per column, on the rows of positive mass (no 0 * inf).
    live = mu.weights > 0
    expect = mu.weights[live] @ dist.rho[live, :]
    j = int(np.argmin(expect))
    return float(expect[j]), j


def d_floor(mu: ProbabilityVector, dist: DistortionMatrix) -> float:
    """Smallest achievable expected distortion: sum_i mu_i min_j rho[i][j]."""
    _check_rows(mu, dist)
    live = mu.weights > 0
    return float(np.sum(mu.weights[live] * np.min(dist.rho[live, :], axis=1)))


def expected_loss(joint: np.ndarray, dist: DistortionMatrix) -> float:
    """E_pi[rho] for a joint matrix on the same product alphabet.

    Entries where the coupling is zero contribute nothing even at
    infinite loss; a positive coupling entry on an infinite loss makes
    the expectation infinite.
    """
    joint = np.asarray(joint, dtype=float)
    if joint.shape != dist.shape:
        raise InvalidInputError(
            f"joint shape {joint.shape} does not match loss shape {dist.shape}"
        )
    if joint.min() >= 0.0 and dist.rho.max() < np.inf:
        # Every term is joint * rho, zero where the coupling is; the
        # + 0.0 turns the -0.0 of an all-zero joint into 0.0.
        return float(np.sum(joint * dist.rho)) + 0.0
    if np.any((joint > 0) & np.isposinf(dist.rho)):
        return float("inf")
    return float(np.sum(np.where(joint > 0, joint * np.where(np.isfinite(dist.rho), dist.rho, 0.0), 0.0)))


def slb_mse(diff_entropy: float, distortion: float) -> float:
    """Shannon lower bound for squared error: h(X) - 0.5 ln(2 pi e D)."""
    if distortion <= 0:
        raise InvalidInputError(f"distortion must be positive, got {distortion}")
    return float(diff_entropy - 0.5 * math.log(2.0 * math.pi * math.e * distortion))


def discretize_gaussian(
    sigma: float, half_width_sigmas: float = 6.0, points: int = 257
) -> SourceSpec:
    """Midpoint-rule discretization of N(0, sigma^2) on a symmetric grid.

    The grid is uniform on [-W, W] with W = half_width_sigmas * sigma and
    an odd number of points so that 0 is a grid point.  Weights are the
    renormalized density values, and every cell is Delta wide.
    """
    if sigma <= 0:
        raise InvalidInputError(f"sigma must be positive, got {sigma}")
    if half_width_sigmas < 4:
        raise InvalidInputError(
            f"half width must be >= 4 sigmas to control truncation, got {half_width_sigmas}"
        )
    if points < 3 or points % 2 == 0:
        raise InvalidInputError(f"points must be odd and >= 3, got {points}")
    w = half_width_sigmas * sigma
    grid = np.linspace(-w, w, points)
    delta = grid[1] - grid[0]
    dens = np.exp(-(grid**2) / (2.0 * sigma**2))
    dens /= dens.sum()
    return SourceSpec(ProbabilityVector(dens, labels=grid), np.full(points, delta))


def discretize_uniform(lo: float, hi: float, points: int) -> SourceSpec:
    """Uniform density on [lo, hi] as ``points`` equal cells at their midpoints.

    Cells tile the interval exactly, so discrete entropy + offset recovers
    ln(hi - lo) with no quadrature error.
    """
    if hi <= lo:
        raise InvalidInputError(f"need hi > lo, got [{lo}, {hi}]")
    if points < 1:
        raise InvalidInputError(f"points must be >= 1, got {points}")
    delta = (hi - lo) / points
    grid = lo + delta * (np.arange(points) + 0.5)
    weights = ProbabilityVector(np.full(points, 1.0 / points), labels=grid)
    return SourceSpec(weights, np.full(points, delta))
