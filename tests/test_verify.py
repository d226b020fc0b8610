"""Tests for optimality checks, support censuses, and oracle comparisons."""
import math
import warnings

import numpy as np
import pytest

from rdbridge.blahut import RDCurve, RDPoint, ba_fixed_point
from rdbridge.distortion import (
    DistortionMatrix,
    discretize_gaussian,
    discretize_uniform,
    hamming,
    squared_error,
)
from rdbridge.errors import ConvergenceError, EmptyComparisonError, InvalidInputError
from rdbridge.measures import Coupling, ProbabilityVector
import rdbridge.verify as verify
from rdbridge.schrodinger import DEFAULT_MAX_ITER, DEFAULT_TOL, sinkhorn
from rdbridge.verify import (
    OptimalityReport,
    SupportReport,
    check_optimality,
    compare_curve,
    oracle_bernoulli_hamming,
    oracle_gaussian_mse,
    slb_gap,
    support_atoms,
)


def make_point(distortion, rate, nu=None, converged=True, beta=1.0):
    return RDPoint(
        beta=beta,
        distortion=distortion,
        rate=rate,
        nu_star=nu if nu is not None else ProbabilityVector([1.0]),
        iterations=1,
        fixpoint_residual=0.0,
        certificate_slack=0.0,
        converged=converged,
    )


@pytest.fixture(scope="module")
def gaussian_point():
    src = discretize_gaussian(1.0)
    dist = squared_error(src.grid, src.grid)
    n = len(src.grid)
    nu0 = ProbabilityVector(np.full(n, 1.0 / n), labels=src.grid)
    point = ba_fixed_point(
        src.weights, dist, 2.0, nu0=nu0, tol=2e-5, max_iter=60000
    )
    return src, dist, point


@pytest.fixture(scope="module")
def uniform_point():
    src = discretize_uniform(-1.0, 1.0, 401)
    dist = squared_error(src.grid, src.grid)
    n = len(src.grid)
    nu0 = ProbabilityVector(np.full(n, 1.0 / n), labels=src.grid)
    point = ba_fixed_point(
        src.weights, dist, 2.4423828125, nu0=nu0, tol=1e-5, max_iter=100000
    )
    return src, dist, point


# --- closed-form oracles ----------------------------------------------------


def test_bernoulli_oracle_values():
    assert oracle_bernoulli_hamming(0.5, 0.1) == pytest.approx(
        0.36806420716849707, abs=1e-15
    )
    assert oracle_bernoulli_hamming(0.3, 0.0) == pytest.approx(
        0.6108643020548935, abs=1e-15
    )
    assert oracle_bernoulli_hamming(0.3, 0.3) == 0.0
    assert oracle_bernoulli_hamming(0.3, 2.0) == 0.0


def test_bernoulli_oracle_validation():
    with pytest.raises(InvalidInputError):
        oracle_bernoulli_hamming(0.0, 0.1)
    with pytest.raises(InvalidInputError):
        oracle_bernoulli_hamming(1.0, 0.1)
    with pytest.raises(InvalidInputError):
        oracle_bernoulli_hamming(0.5, -1e-9)


def test_gaussian_oracle_values():
    assert oracle_gaussian_mse(1.0, 0.25) == pytest.approx(math.log(2.0), abs=1e-15)
    assert oracle_gaussian_mse(1.0, 1.0) == 0.0
    assert oracle_gaussian_mse(2.0, 16.0) == 0.0


def test_gaussian_oracle_validation():
    with pytest.raises(InvalidInputError):
        oracle_gaussian_mse(0.0, 0.1)
    with pytest.raises(InvalidInputError):
        oracle_gaussian_mse(1.0, 0.0)


# --- optimality verdicts ----------------------------------------------------


def test_converged_law_is_certified_optimal():
    mu = ProbabilityVector([0.7, 0.3])
    dist = hamming(2)
    point = ba_fixed_point(mu, dist, 2.0, tol=1e-12, max_iter=20000)
    report = check_optimality(mu, dist, 2.0, point.nu_star)
    assert report.verdict == "optimal"
    assert report.g_spread <= 1e-6
    assert abs(report.l_value) <= 1e-8
    assert 0.0 <= report.dual_gap <= 1e-6
    assert report.detail == ""


def test_uniform_law_is_flagged_suboptimal():
    mu = ProbabilityVector([0.7, 0.3])
    report = check_optimality(mu, hamming(2), 2.0, ProbabilityVector([0.5, 0.5]))
    assert report.verdict == "suboptimal"
    assert report.l_value > 1e-7
    assert report.dual_gap > 1e-6


def test_beta_zero_any_law_is_optimal():
    mu = ProbabilityVector([0.7, 0.3])
    report = check_optimality(mu, hamming(2), 0.0, ProbabilityVector([0.5, 0.5]))
    assert report.verdict == "optimal"
    assert report.g_spread == 0.0
    assert report.l_value == pytest.approx(0.0, abs=1e-14)
    assert report.dual_gap == pytest.approx(0.0, abs=1e-14)


def test_zero_mass_row_outside_the_support_is_optimal():
    # The empty source row has zero partition mass under nu; it must not
    # turn the dual gap into nan and the verdict into "suboptimal".
    inf = math.inf
    mu = ProbabilityVector([0.5, 0.5, 0.0])
    dist = DistortionMatrix(np.array([[0.0, 1.0, inf], [1.0, 0.0, inf], [inf, inf, 0.0]]))
    report = check_optimality(mu, dist, 1.0, ProbabilityVector([0.5, 0.5, 0.0]))
    assert report.verdict == "optimal"
    assert 0.0 <= report.dual_gap <= 1e-15
    assert abs(report.certificate_slack) <= 1e-15


def test_failed_inner_solve_gives_inconclusive(monkeypatch):
    # A one-iteration budget leaves the Sinkhorn solve unconverged.
    monkeypatch.setattr(verify, "DEFAULT_MAX_ITER", 1)
    mu = ProbabilityVector([0.7, 0.3])
    report = check_optimality(mu, hamming(2), 1.5, ProbabilityVector([0.2, 0.8]))
    assert report.verdict == "inconclusive"
    assert math.isnan(report.l_value)
    assert report.detail != ""
    # Every pair has finite loss, so the marginals can be coupled.
    assert UNCOUPLABLE not in report.detail


def test_a_check_forms_no_coupling(monkeypatch):
    # The verdict reads the scaling pair only, converged or not; an
    # unconverged check names the shortfall in the words of sinkhorn's
    # ConvergenceError.
    made = []
    init = Coupling.__init__

    def counted(self, *args, **kwargs):
        made.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Coupling, "__init__", counted)
    mu, nu = ProbabilityVector([0.7, 0.3]), ProbabilityVector([0.2, 0.8])
    assert check_optimality(mu, hamming(2), 1.5, nu).verdict == "suboptimal"
    assert made == []
    monkeypatch.setattr(verify, "DEFAULT_MAX_ITER", 1)
    report = check_optimality(mu, hamming(2), 1.5, nu)
    assert made == []
    with pytest.raises(ConvergenceError) as err:
        sinkhorn(mu, nu, hamming(2), 1.5, DEFAULT_TOL, 1)
    assert report.detail == str(err.value)
    assert len(made) == 1 and isinstance(err.value.partial[1], Coupling)


UNCOUPLABLE = "marginals cannot be coupled on finite-loss pairs"


def test_uncouplable_marginals_are_named_in_the_verdict():
    # Column 1 needs mass 0.5 and only row 1, of mass 0.1, reaches it.
    inf = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = check_optimality(
            ProbabilityVector([0.9, 0.1]),
            DistortionMatrix(np.array([[0.0, inf], [1.0, 0.0]])),
            1.0,
            ProbabilityVector([0.5, 0.5]),
        )
    assert report.verdict == "inconclusive"
    assert report.detail.startswith(UNCOUPLABLE)
    assert "did not reach residual" in report.detail


def test_unconverged_coupling_off_unit_mass_gives_inconclusive():
    # The marginals cannot be coupled on finite-loss pairs, so Sinkhorn
    # runs out of budget, and its last iterate carries mass 1 - 1.3e-10.
    # The partial coupling must not fail its mass check and turn the
    # verdict into an InvalidInputError.
    inf = math.inf
    w = np.array([1.0, 1e-300, 1e-300])
    mu = ProbabilityVector(w / w.sum())
    nu = ProbabilityVector([0.2, 0.3, 0.5])
    dist = DistortionMatrix(np.array([[0.0, 3.757, inf], [0.0, inf, 2.565], [0.738, inf, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = check_optimality(mu, dist, 3.356, nu)
    assert report.verdict == "inconclusive"
    assert "did not reach residual" in report.detail
    # Column 2 needs mass 0.5 and only rows of mass 1e-300 reach it.
    assert report.detail.startswith(UNCOUPLABLE)


def test_verdict_dichotomy_under_perturbation():
    # Converged laws pass; multiplicatively tilted ones are always caught.
    dist = hamming(2)
    for p, beta in [(0.3, 2.0), (0.5, math.log(9.0)), (0.4, 1.5), (0.25, 2.5)]:
        mu = ProbabilityVector([1.0 - p, p])
        star = ba_fixed_point(mu, dist, beta, tol=1e-12, max_iter=50000)
        assert check_optimality(mu, dist, beta, star.nu_star).verdict == "optimal"

    rng = np.random.default_rng(20240817)
    for k in range(20):
        p = float(rng.uniform(0.25, 0.45))
        beta = float(rng.uniform(1.5, 3.0))
        mu = ProbabilityVector([1.0 - p, p])
        star = ba_fixed_point(mu, dist, beta, tol=1e-12, max_iter=50000)
        eps = 0.05 if k % 2 == 0 else 0.2
        tilted = star.nu_star.weights * np.array([1.0 + eps, 1.0 - eps])
        nu = ProbabilityVector(tilted / tilted.sum())
        report = check_optimality(mu, dist, beta, nu)
        assert report.verdict == "suboptimal", (p, beta, eps, report)
        assert report.g_spread > 1e-5 or report.l_value > 1e-7


def test_tolerance_defaults_are_stable():
    assert verify.G_TOL == 1e-5
    assert verify.L_TOL == 1e-7
    assert verify.D_TOL == 1e-6
    assert verify.MASS_THRESHOLD == 1e-6
    # The check's Sinkhorn solve runs at Sinkhorn's own defaults.
    assert (verify.DEFAULT_TOL, verify.DEFAULT_MAX_ITER) == (DEFAULT_TOL, DEFAULT_MAX_ITER)
    assert (DEFAULT_TOL, DEFAULT_MAX_ITER) == (1e-12, 2000)


# --- support census ---------------------------------------------------------


def test_point_mass_census():
    nu = ProbabilityVector([0.0, 1.0, 0.0], labels=[-1.0, 0.0, 1.0])
    report = support_atoms(nu)
    assert len(report.clusters) == 1
    cluster = report.clusters[0]
    assert cluster.center == 0.0
    assert cluster.mass == 1.0
    assert cluster.width == 0.0
    assert cluster.count == 1
    assert report.covered_mass == 1.0


def test_contiguous_support_is_one_cluster():
    n = 11
    nu = ProbabilityVector(np.full(n, 1.0 / n), labels=np.linspace(-1, 1, n))
    report = support_atoms(nu)
    assert len(report.clusters) == 1
    assert report.clusters[0].count == n
    assert report.clusters[0].width == pytest.approx(2.0, abs=1e-15)
    assert abs(report.clusters[0].center) < 1e-15


def test_gap_splits_clusters():
    labels = np.array([0.0, 1.0, 2.0, 3.0001, 9.0, 10.0])
    w = np.array([0.1, 0.2, 0.2, 0.1, 0.2, 0.2])
    report = support_atoms(ProbabilityVector(w, labels=labels))
    assert len(report.clusters) == 2
    assert report.clusters[0].count == 4
    assert report.clusters[1].count == 2
    assert report.covered_mass == pytest.approx(1.0, abs=1e-15)
    assert report.covered_mass == pytest.approx(
        sum(c.mass for c in report.clusters), abs=1e-15
    )


def test_mass_threshold_filters_atoms(monkeypatch):
    # A run of sub-threshold atoms opens a gap wide enough to split; with
    # the threshold at zero the same law is a single contiguous cluster.
    labels = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    w = np.array([0.5, 1e-9, 1e-9, 1e-9, 0.5 - 3e-9])
    report = support_atoms(ProbabilityVector(w, labels=labels))
    assert len(report.clusters) == 2
    assert report.covered_mass == pytest.approx(1.0 - 3e-9, abs=1e-15)
    monkeypatch.setattr(verify, "MASS_THRESHOLD", 0.0)
    everything = support_atoms(ProbabilityVector(w, labels=labels))
    assert len(everything.clusters) == 1


def test_census_validation(monkeypatch):
    with pytest.raises(InvalidInputError):
        support_atoms(ProbabilityVector([0.5, 0.5]))
    with pytest.raises(InvalidInputError):
        support_atoms(ProbabilityVector([0.5, 0.5], labels=[1.0, 0.0]))
    monkeypatch.setattr(verify, "MASS_THRESHOLD", 0.9)
    empty = support_atoms(ProbabilityVector([0.5, 0.5], labels=[0.0, 1.0]))
    assert empty.clusters == [] and empty.covered_mass == 0.0


# --- curve comparison -------------------------------------------------------


def test_compare_curve_sorts_and_measures():
    oracle = lambda d: oracle_bernoulli_hamming(0.3, d)
    pts = [
        make_point(d, oracle(d) + err)
        for d, err in [(0.2, 1e-7), (0.05, -3e-8), (0.12, 2e-8)]
    ]
    fwd, table_fwd = compare_curve(RDCurve(pts), oracle, 0.0, 1.0)
    rev, table_rev = compare_curve(RDCurve(pts[::-1]), oracle, 0.0, 1.0)
    assert fwd == rev == pytest.approx(1e-7, abs=1e-15)
    assert np.array_equal(table_fwd, table_rev)
    assert np.all(np.diff(table_fwd[:, 0]) > 0)
    assert table_fwd.shape == (3, 3)


def test_compare_curve_window_and_empty():
    oracle = lambda d: oracle_bernoulli_hamming(0.3, d)
    pts = [make_point(d, oracle(d)) for d in (0.05, 0.12, 0.2)]
    err, table = compare_curve(RDCurve(pts), oracle, 0.1, 0.15)
    assert table.shape == (1, 3)
    assert err == 0.0
    with pytest.raises(EmptyComparisonError):
        compare_curve(RDCurve(pts), oracle, 0.4, 0.5)


# --- Shannon lower bound ----------------------------------------------------


def test_gaussian_gap_is_tiny(gaussian_point):
    # The optimum does not fix the census: laws certified optimal at this
    # slope, with D and R equal to 1e-9, have 7 to 16 clusters, the largest
    # holding 0.21 to 0.9996 of the mass.  So the test asks for the
    # certificate, not for a cluster count.
    src, dist, point = gaussian_point
    assert point.converged
    assert abs(slb_gap(point, src, dist)) <= 5e-3
    assert check_optimality(src.weights, dist, point.beta, point.nu_star).verdict == "optimal"
    census = support_atoms(point.nu_star)
    assert census.covered_mass >= 0.999


def test_uniform_source_gap_and_split_support(uniform_point):
    src, dist, point = uniform_point
    assert point.converged
    gap = slb_gap(point, src, dist)
    assert gap > 0.01
    assert gap == pytest.approx(0.13859751, abs=1e-3)
    census = support_atoms(point.nu_star)
    assert len(census.clusters) == 2
    assert census.covered_mass >= 0.999
    left, right = census.clusters
    assert left.center == pytest.approx(-0.408034, abs=5e-3)
    assert right.center == pytest.approx(0.408034, abs=5e-3)
    cell = src.grid[1] - src.grid[0]
    edge_gap = (right.center - left.center) - (left.width + right.width) / 2.0
    assert edge_gap >= 3.0 * cell


def test_slb_gap_validation(uniform_point):
    src, dist, point = uniform_point
    with pytest.raises(InvalidInputError):
        slb_gap(point, src, hamming(401))
    with pytest.raises(InvalidInputError):
        slb_gap(make_point(0.1, 0.2, converged=False), src)


def test_slb_gap_clamps_negative_bound():
    # On a narrow source the bound goes negative near d_max and is clamped
    # to zero, so the gap degenerates to the rate itself.
    src = discretize_uniform(-0.01, 0.01, 21)
    dist = squared_error(src.grid, src.grid)
    h_diff = math.log(0.02)
    clamped = make_point(3e-5, 0.05)
    assert h_diff - 0.5 * math.log(2 * math.pi * math.e * 3e-5) < 0
    assert slb_gap(clamped, src, dist) == 0.05
    active = make_point(1e-5, 0.5)
    bound = h_diff - 0.5 * math.log(2 * math.pi * math.e * 1e-5)
    assert bound > 0
    assert slb_gap(active, src, dist) == pytest.approx(0.5 - bound, abs=1e-9)
