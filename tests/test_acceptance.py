"""Acceptance suite: one test per advertised capability, at fixed tolerances.

Each test prints a ``criterion N: PASS`` line with the realized numbers
(visible under ``pytest -s``); the pass/fail verdict per criterion is the
test outcome itself under ``pytest -v``.
"""
import json
import math
import time

import numpy as np
import pytest

from rdbridge.blahut import ba_fixed_point, dual_certificate, rd_curve, rd_value_from_nu
from rdbridge.distortion import (
    d_max,
    discretize_gaussian,
    discretize_uniform,
    hamming,
    squared_error,
)
from rdbridge.io_cli import main as cli_main
from rdbridge.measures import ProbabilityVector
from rdbridge.schrodinger import eval_J, eval_L, schrodinger_residual, sinkhorn
from rdbridge.verify import (
    compare_curve,
    oracle_bernoulli_hamming,
    slb_gap,
    support_atoms,
)

MASS_THRESHOLD = 1e-6


def uniform_start(n, labels=None):
    return ProbabilityVector(np.full(n, 1.0 / n), labels=labels)


def effective_spread(log_g, weights):
    mask = weights >= MASS_THRESHOLD
    vals = log_g[mask]
    return float(vals.max() - vals.min()) if vals.size else 0.0


@pytest.fixture(scope="module")
def bernoulli_fixture():
    mu = ProbabilityVector([0.7, 0.3], labels=[0.0, 1.0])
    dist = hamming(2)
    start = time.perf_counter()
    curve = rd_curve(
        mu, dist, np.geomspace(0.1, 20.0, 30), tol=1e-11, max_iter=200000
    )
    wall = time.perf_counter() - start
    return mu, dist, curve, wall


@pytest.fixture(scope="module")
def gaussian_solves():
    src = discretize_gaussian(1.0)
    dist = squared_error(src.grid, src.grid)
    start = time.perf_counter()
    pre = ba_fixed_point(
        src.weights,
        dist,
        1.0,
        nu0=uniform_start(len(src.grid), src.grid),
        tol=3e-6,
        max_iter=60000,
    )
    curve = rd_curve(
        src.weights,
        dist,
        np.geomspace(1.0, 10.0, 8),
        tol=2e-5,
        max_iter=300000,
        nu0=pre.nu_star,
    )
    wall = time.perf_counter() - start
    iterations = pre.iterations + sum(p.iterations for p in curve.points)
    return src, dist, curve, wall, iterations


@pytest.fixture(scope="module")
def gaussian_fixture(gaussian_solves):
    # The same solves without the iteration count, for criteria 3 and 6.
    return gaussian_solves[:4]


def test_criterion_1_bernoulli_curve_matches_closed_form(bernoulli_fixture):
    _, _, curve, wall = bernoulli_fixture
    oracle = lambda d: oracle_bernoulli_hamming(0.3, d)
    max_err, table = compare_curve(curve, oracle, 0.01, 0.29)
    assert table.shape[0] >= 8
    assert max_err <= 1e-6
    assert wall < 1.0
    # Machine-independent budget: the 30 two-column Newton steps the sweep
    # takes (one per beta) plus a 15% margin.  Blahut-Arimoto finished by
    # Newton steps on a QP needed 246 iterations (evaluations plus steps),
    # and Blahut-Arimoto alone 2,330.
    iterations = sum(p.iterations for p in curve.points)
    assert iterations <= 35
    print(
        f"criterion 1: PASS (max |R - closed form| = {max_err:.3e} over "
        f"{table.shape[0]} points with D in [0.01, 0.29], sweep wall {wall:.2f}s, "
        f"{iterations} iterations <= 35)"
    )


def test_criterion_2_gaussian_curve_meets_lower_bound(gaussian_solves):
    src, dist, curve, wall, iterations = gaussian_solves
    assert wall < 30.0
    # Machine-independent budget: the 178 fixed-slope interior-point
    # iterations (pre-solve plus sweep, each solve cold from the uniform
    # law) plus a 15% margin.  Blahut-Arimoto finished by Newton steps on a
    # QP needed 2,546 iterations (evaluations plus steps), Blahut-Arimoto
    # alone 228,538 evaluations with a capped step, and the plain iteration
    # 412,926.
    assert iterations <= 205
    assert all(p.converged for p in curve.points)
    worst_rate = 0.0
    worst_gap = 0.0
    for point in curve.points:
        assert 0.049 <= point.distortion <= 0.501
        rate_err = abs(point.rate - 0.5 * math.log(1.0 / point.distortion))
        gap = abs(slb_gap(point, src, dist))
        worst_rate = max(worst_rate, rate_err)
        worst_gap = max(worst_gap, gap)
    assert worst_rate <= 5e-3
    assert worst_gap <= 5e-3
    print(
        f"criterion 2: PASS (8 points span D in "
        f"[{curve.distortions().min():.4f}, {curve.distortions().max():.4f}], "
        f"max |R - (1/2)ln(1/D)| = {worst_rate:.2e}, max |SLB gap| = "
        f"{worst_gap:.2e}, wall {wall:.1f}s < 30s, {iterations} iterations "
        f"<= 205)"
    )


# Sinkhorn iteration budget of each criterion-3 solve.
SINKHORN_BUDGET = 500


def test_criterion_3_potentials_flat_on_optimal_support(
    bernoulli_fixture, gaussian_fixture
):
    mu_b, dist_b, curve_b, _ = bernoulli_fixture
    src_g, dist_g, curve_g, _ = gaussian_fixture
    problems = [(mu_b, dist_b, curve_b), (src_g.weights, dist_g, curve_g)]
    worst_spread = 0.0
    worst_l = 0.0
    worst_j = 0.0
    most_iterations = 0
    checked = 0
    for mu, dist, curve in problems:
        for point in curve.points:
            if not point.converged:
                continue
            pair, _ = sinkhorn(
                mu, point.nu_star, dist, point.beta, tol=1e-12, max_iter=SINKHORN_BUDGET
            )
            most_iterations = max(most_iterations, pair.iterations)
            spread = effective_spread(pair.logG, point.nu_star.weights)
            l_value = abs(eval_L(mu, point.nu_star, dist, point.beta, pair))
            j_value = eval_J(
                mu, point.nu_star, dist, point.beta, point.distortion, pair
            )
            worst_spread = max(worst_spread, spread)
            worst_l = max(worst_l, l_value)
            worst_j = max(worst_j, abs(j_value - point.rate))
            checked += 1
    assert checked == len(curve_b.points) + len(curve_g.points)
    assert worst_spread <= 1e-5
    assert worst_l <= 1e-7
    assert worst_j <= 1e-7
    print(
        f"criterion 3: PASS ({checked} curve points; max potential spread "
        f"{worst_spread:.2e} on the mass >= 1e-6 support, max |L| = "
        f"{worst_l:.2e}, max |J - R| = {worst_j:.2e}; at most {most_iterations} "
        f"Sinkhorn iterations of max_iter={SINKHORN_BUDGET})"
    )


def test_criterion_4_perturbed_laws_are_strictly_worse():
    mu = ProbabilityVector([0.7, 0.3])
    dist = hamming(2)
    rng = np.random.default_rng(20240817)
    min_l = math.inf
    max_excess = -math.inf
    for k in range(20):
        beta = float(rng.uniform(0.9, 4.5))
        eps = 0.05 if k % 2 == 0 else 0.2
        star = ba_fixed_point(mu, dist, beta, tol=1e-12, max_iter=100000)
        mixed = (1.0 - eps) * star.nu_star.weights + eps * 0.5
        nu = ProbabilityVector(mixed / mixed.sum())

        # Dual value transported to the optimal point's distortion must
        # stay below the optimal rate ...
        d_pert, _ = rd_value_from_nu(mu, dist, beta, nu)
        _, _, dual_value = dual_certificate(mu, dist, beta, nu)
        matched = dual_value + beta * (d_pert - star.distortion)
        excess = matched - star.rate
        assert excess <= 1e-9, (beta, eps, excess)
        max_excess = max(max_excess, excess)

        # ... and the transport defect must be clearly positive.
        pair, _ = sinkhorn(mu, nu, dist, beta, tol=1e-12, max_iter=5000)
        l_value = eval_L(mu, nu, dist, beta, pair)
        assert l_value > 1e-6, (beta, eps, l_value)
        min_l = min(min_l, l_value)
    print(
        f"criterion 4: PASS (20 perturbed laws; dual value stays below the "
        f"optimal rate by at least {-max_excess:.2e}, smallest defect L = "
        f"{min_l:.2e} > 1e-6)"
    )


def test_criterion_5_bridge_matches_brute_force():
    inst = [
        (ProbabilityVector([0.5, 0.5]), ProbabilityVector([0.5, 0.5]), 1.0),
        (ProbabilityVector([0.7, 0.3]), ProbabilityVector([0.6, 0.4]), 1.3),
    ]
    dist = hamming(2)
    summaries = []
    for mu, nu, beta in inst:
        pair, coupling = sinkhorn(mu, nu, dist, beta, tol=1e-13)
        row_res, col_res, eq8_res = schrodinger_residual(mu, nu, dist, pair)
        assert max(row_res, col_res, eq8_res) <= 1e-10

        gamma = np.outer(mu.weights, nu.weights) * np.exp(-beta * dist.rho)
        gamma /= gamma.sum()
        if mu.weights[0] == 0.5 and nu.weights[0] == 0.5 and beta == 1.0:
            closed = 1.0 / (2.0 * (1.0 + math.exp(-1.0)))
            assert abs(coupling.joint[0, 0] - closed) <= 1e-12

        def grid_kl(joint):
            mask = joint > 0
            return float(np.sum(joint[mask] * np.log(joint[mask] / gamma[mask])))

        lo = max(0.0, mu.weights[0] + nu.weights[0] - 1.0)
        hi = min(mu.weights[0], nu.weights[0])
        best = math.inf
        for x in np.linspace(lo, hi, 10001):
            joint = np.array(
                [
                    [x, mu.weights[0] - x],
                    [nu.weights[0] - x, 1.0 - mu.weights[0] - nu.weights[0] + x],
                ]
            )
            if np.any(joint < 0):
                continue
            best = min(best, grid_kl(joint))
        ours = grid_kl(coupling.joint)
        assert best >= ours - 1e-6
        summaries.append(f"residuals <= {max(row_res, col_res, eq8_res):.1e}")
    print(
        f"criterion 5: PASS (2x2 closed form to 1e-12; grid projection never "
        f"beats the solved coupling; {'; '.join(summaries)})"
    )


def test_criterion_6_curves_have_the_right_shape(
    bernoulli_fixture, gaussian_fixture
):
    mu_b, dist_b, curve_b, _ = bernoulli_fixture
    src_g, dist_g, curve_g, _ = gaussian_fixture
    for curve in (curve_b, curve_g):
        report = curve.shape_report()
        assert report["max_distortion_increase"] <= 1e-9
        assert report["max_rate_decrease"] <= 1e-9
        assert report["max_chord_violation"] <= 1e-8

    # Past the maximal distortion the rate is pinned at zero: build laws
    # whose induced distortion overshoots d_max by 0.1% and evaluate.
    overshoots = []
    for mu, dist in [(mu_b, dist_b), (src_g.weights, dist_g)]:
        value, col = d_max(mu, dist)
        n = dist.shape[1]
        col_cost = mu.weights @ dist.rho
        avg = float(col_cost.mean())
        t = 0.001 * value / (avg - value)
        weights = np.full(n, t / n)
        weights[col] += 1.0 - t
        nu = ProbabilityVector(weights / weights.sum())
        d_over, rate = rd_value_from_nu(mu, dist, 0.0, nu)
        assert d_over >= value * 1.0009
        assert abs(rate) <= 1e-6
        overshoots.append(rate)

    # The low-slope end of the swept curve sits at (d_max, 0) as well.
    corner = curve_b.points[0]
    assert abs(corner.distortion - 0.3) <= 1e-6
    assert corner.rate <= 1e-6
    print(
        "criterion 6: PASS (both curves monotone and convex to tolerance; "
        f"rates at 1.001 d_max are {overshoots[0]:.1e} and {overshoots[1]:.1e})"
    )


def test_criterion_7_uniform_source_grows_isolated_atoms():
    src = discretize_uniform(-1.0, 1.0, 401)
    dist = squared_error(src.grid, src.grid)
    ceiling = 0.33333126037773403
    cell = float(src.grid[1] - src.grid[0])
    frozen = [
        (3.0625, 0.4, 0.13358536, 0.11770768, 0.446925),
        (2.4423828125, 0.5, 0.16683396, 0.13859751, 0.408034),
        (2.109375, 0.6, 0.19961677, 0.15412401, 0.365654),
    ]
    gaps = []
    for beta, frac, d_frozen, gap_frozen, center_frozen in frozen:
        point = ba_fixed_point(
            src.weights,
            dist,
            beta,
            nu0=uniform_start(len(src.grid), src.grid),
            tol=1e-5,
            max_iter=100000,
        )
        assert point.converged
        assert abs(point.distortion - frac * ceiling) <= 1e-3
        assert abs(point.distortion - d_frozen) <= 1e-3

        gap = slb_gap(point, src, dist)
        assert gap > 0.01
        assert abs(gap - gap_frozen) <= 1e-3
        gaps.append(gap)

        census = support_atoms(point.nu_star)
        assert len(census.clusters) == 2
        assert census.covered_mass >= 0.999
        left, right = census.clusters
        assert abs(left.center + center_frozen) <= 5e-3
        assert abs(right.center - center_frozen) <= 5e-3
        edge_gap = (right.center - left.center) - (left.width + right.width) / 2.0
        assert edge_gap >= 3.0 * cell
    print(
        "criterion 7: PASS (at D/d_max = 0.4, 0.5, 0.6 the support collapses "
        f"to 2 isolated clusters; SLB gaps {gaps[0]:.3f}, {gaps[1]:.3f}, "
        f"{gaps[2]:.3f} all > 0.01)"
    )


def test_criterion_8_runs_are_deterministic(tmp_path):
    # (a) CLI artifacts are byte-identical across repeats.
    nu_file = tmp_path / "half.txt"
    nu_file.write_text("0.5\n0.5\n")
    jobs = {
        "curve": [
            "curve", "--betas.list", "0.5,1.0,2.0,4.0", "--warm_start", "false",
        ],
        "compare": [
            "compare", "--oracle", "bernoulli", "--source.p", "0.3",
            "--betas.list", "1.0,1.5,2.0,3.0", "--warm_start", "false",
        ],
        "sinkhorn": [
            "sinkhorn", "--source.p", "0.5", "--beta", "1.0",
            "--nu", str(nu_file),
        ],
    }
    for name, argv in jobs.items():
        outputs = []
        for run in range(3):
            target = tmp_path / f"{name}_{run}.out"
            code = cli_main(argv + ["--out", str(target)])
            assert code == 0
            outputs.append(target.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], name

    # (b) Two library sweeps of the same schedule agree bit for bit.
    cases = [
        (
            ProbabilityVector([0.7, 0.3], labels=[0.0, 1.0]),
            hamming(2),
            np.geomspace(0.1, 20.0, 30),
            1e-11,
            200000,
        ),
    ]
    src = discretize_gaussian(1.0)
    cases.append(
        (
            src.weights,
            squared_error(src.grid, src.grid),
            np.array([1.0, 2.0, 4.0, 8.0]),
            1e-4,
            30000,
        )
    )
    for mu, dist, betas, tol, max_iter in cases:
        nu0 = uniform_start(dist.shape[1], getattr(mu, "labels", None))
        first = rd_curve(
            mu, dist, betas, tol=tol, max_iter=max_iter, nu0=nu0,
            warm_start=False,
        )
        rerun = rd_curve(
            mu, dist, betas, tol=tol, max_iter=max_iter, nu0=nu0,
            warm_start=False,
        )
        for a, b in zip(first.points, rerun.points):
            assert a.beta == b.beta
            assert a.distortion == b.distortion
            assert a.rate == b.rate
            assert a.iterations == b.iterations
            assert np.array_equal(a.nu_star.weights, b.nu_star.weights)
    print(
        "criterion 8: PASS (curve/compare/sinkhorn artifacts byte-identical "
        "across three reruns; library sweeps bit-identical across reruns)"
    )
