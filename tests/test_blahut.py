"""Tests for the fixed-point solver, dual certificates, and curve sweeps."""
import json
import logging
import math
import re
import tracemalloc
import warnings
from contextvars import copy_context

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize
from scipy.special import logsumexp

import rdbridge.blahut as blahut
from rdbridge.blahut import (
    IP_TOL,
    KERNEL_FLOOR,
    ROW_SUM_FLOOR,
    SECOND_ORDER_TOL,
    RDCurve,
    RDPoint,
    _blahut_arimoto,
    _log_kernel,
    _log_weights,
    _logsumexp,
    _Tilt,
    ba_fixed_point,
    dual_certificate,
    rd_curve,
    rd_value_from_nu,
    solve_point_for_distortion,
)
from rdbridge.distortion import (
    DistortionMatrix,
    d_floor,
    d_max,
    discretize_gaussian,
    discretize_uniform,
    expected_loss,
    hamming,
    normalize_loss,
    squared_error,
)
from rdbridge.errors import ConvergenceError, InvalidInputError
from rdbridge.io_cli import main
from rdbridge.measures import Coupling, ProbabilityVector, kl_divergence, mutual_information
from rdbridge.verify import check_optimality


def binary_entropy(q: float) -> float:
    if q in (0.0, 1.0):
        return 0.0
    return -q * math.log(q) - (1.0 - q) * math.log(1.0 - q)


# --- known closed-form optima ----------------------------------------------


def test_fair_coin_interior_point():
    # At beta = ln 9 the induced distortion is exactly 0.1 and the rate is
    # ln 2 - H(0.1).
    mu = ProbabilityVector([0.5, 0.5])
    point = ba_fixed_point(mu, hamming(2), math.log(9.0), tol=1e-12, max_iter=2000)
    assert point.converged
    assert abs(point.distortion - 0.1) < 1e-9
    assert abs(point.rate - (math.log(2.0) - binary_entropy(0.1))) < 1e-9
    assert abs(point.rate - 0.36806420716849707) < 1e-9


def test_biased_coin_interior_distortion_is_p_free():
    # Inside the non-trivial regime D(beta) = 1 / (1 + e^beta) regardless
    # of the source bias.
    beta = 1.5
    expected = 1.0 / (1.0 + math.exp(beta))
    for p in (0.3, 0.42):
        mu = ProbabilityVector([1.0 - p, p])
        point = ba_fixed_point(mu, hamming(2), beta, tol=1e-12, max_iter=5000)
        assert point.converged
        assert abs(point.distortion - expected) < 1e-9
        assert abs(point.rate - (binary_entropy(p) - binary_entropy(expected))) < 1e-8


def test_biased_coin_corner_regime():
    # Below the critical slope ln((1-p)/p) the optimum collapses onto a
    # single reconstruction symbol: zero rate at the maximal distortion.
    mu = ProbabilityVector([0.7, 0.3])
    point = ba_fixed_point(mu, hamming(2), 0.5, tol=1e-12, max_iter=20000)
    assert point.converged
    assert abs(point.distortion - 0.3) < 1e-9
    assert abs(point.rate) < 1e-9


def test_support_pinning_reaches_exact_zero(caplog):
    # In the corner regime the doomed atom decays geometrically, by the
    # factor c_1 = 0.7 e^-0.5 + 0.3 e^0.5 = 0.919 per plain update near the
    # optimum.  Started just above the support floor, it crosses the floor
    # in the update that ends the solve, is pinned to an exact zero and is
    # never revived.
    mu = ProbabilityVector([0.7, 0.3])
    start = ProbabilityVector([1.0, 1.05 * blahut.SUPPORT_FLOOR])
    with caplog.at_level(logging.DEBUG, logger="rdbridge.blahut"):
        point = ba_fixed_point(mu, hamming(2), 0.5, nu0=start, tol=10.0 * SECOND_ORDER_TOL)
    assert any("pinned 1 reconstruction atoms" in r.getMessage() for r in caplog.records)
    assert point.converged
    assert point.nu_star.weights.tolist() == [1.0, 0.0]
    assert point.nu_star.support.tolist() == [0]
    assert point.distortion == pytest.approx(0.3, abs=1e-15)
    assert point.rate == 0.0


def test_support_total_counts_an_atom_that_underflows_to_zero(caplog):
    # The third atom starts at 1e-293, above the support floor, and its
    # update factor is about e^-132, so one plain map sends it straight to
    # exact zero without a pin.  The total still counts it.
    mu = ProbabilityVector([0.5, 0.5])
    dist = DistortionMatrix([[0.0, 1.0, 11.0], [1.0, 0.0, 11.0]])
    start = ProbabilityVector([0.5, 0.5 - 1e-293, 1e-293])
    with caplog.at_level(logging.DEBUG, logger="rdbridge.blahut"):
        point = ba_fixed_point(mu, dist, 12.0, nu0=start, tol=1e-3)
    messages = [r.getMessage() for r in caplog.records]
    assert not any("pinned" in m for m in messages)
    assert "support shrank by 1 atoms in total" in messages
    assert point.converged and point.nu_star.weights[2] == 0.0


@pytest.mark.parametrize("mass", [1e-280, 1e-299, 1e-300, 1e-305, 1e-310, 1e-320])
def test_a_source_atom_of_tiny_mass_keeps_its_private_column(mass):
    # Row 2 reaches only column 2, and the first plain map puts exactly its
    # mass there.  A pin at a floor above that mass would leave row 2 with
    # zero partition mass, and the solve would raise InvalidInputError;
    # the floor stays below mu_min / n.
    mu = ProbabilityVector([0.5, 0.5, mass])
    dist = DistortionMatrix([[0.0, 1.0, math.inf], [1.0, 0.0, math.inf], [math.inf, math.inf, 0.0]])
    curve = rd_curve(mu, dist, [0.5, 1.0, 2.0], tol=1e-3)
    point = ba_fixed_point(mu, dist, 2.0, tol=1e-3)
    assert point.converged and all(p.converged for p in curve.points)
    # F = R + beta D is least at the optimal law F*, and a law's slack
    # bounds its excess: F* >= F - ln(1 + slack).
    tight = ba_fixed_point(mu, dist, 2.0, tol=1e-10)

    def f(p):
        return p.rate + 2.0 * p.distortion, math.log1p(max(p.certificate_slack, 0.0))

    f_tight, gap_tight = f(tight)
    for answer in (point, curve.points[-1]):
        f_loose, gap = f(answer)
        assert f_tight - gap_tight - 1e-15 <= f_loose <= f_tight + gap + 1e-15


@pytest.mark.parametrize(
    "problem, beta, tol",
    [
        ("bernoulli", 3.0, 1e-11),  # the two-column solve
        ("gaussian", 9.37, 1e-9),  # the interior point
    ],
)
def test_a_fixed_slope_second_order_answer_is_certified_once(monkeypatch, problem, beta, tol):
    # The stop rule reads only the slack and the residual; D and R are
    # certified at the returned law alone.
    if problem == "bernoulli":
        mu, dist = ProbabilityVector([0.8, 0.2]), hamming(2)
    else:
        src = discretize_gaussian(1.0)
        mu, dist = src.weights, squared_error(src.grid, src.grid)
    certificate, calls = _Tilt.certificate, []

    def counted(self, x):
        calls.append(None)
        return certificate(self, x)

    monkeypatch.setattr(_Tilt, "certificate", counted)
    point = ba_fixed_point(mu, dist, beta, tol=tol)
    assert point.converged
    assert len(calls) == 1


def test_log_domain_regime_matches_entropy():
    # At beta = 80 the off-diagonal kernel entries are e^-80; the
    # distortion is ~e^-80 so the rate equals the source entropy to far
    # better than the tolerance checked.
    mu = ProbabilityVector([0.7, 0.3])
    point = ba_fixed_point(mu, hamming(2), 80.0, tol=1e-12, max_iter=500)
    assert point.converged
    assert abs(point.rate - 0.6108643020548935) < 1e-9
    assert point.distortion < 1e-30


def test_unnormalized_loss_matches_its_normalized_version():
    # A constant added to a row of rho only rescales that row of the
    # kernel, so the optimal law and the rate are those of the normalized
    # loss and D moves by sum_i mu_i offset_i.  beta * max(rho) stays
    # small, where the cached kernel is shifted by the row maxima.
    mu = ProbabilityVector([0.5, 0.3, 0.2])
    raw = DistortionMatrix(np.array([[1.0, 2.0, 3.5], [2.5, 0.5, 1.0], [3.0, 2.0, 1.5]]))
    normalized, offsets = normalize_loss(raw)
    tol = 1e-11
    beta = 2.0
    assert np.all(raw.rho.min(axis=1) > 0.0) and beta * raw.rho.max() < 30.0
    point = ba_fixed_point(mu, raw, beta, tol=tol, max_iter=50000)
    ref = ba_fixed_point(mu, normalized, beta, tol=tol, max_iter=50000)
    assert point.converged and ref.converged
    assert np.abs(point.nu_star.weights - ref.nu_star.weights).max() <= tol
    assert point.rate == pytest.approx(ref.rate, abs=tol)
    assert point.distortion == pytest.approx(ref.distortion + mu.weights @ offsets, abs=tol)


def test_restricted_support_start_reports_unbounded_slack():
    # Starting with zero mass on the only useful column: the iteration has
    # nowhere to move (zero atoms are never revived), the fixed-point
    # residual is zero, but the dual slack is infinite -- the certificate
    # correctly refuses to bless the restricted-support law.  This also
    # exercises the per-call logsumexp fallback (the cached shifted sum
    # underflows to zero on a live row).  Only Blahut-Arimoto starts from
    # the given law, so the tolerance is above SECOND_ORDER_TOL.
    mu = ProbabilityVector([0.5, 0.5])
    dist = DistortionMatrix(np.array([[0.0, 1e4], [1e4, 0.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ConvergenceError) as excinfo:
            ba_fixed_point(
                mu, dist, 1.0, nu0=ProbabilityVector([0.0, 1.0]),
                tol=10.0 * SECOND_ORDER_TOL, max_iter=50,
            )
    partial = excinfo.value.partial
    assert partial.converged is False
    assert partial.nu_star.weights.tolist() == [0.0, 1.0]
    assert partial.distortion == pytest.approx(5000.0, abs=1e-9)
    assert partial.rate == pytest.approx(0.0, abs=1e-9)
    assert partial.fixpoint_residual == 0.0
    assert math.isinf(partial.certificate_slack)
    assert not math.isnan(partial.distortion) and not math.isnan(partial.rate)


def test_rate_equals_mutual_information_of_tilted_coupling():
    mu = ProbabilityVector([0.6, 0.4])
    dist = hamming(2)
    beta = 1.2
    point = ba_fixed_point(mu, dist, beta, tol=1e-12, max_iter=5000)
    phi = np.exp(-beta * dist.rho)
    z = phi @ point.nu_star.weights
    joint = mu.weights[:, None] * phi * point.nu_star.weights[None, :] / z[:, None]
    coupling = Coupling(joint)
    assert abs(mutual_information(coupling) - point.rate) < 1e-9
    assert abs(expected_loss(joint, dist) - point.distortion) < 1e-12


def test_fixpoint_residual_decreases_along_the_iteration():
    # Rerunning Blahut-Arimoto with an increasing budget exposes the
    # residual after k steps; it should never grow.  A tol of 1e-300 keeps
    # every budget running to its end.
    instances = []
    mu1 = ProbabilityVector([0.65, 0.35])
    instances.append((mu1, hamming(2), 1.0, None))
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.0, 2.0, size=(4, 6))
    rho -= rho.min(axis=1, keepdims=True)
    w = rng.uniform(0.1, 1.0, size=4)
    mu2 = ProbabilityVector(w / w.sum())
    instances.append((mu2, DistortionMatrix(rho), 1.7, None))
    for mu, dist, beta, nu0 in instances:
        residuals = []
        for k in range(1, 41):
            point = _blahut_arimoto(_Tilt(mu, dist, beta), nu0, 1e-300, k)
            residuals.append(point.fixpoint_residual)
        diffs = np.diff(residuals)
        assert np.all(diffs <= 1e-15), residuals


def test_objective_never_increases_along_the_iteration():
    # An extrapolated Blahut-Arimoto law is kept only if
    # F(nu) = -sum_i mu_i ln Z_i does not rise above F(x1), and plain maps
    # never increase F.  The third instance starts near the optimum at a
    # steep slope.  The fourth starts far from the optimum, where the first
    # two candidates raise F and are rejected.
    def objective(mu, dist, beta, nu):
        z = np.exp(-beta * dist.rho) @ nu
        return float(-(mu.weights @ np.log(z)))

    instances = []
    mu1 = ProbabilityVector([0.65, 0.35])
    instances.append((mu1, hamming(2), 1.0, None))
    rng = np.random.default_rng(7)
    rho = rng.uniform(0.0, 2.0, size=(4, 6))
    rho -= rho.min(axis=1, keepdims=True)
    w = rng.uniform(0.1, 1.0, size=4)
    mu2 = ProbabilityVector(w / w.sum())
    instances.append((mu2, DistortionMatrix(rho), 1.7, None))
    mu3 = ProbabilityVector([0.7, 0.3])
    instances.append((mu3, hamming(2), 10.0, ProbabilityVector([0.9, 0.1])))
    nu4 = ProbabilityVector([0.95, 0.05])
    instances.append((mu3, hamming(2), 3.0, nu4))

    # The rejections are real: the candidates at the first two alphas
    # raise F above F(x1), and the third does not.  The budgets of three
    # and four end on a rejected candidate and return x2 = G(x1); the
    # budget of five keeps the third candidate and returns its plain map.
    phi = np.exp(-3.0 * hamming(2).rho)

    def plain_map(nu):
        c = phi.T @ (mu3.weights / (phi @ nu))
        return nu * c / (nu @ c)

    x0 = nu4.weights
    x1 = plain_map(x0)
    x2 = plain_map(x1)
    r, v = x1 - x0, x2 - 2.0 * x1 + x0
    alpha = -max(1.0, math.sqrt((r @ r) / (v @ v)))
    f1 = objective(mu3, hamming(2), 3.0, x1)
    for _ in range(2):
        candidate = x0 - 2.0 * alpha * r + alpha**2 * v
        assert alpha < -1.0 and candidate.min() >= 0.0
        assert objective(mu3, hamming(2), 3.0, candidate) > f1 + 1e-3
        alpha = 0.5 * (alpha - 1.0)
    candidate = x0 - 2.0 * alpha * r + alpha**2 * v
    assert alpha < -1.0 and objective(mu3, hamming(2), 3.0, candidate) <= f1
    for budget, expected in ((3, x2), (4, x2), (5, plain_map(candidate))):
        partial = _blahut_arimoto(_Tilt(mu3, hamming(2), 3.0), nu4, 1e-300, budget)
        assert not partial.converged
        np.testing.assert_allclose(partial.nu_star.weights, expected, rtol=1e-12)

    # The 4 x 6 instance also runs at a tolerance where it converges, at
    # 21 evaluations after 5 extrapolated laws.
    loose = (mu2, DistortionMatrix(rho), 1.7, None, 10.0 * SECOND_ORDER_TOL)
    runs = [(*instance, 1e-300) for instance in instances] + [loose]
    for mu, dist, beta, nu0, tol in runs:
        n = dist.shape[1]
        start = np.full(n, 1.0 / n) if nu0 is None else nu0.weights
        values = [objective(mu, dist, beta, start)]
        for k in range(1, 41):
            point = _blahut_arimoto(_Tilt(mu, dist, beta), nu0, tol, k)
            values.append(objective(mu, dist, beta, point.nu_star.weights))
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-15), values


@st.composite
def loose_problems(draw):
    """(mu, rho, beta, tol): m x n losses, m <= 6 and 2 <= n <= 8, +inf entries, zero-mass rows.

    Every row has a zero loss, so every row of positive mass has a finite
    one; tol is loose enough for Blahut-Arimoto.
    """
    n = draw(st.integers(2, 8))
    m = draw(st.integers(1, 6))
    mass = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    mu = np.array(draw(st.lists(mass, min_size=m, max_size=m)))
    if mu.sum() == 0:
        mu[0] = 1.0
    loss = st.one_of(st.just(math.inf), st.floats(0.0, 4.0))
    rho = np.array(draw(st.lists(st.lists(loss, min_size=n, max_size=n), min_size=m, max_size=m)))
    rho[np.arange(m), draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))] = 0.0
    beta = math.exp(draw(st.floats(math.log(1e-2), math.log(50.0))))
    tol = draw(st.sampled_from([1e-3, 2e-4]))
    return ProbabilityVector(mu / mu.sum()), DistortionMatrix(rho), beta, tol


@settings(max_examples=150, deadline=None)
@given(loose_problems())
@example(
    (
        ProbabilityVector([0.2, 0.8, 0.0, 0.0, 0.0]),
        DistortionMatrix(
            np.array([[0.0, 0.0, math.inf], [math.inf, 1.0, 0.0]] + [[0.0, math.inf, math.inf]] * 3)
        ),
        1.6487212707001282,
        1e-3,
    )
)
def test_objective_never_increases_on_random_problems(problem):
    # The partials of the max_iter = k solves, k = 1, ..., 40, never raise
    # F above the start's, or above each other's, and a converged answer's
    # own slack is at most tol.  F is taken in the log domain, over the
    # rows of positive mass.
    mu, dist, beta, tol = problem
    live = mu.weights > 0
    log_phi = -beta * dist.rho[live]

    def objective(nu):
        with np.errstate(divide="ignore"):
            return float(-(mu.weights[live] @ logsumexp(log_phi + np.log(nu), axis=1)))

    n = dist.shape[1]
    values = [objective(np.full(n, 1.0 / n))]
    for k in range(1, 41):
        point = _blahut_arimoto(_Tilt(mu, dist, beta), None, tol, k)
        values.append(objective(point.nu_star.weights))
        assert not point.converged or point.certificate_slack <= tol
    assert np.all(np.diff(values) <= 1e-15), values


def test_extrapolation_never_slows_a_fast_plain_iteration():
    # At steep slopes the plain map converges in a few steps.  Reference:
    # the plain iteration with the same stop rule, from the same uniform
    # start, counting its update-factor evaluations.  At tol 1e-12 the
    # solver takes second-order steps, and at 1e-3 and 2e-4 Blahut-Arimoto
    # runs: neither outnumbers the plain map.
    mu = ProbabilityVector([0.7, 0.3])
    dist = hamming(2)

    def plain_evaluations(beta, tol):
        phi = np.exp(-beta * dist.rho)
        nu = np.full(2, 0.5)
        for t in range(1, 100000):
            c = phi.T @ (mu.weights / (phi @ nu))
            nxt = nu * c / (nu @ c)
            if np.abs(nxt - nu).max() <= tol and c.max() - 1.0 <= tol:
                return t
            nu = nxt

    for tol in (1e-12, 1e-3, 2e-4):
        for beta in (0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 14.0):
            point = ba_fixed_point(mu, dist, beta, tol=tol, max_iter=100000)
            assert point.iterations <= plain_evaluations(beta, tol), (tol, beta)


def test_beta_zero_keeps_forbidden_pairs_out_of_the_law():
    # At beta = 0 the kernel is the beta -> 0+ limit, zero on +inf losses.
    # A kernel of all ones gave nu = (0.5, 0.5) here, with D = inf.
    point = ba_fixed_point(
        ProbabilityVector([1.0]), DistortionMatrix(np.array([[0.0, math.inf]])), 0.0
    )
    assert point.converged
    assert point.nu_star.weights.tolist() == [1.0, 0.0]
    assert point.distortion == 0.0
    assert point.rate == 0.0


def test_beta_zero_is_the_zero_rate_end_of_the_curve():
    # The beta -> 0+ limit puts all mass on the column that attains D_max,
    # whatever the start law; the start law itself would give D = 0.5.
    mu = ProbabilityVector([0.7, 0.3])
    point = ba_fixed_point(mu, hamming(2), 0.0, nu0=ProbabilityVector([0.5, 0.5]))
    assert point.converged and point.iterations == 0
    assert point.nu_star.weights.tolist() == [1.0, 0.0]
    assert point.distortion == pytest.approx(0.3, abs=1e-15)
    assert point.rate == 0.0
    curve = rd_curve(mu, hamming(2), [0.0, 1.0, 2.0], tol=1e-9)
    first = curve.points[0]
    assert (first.beta, first.distortion, first.rate) == (0.0, point.distortion, 0.0)
    assert first.iterations == 0
    assert first.nu_star.weights.tolist() == [1.0, 0.0]
    assert curve.points[1].distortion < 0.3


# --- second-order fixed-slope solves ------------------------------------------

# One DEBUG record per fixed-slope solve at tol <= SECOND_ORDER_TOL.
FIXED_SLOPE_RECORD = re.compile(
    r"fixed slope (\S+): (the two-column solve|the interior point) ends after (\d+) "
    r"iterations, slack (\S+), residual (\S+)"
)


def fixed_slope_records(caplog) -> list[re.Match]:
    return [m for m in (FIXED_SLOPE_RECORD.fullmatch(r.getMessage()) for r in caplog.records) if m]


# The fixed-slope paths, each named by its DEBUG record; beta = 0 logs none.
@pytest.mark.parametrize(
    "n, beta, tol, record",
    [
        (3, 2.0, 1e-3, "Blahut-Arimoto stops"),
        (2, 2.0, 1e-9, "the two-column solve ends"),
        (3, 2.0, 1e-9, "the interior point ends"),
        (3, 0.0, 1e-9, None),
    ],
)
def test_the_answer_carries_the_start_laws_labels(caplog, n, beta, tol, record):
    labels = np.linspace(-1.0, 1.0, n)
    nu0 = ProbabilityVector(np.full(n, 1.0 / n), labels=labels)
    mu = ProbabilityVector(np.arange(1.0, n + 1.0) / (n * (n + 1) / 2))
    with caplog.at_level(logging.DEBUG, logger="rdbridge.blahut"):
        point = ba_fixed_point(mu, hamming(n), beta, nu0=nu0, tol=tol)
    assert point.converged
    assert np.array_equal(point.nu_star.labels, labels)
    assert record in caplog.text if record else not caplog.records


def test_second_order_steps_run_only_at_or_below_second_order_tol(caplog):
    # A tol above SECOND_ORDER_TOL keeps the Blahut-Arimoto path; a tight
    # one takes second-order steps, exact ones on two columns, and logs one
    # record with the path, its iterations, slack and residual.
    mu = ProbabilityVector([0.7, 0.3])
    with caplog.at_level(logging.DEBUG, logger="rdbridge.blahut"):
        loose = ba_fixed_point(mu, hamming(2), 2.0, tol=10.0 * SECOND_ORDER_TOL, max_iter=5000)
    assert loose.converged
    assert not fixed_slope_records(caplog)
    assert any("Blahut-Arimoto stops" in r.getMessage() for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="rdbridge.blahut"):
        tight = ba_fixed_point(mu, hamming(2), 2.0, tol=SECOND_ORDER_TOL, max_iter=5000)
    assert tight.converged and tight.certificate_slack <= IP_TOL
    assert not any("Blahut-Arimoto" in r.getMessage() for r in caplog.records)
    (record,) = fixed_slope_records(caplog)
    assert float(record.group(1)) == 2.0
    assert record.group(2) == "the two-column solve"
    assert int(record.group(3)) == tight.iterations >= 1
    assert float(record.group(4)) == pytest.approx(tight.certificate_slack, abs=1e-15)
    assert float(record.group(5)) == pytest.approx(tight.fixpoint_residual, abs=1e-15)


@pytest.mark.parametrize(
    "p, beta",
    [(0.362832, 8.02233), (0.15384094587729213, 2.2329533632507323)],
)
def test_two_column_solve_sees_a_decrease_below_the_rounding_of_f(p, beta):
    # Near the optimum a step lowers f by about 1e-20, far below the
    # rounding of f itself, so a solve that compares two rounded values of
    # f stalls: an earlier Newton line search stalled here at slack
    # 3e-10 > tol and at residual 2.3e-11.  The two-column solve steps on
    # the slope g', whose own size sets its rounding error.
    mu = ProbabilityVector([1.0 - p, p])
    point = ba_fixed_point(mu, hamming(2), beta, tol=1e-11, max_iter=200)
    assert point.converged
    assert point.iterations <= 10
    d = point.distortion
    assert abs(point.rate - (binary_entropy(p) - binary_entropy(d))) <= 1e-15


@pytest.mark.parametrize("fail_at", [2, 3, 4, 5])
def test_a_failed_factor_stops_the_fixed_slope_interior_point(monkeypatch, fail_at):
    # 21-point uniform source under squared error at beta = 2: the fixed-slope
    # interior point takes more than 5 iterations when every Newton system
    # factors.  The factor numbered fail_at reports a breakdown; the solve
    # must stop there, flagged, at the iterate the failed step would have
    # moved: the one a budget of fail_at - 1 iterations ends at.
    from scipy.linalg import lapack

    (mu, dist), beta = uniform_mse(21), 2.0
    assert ba_fixed_point(mu, dist, beta).iterations > 5
    with pytest.raises(ConvergenceError) as info:
        ba_fixed_point(mu, dist, beta, max_iter=fail_at - 1)
    before = info.value.partial
    factor, calls = lapack.dpotrf, []

    def breaks_down(m):
        calls.append(None)
        c, code = factor(m)
        return c, (1 if len(calls) == fail_at else code)

    monkeypatch.setattr(lapack, "dpotrf", breaks_down)
    with pytest.raises(ConvergenceError, match="singular; the interior point") as info:
        ba_fixed_point(mu, dist, beta)
    assert len(calls) == fail_at
    partial = info.value.partial
    assert not partial.converged
    assert partial.iterations == fail_at - 1
    assert partial.beta == beta
    assert partial.distortion == before.distortion
    assert partial.rate == before.rate
    assert np.array_equal(partial.nu_star.weights, before.nu_star.weights)


def test_the_newton_matrix_has_no_entry_between_zero_and_the_floor(monkeypatch):
    # At beta = 21.6 the Gaussian's Newton matrix M = A'A + diag(s / x)
    # holds thousands of positive entries below 1e-154 unless they are
    # flushed, and their products underflow inside the factor.  Every
    # entry of M is >= 0, so a flushed M has none in (0, floor).
    from scipy.linalg import lapack

    src = discretize_gaussian(1.0)
    mu, dist = src.weights, squared_error(src.grid, src.grid)
    factor, lows = lapack.dpotrf, []

    def recorded(m):
        lows.append(m[m > 0.0].min() / m.diagonal().max())
        return factor(m)

    monkeypatch.setattr(lapack, "dpotrf", recorded)
    point = ba_fixed_point(mu, dist, 21.6, tol=1e-9)
    assert point.converged
    assert len(lows) == point.iterations
    assert min(lows) >= KERNEL_FLOOR


def bernoulli_hamming(p, beta):
    """(mu, rho, beta, F*) of Bernoulli(p) under Hamming loss, with F* = R + beta D at the optimum."""
    d = 1.0 / (1.0 + math.exp(beta)) if beta < 700.0 else 0.0
    value = binary_entropy(p) - binary_entropy(d) + beta * d if d < p else beta * p
    return ProbabilityVector([1.0 - p, p]), hamming(2), beta, value


def zero_mass_rows_instance():
    """(mu, rho): 4 x 2 with two zero-mass rows and +inf losses, whose slopes take 1 to 15 steps."""
    rho = np.array([[0.0, 3.0], [0.0, math.inf], [0.125, 0.0], [0.0, math.inf]])
    return ProbabilityVector([0.000999, 0.0, 0.999001, 0.0]), DistortionMatrix(rho)


@st.composite
def two_column_problems(draw):
    """(mu, rho, beta, F*): m x 2 losses, m <= 6, with +inf entries and zero-mass rows.

    beta is log-uniform in [1e-3, 1e3].  Every row of positive mass has a
    finite loss.  F* is known in closed form for Bernoulli(p) under
    Hamming loss, and None otherwise.
    """
    beta = math.exp(draw(st.floats(math.log(1e-3), math.log(1e3))))
    if draw(st.booleans()):
        return bernoulli_hamming(draw(st.floats(0.01, 0.5)), beta)
    m = draw(st.integers(1, 6))
    mass = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    mu = np.array(draw(st.lists(mass, min_size=m, max_size=m)))
    if mu.sum() == 0:
        mu[0] = 1.0
    loss = st.one_of(st.just(math.inf), st.floats(0.0, 4.0))
    rho = np.array(draw(st.lists(st.lists(loss, min_size=2, max_size=2), min_size=m, max_size=m)))
    rho[np.arange(m), draw(st.lists(st.integers(0, 1), min_size=m, max_size=m))] = 0.0
    return ProbabilityVector(mu / mu.sum()), DistortionMatrix(rho), beta, None


@settings(max_examples=300, deadline=None)
@given(two_column_problems())
@example(bernoulli_hamming(0.362832, 8.02233))
@example(bernoulli_hamming(0.15384094587729213, 2.2329533632507323))
@example((*zero_mass_rows_instance(), 54.598150033144236, None))
def test_two_column_solve_agrees_with_plain_blahut_arimoto(problem):
    # The referee of the exact two-column solve: F = R + beta D of its law
    # is within 1e-9 of the closed form, or of the plain iteration's where
    # that converges (never above it: F is minimal at the optimum), and
    # its slack and residual are at most tol.  No step may warn: a row sum
    # formed as b + t (a - b) rounds to 0 at t = 1 when a << b, and the
    # curvature overflows at steep beta.
    mu, dist, beta, value_ref = problem
    tol = 1e-11
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        point = ba_fixed_point(mu, dist, beta, tol=tol, max_iter=200)
    assert point.converged
    assert point.certificate_slack <= tol and point.fixpoint_residual <= tol
    value = point.rate + beta * point.distortion
    converged = True
    if value_ref is None:
        nu_ref, converged = plain_blahut_arimoto(mu, dist, beta, 1e-10, 20000)
        d_ref, r_ref = rd_value_from_nu(mu, dist, beta, ProbabilityVector(nu_ref))
        value_ref = r_ref + beta * d_ref
    assert value <= value_ref + 1e-9
    if converged:
        assert abs(value - value_ref) <= 1e-9


def test_a_two_column_step_is_one_evaluation_and_one_residual_ends_it(monkeypatch):
    # Above its critical slope ln 4, Bernoulli(0.2) under Hamming loss
    # takes one Newton step from the uniform law.  Each law is evaluated
    # once, and the fixed-point residual is formed only where it decides
    # the stop: at the last law, whose slack is within tol.
    residuals, evaluations = [], []
    residual, evaluate = blahut._residual, _Tilt.evaluate

    def counted_residual(*args):
        residuals.append(None)
        return residual(*args)

    def counted_evaluate(*args, **kwargs):
        evaluations.append(None)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(blahut, "_residual", counted_residual)
    monkeypatch.setattr(_Tilt, "evaluate", counted_evaluate)
    point = ba_fixed_point(ProbabilityVector([0.8, 0.2]), hamming(2), 3.0, tol=1e-11)
    assert point.converged and point.iterations == 1
    assert len(residuals) == 1
    assert len(evaluations) == point.iterations + 1


@st.composite
def two_column_interiors(draw):
    """(mu, rho, beta): m x 2 losses whose optimum at beta holds both columns.

    Half are Bernoulli(p) under Hamming loss, p in [0.01, 0.5].  The others
    have m in [2, 6] rows, zero-mass rows and +inf losses on column 1; row
    0 has loss 0 on column 0, row 1 on column 1, and both have positive
    mass, so each column is strictly cheaper for some row.  Column 0 is
    finite, so D_max is finite.  At the zero-rate law, all mass on the
    D_max column j, the other column k has
    c_k(beta) = sum_i mu_i exp(-beta (rho_ik - rho_ij)): convex, at most
    1 at beta = 0, and unbounded, so it passes 1, and k enters the
    optimum, past one critical slope beta_c (ln((1 - p) / p) on
    Bernoulli), found by bisection.  beta is log-uniform from
    max(beta_c e^0.001, 0.01) to max(50, beta_c e^2): next to beta_c the
    second atom of the optimum is small, and at the top D nears d_floor.
    """
    if draw(st.booleans()):
        p = draw(st.floats(0.01, 0.5))
        mu, dist, _, _ = bernoulli_hamming(p, 1.0)
        critical = math.log((1.0 - p) / p)
    else:
        m = draw(st.integers(2, 6))
        mass = st.floats(1e-3, 1.0)
        mu = np.array(draw(st.lists(st.one_of(st.just(0.0), mass), min_size=m, max_size=m)))
        mu[:2] = [draw(mass), draw(mass)]
        loss = st.floats(1e-2, 4.0)
        rho = np.array([[draw(loss), draw(st.one_of(st.just(math.inf), loss))] for _ in range(m)])
        homes = [0, 1] + draw(st.lists(st.integers(0, 1), min_size=m - 2, max_size=m - 2))
        rho[np.arange(m), homes] = 0.0
        mu, dist = ProbabilityVector(mu / mu.sum()), DistortionMatrix(rho)
        w, live = mu.weights[mu.weights > 0], rho[mu.weights > 0]
        j = int(np.argmin(w @ live))
        delta = live[:, 1 - j] - live[:, j]
        finite = np.isfinite(delta)

        def excess(beta):
            """c_k(beta) - 1, exact at beta = 0: -(the mass of rows that cannot reach k)."""
            return float(w[finite] @ np.expm1(-beta * delta[finite])) - w[~finite].sum()

        low, critical = 0.0, 1.0
        while excess(critical) <= 0.0:
            low, critical = critical, 2.0 * critical
        for _ in range(60):
            mid = 0.5 * (low + critical)
            low, critical = (low, mid) if excess(mid) > 0.0 else (mid, critical)
    bottom, top = max(critical * math.exp(1e-3), 1e-2), max(50.0, critical * math.exp(2.0))
    return mu, dist, math.exp(draw(st.floats(math.log(bottom), math.log(top))))


@settings(max_examples=200, deadline=None)
@given(two_column_interiors())
@example(
    (
        ProbabilityVector([0.000999, 0.999001]),
        DistortionMatrix(np.array([[0.0, math.inf], [0.0625, 0.0]])),
        0.01605459626849382,
    )
)
def test_a_fixed_slope_and_a_target_solve_at_its_distortion_agree(problem):
    # The target solve at the distortion a fixed slope reached finds the
    # same point: the same rate, within what its distortion band of
    # 10 tol D_max moves it at slope beta, and beta back within a relative
    # 1e-5, beyond what its own distortion error explains: where D hardly
    # moves with beta (measured by fixed slopes at beta (1 +- 1e-3)), a D
    # within the band lies at quite another beta.  Only distortions inside
    # (d_floor, D_max) by a relative 1e-6 are targets; the draws' slopes
    # lie above the critical one, so most of them are.  The example lies
    # 0.4% above its critical slope: its second atom is small, so a stop
    # on x_j |c_j - 1| alone leaves the law 2.3e-5 off, beyond the beta check.
    mu, dist, beta = problem
    tol = 1e-10
    fixed = ba_fixed_point(mu, dist, beta, tol=tol, max_iter=200)
    floor, ceiling = d_floor(mu, dist), d_max(mu, dist)[0]
    margin = 1e-6 * ceiling
    assume(math.isfinite(ceiling) and floor + margin < fixed.distortion < ceiling - margin)
    point = solve_point_for_distortion(mu, dist, fixed.distortion, tol=tol)
    assert abs(point.rate - fixed.rate) <= 1e-8 + beta * 10 * tol * ceiling
    lower, upper = (ba_fixed_point(mu, dist, beta * f, tol=tol, max_iter=200) for f in (0.999, 1.001))
    slope = abs(lower.distortion - upper.distortion) / (0.002 * beta)
    miss = 2 * abs(point.distortion - fixed.distortion)
    assert abs(point.beta - beta) * slope <= 1e-5 * beta * slope + miss


def coupling_information(pi: np.ndarray, mu: np.ndarray) -> float:
    """I(pi) = sum_ij pi_ij ln(pi_ij / (mu_i q_j)), with q the second marginal of pi."""
    kept = pi > 0.0
    return float(np.sum(pi[kept] * np.log(pi[kept] / np.outer(mu, pi.sum(axis=0))[kept])))


def reference_rate(mu: np.ndarray, rho: np.ndarray, level: float, rng, restarts: int = 3) -> float:
    """min I(pi) over couplings with first marginal mu and E_pi rho <= level, by SLSQP.

    SLSQP runs on the entries of finite loss from ``restarts`` random
    couplings, and once more from the best answer.  Each answer is made
    exactly feasible before its I is taken: its rows are scaled to mu, and
    where E_pi rho passes ``level`` it is mixed with the least-loss
    coupling.  So the value is I of a feasible coupling, never below
    R(level).
    """
    m, n = rho.shape
    free = np.isfinite(rho)
    loss, rows = rho[free], np.nonzero(free)[0]
    least = np.zeros((m, n))
    least[np.arange(m), np.where(free, rho, np.inf).argmin(axis=1)] = mu
    floor = float(np.sum(least[free] * loss))

    def coupling(x):
        pi = np.zeros((m, n))
        pi[free] = np.maximum(x, 0.0)
        return pi

    def objective(x):
        pi = coupling(x)
        q = pi.sum(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(pi / np.outer(mu, q))
        # At pi_ij = 0 the derivative is -inf in a column with mass (-50
        # stands in for it), and -ln mu_i in an empty one.
        edge = np.where(q > 0.0, -50.0, -np.log(mu)[:, None])
        return coupling_information(pi, mu), np.where(pi > 0.0, logs, edge)[free]

    constraints = [
        {"type": "eq", "fun": lambda x: np.bincount(rows, x, m) - mu, "jac": lambda x: (rows == np.arange(m)[:, None]) * 1.0},
        {"type": "ineq", "fun": lambda x: level - loss @ x, "jac": lambda x: -loss[None, :]},
    ]
    starts = []
    for _ in range(restarts):
        w = rng.uniform(0.1, 1.0, (m, n)) * free
        starts.append((mu[:, None] * w / w.sum(axis=1, keepdims=True))[free])
    best, best_x = math.inf, None
    for start in starts + [None]:
        found = minimize(
            objective, best_x if start is None else start, jac=True, method="SLSQP",
            bounds=[(0.0, 1.0)] * len(loss), constraints=constraints, options={"ftol": 1e-14, "maxiter": 1000},
        )
        pi = coupling(found.x)
        pi *= (mu / pi.sum(axis=1))[:, None]
        over = float(np.sum(pi[free] * loss)) - level
        if over > 0.0:
            t = over / (over + level - floor)
            pi = (1.0 - t) * pi + t * least
        value = coupling_information(pi, mu)
        if value < best:
            best, best_x = value, pi[free]
    return best


def test_fixed_slope_and_target_solves_bracket_an_slsqp_reference():
    # An independent R(D): SLSQP over couplings on 50 random problems with
    # m, n in [2, 4], losses in {0, 0.3, 1, 2.5, 5, +inf} and beta
    # log-uniform in [0.2, 10].  The point's dual value lies below
    # R_ref(D) <= R(D) up to rounding, and where D lies above d_floor by
    # 1e-3 of (d_floor, D_max), where SLSQP resolves R(D) to about 2e-9,
    # R_ref(D) is within 1e-8 below its rate.  Each fixed slope at tol
    # 1e-10 (the two-column solve or the interior point) and the target
    # solve at its distortion is checked.
    rng = np.random.default_rng(0)
    upper = 0
    for _ in range(50):
        m, n = rng.integers(2, 5, 2)
        rho = rng.choice([0.0, 0.3, 1.0, 2.5, 5.0, math.inf], size=(m, n))
        rho[np.arange(m), rng.integers(0, n, m)] = 0.0
        weights = rng.uniform(0.05, 1.0, m)
        mu, dist = ProbabilityVector(weights / weights.sum()), DistortionMatrix(rho)
        beta = math.exp(rng.uniform(math.log(0.2), math.log(10.0)))
        low, high = d_floor(mu, dist), d_max(mu, dist)[0]
        fixed = ba_fixed_point(mu, dist, beta, tol=1e-10)
        points = [fixed]
        if low < fixed.distortion < high:
            points.append(solve_point_for_distortion(mu, dist, fixed.distortion, tol=1e-10))
        for point in points:
            reference = reference_rate(mu.weights, rho, point.distortion, rng)
            dual = point.rate - math.log1p(max(point.certificate_slack, 0.0))
            assert dual <= reference + 1e-12
            if point.distortion >= low + 1e-3 * (high - low):
                upper += 1
                assert reference <= point.rate + 1e-8
    assert upper >= 40


def plain_blahut_arimoto(mu, dist, beta, tol, max_iter):
    """Reference: the plain update nu <- nu * c from the uniform law.

    Same stop rule as the solver (residual and slack at most tol).
    Returns (nu, converged).
    """
    live = mu.weights > 0
    rho = dist.rho[live]
    kernel = np.exp(-beta * rho) if beta > 0 else np.isfinite(rho).astype(float)
    weights = mu.weights[live]
    nu = np.full(dist.shape[1], 1.0 / dist.shape[1])
    for _ in range(max_iter):
        c = kernel.T @ (weights / (kernel @ nu))
        nxt = nu * c / (nu @ c)
        done = np.abs(nxt - nu).max() <= tol and c.max() - 1.0 <= tol
        nu = nxt
        if done:
            return nu, True
    return nu, False


@st.composite
def engine_problems(draw):
    """Random problems with the cases the second-order paths must survive.

    Returns (mu, dist, beta, F*) where F* = R + beta D at the optimum is
    known in closed form, and (mu, dist, beta, None) otherwise.
    """
    kind = draw(st.sampled_from(["random", "flat", "critical"]))
    if kind == "critical":
        # Bernoulli(p) under Hamming loss within 0.1% of its critical
        # slope, where plain Blahut-Arimoto needs thousands of iterations.
        p = draw(st.floats(0.05, 0.45))
        return bernoulli_hamming(p, math.log((1.0 - p) / p) * (1.0 + draw(st.floats(-1e-3, 1e-3))))
    mu, dist, _, _ = draw(tilted_problems())
    # Near-flat kernels make the Hessian of F numerically rank-deficient.
    beta = draw(st.floats(5e-4, 2e-3) if kind == "flat" else st.floats(0.05, 30.0))
    return mu, dist, beta, None


@settings(max_examples=150, deadline=None)
@given(engine_problems())
def test_second_order_engine_agrees_with_plain_blahut_arimoto(problem):
    # The optimal law need not be unique, but F(nu) = R + beta D at the
    # optimum is, and a law whose slack is at most tol has F within tol of
    # it.  The reference is the closed form where there is one, else the
    # plain iteration.  At this tol the solver takes second-order steps:
    # the exact two-column solve on n = 2, the interior point on more.
    mu, dist, beta, value_ref = problem
    tol = 1e-9
    point = ba_fixed_point(mu, dist, beta, tol=tol, max_iter=20000)
    assert point.converged
    value = point.rate + beta * point.distortion
    converged = True
    if value_ref is None:
        nu_ref, converged = plain_blahut_arimoto(mu, dist, beta, tol, 5000)
        d_ref, r_ref = rd_value_from_nu(mu, dist, beta, ProbabilityVector(nu_ref))
        value_ref = r_ref + beta * d_ref
    assert value <= value_ref + tol
    if converged:
        assert abs(value - value_ref) <= tol


def plain_reference(mu, dist, beta, tol, max_iter=200000):
    """The plain update nu <- nu * c from the uniform law, with the solver's stop rule.

    Returns the plain update of the first law whose residual and slack are
    at most tol, once its own slack is at most tol too.
    """
    live = mu.weights > 0
    kernel = np.exp(-beta * dist.rho[live])
    weights = mu.weights[live]
    nu = np.full(dist.shape[1], 1.0 / dist.shape[1])
    ready = False
    for _ in range(max_iter):
        c = kernel.T @ (weights / (kernel @ nu))
        if ready and c.max() - 1.0 <= tol:
            return nu
        nxt = nu * c / (nu @ c)
        ready = np.abs(nxt - nu).max() <= tol and c.max() - 1.0 <= tol
        nu = nxt
    raise AssertionError("the plain reference did not converge")


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
@pytest.mark.parametrize("tol", [1e-3, 1e-4, 1e-5, 1e-7])
def test_engine_agrees_with_plain_blahut_arimoto_on_larger_instances(tol, seed):
    # Random 20-60 x 20-60 instances with +inf losses and zero-mass source
    # rows, in both regimes of the engine: extrapolated Blahut-Arimoto
    # (1e-3) and the fixed-slope interior point (1e-4 = SECOND_ORDER_TOL,
    # the boundary, then 1e-5 and 1e-7).  F = R + beta D is within
    # ln(1 + slack) <= tol of its optimum for both laws; D moves by
    # O(sqrt(tol)) within that band (at most 1.2 sqrt(tol) over 6,000 such
    # instances at tol 1e-3), and R = F - beta D with it.
    rng = np.random.default_rng(seed)
    n, m = rng.integers(20, 61, size=2)
    rho = rng.uniform(0.0, 4.0, size=(n, m))
    rho[rng.random((n, m)) < 0.1] = math.inf
    rho[np.arange(n), rng.integers(0, m, size=n)] = 0.0
    w = rng.uniform(0.1, 1.0, size=n) * (rng.random(n) >= 0.2)
    w[0] = max(w[0], 0.1)
    mu, dist = ProbabilityVector(w / w.sum()), DistortionMatrix(rho)
    beta = math.exp(rng.uniform(math.log(0.1), math.log(30.0)))
    point = ba_fixed_point(mu, dist, beta, tol=tol, max_iter=200000)
    assert point.converged and point.certificate_slack <= tol
    nu_ref = ProbabilityVector(plain_reference(mu, dist, beta, tol))
    d_ref, r_ref = rd_value_from_nu(mu, dist, beta, nu_ref)
    _, slack_ref, _ = dual_certificate(mu, dist, beta, nu_ref)
    assert slack_ref <= tol
    value, value_ref = point.rate + beta * point.distortion, r_ref + beta * d_ref
    assert abs(value - value_ref) <= tol
    assert abs(point.distortion - d_ref) <= 3.0 * math.sqrt(tol)
    assert abs(point.rate - r_ref) <= tol + 3.0 * beta * math.sqrt(tol)


# --- dual certificate -------------------------------------------------------


def test_dual_certificate_is_tight_at_the_fixed_point():
    mu = ProbabilityVector([0.7, 0.3])
    dist = hamming(2)
    point = ba_fixed_point(mu, dist, 2.0, tol=1e-12, max_iter=5000)
    alpha, slack, dual_value = dual_certificate(mu, dist, 2.0, point.nu_star)
    assert abs(slack) <= 1e-11
    gap = point.rate - dual_value
    assert 0.0 <= gap <= 1e-7
    # Feasibility of the scaled pair, rechecked directly.
    phi = np.exp(-2.0 * dist.rho)
    constraint = (mu.weights * alpha) @ phi
    assert np.all(constraint <= 1.0 + slack + 1e-12)


def test_dual_certificate_lower_bounds_the_curve():
    # A perturbed law yields a dual value that must sit below the true
    # rate at the distortion the perturbed law induces.
    p, beta = 0.3, 2.0
    mu = ProbabilityVector([1.0 - p, p])
    dist = hamming(2)
    point = ba_fixed_point(mu, dist, beta, tol=1e-12, max_iter=5000)
    mixed = 0.9 * point.nu_star.weights + 0.1 * np.full(2, 0.5)
    nu_mix = ProbabilityVector(mixed / mixed.sum())
    d_mix, _ = rd_value_from_nu(mu, dist, beta, nu_mix)
    _, _, dual_value = dual_certificate(mu, dist, beta, nu_mix)
    oracle = binary_entropy(p) - binary_entropy(d_mix)
    assert dual_value <= oracle + 1e-12


def test_dual_certificate_is_blind_to_row_offsets():
    # Adding m_i to row i of rho scales alpha_i by exp(beta m_i) and leaves
    # the constraint values, the slack and the dual value unchanged, so a
    # loss need not be normalized.  Random losses with +inf entries.
    rng = np.random.default_rng(7)
    for _ in range(100):
        n, m = (int(k) for k in rng.integers(1, 8, size=2))
        rho = rng.uniform(0.0, 4.0, size=(n, m))
        rho[rng.random((n, m)) < 0.2] = math.inf
        rho[np.arange(n), rng.integers(0, m, size=n)] = rng.uniform(0.0, 1.0, size=n)
        raw = DistortionMatrix(rho + rng.uniform(0.0, 3.0, size=(n, 1)))
        normalized, offsets = normalize_loss(raw)
        mu, nu = (rng.uniform(0.1, 1.0, size=k) for k in (n, m))
        mu, nu = ProbabilityVector(mu / mu.sum()), ProbabilityVector(nu / nu.sum())
        beta = float(rng.uniform(0.1, 5.0))
        alpha, slack, dual_value = dual_certificate(mu, raw, beta, nu)
        alpha_0, slack_0, dual_0 = dual_certificate(mu, normalized, beta, nu)
        assert slack == pytest.approx(slack_0, rel=0.0, abs=1e-14)
        assert dual_value == pytest.approx(dual_0, rel=0.0, abs=1e-14)
        assert alpha == pytest.approx(alpha_0 * np.exp(beta * offsets), rel=1e-14, abs=0.0)


def test_zero_mass_row_outside_the_support_keeps_the_certificate_finite():
    # The empty source row reaches only a column outside supp(nu), so its
    # partition mass is zero; it must not enter the update factor c.
    inf = math.inf
    mu = ProbabilityVector([0.5, 0.5, 0.0])
    dist = DistortionMatrix(np.array([[0.0, 1.0, inf], [1.0, 0.0, inf], [inf, inf, 0.0]]))
    nu = ProbabilityVector([0.5, 0.5, 0.0])
    _, slack, dual_value = dual_certificate(mu, dist, 1.0, nu)
    assert abs(slack) <= 1e-15
    _, rate = rd_value_from_nu(mu, dist, 1.0, nu)
    assert 0.0 <= rate - dual_value <= 1e-15
    # The solver certifies the same law, and the problem without the
    # empty row has the same certificate.
    point = ba_fixed_point(mu, dist, 1.0)
    assert np.allclose(point.nu_star.weights, nu.weights, rtol=0.0, atol=1e-15)
    assert abs(point.certificate_slack) <= 1e-15
    half = ProbabilityVector([0.5, 0.5])
    _, slack_2, dual_2 = dual_certificate(half, hamming(2), 1.0, half)
    assert slack == pytest.approx(slack_2, abs=1e-15)
    assert dual_value == pytest.approx(dual_2, abs=1e-15)


def test_dual_certificate_gives_an_infinite_alpha_without_a_warning():
    # The empty source row allows only losses of 800 and 900 nats, so
    # 1 / Z_3 = e^800 overflows: alpha_3 is +inf, and the certificate is
    # that of the two rows of positive mass.
    mu = ProbabilityVector([0.5, 0.5, 0.0])
    dist = DistortionMatrix(np.array([[0.0, 1.0], [1.0, 0.0], [800.0, 900.0]]))
    half = ProbabilityVector([0.5, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha, slack, dual_value = dual_certificate(mu, dist, 1.0, half)
    assert alpha[2] == math.inf
    _, slack_2, dual_2 = dual_certificate(half, hamming(2), 1.0, half)
    assert alpha[:2].tolist() == pytest.approx([2.0 / (1.0 + math.exp(-1.0))] * 2, rel=1e-15)
    assert (slack, dual_value) == (slack_2, dual_2)


# Small problems with the hard cases: zero-mass source and reconstruction
# atoms, forbidden (+inf) pairs, and slopes deep in the log domain.
@st.composite
def tilted_problems(draw, betas=st.floats(0.0, 50.0)):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    mass = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    mu = np.array(draw(st.lists(mass, min_size=n, max_size=n)))
    if mu.sum() == 0:
        mu[0] = 1.0
    loss = st.one_of(st.just(math.inf), st.floats(0.0, 4.0))
    rho = np.array(draw(st.lists(st.lists(loss, min_size=m, max_size=m), min_size=n, max_size=n)))
    rho[np.arange(n), draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))] = 0.0
    nu = np.array(draw(st.lists(mass, min_size=m, max_size=m)))
    # Every row of positive mass must reach some column of positive nu.
    reach = np.isfinite(rho[mu > 0]) & (nu > 0)
    if not reach.any(axis=1).all():
        nu[np.argmin(rho[mu > 0], axis=1)] = 0.5
    beta = draw(betas)
    return (
        ProbabilityVector(mu / mu.sum()),
        DistortionMatrix(rho),
        ProbabilityVector(nu / nu.sum()),
        beta,
    )


@settings(max_examples=150, deadline=None)
@given(tilted_problems())
def test_certificate_matches_the_explicit_tilted_coupling(problem):
    mu, dist, nu, beta = problem
    distortion, rate = rd_value_from_nu(mu, dist, beta, nu)
    _, slack, dual_value = dual_certificate(mu, dist, beta, nu)
    assert not any(math.isnan(v) for v in (distortion, rate, slack, dual_value))
    assert dual_value <= rate

    # At beta = 0 the kernel is the beta -> 0+ limit: 1 on finite losses,
    # 0 on forbidden pairs.
    phi = np.exp(-beta * dist.rho) if beta > 0 else np.isfinite(dist.rho).astype(float)
    live = mu.weights > 0
    kernel = nu.weights[None, :] * phi[live]
    joint = np.zeros(dist.shape)
    joint[live] = mu.weights[live, None] * kernel / kernel.sum(axis=1, keepdims=True)
    assert distortion == pytest.approx(expected_loss(joint, dist), rel=1e-12, abs=1e-12)
    product = ProbabilityVector(np.outer(mu.weights, nu.weights).ravel())
    info = kl_divergence(ProbabilityVector(joint.ravel()), product)
    assert rate == pytest.approx(info, rel=1e-12, abs=1e-12)

    try:
        point = ba_fixed_point(mu, dist, beta, tol=1e-9, max_iter=500)
    except ConvergenceError as err:
        point = err.partial
    assert not any(math.isnan(v) for v in (point.distortion, point.rate, point.certificate_slack))
    assert rd_value_from_nu(mu, dist, beta, point.nu_star) == (point.distortion, point.rate)
    assert dual_certificate(mu, dist, beta, point.nu_star)[1] == point.certificate_slack


@settings(max_examples=150, deadline=None)
@given(tilted_problems(betas=st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)))
def test_the_dual_gap_is_log1p_of_the_positive_slack(problem):
    # The dual value is the parametric rate less ln(1 + slack+), so the
    # verdict's dual gap is a function of the slack alone, bit for bit.
    mu, dist, nu, beta = problem
    # Sinkhorn refuses a reconstruction atom that no source atom of
    # positive mass reaches.
    assume(np.isfinite(dist.rho[np.ix_(mu.weights > 0, nu.weights > 0)]).any(axis=0).all())
    report = check_optimality(mu, dist, beta, nu)
    assert report.dual_gap == math.log1p(max(report.certificate_slack, 0.0))
    assert report.dual_gap >= 0.0
    _, rate = rd_value_from_nu(mu, dist, beta, nu)
    _, slack, dual_value = dual_certificate(mu, dist, beta, nu)
    assert slack == report.certificate_slack
    assert dual_value == rate - math.log1p(max(slack, 0.0))


def log_domain_problem():
    """Row 1's sum over the kernel is nu_1 = 1e-305, below ROW_SUM_FLOOR, so
    the certificate takes the log domain; row 0 forbids column 1."""
    rho = np.array([[0.5, math.inf], [711.5, 0.0]])
    nu = ProbabilityVector([1.0 - 1e-305, 1e-305])
    return ProbabilityVector([0.5, 0.5]), DistortionMatrix(rho), nu, 1.0


@settings(max_examples=150, deadline=None)
@given(tilted_problems())
@example(log_domain_problem())
def test_the_tilts_per_problem_facts_match_their_formulas(problem):
    # reach is the set of columns some row of positive mass reaches at a
    # finite loss (every column when none is), and finite_rho is rho on
    # those rows with +inf read as 0: rho itself when that is finite.  The
    # certificate's D equals D from the product K o rho guarded entry by
    # entry, where the kernel (or the log-domain coupling) is positive.
    mu, dist, nu, beta = problem
    live = mu.weights > 0
    tilt = _Tilt(mu, dist, beta, nu)
    reached = np.isfinite(dist.rho[live]).any(axis=0)
    reach = np.flatnonzero(reached) if reached.any() else np.arange(dist.shape[1])
    assert np.array_equal(tilt.reach, reach)
    assert np.array_equal(tilt.finite_rho, np.where(np.isinf(dist.rho), 0.0, dist.rho)[live])
    assert (tilt.finite_rho is tilt.rho) == bool(np.isfinite(dist.rho[live]).all())
    x = nu.weights
    if not tilt.logged:
        loss = np.zeros_like(tilt.ker)
        np.multiply(tilt.ker, tilt.rho, out=loss, where=tilt.ker > 0.0)
        distortion = float(tilt.w @ (loss @ x))
    else:
        pi = np.exp(tilt.log_phi() + _log_weights(x) - (tilt.log_z + tilt.shift)[:, None])
        loss = np.zeros_like(pi)
        np.multiply(pi, tilt.rho, out=loss, where=pi > 0.0)
        distortion = float(tilt.mu @ loss.sum(axis=1))
    assert tilt.certificate(x)[0] == distortion


def test_a_row_sum_below_the_floor_is_taken_in_the_log_domain():
    # Row 1's sum over the cached kernel is nu_1: positive, but below
    # ROW_SUM_FLOOR.  Its entry e^-rho_10 in column 0 lies below
    # KERNEL_FLOOR and is flushed from the kernel, yet it is part of the
    # true Z_1 (2e-4 of it at nu_1 = 1e-305, where the entry is subnormal,
    # and 63% of it at nu_1 = 1e-200, where it lies between the smallest
    # normal number and KERNEL_FLOOR), so F, c, D, R and the slack must all come from
    # the log domain.
    mu = ProbabilityVector([0.5, 0.5])
    beta = 1.0
    for rho_10, nu_1 in ((711.5, 1e-305), (460.0, 1e-200)):
        dist = DistortionMatrix(np.array([[0.5, 712.0], [rho_10, 0.0]]))
        nu = ProbabilityVector([1.0 - nu_1, nu_1])
        log_phi = -beta * dist.rho
        log_z = logsumexp(log_phi + np.log(nu.weights), axis=1)
        c_ref = np.exp(logsumexp(np.log(mu.weights)[:, None] + log_phi - log_z[:, None], axis=0))
        pi = mu.weights[:, None] * np.exp(log_phi + np.log(nu.weights) - log_z[:, None])
        d_ref = float((pi * dist.rho).sum())

        tilt = _Tilt(mu, dist, beta)
        c = np.empty(2)
        slack = tilt.evaluate(nu.weights, c)
        assert 0.0 < (tilt.ker @ nu.weights).min() < ROW_SUM_FLOOR and tilt.logged
        # The evaluator's ln Z, and so F = -mu . ln Z, leaves out the row
        # shifts of its kernel.
        f = -(mu.weights @ tilt.log_z)
        assert f == pytest.approx(-(mu.weights @ (log_z - log_phi.max(axis=1))), rel=1e-12)
        assert c == pytest.approx(c_ref, rel=1e-12)
        assert slack == tilt.slack == c.max() - 1.0
        distortion, rate = rd_value_from_nu(mu, dist, beta, nu)
        _, slack, _ = dual_certificate(mu, dist, beta, nu)
        assert distortion == pytest.approx(d_ref, rel=1e-12)
        assert rate == pytest.approx(-(mu.weights @ log_z) - beta * d_ref, rel=1e-12)
        assert slack == pytest.approx(c_ref.max() - 1.0, rel=1e-12)


def test_a_row_of_zero_partition_mass_raises_only_when_strict():
    # Row 1 reaches only column 1, which the law leaves empty: a solver
    # candidate like this gets F = +inf and is never kept.
    inf = math.inf
    mu = ProbabilityVector([0.5, 0.5])
    tilt = _Tilt(mu, DistortionMatrix(np.array([[0.0, inf], [inf, 0.0]])), 1.0)
    c = np.empty(2)
    assert tilt.evaluate(np.array([1.0, 0.0]), c, strict=False) == inf
    assert -(mu.weights @ tilt.log_z) == inf
    with pytest.raises(InvalidInputError, match="source row 1 has zero partition mass"):
        tilt.evaluate(np.array([1.0, 0.0]), c)


def test_a_moved_tilt_equals_a_fresh_one():
    # Row 0 attains zero and has a +inf loss, row 1's minimum is 0.5, row 2
    # has no source mass, and row 3 is all +inf on columns 0 and 1, the
    # column set of a round.  The slopes flush entries (250), and take
    # the beta -> 0+ limit (0).
    inf = math.inf
    mu = ProbabilityVector([0.4, 0.3, 0.0, 0.3])
    rho = np.array([
        [0.0, 1.0, 2.0, inf],
        [0.5, 1.5, 0.7, 3.0],
        [1.0, 2.0, 3.0, 4.0],
        [inf, inf, 2.0, 0.3],
    ])
    x = np.array([0.1, 0.2, 0.3, 0.4])
    for dist in (DistortionMatrix(rho), DistortionMatrix(rho[:, :2])):
        m = dist.shape[1]
        law = x[:m] / x[:m].sum()
        tilt = _Tilt(mu, dist, 2.0)
        for beta in (0.7, 250.0, 0.0, 3.0):
            tilt.move(beta)
            fresh = _Tilt(mu, dist, beta)
            assert tilt.beta == beta
            assert np.array_equal(tilt.ker, fresh.ker) and np.array_equal(tilt.shift, fresh.shift)
            c, c_fresh = np.empty(m), np.empty(m)
            slack = tilt.evaluate(law, c, strict=False)
            assert slack == fresh.evaluate(law, c_fresh, strict=False)
            assert np.array_equal(tilt.log_z, fresh.log_z)
            if math.isfinite(-(tilt.mu @ tilt.log_z)):
                assert np.array_equal(c, c_fresh)
            # Against exp(-beta rho - s), s the row maximum of -beta rho:
            # bitwise on the row that attains zero, to rounding elsewhere.
            log_phi = _log_kernel(dist.rho, beta)[mu.weights > 0]
            shift = log_phi.max(axis=1)
            assert np.array_equal(tilt.shift, shift)
            with np.errstate(invalid="ignore"):
                reference = np.exp(log_phi - shift[:, None])
            reference[np.isneginf(shift)] = 0.0
            reference[reference < KERNEL_FLOOR] = 0.0
            assert np.array_equal(tilt.ker[0], reference[0])
            assert np.allclose(tilt.ker, reference, rtol=1e-12, atol=0.0)
        if m == 2:
            # The live row that forbids every column of the round.
            assert not tilt.ker[2].any() and tilt.shift[2] == -inf


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda m: st.lists(
            st.lists(st.one_of(st.just(-np.inf), st.floats(-800.0, 50.0)), min_size=m, max_size=m),
            min_size=1,
            max_size=5,
        )
    ),
    st.sampled_from([0, 1]),
)
def test_logsumexp_matches_scipy(rows, axis):
    # The reference is scipy's logsumexp; the shifted sum differs from it in
    # rounding only, so 1e-14 relative to the largest |entry| bounds the gap.
    # Lines of -inf alone must give -inf, not nan.
    a = np.array(rows)
    ours, ref = _logsumexp(a, axis=axis), logsumexp(a, axis=axis)
    assert np.array_equal(np.isneginf(ours), np.isneginf(ref))
    finite = np.isfinite(ref)
    scale = 1.0 + np.abs(a[np.isfinite(a)]).max(initial=0.0)
    assert np.all(np.abs(ours[finite] - ref[finite]) <= 1e-14 * scale)


# --- invariances and validation --------------------------------------------


def test_solution_is_permutation_equivariant():
    rng = np.random.default_rng(11)
    rho = rng.uniform(0.0, 3.0, size=(3, 4))
    rho -= rho.min(axis=1, keepdims=True)
    w = rng.uniform(0.2, 1.0, size=3)
    mu = ProbabilityVector(w / w.sum())
    base = ba_fixed_point(mu, DistortionMatrix(rho), 1.3, tol=1e-12, max_iter=20000)

    cols = np.array([2, 0, 3, 1])
    permuted = ba_fixed_point(
        mu, DistortionMatrix(rho[:, cols]), 1.3, tol=1e-12, max_iter=20000
    )
    assert abs(permuted.distortion - base.distortion) < 1e-12
    assert abs(permuted.rate - base.rate) < 1e-12
    assert np.allclose(permuted.nu_star.weights, base.nu_star.weights[cols], atol=1e-10)

    rows = np.array([1, 2, 0])
    mu_perm = ProbabilityVector(mu.weights[rows])
    repositioned = ba_fixed_point(
        mu_perm, DistortionMatrix(rho[rows]), 1.3, tol=1e-12, max_iter=20000
    )
    assert abs(repositioned.distortion - base.distortion) < 1e-12
    assert abs(repositioned.rate - base.rate) < 1e-12


def test_solver_input_validation():
    mu = ProbabilityVector([0.5, 0.5])
    dist = hamming(2)
    with pytest.raises(InvalidInputError):
        ba_fixed_point(mu, dist, -1.0)
    with pytest.raises(InvalidInputError):
        ba_fixed_point(mu, dist, float("nan"))
    with pytest.raises(InvalidInputError):
        ba_fixed_point(mu, dist, 1.0, tol=0.0)
    with pytest.raises(InvalidInputError, match="max_iter must be >= 1"):
        ba_fixed_point(mu, dist, 1.0, max_iter=0)
    with pytest.raises(InvalidInputError):
        ba_fixed_point(mu, dist, 1.0, nu0=ProbabilityVector([1.0]))
    with pytest.raises(InvalidInputError):
        ba_fixed_point(ProbabilityVector([1.0]), dist, 1.0)
    with pytest.raises(InvalidInputError, match="tol must be positive"):
        solve_point_for_distortion(mu, dist, 0.25, tol=0.0)
    with pytest.raises(InvalidInputError, match="max_iter must be >= 1"):
        solve_point_for_distortion(mu, dist, 0.25, max_iter=-3)


def test_rd_value_from_nu_validates_length():
    mu = ProbabilityVector([0.5, 0.5])
    with pytest.raises(InvalidInputError):
        rd_value_from_nu(mu, hamming(2), 1.0, ProbabilityVector([1.0]))
    with pytest.raises(InvalidInputError):
        dual_certificate(mu, hamming(2), 1.0, ProbabilityVector([1.0]))


# --- curve sweeps -----------------------------------------------------------


def test_rd_curve_schedule_validation(monkeypatch):
    mu = ProbabilityVector([0.7, 0.3])
    dist = hamming(2)
    tilts = counted_tilts(monkeypatch)
    with pytest.raises(InvalidInputError):
        rd_curve(mu, dist, [])
    with pytest.raises(InvalidInputError):
        rd_curve(mu, dist, [1.0, 0.5])
    with pytest.raises(InvalidInputError):
        rd_curve(mu, dist, [-1.0, 0.5])
    with pytest.raises(InvalidInputError):
        rd_curve(mu, dist, [[0.5, 1.0]])
    # A negative slope gets the same message as a single solve's.
    with pytest.raises(InvalidInputError, match="beta must be a finite nonnegative real, got -0.5"):
        rd_curve(mu, dist, [-0.5, 1.0])
    # A NaN or +inf slope is refused before beta = 1 is solved.
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInputError, match=f"beta must be a finite nonnegative real, got {bad}"):
            rd_curve(mu, dist, [1.0, bad])
    assert tilts == []


def counted_tilts(monkeypatch) -> list[int]:
    """The column count of each ``_Tilt`` built from now on, in order."""
    columns, init = [], _Tilt.__init__

    def counted(self, mu, dist, *args):
        columns.append(dist.shape[1])
        init(self, mu, dist, *args)

    monkeypatch.setattr(_Tilt, "__init__", counted)
    return columns


def mixed_instance():
    """(mu, rho): a zero-mass row, a +inf loss, and column 3, which only the
    zero-mass row reaches."""
    inf = math.inf
    rho = np.array([
        [0.0, 1.0, 2.0, inf],
        [1.0, inf, 0.5, inf],
        [2.0, 1.0, 0.0, inf],
        [1.0, 1.0, 1.0, 0.0],
    ])
    return ProbabilityVector([0.4, 0.3, 0.3, 0.0]), DistortionMatrix(rho)


def one_slope_at_a_time(mu, dist, betas, tol, warm_start, max_iter=5000):
    """The points of rd_curve(mu, dist, betas, tol, max_iter, warm_start=...),
    each from a ba_fixed_point call of its own, warm-started as the sweep
    does, and the WARNING text the sweep gives each degraded one."""
    points, degraded, start = [], [], None
    for beta in betas:
        try:
            point = ba_fixed_point(mu, dist, float(beta), start, tol=tol, max_iter=max_iter)
        except ConvergenceError as err:
            point = err.partial
            degraded.append(f"degraded point at beta={beta:g}: {err}")
        points.append(point)
        if warm_start:
            mix = blahut.WARM_START_MIX
            mixed = (1.0 - mix) * point.nu_star.weights + mix / dist.shape[1]
            start = ProbabilityVector(mixed / mixed.sum())
    return points, degraded


def fields(point):
    """Every field of a point, its law as bytes."""
    return (
        point.beta, point.distortion, point.rate, point.certificate_slack,
        point.fixpoint_residual, point.iterations, point.converged, point.nu_star.weights.tobytes(),
    )


def sweep_problem(name):
    """(mu, rho, max_iter) of a named sweep."""
    if name == "gaussian":
        src = discretize_gaussian(1.0, points=33)
        return src.weights, squared_error(src.grid, src.grid), 5000
    if name == "bernoulli":
        return ProbabilityVector([0.3, 0.7]), hamming(2), 5000
    if name == "one-step budget":
        # Under Hamming loss every slope takes one step; under this loss
        # the slopes above the critical one take 2 to 5, and so run out
        # of a budget of one.
        return ProbabilityVector([0.3, 0.7]), DistortionMatrix([[0.0, 1.0], [3.0, 0.0]]), 1
    if name == "zero-mass rows":
        return *zero_mass_rows_instance(), 5000
    return *mixed_instance(), 5000


@pytest.mark.parametrize(
    "problem, betas, tol, warm_start",
    [
        ("gaussian", np.geomspace(0.5, 20.0, 6), 5e-4, True),  # Blahut-Arimoto
        ("gaussian", np.geomspace(0.5, 20.0, 6), 5e-4, False),
        ("bernoulli", np.geomspace(0.1, 20.0, 30), 1e-11, False),  # the two-column solve
        ("gaussian", np.geomspace(0.5, 20.0, 4), 1e-9, True),  # the fixed-slope interior point
        ("bernoulli", [0.0, 0.5, 2.0, 8.0], 1e-11, True),  # the beta = 0 endpoint first
        ("mixed", [0.0, 0.3, 1.0, 4.0], 1e-9, True),  # a round on the reachable columns
        ("mixed", [0.0, 0.3, 1.0, 4.0], 5e-4, True),
        # Slopes of one stack that stop at different steps.
        ("zero-mass rows", np.geomspace(1e-3, 1e3, 25), 1e-11, True),
        # Degraded slopes of one stack, next to converged ones.
        ("one-step budget", np.geomspace(0.1, 20.0, 30), 1e-11, True),
    ],
)
def test_a_sweep_equals_its_slopes_solved_one_at_a_time(
    monkeypatch, caplog, problem, betas, tol, warm_start
):
    # Bit for bit: one tilt moved across the slopes forms the kernel each
    # fresh ba_fixed_point call forms.  On every column reachable the sweep
    # builds that one tilt and no other, and its points' certificates agree.
    # Each degraded point gets the WARNING its ba_fixed_point call's error
    # would give, and the sweep logs the calls' DEBUG records, in schedule
    # order.
    mu, dist, max_iter = sweep_problem(problem)

    def messages(level):
        return [r.getMessage() for r in caplog.records if r.levelno == level]

    with caplog.at_level(logging.DEBUG, logger="rdbridge.blahut"):
        points, degraded = one_slope_at_a_time(mu, dist, betas, tol, warm_start, max_iter)
    expected, records = [fields(p) for p in points], messages(logging.DEBUG)
    caplog.clear()
    tilts = counted_tilts(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="rdbridge.blahut"):
        curve = rd_curve(mu, dist, betas, tol=tol, warm_start=warm_start, max_iter=max_iter)
    assert [fields(p) for p in curve.points] == expected
    assert messages(logging.DEBUG) == records
    assert [m for m in messages(logging.WARNING) if "degraded" in m] == degraded
    if max_iter == 1:
        # 19 of the 30 slopes need more than one step.
        assert len(degraded) == 19
    # A degraded point (the warm-started Gaussian at tol 5e-4 has one)
    # keeps a certificate that agrees with the others too.
    assert not [r for r in caplog.records if "supporting line" in r.getMessage()]
    if problem != "mixed" or tol > SECOND_ORDER_TOL:
        assert tilts == [dist.shape[1]]
    else:
        # Each slope after the beta = 0 endpoint runs its round on the
        # three reachable columns, on a tilt of its own.
        assert tilts == [4] + [3] * (len(betas) - 1)


@settings(max_examples=150, deadline=None)
@given(
    two_column_problems(),
    st.lists(st.floats(math.log(1e-3), math.log(1e3)), min_size=2, max_size=12, unique=True),
    st.booleans(),
)
def test_a_tight_two_column_sweep_equals_its_slopes_solved_one_at_a_time(problem, logs, endpoint):
    # The stacked solve against one ba_fixed_point call per slope, bit for
    # bit, on m x 2 problems with +inf losses and zero-mass rows, and with
    # the beta = 0 endpoint, which stays a call of its own, first or not.
    mu, dist, _, _ = problem
    betas = np.exp(sorted(logs))
    assume(np.all(np.diff(betas) > 0))
    if endpoint:
        betas = np.concatenate([[0.0], betas])
    points, _ = one_slope_at_a_time(mu, dist, betas, 1e-11, True)
    curve = rd_curve(mu, dist, betas, tol=1e-11)
    assert [fields(p) for p in curve.points] == [fields(p) for p in points]


@pytest.mark.parametrize("max_iter", [5000, 1])
def test_a_stacked_slope_below_the_row_sum_floor_is_taken_in_the_log_domain(monkeypatch, max_iter):
    # At beta = 1e3 the first Newton step overshoots to the end t = 1, where
    # row 1's sum exp(-330) is below ROW_SUM_FLOOR: that slope of the stack
    # is evaluated in the log domain while the others stay scaled, and every
    # point still equals its own ba_fixed_point answer.  On a budget of one
    # step that slope ends there, so its D is certified in the log domain.
    mu, dist = ProbabilityVector([0.999, 0.001]), DistortionMatrix([[0.0, 1e-3], [0.33, 0.0]])
    betas = np.geomspace(1e-3, 1e3, 13)
    scaled, evaluate = [], _Tilt.evaluate

    def recorded(self, *args, **kwargs):
        slack = evaluate(self, *args, **kwargs)
        scaled.append([(k,) not in self.logged for k in range(len(self.z))])
        return slack

    points, _ = one_slope_at_a_time(mu, dist, betas, 1e-11, True, max_iter)
    monkeypatch.setattr(_Tilt, "evaluate", recorded)
    curve = rd_curve(mu, dist, betas, tol=1e-11, max_iter=max_iter)
    assert [fields(p) for p in curve.points] == [fields(p) for p in points]
    assert [True] * 12 + [False] in scaled
    assert scaled[-1][-1] is (max_iter > 1)


def test_a_tight_two_column_sweep_is_one_stacked_solve(monkeypatch):
    # Criterion 1's sweep: its 30 slopes are solved in lockstep, so it
    # builds one tilt, makes no ba_fixed_point call and evaluates the
    # stack once per step plus once at the start.
    calls, shapes = [], []
    solve, evaluate = blahut.ba_fixed_point, _Tilt.evaluate

    def counted_solve(*args, **kwargs):
        calls.append(args[2])
        return solve(*args, **kwargs)

    def counted_evaluate(self, x, *args, **kwargs):
        shapes.append(x.shape)
        return evaluate(self, x, *args, **kwargs)

    monkeypatch.setattr(blahut, "ba_fixed_point", counted_solve)
    monkeypatch.setattr(_Tilt, "evaluate", counted_evaluate)
    tilts = counted_tilts(monkeypatch)
    mu = ProbabilityVector([0.7, 0.3], labels=[0.0, 1.0])
    curve = rd_curve(mu, hamming(2), np.geomspace(0.1, 20.0, 30), tol=1e-11, max_iter=200000)
    assert tilts == [2] and calls == []
    assert shapes == [(30, 2)] * (max(p.iterations for p in curve.points) + 1)


@pytest.mark.parametrize("tol", [1e-2, 1e-3, 5e-4])
def test_a_loose_sweep_is_refereed_by_the_tight_solve_at_each_slope(tol):
    # F = R + beta D is least at the optimal law, and a law's dual gap
    # ln(1 + max(slack, 0)) bounds how far its F lies above that least
    # value (Csiszar 1974).  So at each slope the loose Blahut-Arimoto
    # point lies above the tight solve's by at most its own gap; 1e-12
    # allows for rounding on either side.
    gaussian = discretize_gaussian(1.0, points=65)
    uniform = discretize_uniform(-1.0, 1.0, 41)
    problems = [(src.weights, squared_error(src.grid, src.grid)) for src in (gaussian, uniform)]
    problems += [(ProbabilityVector([1.0 - p, p]), hamming(2)) for p in (0.1, 0.3, 0.45)]
    betas = np.geomspace(0.3, 30.0, 9)
    for mu, dist in problems:
        loose = rd_curve(mu, dist, betas, tol=tol, max_iter=200000)
        tight = rd_curve(mu, dist, betas, tol=1e-9)
        for a, b in zip(loose.points, tight.points):
            excess = (a.rate + a.beta * a.distortion) - (b.rate + b.beta * b.distortion)
            assert -1e-12 <= excess <= math.log1p(max(a.certificate_slack, 0.0)) + 1e-12


def test_a_sweep_moves_its_tilt_through_ba_fixed_point_and_keeps_it_to_itself(monkeypatch):
    # Each Blahut-Arimoto slope is a ba_fixed_point call (the benchmark's
    # tracer counts them), and every call sees the sweep's one tilt.  The
    # caller's context never holds it, and a call on another problem builds
    # its own.
    mu, dist = ProbabilityVector([0.7, 0.3]), hamming(2)
    seen, solve = [], blahut.ba_fixed_point

    def recorded(*args, **kwargs):
        seen.append(blahut._SWEEP.get())
        return solve(*args, **kwargs)

    monkeypatch.setattr(blahut, "ba_fixed_point", recorded)
    rd_curve(mu, dist, [0.5, 1.0, 2.0], tol=1e-3)
    assert len(seen) == 3 and seen[0] is seen[1] is seen[2]
    assert seen[0].beta == 2.0 and blahut._SWEEP.get() is None

    other = copy_context()
    other.run(blahut._SWEEP.set, seen[0])
    tilts = counted_tilts(monkeypatch)
    expected = solve(ProbabilityVector([0.2, 0.8]), dist, 1.0)
    point = other.run(solve, ProbabilityVector([0.2, 0.8]), dist, 1.0)
    assert tilts == [2, 2] and seen[0].beta == 2.0
    assert (point.distortion, point.rate) == (expected.distortion, expected.rate)


def test_rd_curve_keeps_degraded_points():
    # Blahut-Arimoto runs out of a budget of 3 at both slopes.  (At a tol
    # below SECOND_ORDER_TOL the two-column solve ends each in one step.)
    mu = ProbabilityVector([0.7, 0.3])
    curve = rd_curve(mu, hamming(2), [0.5, 2.0], tol=10.0 * SECOND_ORDER_TOL, max_iter=3)
    assert len(curve) == 2
    assert all(not p.converged for p in curve.points)
    assert all(p.iterations == 3 for p in curve.points)


def test_rd_curve_warns_when_its_points_break_monotonicity(monkeypatch, caplog):
    # A stubbed solver whose distortion rises with beta, at rate 1 and zero
    # slack: the sweep keeps the points and warns, since the line of slope
    # -2 through (0.2, 1) passes the rate at D = 0.05 by 0.3.  (At tol 1e-3
    # each slope is a ba_fixed_point call.)
    def rising(mu, dist, beta, *args, **kwargs):
        return RDPoint(beta, 0.1 * beta, 1.0, ProbabilityVector([0.5, 0.5]), 1, 0.0, 0.0)

    monkeypatch.setattr(blahut, "ba_fixed_point", rising)
    with caplog.at_level(logging.WARNING, logger="rdbridge.blahut"):
        curve = rd_curve(ProbabilityVector([0.7, 0.3]), hamming(2), [0.5, 1.0, 2.0], tol=1e-3)
    assert curve.distortions().tolist() == [0.05, 0.1, 0.2]
    assert curve.excess() == pytest.approx(0.3, rel=1e-12)
    [record] = caplog.records
    assert record.getMessage() == "curve points break a supporting line: excess 0.3 nats"


# Evaluations the sweep below needs today (17 + 14 + 27 + 17), plus 15%.
GAUSSIAN_SWEEP_BUDGET = 86
# Evaluations the wide uniform sweep below needs today (7,715), plus 15%.
UNIFORM_SWEEP_BUDGET = 8872


def test_gaussian_curve_sweep_stays_within_its_evaluation_budget():
    # The shape of a benchmark curve op: the 257-point Gaussian (sigma = 1)
    # under squared error, beta from 2 to 10 in 4 warm-started steps at tol
    # 5e-4.  The count does not depend on the machine; the over-relaxed
    # step the extrapolation replaced needed 1,129 iterations here, and a
    # cycle that evaluated x2 needed 323.
    src = discretize_gaussian(1.0)
    dist = squared_error(src.grid, src.grid)
    start = ProbabilityVector(np.full(len(src.grid), 1.0 / len(src.grid)))
    curve = rd_curve(src.weights, dist, np.geomspace(2.0, 10.0, 4), tol=5e-4, max_iter=300000, nu0=start)
    assert all(p.converged for p in curve.points)
    assert sum(p.iterations for p in curve.points) <= GAUSSIAN_SWEEP_BUDGET


def blahut_arimoto_totals(caplog) -> tuple[int, int]:
    """(extrapolations accepted, backtracks) over the logged solves."""
    pattern = re.compile(
        r"iteration \d+: Blahut-Arimoto stops; (\d+) extrapolations accepted, (\d+) backtracks"
    )
    counts = [pattern.fullmatch(r.getMessage()) for r in caplog.records]
    return tuple(sum(int(m.group(k)) for m in counts if m) for k in (1, 2))


def test_gaussian_curve_sweep_takes_the_same_iterates(caplog):
    # The sweep above, pinned exactly: a rewrite of the extrapolation cycle
    # that keeps its arithmetic keeps every count.
    src = discretize_gaussian(1.0)
    dist = squared_error(src.grid, src.grid)
    start = ProbabilityVector(np.full(len(src.grid), 1.0 / len(src.grid)))
    with caplog.at_level(logging.DEBUG, logger="rdbridge.blahut"):
        curve = rd_curve(
            src.weights, dist, np.geomspace(2.0, 10.0, 4), tol=5e-4, max_iter=300000, nu0=start
        )
    assert [p.iterations for p in curve.points] == [17, 14, 27, 17]
    assert blahut_arimoto_totals(caplog) == (19, 18)


def test_wide_uniform_curve_sweep_stays_within_its_evaluation_budget(caplog):
    # The 201-point uniform source under squared error, beta from 0.5 to 50
    # in 12 warm-started steps at tol 5e-4.  The warm start's mix of
    # uniform mass sets the count: with WARM_START_MIX = 1e-6 the sweep
    # needed 12,288 evaluations.  Atoms are pinned inside extrapolation
    # cycles here, so the exact counts pin how a cycle carries a pin too.
    spec = discretize_uniform(-1.0, 1.0, 201)
    dist = squared_error(spec.grid, spec.grid)
    with caplog.at_level(logging.DEBUG, logger="rdbridge.blahut"):
        curve = rd_curve(spec.weights, dist, np.geomspace(0.5, 50.0, 12), tol=5e-4, max_iter=300000)
    assert all(p.converged for p in curve.points)
    assert sum(p.iterations for p in curve.points) <= UNIFORM_SWEEP_BUDGET
    assert [p.iterations for p in curve.points] == [
        258, 15, 1, 796, 789, 435, 398, 580, 1373, 1180, 927, 963
    ]
    pin = re.compile(r"iteration \d+: pinned (\d+) reconstruction atoms below 1e-300")
    pins = [int(m.group(1)) for r in caplog.records if (m := pin.fullmatch(r.getMessage()))]
    assert (len(pins), sum(pins)) == (26, 47)


def test_each_solve_logs_its_blahut_arimoto_phase_once(caplog):
    # One DEBUG record per solve: a Blahut-Arimoto solve logs its counts at
    # its end, and a second-order solve its path, iterations, slack and
    # residual instead; the interior point also logs its own end.
    src = discretize_gaussian(1.0)
    gaussian = (src.weights, squared_error(src.grid, src.grid))
    pattern = re.compile(r"iteration (\d+): (.*); (\d+) extrapolations accepted, (\d+) backtracks")
    with caplog.at_level(logging.DEBUG, logger="rdbridge.blahut"):
        loose = ba_fixed_point(*gaussian, 3.0, tol=1e-3)
    records = [pattern.fullmatch(r.getMessage()) for r in caplog.records]
    (phase_1,) = [m for m in records if m]
    assert phase_1.group(2) == "Blahut-Arimoto stops"
    assert int(phase_1.group(1)) == loose.iterations
    assert 1 <= int(phase_1.group(3)) < loose.iterations
    assert not fixed_slope_records(caplog)
    bernoulli = (ProbabilityVector([0.7, 0.3]), hamming(2))
    for problem, path in ((gaussian, "the interior point"), (bernoulli, "the two-column solve")):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="rdbridge.blahut"):
            tight = ba_fixed_point(*problem, 3.0, tol=1e-9)
        messages = [r.getMessage() for r in caplog.records]
        assert not any(map(pattern.fullmatch, messages))
        (record,) = fixed_slope_records(caplog)
        assert record.group(2) == path
        assert int(record.group(3)) == tight.iterations
        # One round on every column, which no column can enter.
        n = problem[1].shape[1]
        assert round_records(caplog) == [(1, n, n, 0, tight.iterations)]
        ends = [m for m in messages if m.startswith("interior point ends")]
        assert len(ends) == (path == "the interior point")


def test_nearly_coincident_certified_points_show_no_excess(caplog):
    # Bernoulli(0.3) under Hamming loss at slopes 1e-12 apart around the
    # critical slope, where D jumps from D_max: chords between such points
    # have no meaningful slope, but each point's supporting line still
    # stays below every other point's rate, as it does with a beta = 0
    # endpoint first.
    mu, dist = ProbabilityVector([0.7, 0.3]), hamming(2)
    critical = math.log(0.7 / 0.3)
    schedules = (critical + 1e-12 * np.arange(-5, 6), np.r_[0.0, np.geomspace(0.1, 20.0, 10)])
    for betas in schedules:
        with caplog.at_level(logging.WARNING, logger="rdbridge.blahut"):
            curve = rd_curve(mu, dist, betas, tol=1e-11)
        assert curve.excess(terms=4) <= 0.0
        assert curve.excess() <= 1e-15
    assert not caplog.records


def gaussian_points(count: int) -> list[RDPoint]:
    """Points of the Gaussian R(D) = ln(1 / D) / 2 at beta = 1 / 2D, exact up to rounding."""
    law = ProbabilityVector([1.0])
    return [
        RDPoint(b, 0.5 / b, 0.5 * math.log(2.0 * b), law, 1, 0.0, 0.0)
        for b in np.geomspace(0.5, 500.0, count).tolist()
    ]


def test_the_excess_check_needs_memory_linear_in_the_points():
    # A K x K array of 20,000 points would take 3.2 GB.
    points = gaussian_points(20000)
    tracemalloc.start()
    try:
        within = RDCurve(points).excess(terms=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert within <= 0.0
    assert peak < 200e6


def test_a_rate_below_a_supporting_line_shows_as_its_excess():
    points = gaussian_points(2000)
    assert RDCurve(points).excess(terms=2) <= 0.0
    # A rate lowered by 1e-4 nats falls below its neighbours' lines by
    # that less their gap to the curve, about 3e-6 nats.
    points[700].rate -= 1e-4
    assert 0.9e-4 < RDCurve(points).excess(terms=2) <= RDCurve(points).excess() <= 1e-4


# --- target-distortion solve ------------------------------------------------

# Most interior-point iterations one solve took on Bernoulli(p) under
# Hamming loss at tol 1e-9: 19, measured over 4,620 draws of p in
# [0.02, 0.48] with targets from 1e-3 p to 1e-7 below D_max = p, plus a
# margin of 6.
TARGET_ITERATIONS_BERNOULLI = 25


def uniform_mse(points: int):
    """(mu, rho) of the uniform source on [-1, 1] under squared error."""
    spec = discretize_uniform(-1.0, 1.0, points)
    return spec.weights, squared_error(spec.grid, spec.grid)


# One DEBUG record per round of a second-order solve.
ROUND_RECORD = re.compile(
    r"round (\d+): (\d+) of (\d+) columns in play, (\d+) enter, (\d+) iterations"
)


def round_records(caplog) -> list[tuple[int, ...]]:
    """(round, columns in play, columns, columns entering, iterations) of each round record."""
    matches = (ROUND_RECORD.fullmatch(r.getMessage()) for r in caplog.records)
    return [tuple(int(g) for g in m.groups()) for m in matches if m]


def test_a_target_solve_out_of_budget_is_flagged(capsys, caplog):
    # Uniform source under squared error.  With too few iterations the
    # solve raises, its partial says so and carries a law on every column,
    # and the CLI exits 2 with that partial point.
    cases = [
        # 21 columns: one round of 9 iterations.
        (21, 0.1, 1e-9, (1, 8), 1),
        # 201 columns at tol 1e-3: rounds of 7 and 9 iterations, so a
        # budget of 12 runs out in round 2, on the columns round 1 priced in.
        (201, 0.15, 1e-3, (1, 12), 2),
    ]
    for points, target, tol, budgets, rounds in cases:
        mu, dist = uniform_mse(points)
        assert solve_point_for_distortion(mu, dist, target, tol=tol).iterations > budgets[-1]
        for max_iter in budgets:
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="rdbridge.blahut"):
                with pytest.raises(ConvergenceError) as info:
                    solve_point_for_distortion(mu, dist, target, tol=tol, max_iter=max_iter)
            assert not info.value.partial.converged
            assert info.value.partial.iterations == max_iter
            assert len(info.value.partial.nu_star) == points
            assert len(round_records(caplog)) == (1 if max_iter == 1 else rounds)
        argv = [
            "point", "--source.kind", "uniform", "--source.points", str(points),
            "--distortion.kind", "mse", "--tol", str(tol), "--distortion", str(target),
            "--max_iter", str(budgets[-1]),
        ]
        assert main(argv) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["converged"] is False
        assert doc["iterations"] == budgets[-1]
        assert len(doc["nu_star"]["weights"]) == points


@pytest.mark.parametrize("fail_at", [1, 2, 3, 4])
def test_a_failed_factor_stops_the_target_interior_point(monkeypatch, fail_at):
    # 21-point uniform source under squared error, target 0.1: the solve
    # takes 9 iterations when every Newton system factors.  The factor
    # numbered fail_at reports a breakdown; a step from it would move
    # (x, beta) by a direction of an unsolved system.  The solve must stop
    # there, flagged, at the iterate the failed step would have left: the
    # one a budget of fail_at - 1 iterations ends at, or on the first
    # factor (no budget below 1 is accepted) the start, the uniform law at
    # beta = 1 / (D_max - d_floor).
    from scipy.linalg import lapack

    (mu, dist), target = uniform_mse(21), 0.1
    if fail_at == 1:
        beta = 1.0 / (d_max(mu, dist)[0] - d_floor(mu, dist))
        x = np.full(21, 1.0 / 21)
        law = ProbabilityVector(x / x.sum())
        before = RDPoint(beta, *rd_value_from_nu(mu, dist, beta, law), law, 0, 0.0, 0.0)
    else:
        with pytest.raises(ConvergenceError) as info:
            solve_point_for_distortion(mu, dist, target, max_iter=fail_at - 1)
        before = info.value.partial
    factor, calls = lapack.dpotrf, []

    def breaks_down(m):
        calls.append(None)
        c, code = factor(m)
        return c, (1 if len(calls) == fail_at else code)

    monkeypatch.setattr(lapack, "dpotrf", breaks_down)
    with pytest.raises(ConvergenceError, match="singular") as info:
        solve_point_for_distortion(mu, dist, target)
    assert len(calls) == fail_at
    partial = info.value.partial
    assert not partial.converged
    assert partial.iterations == fail_at - 1
    assert partial.beta == before.beta
    assert partial.distortion == before.distortion
    assert partial.rate == before.rate
    assert np.array_equal(partial.nu_star.weights, before.nu_star.weights)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(0.02, 0.48),
    st.one_of(
        st.floats(1e-3, 1.0 - 1e-3),
        # Within 1e-3 relative of D_max, next to the D = D_max plateau
        # below the critical slope ln((1 - p) / p).
        st.floats(1e-7, 1e-3).map(lambda r: 1.0 - r),
    ),
)
def test_target_solve_matches_the_bernoulli_closed_form(p, fraction):
    # Under Hamming loss D(beta) = 1 / (1 + e^beta) above the critical
    # slope, so the target D sits at beta* = ln((1 - D) / D).
    mu, dist, tol = ProbabilityVector([1.0 - p, p]), hamming(2), 1e-9
    target = min(p, 1.0 - p) * fraction
    band = 10.0 * tol * min(p, 1.0 - p)
    point = solve_point_for_distortion(mu, dist, target, tol=tol)
    assert point.converged
    assert abs(point.distortion - target) <= band
    # The band maps to |beta - beta*| <= band / |D'(beta*)|; 2 covers curvature.
    beta_star = math.log((1.0 - target) / target)
    assert abs(point.beta - beta_star) <= 2.0 * band / (target * (1.0 - target))
    assert point.iterations <= TARGET_ITERATIONS_BERNOULLI


def test_target_inside_a_jump_of_the_distortion_gets_the_mixture():
    # A fair bit with an erasure symbol (loss 1/2, crossings forbidden) has
    # the linear curve R(D) = (1 - 2 D) ln 2, so D(beta) jumps from 1/2 to 0
    # at beta = 2 ln 2 and no single optimum at any slope has D strictly
    # between.  The optima at 2 ln 2 form the segment x = (1/2 - D, 1/2 - D, 2 D),
    # and D = target picks its point.
    mu = ProbabilityVector([0.5, 0.5])
    dist = DistortionMatrix(np.array([[0.0, np.inf, 0.5], [np.inf, 0.0, 0.5]]))
    for target in (0.1, 0.25, 0.4):
        point = solve_point_for_distortion(mu, dist, target)
        assert point.converged
        assert abs(point.beta - 2.0 * math.log(2.0)) <= 1e-8
        assert abs(point.rate - (1.0 - 2.0 * point.distortion) * math.log(2.0)) <= 1e-12
        if target == 0.25:
            # The band of 10 tol D_max = 5e-9 on D bounds x's error by 1e-8.
            assert np.allclose(point.nu_star.weights, [0.25, 0.25, 0.5], rtol=0.0, atol=1e-8)


@st.composite
def target_instances(draw):
    """(mu, rho, target): n, m <= 5, one zero-mass source atom, one +inf loss."""
    n, m = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n)))
    weights[draw(st.integers(0, n - 1))] = 0.0
    rho = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n * m, max_size=n * m))).reshape(n, m)
    rho[draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))] = np.inf
    mu, dist = ProbabilityVector(weights / weights.sum()), DistortionMatrix(rho)
    floor, (ceiling, _) = d_floor(mu, dist), d_max(mu, dist)
    assume(ceiling < np.inf and ceiling - floor > 1e-6)
    return mu, dist, floor + draw(st.floats(1e-3, 1.0 - 1e-3)) * (ceiling - floor)


def unreachable_column_instance():
    """Column 2 is reached with a finite loss only by the source letter of
    zero mass.  A solve that kept it in play once left 4e-12 on it, a law
    that ``check_optimality`` refuses.
    """
    rho = np.array([[0.0, 1.0, np.inf, 1.0], [1.0, 0.0, np.inf, 1.0], [1.0, 1.0, 0.0, 1.0]])
    return ProbabilityVector([0.5, 0.5, 0.0]), DistortionMatrix(rho), 0.1


@settings(max_examples=100, deadline=None)
@given(target_instances())
@example(unreachable_column_instance())
def test_target_solve_agrees_with_the_fixed_point_at_its_slope(instance):
    # The referee is ba_fixed_point at the returned slope.  The Lagrangian
    # value R + beta D = -sum_i mu_i ln Z_i of the optimum at a slope is
    # unique even where D(beta) jumps, so it must match there too.  A
    # column that no row of positive mass reaches gets exactly zero mass.
    mu, dist, target = instance
    tol = 1e-9
    point = solve_point_for_distortion(mu, dist, target, tol=tol)
    unreachable = ~np.isfinite(dist.rho[mu.weights > 0]).any(axis=0)
    assert not point.nu_star.weights[unreachable].any()
    assert abs(point.distortion - target) <= 10.0 * tol * d_max(mu, dist)[0]
    assert dual_certificate(mu, dist, point.beta, point.nu_star)[2] <= point.rate
    fixed = ba_fixed_point(mu, dist, point.beta, tol=1e-11, max_iter=1000000)
    value = point.rate + point.beta * point.distortion
    assert abs(value - (fixed.rate + fixed.beta * fixed.distortion)) <= 1e-8


@st.composite
def wide_target_instances(draw):
    """(mu, rho, target) with 71-161 columns, enough for the solve to run in rounds.

    Either a uniform or Gaussian grid source under squared error, or a
    random rho over 2-8 source atoms with one zero-mass atom and one +inf
    loss.
    """
    m = 2 * draw(st.integers(35, 80)) + 1
    kind = draw(st.sampled_from(["uniform", "gaussian", "random"]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = draw(st.integers(2, 8))
        weights = rng.uniform(0.05, 1.0, n)
        weights[draw(st.integers(0, n - 1))] = 0.0
        rho = rng.uniform(0.0, 3.0, (n, m))
        rho[draw(st.integers(0, n - 1)), draw(st.integers(0, m - 1))] = np.inf
        mu, dist = ProbabilityVector(weights / weights.sum()), DistortionMatrix(rho)
    else:
        if kind == "uniform":
            spec = discretize_uniform(-1.0, 1.0, m)
        else:
            spec = discretize_gaussian(1.0, points=m)
        mu, dist = spec.weights, squared_error(spec.grid, spec.grid)
    floor, (ceiling, _) = d_floor(mu, dist), d_max(mu, dist)
    assume(ceiling < np.inf and ceiling - floor > 1e-6)
    return mu, dist, floor + draw(st.floats(0.05, 1.0 - 1e-3)) * (ceiling - floor)


def floor_rule_instance():
    """Three source letters, each at loss 0 on a column of its own (1, 2 and 4,
    none of them a start column) and 1 elsewhere, but 1/2 on column 0, the
    D_max column.  The start columns reach no distortion below D_max = 1/2,
    so the target 1/4 needs each row's cheapest column.
    """
    rho = np.ones((3, 101))
    rho[:, 0] = 0.5
    rho[[0, 1, 2], [1, 2, 4]] = 0.0
    return ProbabilityVector(np.full(3, 1.0 / 3.0)), DistortionMatrix(rho), 0.25


@settings(max_examples=50, deadline=None)
@given(wide_target_instances())
@example(floor_rule_instance())
def test_target_solve_in_rounds_agrees_with_the_fixed_point_at_its_slope(instance):
    # The referee of the n, m <= 5 test above, on alphabets where the solve
    # prices columns: the law must also meet the stop rule's slack bound on
    # every column, not only on those it solved on.
    mu, dist, target = instance
    tol = 1e-9
    point = solve_point_for_distortion(mu, dist, target, tol=tol)
    assert abs(point.distortion - target) <= 10.0 * tol * d_max(mu, dist)[0]
    assert len(point.nu_star) == dist.shape[1]
    tilt = _Tilt(mu, dist, point.beta, point.nu_star)
    assert tilt.certificate(point.nu_star.weights)[2] <= min(tol, IP_TOL)
    fixed = ba_fixed_point(mu, dist, point.beta, tol=1e-11, max_iter=1000000)
    value = point.rate + point.beta * point.distortion
    assert abs(value - (fixed.rate + fixed.beta * fixed.distortion)) <= 1e-8


def test_target_solve_on_the_201_point_uniform_source_takes_few_rounds(caplog):
    # At tol 1e-3, targets f * D_max with f in [0.35, 0.63] took 2 rounds
    # of 6-10 interior-point iterations each, measured over 29 targets.  The
    # bound of 14 per round is the one a single solve on every column had
    # (7-11 iterations, plus a margin of 3).
    mu, dist = uniform_mse(201)
    ceiling, _ = d_max(mu, dist)
    for f in np.linspace(0.35, 0.63, 8):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="rdbridge.blahut"):
            point = solve_point_for_distortion(mu, dist, f * ceiling, tol=1e-3)
        assert abs(point.distortion - f * ceiling) <= 10 * 1e-3 * ceiling
        rounds = round_records(caplog)
        assert len(rounds) <= 2, f
        assert all(r[4] <= 14 for r in rounds), f
        assert point.iterations == sum(r[4] for r in rounds)


def test_target_solves_on_the_201_point_uniform_source_keep_their_iterations(monkeypatch):
    # A regression guard on the interior point's per-iteration work: the
    # benchmark's uniform targets, at the midpoints of its eight cells
    # f * D_max with f in [0.35, 0.63], tol 1e-3.
    mu, dist = uniform_mse(201)
    ceiling, _ = d_max(mu, dist)
    counts = [
        solve_point_for_distortion(mu, dist, (0.35 + 0.035 * (k + 0.5)) * ceiling, tol=1e-3).iterations
        for k in range(8)
    ]
    assert counts == [15, 14, 15, 15, 17, 15, 15, 17]
    # D is certified once, at the last round's law lifted to the whole
    # alphabet, and never at an iterate or an earlier round: two rounds,
    # one certificate.
    certificate, calls = _Tilt.certificate, []

    def counted(self, x):
        calls.append(None)
        return certificate(self, x)

    monkeypatch.setattr(_Tilt, "certificate", counted)
    solve_point_for_distortion(mu, dist, 0.4 * ceiling, tol=1e-3)
    assert len(calls) == 1


def test_a_target_solve_builds_one_full_tilt_and_one_per_subset_round(monkeypatch, caplog):
    # The 201-point uniform target prices its columns in two subset rounds.
    # The 71-point Gaussian one takes a subset round, then a round on every
    # column, on the full tilt moved back to the start slope: every round
    # starts from the same beta.  The Bernoulli target next to the
    # D = D_max plateau solves on both columns in one round.  The full tilt
    # forms a kernel at the start slope only for a round on every column:
    # a subset round's law is first lifted at the round's final beta.
    uniform = uniform_mse(201)
    spec = discretize_gaussian(1.0, points=71)
    gaussian = (spec.weights, squared_error(spec.grid, spec.grid))
    bernoulli = (ProbabilityVector([0.9, 0.1]), hamming(2))
    cases = [
        # (problem, target, tol, (rounds, subset rounds))
        (uniform, 0.4 * d_max(*uniform)[0], 1e-3, (2, 2)),
        (gaussian, 0.4 * d_max(*gaussian)[0], 1e-9, (2, 1)),
        (bernoulli, 0.0999, 1e-3, (1, 0)),
    ]
    tilts, starts, saddle_point = counted_tilts(monkeypatch), [], blahut._saddle_point
    formed, move = [], _Tilt.move

    def recorded(tilt, *args):
        starts.append(tilt.beta)
        return saddle_point(tilt, *args)

    def moved(tilt, beta):
        if beta != tilt.beta:
            formed.append((tilt.ker.shape[1], beta))
        move(tilt, beta)

    monkeypatch.setattr(blahut, "_saddle_point", recorded)
    monkeypatch.setattr(_Tilt, "move", moved)
    for (mu, dist), target, tol, expected in cases:
        caplog.clear()
        tilts.clear()
        starts.clear()
        formed.clear()
        with caplog.at_level(logging.DEBUG, logger="rdbridge.blahut"):
            solve_point_for_distortion(mu, dist, target, tol=tol)
        n = dist.shape[1]
        rounds = round_records(caplog)
        subsets = [r[1] for r in rounds if r[1] < n]
        assert tilts == [n] + subsets
        assert (len(rounds), len(subsets)) == expected
        assert starts == [starts[0]] * len(rounds)
        assert formed.count((n, starts[0])) == len(rounds) - len(subsets)


def test_a_full_support_target_ends_within_three_rounds(caplog):
    # The 257-point Gaussian at 0.1 D_max has 165 atoms: once the priced
    # set would cover half the alphabet, the next round solves on all of it.
    spec = discretize_gaussian(1.0)
    mu, dist = spec.weights, squared_error(spec.grid, spec.grid)
    with caplog.at_level(logging.DEBUG, logger="rdbridge.blahut"):
        point = solve_point_for_distortion(mu, dist, 0.1 * d_max(mu, dist)[0], tol=1e-9)
    assert point.converged
    rounds = round_records(caplog)
    assert len(rounds) <= 3
    assert rounds[-1][1:3] == (257, 257)


def test_each_target_solve_round_logs_one_record(capsys, caplog):
    # The 201-point uniform target prices its columns once and solves again
    # on those that entered; the Bernoulli target next to the D = D_max
    # plateau (test_cli's PLATEAU_POINT) solves on both columns in one round.
    uniform = [
        "point", "--source.kind", "uniform", "--source.points", "201", "--distortion.kind", "mse",
        "--tol", "1e-3", "--distortion", "0.15",
    ]
    plateau = ["point", "--source.p", "0.1", "--distortion", "0.0999"]
    for argv, columns in ((uniform, 201), (plateau, 2)):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="rdbridge.blahut"):
            assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        rounds = round_records(caplog)
        assert [r[0] for r in rounds] == list(range(1, len(rounds) + 1))
        assert all(r[2] == columns for r in rounds)
        assert sum(r[4] for r in rounds) == doc["iterations"]
        assert rounds[-1][3] == 0
        if columns == 2:
            assert rounds == [(1, 2, 2, 0, doc["iterations"])]
        else:
            assert len(rounds) == 2
            assert rounds[1][1] == rounds[0][1] + rounds[0][3] < columns


def test_the_tilt_kernel_zeroes_all_forbidden_rows():
    inf = math.inf
    rho = np.array([[0.0, 1.0, inf], [inf, inf, inf], [2.0, 720.0, 0.5]])
    tilt = _Tilt(ProbabilityVector(np.full(3, 1.0 / 3.0)), DistortionMatrix(rho), 1.0)
    assert tilt.shift[0] == 0.0 and tilt.shift[1] == -inf and tilt.shift[2] == -0.5
    assert np.array_equal(tilt.ker[0], np.exp([0.0, -1.0, -inf]))
    assert np.array_equal(tilt.ker[1], np.zeros(3))
    # exp(-719.5) is subnormal and is flushed.
    assert np.array_equal(tilt.ker[2], [np.exp(-1.5), 0.0, 1.0])


# --- bit-identical kernels ---------------------------------------------------


@st.composite
def tilt_moves(draw):
    """A problem with +inf losses, rows that do not attain zero and zero-mass rows,
    and two slopes in [1e-3, 1e3]: far enough down to clamp the exponent and
    close enough to skip the flush."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    mass = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    mu = np.array(draw(st.lists(mass, min_size=n, max_size=n)))
    if mu.sum() == 0:
        mu[0] = 1.0
    loss = st.one_of(st.just(math.inf), st.floats(0.0, 8.0))
    rho = np.array(draw(st.lists(st.lists(loss, min_size=m, max_size=m), min_size=n, max_size=n)))
    rho += np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))[:, None]
    slopes = st.floats(math.log(1e-3), math.log(1e3)).map(math.exp)
    return ProbabilityVector(mu / mu.sum()), DistortionMatrix(rho), draw(slopes), draw(slopes)


@settings(max_examples=300, deadline=None)
@given(tilt_moves())
@example((ProbabilityVector([0.5, 0.5]), DistortionMatrix([[1.0, 9.0, math.inf], [2.0, 2.5, 600.0]]), 1e3, 1.0))
def test_a_moved_kernel_is_exactly_the_flushed_exponential(problem):
    # K = exp(-beta (rho - min_j rho)) on the live rows, bit for bit, with
    # every entry below KERNEL_FLOOR set to zero and the rows that forbid
    # every column all zero, at the first slope and after a move.
    mu, dist, first, second = problem
    rho = dist.rho[mu.weights > 0]
    low = rho.min(axis=1)
    low[np.isinf(low)] = 0.0
    tilt = _Tilt(mu, dist, first)
    for beta in (first, second):
        tilt.move(beta)
        with np.errstate(under="ignore"):
            reference = np.exp(-beta * (rho - low[:, None]))
        reference[reference < KERNEL_FLOOR] = 0.0
        assert np.array_equal(tilt.ker, reference)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(0.0, 1e6),
            st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1e6, -1e-6), st.floats(1e-6, 1e6)),
        ),
        min_size=1,
        max_size=8,
    ),
    st.floats(0.0, 1e6),
    st.one_of(st.just(-0.0), st.just(0.0), st.floats(-1e6, 1e6)),
)
def test_the_boundary_step_is_the_least_ratio_over_falling_entries(pairs, v, dv):
    # min over du < 0 of u / -du, and v / -dv when dv < 0; +inf when
    # nothing falls.  A step of -0.0 does not fall.
    u, du = (np.array(column) for column in zip(*pairs))
    ratios = [a / -b for a, b in pairs if b < 0.0]
    assert blahut._boundary(u, du) == min(ratios, default=math.inf)
    if dv < 0.0:
        ratios.append(v / -dv)
    assert blahut._boundary(u, du, v, dv) == min(ratios, default=math.inf)


# --- one BLAS thread in the interior point -----------------------------------


def test_the_interior_point_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    threads = blahut._blas_threads()
    if not threads:
        pytest.skip("numpy and scipy bundle no OpenBLAS here")
    saddle_point, inside = blahut._saddle_point, []

    def recorded(*args):
        inside.append([get() for get, _ in threads])
        return saddle_point(*args)

    monkeypatch.setattr(blahut, "_saddle_point", recorded)
    before = [get() for get, _ in threads]
    try:
        for _, put in threads:
            put(2)
        mu, dist = uniform_mse(21)
        solve_point_for_distortion(mu, dist, 0.4 * d_max(mu, dist)[0])
        assert inside and all(counts == [1] * len(threads) for counts in inside)
        assert [get() for get, _ in threads] == [2] * len(threads)
    finally:
        for (_, put), count in zip(threads, before):
            put(count)


def test_a_tight_solve_without_a_bundled_openblas_runs_as_it_is(monkeypatch):
    mu, dist = uniform_mse(21)
    pinned = ba_fixed_point(mu, dist, 6.0, tol=1e-9)
    monkeypatch.setattr(blahut, "_blas_threads", lambda: ())
    bare = ba_fixed_point(mu, dist, 6.0, tol=1e-9)
    assert bare.iterations == pinned.iterations and bare.rate == pinned.rate
    assert np.array_equal(bare.nu_star.weights, pinned.nu_star.weights)
