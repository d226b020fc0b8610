"""Tests for the two-marginal scaling solver and its dual evaluators."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import rdbridge.schrodinger as schrodinger
from rdbridge import discretize_gaussian
from rdbridge.blahut import KERNEL_FLOOR, _log_kernel, _log_weights, _Tilt, ba_fixed_point
from rdbridge.distortion import DistortionMatrix, expected_loss, hamming, squared_error
from rdbridge.errors import (
    ConvergenceError,
    InvalidInputError,
    StaleCertificateError,
)
from rdbridge.measures import (
    Coupling,
    ProbabilityVector,
    mutual_information,
)
from rdbridge.schrodinger import (
    DEFAULT_MAX_ITER,
    OMEGA_MAX,
    RELAX_CALM,
    RELAX_LAMBDA_MAX,
    RELAX_SAFE_LOG,
    RELAX_SETTLE,
    ScalingPair,
    _absorbed_kernel,
    _keeps_dual,
    eval_J,
    eval_L,
    schrodinger_residual,
    sinkhorn,
)


def brute_projection_gap(mu, nu, dist, beta, coupling, points=10001):
    """Grid-minimize KL(pi || normalized Gibbs reference) over couplings.

    For 2x2 marginals the coupling is a one-parameter family in
    x = pi_00; returns (grid minimum, KL of the supplied coupling).
    """
    m0, n0 = mu.weights[0], nu.weights[0]
    lo, hi = max(0.0, m0 + n0 - 1.0), min(m0, n0)
    gamma = np.outer(mu.weights, nu.weights) * np.exp(-beta * dist.rho)
    gamma /= gamma.sum()

    def kl(joint):
        mask = joint > 0
        return float(np.sum(joint[mask] * np.log(joint[mask] / gamma[mask])))

    best = math.inf
    for x in np.linspace(lo, hi, points):
        joint = np.array([[x, m0 - x], [n0 - x, 1.0 - m0 - n0 + x]])
        if np.any(joint < 0):
            continue
        best = min(best, kl(joint))
    return best, kl(coupling.joint)


def relaxed_potential(mass, plain, current, omega):
    """current + omega (plain - current), or plain if that lowers the Sinkhorn dual."""
    if omega == 1.0:
        return plain
    step = plain - current
    with np.errstate(over="ignore", invalid="ignore"):
        gain = mass @ (omega * step - np.expm1((omega - 1.0) * step) + np.expm1(-step))
    return current + omega * step if 0.0 <= gain < math.inf else plain


def log_domain_sinkhorn(mu, nu, dist, beta, tol, max_iter, relaxed=True):
    """Reference Sinkhorn: two logsumexp updates and an explicit coupling per step.

    The same updates, over-relaxation schedule, stop rule and gauge as
    ``sinkhorn``, written in the log domain throughout; ``relaxed=False``
    gives the plain loop.  Returns (logF, logG, logK, iterations,
    residual); raises InvalidInputError where ``sinkhorn`` does.
    """
    log_phi = _log_kernel(dist.rho, beta)
    log_mu = _log_weights(mu.weights)
    log_nu = _log_weights(nu.weights)
    rows, cols = mu.support, nu.support
    with np.errstate(divide="ignore"):
        row_reach = logsumexp(log_phi + log_nu[None, :], axis=1)
        col_reach = logsumexp(log_phi + log_mu[:, None], axis=0)
    if np.any(np.isneginf(row_reach[rows])) or np.any(np.isneginf(col_reach[cols])):
        raise InvalidInputError("reference is infeasible")
    logK = float(-logsumexp(log_phi + log_mu[:, None] + log_nu[None, :]))
    logF = np.zeros(len(mu))
    logG = np.zeros(len(nu))
    residual = math.inf
    omega, calm = 1.0, 0
    last_res, last_ratio = math.inf, math.nan
    for iterations in range(1, max_iter + 1):
        plain_f = -logK - logsumexp(log_phi[rows] + (log_nu + logG)[None, :], axis=1)
        logF[rows] = relaxed_potential(mu.weights[rows], plain_f, logF[rows], omega)
        plain_g = -logK - logsumexp(log_phi[:, cols] + (log_mu + logF)[:, None], axis=0)
        logG[cols] = relaxed_potential(nu.weights[cols], plain_g, logG[cols], omega)
        with np.errstate(invalid="ignore"):
            pi = np.exp(logK + (logF + log_mu)[:, None] + (logG + log_nu)[None, :] + log_phi)
        pi[np.isnan(pi)] = 0.0
        residual = max(
            np.abs(pi.sum(axis=1) - mu.weights).max(),
            np.abs(pi.sum(axis=0) - nu.weights).max(),
        )
        if residual <= tol:
            break
        if not relaxed:
            continue
        # Relax once RELAX_CALM successive residual ratios have settled
        # below RELAX_LAMBDA_MAX, and from then on to the end.
        if calm < RELAX_CALM:
            ratio = residual / last_res
            settled = abs(ratio - last_ratio) < RELAX_SETTLE * (1.0 - ratio)
            calm = calm + 1 if settled and ratio <= RELAX_LAMBDA_MAX else 0
            if calm == RELAX_CALM:
                omega = 2.0 / (1.0 + math.sqrt(1.0 - ratio))
            last_res, last_ratio = residual, ratio
    shift = float(nu.weights[cols] @ logG[cols])
    logG[cols] -= shift
    logF[rows] += shift
    if residual > tol:
        pi /= pi.sum()  # the unconverged partial is scaled to mass 1
    Coupling(pi)
    return logF, logG, logK, iterations, residual


def log_domain_evaluators(mu, nu, dist, beta, D, scal):
    """Reference J, L and Schrodinger residuals from the potentials alone.

    Each row sum is a fresh n x n logsumexp, and the residuals come from
    the coupling rebuilt out of (logF, logG, logK).  Returns (J, L,
    (row_res, col_res, eq8_res)).
    """
    log_phi = _log_kernel(dist.rho, beta)
    log_mu = _log_weights(mu.weights)
    log_nu = _log_weights(nu.weights)
    rows, cols = mu.support, nu.support
    with np.errstate(divide="ignore"):
        den = logsumexp(log_phi[rows] + (log_nu + scal.logG)[None, :], axis=1)
        plain = logsumexp(log_phi[rows] + log_nu[None, :], axis=1)
    g_mass = nu.weights[cols] @ scal.logG[cols]
    j = -(mu.weights[rows] @ den) + g_mass - beta * D
    l = mu.weights[rows] @ (plain - den) + g_mass
    with np.errstate(invalid="ignore"):
        pi = np.exp(
            scal.logK + (scal.logF + log_mu)[:, None] + (scal.logG + log_nu)[None, :] + log_phi
        )
    pi[np.isnan(pi)] = 0.0
    row_res = np.abs(pi.sum(axis=1) - mu.weights).max()
    col_res = np.abs(pi.sum(axis=0) - nu.weights).max()
    with np.errstate(divide="ignore"):
        log_t = scal.logG[cols] + logsumexp(
            (log_mu[rows] - den)[:, None] + log_phi[np.ix_(rows, cols)], axis=0
        )
    eq8_res = np.abs(np.exp(log_t) - 1.0).max()
    return j, l, (row_res, col_res, eq8_res)


# --- closed forms and convergence ------------------------------------------


def test_symmetric_two_point_closed_form():
    half = ProbabilityVector([0.5, 0.5])
    pair, coupling = sinkhorn(half, half, hamming(2), 1.0, tol=1e-13)
    assert pair.converged
    p00 = 1.0 / (2.0 * (1.0 + math.exp(-1.0)))
    assert coupling.joint[0, 0] == pytest.approx(0.36552928931500245, abs=1e-12)
    assert coupling.joint[0, 0] == pytest.approx(p00, abs=1e-12)
    assert pair.logK == pytest.approx(-math.log((1.0 + math.exp(-1.0)) / 2.0), abs=1e-12)
    # Full symmetry leaves both potentials at the gauge origin.
    assert np.allclose(pair.logF, 0.0, atol=1e-12)
    assert np.allclose(pair.logG, 0.0, atol=1e-12)


def test_asymmetric_marginals_and_residuals():
    mu = ProbabilityVector([0.7, 0.3])
    nu = ProbabilityVector([0.6, 0.4])
    pair, coupling = sinkhorn(mu, nu, hamming(2), 1.3, tol=1e-13)
    assert pair.converged
    assert np.abs(coupling.joint.sum(axis=1) - mu.weights).max() <= 1e-12
    assert np.abs(coupling.joint.sum(axis=0) - nu.weights).max() <= 1e-12
    row_res, col_res, eq8_res = schrodinger_residual(mu, nu, hamming(2), pair)
    assert row_res <= 1e-10
    assert col_res <= 1e-10
    assert eq8_res <= 1e-10


def test_solution_attains_the_kl_projection():
    mu = ProbabilityVector([0.7, 0.3])
    nu = ProbabilityVector([0.6, 0.4])
    dist = hamming(2)
    _, coupling = sinkhorn(mu, nu, dist, 1.3, tol=1e-13)
    grid_min, kl_sink = brute_projection_gap(mu, nu, dist, 1.3, coupling)
    assert grid_min >= kl_sink - 1e-6


def test_beta_zero_decouples():
    mu = ProbabilityVector([0.7, 0.3])
    nu = ProbabilityVector([0.6, 0.4])
    pair, coupling = sinkhorn(mu, nu, hamming(2), 0.0, tol=1e-13)
    assert abs(pair.logK) <= 1e-15
    assert np.allclose(pair.logF, 0.0, atol=1e-14)
    assert np.allclose(pair.logG, 0.0, atol=1e-14)
    outer = np.outer(mu.weights, nu.weights)
    assert np.allclose(coupling.joint, outer, atol=1e-15)
    d = expected_loss(coupling.joint, hamming(2))
    assert abs(eval_J(mu, nu, hamming(2), 0.0, d, pair)) <= 1e-12
    assert abs(eval_L(mu, nu, hamming(2), 0.0, pair)) <= 1e-12


def test_gauge_normalization_of_potentials():
    mu = ProbabilityVector([0.7, 0.3])
    nu = ProbabilityVector([0.2, 0.8])
    pair, _ = sinkhorn(mu, nu, hamming(2), 2.0, tol=1e-13)
    assert abs(nu.weights @ pair.logG) <= 1e-14


def test_zero_mass_atoms_keep_zero_potentials():
    mu = ProbabilityVector([0.5, 0.5])
    nu = ProbabilityVector([0.5, 0.5, 0.0])
    rho = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 0.5]])
    pair, coupling = sinkhorn(mu, nu, DistortionMatrix(rho), 1.0, tol=1e-13)
    assert pair.logG[2] == 0.0
    assert np.all(coupling.joint[:, 2] == 0.0)


# Small problems with the hard cases: zero-mass atoms on both sides,
# forbidden (+inf) pairs that can make the reference infeasible, and
# slopes whose kernels underflow far past the smallest double.
@st.composite
def scaling_problems(draw, betas=st.floats(0.0, 1e3)):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    mass = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
    weights = []
    for size in (n, m):
        w = np.array(draw(st.lists(mass, min_size=size, max_size=size)))
        if w.sum() == 0:
            w[draw(st.integers(0, size - 1))] = 1.0
        weights.append(ProbabilityVector(w / w.sum()))
    loss = st.one_of(st.just(math.inf), st.floats(0.0, 4.0))
    rho = np.array(draw(st.lists(st.lists(loss, min_size=m, max_size=m), min_size=n, max_size=n)))
    rho[np.arange(n), draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))] = 0.0
    return weights[0], weights[1], DistortionMatrix(rho), draw(betas)


@settings(max_examples=200, deadline=None)
@given(scaling_problems())
def test_scaling_iteration_matches_the_log_domain_reference(problem):
    mu, nu, dist, beta = problem
    tol, max_iter = 1e-10, 300
    try:
        ref_logF, ref_logG, _, ref_iterations, ref_residual = log_domain_sinkhorn(
            mu, nu, dist, beta, tol, max_iter
        )
    except InvalidInputError:
        with pytest.raises(InvalidInputError):
            sinkhorn(mu, nu, dist, beta, tol=tol, max_iter=max_iter)
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            pair, _ = sinkhorn(mu, nu, dist, beta, tol=tol, max_iter=max_iter)
        except ConvergenceError as err:
            pair, _ = err.partial
    assert pair.converged == (ref_residual <= tol)
    assert abs(pair.iterations - ref_iterations) <= 1
    if pair.converged:
        assert pair.marginal_residual <= tol
        assert np.abs(pair.logF - ref_logF).max() <= 1e-9
        assert np.abs(pair.logG - ref_logG).max() <= 1e-9


STEPPED = DistortionMatrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]))


@pytest.mark.parametrize(
    "mu, nu, dist, beta",
    [
        # nu_0 and mu_1 are subnormal.  mu and nu enter as vectors, so
        # row 1 and column 0 of the kernel are normal and every half-step
        # is scaled.
        (ProbabilityVector([1.0, 1e-310]), ProbabilityVector([1e-310, 1.0]), hamming(2), 1.0),
        # mu_2 is subnormal.  mu enters as a vector, not as a kernel row,
        # so row 2 of the kernel is normal and every half-step is scaled.
        (ProbabilityVector([0.5, 0.5, 1e-320]), ProbabilityVector([0.3, 0.3, 0.4]), STEPPED, 1.0),
        # Entry (1, 1) starts near 1e-311 and is flushed, though it is
        # only e^-23 below entry (0, 1).  The first G-update scales column
        # 1 up by about e^690, so unless the kernel is rebuilt with that
        # scaling absorbed, row 1 never reaches column 1.
        (
            ProbabilityVector([0.5, 0.5]),
            ProbabilityVector([0.9, 0.1]),
            DistortionMatrix(np.array([[0.0, 0.69], [0.0, 0.713]])),
            1000.0,
        ),
        # Column 1 of the coupling mu_i nu_j holds 5e-308 and 2.1e-308,
        # both below KERNEL_FLOOR.  nu enters as a vector, not as a kernel
        # column, so no half-step and no eq. 8 sum is taken in the log
        # domain.
        (
            ProbabilityVector([0.7, 0.3]),
            ProbabilityVector([1.0 - 5e-308 / 0.7, 5e-308 / 0.7]),
            DistortionMatrix(np.zeros((2, 2))),
            1.0,
        ),
        # Column 1 of the coupling holds 3e-154 and 1.3e-154, the second
        # below KERNEL_FLOOR.  nu enters as a vector, not as a kernel
        # column, so the column is normal and every half-step is scaled.
        (
            ProbabilityVector([0.7, 0.3]),
            ProbabilityVector([1.0 - 3e-154 / 0.7, 3e-154 / 0.7]),
            DistortionMatrix(np.zeros((2, 2))),
            1.0,
        ),
        # Column 1 of the nu-free kernel is e^-400 and e^-399 before the
        # row scaling, below KERNEL_FLOOR and flushed, so the first
        # G-update is taken in the log domain.
        (
            ProbabilityVector([0.6, 0.4]),
            ProbabilityVector([0.7, 0.3]),
            DistortionMatrix(np.array([[0.0, 400.0], [1.0, 400.0]])),
            1.0,
        ),
        # nu_1 is 2.2e-296, and rows 0 and 2 reach column 0 only at
        # e^-1200.  The first G-update scales column 1 by about 1e-295,
        # so nu_1 v_1 underflows, those rows' products are zero and the
        # first F-update is taken in the log domain.
        (
            ProbabilityVector(
                [0.2904713938826075, 0.6113109592665209, 0.02626401089713801, 0.07195363595373352]
            ),
            ProbabilityVector([1.0, 2.2000125667718897e-296]),
            DistortionMatrix(np.array([[400.0, 50.0], [5.0, 0.0], [400.0, 1.0], [0.0, 5.0]])),
            3.0,
        ),
    ],
    ids=[
        "subnormal-column", "flushed-row", "absorbed-entry", "short-column",
        "partly-flushed-column", "far-column", "tiny-column",
    ],
)
def test_extreme_kernels_match_the_log_domain_reference(mu, nu, dist, beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pair, coupling = sinkhorn(mu, nu, dist, beta, tol=1e-12)
    ref_logF, ref_logG, _, ref_iterations, _ = log_domain_sinkhorn(
        mu, nu, dist, beta, 1e-12, DEFAULT_MAX_ITER
    )
    assert pair.converged
    assert pair.iterations == ref_iterations
    assert np.abs(pair.logF - ref_logF).max() <= 1e-12
    assert np.abs(pair.logG - ref_logG).max() <= 1e-12
    d = expected_loss(coupling.joint, dist)
    ref_j, ref_l, ref_residuals = log_domain_evaluators(mu, nu, dist, beta, d, pair)
    assert eval_J(mu, nu, dist, beta, d, pair) == pytest.approx(ref_j, rel=1e-12, abs=1e-12)
    assert eval_L(mu, nu, dist, beta, pair) == pytest.approx(ref_l, rel=1e-12, abs=1e-12)
    assert np.allclose(schrodinger_residual(mu, nu, dist, pair), ref_residuals, rtol=0, atol=1e-12)
    # The tiny-column iterate after one iteration ends on a log-domain
    # F-update, so its g-weighted row sums and eq. 8 sums come from that
    # half-step.
    try:
        partial, coupling = sinkhorn(mu, nu, dist, beta, tol=1e-12, max_iter=1)
    except ConvergenceError as err:
        partial, coupling = err.partial
    d = expected_loss(coupling.joint, dist)
    *_, ref_residuals = log_domain_evaluators(mu, nu, dist, beta, d, partial)
    assert np.allclose(
        schrodinger_residual(mu, nu, dist, partial), ref_residuals, rtol=1e-12, atol=1e-12
    )


def gaussian_problem():
    spec = discretize_gaussian(1.0, 6.0, 257)
    return spec.weights, squared_error(spec.grid, spec.grid), spec.grid


def test_underflowing_kernel_rows_converge_without_warnings():
    # At beta = 50 every kernel entry of a source atom far from both
    # reconstruction atoms is below the smallest double, so a first
    # F-update in the scaling domain would divide by zero.
    mu, dist, _ = gaussian_problem()
    weights = np.zeros(257)
    weights[[100, 160]] = 0.5
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pair, _ = sinkhorn(mu, ProbabilityVector(weights), dist, 50.0, tol=1e-12)
    assert pair.converged
    assert pair.marginal_residual <= 1e-12
    # The iteration count of the log-domain reference loop on this law;
    # the plain loop takes 1,453.
    assert pair.iterations == 172


@pytest.mark.parametrize("beta", [5.85, 10.0, 21.6, 50.0])
def test_no_kernel_entry_lies_between_zero_and_the_floor(beta):
    # Any two kept entries multiply to a normal number, so no matrix
    # product with the kernel meets a subnormal product of two entries.
    # At these slopes the Gaussian's kernel has entries just above the
    # smallest normal number before the flush.  Checked: the solver's
    # kernel; the kernel Sinkhorn iterates on, read off the tilt of the
    # Blahut-Arimoto answer after the solve (the answer holds every atom,
    # so Sinkhorn takes over the tilt's own kernel, K / Z); and the kernel
    # with the answer's scalings absorbed.
    mu, dist, _ = gaussian_problem()
    nu = ba_fixed_point(mu, dist, beta, tol=5e-4, max_iter=300000).nu_star
    assert len(nu.support) == len(nu)
    tilt = _Tilt(mu, dist, beta, nu)
    pair, _ = schrodinger._sinkhorn(tilt, mu, nu, 1e-12, DEFAULT_MAX_ITER)
    assert pair.converged
    absorbed = np.empty(dist.shape)
    a = pair.logK + pair.logF
    _absorbed_kernel(absorbed, -beta * dist.rho, a, pair.logG)
    for kernel in (_Tilt(mu, dist, beta).ker, tilt.ker, absorbed):
        low = kernel[kernel > 0.0].min()
        assert low >= KERNEL_FLOOR
        assert low * low >= np.finfo(float).tiny


def test_near_optimal_law_takes_the_log_domain_iteration_count():
    # A machine-independent budget: a candidate law like those the
    # optimality check sees, solved as tightly as the check solves it.
    mu, dist, grid = gaussian_problem()
    beta = 4.0
    law = np.exp(-(grid**2) / (2.0 * (1.0 - 1.0 / (2.0 * beta))))
    nu = ProbabilityVector(0.99 * law / law.sum() + 0.01 / len(grid))
    pair, _ = sinkhorn(mu, nu, dist, beta, tol=1e-12)
    ref_logF, ref_logG, ref_logK, ref_iterations, _ = log_domain_sinkhorn(
        mu, nu, dist, beta, 1e-12, DEFAULT_MAX_ITER
    )
    assert pair.converged
    assert pair.iterations == ref_iterations
    assert abs(pair.logK - ref_logK) <= 1e-12
    assert np.abs(pair.logF - ref_logF).max() <= 1e-12
    assert np.abs(pair.logG - ref_logG).max() <= 1e-12


def assert_no_log_domain_step(mu, nu, dist, beta, monkeypatch):
    """A solve at tol 1e-12 passes every ``_normal`` test and matches the log-domain reference."""
    normal, calls = schrodinger._normal, []

    def recorded(x):
        calls.append(normal(x))
        return calls[-1]

    monkeypatch.setattr(schrodinger, "_normal", recorded)
    pair, _ = sinkhorn(mu, nu, dist, beta, tol=1e-12)
    ref_logF, ref_logG, _, ref_iterations, _ = log_domain_sinkhorn(
        mu, nu, dist, beta, 1e-12, DEFAULT_MAX_ITER
    )
    assert pair.converged
    assert calls and all(calls)
    assert pair.iterations == ref_iterations
    assert np.abs(pair.logF - ref_logF).max() <= 1e-12
    assert np.abs(pair.logG - ref_logG).max() <= 1e-12


def optimal_gaussian_law(grid, beta):
    """The unit Gaussian's optimal reconstruction law at slope beta, on ``grid``."""
    law = np.exp(-(grid**2) / (2.0 * (1.0 - 1.0 / (2.0 * beta))))
    return law / law.sum()


def test_a_tiny_atom_takes_no_log_domain_step(monkeypatch):
    # An atom of mass 1e-200 lies far below ROW_SUM_FLOOR.  nu enters as a
    # vector, not as a kernel column, so every kernel product stays in the
    # normal range and no half-step is taken in the log domain.
    mu, dist, grid = gaussian_problem()
    law = optimal_gaussian_law(grid, 4.0)
    law[100] = 1e-200
    assert_no_log_domain_step(mu, ProbabilityVector(law / law.sum()), dist, 4.0, monkeypatch)


def test_a_tiny_source_atom_takes_no_log_domain_step(monkeypatch):
    # The same for a source atom: mu enters as a vector, not as a kernel
    # row, so the atom's row of the kernel is normal.
    mu, dist, grid = gaussian_problem()
    weights = mu.weights.copy()
    weights[100] = 1e-200
    nu = ProbabilityVector(optimal_gaussian_law(grid, 4.0))
    assert_no_log_domain_step(ProbabilityVector(weights / weights.sum()), nu, dist, 4.0, monkeypatch)


def test_relaxed_half_steps_that_lower_the_dual_fall_back_to_plain():
    # Noise of weight 0.06 at beta = 5.7: the first relaxed half-steps
    # would lower the Sinkhorn dual (6 of them here) and are taken plain,
    # as in the reference; taken relaxed, the solve ends after 58
    # iterations instead of 63.
    mu, dist, grid = gaussian_problem()
    beta = 5.7
    law = np.exp(-(grid**2) / (2.0 * (1.0 - 1.0 / (2.0 * beta))))
    noise = np.random.default_rng(0).dirichlet(np.ones(len(grid)))
    nu = ProbabilityVector(0.94 * law / law.sum() + 0.06 * noise)
    pair, _ = sinkhorn(mu, nu, dist, beta, tol=1e-12)
    ref_logF, ref_logG, _, ref_iterations, _ = log_domain_sinkhorn(
        mu, nu, dist, beta, 1e-12, DEFAULT_MAX_ITER
    )
    assert pair.converged
    assert pair.iterations == ref_iterations
    assert np.abs(pair.logF - ref_logF).max() <= 1e-12
    assert np.abs(pair.logG - ref_logG).max() <= 1e-12


def test_relaxation_cuts_the_near_optimal_iterations():
    # A machine-independent budget: over-relaxation takes the near-optimal
    # law of the optimality check in at most 45% of the plain iterations,
    # and so the law on atoms 100 and 160 at beta = 50, whose first settled
    # residual ratios fall in the transient.
    mu, dist, grid = gaussian_problem()
    beta = 4.0
    law = np.exp(-(grid**2) / (2.0 * (1.0 - 1.0 / (2.0 * beta))))
    two_atoms = np.zeros(257)
    two_atoms[[100, 160]] = 0.5
    for nu, beta in [
        (ProbabilityVector(0.99 * law / law.sum() + 0.01 / len(grid)), beta),
        (ProbabilityVector(two_atoms), 50.0),
    ]:
        pair, _ = sinkhorn(mu, nu, dist, beta, tol=1e-12)
        *_, plain_iterations, _ = log_domain_sinkhorn(
            mu, nu, dist, beta, 1e-12, DEFAULT_MAX_ITER, relaxed=False
        )
        assert pair.iterations <= 0.45 * plain_iterations, beta


def ceiling_instance():
    """A problem whose plain residual stalls near 0.056 for about 170
    iterations, at ratios that settle above RELAX_LAMBDA_MAX.  Relaxed
    there, the loop misses the 300-iteration budget that the plain loop
    meets in 287.
    """
    mu = ProbabilityVector([0.6824051321409179, 0.1170486224809258, 0.20054624537815627])
    nu = ProbabilityVector([0.17285977157433619, 0.8271402284256638])
    rho = np.array(
        [[2.3929968172724503, 0.0], [0.0, 2.286732891743314], [1.4250621104623122, 0.0]]
    )
    return mu, nu, DistortionMatrix(rho), 71.99792158016326


@settings(max_examples=300, deadline=None)
@given(scaling_problems())
@example(ceiling_instance())
def test_relaxation_converges_wherever_the_plain_loop_does(problem):
    mu, nu, dist, beta = problem
    tol, max_iter = 1e-10, 300
    try:
        *_, plain_residual = log_domain_sinkhorn(mu, nu, dist, beta, tol, max_iter, relaxed=False)
    except InvalidInputError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            pair, _ = sinkhorn(mu, nu, dist, beta, tol=tol, max_iter=max_iter)
        except ConvergenceError as err:
            pair, _ = err.partial
    if plain_residual <= tol:
        assert pair.converged
    if pair.converged:
        assert pair.marginal_residual <= tol


@pytest.mark.parametrize("omega", [1.0 + 1e-9, 1.5, OMEGA_MAX])
def test_relaxed_steps_within_the_safe_ratios_keep_the_dual(omega):
    # _relaxed_scaling takes a relaxed step without forming the dual change
    # when every log-ratio lies in [-RELAX_SAFE_LOG, RELAX_SAFE_LOG], so
    # each term of that change must be nonnegative there.
    log_r = np.concatenate([np.linspace(-RELAX_SAFE_LOG, RELAX_SAFE_LOG, 4001), [-1e-9, 1e-9]])
    for value in log_r:
        assert _keeps_dual(np.ones(1), np.array([value]), omega), value


# --- dual evaluators --------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(scaling_problems(betas=st.floats(-3.0, 3.0).map(lambda e: 10.0**e)))
def test_evaluators_read_the_log_domain_values_off_the_pair(problem):
    mu, nu, dist, beta = problem
    try:
        pair, coupling = sinkhorn(mu, nu, dist, beta, tol=1e-10, max_iter=300)
    except InvalidInputError:
        return  # an infeasible reference has no pair
    except ConvergenceError as err:
        pair, coupling = err.partial
    d = expected_loss(coupling.joint, dist)
    ref_j, ref_l, ref_residuals = log_domain_evaluators(mu, nu, dist, beta, d, pair)
    # Residuals of unconverged pairs and J at large beta exceed 1, so the
    # agreement is relative past that size.
    for ours, ref in zip(schrodinger_residual(mu, nu, dist, pair), ref_residuals):
        assert ours == pytest.approx(ref, rel=1e-12, abs=1e-12)
    if pair.converged:
        assert eval_J(mu, nu, dist, beta, d, pair) == pytest.approx(ref_j, rel=1e-12, abs=1e-12)
        assert eval_L(mu, nu, dist, beta, pair) == pytest.approx(ref_l, rel=1e-12, abs=1e-12)
    with pytest.raises(InvalidInputError):
        eval_J(mu, nu, dist, 2.0 * beta, d, pair)
    with pytest.raises(InvalidInputError):
        eval_L(mu, nu, dist, 2.0 * beta, pair)


def test_defect_is_nonnegative_and_zero_at_the_optimum():
    dist = hamming(2)
    rng = np.random.default_rng(23)
    for _ in range(6):
        w = rng.uniform(0.1, 1.0, 2)
        v = rng.uniform(0.1, 1.0, 2)
        beta = float(rng.uniform(0.2, 3.0))
        mu = ProbabilityVector(w / w.sum())
        nu = ProbabilityVector(v / v.sum())
        pair, _ = sinkhorn(mu, nu, dist, beta, tol=1e-13, max_iter=5000)
        assert eval_L(mu, nu, dist, beta, pair) >= -1e-9

    mu = ProbabilityVector([0.7, 0.3])
    star = ba_fixed_point(mu, dist, 2.0, tol=1e-13, max_iter=20000)
    pair, _ = sinkhorn(mu, star.nu_star, dist, 2.0, tol=1e-13, max_iter=5000)
    assert abs(eval_L(mu, star.nu_star, dist, 2.0, pair)) <= 1e-9


def test_defect_matches_brute_force_decomposition():
    # L(nu) = min over couplings of (mu, nu) of [KL(pi || mu x nu)
    #         + beta E_pi rho] + sum_i mu_i ln Z_i, minimized here on a
    #         fine grid of the one-parameter 2x2 family.
    mu = ProbabilityVector([0.7, 0.3])
    nu = ProbabilityVector([0.5, 0.5])
    dist = hamming(2)
    beta = 2.0
    pair, _ = sinkhorn(mu, nu, dist, beta, tol=1e-13)
    value = eval_L(mu, nu, dist, beta, pair)

    phi = np.exp(-beta * dist.rho)
    log_z = np.log(phi @ nu.weights)
    outer = np.outer(mu.weights, nu.weights)
    lo = max(0.0, mu.weights[0] + nu.weights[0] - 1.0)
    hi = min(mu.weights[0], nu.weights[0])
    best = math.inf
    for x in np.linspace(lo, hi, 200001):
        joint = np.array(
            [
                [x, mu.weights[0] - x],
                [nu.weights[0] - x, 1.0 - mu.weights[0] - nu.weights[0] + x],
            ]
        )
        if np.any(joint < 0):
            continue
        mask = joint > 0
        kl = float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))
        cost = kl + beta * float(np.sum(joint * dist.rho))
        best = min(best, cost)
    brute = best + float(mu.weights @ log_z)
    assert value == pytest.approx(brute, abs=1e-9)
    assert 0.09 < value < 0.10


@st.composite
def couplable_problems(draw):
    """(mu, nu, rho, beta): m, n in [2, 6], losses in {0, 0.3, 1, 2.5, 5, +inf}.

    Every row has a zero loss.  nu is mu times a row-stochastic matrix that
    is positive on every finite loss, so (mu, nu) is coupled on the finite
    losses by a coupling that uses all of them; a column no row reaches
    gets zero mass.  beta is log-uniform in [0.05, 20].
    """
    m, n = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    loss = st.sampled_from([0.0, 0.3, 1.0, 2.5, 5.0, math.inf])
    rho = np.array(draw(st.lists(st.lists(loss, min_size=n, max_size=n), min_size=m, max_size=m)))
    rho[np.arange(m), draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))] = 0.0
    weight = st.floats(0.05, 1.0)
    mu = np.array(draw(st.lists(weight, min_size=m, max_size=m)))
    moves = np.array(draw(st.lists(st.lists(weight, min_size=n, max_size=n), min_size=m, max_size=m)))
    moves[np.isinf(rho)] = 0.0
    mu /= mu.sum()
    nu = mu @ (moves / moves.sum(axis=1, keepdims=True))
    beta = math.exp(draw(st.floats(math.log(0.05), math.log(20.0))))
    return ProbabilityVector(mu), ProbabilityVector(nu / nu.sum()), DistortionMatrix(rho), beta


@settings(max_examples=150, deadline=None)
@given(couplable_problems())
def test_the_defect_is_the_divergence_of_sinkhorns_coupling_from_the_tilted_one(problem):
    # Sinkhorn's coupling pi_S is the I-projection of the tilted coupling
    # pi_t = mu_i nu_j e^{-beta rho_ij} / Z_i onto the couplings of
    # (mu, nu), so L = KL(pi_S || pi_t); by data processing
    # L >= KL(nu || nu o c) >= 0, where nu o c is pi_t's second marginal.
    # pi_t is built here from its formula, apart from the solver's tilt.
    mu, nu, dist, beta = problem
    pair, coupling = sinkhorn(mu, nu, dist, beta, tol=1e-13)
    tilted = nu.weights * np.exp(-beta * dist.rho)
    tilted *= (mu.weights / tilted.sum(axis=1))[:, None]
    pi = coupling.joint
    kept = pi > 0.0
    divergence = float(np.sum(pi[kept] * np.log(pi[kept] / tilted[kept])))
    defect = eval_L(mu, nu, dist, beta, pair)
    assert abs(defect - divergence) <= 1e-10
    live = nu.weights > 0.0
    marginal = tilted.sum(axis=0)[live]
    bound = float(nu.weights[live] @ np.log(nu.weights[live] / marginal))
    assert defect >= bound - 1e-10 and bound >= -1e-10


def test_dual_objective_equals_coupling_information():
    dist = hamming(2)
    cases = [
        (ProbabilityVector([0.5, 0.5]), ProbabilityVector([0.5, 0.5]), 1.0),
        (ProbabilityVector([0.7, 0.3]), ProbabilityVector([0.6, 0.4]), 1.3),
    ]
    for mu, nu, beta in cases:
        pair, coupling = sinkhorn(mu, nu, dist, beta, tol=1e-13)
        d = expected_loss(coupling.joint, dist)
        j = eval_J(mu, nu, dist, beta, d, pair)
        assert abs(j - mutual_information(coupling)) <= 1e-9


# --- failure modes ----------------------------------------------------------


def test_unconverged_pair_is_rejected_by_evaluators():
    mu = ProbabilityVector([0.7, 0.3])
    nu = ProbabilityVector([0.2, 0.8])
    with pytest.raises(ConvergenceError) as excinfo:
        sinkhorn(mu, nu, hamming(2), 1.5, tol=1e-12, max_iter=1)
    pair, coupling = excinfo.value.partial
    assert not pair.converged
    assert pair.marginal_residual > 1e-12
    with pytest.raises(StaleCertificateError):
        eval_L(mu, nu, hamming(2), 1.5, pair)
    with pytest.raises(StaleCertificateError):
        eval_J(mu, nu, hamming(2), 1.5, 0.1, pair)
    # The residual probe itself accepts partial pairs.
    row_res, col_res, _ = schrodinger_residual(mu, nu, hamming(2), pair)
    assert max(row_res, col_res) == pytest.approx(pair.marginal_residual, rel=1e-12)


def test_pair_of_another_shape_is_rejected():
    mu = ProbabilityVector([0.7, 0.3])
    pair, _ = sinkhorn(mu, ProbabilityVector([0.6, 0.4]), hamming(2), 1.3, tol=1e-13)
    wide = ProbabilityVector([0.5, 0.3, 0.2])
    dist = DistortionMatrix(np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]]))
    with pytest.raises(InvalidInputError):
        eval_J(mu, wide, dist, 1.3, 0.1, pair)
    with pytest.raises(InvalidInputError):
        eval_L(mu, wide, dist, 1.3, pair)
    with pytest.raises(InvalidInputError):
        schrodinger_residual(mu, wide, dist, pair)


def test_unconverged_partial_coupling_has_unit_mass():
    # The last iterate of this infeasible problem has mass 1 - 1.3e-10;
    # the partial Coupling is scaled to mass 1 instead of raising.
    inf = float("inf")
    w = np.array([1.0, 1e-300, 1e-300])
    mu = ProbabilityVector(w / w.sum())
    nu = ProbabilityVector([0.2, 0.3, 0.5])
    dist = DistortionMatrix(np.array([[0.0, 3.757, inf], [0.0, inf, 2.565], [0.738, inf, 0.0]]))
    with pytest.raises(ConvergenceError) as excinfo:
        sinkhorn(mu, nu, dist, 3.356)
    pair, coupling = excinfo.value.partial
    assert not pair.converged
    assert coupling.joint.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(coupling.joint[np.isinf(dist.rho)] == 0.0)


def test_converged_coupling_has_unit_mass():
    # Marginal residuals within tol bound the mass only to a few times tol,
    # more than Coupling's 1e-12 allows, so the returned coupling is scaled
    # to mass 1.
    inf = float("inf")
    mu = ProbabilityVector([1.732996462486101e-256, 0.16660828225898683, 0.8333917177410132])
    nu = ProbabilityVector(
        [
            0.07441109593080476,
            0.19293850993297926,
            0.013055912515110466,
            0.597814588520614,
            0.12177989310049153,
        ]
    )
    rho = np.array([[400, 800, 1, 5, 0], [1, 0, 50, 800, 50], [inf, 0, 50, 800, 1]], dtype=float)
    pair, coupling = sinkhorn(mu, nu, DistortionMatrix(rho), 50.0, tol=1e-12)
    assert pair.converged
    assert coupling.joint.sum() == pytest.approx(1.0, abs=1e-15)


def test_infeasible_reference_is_rejected():
    inf = float("inf")
    mu = ProbabilityVector([0.5, 0.5])
    nu = ProbabilityVector([0.5, 0.5])
    with pytest.raises(InvalidInputError):
        sinkhorn(mu, nu, DistortionMatrix(np.array([[inf, inf], [0.0, 1.0]])), 1.0)
    with pytest.raises(InvalidInputError):
        sinkhorn(mu, nu, DistortionMatrix(np.array([[inf, 0.0], [inf, 1.0]])), 1.0)
    # Only the zero-mass source atom reaches reconstruction atom 1.
    mu_first = ProbabilityVector([1.0, 0.0])
    with pytest.raises(InvalidInputError, match="reconstruction atom 1 carries mass"):
        sinkhorn(mu_first, nu, DistortionMatrix(np.array([[0.0, inf], [inf, 0.0]])), 1.0)
    # Zero-mass atoms may sit on infinite loss without harm.
    nu_dead = ProbabilityVector([0.0, 1.0])
    pair, _ = sinkhorn(
        mu, nu_dead, DistortionMatrix(np.array([[inf, 0.0], [inf, 1.0]])), 1.0
    )
    assert pair.converged


def test_problem_validation():
    mu = ProbabilityVector([0.5, 0.5])
    nu = ProbabilityVector([0.5, 0.5])
    dist = hamming(2)
    with pytest.raises(InvalidInputError):
        sinkhorn(mu, nu, dist, -0.5)
    with pytest.raises(InvalidInputError):
        sinkhorn(ProbabilityVector([1.0]), nu, dist, 1.0)
    with pytest.raises(InvalidInputError):
        sinkhorn(mu, nu, dist, 1.0, tol=0.0)
    with pytest.raises(InvalidInputError):
        sinkhorn(mu, nu, dist, 1.0, max_iter=0)
