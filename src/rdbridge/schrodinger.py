"""Static Schrodinger problem at fixed marginals with a Gibbs reference.

For marginals (mu, nu) and reference gamma_ij = K mu_i nu_j exp(-beta
rho_ij) (K normalizes gamma to a probability measure), the minimizer of
D_KL(pi || gamma) over couplings of (mu, nu) has density f(x) g(y) with
respect to gamma.  The log-potentials solve the Schrodinger system and
are computed by Sinkhorn iteration in the scaling domain, on a cached
kernel into which large scalings are absorbed in the log domain
(Schmitzer, SIAM J. Sci. Comput. 2019).

The dual quantities J(nu, beta) and L(nu, beta) derived from the
potentials measure how far a candidate reconstruction law nu sits from
rate-distortion optimality at trade-off slope beta: L vanishes exactly
at the optimal nu*, where g is constant on the support.  They and the
residuals of the Schrodinger system are O(n) reads of the ScalingPair,
on which ``sinkhorn`` keeps the row log-sums and residuals that its own
kernel products give.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .blahut import _check_compat, _log_kernel, _log_weights, _logsumexp
from .distortion import DistortionMatrix
from .errors import ConvergenceError, InvalidInputError, StaleCertificateError
from .measures import Coupling, ProbabilityVector

logger = logging.getLogger(__name__)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 2000
# Scalings u, v are folded into the cached kernel once some |ln u_i| or
# |ln v_j| passes this, so the kernel stays near the current coupling.
ABSORB_LOG_SCALE = 30.0


@dataclass
class ScalingPair:
    """Log-potentials of the Schrodinger system for one (mu, nu, beta).

    The induced coupling is

        pi_ij = exp(logK + logF_i + logG_j - beta rho_ij) mu_i nu_j

    and the gauge sum_j nu_j logG_j = 0 pins the multiplicative constant
    shared between f and g.  Potentials are only determined where the
    marginals put mass; entries of logF/logG off-support are left at 0,
    as are those of log_z and log_zg off supp(mu).

    Attributes:
        log_z: ln sum_j e^{-beta rho_ij} nu_j, the row log-partition sums.
        log_zg: ln sum_j g_j e^{-beta rho_ij} nu_j, the same sums weighted
            by the final g, from the solve's last kernel product.
        residuals: (row, col, eq8) defects of the final iterate; see
            ``schrodinger_residual``.
        tol: the residual target this pair was solved to; downstream
            evaluators refuse pairs whose marginal residual exceeds 10x
            this.
    """

    logF: np.ndarray
    logG: np.ndarray
    logK: float
    beta: float
    log_z: np.ndarray
    log_zg: np.ndarray
    residuals: tuple[float, float, float]
    tol: float = DEFAULT_TOL
    iterations: int = 0
    converged: bool = True

    @property
    def marginal_residual(self) -> float:
        """Sup-norm deviation of the induced coupling's marginals from (mu, nu)."""
        return max(self.residuals[:2])


def _absorbed_kernel(log_phi_s: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """exp(a_i + log_phi_s_ij + b_j), subnormal entries flushed to zero.

    A subnormal entry moves a product by less than its rounding error
    unless a whole row or column is subnormal, and then the product falls
    below the smallest normal number and the caller takes a log-domain
    half-step instead.  Kept, such entries make the matrix-vector
    products slow.
    """
    kernel = np.exp(log_phi_s + a[:, None] + b[None, :])
    kernel[kernel < np.finfo(float).tiny] = 0.0
    return kernel


def _normal(x: np.ndarray) -> bool:
    """True when every entry of x is a finite, normal positive number.

    Subnormal values carry too few significant bits to divide by.
    """
    return bool(x.min() >= np.finfo(float).tiny and x.max() < np.inf)


def sinkhorn(
    mu: ProbabilityVector,
    nu: ProbabilityVector,
    dist: DistortionMatrix,
    beta: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    logg0: np.ndarray | None = None,
) -> tuple[ScalingPair, Coupling]:
    """Solve the two-marginal scaling problem by Sinkhorn iteration.

    Alternates

        logF_i <- -ln sum_j nu_j exp(logG_j - beta rho_ij) - logK
        logG_j <- -ln sum_i mu_i exp(logF_i - beta rho_ij) - logK

    until the coupling marginals match (mu, nu) to ``tol`` in sup norm.
    Each update is one matrix-vector product with a cached kernel
    (u <- mu / (M v), v <- nu / (M^T u)), and the same products give the
    marginal residuals.  Scalings are absorbed into the kernel before they
    grow large, and an update whose product leaves the normal floating
    point range is taken in the log domain instead.  Atoms with zero mass
    take no part in the updates.  The default initialization logG = 0 is
    deterministic; an alternative ``logg0`` converges to the same
    gauge-fixed potentials and exists mainly to make that uniqueness
    testable.  logF needs no start: iteration 1 computes it from logG.

    Returns:
        (ScalingPair, Coupling), gauge-fixed so sum_j nu_j logG_j = 0.

    Raises:
        InvalidInputError: a positive-mass atom of mu (or nu) is
            unreachable under the reference, making the problem
            infeasible.
        ConvergenceError: iteration budget exhausted; ``.partial`` holds
            the (ScalingPair, Coupling) of the final iterate.
    """
    _check_compat(mu, dist, beta, nu)
    if tol <= 0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter}")

    log_phi = _log_kernel(dist, beta)
    log_mu = _log_weights(mu.weights)
    log_nu = _log_weights(nu.weights)
    rows = mu.support
    cols = nu.support
    mu_w = mu.weights[rows]
    nu_w = nu.weights[cols]
    log_phi_s = log_phi[np.ix_(rows, cols)]
    log_mu_s = log_mu[rows]
    log_nu_s = log_nu[cols]

    row_reach = _logsumexp(log_phi_s + log_nu_s, axis=1)
    if np.any(np.isneginf(row_reach)):
        bad = int(rows[np.isneginf(row_reach)][0])
        raise InvalidInputError(
            f"source atom {bad} carries mass but every reconstruction in "
            "supp(nu) has infinite loss for it: reference is infeasible"
        )
    col_dead = np.all(np.isneginf(log_phi_s), axis=0)
    if np.any(col_dead):
        bad = int(cols[col_dead][0])
        raise InvalidInputError(
            f"reconstruction atom {bad} carries mass but no source in "
            "supp(mu) can reach it: reference is infeasible"
        )
    logK = float(-_logsumexp(log_mu_s + row_reach, axis=0))

    # Standard Sinkhorn scalings pi = diag(e^a u) e^{-beta rho} diag(e^b v),
    # with a = ln mu + logK + logF and b = ln nu + logG.  The log-scalings
    # (a, b) are absorbed into the cached kernel, which is the coupling at
    # u = v = 1; u and v are folded into them when they grow past
    # ABSORB_LOG_SCALE or a kernel product leaves the normal range.
    # Iteration 1's F-update is taken in the log domain, so every kernel
    # row starts with exactly its source mass.
    b = log_nu_s.copy() if logg0 is None else log_nu_s + np.asarray(logg0, dtype=float)[cols]
    a = log_mu_s - (row_reach if logg0 is None else _logsumexp(log_phi_s + b, axis=1))
    kernel = _absorbed_kernel(log_phi_s, a, b)
    u = np.ones(len(rows))
    v = np.ones(len(cols))

    for iterations in range(1, max_iter + 1):
        col_sum = kernel.T @ u
        if _normal(col_sum):
            np.divide(nu_w, col_sum, out=v)
            col_res = np.abs(v * col_sum - nu_w).max()
        else:
            # A log-domain G-update matches the columns by construction.
            a += np.log(u)
            u[:] = 1.0
            b = log_nu_s - _logsumexp(log_phi_s + a[:, None], axis=0)
            v[:] = 1.0
            kernel = _absorbed_kernel(log_phi_s, a, b)
            col_res = 0.0

        # The row marginals u * (kernel v) come from the product the next
        # F-update needs anyway.
        row_sum = kernel @ v
        scaled = _normal(row_sum)
        if scaled:
            row_res = np.abs(u * row_sum - mu_w).max()
        else:
            b += np.log(v)
            v[:] = 1.0
            a_next = log_mu_s - _logsumexp(log_phi_s + b, axis=1)
            row_res = np.abs(np.exp(log_mu_s + a + np.log(u) - a_next) - mu_w).max()
        residual = float(max(row_res, col_res))
        if residual <= tol or iterations == max_iter:
            break

        if scaled:
            np.divide(mu_w, row_sum, out=u)
        else:
            a = a_next
            u[:] = 1.0
            kernel = _absorbed_kernel(log_phi_s, a, b)
        if max(np.abs(np.log(u)).max(), np.abs(np.log(v)).max()) > ABSORB_LOG_SCALE:
            a += np.log(u)
            b += np.log(v)
            u[:] = 1.0
            v[:] = 1.0
            kernel = _absorbed_kernel(log_phi_s, a, b)

    # ln sum_j g_j e^{-beta rho_ij} nu_j before the gauge shift, and the
    # column sums over nu of the coupling one F-update on: these are the
    # sums of eq. 8, which are 1 at a solution.
    logF, log_z, log_zg = np.zeros((3, len(mu)))
    log_z[rows] = row_reach
    if scaled:
        log_zg[rows] = np.log(row_sum) - a
        eq8 = v * (kernel.T @ (mu_w / row_sum)) / nu_w
    else:
        log_zg[rows] = log_mu_s - a_next
        eq8 = np.exp(b - log_nu_s + _logsumexp(log_phi_s + a_next[:, None], axis=0))

    logG = np.zeros(len(nu))
    logF[rows] = a + np.log(u) - log_mu_s - logK
    logG[cols] = b + np.log(v) - log_nu_s

    # Gauge fix: shift the shared constant so sum_j nu_j logG_j = 0.
    shift = float(nu.weights[cols] @ logG[cols])
    logG[cols] -= shift
    logF[rows] += shift
    log_zg[rows] -= shift
    with np.errstate(invalid="ignore"):
        pi = np.exp(logK + (logF + log_mu)[:, None] + (logG + log_nu)[None, :] + log_phi)
    # (-inf) + inf combinations can only arise on zero-mass rows/columns.
    pi[np.isnan(pi)] = 0.0

    pair = ScalingPair(
        logF=logF,
        logG=logG,
        logK=logK,
        beta=float(beta),
        log_z=log_z,
        log_zg=log_zg,
        residuals=(float(row_res), float(col_res), float(np.abs(eq8 - 1.0).max())),
        tol=float(tol),
        iterations=iterations,
        converged=residual <= tol,
    )
    if not pair.converged:
        # An unconverged iterate matches the marginals, and so has mass 1,
        # only up to its residual; scaled to mass 1, the partial coupling
        # is always a valid Coupling.
        pi /= pi.sum()
        raise ConvergenceError(
            f"Sinkhorn did not reach residual {tol:g} within {max_iter} "
            f"iterations (residual {residual:.3e})",
            partial=(pair, Coupling(pi)),
        )
    return pair, Coupling(pi)


def _check_pair(mu, nu, dist, beta, scal: ScalingPair, fresh: bool = True):
    """Refuse a pair of another shape or beta and, if ``fresh``, an unconverged one."""
    _check_compat(mu, dist, beta, nu)
    if (len(scal.logF), len(scal.logG)) != dist.shape or float(beta) != scal.beta:
        raise InvalidInputError(
            f"scaling pair solves a {len(scal.logF)} x {len(scal.logG)} problem at "
            f"beta={scal.beta:g}, not {dist.shape[0]} x {dist.shape[1]} at beta={beta:g}"
        )
    if fresh and scal.marginal_residual > 10.0 * scal.tol:
        raise StaleCertificateError(
            "scaling pair is not converged (marginal residual "
            f"{scal.marginal_residual:.3e} > 10 x tol {scal.tol:g}); "
            "re-run sinkhorn before evaluating dual quantities"
        )


def eval_J(
    mu: ProbabilityVector,
    nu: ProbabilityVector,
    dist: DistortionMatrix,
    beta: float,
    D: float,
    scal: ScalingPair,
) -> float:
    """Dual objective J(nu, beta) at a prescribed distortion level D.

    J = -sum_i mu_i ln(sum_j g_j e^{-beta rho_ij} nu_j)
        + sum_j nu_j ln g_j - beta D

    an O(n) read of a converged scaling pair for (mu, nu, beta).  At the
    optimal reconstruction law and matched D this equals the curve rate.
    """
    _check_pair(mu, nu, dist, beta, scal)
    return float(-(mu.weights @ scal.log_zg) + nu.weights @ scal.logG - beta * D)


def eval_L(
    mu: ProbabilityVector,
    nu: ProbabilityVector,
    dist: DistortionMatrix,
    beta: float,
    scal: ScalingPair,
) -> float:
    """Optimality defect L(nu, beta) >= 0, zero exactly at nu*.

    L = sum_i mu_i ln( sum_j e^{-beta rho_ij} nu_j
                       / sum_j g_j e^{-beta rho_ij} nu_j )
        + sum_j nu_j ln g_j

    an O(n) read of a converged scaling pair for (mu, nu, beta).
    """
    _check_pair(mu, nu, dist, beta, scal)
    return float(mu.weights @ (scal.log_z - scal.log_zg) + nu.weights @ scal.logG)


def schrodinger_residual(
    mu: ProbabilityVector,
    nu: ProbabilityVector,
    dist: DistortionMatrix,
    scal: ScalingPair,
) -> tuple[float, float, float]:
    """Defects of a scaling pair against the Schrodinger system.

    Returns:
        (row_res, col_res, eq8_res): sup-norm deviations of the induced
        coupling's marginals from mu and nu, and the largest deviation of

            sum_i mu_i g_y e^{-beta rho(i,y)} / sum_j g_j e^{-beta rho(i,j)} nu_j

        from 1 over y in supp(nu).  An O(n) read of the residuals
        ``sinkhorn`` took from the products of its final iterate.  Works
        on unconverged pairs too; the numbers are then just large.
    """
    _check_pair(mu, nu, dist, scal.beta, scal, fresh=False)
    return scal.residuals
