"""Static Schrodinger problem at fixed marginals with a Gibbs reference.

For marginals (mu, nu) and reference gamma_ij = K mu_i nu_j exp(-beta
rho_ij) (K normalizes gamma to a probability measure), the minimizer of
D_KL(pi || gamma) over couplings of (mu, nu) has density f(x) g(y) with
respect to gamma.  The log-potentials solve the Schrodinger system and
are computed by Sinkhorn iteration in the scaling domain, on a cached
kernel into which large scalings are absorbed in the log domain
(Schmitzer, SIAM J. Sci. Comput. 2019).  mu and nu enter the iteration
as vectors, never as kernel rows or columns, so a half-step is taken in
the log domain only where the marginal-free kernel itself underflows,
not because mu or nu has a tiny atom.  The iteration starts from g = 1,
where the first F-update gives the tilted coupling pi_ij = mu_i nu_j
exp(-beta rho_ij) / Z_i of the rate-distortion parametrization: that
half-step is read off the Blahut-Arimoto solver's evaluator, whose
kernel the iteration then takes over.

The iteration is over-relaxed once it has reached its linear tail
(Thibault, Chizat, Dossal & Papadakis, Algorithms 2021; Lehmann, von
Renesse, Sambale & Uschmajew, Optim. Lett. 2022): a scaling-domain
half-step becomes u <- u^(1-omega) (1 / K(nu v))^omega.  omega = 2 / (1 +
sqrt(1 - lambda)) is estimated from the contraction lambda of the plain
iterations once their residual ratios have settled, and is at most
OMEGA_MAX.  A relaxed half-step is kept only if it does not lower the
Sinkhorn dual mu . ln u + nu . ln v - (mu u)^T K (nu v), an O(n) test;
otherwise the plain half-step is taken.  A log-domain half-step is
always plain.

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
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .blahut import ROW_SUM_FLOOR, _Tilt, _check_budget, _check_compat, _flush_kernel, _logsumexp
from .distortion import DistortionMatrix
from .errors import ConvergenceError, InvalidInputError, StaleCertificateError
from .measures import Coupling, ProbabilityVector, _max, _min

logger = logging.getLogger(__name__)

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 2000
# Scalings u, v are folded into the cached kernel once some |ln u_i| or
# |ln v_j| passes this, so the kernel stays near the current coupling.
ABSORB_LOG_SCALE = 30.0
ABSORB_HI = math.exp(ABSORB_LOG_SCALE)
ABSORB_LO = math.exp(-ABSORB_LOG_SCALE)
# Cap on the over-relaxation factor omega (the relaxed map diverges at
# 2).  A plain contraction lambda above RELAX_LAMBDA_MAX, whose optimal
# omega would pass the cap, reads as stagnation, not a linear tail, and
# is never relaxed.
OMEGA_MAX = 1.9
RELAX_LAMBDA_MAX = 1.0 - (2.0 / OMEGA_MAX - 1.0) ** 2
# The residual ratio lambda has settled once RELAX_CALM successive
# ratios each differ from the one before by less than
# RELAX_SETTLE * (1 - lambda).
RELAX_SETTLE = 0.05
RELAX_CALM = 2
# At omega <= OMEGA_MAX, a relaxed half-step cannot lower the dual while
# every ratio plain / current lies within e^(+-RELAX_SAFE_LOG).
RELAX_SAFE_LOG = 0.3
RELAX_SAFE_LO = math.exp(-RELAX_SAFE_LOG)
RELAX_SAFE_HI = math.exp(RELAX_SAFE_LOG)


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


def _absorbed_kernel(kernel: np.ndarray, log_phi_s: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Overwrite ``kernel`` with exp(a_i + log_phi_s_ij + b_j), flushed by ``_flush_kernel``.

    Written in place: a fresh n x n array per rebuild costs more in
    page faults than the exp itself.
    """
    np.add(log_phi_s, a[:, None], out=kernel)
    kernel += b
    np.exp(kernel, out=kernel)
    _flush_kernel(kernel)


def _normal(x: np.ndarray) -> bool:
    """True when every entry of x is finite and at least ROW_SUM_FLOOR.

    The rule of ``blahut._Tilt.evaluate``: a kernel product below the floor
    may have lost entries flushed below KERNEL_FLOOR that pass its rounding
    error, so the half-step that would divide by it is taken in the log
    domain.
    """
    return bool(_min(x) >= ROW_SUM_FLOOR and _max(x) < np.inf)


def _sup_residual(scaling: np.ndarray, product: np.ndarray, mass: np.ndarray) -> float:
    """max |scaling * product - mass|, formed in one buffer."""
    gap = scaling * product
    gap -= mass
    np.abs(gap, out=gap)
    return _max(gap)


def _keeps_dual(mass: np.ndarray, log_r: np.ndarray, omega: float) -> bool:
    """Whether an over-relaxed half-step leaves the Sinkhorn dual no lower.

    The half-step moves a log-scaling by omega L from where it is, where
    L = log_r is the plain half-step's move.  It changes the dual
    mu . ln u + nu . ln v - (mu u)^T K (nu v) by

        sum_i mass_i (omega L_i - expm1((omega - 1) L_i) + expm1(-L_i)),

    which the plain half-step (omega = 1) never makes negative.  Written
    in L with expm1, each term is accurate to rounding relative to
    itself, so the test also holds near convergence, where the change is
    of order L**2.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gain = mass @ (omega * log_r - np.expm1((omega - 1.0) * log_r) + np.expm1(-log_r))
    return bool(0.0 <= gain < math.inf)


def _relaxed_scaling(mass, plain, current, omega):
    """The scaling current * (plain / current)**omega if it keeps the dual, else plain.

    Every term of the dual change in ``_keeps_dual`` is nonnegative for
    L <= 0, and for 0 < L <= RELAX_SAFE_LOG at omega <= OMEGA_MAX, so
    near convergence the sum need not be formed.  A relaxed scaling that
    leaves the normal range is refused too.
    """
    if omega == 1.0:
        return plain
    # plain is at most 1 / ROW_SUM_FLOOR and current lies within
    # e^(+-ABSORB_LOG_SCALE), past which scalings are absorbed, so the
    # ratio cannot overflow and the safe test needs no error state.
    ratio = plain / current
    if RELAX_SAFE_LO <= _min(ratio) and _max(ratio) <= RELAX_SAFE_HI:
        return plain * ratio ** (omega - 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if _keeps_dual(mass, np.log(ratio), omega):
            relaxed = plain * ratio ** (omega - 1.0)
            if _normal(relaxed):
                return relaxed
    return plain


def sinkhorn(
    mu: ProbabilityVector,
    nu: ProbabilityVector,
    dist: DistortionMatrix,
    beta: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[ScalingPair, Coupling]:
    """Solve the two-marginal scaling problem by Sinkhorn iteration.

    Alternates

        logF_i <- -ln sum_j nu_j exp(logG_j - beta rho_ij) - logK
        logG_j <- -ln sum_i mu_i exp(logF_i - beta rho_ij) - logK

    until the coupling marginals match (mu, nu) to ``tol`` in sup norm.
    Each update is one matrix-vector product with a cached kernel M that
    holds no factor of mu or nu (u <- 1 / (M (nu v)), v <- 1 / (M^T (mu u))),
    and the same products give the marginal residuals.  Scalings are
    absorbed into the kernel before they grow large, and an update whose
    product leaves the normal floating point range, which happens only
    where the marginal-free kernel underflows, is taken in the log domain
    instead.  Atoms with zero mass take no part in the updates.

    Once RELAX_CALM successive ratios of the residual have settled at a
    contraction lambda <= RELAX_LAMBDA_MAX, the scaling-domain half-steps
    are over-relaxed, u <- u (1 / (u M (nu v)))^omega with
    omega = 2 / (1 + sqrt(1 - lambda)) <= OMEGA_MAX; log-domain half-steps
    stay plain.  A relaxed half-step that would lower the Sinkhorn dual
    mu . ln u + nu . ln v - (mu u)^T M (nu v) falls back to the plain one.
    The stop rule reads the iterate that is returned, relaxed or not.
    The returned coupling is scaled to mass 1.

    The iteration starts from logG = 0, so its first F-update is the
    tilted coupling pi_ij = mu_i nu_j exp(-beta rho_ij) / Z_i, read off
    the blahut ``_Tilt`` of (mu, rho, beta) evaluated at nu.

    Returns:
        (ScalingPair, Coupling), gauge-fixed so sum_j nu_j logG_j = 0.

    Raises:
        InvalidInputError: a positive-mass atom of mu (or nu) is
            unreachable under the reference, making the problem
            infeasible.
        ConvergenceError: iteration budget exhausted; ``.partial`` holds
            the (ScalingPair, Coupling) of the final iterate.
    """
    pair, joint = _sinkhorn(_Tilt(mu, dist, beta, nu), mu, nu, tol, max_iter)
    pi = joint()
    # The iterate matches the marginals, and so has mass 1, only up to its
    # residual; scaled to mass 1, it is always a valid Coupling.
    pi /= pi.sum()
    if not pair.converged:
        raise ConvergenceError(_shortfall(pair), partial=(pair, Coupling(pi)))
    return pair, Coupling(pi)


def _shortfall(pair: ScalingPair) -> str:
    """What an unconverged pair missed, which spent its whole budget."""
    return (
        f"Sinkhorn did not reach residual {pair.tol:g} within {pair.iterations} "
        f"iterations (residual {pair.marginal_residual:.3e})"
    )


def _sinkhorn(
    tilt: _Tilt, mu, nu, tol: float, max_iter: int
) -> tuple[ScalingPair, Callable[[], np.ndarray]]:
    """``sinkhorn`` from a ``_Tilt`` evaluated at nu, whose kernel it takes over.

    Returns the pair, converged or not, and a function that forms the
    final iterate's coupling, not yet scaled to mass 1, in the kernel's
    buffer; only a caller that reads the coupling calls it, once.
    """
    _check_budget(tol, max_iter)

    rows = mu.support
    cols = nu.support
    mu_w = tilt.mu
    nu_w = nu.weights[cols]
    every_col = cols.size == len(nu)
    log_mu_s = np.log(mu_w)
    log_nu_s = np.log(nu_w)

    def log_phi_s() -> np.ndarray:
        """-beta rho on the supports."""
        return tilt.log_phi() if every_col else tilt.log_phi()[:, cols]

    # A column no row reaches has c = 0, but so may one whose kernel
    # entries were all flushed; the tilt's reachable columns tell them
    # apart.  Most solves have no column with c = 0 and skip the lookup.
    dead = cols[tilt.c[cols] == 0.0]
    if dead.size:
        dead = np.setdiff1d(dead, tilt.reach)
    if dead.size:
        raise InvalidInputError(
            f"reconstruction atom {int(dead[0])} carries mass but no source in "
            "supp(mu) can reach it: reference is infeasible"
        )

    # Sinkhorn scalings pi = diag(mu e^a u) e^{-beta rho} diag(nu e^b v),
    # with a = logK + logF and b = logG: mu and nu enter as vectors, never
    # as kernel rows or columns.  The log-scalings (a, b) are absorbed into
    # the cached kernel; u and v are folded into them when they grow past
    # ABSORB_LOG_SCALE or a kernel product leaves the normal range, which
    # happens only where the marginal-free kernel itself underflows.
    # Iteration 1's F-update, from logG = 0, gives the tilted coupling:
    # a = -ln Z and b = 0.
    row_reach = tilt.log_z + tilt.shift
    logK = float(-_logsumexp(log_mu_s + row_reach, axis=0))
    a = -row_reach
    b = np.zeros(len(cols))
    kernel = tilt.ker if every_col else tilt.ker[:, cols]
    if not tilt.logged:
        # K_ij / z_i, with z = K nu and K the tilt's shifted kernel.  z <= 1 to
        # rounding, so an entry falls below the floor by an ulp at most, which
        # is harmless: Sinkhorn multiplies entries by scalings, never each other.
        kernel /= tilt.z[:, None]
    else:
        _absorbed_kernel(kernel, log_phi_s(), a, b)

    # u and v share one buffer, so the absorption test is two reductions.
    uv = np.ones(len(rows) + len(cols))
    u, v = uv[: len(rows)], uv[len(rows) :]

    # omega = 1 until RELAX_CALM settled residual ratios, then relaxed to
    # the end, each scaled half-step guarded by the dual test.
    omega = 1.0
    calm = 0
    last_res, last_ratio = math.inf, math.nan
    for iterations in range(1, max_iter + 1):
        # mu u and nu v each serve a product and a residual.
        mu_u = mu_w * u
        col_sum = kernel.T @ mu_u
        if _normal(col_sum):
            v[:] = _relaxed_scaling(nu_w, 1.0 / col_sum, v, omega)
            nu_v = nu_w * v
            col_res = _sup_residual(nu_v, col_sum, nu_w)
        else:
            # A log-domain G-update matches the columns by construction.
            a += np.log(u)
            u[:] = 1.0
            b = -_logsumexp(log_phi_s() + (a + log_mu_s)[:, None], axis=0)
            v[:] = 1.0
            mu_u, nu_v = mu_w, nu_w
            _absorbed_kernel(kernel, log_phi_s(), a, b)
            col_res = 0.0

        # The row marginals mu u (kernel (nu v)) come from the product the
        # next F-update needs anyway.
        row_sum = kernel @ nu_v
        scaled = _normal(row_sum)
        if scaled:
            row_res = _sup_residual(mu_u, row_sum, mu_w)
        else:
            b += np.log(v)
            v[:] = 1.0
            a_next = -_logsumexp(log_phi_s() + (b + log_nu_s), axis=1)
            row_res = np.abs(mu_w * np.expm1(a + np.log(u) - a_next)).max()
        residual = float(max(row_res, col_res))
        if residual <= tol or iterations == max_iter:
            break

        if calm < RELAX_CALM:
            ratio = residual / last_res
            settled = abs(ratio - last_ratio) < RELAX_SETTLE * (1.0 - ratio)
            calm = calm + 1 if settled and ratio <= RELAX_LAMBDA_MAX else 0
            if calm == RELAX_CALM:
                omega = 2.0 / (1.0 + math.sqrt(1.0 - ratio))
            last_res, last_ratio = residual, ratio

        if scaled:
            u[:] = _relaxed_scaling(mu_w, 1.0 / row_sum, u, omega)
        else:
            a = a_next
            u[:] = 1.0
            _absorbed_kernel(kernel, log_phi_s(), a, b)
        if _max(uv) > ABSORB_HI or _min(uv) < ABSORB_LO:
            a += np.log(u)
            b += np.log(v)
            u[:] = 1.0
            v[:] = 1.0
            _absorbed_kernel(kernel, log_phi_s(), a, b)

    # ln sum_j g_j e^{-beta rho_ij} nu_j before the gauge shift, and the
    # column sums over nu of the coupling one F-update on: these are the
    # sums of eq. 8, which are 1 at a solution.
    logF, log_z, log_zg = np.zeros((3, len(mu)))
    log_z[rows] = row_reach
    if scaled:
        log_zg[rows] = np.log(row_sum) - a
        col_sum = kernel.T @ (mu_w / row_sum)
    else:
        log_zg[rows] = -a_next
    if scaled and _normal(col_sum):
        eq8 = v * col_sum
    else:
        a_next = -log_zg[rows]
        eq8 = np.exp(b + np.log(v) + _logsumexp(log_phi_s() + (a_next + log_mu_s)[:, None], axis=0))

    logG = np.zeros(len(nu))
    logF[rows] = a + np.log(u) - logK
    logG[cols] = b + np.log(v)

    # Gauge fix: shift the shared constant so sum_j nu_j logG_j = 0.
    shift = float(nu.weights[cols] @ logG[cols])
    logG[cols] -= shift
    logF[rows] += shift
    log_zg[rows] -= shift

    def joint() -> np.ndarray:
        """The coupling of the final iterate, diag(mu u) kernel diag(nu v).

        A final log-domain F-update folded v into b without rebuilding the
        kernel.
        """
        if not scaled:
            _absorbed_kernel(kernel, log_phi_s(), a, b)
        np.multiply(kernel, (mu_w * u)[:, None], out=kernel)
        np.multiply(kernel, nu_w * v, out=kernel)
        if tilt.full and every_col:
            return kernel
        pi = np.zeros(tilt.dist.shape)
        pi[np.ix_(rows, cols)] = kernel
        return pi

    pair = ScalingPair(
        logF=logF,
        logG=logG,
        logK=logK,
        beta=float(tilt.beta),
        log_z=log_z,
        log_zg=log_zg,
        residuals=(float(row_res), float(col_res), float(np.abs(eq8 - 1.0).max())),
        tol=float(tol),
        iterations=iterations,
        converged=residual <= tol,
    )
    return pair, joint


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
