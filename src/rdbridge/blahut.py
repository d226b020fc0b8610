"""Blahut-Arimoto fixed-point solver and parametric curve sweep.

For a trade-off slope beta >= 0 the alternating update is

    pi_x(y)  proportional to  nu_t(y) exp(-beta rho(x, y))
    nu_{t+1}(y) = sum_x mu(x) pi_x(y) = nu_t(y) c_t(y)

with update factor c_t(y) = sum_x mu(x) exp(-beta rho(x, y)) / Z_t(x),
whose fixed point gives one point of the rate-distortion curve with
R = -sum_i mu_i ln(sum_j nu_j exp(-beta rho_ij)) - beta D.  All rates are
in nats; dR/dD = -beta under this sign convention.

The solver iterates the over-relaxed map nu_{t+1} proportional to
nu_t c_t**RELAXATION (Matz & Duhamel, ITW 2004).  It has the same fixed
points (c = 1 on the support) and, where the plain map converges
slowly, needs about half the iterations.  A relaxed step is kept only if
it does not increase

    F(nu) = -sum_x mu(x) ln Z(x),   Z(x) = sum_y nu(y) exp(-beta rho(x, y)),

and F still falls along the step at its end (it did not overshoot);
otherwise the plain step, which never increases F, is taken.  So F is
nonincreasing along the iteration, and where the plain map converges
fast the iteration is the plain one.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .distortion import DistortionMatrix
from .errors import ConvergenceError, InvalidInputError
from .measures import ProbabilityVector

logger = logging.getLogger(__name__)

# Reconstruction atoms falling below this mass are pinned to exact zero
# and never revived.
SUPPORT_FLOOR = 1e-300
# Uniform mass mixed into the previous optimum when warm-starting a sweep.
WARM_START_MIX = 1e-6
# Exponent lambda of the over-relaxed update nu <- nu * c**lambda.
RELAXATION = 1.9


@dataclass
class RDPoint:
    """One converged (or degraded) point of a rate-distortion sweep."""

    beta: float
    distortion: float
    rate: float
    nu_star: ProbabilityVector
    iterations: int
    fixpoint_residual: float
    certificate_slack: float
    converged: bool = True


@dataclass
class RDCurve:
    """A beta-sorted collection of RDPoints with shape diagnostics."""

    points: list[RDPoint]

    def __len__(self) -> int:
        return len(self.points)

    def betas(self) -> np.ndarray:
        return np.array([p.beta for p in self.points])

    def distortions(self) -> np.ndarray:
        return np.array([p.distortion for p in self.points])

    def rates(self) -> np.ndarray:
        return np.array([p.rate for p in self.points])

    def shape_report(self, degenerate_step: float = 1e-9) -> dict:
        """Worst violations of the expected curve shape.

        Returns a dict with ``max_distortion_increase`` (D should not
        increase with beta), ``max_rate_decrease`` (R should not decrease),
        and ``max_chord_violation`` (consecutive chord slopes of R(D)
        should not increase as D falls).  Chords over distortion steps
        smaller than ``degenerate_step`` are skipped: below the noise
        floor of the monotonicity checks a slope ratio carries no signal
        (e.g. between zero-rate points whose distortions differ only by
        residual sub-tolerance mass).
        """
        d = self.distortions()
        r = self.rates()
        report = {
            "max_distortion_increase": float(np.max(np.diff(d), initial=0.0)),
            "max_rate_decrease": float(np.max(-np.diff(r), initial=0.0)),
            "max_chord_violation": 0.0,
        }
        slopes = []
        for k in range(len(d) - 1):
            dd = d[k + 1] - d[k]
            if abs(dd) < degenerate_step:
                continue
            slopes.append((r[k + 1] - r[k]) / dd)
        for s_prev, s_next in zip(slopes[:-1], slopes[1:]):
            report["max_chord_violation"] = max(
                report["max_chord_violation"], float(s_next - s_prev)
            )
        return report


def _log_weights(w: np.ndarray) -> np.ndarray:
    out = np.full(w.shape, -np.inf)
    np.log(w, out=out, where=w > 0)
    return out


def _log_kernel(dist: DistortionMatrix, beta: float) -> np.ndarray:
    """log of exp(-beta rho); at beta = 0 the kernel is identically 1."""
    if beta == 0:
        return np.zeros(dist.shape)
    return -beta * dist.rho


def _check_compat(
    mu: ProbabilityVector,
    dist: DistortionMatrix,
    beta: float,
    nu: ProbabilityVector | None = None,
):
    if beta < 0 or not np.isfinite(beta):
        raise InvalidInputError(f"beta must be a finite nonnegative real, got {beta}")
    if len(mu) != dist.shape[0]:
        raise InvalidInputError(
            f"mu has {len(mu)} atoms but rho has {dist.shape[0]} rows"
        )
    if nu is not None and len(nu) != dist.shape[1]:
        raise InvalidInputError(f"nu has {len(nu)} atoms but rho has {dist.shape[1]} columns")


def _tilted_rows(log_phi, log_nu, log_mu):
    """log Z_i and log c_j for the current reconstruction law.

    Z_i normalizes row i of the tilted coupling; c_j is the multiplicative
    Blahut-Arimoto update factor for nu_j (also the dual constraint value).
    Rows of zero source mass get their Z_i but take no part in c: a row
    whose Z_i is zero would otherwise turn c into nan.
    """
    log_z = logsumexp(log_phi + log_nu[None, :], axis=1)
    live = np.isfinite(log_mu)
    if np.any(np.isneginf(log_z[live])):
        bad = int(np.flatnonzero(np.isneginf(log_z) & live)[0])
        raise InvalidInputError(
            f"source row {bad} has zero partition mass: every reconstruction "
            "with positive nu weight is forbidden for it"
        )
    log_c = logsumexp(log_mu[live, None] + log_phi[live] - log_z[live, None], axis=0)
    return log_z, log_c


def _shifted_kernel(log_phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cache exp(log_phi - shift), shifted by the row maximum of log_phi.

    A row partition sum computed from the cached kernel is then exactly a
    logsumexp evaluation whose shift was chosen once instead of per call.
    For a normalized loss the shift is zero.
    """
    shift = np.max(log_phi, axis=1)
    with np.errstate(invalid="ignore"):
        ker = np.exp(log_phi - shift[:, None])
    # Rows of all-infinite loss produce nan from (-inf) - (-inf); they
    # carry no kernel mass at all.
    ker[np.isneginf(log_phi)] = 0.0
    # Subnormal entries (more than 708 nats below the row maximum) move a
    # row sum by less than 2.3e-308 in all, below its rounding error once
    # it exceeds 1e-291; a row sum made of them alone falls back to
    # logsumexp.  Kept, they make the matrix products slow: with 1% of
    # the entries subnormal (257-point Gaussian, beta = 10) a solver
    # iteration took twice as long.
    ker[ker < np.finfo(float).tiny] = 0.0
    return shift, ker


def _tilted_state(
    mu: ProbabilityVector, dist: DistortionMatrix, beta: float, nu: ProbabilityVector
) -> tuple[np.ndarray, float, float, float, float]:
    """One pass over the tilted coupling pi_ij = mu_i nu_j exp(-beta rho_ij) / Z_i.

    Returns (log Z_i over all rows, D, R, slack, dual_value): the values
    ``rd_value_from_nu`` and ``dual_certificate`` document.
    """
    _check_compat(mu, dist, beta, nu)
    log_phi = _log_kernel(dist, beta)
    log_nu = _log_weights(nu.weights)
    log_z, log_c = _tilted_rows(log_phi, log_nu, _log_weights(mu.weights))
    with np.errstate(over="ignore"):
        slack = float(np.exp(log_c).max() - 1.0)
    live = mu.weights > 0
    rho = dist.rho[live]
    pi = np.exp(log_phi[live] + log_nu[None, :] - log_z[live, None])
    # 0 * inf guard: a positive pi entry can only sit on finite rho.
    contrib = np.where(pi > 0, pi * np.where(np.isfinite(rho), rho, 0.0), 0.0)
    distortion = float(mu.weights[live] @ contrib.sum(axis=1))
    if np.any(np.isposinf(rho) & (pi > 0)):
        distortion = float("inf")
    neg_log_z = -(mu.weights[live] @ log_z[live])
    # At beta = 0 the kernel ignores the loss, so D can be infinite while
    # the beta D term is still zero.
    tilt = beta * distortion if beta else 0.0
    # The + 0.0 turns a -0.0 at the zero-rate endpoint into plain 0.0.
    rate = float(neg_log_z - tilt) + 0.0
    dual_value = float(neg_log_z - np.log1p(max(slack, 0.0)) - tilt)
    return log_z, distortion, rate, slack, dual_value


def rd_value_from_nu(
    mu: ProbabilityVector,
    dist: DistortionMatrix,
    beta: float,
    nu: ProbabilityVector,
) -> tuple[float, float]:
    """Distortion and rate of the tilted coupling induced by (beta, nu).

    The coupling is pi_ij = mu_i nu_j exp(-beta rho_ij) / Z_i and the rate
    is the parametric value R = -sum_i mu_i ln Z_i - beta D, which upper
    bounds R(D) for any nu and matches it at the optimum.
    """
    _, distortion, rate, _, _ = _tilted_state(mu, dist, beta, nu)
    return distortion, rate


def dual_certificate(
    mu: ProbabilityVector,
    dist: DistortionMatrix,
    beta: float,
    nu: ProbabilityVector,
) -> tuple[np.ndarray, float, float]:
    """Csiszar-style dual pair built from a candidate reconstruction law.

    With alpha_i = 1 / sum_j nu_j exp(-beta rho_ij) the constraint value is
    c_j = sum_i alpha_i exp(-beta rho_ij) mu_i; after scaling alpha down by
    (1 + slack)+ the pair is feasible, so

        dual_value = sum_i mu_i ln alpha_i - ln(1 + max(slack, 0)) - beta D

    lower-bounds the optimal rate at the distortion D induced by nu.

    Returns:
        (alpha, slack, dual_value) with slack = max_j c_j - 1.
    """
    if not dist.normalized:
        raise InvalidInputError(
            "dual certificate requires a normalized loss (zero row minima); "
            "apply normalize_loss first"
        )
    log_z, _, _, slack, dual_value = _tilted_state(mu, dist, beta, nu)
    return np.exp(-log_z), slack, dual_value


def ba_fixed_point(
    mu: ProbabilityVector,
    dist: DistortionMatrix,
    beta: float,
    nu0: ProbabilityVector | None = None,
    tol: float = 1e-9,
    max_iter: int = 5000,
    min_iter: int = 1,
) -> RDPoint:
    """Run the Blahut-Arimoto iteration at a single trade-off slope.

    Each iteration takes one step: the over-relaxed update
    nu <- nu * c**RELAXATION (renormalized) when it does not increase
    F(nu) = -sum_i mu_i ln Z_i and does not overshoot (the derivative of
    F along the step, taken at its end, is still nonpositive), and the
    plain update nu <- nu * c otherwise.  Both updates have the same
    fixed points.  ``iterations`` counts the steps taken, relaxed or
    plain; a rejected relaxed step costs two extra matrix products but
    no iteration.

    The stop rule is that of the plain iteration: the fixed-point
    residual (the sup-norm change the plain update makes to nu) and the
    dual certificate slack, both at the current nu, must fall to
    ``tol``; the returned law is then the plain update of that nu, as it
    is when the budget runs out.  The rule is not tested before
    ``min_iter`` iterations: on broad instances the slack can dip below
    tolerance transiently while the bulk of nu is still equilibrating,
    and a floor on the iteration count is the simple guard.  Atoms that
    decay below ``SUPPORT_FLOOR`` are pinned to exact zero and never
    revived.

    Every partition sum is a logsumexp evaluation whose per-row shift
    depends only on (beta, rho); the shifted exponentials are therefore
    cached once and each iteration reduces to two matrix products,
    falling back to per-call logsumexp in the rare event a shifted sum
    underflows.  Outside that fallback and support pinning, the loop
    allocates no arrays: every step writes into buffers made once per
    call.

    Args:
        nu0: initial reconstruction law (defaults to uniform); must be
            strictly positive on its intended support.
        tol: joint threshold for the fixed-point residual and slack.
        max_iter: iteration budget.

    Raises:
        ConvergenceError: budget exhausted before both residuals reached
            ``tol``; the partial RDPoint is attached as ``.partial``.
    """
    _check_compat(mu, dist, beta)
    n = dist.shape[1]
    if nu0 is None:
        nu0 = ProbabilityVector(np.full(n, 1.0 / n))
    if len(nu0) != n:
        raise InvalidInputError(f"nu0 has {len(nu0)} atoms but rho has {n} columns")
    if tol <= 0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    if min_iter < 1 or min_iter > max_iter:
        raise InvalidInputError(
            f"min_iter must be in [1, max_iter], got {min_iter} with max_iter {max_iter}"
        )

    # Rows of zero source mass take no part in F or in the update factor.
    live = mu.weights > 0
    mu_live = mu.weights[live]
    log_mu = _log_weights(mu_live)
    log_phi = _log_kernel(dist, beta)[live]
    shift, ker = _shifted_kernel(log_phi)
    zt = np.empty(len(mu_live))
    log_zt = np.empty_like(zt)
    w = np.empty_like(zt)

    def evaluate(x: np.ndarray, c_out: np.ndarray) -> float:
        """F(x), less the constant sum_i mu_i shift_i; c at x goes to c_out.

        A law whose cached row sums underflow is evaluated by per-call
        logsumexp instead; its F is +inf, and c is left undefined, when a
        row partition mass is genuinely zero.
        """
        np.matmul(ker, x, out=zt)
        f = -float(mu_live @ np.log(zt, out=log_zt))
        if f < np.inf:
            np.divide(mu_live, zt, out=w)
            np.matmul(w, ker, out=c_out)
            return f
        log_z = logsumexp(log_phi + _log_weights(x)[None, :], axis=1)
        f = -float(mu_live @ (log_z - shift))
        if f < np.inf:
            _, log_c = _tilted_rows(log_phi, _log_weights(x), log_mu)
            np.exp(log_c, out=c_out)
        return f

    def require_mass(x: np.ndarray, f: float) -> None:
        if not f < np.inf:
            _tilted_rows(log_phi, _log_weights(x), log_mu)  # raises, naming the row

    nu = nu0.weights.copy()
    c = np.empty(n)
    plain, relaxed, c_trial, step, gain = (np.empty(n) for _ in range(5))
    residual = float("inf")
    slack = float("inf")
    shrunk = 0
    iterations = 0
    # Every overflow, underflow and 0 * inf in the loop is either masked
    # out (dead columns) or lands in a candidate whose F is not finite,
    # which is never taken over the plain step.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = evaluate(nu, c)
        require_mass(nu, f)
        dead = nu == 0
        alive = ~dead
        has_dead = bool(dead.any())
        while True:
            slack = float(c.max()) - 1.0
            if has_dead:
                # Dead columns can carry an infinite update factor (their
                # dual constraint is violated without bound); they hold
                # zero mass and are never revived.
                np.copyto(c, 0.0, where=dead)
            final = False
            plain_ready = (iterations + 1 >= min_iter and slack <= tol) or (
                iterations + 1 == max_iter
            )
            if plain_ready:
                # The residual only matters when the stop rule can fire or
                # the budget ends; the last step is always the plain one.
                np.multiply(nu, c, out=plain)
                plain /= plain.sum()
                np.subtract(plain, nu, out=step)
                residual = float(np.abs(step, out=step).max())
                final = residual <= tol or iterations + 1 == max_iter
            if final:
                nu, plain = plain, nu
            else:
                np.power(c, RELAXATION, out=relaxed)
                relaxed *= nu
                relaxed /= relaxed.sum()
                f_trial = evaluate(relaxed, c_trial)
                # F cannot see an overshoot once its changes reach rounding
                # level, so the slope of F along the step, taken at its end,
                # must also still point downhill.
                np.subtract(relaxed, nu, out=step)
                np.subtract(c_trial, 1.0, out=gain)
                if has_dead:
                    np.copyto(gain, 0.0, where=dead)
                if f_trial <= f and float(step @ gain) >= 0.0:
                    nu, relaxed = relaxed, nu
                    c, c_trial = c_trial, c
                    f = f_trial
                else:
                    if not plain_ready:
                        np.multiply(nu, c, out=plain)
                        plain /= plain.sum()
                    f = evaluate(plain, c_trial)
                    require_mass(plain, f)
                    nu, plain = plain, nu
                    c, c_trial = c_trial, c
            iterations += 1

            low = np.minimum.reduce(nu, where=alive, initial=1.0) if has_dead else nu.min()
            if low < SUPPORT_FLOOR:
                dying = (nu < SUPPORT_FLOOR) & (nu > 0)
                if np.any(dying):
                    shrunk += int(dying.sum())
                    logger.debug(
                        "iteration %d: pinned %d reconstruction atoms below %.0e",
                        iterations,
                        int(dying.sum()),
                        SUPPORT_FLOOR,
                    )
                    nu[dying] = 0.0
                    if not final:
                        f = evaluate(nu, c)
                        require_mass(nu, f)
                dead = nu == 0
                alive = ~dead
                has_dead = bool(dead.any())
            if final:
                break
    nu_star = ProbabilityVector(nu / nu.sum(), labels=nu0.labels)
    _, distortion, rate, slack_final, _ = _tilted_state(mu, dist, beta, nu_star)
    if shrunk:
        logger.debug("support shrank by %d atoms in total", shrunk)
    point = RDPoint(
        beta=float(beta),
        distortion=distortion,
        rate=rate,
        nu_star=nu_star,
        iterations=iterations,
        fixpoint_residual=residual,
        certificate_slack=slack_final,
        converged=residual <= tol and slack <= tol,
    )
    if not point.converged:
        raise ConvergenceError(
            f"Blahut-Arimoto did not converge at beta={beta:g} within "
            f"{max_iter} iterations (residual {residual:.3e}, slack {slack:.3e})",
            partial=point,
        )
    return point


def warm_start_law(nu: ProbabilityVector) -> ProbabilityVector:
    """nu mixed with ``WARM_START_MIX`` uniform mass, to start the next solve from."""
    mixed = (1.0 - WARM_START_MIX) * nu.weights + WARM_START_MIX / len(nu)
    return ProbabilityVector(mixed / mixed.sum(), labels=nu.labels)


def rd_curve(
    mu: ProbabilityVector,
    dist: DistortionMatrix,
    betas,
    tol: float = 1e-9,
    max_iter: int = 5000,
    nu0: ProbabilityVector | None = None,
    warm_start: bool = True,
) -> RDCurve:
    """Sweep a strictly increasing beta schedule into an RDCurve.

    The points are solved in schedule order.  With ``warm_start`` (the
    default) each solve starts from the previous optimum mixed with
    ``WARM_START_MIX`` uniform mass; without it every solve starts from
    ``nu0``.

    Points whose solve exhausts its budget are kept with
    ``converged=False`` rather than aborting the sweep.
    """
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 1 or betas.size == 0:
        raise InvalidInputError("betas must be a non-empty 1-D array")
    if np.any(betas < 0):
        raise InvalidInputError("betas must be nonnegative")
    if np.any(np.diff(betas) <= 0):
        raise InvalidInputError("betas must be strictly increasing")

    def solve(beta: float, start: ProbabilityVector | None) -> RDPoint:
        try:
            return ba_fixed_point(mu, dist, beta, start, tol=tol, max_iter=max_iter)
        except ConvergenceError as err:
            logger.warning("degraded point at beta=%g: %s", beta, err)
            return err.partial

    if warm_start:
        points: list[RDPoint] = []
        start = nu0
        for beta in betas:
            point = solve(float(beta), start)
            points.append(point)
            start = warm_start_law(point.nu_star)
    else:
        points = [solve(float(beta), nu0) for beta in betas]

    curve = RDCurve(points)
    report = curve.shape_report()
    if report["max_distortion_increase"] > 1e-9 or report["max_rate_decrease"] > 1e-9:
        logger.warning("curve shape violates monotonicity: %s", report)
    return curve
