"""Blahut-Arimoto fixed-point solver and parametric curve sweep.

For a trade-off slope beta >= 0 the alternating update is

    pi_x(y)  proportional to  nu_t(y) exp(-beta rho(x, y))
    nu_{t+1}(y) = sum_x mu(x) pi_x(y) = nu_t(y) c_t(y)

with update factor c_t(y) = sum_x mu(x) exp(-beta rho(x, y)) / Z_t(x),
whose fixed point gives one point of the rate-distortion curve with
R = -sum_i mu_i ln(sum_j nu_j exp(-beta rho_ij)) - beta D.  All rates are
in nats; dR/dD = -beta under this sign convention.

The plain map G is accelerated by squared extrapolation (SQUAREM cycle
S3; Varadhan & Roland, Scand. J. Statist. 2008): from x0, x1 = G(x0) and
x2 = G(x1), with r = x1 - x0 and v = x2 - 2 x1 + x0, it tries
x' = x0 - 2 a r + a^2 v with a = -max(1, |r| / |v|), and backtracks a to
(a - 1) / 2 until it reaches -1 (x' = x2) while x' has a negative entry
or raises F(nu) = -sum_x mu(x) ln Z(x) above F(x2).  A kept x' is
followed by one plain map, kept unless it raises F; on two atoms x'
itself starts the next cycle.  The plain map never raises F, so F is
nonincreasing along the iteration.  A solve that Newton steps finish
extrapolates only on two atoms.

Blahut-Arimoto is a first-order method and slows down without bound at
critical slopes and on sparse optimal laws.  A solve with a tight
tolerance (tol <= NEWTON_TOL) therefore runs it in two phases:

1. Blahut-Arimoto, until the slack max_j c_j - 1 falls to
   HANDOVER_SLACK;
2. projected Newton steps on f(x) = F(x) + sum_j x_j over x >= 0, whose
   minimiser is the optimal law (it sums to 1).  This is the NPMLE
   mixture likelihood, and the steps follow mixSQP (Kim, Carbonetto,
   Stephens & Anitescu, JCGS 2020): each solves the quadratic model of f
   over y >= 0 by an active-set method warm-started from the current
   support, and the full step to its minimiser is taken if it does not
   raise f.

A looser tolerance never leaves phase 1.  A failed Newton step hands the
solve back to phase 1 for good.

A point at a target distortion is a saddle point over the law and beta
together, solved by a primal-dual interior-point method on the same mixture
likelihood, in rounds on the reconstruction columns in play
(``solve_point_for_distortion``).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .distortion import DistortionMatrix, _check_rows, d_floor, d_max
from .errors import ConvergenceError, InvalidInputError
from .measures import ProbabilityVector

logger = logging.getLogger(__name__)

# Reconstruction atoms falling below this mass are pinned to exact zero
# and never revived by a Blahut-Arimoto step.
SUPPORT_FLOOR = 1e-300
# Uniform mass mixed into the previous optimum when warm-starting a sweep.
WARM_START_MIX = 1e-6
# Solves with tol at or below NEWTON_TOL hand over from Blahut-Arimoto to
# projected Newton steps once the slack has fallen to HANDOVER_SLACK.  Such
# a solve extrapolates only on two atoms: on more, extrapolated laws leave
# atoms of small mass far from equilibrium, and the Newton QP then changes
# its active set by tens of atoms per step.
NEWTON_TOL = 1e-4
HANDOVER_SLACK = 1e-3
# An atom of zero mass enters a Newton step only if c_j >= 1 - CANDIDATE_GAP.
CANDIDATE_GAP = 1e-2
# Ridge added to the Newton Hessian: RIDGE times its largest diagonal entry
# in a Newton step, RIDGE times each diagonal entry in an interior-point one.
RIDGE = 1e-12
# The Newton QP ends once no atom held at zero lowers its model at a rate
# above max(tol / 10, QP_TOL_FLOOR), and fails after more than
# 2 m + QP_CHANGE_SLACK active-set changes on m candidate atoms.
QP_TOL_FLOOR = 1e-14
QP_CHANGE_SLACK = 10
# A target-distortion solve drives its optimality measures to
# min(tol, IP_TOL).  Each step goes at most BOUNDARY_STEP of the way to the
# boundary of x, s, beta, lambda >= 0 and at most ROW_STEP of the way to a
# zero row sum K x, and moves beta by a factor of at most BETA_STEP; after
# an iteration that did not lower the complementarity gap the centring
# parameter is at least STALL_SIGMA.
IP_TOL = 1e-9
BOUNDARY_STEP = 0.995
ROW_STEP = 0.9
BETA_STEP = 2.0
STALL_SIGMA = 0.5
# A target-distortion solve starts on the D_max column and this many
# columns evenly spaced by index.  On the 201-point uniform source at
# tol 1e-3, 16 ran about as fast and 64 a third slower.
START_COLUMNS = 32
# A row partition sum below this is too small for the flushed entries of
# the cached kernel to fall below its rounding error: the evaluation is
# then taken in the log domain.
ROW_SUM_FLOOR = np.finfo(float).tiny / np.finfo(float).eps
# Chords of a curve over a distortion step below this are skipped by
# ``RDCurve.shape_report``.
DEGENERATE_STEP = 1e-9


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

    def distortions(self) -> np.ndarray:
        return np.array([p.distortion for p in self.points])

    def rates(self) -> np.ndarray:
        return np.array([p.rate for p in self.points])

    def shape_report(self) -> dict:
        """Worst violations of the expected curve shape.

        Returns a dict with ``max_distortion_increase`` (D should not
        increase with beta), ``max_rate_decrease`` (R should not decrease),
        and ``max_chord_violation`` (consecutive chord slopes of R(D)
        should not increase as D falls).  Chords over distortion steps
        smaller than ``DEGENERATE_STEP`` are skipped: below the noise
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
            if abs(dd) < DEGENERATE_STEP:
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
    """log of exp(-beta rho).

    At beta = 0 this is the beta -> 0+ limit: 0 on finite losses and
    -inf on +inf ones, so forbidden pairs stay forbidden at every slope.
    """
    if beta == 0:
        return np.where(np.isposinf(dist.rho), -np.inf, 0.0)
    return -beta * dist.rho


def _check_compat(
    mu: ProbabilityVector,
    dist: DistortionMatrix,
    beta: float,
    nu: ProbabilityVector | None = None,
):
    if beta < 0 or not np.isfinite(beta):
        raise InvalidInputError(f"beta must be a finite nonnegative real, got {beta}")
    _check_rows(mu, dist)
    if nu is not None and len(nu) != dist.shape[1]:
        raise InvalidInputError(f"nu has {len(nu)} atoms but rho has {dist.shape[1]} columns")


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp(a) along ``axis``, shifted by the maximum; -inf for all--inf lines."""
    top = np.max(a, axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - top), axis=axis)) + np.squeeze(top, axis=axis)


def _flush_subnormals(kernel: np.ndarray) -> None:
    """Set the subnormal entries of a kernel to zero, in place.

    A subnormal entry moves a product by less than its rounding error
    unless a whole row or column is subnormal, and then the product falls
    below the smallest normal number and the caller takes the log domain
    instead.  Kept, such entries make the matrix products slow: with 1% of
    the entries subnormal (257-point Gaussian, beta = 10) a solver
    iteration took twice as long.
    """
    kernel[kernel < np.finfo(float).tiny] = 0.0


def _shifted_kernel(log_phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(log_phi - shift) in log_phi's own buffer, shifted by the row maximum of log_phi.

    A row partition sum computed from this kernel is then exactly a
    logsumexp evaluation whose shift was chosen once instead of per call.
    For a normalized loss the shift is zero.
    """
    shift = np.max(log_phi, axis=1)
    with np.errstate(invalid="ignore"):
        ker = np.subtract(log_phi, shift[:, None], out=log_phi)
        np.exp(ker, out=ker)
    # Rows of all-infinite loss produce nan from (-inf) - (-inf); they
    # carry no kernel mass at all.  Elsewhere exp(-inf) is already 0.
    ker[np.isneginf(shift)] = 0.0
    # Subnormal entries (more than 708 nats below the row maximum) move a
    # row sum by less than 2.3e-308 in all, below its rounding error once
    # it reaches ROW_SUM_FLOOR; a smaller row sum falls back to logsumexp.
    _flush_subnormals(ker)
    return shift, ker


class _Tilt:
    """The tilted coupling pi_ij = mu_i x_j exp(-beta rho_ij) / Z_i of a law x.

    Holds the ``_shifted_kernel`` K of (rho, beta), with its row shift s,
    on the rows where mu > 0: rows of zero source mass take no part in F,
    c, D or R.  ``evaluate`` gives Z = K x (ln Z - s in ``log_z``), F and
    c = (mu / Z) K; ``certificate`` adds D = (mu / Z) . ((K o rho) x), R,
    the slack and the dual value.  A row sum below ROW_SUM_FLOOR sends the
    pass to per-row logsumexp over -beta rho, formed on first use
    (``scaled`` is then False).  Given ``nu``, the tilt is evaluated at
    nu at once, with c at nu in ``c``.
    """

    def __init__(self, mu: ProbabilityVector, dist: DistortionMatrix, beta: float, nu=None):
        _check_compat(mu, dist, beta, nu)
        self.dist, self.beta = dist, beta
        self.live = mu.weights > 0
        self.full = bool(self.live.all())
        # Copies of rho-sized arrays page-fault; only zero-mass rows need one.
        self.mu = mu.weights if self.full else mu.weights[self.live]
        log_phi = _log_kernel(dist, beta)
        self.shift, self.ker = _shifted_kernel(log_phi if self.full else log_phi[self.live])
        self.z, self.log_z, self.w = (np.empty(len(self.mu)) for _ in range(3))
        self._log_phi = None
        if nu is not None:
            self.c = np.empty(len(nu))
            self.evaluate(nu.weights, self.c)

    def log_phi(self) -> np.ndarray:
        """-beta rho on the rows of positive mass, formed on first use."""
        if self._log_phi is None:
            log_phi = _log_kernel(self.dist, self.beta)
            self._log_phi = log_phi if self.full else log_phi[self.live]
        return self._log_phi

    def evaluate(self, x: np.ndarray, c: np.ndarray, strict: bool = True) -> float:
        """F(x) = -sum_i mu_i ln Z_i, less the constant sum_i mu_i s_i; c at x goes to ``c``.

        When a row partition mass is zero a strict call raises, naming the
        row; otherwise F is +inf and c is left undefined.
        """
        z = self.z
        np.matmul(self.ker, x, out=z)
        # argmin, not a min reduction: at n = 201 it costs a third as much.
        self.scaled = z[z.argmin()] >= ROW_SUM_FLOOR
        if self.scaled:
            f = -float(self.mu @ np.log(z, out=self.log_z))
            np.divide(self.mu, z, out=self.w)
            np.matmul(self.w, self.ker, out=c)
            return f
        log_phi = self.log_phi()
        log_z = _logsumexp(log_phi + _log_weights(x), axis=1)
        zero = np.isneginf(log_z)
        if zero.any():
            if not strict:
                return math.inf
            bad = int(np.flatnonzero(self.live)[zero][0])
            raise InvalidInputError(
                f"source row {bad} has zero partition mass: every reconstruction "
                "with positive nu weight is forbidden for it"
            )
        np.subtract(log_z, self.shift, out=self.log_z)
        log_c = _logsumexp(np.log(self.mu)[:, None] + log_phi - log_z[:, None], axis=0)
        # Columns of zero mass can carry an unbounded c.
        with np.errstate(over="ignore"):
            np.exp(log_c, out=c)
        return -float(self.mu @ self.log_z)

    def certificate(self, x: np.ndarray, c: np.ndarray) -> tuple[float, float, float, float]:
        """(D, R, slack, dual_value) of the law x that ``evaluate`` saw last, with its c.

        These are the values ``rd_value_from_nu`` and ``dual_certificate``
        document.
        """
        rho = self.dist.rho if self.full else self.dist.rho[self.live]
        slack = float(c.max()) - 1.0
        log_z = self.log_z + self.shift
        if self.scaled:
            if rho.max() < np.inf:
                loss = self.ker * rho
            else:
                # 0 * inf guard: forbidden pairs carry no kernel mass.
                loss = np.zeros_like(self.ker)
                np.multiply(self.ker, rho, out=loss, where=self.ker > 0.0)
            distortion = float(self.w @ (loss @ x))
        else:
            pi = np.exp(self.log_phi() + _log_weights(x) - log_z[:, None])
            loss = np.zeros_like(pi)
            # 0 * inf guard: a positive pi entry can only sit on finite rho.
            np.multiply(pi, rho, out=loss, where=pi > 0.0)
            distortion = float(self.mu @ loss.sum(axis=1))
        neg_log_z = -(self.mu @ log_z)
        tilt = self.beta * distortion
        # The + 0.0 turns a -0.0 at the zero-rate endpoint into plain 0.0.
        rate = float(neg_log_z - tilt) + 0.0
        dual_value = float(neg_log_z - np.log1p(max(slack, 0.0)) - tilt)
        return distortion, rate, slack, dual_value


def _tilted_state(
    mu: ProbabilityVector, dist: DistortionMatrix, beta: float, nu: ProbabilityVector
) -> tuple[np.ndarray, float, float, float, float]:
    """(log Z_i over all rows, D, R, slack, dual_value) of the tilted coupling at nu."""
    tilt = _Tilt(mu, dist, beta, nu)
    log_z = np.empty(len(mu))
    log_z[tilt.live] = tilt.log_z + tilt.shift
    if not tilt.full:
        dead = ~tilt.live
        log_z[dead] = _logsumexp(_log_kernel(dist, beta)[dead] + _log_weights(nu.weights), axis=1)
    return (log_z, *tilt.certificate(nu.weights, tilt.c))


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

    Rows of rho need not attain zero: adding m_i to row i scales alpha_i
    by exp(beta m_i) and leaves every c_j, the slack and the dual value.
    Where 1 / Z_i overflows (every allowed loss of row i above about
    709 / beta nats) alpha_i is +inf, without a warning; a row of zero
    source mass takes no part in c, the slack or the dual value, so it can
    carry such an alpha_i next to a finite certificate.

    Returns:
        (alpha, slack, dual_value) with slack = max_j c_j - 1.
    """
    log_z, _, _, slack, dual_value = _tilted_state(mu, dist, beta, nu)
    with np.errstate(over="ignore"):
        return np.exp(-log_z), slack, dual_value


def _gram(ker: np.ndarray, mu: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H, K x): the Hessian H = A'A of F at x, with A = diag(sqrt(mu) / K x) K."""
    z = ker @ x
    a = ker * (np.sqrt(mu) / z)[:, None]
    return a.T @ a, z


def _nonneg_qp(h: np.ndarray, b: np.ndarray, y: np.ndarray, tol: float, max_changes: int):
    """Minimise y'hy/2 - b'y over y >= 0 by Lawson and Hanson's active set.

    ``h`` must be positive definite.  The passive (free) set starts as the
    support of the feasible start ``y``, and its block of ``h`` is factored
    afresh after every change of the set.  The solve ends once no
    variable held at zero can lower the objective at a rate above ``tol``.

    Returns (y, passive set size, set changes), or None when the set
    changes more than ``max_changes`` times or the factor breaks down.
    """
    # scipy.linalg takes about 60 ms to import, and only solves with a
    # tight tol reach this point.
    from scipy.linalg import lapack

    y = y.copy()
    passive = np.flatnonzero(y > 0)
    changes = 0
    while changes <= max_changes:
        z, info = b[:0], 0
        if len(passive):
            r, info = lapack.dpotrf(h[passive][:, passive])
            if not info:
                z, info = lapack.dpotrs(r, b[passive])
        if info:
            return None
        if np.all(z > 0.0):
            y[:] = 0.0
            y[passive] = z
            gain = b - h @ y
            gain[passive] = -np.inf
            j = int(np.argmax(gain))
            if not gain[j] > tol:
                return y, len(passive), changes
            passive = np.append(passive, j)
            changes += 1
        else:
            # Move towards z until the first free variable reaches zero,
            # and bind every variable that did.
            yp = y[passive]
            neg = np.flatnonzero(z <= 0.0)
            ratios = yp[neg] / (yp[neg] - z[neg])
            first = neg[np.argmin(ratios)]
            yp += ratios.min() * (z - yp)
            yp[first] = 0.0
            leave = yp <= 0.0
            y[passive] = np.maximum(yp, 0.0)
            passive = passive[~leave]
            changes += int(leave.sum())
    return None


def ba_fixed_point(
    mu: ProbabilityVector,
    dist: DistortionMatrix,
    beta: float,
    nu0: ProbabilityVector | None = None,
    tol: float = 1e-9,
    max_iter: int = 5000,
) -> RDPoint:
    """Solve for the optimal reconstruction law at a single trade-off slope.

    Blahut-Arimoto runs in the extrapolation cycles of the module
    docstring around the plain update nu <- nu * c (renormalized).
    ``iterations`` counts update-factor evaluations (two matrix-vector
    products each: the start law, every plain update and every candidate
    tried; not the re-evaluation after support pinning) plus Newton
    steps, and ``max_iter`` bounds that count.

    The stop rule is that of the plain iteration, tested at every law
    reached by a plain update or a Newton step, never at a candidate: the
    fixed-point residual (the sup-norm change the plain update makes to
    nu) and the dual certificate slack, both at the current nu, must fall
    to ``tol``; the returned law is then the plain update of that nu, as
    it is when the budget runs out, and its own slack must be at most
    ``tol`` too, or the update stands as an ordinary one.  Where no
    candidate is kept the solve ends exactly where the plain iteration
    would.  Atoms that decay below ``SUPPORT_FLOOR`` are pinned to exact
    zero and never revived by a Blahut-Arimoto step.

    With ``tol <= NEWTON_TOL`` the solve hands over to projected Newton
    steps once the slack is at most ``HANDOVER_SLACK`` at any law whose c
    is known, a kept extrapolated one included.  A Newton step works on
    the candidate atoms (nu_j > 0, or c_j >= 1 - CANDIDATE_GAP, so an atom
    may come back): with A = diag(sqrt(mu) / K nu) K on those columns and
    H = A'A, it solves min y'Hy/2 - (2c - 1)'y over y >= 0 by Lawson and
    Hanson's active set started from supp(nu), factoring the free block of
    H afresh after each change of the set; then it takes the full step to
    y if f falls along y - nu and is no higher at y.  The new law is
    normalized, which never raises f or F.  The stop rule, the plain last
    step and support pinning are those of the Blahut-Arimoto phase.  A QP
    that breaks down or a step that would raise f ends the Newton phase,
    and Blahut-Arimoto goes on from the last law.  HANDOVER_SLACK lies
    above NEWTON_TOL, so a tight solve can stop at a law of Blahut-Arimoto
    only at the hand-over itself or after a failed Newton step.

    At beta = 0 the answer is the beta -> 0+ limit.  With D_max finite it
    is the zero-rate end of the curve, whatever ``nu0``: all mass on the
    column attaining D_max (the smallest index on ties), D = D_max, R = 0
    and 0 iterations.  Otherwise the solve iterates as at any slope.

    Every evaluation, the final certificate included, is one ``_Tilt``'s:
    two matrix products with a kernel cached once per call, or per-row
    logsumexp in the rare event a row sum falls below ROW_SUM_FLOOR.
    Outside that fallback, support pinning and Newton steps, the loop
    allocates no arrays: every step writes into buffers made once per
    call.

    Args:
        nu0: initial reconstruction law (defaults to the uniform law,
            unlabelled); must be strictly positive on its intended
            support.
        tol: joint threshold for the fixed-point residual and slack.
        max_iter: iteration budget, at least 1.

    Raises:
        ConvergenceError: budget exhausted before both residuals reached
            ``tol``; the partial RDPoint is attached as ``.partial``.
    """
    _check_compat(mu, dist, beta, nu0)
    n = dist.shape[1]
    labels = None if nu0 is None else nu0.labels
    if tol <= 0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter}")

    if beta == 0:
        ceiling, col = d_max(mu, dist)
        if ceiling < math.inf:
            nu_star = ProbabilityVector(np.arange(n) == col, labels=labels)
            tilt = _Tilt(mu, dist, 0.0, nu_star)
            distortion, rate, slack, _ = tilt.certificate(nu_star.weights, tilt.c)
            return RDPoint(0.0, distortion, rate, nu_star, 0, 0.0, slack)

    tilt = _Tilt(mu, dist, beta)
    evaluate = tilt.evaluate

    def support_masks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
        dead = x == 0
        return dead, ~dead, bool(dead.any())

    qp_tol = max(0.1 * tol, QP_TOL_FLOOR)

    def newton_step(x: np.ndarray, c_x: np.ndarray, c_out: np.ndarray):
        """One projected Newton step on f(x) = F(x) + sum(x) from the normalized law x.

        Returns (next law, normalized; its F; free atoms; active-set
        changes) and writes c at the next law to c_out, or returns None
        when the QP fails or the full step would raise f.
        """
        cand = (x > 0) | (c_x >= 1.0 - CANDIDATE_GAP)
        sub = tilt.ker[:, cand]
        xc = x[cand]
        h, z = _gram(sub, tilt.mu, xc)
        ridge = RIDGE * h.diagonal().max()
        h.flat[:: len(xc) + 1] += ridge
        # The gradient of f is 1 - c and h x = c, so the Newton model of f
        # is y'hy/2 - (2c - 1)'y; the ridge damps the step without moving
        # its fixed point.
        b = 2.0 * c_x[cand] - 1.0 + ridge * xc
        if not (math.isfinite(ridge) and np.isfinite(b).all()):
            return None  # a row sum underflowed or c overflowed
        solved = _nonneg_qp(h, b, xc, qp_tol, 2 * len(xc) + QP_CHANGE_SLACK)
        if solved is None:
            return None
        y, free, changes = solved
        d = y - xc
        # The slope of f along d and f(x + d) - f(x), taken from K d
        # directly: their own size, not that of f, sets their rounding
        # error, so the test still sees a decrease far below f's rounding.
        ratio = (sub @ d) / z
        mass = d.sum()
        if not mass - float(tilt.mu @ ratio) < 0.0:
            return None
        if not mass - float(tilt.mu @ np.log1p(ratio)) <= 0.0:
            return None
        # y >= 0, so xc + d, rounded, is too.
        trial = np.zeros(n)
        trial[cand] = xc + d
        f_t = evaluate(trial, c_out, strict=False)
        s = trial.sum()
        trial /= s
        c_out *= s
        return trial, f_t + math.log(s), free, changes

    nu = np.full(n, 1.0 / n) if nu0 is None else nu0.weights.copy()
    c, c_trial, plain, trial, r, v = (np.empty(n) for _ in range(6))
    # The first two laws of the current cycle; nu is law number ``maps``,
    # or a kept candidate awaiting its stabilizing map when ``jumped``.
    cycle = [np.empty(n), np.empty(n)]
    maps = accepted = backtracks = rejected = 0
    residual = float("inf")
    shrunk = 0
    newton = newton_bound = tol <= NEWTON_TOL
    in_newton = handed_over = jumped = False

    def phase_1_ends(how: str) -> None:
        logger.debug(
            "iteration %d: %s; %d extrapolations accepted, %d backtracks, "
            "%d stabilizing maps rejected", iterations, how, accepted, backtracks, rejected
        )

    # Every overflow, underflow and 0 * inf in the loop is either masked
    # out (dead columns) or lands in a candidate whose F is not finite,
    # which is never kept.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = evaluate(nu, c)
        iterations = 1
        dead, alive, has_dead = support_masks(nu)
        while True:
            # c and f belong to nu, and ``iterations`` evaluations are spent.
            slack = float(c.max()) - 1.0
            if newton and not in_newton and slack <= HANDOVER_SLACK:
                in_newton = handed_over = True
                phase_1_ends(f"slack {slack:.3e}, handing over to Newton steps")
            # Dead columns can carry an infinite update factor (their dual
            # constraint is violated without bound); they hold zero mass,
            # and no Blahut-Arimoto step revives them.
            np.multiply(nu, c, out=plain, where=alive)
            if has_dead:
                np.copyto(plain, 0.0, where=dead)
            plain /= plain.sum()
            final = False
            if (slack <= tol and not jumped) or iterations >= max_iter:
                # The residual only matters when the stop rule can fire or
                # the budget ends.
                np.subtract(plain, nu, out=trial)
                residual = float(np.abs(trial, out=trial).max())
                final = residual <= tol or iterations >= max_iter
            stepped = None
            if in_newton and not final:
                stepped = newton_step(nu, c, c_trial)
                if stepped is None:
                    in_newton = newton = False
                    logger.debug(
                        "iteration %d: Newton step failed, back to Blahut-Arimoto",
                        iterations + 1,
                    )
            extrapolated = False
            if final:
                nu, plain = plain, nu
            elif stepped is not None:
                nu, f, free, changes = stepped
                c, c_trial = c_trial, c
                iterations += 1
                maps = 0
                dead, alive, has_dead = support_masks(nu)
                logger.debug(
                    "iteration %d: Newton step, %d free atoms after %d active-set changes",
                    iterations,
                    free,
                    changes,
                )
            elif maps == 2:
                # Squared extrapolation from x0, x1 = G(x0) and nu = G(x1).  On
                # two atoms the law has one degree of freedom and no other
                # mode to amplify: a Newton-bound solve extrapolates too, and
                # a kept candidate starts the next cycle.
                x0, x1 = cycle
                np.subtract(x1, x0, out=r)
                np.subtract(nu, x1, out=v)
                v -= r
                ratio = math.sqrt((r @ r) / (v @ v))
                one_mode = np.count_nonzero(alive) == 2
                extrapolate = one_mode or not newton_bound
                alpha = -ratio if extrapolate and 1.0 < ratio < math.inf else -1.0
                while alpha < -1.0 and iterations + 2 <= max_iter:
                    np.multiply(v, alpha * alpha, out=trial)
                    trial += x0
                    np.multiply(r, -2.0 * alpha, out=c_trial)
                    trial += c_trial
                    # Never clipped: an atom set to zero never comes back.
                    if trial.min() >= 0.0:
                        f_trial = evaluate(trial, c_trial, strict=False)
                        iterations += 1
                        if f_trial <= f:
                            extrapolated = True
                            break
                    backtracks += 1
                    alpha = 0.5 * (alpha - 1.0)
                maps = 0
                if extrapolated:
                    # nu and its c stay in trial's buffers until the
                    # stabilizing map is known.
                    accepted += 1
                    nu, trial = trial, nu
                    c, c_trial = c_trial, c
                    f, f_kept = f_trial, f
                    maps = 0 if one_mode else -1
            if not (final or stepped is not None or extrapolated):
                cycle[maps], nu, plain = nu, plain, cycle[maps]
                f = evaluate(nu, c)
                iterations += 1
                maps += 1
                if jumped and f > f_kept:
                    # The stabilizing map raised F (by rounding): keep the
                    # law the candidate was extrapolated from.
                    rejected += 1
                    nu, trial = trial, nu
                    c, c_trial = c_trial, c
                    f = f_kept
                    maps = 0
            jumped = extrapolated

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
                    maps = 0
                    if not final:
                        f = evaluate(nu, c)
                dead, alive, has_dead = support_masks(nu)
            if final:
                nu_star = ProbabilityVector(nu / nu.sum(), labels=labels)
                # c_trial holds nothing the loop needs once the stop rule fired.
                evaluate(nu_star.weights, c_trial)
                distortion, rate, slack_final, _ = tilt.certificate(nu_star.weights, c_trial)
                if slack_final <= tol or iterations >= max_iter:
                    break
                # The law to be returned misses tol: it stands as a plain map.
                f = evaluate(nu, c)
                iterations += 1
                maps = 0
    if not handed_over:
        phase_1_ends("Blahut-Arimoto stops")
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
        converged=residual <= tol and slack_final <= tol,
    )
    if not point.converged:
        raise ConvergenceError(
            f"Blahut-Arimoto did not converge at beta={beta:g} within "
            f"{max_iter} iterations (residual {residual:.3e}, slack {slack_final:.3e})",
            partial=point,
        )
    return point


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
    ``nu0``.  A beta of 0 gives ``ba_fixed_point``'s beta -> 0+ limit.

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

    points: list[RDPoint] = []
    start = nu0
    for beta in betas:
        try:
            point = ba_fixed_point(mu, dist, float(beta), start, tol=tol, max_iter=max_iter)
        except ConvergenceError as err:
            logger.warning("degraded point at beta=%g: %s", beta, err)
            point = err.partial
        points.append(point)
        if warm_start:
            mixed = (1.0 - WARM_START_MIX) * point.nu_star.weights + WARM_START_MIX / dist.shape[1]
            start = ProbabilityVector(mixed / mixed.sum(), labels=point.nu_star.labels)

    curve = RDCurve(points)
    report = curve.shape_report()
    if report["max_distortion_increase"] > 1e-9 or report["max_rate_decrease"] > 1e-9:
        logger.warning("curve shape violates monotonicity: %s", report)
    return curve


def _boundary(u: np.ndarray, du: np.ndarray) -> float:
    """The step t at which u + t du first reaches zero; inf if it never does."""
    shrink = du < 0.0
    return float(np.min(u[shrink] / -du[shrink])) if shrink.any() else math.inf


def _stop_values(tilt: _Tilt, law: np.ndarray, c: np.ndarray) -> tuple[float, float, float, float]:
    """(D, R, slack, fixed-point residual) of the law at the tilt's beta; c goes to ``c``."""
    tilt.evaluate(law, c)
    distortion, rate, slack, _ = tilt.certificate(law, c)
    plain = law * c
    return distortion, rate, slack, float(np.abs(plain / plain.sum() - law).max())


def _saddle_point(
    mu: ProbabilityVector, dist: DistortionMatrix, target: float, band: float, eps: float,
    spread: float, max_iter: int,
) -> tuple[RDPoint, float, str]:
    """The interior-point solve of ``solve_point_for_distortion`` on the columns of ``dist``.

    Returns (point, complementarity gap, failure): ``point.converged`` says
    whether the stop rule was met within ``max_iter`` iterations, and
    ``failure`` names a Newton system that could not be solved.
    """
    # scipy.linalg takes about 60 ms to import; only a solve loads it.
    from scipy.linalg import lapack

    n = dist.shape[1]
    x = np.full(n, 1.0 / n)
    beta = 1.0 / spread
    c = np.empty(n)
    s = None
    iterations = 0
    failure = ""
    last_gap = math.inf
    while True:
        tilt = _Tilt(mu, dist, beta)
        mass = x.sum()
        law = x / mass
        distortion, rate, slack, residual = _stop_values(tilt, law, c)
        # c at x, whose mass is not 1 before the solve ends.
        c_x = c / mass
        miss = distortion - target
        if s is None:
            s = np.maximum(1.0 - c_x, 0.0) + 1e-2
            lam = max(-miss, 0.0) + 1e-2 * spread
        gap = float(x @ s) + beta * lam
        worst = max(gap, slack, residual, np.minimum(law, s).max())
        done = bool(abs(miss) <= band and worst <= eps)
        if done or iterations >= max_iter:
            break
        rho = tilt.dist.rho if tilt.full else tilt.dist.rho[tilt.live]
        ker = tilt.ker
        m, z = _gram(ker, tilt.mu, x)
        w = tilt.mu / z
        # 0 * inf guard: forbidden pairs carry no kernel mass.
        allowed = ker > 0.0
        loss = np.multiply(ker, rho, out=np.zeros_like(ker), where=allowed)
        d = (loss @ x) / z
        g = (w * d) @ ker - w @ loss
        dev = np.subtract(rho, d[:, None], out=np.zeros_like(ker), where=allowed)
        v = float(w @ ((ker * dev * dev) @ x))
        m.flat[:: n + 1] += s / x
        m.flat[:: n + 1] *= 1.0 + RIDGE
        factor, info = lapack.dpotrf(m)
        m_g = lapack.dpotrs(factor, g)[0]
        schur = float(g @ m_g) + v + lam / beta
        r_dual = c_x + s - 1.0

        def newton(r_comp: np.ndarray, r_beta: float):
            """(dx, ds, dbeta, dlambda) for the complementarity targets r_comp and r_beta."""
            m_r = lapack.dpotrs(factor, r_dual + r_comp / x)[0]
            d_beta = (miss + lam + r_beta / beta - g @ m_r) / schur
            dx = m_r + m_g * d_beta
            return dx, (r_comp - s * dx) / x, d_beta, (r_beta - lam * d_beta) / beta

        mean = gap / (n + 1)
        dx, ds, d_beta, d_lam = newton(-x * s, -beta * lam)
        primal = min(1.0, _boundary(np.append(x, beta), np.append(dx, d_beta)))
        dual = min(1.0, _boundary(np.append(s, lam), np.append(ds, d_lam)))
        affine = (x + primal * dx) @ (s + dual * ds)
        affine += (beta + primal * d_beta) * (lam + dual * d_lam)
        sigma = (affine / (n + 1) / mean) ** 3
        if gap >= last_gap:
            sigma = max(sigma, STALL_SIGMA)
        last_gap = gap
        dx, ds, d_beta, d_lam = newton(
            sigma * mean - x * s - dx * ds, sigma * mean - beta * lam - d_beta * d_lam
        )
        if info or not (np.isfinite(dx).all() and np.isfinite(ds).all() and math.isfinite(d_beta)):
            failure = "the Newton system is singular; "
            break
        cap = math.inf
        if d_beta:
            cap = (BETA_STEP - 1.0 if d_beta > 0 else 1.0 - 1.0 / BETA_STEP) * beta / abs(d_beta)
        reach = min(_boundary(x, dx), ROW_STEP * _boundary(z, ker @ dx))
        primal = min(1.0, BOUNDARY_STEP * reach, cap)
        dual = min(1.0, BOUNDARY_STEP * _boundary(np.append(s, lam), np.append(ds, d_lam)))
        x = x + primal * dx
        beta += primal * d_beta
        s = s + dual * ds
        lam += dual * d_lam
        iterations += 1
    logger.debug(
        "interior point ends after %d iterations: beta %.17g, |D - target| %.3e, "
        "gap %.3e, slack %.3e, residual %.3e",
        iterations, beta, abs(miss), gap, slack, residual,
    )
    point = RDPoint(
        beta=float(beta),
        distortion=distortion,
        rate=rate,
        nu_star=ProbabilityVector(law),
        iterations=iterations,
        fixpoint_residual=residual,
        certificate_slack=slack,
        converged=done,
    )
    return point, gap, failure


def solve_point_for_distortion(
    mu: ProbabilityVector,
    dist: DistortionMatrix,
    target: float,
    tol: float = 1e-9,
    max_iter: int = 100000,
) -> RDPoint:
    """The curve point at a prescribed distortion, by saddle-point solves on the columns in play.

    R(target) = max_{beta >= 0} min_{x >= 0} F_beta(x) + sum_j x_j - beta target is
    convex in x and concave in beta, with d/dbeta = D - target (Csiszar 1974).
    A primal-dual interior-point method (Mehrotra's predictor-corrector)
    solves 1 - c - s = 0, D - target + lambda = 0, x s = 0 and beta lambda = 0
    for x, s, beta, lambda >= 0.  Each iteration factors M = H + diag(s / x)
    (``_gram``, ridge RIDGE times each diagonal entry) and eliminates beta:

        dbeta = (r_beta - g'M^-1 r) / (g'M^-1 g + v + lambda / beta),  dx = M^-1 (r + g dbeta),

    with g = dc/dbeta = K'(w o d) - (K o rho)'w, w = mu / K x, d_i row i's
    conditional distortion and v = sum_i mu_i Var_i(rho) = -dD/dbeta, on a
    ``_Tilt`` at each iterate's beta.  It starts from the uniform law at
    beta = 1 / (D_max - d_floor).  Primal (x, beta) and dual (s, lambda)
    steps have their own lengths; the safeguards in the constants' comment
    stopped one random 5 x 5 instance in about 600 from cycling or driving
    beta to zero.  It stops once x / sum(x) meets ``ba_fixed_point``'s rule
    at the final beta, |D - target| <= 10 tol D_max, and the gap
    x.s + beta lambda, the slack, the residual and every min(x_j / sum(x), s_j)
    are at most min(tol, IP_TOL); without the last, small support atoms sit
    off c_j = 1 and beta misses next to the D = D_max plateau.

    The optimal law of a bounded source is discrete (Rose 1994), so the
    solve runs in rounds on a column set S, pricing the other columns as
    vertex-exchange methods do for this mixture likelihood (Lindsay 1983).
    S starts as the D_max column and START_COLUMNS columns evenly spaced by
    index, plus each live row's cheapest column when the target is not
    above S's distortion floor.  A round solves on rho[:, S], evaluates c on
    every column with one ``_Tilt`` at the returned beta and x_j = 0 off S,
    and adds each column with c_j > 1 + min(tol, IP_TOL) to S; the solve
    ends when none enters.  Off S, x_j = 0 zeroes the residual, the gap and
    min(x_j, s_j), and pricing bounds the slack, so the answer meets the
    rule on the full alphabet.  Once S would hold more than half of the
    columns it holds all of them, and a round on the whole alphabet needs
    no pricing: an alphabet of at most 2 START_COLUMNS - 1 columns takes
    one round.  D, R and the slack come from ``_Tilt.certificate`` on the
    full alphabet; ``iterations`` sums the interior-point iterations of
    every round, and ``max_iter`` bounds that sum.  A target inside a jump
    of D(beta) gets the mixture of the optima at the critical slope (the
    search over beta before this solve raised ConvergenceError there).

    Raises:
        InvalidInputError: target outside (d_floor, d_max), or tol <= 0.
        ConvergenceError: ``max_iter`` iterations missed the rule, or the
            Newton system could not be solved; ``.partial`` is the last
            round's point on the full alphabet, with ``converged=False``.
    """
    floor = d_floor(mu, dist)
    ceiling, column = d_max(mu, dist)
    if not floor < target < ceiling:
        raise InvalidInputError(
            f"target distortion {target:g} outside ({floor:g}, {ceiling:g}); "
            "R(D) = 0 for D > D_max and no finite-rate point exists at or "
            "below the distortion floor"
        )
    if tol <= 0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    band = 10.0 * tol * ceiling
    eps = min(tol, IP_TOL)
    n = dist.shape[1]
    spread = (ceiling if ceiling < math.inf else target) - floor
    cols = np.union1d(column, np.linspace(0, n - 1, START_COLUMNS).round().astype(int))
    if not target > d_floor(mu, DistortionMatrix(dist.rho[:, cols])):
        cols = np.union1d(cols, dist.rho[mu.weights > 0].argmin(axis=1))
    iterations = rounds = 0
    while True:
        if 2 * len(cols) > n:
            cols = np.arange(n)
        whole = len(cols) == n
        point, gap, failure = _saddle_point(
            mu, dist if whole else DistortionMatrix(dist.rho[:, cols]),
            target, band, eps, spread, max_iter - iterations,
        )
        solved, spent = point.converged, point.iterations
        iterations += spent
        rounds += 1
        enter = cols[:0]
        if not whole:
            law = np.zeros(n)
            law[cols] = point.nu_star.weights
            c = np.empty(n)
            distortion, rate, slack, residual = _stop_values(_Tilt(mu, dist, point.beta), law, c)
            enter = np.setdiff1d(np.flatnonzero(c > 1.0 + eps), cols)
            point = RDPoint(
                point.beta, distortion, rate, ProbabilityVector(law), iterations, residual, slack,
                solved and not len(enter),
            )
        point.iterations = iterations
        logger.debug(
            "round %d: %d of %d columns in play, %d enter, %d interior-point iterations",
            rounds, len(cols), n, len(enter), spent,
        )
        if not (solved and len(enter)) or iterations >= max_iter:
            break
        cols = np.union1d(cols, enter)
    if not point.converged:
        raise ConvergenceError(
            f"{failure}no point at distortion {target:g} within {iterations} interior-point "
            f"iterations (|D - target| {abs(point.distortion - target):.3e}, gap {gap:.3e}, "
            f"slack {point.certificate_slack:.3e}, residual {point.fixpoint_residual:.3e})",
            partial=point,
        )
    return point
