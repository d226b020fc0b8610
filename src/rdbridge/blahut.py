"""Blahut-Arimoto fixed-point solver, second-order fixed-slope solves and curve sweeps.

For a trade-off slope beta >= 0 the alternating update is

    pi_x(y)  proportional to  nu_t(y) exp(-beta rho(x, y))
    nu_{t+1}(y) = sum_x mu(x) pi_x(y) = nu_t(y) c_t(y)

with update factor c_t(y) = sum_x mu(x) exp(-beta rho(x, y)) / Z_t(x),
whose fixed point gives one point of the rate-distortion curve with
R = -sum_i mu_i ln(sum_j nu_j exp(-beta rho_ij)) - beta D.  All rates are
in nats; dR/dD = -beta under this sign convention.

The plain map G is accelerated by squared extrapolation (SQUAREM scheme
S3; Varadhan & Roland, Scand. J. Statist. 2008) in cycles of three
evaluations.  A cycle evaluates x0 and x1 = G(x0); x1's update factor
gives x2 = G(x1) without another.  With r = x1 - x0 and
v = x2 - 2 x1 + x0 it tries x' = x0 - 2 a r + a^2 v with
a = -max(1, |r| / |v|), and backtracks a to (a - 1) / 2 while x' has a
negative entry or raises F(nu) = -sum_x mu(x) ln Z(x) above F(x1).  A
kept x' holds no mass on an atom that x2 leaves empty, and its
evaluation gives G(x'), the next cycle's x0.  Once a reaches -1 with no
x' kept, x2 is evaluated as an ordinary plain map and starts the next
cycle.  The plain map never raises F, so F is nonincreasing along the
laws kept.  The stop rule of ``ba_fixed_point`` is tested at every
evaluated law, candidates included.

The optimal law at a fixed slope minimises f(x) = F(x) + sum_j x_j over
x >= 0, whose minimiser sums to 1: the mixture likelihood of the
Kiefer-Wolfowitz NPMLE.  Blahut-Arimoto is a first-order method on it and
slows down without bound at critical slopes and on sparse optimal laws,
so a solve with a tight tolerance (tol <= SECOND_ORDER_TOL) takes
second-order steps instead.  On two reconstruction columns f depends on
one weight and is minimised exactly, by safeguarded Newton steps in a
bisection bracket; a tight curve sweep on two columns steps all its
slopes in lockstep, on a stack of kernels.  On three or more it runs the
primal-dual interior-point method of the target solve below with beta
held fixed, as Koenker & Mizera (JASA 2014) solve the NPMLE.

A point at a target distortion is a saddle point over the law and beta
together, solved by the same interior-point method with beta free
(``solve_point_for_distortion``).  Every second-order solve, at a fixed
slope or at a target, runs one loop of rounds on the reachable
reconstruction columns (``_priced_rounds``).
"""
from __future__ import annotations

import contextlib
import functools
import logging
import math
from contextvars import ContextVar, copy_context
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .distortion import DistortionMatrix, _check_rows, d_floor, d_max
from .errors import ConvergenceError, InvalidInputError
from .measures import ProbabilityVector, _max, _min

logger = logging.getLogger(__name__)

# Reconstruction atoms below this mass (or below mu_min / 2n, if smaller)
# are pinned to exact zero and never revived by a Blahut-Arimoto step.
SUPPORT_FLOOR = 1e-300
# Uniform mass mixed into the previous optimum when warm-starting a sweep.
# Of 1e-6 to 3e-3, 3e-4 took the fewest Blahut-Arimoto evaluations on
# 257-point Gaussian sweeps at tol 5e-4, over beta 2 -> 10 and 0.5 -> 50.
WARM_START_MIX = 3e-4
# Solves with tol at or below SECOND_ORDER_TOL take second-order steps
# (an exact two-column solve, or the interior point) instead of
# Blahut-Arimoto.
SECOND_ORDER_TOL = 1e-4
# Ridge added to the interior-point Newton matrix: RIDGE times each
# diagonal entry.
RIDGE = 1e-12
# A second-order solve drives its optimality measures to min(tol, IP_TOL).
# An interior-point step goes at most BOUNDARY_STEP of the way to the
# boundary of x, s, beta, lambda >= 0 and at most ROW_STEP of the way to a
# zero row sum K x, and moves a free beta by a factor of at most BETA_STEP;
# after an iteration that did not lower the complementarity gap the
# centring parameter is at least STALL_SIGMA.
IP_TOL = 1e-9
BOUNDARY_STEP = 0.995
ROW_STEP = 0.9
BETA_STEP = 2.0
STALL_SIGMA = 0.5
# A target-distortion solve starts on the D_max column and this many
# columns evenly spaced by index.  On the 201-point uniform source at
# tol 1e-3, 16 ran about as fast and 64 a third slower.
START_COLUMNS = 32
# Kernel entries below KERNEL_FLOOR = sqrt(tiny) are flushed to zero, so
# the product of any two kept entries is a normal number.  A row partition
# sum below ROW_SUM_FLOOR is too small for the flushed entries to fall below
# its rounding error: the evaluation is then taken in the log domain.
KERNEL_FLOOR = math.sqrt(np.finfo(float).tiny)
ROW_SUM_FLOOR = KERNEL_FLOOR / np.finfo(float).eps


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
    """A beta-sorted collection of RDPoints, checked against their own certificates."""

    points: list[RDPoint]

    def __len__(self) -> int:
        return len(self.points)

    def distortions(self) -> np.ndarray:
        return np.array([p.distortion for p in self.points])

    def rates(self) -> np.ndarray:
        return np.array([p.rate for p in self.points])

    def excess(self, terms: int = 0) -> float:
        """The largest excess, in nats, of a point's supporting line over another point's rate.

        Point j's dual value d_j = R_j - ln(1 + max(slack_j, 0)) gives the line
        R(D) >= d_j - beta_j (D - D_j), and R(D_k) <= R_k (Csiszar 1974), converged
        or not: on exact values no pair (j, k) has d_j - beta_j (D_k - D_j) > R_k.
        Nothing is divided, so nearly coincident points need no filter.  With
        ``terms`` > 0 each pair's excess is first lowered by its rounding allowance
        u (m_j + m_k + beta_j (D_j + D_k)), u = terms * eps, where
        m_k = 1 + |R_k| + |d_k| + 2 beta_k D_k covers point k's own values (the
        slack's sums near 1, and R = F - beta D).  The lines are taken a block at a
        time, so memory stays linear in the number of points.
        """
        beta, d, r = np.array([p.beta for p in self.points]), self.distortions(), self.rates()
        # ``_dual_gap`` over the points, as one array call.  np.log1p and
        # math.log1p differ in the last bit on a few percent of slacks
        # (8,434 of 600,000 log-uniform on [1e-16, 10]), so a helper shared
        # in this array form would move the bytes of ``check``'s dual gap.
        dual = r - np.log1p(np.maximum([p.certificate_slack for p in self.points], 0.0))
        tilt = beta * d
        # lift_j - beta_j at_k - floor_k is the pair's excess less its allowance.
        lift, at, floor = dual + tilt, d, r
        if terms:
            u = terms * np.finfo(float).eps
            size = 1.0 + np.abs(r) + np.abs(dual) + 2.0 * tilt
            lift, at, floor = lift - u * (size + tilt), d * (1.0 + u), r + u * size
        worst, block = -math.inf, 1 + 2**20 // (len(beta) + 1)
        for lo in range(0, len(beta), block):
            j = slice(lo, lo + block)
            worst = max(worst, float((lift[j, None] - beta[j, None] * at - floor).max()))
        return worst


def _log_weights(w: np.ndarray) -> np.ndarray:
    out = np.full(w.shape, -np.inf)
    np.log(w, out=out, where=w > 0)
    return out


def _log_kernel(rho: np.ndarray, beta) -> np.ndarray:
    """log of exp(-beta rho); an array of positive slopes broadcasts against rho.

    At beta = 0 this is the beta -> 0+ limit: 0 on finite losses and
    -inf on +inf ones, so forbidden pairs stay forbidden at every slope.
    """
    if np.ndim(beta) == 0 and beta == 0:
        return np.where(np.isposinf(rho), -np.inf, 0.0)
    return -beta * rho


def _check_beta(beta: float | None) -> None:
    """Refuse a negative, NaN or +inf beta; None, the slope of a tilt not yet moved, passes."""
    if beta is not None and (beta < 0 or not math.isfinite(beta)):
        raise InvalidInputError(f"beta must be a finite nonnegative real, got {beta}")


def _check_compat(
    mu: ProbabilityVector,
    dist: DistortionMatrix,
    beta: float | None,
    nu: ProbabilityVector | None = None,
):
    _check_beta(beta)
    _check_rows(mu, dist)
    if nu is not None and len(nu) != dist.shape[1]:
        raise InvalidInputError(f"nu has {len(nu)} atoms but rho has {dist.shape[1]} columns")


def _check_budget(tol: float, max_iter: int) -> None:
    """Refuse a tolerance that is not positive and a budget below one iteration."""
    if tol <= 0:
        raise InvalidInputError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise InvalidInputError(f"max_iter must be >= 1, got {max_iter}")


def _dual_gap(slack: float) -> float:
    """ln(1 + max(slack, 0)): how far the scaled dual value falls below the rate at a law."""
    return math.log1p(max(slack, 0.0))


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log sum exp(a) along ``axis``, shifted by the maximum; -inf for all--inf lines."""
    top = np.max(a, axis=axis, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - top), axis=axis)) + np.squeeze(top, axis=axis)


def _flush_kernel(kernel: np.ndarray) -> None:
    """Set the entries of a kernel below KERNEL_FLOOR to zero, in place.

    Each flushed entry is below eps times ROW_SUM_FLOOR, so it moves a
    product of at least ROW_SUM_FLOOR by at most one rounding error, and
    the absolute error it leaves on c = (mu / Z) K is within eps; a smaller
    product sends the caller to the log domain.  Entries just above the
    smallest normal number, times a law weight, a row weight or each other,
    give subnormal products inside the matrix products, and those are slow:
    on the 257-point Gaussian at beta = 10, a product with the kernel
    flushed only below tiny took twice as long.
    """
    kernel[kernel < KERNEL_FLOOR] = 0.0


class _Tilt:
    """The tilted coupling pi_ij = mu_i x_j exp(-beta rho_ij) / Z_i of a law x.

    One tilt serves a problem (mu, rho) at every slope it is moved to.  It
    holds, on the rows where mu > 0, the shifted kernel
    K = exp(-beta rho~) of the loss relative to its row minimum,
    rho~_ij = rho_ij - min_j rho_ij, with row shift s = -beta min_j rho_ij:
    rows of zero source mass take no part in F, c, D or R.  Where every row
    attains a zero loss, K is exp(-beta rho) itself.  The live rows, mu and
    rho on them, the row minima, the rows that forbid every column, rho~
    and its largest finite entry do not depend on beta and are found once;
    so are ``reach`` and ``finite_rho``, on first use.  ``move`` takes the
    tilt to another beta in its own buffers; a tilt built without a beta
    forms its kernel at its first move.  beta times the largest finite
    entry of rho~ says whether any kernel entry can fall below
    KERNEL_FLOOR, and so whether ``move`` flushes.  ``evaluate`` gives
    Z = K x in ``z`` (ln Z - s in ``log_z``), c = (mu / Z) K and the slack
    max_j c_j - 1 in ``slack``, the one place the slack is formed;
    ``certificate`` adds D = (mu / Z) . ((K o rho) x) and R.  Kernel
    entries below KERNEL_FLOOR are zero, so no product of two kept entries
    is subnormal; a row sum below ROW_SUM_FLOOR, where the flushed entries
    could pass its rounding error, sends the pass to per-row logsumexp over
    -beta rho, formed on first use; ``logged``, the one record of it, then
    lists the slope.  Given ``nu``, the tilt is evaluated at nu at once,
    with c at nu in ``c``.

    Moved to a stack of K slopes, the tilt is K tilts side by side: the
    kernel is (K, m, n), every per-row buffer gains a leading slope axis,
    and ``evaluate`` and ``certificate`` broadcast over it, one law per
    slope.  Their contractions are batched matmuls, whose rows have the
    bits of the same product at each slope alone (a 2-D product over the
    stack would not), and each slope is scaled or taken in the log domain
    on its own.  One slope is a stack with no slope axis: its arrays are
    2-D, and ``certificate``, run once per solve, takes it through the same
    batched products.  ``move`` and ``evaluate`` run at every iteration and
    keep 2-D calls on one slope.  On one thread of a 2-core Xeon VM at
    n = 257, the batched certificate took 62 us against 57 us with 2-D
    calls, and a batched one-slope evaluation's products 24.0-24.3 us
    against 21.6-22.2 us.
    """

    def __init__(self, mu: ProbabilityVector, dist: DistortionMatrix, beta: float | None, nu=None):
        _check_compat(mu, dist, beta, nu)
        self.source, self.dist = mu, dist
        self.live = mu.weights > 0
        self.full = bool(self.live.all())
        # Copies of rho-sized arrays page-fault; only zero-mass rows need one.
        self.mu = mu.weights if self.full else mu.weights[self.live]
        self.rho = dist.rho if self.full else dist.rho[self.live]
        self._low = self.rho.min(axis=1)
        # Rows that forbid every column keep rho~ = +inf, a zero kernel row,
        # and s = -inf.
        self._dead = np.flatnonzero(np.isinf(self._low))
        self._low[self._dead] = 0.0
        # rho~, which is rho itself when every row attains zero, and its
        # largest finite entry: beta times it bounds how far any kernel
        # entry falls below its row maximum.
        self._rel = self.rho - self._low[:, None] if self._low.any() else self.rho
        self._top = float(self._rel.max())
        if self._top == math.inf:
            self._top = float(self._rel.max(where=np.isfinite(self._rel), initial=0.0))
        self.ker = np.empty_like(self.rho)
        self.shift, self.z, self.log_z, self.w = (np.empty(len(self.mu)) for _ in range(4))
        self.beta = None
        self.move(beta)
        if nu is not None:
            self.c = np.empty(len(nu))
            self.evaluate(nu.weights, self.c)

    def move(self, beta) -> None:
        """Move the tilt to slope beta, in its own buffers; a no-op where it is.

        A 1-D array of positive slopes moves it to that stack of slopes: its
        kernel, shift, ``z``, ``log_z`` and ``w`` then take a leading axis
        with one entry per slope.  One slope keeps a scalar beta and the
        2-D kernel that ``evaluate``'s 2-D calls read: a target solve moves
        the tilt at every iteration, and as a stack of one these products
        took 69-70 us against 66-68 us at n = 257 (same machine as above).
        """
        stack = np.ndim(beta) == 1
        if not stack and self.ker.ndim == 2 and beta == self.beta:
            return
        shape = np.shape(beta) + self.rho.shape
        if self.ker.shape != shape:
            self.ker = np.empty(shape)
            self.shift, self.z, self.log_z, self.w = (np.empty(shape[:-1]) for _ in range(4))
        self.beta, self._log_phi = beta, None
        ker = self.ker
        # beta against the rows and against the kernel; on one slope it
        # stays a scalar, the cheaper operand.
        rows, cells = (beta[:, None], beta[:, None, None]) if stack else (beta, beta)
        np.multiply(self._low, -rows, out=self.shift)
        if self._dead.size:
            self.shift[..., self._dead] = -np.inf
        if not stack and beta == 0:
            # The beta -> 0+ limit of ``_log_kernel``: 1 on finite losses
            # and 0 on +inf ones.
            np.isfinite(self._rel, out=ker)
            return
        np.multiply(self._rel, -cells, out=ker)
        # On a stack the deepest slope decides: each step below leaves
        # every entry of the other slopes as it is.
        depth = (float(beta.max()) if stack else beta) * self._top
        if depth > 700.0:
            # exp leaves its vector path where results underflow; entries
            # this far down are flushed anyway.
            np.maximum(ker, -700.0, out=ker)
        np.exp(ker, out=ker)
        if depth > 350.0:
            # Entries more than 354 nats below the row maximum (below
            # KERNEL_FLOOR) are flushed: each moves a row sum of at least
            # ROW_SUM_FLOOR by less than its rounding error, and a smaller
            # row sum falls back to logsumexp.  Within 350 nats none is.
            _flush_kernel(ker)

    @cached_property
    def reach(self) -> np.ndarray:
        """The columns some live row reaches at a finite loss; every column when none is."""
        reached = np.isfinite(self.rho).any(axis=0)
        return np.flatnonzero(reached) if reached.any() else np.arange(len(reached))

    @cached_property
    def finite_rho(self) -> np.ndarray:
        """``rho`` with +inf read as 0: the one 0 * inf guard of K o rho (K is 0 there)."""
        return self.rho if self.rho.max() < math.inf else np.where(np.isinf(self.rho), 0.0, self.rho)

    def log_phi(self) -> np.ndarray:
        """-beta rho on the rows of positive mass, per slope on a stack, formed on first use."""
        if self._log_phi is None:
            beta = self.beta if self.ker.ndim == 2 else self.beta[:, None, None]
            self._log_phi = _log_kernel(self.rho, beta)
        return self._log_phi

    def evaluate(self, x: np.ndarray, c: np.ndarray, strict: bool = True):
        """The slack max_j c_j - 1 at x, also kept in ``slack``; c at x goes to ``c``.

        ``z`` then holds K x and ``log_z`` holds ln Z - s, so that
        F(x) = -sum_i mu_i ln Z_i, less the constant sum_i mu_i s_i, is
        -mu . ``log_z``.  When a row partition mass is zero a strict call
        raises, naming the row; otherwise the slack is +inf, ``log_z`` is
        -inf (F is +inf) and c is left undefined.  ``logged`` lists the
        slopes taken in the log domain: () for a one-slope tilt, (k,) for
        slope k of a stack.  On a stack x and c hold one law per slope, the
        slack is an array over the slopes, and every product is a batched
        matmul, whose rows have the bits of the same product on a tilt at
        that slope alone.  On one slope the products stay 2-D: this runs at
        every iteration, where a batched call costs a tenth more.
        """
        z = self.z
        if z.ndim == 1:
            np.matmul(self.ker, x, out=z)
            # argmin, not a min reduction: at n = 201 it costs a third as much.
            self.logged = [] if z[z.argmin()] >= ROW_SUM_FLOOR else [()]
            if not self.logged:
                np.log(z, out=self.log_z)
                np.divide(self.mu, z, out=self.w)
                np.matmul(self.w, self.ker, out=c)
        else:
            np.matmul(self.ker, x[:, :, None], out=z[:, :, None])
            scaled = z.min(axis=1) >= ROW_SUM_FLOOR
            self.logged = [] if scaled.all() else [(k,) for k in np.flatnonzero(~scaled)]
            # A slope taken in the log domain below gets its values there;
            # row sums of 1 here keep its scaled ones finite until then.
            scale = np.where(scaled[:, None], z, 1.0) if self.logged else z
            np.log(scale, out=self.log_z)
            np.divide(self.mu, scale, out=self.w)
            np.matmul(self.w[:, None, :], self.ker, out=c[:, None, :])
        for k in self.logged:
            # The certificate's product over every slope reads w; zero
            # here, it stays finite where the log domain's D replaces it.
            self.w[k] = 0.0
            log_phi = self.log_phi()[k]
            log_z = _logsumexp(log_phi + _log_weights(x[k]), axis=1)
            zero = np.isneginf(log_z)
            if zero.any():
                if not strict:
                    self.log_z.fill(-math.inf)
                    self.slack = math.inf
                    return self.slack
                bad = int(np.flatnonzero(self.live)[zero][0])
                raise InvalidInputError(
                    f"source row {bad} has zero partition mass: every reconstruction "
                    "with positive nu weight is forbidden for it"
                )
            np.subtract(log_z, self.shift[k], out=self.log_z[k])
            log_c = _logsumexp(np.log(self.mu)[:, None] + log_phi - log_z[:, None], axis=0)
            # Columns of zero mass can carry an unbounded c.
            with np.errstate(over="ignore"):
                np.exp(log_c, out=c[k])
        self.slack = float(_max(c)) - 1.0 if c.ndim == 1 else _max(c, axis=1) - 1.0
        return self.slack

    def certificate(self, x: np.ndarray) -> tuple:
        """(D, R, slack) of the law x that ``evaluate`` saw last.

        These are the values ``rd_value_from_nu`` and ``dual_certificate``
        document: floats on one slope, and lists with one per slope on a
        stack, whose x holds one law per slope.  One slope is a stack with
        no slope axis: D = (mu / Z) . ((K o rho) x) is a batched matmul
        either way, and a slope taken in the log domain gets its D from the
        coupling there.
        """
        log_z = self.log_z + self.shift
        loss = (self.ker * self.finite_rho) @ x[..., None]
        distortion = (self.w[..., None, :] @ loss).reshape(self.z.shape[:-1])
        for k in self.logged:
            pi = np.exp(self.log_phi()[k] + _log_weights(x[k]) - log_z[k][:, None])
            distortion[k] = self.mu @ (pi * self.finite_rho).sum(axis=1)
        # The + 0.0 turns a -0.0 at the zero-rate endpoint into plain 0.0.
        rate = -(self.mu @ log_z[..., None])[..., 0] - self.beta * distortion + 0.0
        return distortion.tolist(), rate.tolist(), np.asarray(self.slack).tolist()


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
    tilt = _Tilt(mu, dist, beta, nu)
    distortion, rate, _ = tilt.certificate(nu.weights)
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
                   = R - ln(1 + max(slack, 0))

    lower-bounds the optimal rate at the distortion D induced by nu; R is
    the parametric rate at nu (``rd_value_from_nu``).

    Rows of rho need not attain zero: adding m_i to row i scales alpha_i
    by exp(beta m_i) and leaves every c_j, the slack and the dual value.
    Where 1 / Z_i overflows (every allowed loss of row i above about
    709 / beta nats) alpha_i is +inf, without a warning; a row of zero
    source mass takes no part in c, the slack or the dual value, so it can
    carry such an alpha_i next to a finite certificate.

    Returns:
        (alpha, slack, dual_value) with slack = max_j c_j - 1.
    """
    tilt = _Tilt(mu, dist, beta, nu)
    _, rate, slack = tilt.certificate(nu.weights)
    log_z = np.empty(len(mu))
    log_z[tilt.live] = tilt.log_z + tilt.shift
    if not tilt.full:
        dead = ~tilt.live
        log_z[dead] = _logsumexp(_log_kernel(dist.rho[dead], beta) + _log_weights(nu.weights), axis=1)
    with np.errstate(over="ignore"):
        return np.exp(-log_z), slack, rate - _dual_gap(slack)


def _blahut_arimoto(
    tilt: _Tilt, nu0: ProbabilityVector | None, tol: float, max_iter: int
) -> RDPoint:
    """The Blahut-Arimoto solve of ``ba_fixed_point`` at the tilt's beta, from nu0 (or uniform).

    Returns the point, unlabelled, whether or not it converged.
    """
    n = tilt.ker.shape[1]
    nu = np.full(n, 1.0 / n) if nu0 is None else nu0.weights.copy()
    start = nu > 0
    c, c_trial = np.empty(n), np.empty(n)
    # The evaluated laws of the current cycle: x0, then x1 = G(x0).
    cycle = [nu]
    iterations = accepted = backtracks = 0
    # A plain map leaves each live row i an atom >= mu_i / n on the columns
    # it reaches, so no pin below this floor strands a row.
    floor = min(SUPPORT_FLOOR, float(_min(tilt.mu)) / (2 * n))

    def evaluate(law: np.ndarray, c: np.ndarray, strict: bool = True) -> tuple[float, float]:
        """(F, slack) at the law, its c to ``c``, once its atoms below ``floor`` are pinned to zero."""
        dying = (law < floor) & (law > 0)
        if dying.any():
            logger.debug(
                "iteration %d: pinned %d reconstruction atoms below %.0e",
                iterations, np.count_nonzero(dying), floor,
            )
            law[dying] = 0.0
        slack = tilt.evaluate(law, c, strict)
        return -float(tilt.mu @ tilt.log_z), slack

    # Every overflow, underflow and 0 * inf in the loop is either masked
    # out (empty columns) or lands in a candidate whose F is not finite,
    # which is never kept.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f, slack = evaluate(nu, c)
        iterations += 1
        while True:
            # c, f and slack belong to nu, and ``iterations`` evaluations
            # are spent.
            plain = nu * c
            total = plain.sum()
            if not math.isfinite(total):
                # Empty columns can carry an infinite update factor (their
                # dual constraint is violated without bound); they hold zero
                # mass, and no Blahut-Arimoto step revives them.
                plain[nu == 0] = 0.0
                total = plain.sum()
            plain /= total
            final = False
            if slack <= tol or iterations >= max_iter:
                # The residual only matters when the stop rule can fire or
                # the budget ends.
                residual = float(np.abs(plain - nu).max())
                final = residual <= tol or iterations >= max_iter
            if final or len(cycle) < 2:
                # The plain map of nu: the answer once its own slack meets
                # tol, and otherwise the next law of the cycle, or the
                # start of a new one after x1 or a kept candidate.
                nu = plain
                cycle = cycle + [nu] if len(cycle) < 2 else [nu]
                f, slack = evaluate(nu, c)
                if final and (slack <= tol or iterations >= max_iter):
                    break
                iterations += 1
                continue
            # Squared extrapolation from x0, x1 = nu and x2 = plain, which is
            # evaluated only if no candidate is kept.
            x0 = cycle[0]
            r = nu - x0
            v = plain - nu - r
            ratio = math.sqrt((r @ r) / (v @ v))
            alpha = -ratio if 1.0 < ratio < math.inf else -1.0
            while alpha < -1.0 and iterations < max_iter:
                trial = v * (alpha * alpha) + x0 + r * (-2.0 * alpha)
                # Never clipped: an atom set to zero never comes back.
                if trial.min() >= 0.0:
                    # An atom the plain maps empty by x2 stays empty: the
                    # candidate's (1 + alpha)^2 x0_j there is an artefact of
                    # the extrapolation.
                    trial[plain == 0] = 0.0
                    f_trial, slack_trial = evaluate(trial, c_trial, strict=False)
                    iterations += 1
                    if f_trial <= f:
                        break
                backtracks += 1
                alpha = 0.5 * (alpha - 1.0)
            else:
                # No candidate is kept: x2 starts the next cycle, unless the
                # budget ended and x2 is the answer.
                if iterations < max_iter:
                    nu = plain
                    cycle = [nu]
                    f, slack = evaluate(nu, c)
                    iterations += 1
                continue
            # The candidate's evaluation gives its plain map, the next
            # cycle's x0.
            accepted += 1
            nu, f, slack, c, c_trial = trial, f_trial, slack_trial, c_trial, c
            cycle = []
    logger.debug(
        "iteration %d: Blahut-Arimoto stops; %d extrapolations accepted, %d backtracks",
        iterations, accepted, backtracks,
    )
    # Pinned atoms, and atoms that a plain map sent straight to zero.
    shrunk = np.count_nonzero(start & (nu == 0.0))
    if shrunk:
        logger.debug("support shrank by %d atoms in total", shrunk)
    return _answer(tilt, nu, iterations, residual, residual <= tol and slack <= tol)[0]


def _two_columns(tilt: _Tilt, eps: float, max_iter: int) -> tuple:
    """The fixed-slope solve of ``ba_fixed_point`` on one or two columns, at each of the tilt's slopes.

    On two columns the law is (t, 1 - t), and t maximises
    g(t) = sum_i mu_i ln(t a_i + (1 - t) b_i), where a and b are the
    columns of the ``_Tilt`` kernel.  g is concave, and the signs of g'
    seen so far bracket its maximiser.  From t = 1/2 each step is the
    Newton step on g' = 0, whose row sums t a + (1 - t) b are the
    evaluation's K x; one that leaves the bracket goes to the end
    t = 1 or t = 0 it passed, once, if every row sum is positive there,
    and to the bracket's midpoint otherwise.  A Newton step longer than
    half the step before it goes to the midpoint too: next to an end whose
    row sum is tiny, Newton steps only double.  Each step makes one
    evaluation, and the residual is formed only where it can decide the
    stop.  Steps stop once the slack, the residual and every
    min(x_j, 1 - c_j) at the law are at most ``eps`` (without the last, a
    small atom's c_j may sit below 1 by ``eps`` over its mass), or after
    ``max_iter`` of them.  One column is the trivial law, with no step.

    On a stack of slopes every slope keeps its own bracket, ends and last
    step, and the slopes step in lockstep, each until its own rule stops
    it: one evaluation of the stack serves every slope still stepping, and
    a stopped slope's law, and so its values, stay as they are.  A tilt at
    one slope is a stack with no slope axis.  Returns (law, iterations,
    residual, converged), whether or not it converged: Python scalars on
    one slope, lists over the slopes on a stack.  The law, which the tilt
    evaluated last, is not certified here.
    """
    n = tilt.ker.shape[-1]
    slopes = tilt.z.shape[:-1]
    x, c = np.full(slopes + (n,), 1.0 / n), np.empty(slopes + (n,))
    lo, hi, last = np.zeros(slopes), np.ones(slopes), np.ones(slopes)
    a, b = tilt.ker[..., 0], tilt.ker[..., -1]
    d = a - b
    # The ends t = 0 and t = 1 that may still be tried, and whether every
    # row sum is positive there (the ends' row sums are columns b and a).
    untried = np.ones(slopes + (2,), bool)
    positive = np.stack([_min(b, axis=-1) > 0.0, _min(a, axis=-1) > 0.0], axis=-1)
    iterations, residual = np.zeros(slopes, int), np.full(slopes, math.inf)
    stepping, done = np.ones(slopes, bool), np.zeros(slopes, bool)
    while True:
        final = stepping & ((n == 1) | (iterations >= max_iter))
        slack = tilt.evaluate(x, c)
        near = stepping & ((slack <= eps) | final)
        residual = np.where(stepping, math.inf, residual)
        if near.any():
            residual[near] = _residual(x[near], c[near])
        stop = stepping & (slack <= eps) & (residual <= eps)
        stop &= ((x <= eps) | (c >= 1.0 - eps)).all(axis=-1)
        done |= stop
        stepping &= ~(stop | final)
        if not stepping.any():
            break
        t = x[..., 0]
        # Where a row sum is tiny the curvature overflows, and a step that
        # is not finite goes to the bracket.
        with np.errstate(over="ignore", invalid="ignore"):
            ratio = d / tilt.z
            # Batched, so that each slope's sums have the bits of its own
            # dot products.
            slope = (tilt.mu @ ratio[..., None])[..., 0]
            step = t + slope / (tilt.mu @ (ratio * ratio)[..., None])[..., 0]
        rising = slope > 0.0
        lo = np.where(stepping & rising, t, lo)
        hi = np.where(stepping & ~rising, t, hi)
        inside = (lo < step) & (step < hi)
        end = np.where(step >= hi, hi, lo)
        tried = (stepping & ~inside)[..., None] & untried & (end[..., None] == (0.0, 1.0))
        untried &= ~tried
        mid = 0.5 * (lo + hi)
        step = np.where(
            inside,
            np.where(np.abs(step - t) > 0.5 * last, mid, step),
            np.where((tried & positive).any(axis=-1), end, mid),
        )
        last = np.where(stepping, np.abs(step - t), last)
        x = np.where(stepping[..., None], np.stack([step, 1.0 - step], axis=-1), x)
        iterations += stepping
    return x, iterations.tolist(), residual.tolist(), done.tolist()


# The tilt of an ``rd_curve`` sweep, set in the context its per-slope
# calls run in (Blahut-Arimoto and interior-point sweeps, and a beta = 0
# endpoint): ``ba_fixed_point`` moves it to its slope instead of building
# its own.
_SWEEP: ContextVar[_Tilt | None] = ContextVar("sweep", default=None)


def ba_fixed_point(
    mu: ProbabilityVector,
    dist: DistortionMatrix,
    beta: float,
    nu0: ProbabilityVector | None = None,
    tol: float = 1e-9,
    max_iter: int = 5000,
) -> RDPoint:
    """Solve for the optimal reconstruction law at a single trade-off slope.

    With ``tol > SECOND_ORDER_TOL``, Blahut-Arimoto runs from ``nu0`` in
    the extrapolation cycles of the module docstring around the plain
    update nu <- nu * c (renormalized).  ``iterations`` counts
    update-factor evaluations (two matrix-vector products each: the start
    law, every plain update evaluated and every candidate tried), and
    ``max_iter`` bounds that count.  The stop rule is that of the plain
    iteration, tested at every evaluated law, candidates included: the
    fixed-point residual (the sup-norm change the plain update makes to
    the law) and the dual certificate slack, both at that law, must fall
    to ``tol``; the returned law is then the plain update of that law, as
    it is of the last law kept when the budget runs out, and its own slack
    must be at most ``tol`` too, or the update stands as an ordinary one.
    Where no candidate is kept the solve ends at the law the plain
    iteration ends at.  Atoms below ``SUPPORT_FLOOR`` (or mu_min / 2n) are
    pinned to exact zero before a law is evaluated, and never revived.

    With ``tol <= SECOND_ORDER_TOL`` the solve takes second-order steps
    from the uniform law, whatever ``nu0`` (which then gives only the
    labels), in the rounds of ``_priced_rounds``, the loop every
    second-order solve runs on the reachable columns; starting on every
    column, it takes one round, and unreachable columns get zero mass.  On
    one or two reachable columns the round is the exact solve of
    ``_two_columns``, and on three or more the interior-point core of
    ``solve_point_for_distortion`` with beta held fixed (no beta row, and
    lambda = 0).  Both stop once the slack and the fixed-point residual of
    the law are at most min(tol, IP_TOL), the two-column solve once every
    min(x_j, 1 - c_j) is too, and the interior point once its gap x.s and
    every min(x_j / sum(x), s_j) are.  ``iterations`` counts
    the steps (factorizations, on the interior point), and ``max_iter``
    bounds them.  An interior-point Newton system that cannot be solved
    ends the solve at the iterate it would have moved.  One DEBUG record
    per solve names the path and gives its iterations, slack and residual,
    after the round's own record.

    At beta = 0 the answer is the beta -> 0+ limit.  With D_max finite it
    is the zero-rate end of the curve, whatever ``nu0``: all mass on the
    column attaining D_max (the smallest index on ties), D = D_max, R = 0
    and 0 iterations.  Otherwise the solve iterates as at any slope.

    Every evaluation, the final certificate included, is one ``_Tilt``'s:
    two matrix products with a kernel cached once per problem (inside
    ``rd_curve``, each call moves the sweep's tilt to its slope), whose
    entries below KERNEL_FLOOR are zero, or per-row logsumexp in the rare
    event a row sum falls below ROW_SUM_FLOOR.  The two-column solve is
    the stacked one of ``rd_curve``'s tight sweeps, run on one slope.

    Args:
        nu0: initial reconstruction law of a Blahut-Arimoto solve
            (defaults to the uniform law, unlabelled); must be strictly
            positive on its intended support.  Its labels label the answer.
        tol: joint threshold for the fixed-point residual and slack.
        max_iter: iteration budget, at least 1.

    Raises:
        ConvergenceError: the stop rule was not met within the budget, or
            an interior-point Newton system could not be solved; the
            partial RDPoint is attached as ``.partial``.
    """
    _check_compat(mu, dist, beta, nu0)
    _check_budget(tol, max_iter)
    tilt = _SWEEP.get()
    if tilt is None or tilt.source is not mu or tilt.dist is not dist:
        tilt = _Tilt(mu, dist, beta)
    tilt.move(beta)
    n, failure = dist.shape[1], ""
    ceiling, col = d_max(mu, dist) if beta == 0 else (math.inf, 0)
    if ceiling < math.inf:
        law = (np.arange(n) == col).astype(float)
        tilt.evaluate(law, np.empty(n))
        [point] = _answer(tilt, law, 0, 0.0, True)
    elif tol > SECOND_ORDER_TOL:
        how = "Blahut-Arimoto"
        point = _blahut_arimoto(tilt, nu0, tol, max_iter)
    else:
        point, _, failure, how = _priced_rounds(tilt, beta, min(tol, IP_TOL), max_iter)
        _log_fixed_slope(point, how)
    point.nu_star.labels = None if nu0 is None else nu0.labels  # validated with nu0
    if not point.converged:
        raise _unconverged(point, failure + how, max_iter)
    return point


def _log_fixed_slope(point: RDPoint, how: str) -> None:
    """The DEBUG record of a second-order fixed-slope solve, after its round's own."""
    logger.debug(
        "fixed slope %.17g: %s ends after %d iterations, slack %.3e, residual %.3e",
        point.beta, how, point.iterations, point.certificate_slack, point.fixpoint_residual,
    )


def _unconverged(point: RDPoint, how: str, max_iter: int) -> ConvergenceError:
    """The error of a fixed-slope solve that missed its stop rule, the point attached."""
    return ConvergenceError(
        f"{how} did not converge at beta={point.beta:g} within {max_iter} "
        f"iterations (residual {point.fixpoint_residual:.3e}, "
        f"slack {point.certificate_slack:.3e})",
        partial=point,
    )


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
    default) each Blahut-Arimoto solve starts from the previous optimum
    mixed with ``WARM_START_MIX`` uniform mass; without it every solve
    starts from ``nu0``.  Solves with ``tol <= SECOND_ORDER_TOL`` start
    from the uniform law either way (``ba_fixed_point``).  A beta of 0
    gives ``ba_fixed_point``'s beta -> 0+ limit.  Each point is the
    ``ba_fixed_point`` answer at its slope, bit for bit, and the whole
    schedule is checked, with ``nu0``, ``tol`` and ``max_iter``, before any
    slope is solved (so a NaN or +inf slope is refused up front).  The
    sweep builds one ``_Tilt``, whose kernel is formed at the first slope
    it is moved to.  A tight sweep (``tol <= SECOND_ORDER_TOL``) on at most
    two columns, all reachable, moves it to the stack of its positive
    slopes, solves them in one ``_two_columns`` call, in lockstep, and
    builds their points in one ``_answer`` call, as a single solve does;
    it labels each point with ``nu0``'s labels and logs each slope's round
    and fixed-slope DEBUG records in schedule order.  Every other slope, a
    beta = 0 endpoint included, is one ``ba_fixed_point`` call, which moves
    the tilt to its own slope.

    Points whose solve exhausts its budget are kept with
    ``converged=False`` rather than aborting the sweep, each with a
    WARNING that quotes the error ``ba_fixed_point`` would raise.  The
    sweep logs a WARNING when some point's supporting line passes another
    point's rate by more than their rounding allowance
    (``RDCurve.excess``).
    """
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 1 or betas.size == 0:
        raise InvalidInputError("betas must be a non-empty 1-D array")
    if np.any(np.diff(betas) <= 0):
        raise InvalidInputError("betas must be strictly increasing")
    # The smallest slope is negative if any is; the largest is NaN or +inf if any is.
    _check_beta(float(betas.min()))
    _check_beta(float(betas.max()))
    _check_compat(mu, dist, None, nu0)
    _check_budget(tol, max_iter)

    n = dist.shape[1]
    points, start = [], nu0
    # A slope outside the stack is a ba_fixed_point call of its own, which
    # perfbench's tracer counts, run in a context of the sweep's own that
    # holds the sweep's tilt; the caller's context never sees it.
    sweep, tilt = copy_context(), _Tilt(mu, dist, None)
    sweep.run(_SWEEP.set, tilt)
    tight = tol <= SECOND_ORDER_TOL and n <= 2 and len(tilt.reach) == n
    stack = betas[betas > 0] if tight else betas[:0]
    for beta in betas[: len(betas) - len(stack)]:
        try:
            point = sweep.run(ba_fixed_point, mu, dist, float(beta), start, tol=tol, max_iter=max_iter)
        except ConvergenceError as err:
            logger.warning("degraded point at beta=%g: %s", beta, err)
            point = err.partial
        points.append(point)
        if warm_start:
            mixed = (1.0 - WARM_START_MIX) * point.nu_star.weights + WARM_START_MIX / n
            start = ProbabilityVector(mixed / mixed.sum(), labels=point.nu_star.labels)
    if len(stack):
        how = "the two-column solve"
        tilt.move(stack)
        for point in _answer(tilt, *_two_columns(tilt, min(tol, IP_TOL), max_iter)):
            point.nu_star.labels = None if nu0 is None else nu0.labels
            # The records of the one round that a ba_fixed_point call logs.
            logger.debug(_ROUND, 1, n, n, 0, point.iterations)
            _log_fixed_slope(point, how)
            if not point.converged:
                err = _unconverged(point, how, max_iter)
                logger.warning("degraded point at beta=%g: %s", point.beta, err)
            points.append(point)

    curve = RDCurve(points)
    # Every D, R and slack is formed by sums over the rows and columns.
    if curve.excess(terms=sum(dist.shape)) > 0.0:
        logger.warning("curve points break a supporting line: excess %.3g nats", curve.excess())
    return curve


def _boundary(u: np.ndarray, du: np.ndarray, v: float = 0.0, dv: float = 0.0) -> float:
    """The step t at which u + t du, or the scalar v + t dv, first reaches zero; inf if never.

    The minimum of u / -du over du < 0 is formed as -max(u / du) over the
    same entries, which divides by no zero.
    """
    neg = du < 0.0
    t = -float(np.maximum.reduce(np.divide(u, du, out=None, where=neg), where=neg, initial=-math.inf))
    return min(t, v / -dv) if dv < 0.0 else t


def _residual(law: np.ndarray, c: np.ndarray):
    """The fixed-point residual of the law, given its c: the sup-norm change of its plain map.

    Given a stack of laws (one per row), one residual per law.
    """
    plain = law * c
    residual = _max(np.abs(plain / np.add.reduce(plain, axis=-1, keepdims=True) - law), axis=-1)
    return residual if law.ndim > 1 else float(residual)


def _answer(tilt: _Tilt, law: np.ndarray, iterations, residual, converged) -> list[RDPoint]:
    """The unlabelled points of the laws that ``tilt`` evaluated last, one per slope.

    Every solve returns through here, the beta = 0 endpoint and a tight
    sweep's stack of slopes included: D and R are certified once, at the
    returned law, beside the slack its evaluation formed.  On one slope
    the law is 1-D and the other values are scalars, and the list holds
    one point; on a stack the law holds one row per slope and each other
    value is a list over the slopes.
    """
    distortion, rate, slack = tilt.certificate(law)
    beta = np.asarray(tilt.beta, dtype=float).tolist()
    values = (beta, distortion, rate, iterations, residual, slack, converged)
    # On a stack each value is a list over the slopes; a scalar is a list of one.
    rows = zip(law.reshape(-1, law.shape[-1]), *(v if isinstance(v, list) else [v] for v in values))
    return [RDPoint(b, d, r, ProbabilityVector(x), i, e, s, ok) for x, b, d, r, i, e, s, ok in rows]


def _saddle_point(
    tilt: _Tilt, eps: float, max_iter: int, target: float | None = None, band: float = 0.0,
    spread: float = 0.0,
) -> tuple[np.ndarray, int, float, bool, float, str]:
    """The interior-point solve on the tilt's columns, from the uniform law at the tilt's beta.

    With a ``target`` it is the saddle-point solve of
    ``solve_point_for_distortion``, and beta moves: the tilt is moved to
    each iterate's beta and ends at the returned one.  Without one, beta
    stays fixed: the beta row is left out and lambda = 0, so that the solve
    is the fixed-slope one of ``ba_fixed_point``.  Returns (law,
    iterations, residual, converged, complementarity gap, failure),
    uncertified, with the law the tilt evaluated last: ``converged`` says
    whether the stop rule was met within ``max_iter`` iterations, and
    ``failure`` names a Newton system that could not be solved.
    """
    # scipy.linalg takes about 60 ms to import; only a solve loads it.
    from scipy.linalg import lapack

    free = target is not None
    beta, ker, root_mu = tilt.beta, tilt.ker, np.sqrt(tilt.mu)
    n = ker.shape[1]
    x = np.full(n, 1.0 / n)
    c = np.empty(n)
    s = None
    lam = miss = 0.0
    iterations = 0
    failure = ""
    last_gap = math.inf
    # A and M = A'A are written in place, and the diagonal of M through a view.
    a, m = np.empty_like(ker), np.empty((n, n))
    diagonal = m.reshape(-1)[:: n + 1]
    if free:
        rho, loss = tilt.finite_rho, np.empty_like(ker)
    while True:
        if free and iterations:
            tilt.move(beta)
        mass = x.sum()
        law = x / mass
        slack = tilt.evaluate(law, c)
        # K x and c at x, whose mass is not 1 before the solve ends.
        z, c_x = tilt.z * mass, c / mass
        if free:
            # |D - target| is part of the stop rule; d_i is row i's
            # conditional distortion.
            np.multiply(ker, rho, out=loss)
            d = (loss @ x) / z
            miss = float(tilt.mu @ d) - target
        if s is None:
            s = np.maximum(1.0 - c_x, 0.0) + 1e-2
            if free:
                lam = max(-miss, 0.0) + 1e-2 * spread
        gap = float(x @ s) + beta * lam
        # The residual is formed only where it decides the stop.
        done = bool(abs(miss) <= band and max(gap, slack, np.minimum(law, s).max()) <= eps)
        if done or iterations >= max_iter:
            residual = _residual(law, c)
            done = done and residual <= eps
            if done or iterations >= max_iter:
                break
        # The Hessian H = A'A of F at x, with A = diag(sqrt(mu) / K x) K.
        np.multiply(ker, (root_mu / z)[:, None], out=a)
        np.matmul(a.T, a, out=m)
        if free:
            w = tilt.mu / z
            g = (w * d) @ ker - w @ loss
            # v = sum_i w_i ((K o rho o rho) x)_i - sum_i mu_i d_i^2.
            loss *= rho
            v = float(w @ (loss @ x)) - float(tilt.mu @ (d * d))
        diagonal += s / x
        diagonal *= 1.0 + RIDGE
        # M >= 0 entrywise: entries this far below its largest diagonal
        # entry only make the factor's products underflow.
        m[m < KERNEL_FLOOR * diagonal.max()] = 0.0
        factor, info = lapack.dpotrf(m)
        if free:
            m_g = lapack.dpotrs(factor, g)[0]
            schur = float(g @ m_g) + v + lam / beta
        r_dual = c_x + s - 1.0

        def newton(r_comp: np.ndarray, r_beta: float):
            """(dx, ds, dbeta, dlambda) for the complementarity targets r_comp and r_beta."""
            m_r = lapack.dpotrs(factor, r_dual + r_comp / x)[0]
            if not free:
                return m_r, (r_comp - s * m_r) / x, 0.0, 0.0
            d_beta = (miss + lam + r_beta / beta - g @ m_r) / schur
            dx = m_r + m_g * d_beta
            return dx, (r_comp - s * dx) / x, d_beta, (r_beta - lam * d_beta) / beta

        # A fixed beta takes its (beta, lambda) pair out of the gap.
        pairs = n + free
        mean = gap / pairs
        xs = x * s
        dx, ds, d_beta, d_lam = newton(-xs, -beta * lam)
        primal = min(1.0, _boundary(x, dx, beta, d_beta))
        dual = min(1.0, _boundary(s, ds, lam, d_lam))
        affine = (x + primal * dx) @ (s + dual * ds)
        affine += (beta + primal * d_beta) * (lam + dual * d_lam)
        sigma = (affine / pairs / mean) ** 3
        if gap >= last_gap:
            sigma = max(sigma, STALL_SIGMA)
        last_gap = gap
        dx, ds, d_beta, d_lam = newton(
            sigma * mean - xs - dx * ds, sigma * mean - beta * lam - d_beta * d_lam
        )
        if info or not (np.isfinite(dx).all() and np.isfinite(ds).all() and math.isfinite(d_beta)):
            failure = "the Newton system is singular; "
            residual = _residual(law, c)
            break
        cap = math.inf
        if d_beta:
            cap = (BETA_STEP - 1.0 if d_beta > 0 else 1.0 - 1.0 / BETA_STEP) * beta / abs(d_beta)
        reach = min(_boundary(x, dx), ROW_STEP * _boundary(z, ker @ dx))
        primal = min(1.0, BOUNDARY_STEP * reach, cap)
        dual = min(1.0, BOUNDARY_STEP * _boundary(s, ds, lam, d_lam))
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
    return law, iterations, residual, done, gap, failure


@functools.cache
def _blas_threads() -> tuple:
    """The (get, set) thread-count functions of the OpenBLAS copies that numpy and scipy bundle.

    Looked up once, at the first interior-point solve, so that importing
    the package costs nothing; a copy that is not found is left out.
    """
    import ctypes

    import scipy
    from scipy.linalg import lapack  # noqa: F401  (loads scipy's copy)

    found = []
    for package, pattern, suffix in (
        (np, "libscipy_openblas64_-*.so", "64_"), (scipy, "libscipy_openblas-*.so", "")
    ):
        libs = Path(package.__file__).parents[1] / f"{package.__name__}.libs"
        for path in sorted(libs.glob(pattern)):
            lib = ctypes.CDLL(str(path))
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get and put:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                found.append((get, put))
    return tuple(found)


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one BLAS thread, and give each OpenBLAS copy its thread count back after.

    An interior-point iterate's products and factor are small: on more
    threads they run several times slower, and their last digits depend
    on the count.  Where no copy is found the block runs as it is.
    """
    threads = _blas_threads()
    counts = [get() for get, _ in threads]
    for _, put in threads:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(threads, counts):
            put(count)


# The DEBUG record of one round of ``_priced_rounds``.
_ROUND = "round %d: %d of %d columns in play, %d enter, %d iterations"


def _priced_rounds(
    tilt: _Tilt, beta: float, eps: float, max_iter: int, cols: np.ndarray | None = None,
    target: float | None = None, band: float = 0.0, spread: float = 0.0,
) -> tuple[RDPoint, float, str, str]:
    """Every second-order solve: rounds on a column set S, pricing the columns off S.

    A column is reachable when some row of positive mass reaches it with a
    finite loss.  The others have c = 0 at every law and no mass at the
    optimum, so S holds only reachable columns (every column when none is
    reachable: the first evaluation then names a row).  S starts as the
    reachable columns of ``cols`` (all of them by default), and once it
    would hold more than half of the reachable columns it holds all of
    them.  A round solves on rho[:, S]: with beta fixed (no ``target``) by
    ``_two_columns`` on at most two columns, and by ``_saddle_point``
    otherwise, from slope ``beta`` and with the remaining budget.  A round
    on the whole alphabet runs on ``tilt`` itself, moved to that beta; a
    round on a column subset runs on a tilt of its own, and ``tilt``, moved
    to the round's final beta, evaluates the law with x_j = 0 off S on
    every column, so ``tilt`` forms no kernel that no round reads.  Each
    column with c_j > 1 + eps enters S, as in vertex-exchange methods for
    this mixture likelihood (Lindsay 1983).  The solve ends when none enters.  Off S, x_j = 0
    zeroes the residual, the gap and min(x_j, s_j), and the pricing bounds
    the slack, so the answer meets the stop rule on the full alphabet.
    Only the returned round's point is certified, once, on ``tilt``.
    ``iterations`` sums the rounds' iterations, and ``max_iter`` bounds
    that sum.  One DEBUG record per round gives the columns in play, those
    entering and the round's iterations.

    Returns (point, gap, failure, how): the last round's point on the full
    alphabet, its complementarity gap (0 on the two-column solve), the
    Newton system failure of ``_saddle_point`` and the last round's method.
    """
    n, reach = tilt.ker.shape[1], tilt.reach
    cols = reach if cols is None else np.intersect1d(cols, reach)
    iterations = rounds = 0
    while True:
        if 2 * len(cols) > len(reach):
            cols = reach
        whole = len(cols) == n
        if whole:
            tilt.move(beta)
        part = tilt if whole else _Tilt(tilt.source, DistortionMatrix(tilt.dist.rho[:, cols]), beta)
        if target is None and len(cols) <= 2:
            how, gap, failure = "the two-column solve", 0.0, ""
            law, spent, residual, solved = _two_columns(part, eps, max_iter - iterations)
        else:
            how = "the interior point"
            with _one_blas_thread():
                law, spent, residual, solved, gap, failure = _saddle_point(
                    part, eps, max_iter - iterations, target, band, spread
                )
        iterations += spent
        rounds += 1
        enter = ()
        if not whole:
            tilt.move(part.beta)
            lifted, c = np.zeros(n), np.empty(n)
            lifted[cols] = law
            law = lifted
            tilt.evaluate(law, c)
            residual = _residual(law, c)
            priced = c > 1.0 + eps
            priced[cols] = False
            enter = np.flatnonzero(priced)
        logger.debug(_ROUND, rounds, len(cols), n, len(enter), spent)
        if not (solved and len(enter)) or iterations >= max_iter:
            [point] = _answer(tilt, law, iterations, residual, solved and not len(enter))
            return point, gap, failure, how
        cols = np.union1d(cols, enter)


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
    (H the Hessian of F at x, ridge RIDGE times each diagonal entry) and
    eliminates beta:

        dbeta = (r_beta - g'M^-1 r) / (g'M^-1 g + v + lambda / beta),  dx = M^-1 (r + g dbeta),

    with g = dc/dbeta = K'(w o d) - (K o rho)'w, w = mu / K x, d_i row i's
    conditional distortion and v = sum_i mu_i Var_i(rho) = -dD/dbeta, on the
    round's ``_Tilt``, moved to each iterate's beta.  Each iterate forms
    K x and K o rho once: D, g and v all come from them.  Entries of M below
    KERNEL_FLOOR times its largest diagonal entry are set to zero before
    the factor.  It starts from the uniform law at
    beta = 1 / (D_max - d_floor).  Primal (x, beta) and dual (s, lambda)
    steps have their own lengths; the safeguards in the constants' comment
    stopped one random 5 x 5 instance in about 600 from cycling or driving
    beta to zero.  It stops once x / sum(x) meets ``ba_fixed_point``'s rule
    at the final beta, |D - target| <= 10 tol D_max, and the gap
    x.s + beta lambda, the slack, the residual and every min(x_j / sum(x), s_j)
    are at most min(tol, IP_TOL); without the last, small support atoms sit
    off c_j = 1 and beta misses next to the D = D_max plateau.

    The optimal law of a bounded source is discrete (Rose 1994), so the
    solve runs in the rounds of ``_priced_rounds``, the loop every
    second-order solve runs on the reachable columns, pricing the columns
    off the set S in play with eps = min(tol, IP_TOL).  S starts as the
    D_max column and START_COLUMNS columns evenly spaced by index, plus
    each live row's cheapest column when the target is not above S's
    distortion floor.  With every column reachable, an alphabet of at most
    2 START_COLUMNS - 1 columns takes one round, on all of them.  One
    full-alphabet ``_Tilt`` serves every round, its kernel formed at the
    first round that reads it, and D, R and the slack come from its
    ``certificate``; ``iterations`` sums the interior-point
    iterations of every round, and ``max_iter`` bounds that sum.  A target
    inside a jump of D(beta) gets the mixture of the optima at the critical
    slope.

    Raises:
        InvalidInputError: target outside (d_floor, d_max), tol <= 0, or
            max_iter < 1.
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
    _check_budget(tol, max_iter)
    band = 10.0 * tol * ceiling
    spread = (ceiling if ceiling < math.inf else target) - floor
    cols = np.union1d(column, np.linspace(0, dist.shape[1] - 1, START_COLUMNS).round().astype(int))
    if not target > d_floor(mu, DistortionMatrix(dist.rho[:, cols])):
        cols = np.union1d(cols, dist.rho[mu.weights > 0].argmin(axis=1))
    point, gap, failure, _ = _priced_rounds(
        _Tilt(mu, dist, None), 1.0 / spread, min(tol, IP_TOL), max_iter, cols, target, band, spread
    )
    if not point.converged:
        raise ConvergenceError(
            f"{failure}no point at distortion {target:g} within {point.iterations} "
            f"interior-point iterations (|D - target| {abs(point.distortion - target):.3e}, "
            f"gap {gap:.3e}, slack {point.certificate_slack:.3e}, "
            f"residual {point.fixpoint_residual:.3e})",
            partial=point,
        )
    return point
