"""Cross-checks tying solver outputs back to optimality theory.

An optimal reconstruction law can be recognized three independent ways:
the Sinkhorn potential g is constant on its support, the transport
defect L vanishes, and the Csiszar dual value meets the parametric
rate.  ``check_optimality`` runs all three and issues a verdict.  The
rest of the module provides closed-form curve oracles, a support census
for reconstruction laws living on grids, and the Shannon-lower-bound
gap that separates full-support from discrete-support regimes.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .blahut import RDCurve, RDPoint, _dual_gap, _Tilt
from .distortion import DistortionMatrix, SourceSpec, slb_mse
from .errors import EmptyComparisonError, InvalidInputError
from .measures import ProbabilityVector, entropy
from .schrodinger import DEFAULT_MAX_ITER, DEFAULT_TOL, _shortfall, _sinkhorn, eval_L

logger = logging.getLogger(__name__)


# Verdict thresholds on the potential spread, |L| and the dual gap, an
# order of magnitude above the solver tolerances they are checked against
# so that a verdict never flips on solver noise; and the mass that
# separates support atoms from mass still decaying toward zero.
G_TOL = 1e-5
L_TOL = 1e-7
D_TOL = 1e-6
MASS_THRESHOLD = 1e-6
# Support atoms at least this many grid cells apart start a new cluster.
CLUSTER_GAP = 3.0


@dataclass
class OptimalityReport:
    """Joint outcome of the three optimality certificates at one beta.

    Attributes:
        g_spread: max - min of the Sinkhorn log-potential logG over the
            numerical support of nu (atoms with mass >= MASS_THRESHOLD);
            constant g on the support characterizes the optimal law.
        g_spread_strict: the same spread over every atom with strictly
            positive mass, however small.  Diagnostic only: atoms still
            decaying toward zero carry arbitrarily off potentials.
        l_value: transport defect L(nu, beta); zero exactly at nu*.
        dual_gap: parametric rate at nu minus the dual certificate
            value, which is ln(1 + max(slack, 0)) exactly: never negative,
            and dual_gap <= D_TOL holds exactly when the slack is at most
            e^D_TOL - 1.
        certificate_slack: max_y of the dual constraint excess c_y - 1.
        verdict: "optimal", "suboptimal", or "inconclusive" (the solver
            could not produce a trustworthy certificate).
        detail: human-readable diagnostics for inconclusive verdicts.
    """

    beta: float
    g_spread: float
    g_spread_strict: float
    l_value: float
    dual_gap: float
    certificate_slack: float
    verdict: str
    detail: str = ""


@dataclass
class SupportCluster:
    """A maximal run of selected grid atoms with no internal gap."""

    center: float
    mass: float
    width: float
    count: int


@dataclass
class SupportReport:
    """Census of where a reconstruction law actually puts its mass."""

    clusters: list[SupportCluster]
    covered_mass: float


def _spread(values: np.ndarray, where: np.ndarray) -> float:
    # Never empty: a law on fewer than 1e6 atoms has one of mass >= MASS_THRESHOLD.
    picked = values[where]
    return float(picked.max() - picked.min())


def _couplable(mu: ProbabilityVector, nu: ProbabilityVector, dist: DistortionMatrix) -> bool:
    """False when no coupling of (mu, nu) lives on the finite-loss pairs.

    An exact transport-feasibility LP over the pairs of supp(mu) x supp(nu)
    with finite loss; a solve that ends any other way than "infeasible"
    counts as couplable.  It costs a scipy import and an LP, so it runs
    only to explain a Sinkhorn solve that has already failed.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    rows, cols = mu.support, nu.support
    ii, jj = np.nonzero(np.isfinite(dist.rho[np.ix_(rows, cols)]))
    pairs = np.arange(ii.size)
    constraints = coo_matrix(
        (np.ones(2 * ii.size), (np.concatenate([ii, rows.size + jj]), np.tile(pairs, 2))),
        shape=(rows.size + cols.size, ii.size),
    )
    masses = np.concatenate([mu.weights[rows], nu.weights[cols]])
    result = linprog(np.zeros(ii.size), A_eq=constraints, b_eq=masses, method="highs")
    return result.status != 2


def check_optimality(
    mu: ProbabilityVector,
    dist: DistortionMatrix,
    beta: float,
    nu: ProbabilityVector,
) -> OptimalityReport:
    """Decide whether nu is the optimal reconstruction law at slope beta.

    Runs Sinkhorn on (mu, nu), evaluates the potential spread, the
    transport defect L, and the Csiszar dual gap, then compares them
    with G_TOL, L_TOL and D_TOL.  The verdict is "optimal" only when all
    three pass, "inconclusive" when Sinkhorn fails to converge
    (nothing can then be certified either way), and "suboptimal"
    otherwise.  After a failed solve a transport-feasibility LP tells
    whether (mu, nu) can be coupled on finite-loss pairs at all; if not,
    ``detail`` says so.

    The spread is taken over atoms with mass >= MASS_THRESHOLD: a
    candidate produced by an iterative solver carries stray mass of
    order its tolerance on atoms outside the true support, and the
    potentials there say nothing about optimality.  The strict-support
    spread is reported alongside as a diagnostic.  Sinkhorn runs at its
    own defaults, and the dual gap is taken on the loss as given: it need
    not be normalized (see ``dual_certificate``).

    Returns:
        A filled OptimalityReport.
    """
    # One kernel serves the slack and then Sinkhorn, whose first F-update
    # is the same tilted coupling.
    tilt = _Tilt(mu, dist, beta, nu)
    slack = tilt.slack
    dual_gap = _dual_gap(slack)

    detail = ""
    # The verdict reads the pair only; the coupling is never formed.
    pair, _ = _sinkhorn(tilt, mu, nu, DEFAULT_TOL, DEFAULT_MAX_ITER)
    if not pair.converged:
        detail = _shortfall(pair)
        if not _couplable(mu, nu, dist):
            detail = f"marginals cannot be coupled on finite-loss pairs; {detail}"
        logger.warning("optimality check at beta=%g is inconclusive: %s", beta, detail)
    g_spread = _spread(pair.logG, nu.weights >= MASS_THRESHOLD)
    if pair.converged:
        l_value = eval_L(mu, nu, dist, beta, pair)
        passed = g_spread <= G_TOL and abs(l_value) <= L_TOL and dual_gap <= D_TOL
        verdict = "optimal" if passed else "suboptimal"
    else:
        l_value, verdict = float("nan"), "inconclusive"
    return OptimalityReport(
        beta=float(beta),
        g_spread=g_spread,
        g_spread_strict=_spread(pair.logG, nu.weights > 0),
        l_value=l_value,
        dual_gap=dual_gap,
        certificate_slack=slack,
        verdict=verdict,
        detail=detail,
    )


def support_atoms(nu: ProbabilityVector) -> SupportReport:
    """Group the significant atoms of a grid law into isolated clusters.

    Atoms with mass >= MASS_THRESHOLD, the support of the verdict, are
    selected and split into clusters wherever two consecutive selected
    atoms sit at least CLUSTER_GAP grid cells apart (3: at least two
    unselected grid points in between).  Each cluster reports its
    mass-weighted center, total mass, label width, and atom count.

    Args:
        nu: law with strictly increasing labels (grid positions).

    Returns:
        SupportReport with the clusters and the total selected mass.
    """
    if nu.labels is None:
        raise InvalidInputError("support census needs atom labels (grid positions)")
    labels = nu.labels
    if labels.size > 1 and np.any(np.diff(labels) <= 0):
        raise InvalidInputError("labels must be strictly increasing")

    selected = np.flatnonzero(nu.weights >= MASS_THRESHOLD)
    if selected.size == 0:
        return SupportReport(clusters=[], covered_mass=0.0)

    cell = float(np.median(np.diff(labels))) if labels.size > 1 else 1.0
    breaks = np.flatnonzero(
        np.diff(labels[selected]) >= CLUSTER_GAP * cell * (1.0 - 1e-9)
    )
    clusters = []
    for run in np.split(selected, breaks + 1):
        mass = float(nu.weights[run].sum())
        clusters.append(
            SupportCluster(
                center=float(nu.weights[run] @ labels[run] / mass),
                mass=mass,
                width=float(labels[run[-1]] - labels[run[0]]),
                count=int(run.size),
            )
        )
    return SupportReport(
        clusters=clusters,
        covered_mass=float(nu.weights[selected].sum()),
    )


def _binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * math.log(p) - (1.0 - p) * math.log(1.0 - p))


def oracle_bernoulli_hamming(p: float, distortion: float) -> float:
    """Closed-form R(D) of a Bernoulli(p) source under Hamming loss, in nats.

    R(D) = H_b(p) - H_b(D) for 0 <= D < min(p, 1-p) and 0 beyond.
    """
    if not 0.0 < p < 1.0:
        raise InvalidInputError(f"p must lie strictly inside (0, 1), got {p}")
    if distortion < 0:
        raise InvalidInputError(f"distortion must be nonnegative, got {distortion}")
    if distortion >= min(p, 1.0 - p):
        return 0.0
    return _binary_entropy(p) - _binary_entropy(distortion)


def oracle_gaussian_mse(sigma: float, distortion: float) -> float:
    """Closed-form R(D) of N(0, sigma^2) under squared error, in nats.

    R(D) = max(0, (1/2) ln(sigma^2 / D)); the Gaussian is the one source
    whose curve coincides with the Shannon lower bound everywhere.
    """
    if sigma <= 0:
        raise InvalidInputError(f"sigma must be positive, got {sigma}")
    if distortion <= 0:
        raise InvalidInputError(f"distortion must be positive, got {distortion}")
    return max(0.0, 0.5 * math.log(sigma * sigma / distortion))


def compare_curve(
    curve: RDCurve,
    oracle,
    d_lo: float,
    d_hi: float,
) -> tuple[float, np.ndarray]:
    """Compare swept rates against a closed-form oracle on a D window.

    Args:
        oracle: callable D -> R in nats.
        d_lo, d_hi: inclusive distortion window; points outside are
            ignored.

    Returns:
        (max_abs_err, table): the worst |R - R_oracle| over the window
        and a (D, R, R_oracle) row per retained point, sorted by D.

    Raises:
        EmptyComparisonError: no curve point falls inside the window.
    """
    rows = [
        (p.distortion, p.rate, float(oracle(p.distortion)))
        for p in curve.points
        if d_lo <= p.distortion <= d_hi
    ]
    if not rows:
        raise EmptyComparisonError(
            f"no curve point has distortion inside [{d_lo}, {d_hi}]"
        )
    table = np.array(sorted(rows), dtype=float)
    max_abs_err = float(np.abs(table[:, 1] - table[:, 2]).max())
    return max_abs_err, table


def slb_gap(
    point: RDPoint,
    source: SourceSpec,
    dist: DistortionMatrix | None = None,
) -> float:
    """Rate excess of a converged curve point over the Shannon lower bound.

    The bound is h(X) - (1/2) ln(2 pi e D) with the differential entropy
    estimated from the discretized source (discrete entropy plus the
    cell-width offset) and clamped at zero where it goes negative.  On
    discretization fixtures the gap can come out slightly negative; a
    clearly positive gap signals a source whose optimal reconstruction
    collapses onto isolated atoms.

    Args:
        dist: optional loss matrix; when given it is validated to be
            squared error between the source grid and the point's
            reconstruction grid.

    Raises:
        InvalidInputError: point not converged, or ``dist`` is not a
            squared-error loss for these grids.
    """
    if not point.converged:
        raise InvalidInputError("Shannon-bound gap needs a converged curve point")
    if dist is not None:
        ygrid = (
            point.nu_star.labels if point.nu_star.labels is not None else source.grid
        )
        want = (source.grid[:, None] - np.asarray(ygrid, dtype=float)[None, :]) ** 2
        if dist.shape != want.shape or not np.allclose(
            dist.rho, want, rtol=1e-12, atol=1e-15
        ):
            raise InvalidInputError(
                "Shannon-bound gap is defined for squared-error distortion only"
            )
    h_diff = entropy(source.weights) + source.diff_entropy_offset
    bound = max(0.0, slb_mse(h_diff, point.distortion))
    return float(point.rate - bound)
