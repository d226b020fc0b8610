"""Finite probability vectors, couplings, and the entropy/KL toolbox.

Everything internal is in nats.  Validation rejects bad inputs instead of
renormalizing them: a vector whose mass is off by more than ``MASS_TOL`` is
a caller bug we refuse to paper over.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

# Mass must match 1 to this absolute tolerance at validation time.
MASS_TOL = 1e-12


def _as_float_array(values, name: str, ndim: int = 1) -> np.ndarray:
    """``values`` as a non-empty float array of ``ndim`` axes.

    Non-numeric or ragged input is an InvalidInputError, as is any other shape.
    """
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} must be a regular array of reals") from None
    if arr.ndim != ndim or arr.size == 0:
        kind = "vector" if ndim == 1 else "matrix"
        raise InvalidInputError(f"{name} must be a non-empty {kind}, got shape {arr.shape}")
    return arr


@dataclass
class ProbabilityVector:
    """A probability mass function on a finite alphabet.

    Args:
        weights: nonnegative reals summing to 1 within ``MASS_TOL``.
        labels: optional per-atom coordinates (e.g. grid positions); same
            length as ``weights``.
    """

    weights: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        self.weights = _as_float_array(self.weights, "weights")
        # One pass: the minimum is nan if any entry is.
        if not self.weights.min() >= 0.0:
            raise InvalidInputError("weights must be nonnegative reals")
        mass = float(self.weights.sum())
        if abs(mass - 1.0) > MASS_TOL:
            raise InvalidInputError(
                f"weights must sum to 1 within {MASS_TOL:g}; got {mass!r}"
            )
        if self.labels is not None:
            self.labels = _as_float_array(self.labels, "labels")
            if self.labels.shape != self.weights.shape:
                raise InvalidInputError(
                    "labels must have the same length as weights "
                    f"({self.labels.size} vs {self.weights.size})"
                )

    def __len__(self) -> int:
        return self.weights.size

    @property
    def support(self) -> np.ndarray:
        """Indices carrying strictly positive mass."""
        return np.flatnonzero(self.weights > 0)


@dataclass
class Coupling:
    """A joint distribution on a product of two finite alphabets."""

    joint: np.ndarray

    def __post_init__(self):
        self.joint = _as_float_array(self.joint, "joint", 2)
        # One pass: the minimum is nan if any entry is.
        if not self.joint.min() >= 0.0:
            raise InvalidInputError("joint entries must be nonnegative reals")
        mass = float(self.joint.sum())
        if abs(mass - 1.0) > MASS_TOL:
            raise InvalidInputError(
                f"joint mass must be 1 within {MASS_TOL:g}; got {mass!r}"
            )


def _kl_core(p: np.ndarray, q: np.ndarray) -> float:
    """Sum of p*ln(p/q) with the 0*ln(0) = 0 convention, +inf if p !<< q."""
    pos = p > 0
    if np.any(q[pos] == 0):
        return float("inf")
    pp = p[pos]
    return float(np.sum(pp * np.log(pp / q[pos])))


def kl_divergence(p: ProbabilityVector, q: ProbabilityVector) -> float:
    """Relative entropy D(p || q) in nats.

    Returns +inf when p puts mass where q has none (absolute continuity
    failure).  Terms with p_i = 0 contribute exactly zero.
    """
    if len(p) != len(q):
        raise InvalidInputError(
            f"dimension mismatch: p has {len(p)} atoms, q has {len(q)}"
        )
    return _kl_core(p.weights, q.weights)


def entropy(p: ProbabilityVector) -> float:
    """Shannon entropy -sum p ln p in nats (0 ln 0 = 0)."""
    w = p.weights[p.weights > 0]
    return float(-np.sum(w * np.log(w)))


def mutual_information(pi: Coupling) -> float:
    """Mutual information of a coupling: D(pi || mu x nu) of its marginals.

    Computed literally as the KL divergence between the flattened joint and
    the flattened product of its own marginals, so it agrees bit-for-bit
    with ``kl_divergence`` on those arguments.
    """
    row = pi.joint.sum(axis=1)
    col = pi.joint.sum(axis=0)
    outer = np.outer(row, col)
    return _kl_core(pi.joint.ravel(), outer.ravel())
