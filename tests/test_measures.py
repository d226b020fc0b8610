"""Unit tests for probability vectors, couplings, and information measures."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdbridge.errors import InvalidInputError
from rdbridge.measures import (
    Coupling,
    ProbabilityVector,
    entropy,
    kl_divergence,
    mutual_information,
)


def simplex(n: int):
    """Strategy for a length-n probability vector with well-scaled atoms."""
    return st.lists(
        st.floats(min_value=1e-3, max_value=1.0), min_size=n, max_size=n
    ).map(lambda xs: np.asarray(xs) / np.sum(xs))


any_simplex = st.integers(min_value=2, max_value=8).flatmap(simplex)


# --- ProbabilityVector -----------------------------------------------------


def test_vector_rejects_bad_mass():
    with pytest.raises(InvalidInputError):
        ProbabilityVector([0.5, 0.51])
    with pytest.raises(InvalidInputError):
        ProbabilityVector([0.7, -0.3, 0.6])
    with pytest.raises(InvalidInputError):
        ProbabilityVector([])
    with pytest.raises(InvalidInputError):
        ProbabilityVector([[0.5, 0.5]])
    with pytest.raises(InvalidInputError):
        ProbabilityVector([0.5, float("nan")])


def test_vector_labels_must_match_length():
    with pytest.raises(InvalidInputError):
        ProbabilityVector([0.5, 0.5], labels=[1.0])
    pv = ProbabilityVector([0.5, 0.5], labels=[-1.0, 1.0])
    assert pv.labels.tolist() == [-1.0, 1.0]


def test_support_is_strict_positivity():
    pv = ProbabilityVector([0.5, 0.0, 0.5])
    assert pv.support.tolist() == [0, 2]
    assert len(pv) == 3


# --- KL divergence ---------------------------------------------------------


def test_kl_known_values():
    half = ProbabilityVector([0.5, 0.5])
    point = ProbabilityVector([1.0, 0.0])
    assert abs(kl_divergence(point, half) - math.log(2)) < 1e-15
    assert kl_divergence(half, half) == 0.0
    # support of p escapes support of q
    assert kl_divergence(half, point) == float("inf")


def test_kl_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        kl_divergence(ProbabilityVector([1.0]), ProbabilityVector([0.5, 0.5]))


@given(any_simplex, st.data())
@settings(max_examples=60, deadline=None)
def test_kl_nonnegative(p, data):
    q = data.draw(simplex(len(p)))
    assert kl_divergence(ProbabilityVector(p), ProbabilityVector(q)) >= -1e-12


@given(any_simplex)
@settings(max_examples=40, deadline=None)
def test_kl_self_is_zero(p):
    pv = ProbabilityVector(p)
    assert kl_divergence(pv, pv) == 0.0


# --- entropy ---------------------------------------------------------------


def test_entropy_known_values():
    assert abs(entropy(ProbabilityVector([0.3, 0.7])) - 0.6108643020548935) < 1e-12
    assert entropy(ProbabilityVector([1.0, 0.0])) == 0.0
    four = ProbabilityVector(np.full(4, 0.25))
    assert abs(entropy(four) - math.log(4)) < 1e-15


@given(any_simplex)
@settings(max_examples=60, deadline=None)
def test_entropy_bounds(p):
    h = entropy(ProbabilityVector(p))
    assert -1e-12 <= h <= math.log(len(p)) + 1e-12


def test_entropy_permutation_invariant():
    w = np.array([0.1, 0.2, 0.3, 0.4])
    perm = np.array([2, 0, 3, 1])
    a = entropy(ProbabilityVector(w))
    b = entropy(ProbabilityVector(w[perm]))
    assert abs(a - b) < 1e-15


# --- mutual information ----------------------------------------------------


def test_mutual_information_frozen_value():
    pi = Coupling(np.array([[0.4, 0.1], [0.1, 0.4]]))
    # 0.8 ln 1.6 + 0.2 ln 0.4 = 0.19274475702175744
    expected = 0.8 * math.log(1.6) + 0.2 * math.log(0.4)
    assert abs(mutual_information(pi) - expected) < 1e-15
    assert abs(mutual_information(pi) - 0.19274475702175744) < 1e-15


def test_mutual_information_agrees_with_kl_bit_for_bit():
    joint = np.array([[0.35, 0.05, 0.1], [0.05, 0.25, 0.2]])
    pi = Coupling(joint)
    row = joint.sum(axis=1)
    col = joint.sum(axis=0)
    flat_p = ProbabilityVector(joint.ravel())
    flat_q = ProbabilityVector(np.outer(row, col).ravel())
    assert mutual_information(pi) == kl_divergence(flat_p, flat_q)


def test_mutual_information_zero_for_product():
    row = np.array([0.3, 0.7])
    col = np.array([0.2, 0.5, 0.3])
    # Marginals are re-summed from the joint, so allow float residue.
    assert abs(mutual_information(Coupling(np.outer(row, col)))) < 1e-14


@given(
    st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=6, max_size=6)
)
@settings(max_examples=60, deadline=None)
def test_mutual_information_nonnegative(cells):
    joint = np.asarray(cells).reshape(2, 3)
    joint = joint / joint.sum()
    assert mutual_information(Coupling(joint)) >= -1e-12


# --- couplings -------------------------------------------------------------


def test_coupling_validation_and_marginals():
    with pytest.raises(InvalidInputError):
        Coupling(np.array([[0.6, 0.6]]))
    with pytest.raises(InvalidInputError):
        Coupling(np.array([[1.2, -0.2]]))
    with pytest.raises(InvalidInputError, match="nonnegative"):
        Coupling(np.array([[1.0, float("nan")]]))
    for joint in (np.array([0.5, 0.5]), np.ones((1, 1, 1)), np.zeros((0, 2))):
        with pytest.raises(InvalidInputError, match="non-empty matrix"):
            Coupling(joint)
    pi = Coupling(np.array([[0.2, 0.3], [0.1, 0.4]]))
    assert pi.joint.shape == (2, 2)
