"""Metrics: endmember alignment and the nonlinearity degree."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from unmix import evaluation as ev
from unmix.errors import DomainError


def _loop_cost(mt, mh):
    """Reference cost matrix: one ``sam`` call per (truth, estimate) pair."""
    p = mt.shape[-1]
    return np.array([[ev.sam(mt[:, :, [i]], mh[:, :, [j]]) for j in range(p)]
                     for i in range(p)])


@st.composite
def _stacks(draw):
    n = draw(st.integers(1, 4))
    bands = draw(st.integers(2, 8))
    p = draw(st.integers(1, 4))
    elems = st.floats(0.01, 1.0, allow_nan=False, allow_infinity=False)
    mt = draw(arrays(np.float64, (n, bands, p), elements=elems))
    mh = draw(arrays(np.float64, (n, bands, p), elements=elems))
    return mt, mh


def _well_conditioned(mt, mh) -> bool:
    """arccos amplifies rounding near cos = 1; keep angles away from 0."""
    ut = mt / np.linalg.norm(mt, axis=1, keepdims=True)
    uh = mh / np.linalg.norm(mh, axis=1, keepdims=True)
    cos = np.swapaxes(ut, 1, 2) @ uh
    return bool(np.all(cos < 1.0 - 1e-6))


class TestAlignEndmembers:
    @settings(max_examples=200, deadline=None)
    @given(_stacks())
    def test_cost_matrix_equals_sam_definition(self, stacks):
        mt, mh = stacks
        assume(_well_conditioned(mt, mh))
        np.testing.assert_allclose(ev._mean_angle_cost(mt, mh),
                                   _loop_cost(mt, mh), rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(_stacks())
    def test_permutation_unchanged_when_best_assignment_is_clear(self, stacks):
        mt, mh = stacks
        assume(_well_conditioned(mt, mh))
        cost = _loop_cost(mt, mh)
        p = cost.shape[0]
        totals = sorted(cost[np.arange(p), perm].sum()
                        for perm in itertools.permutations(range(p)))
        assume(len(totals) == 1 or totals[1] - totals[0] > 1e-9)
        rows, cols = linear_sum_assignment(cost)
        expected = np.empty(p, dtype=int)
        expected[rows] = cols
        np.testing.assert_array_equal(ev.align_endmembers(mt, mh), expected)

    def test_recovers_shuffled_columns_of_shared_matrix(self, rng):
        m_true = rng.uniform(0.05, 0.95, (12, 4))
        perm = np.array([2, 0, 3, 1])
        m_hat = np.empty_like(m_true)
        m_hat[:, perm] = m_true
        np.testing.assert_array_equal(ev.align_endmembers(m_true, m_hat), perm)

    def test_zero_norm_column_rejected(self, rng):
        m_true = rng.uniform(0.1, 0.9, (3, 6, 2))
        m_hat = m_true.copy()
        m_hat[1, :, 0] = 0.0
        with pytest.raises(DomainError):
            ev.align_endmembers(m_true, m_hat)


class TestNonlinearityDegree:
    def test_norm_share_and_zero_streams(self):
        lin = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 0.0]])
        nlin = np.array([[0.0, 5.0], [1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(ev.nonlinearity_degree(lin, nlin),
                                      [0.5, 1.0, 0.0])

    def test_single_pixel_gives_float(self):
        assert ev.nonlinearity_degree(np.array([1.0, 0.0]),
                                      np.array([0.0, 3.0])) == 0.75
