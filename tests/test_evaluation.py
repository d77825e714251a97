"""Metrics: endmember alignment, the nonlinearity degree, the simplex
projection and the FCLS baseline."""

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


def _rows(draw, low: float, high: float) -> np.ndarray:
    n = draw(st.integers(1, 5))
    p = draw(st.integers(1, 6))
    elems = st.floats(low, high, allow_nan=False, allow_infinity=False)
    return draw(arrays(np.float64, (n, p), elements=elems))


@st.composite
def _any_rows(draw):
    return _rows(draw, -10.0, 10.0)


@st.composite
def _simplex_rows(draw):
    """Rows on the simplex, some of them on a face (exact zeros)."""
    x = _rows(draw, 0.0, 1.0)
    assume(np.all(x.sum(axis=1) > 1e-3))
    return x / x.sum(axis=1, keepdims=True)


class TestProjectSimplex:
    @settings(max_examples=300, deadline=None)
    @given(_any_rows())
    def test_rows_are_on_the_simplex(self, x):
        out = ev.project_simplex(x)
        assert out.shape == x.shape
        assert np.all(out >= 0.0)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(_simplex_rows())
    def test_point_on_the_simplex_is_unchanged(self, a):
        np.testing.assert_allclose(ev.project_simplex(a), a, rtol=0,
                                   atol=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(_any_rows())
    def test_idempotent(self, x):
        once = ev.project_simplex(x)
        # ``once`` sums to 1 only to rounding of the input's scale
        np.testing.assert_allclose(ev.project_simplex(once), once, rtol=0,
                                   atol=1e-13)


def _kkt_solve(M: np.ndarray, y: np.ndarray, support) -> np.ndarray:
    """min ||y - M a||^2 subject to sum(a) = 1 and a = 0 off ``support``:
    the exact solve of the equality-constrained KKT system."""
    ms = M[:, support]
    k = len(support)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * ms.T @ ms
    kkt[:k, k] = kkt[k, :k] = 1.0
    sol = np.linalg.solve(kkt, np.concatenate([2.0 * ms.T @ y, [1.0]]))
    a = np.zeros(M.shape[1])
    a[list(support)] = sol[:k]
    return a


def _fcls_oracle(M: np.ndarray, y: np.ndarray, step: float) -> np.ndarray:
    """Brute force: the best feasible exact KKT solve over every active set,
    checked against every point of a simplex grid of spacing ``step``."""
    p = M.shape[1]

    def cost(a):
        return float(((y - M @ a) ** 2).sum())

    solves = [_kkt_solve(M, y, list(support)) for r in range(1, p + 1)
              for support in itertools.combinations(range(p), r)]
    best = min((a for a in solves if np.all(a >= 0.0)), key=cost)
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    grid = [np.array(c + (max(1.0 - sum(c), 0.0),)) for c in
            itertools.product(ticks, repeat=p - 1) if sum(c) <= 1.0 + step / 2]
    assert cost(best) <= min(cost(g) for g in grid) + 1e-12
    return best


class TestFcls:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_brute_force_oracle(self, rng, p):
        bands = 8
        M = rng.uniform(0.05, 0.95, (bands, p))
        # mixtures inside the simplex, on its faces, and pixels pushed off
        # the cone so that the simplex constraints bind
        a = rng.dirichlet(np.ones(p), 12)
        if p > 1:
            a[:4, 0] = 0.0
            a /= a.sum(axis=1, keepdims=True)
        Y = a @ M.T + rng.normal(0.0, 0.05, (12, bands))
        Y[8:] += rng.uniform(-0.5, 0.5, (4, bands))
        got = ev.fcls(Y, M)
        want = np.array([_fcls_oracle(M, y, 0.02) for y in Y])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)
