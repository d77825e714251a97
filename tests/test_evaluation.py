"""Metrics: endmember alignment, the nonlinearity degree and the FCLS
baseline."""

import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from unmix import container as ct
from unmix import evaluation as ev
from unmix.data import GroundTruth
from unmix.errors import DomainError, InputError


def _loop_cost(mt, mh):
    """Reference cost matrix: one ``_ref_sam`` call per (truth, estimate)
    pair."""
    p = mt.shape[-2]
    return np.array([[_ref_sam(mt[:, [i]], mh[:, [j]]) for j in range(p)]
                     for i in range(p)])


@st.composite
def _stacks(draw):
    n = draw(st.integers(1, 4))
    bands = draw(st.integers(2, 8))
    p = draw(st.integers(1, 4))
    elems = st.floats(0.01, 1.0, allow_nan=False, allow_infinity=False)
    mt = draw(arrays(np.float64, (n, p, bands), elements=elems))
    mh = draw(arrays(np.float64, (n, p, bands), elements=elems))
    return mt, mh


def _well_conditioned(mt, mh) -> bool:
    """arccos amplifies rounding near cos = 1; keep angles away from 0."""
    ut = mt / np.linalg.norm(mt, axis=2, keepdims=True)
    uh = mh / np.linalg.norm(mh, axis=2, keepdims=True)
    cos = ut @ np.swapaxes(uh, 1, 2)
    return bool(np.all(cos < 1.0 - 1e-6))


class TestAlignEndmembers:
    @settings(max_examples=200, deadline=None)
    @given(_stacks())
    def test_cost_matrix_equals_sam_definition(self, stacks):
        mt, mh = stacks
        assume(_well_conditioned(mt, mh))
        np.testing.assert_allclose(ev.align_endmembers(mt, mh)[1],
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
        np.testing.assert_array_equal(ev.align_endmembers(mt, mh)[0], expected)

    def test_recovers_shuffled_columns_of_shared_matrix(self, rng):
        m_true = rng.uniform(0.05, 0.95, (4, 12))
        perm = np.array([2, 0, 3, 1])
        m_hat = np.empty_like(m_true)
        m_hat[perm] = m_true
        np.testing.assert_array_equal(ev.align_endmembers(m_true, m_hat)[0],
                                      perm)

    def test_zero_norm_column_rejected(self, rng):
        m_true = rng.uniform(0.1, 0.9, (3, 2, 6))
        m_hat = m_true.copy()
        m_hat[1, 0, :] = 0.0
        with pytest.raises(DomainError):
            ev.align_endmembers(m_true, m_hat)

    @pytest.mark.parametrize("which", ["truth", "estimate"])
    def test_overflowing_norm_rejected(self, rng, which):
        """Finite endmembers whose squares overflow have no angle to score:
        a ``DomainError``, not the pi/2 (or NaN) that an infinite norm
        gives."""
        stacks = {k: rng.uniform(0.1, 0.9, (3, 2, 6))
                  for k in ("truth", "estimate")}
        stacks[which][1, 0, :] *= 1e160
        with pytest.raises(DomainError, match=f"{which}: .* overflows"):
            ev.align_endmembers(stacks["truth"], stacks["estimate"])


class TestNrmse:
    @pytest.mark.parametrize("scale", [2.0, 0.0])
    def test_overflowing_sums_rejected(self, scale):
        """Finite rows whose sums of squares overflow have no ratio to
        report: a ``DomainError`` naming both sources and the block's first
        pixel, not the NaN that the infinite sums give."""
        x = np.full((3, 4), 1e160)
        with pytest.raises(DomainError, match="^truth and estimate: .* "
                           "overflows in the block from pixel 0$"):
            ev.nrmse(x, scale * x)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError,
                           match=r"^shape mismatch: \(3, 4\) vs \(3, 5\)$"):
            ev.nrmse(np.ones((3, 4)), np.ones((3, 5)))


class TestMinCostAssignment:
    """The in-module solver against ``linear_sum_assignment`` and against
    exhaustive search."""

    @pytest.mark.parametrize("p", range(1, 13))
    def test_same_columns_as_scipy(self, p):
        rng = np.random.default_rng(3300 + p)
        for trial in range(200):
            cost = rng.random((p, p)) * 10.0 ** rng.uniform(-3.0, 3.0)
            np.testing.assert_array_equal(
                ev._min_cost_assignment(cost), linear_sum_assignment(cost)[1],
                err_msg=f"trial {trial}")

    @pytest.mark.parametrize("p", range(1, 8))
    def test_tie_heavy_total_equals_the_exhaustive_minimum(self, p):
        rng = np.random.default_rng(3400 + p)
        perms = np.array(list(itertools.permutations(range(p))))
        for trial in range(100):
            cost = rng.integers(0, 1 + trial % 3, (p, p)).astype(np.float64)
            perm = ev._min_cost_assignment(cost)
            np.testing.assert_array_equal(np.sort(perm), np.arange(p))
            # integer entries: every total is exact
            assert (cost[np.arange(p), perm].sum()
                    == cost[np.arange(p), perms].sum(axis=1).min()), trial


class TestNonlinearityDegree:
    def test_norm_share_and_zero_streams(self):
        lin = np.array([[3.0, 4.0], [0.0, 0.0], [0.0, 0.0]])
        nlin = np.array([[0.0, 5.0], [1.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(ev.nonlinearity_degree(lin, nlin),
                                      [0.5, 1.0, 0.0])

    def test_single_pixel_row(self):
        np.testing.assert_array_equal(
            ev.nonlinearity_degree(np.array([[1.0, 0.0]]),
                                   np.array([[0.0, 3.0]])), [0.75])


def _kkt_solve(M: np.ndarray, y: np.ndarray, support) -> np.ndarray:
    """min ||y - a M||^2 subject to sum(a) = 1 and a = 0 off ``support``:
    the exact solve of the equality-constrained KKT system."""
    ms = M[support]
    k = len(support)
    kkt = np.zeros((k + 1, k + 1))
    kkt[:k, :k] = 2.0 * ms @ ms.T
    kkt[:k, k] = kkt[k, :k] = 1.0
    sol = np.linalg.solve(kkt, np.concatenate([2.0 * ms @ y, [1.0]]))
    a = np.zeros(len(M))
    a[list(support)] = sol[:k]
    return a


def _fcls_oracle(M: np.ndarray, y: np.ndarray, step: float) -> np.ndarray:
    """Brute force: the best feasible exact KKT solve over every active set,
    checked against every point of a simplex grid of spacing ``step``."""
    p = len(M)

    def cost(a):
        return float(((y - a @ M) ** 2).sum())

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
        M = rng.uniform(0.05, 0.95, (p, bands))
        # mixtures inside the simplex, on its faces, and pixels pushed off
        # the cone so that the simplex constraints bind
        a = rng.dirichlet(np.ones(p), 12)
        if p > 1:
            a[:4, 0] = 0.0
            a /= a.sum(axis=1, keepdims=True)
        Y = a @ M + rng.normal(0.0, 0.05, (12, bands))
        Y[8:] += rng.uniform(-0.5, 0.5, (4, bands))
        got = ev.fcls(Y, M)
        want = np.array([_fcls_oracle(M, y, 0.02) for y in Y])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 6])
    def test_rows_satisfy_the_kkt_conditions(self, rng, p):
        """The optimality certificate of min ||y - a M||^2 over the simplex,
        checked without another solver: with g = 2 M (M^T a - y), there is a
        nu with g_i + nu = 0 where a_i > 0 and g_i + nu >= 0 where a_i = 0
        (the multiplier of the bound a_i >= 0)."""
        bands, n = 30, 300
        M = rng.uniform(0.05, 0.95, (p, bands))
        a = rng.dirichlet(np.full(p, 0.5), n)
        a[np.arange(n // 3), rng.integers(0, p, n // 3)] = 0.0
        a /= a.sum(axis=1, keepdims=True)
        Y = a @ M + rng.normal(0.0, 0.05, (n, bands))
        Y[n // 2:] += rng.uniform(-1.0, 1.0, (n - n // 2, bands))
        got = ev.fcls(Y, M)
        assert np.all(got >= 0.0)
        np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        g = 2.0 * (got @ M - Y) @ M.T
        scale = 2.0 * (np.linalg.norm(M @ M.T, 2)
                       + np.linalg.norm(Y @ M.T, axis=1))
        free = got > 0.0
        nu = -(g * free).sum(axis=1) / free.sum(axis=1)
        mult = (g + nu[:, None]) / scale[:, None]
        assert np.abs(mult[free]).max() <= 1e-10
        assert (~free).any() and mult[~free].min() >= -1e-10

    def test_too_many_endmembers_rejected(self, rng):
        p = ev.FCLS_MAX_ENDMEMBERS + 1
        M = rng.uniform(0.05, 0.95, (p, 40))
        with pytest.raises(InputError, match=f"got {p}"):
            ev.fcls(rng.uniform(0.0, 1.0, (3, 40)), M)

    def test_rank_deficient_endmembers_rejected(self, rng):
        M = rng.uniform(0.05, 0.95, (3, 40))
        M[2] = M[0]
        with pytest.raises(InputError, match="full row rank"):
            ev.fcls(rng.uniform(0.0, 1.0, (3, 40)), M)


# ------------------------------------------------------------------------
# The whole-array formulas ``evaluate`` used before its blocked passes,
# kept as the reference the passes must match: the same alignment, and
# every score within 1e-12 relative.

def _ref_nrmse(x, x_hat):
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise InputError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    ref = np.linalg.norm(x.ravel())
    if ref == 0.0:
        raise DomainError("reference norm is zero")
    return float(np.linalg.norm((x - x_hat).ravel()) / ref)


def _ref_stack(m, n):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 2:
        return np.broadcast_to(m, (n,) + m.shape)
    return m


def _ref_sam(m_true, m_hat):
    m_true = np.asarray(m_true, dtype=np.float64)
    m_hat = np.asarray(m_hat, dtype=np.float64)
    n = m_true.shape[0] if m_true.ndim == 3 else (
        m_hat.shape[0] if m_hat.ndim == 3 else 1)
    mt = _ref_stack(m_true, n)
    mh = _ref_stack(m_hat, n)
    if mt.shape != mh.shape:
        raise InputError(f"shape mismatch: {mt.shape} vs {mh.shape}")
    nt = np.linalg.norm(mt, axis=2)
    nh = np.linalg.norm(mh, axis=2)
    if np.any(nt == 0.0) or np.any(nh == 0.0):
        raise DomainError("zero-norm signature in angle computation")
    cos = np.clip(np.sum(mt * mh, axis=2) / (nt * nh), -1.0, 1.0)
    return float(np.arccos(cos).sum(axis=-1).mean())


def _ref_cost(m_true, m_hat):
    m_true = np.asarray(m_true, np.float64)
    m_hat = np.asarray(m_hat, np.float64)
    n = m_true.shape[0] if m_true.ndim == 3 else (
        m_hat.shape[0] if m_hat.ndim == 3 else 1)
    mt = _ref_stack(m_true, n)
    mh = _ref_stack(m_hat, n)
    if mt.shape != mh.shape:
        raise InputError(f"shape mismatch: {mt.shape} vs {mh.shape}")
    nt = np.linalg.norm(mt, axis=2, keepdims=True)
    nh = np.linalg.norm(mh, axis=2, keepdims=True)
    if np.any(nt == 0.0) or np.any(nh == 0.0):
        raise DomainError("zero-norm signature in angle computation")
    cos = (mt / nt) @ np.swapaxes(mh / nh, 1, 2)
    return np.arccos(np.clip(cos, -1.0, 1.0)).mean(axis=0)


def _ref_align(m_true, m_hat):
    rows, cols = linear_sum_assignment(_ref_cost(m_true, m_hat))
    perm = np.empty(len(rows), dtype=int)
    perm[rows] = cols
    return perm


def _ref_evaluate(cube, truth, estimates):
    report = ev.MetricsReport(
        eta_d_mean=(None if estimates.eta_d is None
                    else float(np.mean(estimates.eta_d))),
        runtime_s=estimates.runtime_s)
    a_hat = np.asarray(estimates.abundances, dtype=np.float64)
    m_hat = estimates.endmembers
    truth_m, truth_a = truth.endmembers, truth.abundances
    perm = None
    if truth_m is not None and m_hat is not None:
        perm = _ref_align(truth_m, m_hat)
        a_hat = a_hat[:, perm]
        m_hat = np.asarray(m_hat)[..., perm, :]
    if truth_a is not None:
        report.nrmse_a = _ref_nrmse(truth_a, a_hat)
    if truth_m is not None and m_hat is not None:
        n = len(a_hat)
        mt = _ref_stack(np.asarray(truth_m), n)
        mh = _ref_stack(np.asarray(m_hat), n)
        report.nrmse_m = _ref_nrmse(mt, mh)
        report.sam_m = _ref_sam(mt, mh)
    if estimates.reconstruction is not None:
        report.nrmse_y = _ref_nrmse(cube, estimates.reconstruction)
    return report


B = ev.ROW_BLOCK
SIZES = [1, B - 1, B, B + 1, 3 * B + 7]
BANDS, P = 24, 4


def _scene(n: int, truth_shared: bool, estimate_shared: bool, seed: int):
    """Cube, truth and estimates whose endmembers are a noisy, shuffled
    copy of the truth's, so the alignment has work to do."""
    rng = np.random.default_rng(seed)
    m_true = rng.uniform(0.05, 1.0, (P, BANDS) if truth_shared
                         else (n, P, BANDS))
    m_hat = (np.broadcast_to(m_true, (n, P, BANDS))[:, [2, 0, 3, 1]]
             * rng.uniform(0.8, 1.2, (n, P, BANDS)))
    if estimate_shared:
        m_hat = m_hat[0]
    a_true = rng.dirichlet(np.ones(P), n)
    cube = np.einsum("npl,np->nl", np.broadcast_to(m_true, (n, P, BANDS)),
                     a_true)
    est = ev.Estimates(abundances=rng.dirichlet(np.ones(P), n),
                       endmembers=m_hat,
                       reconstruction=cube + rng.normal(0, 0.01, cube.shape),
                       eta_d=rng.uniform(0.0, 1.0, n), runtime_s=1.5)
    return cube, GroundTruth(abundances=a_true, endmembers=m_true), est


def _on_disk(base, stack: np.ndarray) -> ct.PayloadReader:
    ct.write_container(str(base), {}, {"endmembers": stack})
    return ct.open_container(str(base))[1]["endmembers"]


SCORES = ("nrmse_a", "nrmse_m", "sam_m", "nrmse_y", "eta_d_mean",
          "runtime_s")


def _same_report(cube, truth, est):
    """Check ``evaluate`` against the whole-array formulas: the same
    alignment, and every score present in both or in neither and within
    1e-12 relative.  Returns the report's CSV."""
    got = ev.evaluate(cube, truth, est)
    want = _ref_evaluate(cube, truth, est)
    np.testing.assert_array_equal(
        ev.align_endmembers(truth.endmembers, est.endmembers)[0],
        _ref_align(truth.endmembers, est.endmembers))
    for name in SCORES:
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None), name
        if w is not None:
            assert abs(g - w) <= 1e-12 * abs(w), (name, g, w)
    return ev.reports_to_csv([got])


class TestBlockedEvaluate:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("truth_shared, estimate_shared",
                             [(False, False), (True, False), (False, True),
                              (True, True)],
                             ids=["per_pixel", "shared_truth",
                                  "shared_estimate", "both_shared"])
    def test_report_matches_whole_array_formulas(self, n, truth_shared,
                                                 estimate_shared):
        cube, truth, est = _scene(n, truth_shared, estimate_shared, n)
        assert "--" not in _same_report(cube, truth, est)

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("truth_shared", [False, True],
                             ids=["per_pixel_truth", "shared_truth"])
    def test_stacks_on_disk_score_as_arrays(self, tmp_path, n, truth_shared):
        """Stacks read in row blocks from their payload files give the
        report bytes of the same stacks in memory."""
        cube, truth, est = _scene(n, truth_shared, False, 3 * n)
        want = _same_report(cube, truth, est)
        est.endmembers = _on_disk(tmp_path / "est", est.endmembers)
        if not truth_shared:
            truth.endmembers = _on_disk(tmp_path / "truth",
                                        truth.endmembers)
        got = ev.reports_to_csv([ev.evaluate(cube, truth, est)])
        assert got == want

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("truth_shared", [False, True],
                             ids=["per_pixel_truth", "shared_truth"])
    def test_fcls_baseline_matches(self, n, truth_shared):
        """The FCLS baseline, built as ``eval --baseline fcls`` builds it,
        scores its shared references as endmembers."""
        cube, truth, est = _scene(n, truth_shared, True, 7 * n)
        refs = est.endmembers
        a_base = ev.fcls(cube, refs)
        base = ev.Estimates(abundances=a_base, endmembers=refs,
                            reconstruction=a_base @ refs)
        _same_report(cube, truth, base)
        report = ev.evaluate(cube, truth, base)
        assert report.nrmse_m is not None and report.sam_m is not None

    @pytest.mark.parametrize("truth_shared", [False, True])
    def test_zero_norm_column_raises_domain_error(self, truth_shared):
        cube, truth, est = _scene(3 * B + 7, truth_shared, False, 3)
        est.endmembers[B + 1, 2, :] = 0.0
        for score in (ev.evaluate, _ref_evaluate):
            with pytest.raises(DomainError):
                score(cube, truth, est)

    @pytest.mark.parametrize("case", ["pixels", "bands", "shared_bands"])
    def test_mismatched_shapes_raise_input_error(self, case):
        n = B + 1
        cube, truth, est = _scene(n, case == "shared_bands", False, 5)
        if case == "pixels":
            est.endmembers = est.endmembers[:-1]
        else:
            est.endmembers = np.concatenate(
                [est.endmembers, est.endmembers[..., :1]], axis=-1)
        for score in (ev.evaluate, _ref_evaluate):
            with pytest.raises(InputError):
                score(cube, truth, est)

    @pytest.mark.parametrize("which", ["truth", "estimate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_endmember_names_stack_and_first_pixel(self, which,
                                                              value):
        cube, truth, est = _scene(3 * B + 7, False, False, 11)
        stack = truth.endmembers if which == "truth" else est.endmembers
        stack[2 * B + 5, 1, 7] = value
        stack[2 * B + 9, 0, 3] = value
        with pytest.raises(InputError) as exc_info:
            ev.evaluate(cube, truth, est)
        assert str(exc_info.value) == (
            f"{which}: endmembers has a non-finite value ({value}) at "
            f"pixel {2 * B + 5}, endmember 1, band 7")

    @pytest.mark.parametrize("which", ["cube", "reconstruction"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_pixel_names_cube_or_reconstruction(self, which,
                                                           value):
        """nrmse_y's pass, the one read of the cube and the
        reconstruction, names the first non-finite pixel of either."""
        cube, truth, est = _scene(3 * B + 7, False, False, 13)
        rows = cube if which == "cube" else est.reconstruction
        rows[2 * B + 5, 7] = value
        rows[2 * B + 9, 3] = value
        with pytest.raises(InputError) as exc_info:
            ev.evaluate(cube, truth, est)
        assert str(exc_info.value) == (
            f"{which}: pixels has a non-finite value ({value}) at "
            f"pixel {2 * B + 5}, band 7")

    def test_peak_memory_does_not_grow_with_the_scene(self):
        """Besides its inputs, ``evaluate`` holds a block of each and arrays
        of a few numbers per pixel: on the bench scene's band and endmember
        counts its traced peak must not grow with N."""
        peaks = []
        for n in (4 * B, 16 * B):
            rng = np.random.default_rng(n)
            m_true = rng.uniform(0.05, 1.0, (n, 5, 224))
            est = ev.Estimates(abundances=rng.dirichlet(np.ones(5), n),
                               endmembers=rng.uniform(0.05, 1.0, m_true.shape),
                               reconstruction=rng.uniform(0.0, 1.0, (n, 224)),
                               eta_d=rng.uniform(0.0, 1.0, n))
            truth = GroundTruth(abundances=rng.dirichlet(np.ones(5), n),
                                endmembers=m_true)
            cube = rng.uniform(0.0, 1.0, (n, 224))
            tracemalloc.start()
            try:
                ev.evaluate(cube, truth, est)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0], peaks

    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("truth_shared, estimate_shared",
                             [(False, False), (True, False), (False, True),
                              (True, True)],
                             ids=["per_pixel", "shared_truth",
                                  "shared_estimate", "both_shared"])
    def test_sam_is_total_cost_of_the_assignment(self, n, truth_shared,
                                                 estimate_shared):
        """The mean over pixels of the aligned columns' angle sums is the
        sum of the cost matrix over the assignment: sam_m, taken from the
        cost, equals sum_i cost[i, perm(i)] of the whole-array cost and
        the whole-array sam of the aligned stacks, to 1e-12 relative."""
        cube, truth, est = _scene(n, truth_shared, estimate_shared, 5 * n)
        cost = _ref_cost(truth.endmembers, est.endmembers)
        perm = _ref_align(truth.endmembers, est.endmembers)
        total = cost[np.arange(P), perm].sum()
        aligned = _ref_sam(truth.endmembers,
                           np.asarray(est.endmembers)[..., perm, :])
        assert abs(aligned - total) <= 1e-12 * total
        sam = ev.evaluate(cube, truth, est).sam_m
        assert abs(sam - total) <= 1e-12 * total


class TestReportCsv:
    def test_columns_are_the_report_fields(self):
        assert ev._CSV_COLUMNS == [f.name for f in
                                   dataclasses.fields(ev.MetricsReport)]
        assert ev._CSV_COLUMNS == list(SCORES)

    def test_round_trip(self):
        reports = [ev.MetricsReport(nrmse_a=0.1, nrmse_m=1 / 3, sam_m=2.5e-7,
                                    nrmse_y=1e-300, eta_d_mean=0.25,
                                    runtime_s=12.0),
                   ev.MetricsReport(nrmse_a=0.5, runtime_s=0.0)]
        back = ev.reports_from_csv(ev.reports_to_csv(reports))
        assert back == [dataclasses.asdict(r) for r in reports]

    @pytest.mark.parametrize("case", ["empty", "column dropped",
                                      "columns swapped"])
    def test_other_header_rejected(self, case):
        columns = list(ev._CSV_COLUMNS)
        if case == "column dropped":
            columns.pop()
        elif case == "columns swapped":
            columns[:2] = columns[1::-1]
        text = "" if case == "empty" else ",".join(columns) + "\n"
        with pytest.raises(InputError,
                           match="^unexpected report CSV columns$"):
            ev.reports_from_csv(text)
