"""Metrics and the fully constrained least squares baseline.

NRMSE is a Frobenius ratio, the spectral-angle score averages the per-pixel
sum of endmember angles, and the nonlinearity degree compares the norms of
the two abundance-concentration streams.  Estimated endmember columns are
aligned to ground truth by the angle-minimizing assignment before any
metric is computed.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .data import HyperCube, _as_pixels
from .errors import DomainError, InputError

__all__ = ["nrmse", "sam", "nonlinearity_degree", "fcls", "project_simplex",
           "align_endmembers", "Estimates", "MetricsReport", "evaluate",
           "reports_to_csv", "reports_from_csv"]


def nrmse(x: np.ndarray, x_hat: np.ndarray) -> float:
    """||X - X_hat||_F / ||X||_F for arrays of any matching shape."""
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape:
        raise InputError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    ref = np.linalg.norm(x.ravel())
    if ref == 0.0:
        raise DomainError("reference norm is zero")
    return float(np.linalg.norm((x - x_hat).ravel()) / ref)


def _per_pixel_stack(m: np.ndarray, n: int) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim == 2:
        return np.broadcast_to(m, (n,) + m.shape)
    return m


def sam(m_true: np.ndarray, m_hat: np.ndarray) -> float:
    """Mean over pixels of the summed per-endmember spectral angles.

    Accepts (N, L, P) stacks; a shared (L, P) matrix broadcasts.
    """
    m_true = np.asarray(m_true, dtype=np.float64)
    m_hat = np.asarray(m_hat, dtype=np.float64)
    n = m_true.shape[0] if m_true.ndim == 3 else (
        m_hat.shape[0] if m_hat.ndim == 3 else 1)
    mt = _per_pixel_stack(m_true, n)
    mh = _per_pixel_stack(m_hat, n)
    if mt.shape != mh.shape:
        raise InputError(f"shape mismatch: {mt.shape} vs {mh.shape}")
    nt = np.linalg.norm(mt, axis=1)
    nh = np.linalg.norm(mh, axis=1)
    if np.any(nt == 0.0) or np.any(nh == 0.0):
        raise DomainError("zero-norm signature in angle computation")
    cos = np.clip(np.sum(mt * mh, axis=1) / (nt * nh), -1.0, 1.0)
    return float(np.arccos(cos).sum(axis=-1).mean())


def nonlinearity_degree(lin, nlin) -> np.ndarray | float:
    """Share of the nonlinear stream in the concentration, per pixel, in [0, 1].

    ``lin`` and ``nlin`` are the two concentration streams (..., P), the
    third and fourth outputs of ``inference.point_estimates_with_streams``
    (``cli unmix`` writes this map as ``eta_d``): the share is
    ||nlin|| / (||lin|| + ||nlin||), and 0 where both norms are 0.  Each
    pixel's share reads only that pixel's streams.
    """
    n_lin = np.linalg.norm(np.asarray(lin, dtype=np.float64), axis=-1)
    n_nlin = np.linalg.norm(np.asarray(nlin, dtype=np.float64), axis=-1)
    denom = n_lin + n_nlin
    out = np.divide(n_nlin, denom, out=np.zeros_like(denom),
                    where=denom > 0.0)
    return float(out) if out.ndim == 0 else out


def project_simplex(x: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the unit simplex (sort-based)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    p = x.shape[-1]
    u = -np.sort(-x, axis=-1)
    css = np.cumsum(u, axis=-1) - 1.0
    ks = np.arange(1, p + 1)
    cond = u - css / ks > 0.0
    rho = p - 1 - np.argmax(cond[:, ::-1], axis=-1)
    theta = css[np.arange(len(x)), rho] / (rho + 1.0)
    return np.maximum(x - theta[:, None], 0.0)


def fcls(cube, em_matrix: np.ndarray, max_iter: int = 5000,
         tol: float = 1e-8) -> np.ndarray:
    """Fully constrained least squares by projected gradient, all pixels at once.

    Minimizes ||y - M a||^2 over the simplex with step 1/lambda_max(M^T M),
    stopping when the projected-gradient residual falls below ``tol``.
    Non-convergence returns the final iterate with a warning.
    """
    Y = _as_pixels(cube)
    M = np.asarray(em_matrix, dtype=np.float64)
    if np.linalg.matrix_rank(M) < M.shape[1]:
        raise InputError("endmember matrix must have full column rank")
    gram = M.T @ M
    step = 1.0 / float(np.linalg.eigvalsh(gram)[-1])
    mty = Y @ M                                     # (N, P)
    a = np.full((len(Y), M.shape[1]), 1.0 / M.shape[1])
    for _ in range(max_iter):
        grad = a @ gram - mty
        a_next = project_simplex(a - step * grad)
        resid = np.abs(a_next - a).max()
        a = a_next
        if resid < tol:
            break
    else:
        warnings.warn("fcls: projected gradient did not converge", RuntimeWarning)
    return a


def _mean_angle_cost(mt: np.ndarray, mh: np.ndarray) -> np.ndarray:
    """(P, P) matrix whose entry (i, j) is ``sam`` of truth column i against
    estimate column j, from one batched product of unit columns."""
    if mt.shape != mh.shape:
        raise InputError(f"shape mismatch: {mt.shape} vs {mh.shape}")
    nt = np.linalg.norm(mt, axis=1, keepdims=True)
    nh = np.linalg.norm(mh, axis=1, keepdims=True)
    if np.any(nt == 0.0) or np.any(nh == 0.0):
        raise DomainError("zero-norm signature in angle computation")
    cos = np.swapaxes(mt / nt, 1, 2) @ (mh / nh)          # (N, P, P)
    return np.arccos(np.clip(cos, -1.0, 1.0)).mean(axis=0)


def align_endmembers(m_true: np.ndarray, m_hat: np.ndarray) -> np.ndarray:
    """Column permutation of the estimate minimizing total mean angle.

    Returns ``perm`` such that estimate column perm[j] matches truth column j.
    """
    m_true = np.asarray(m_true, np.float64)
    m_hat = np.asarray(m_hat, np.float64)
    n = m_true.shape[0] if m_true.ndim == 3 else (
        m_hat.shape[0] if m_hat.ndim == 3 else 1)
    mt = _per_pixel_stack(m_true, n)
    mh = _per_pixel_stack(m_hat, n)
    p = mt.shape[-1]
    rows, cols = linear_sum_assignment(_mean_angle_cost(mt, mh))
    perm = np.empty(p, dtype=int)
    perm[rows] = cols
    return perm


@dataclass
class Estimates:
    """Unmixing outputs entering a metrics report."""

    abundances: np.ndarray                    # (N, P)
    endmembers: np.ndarray | None = None      # (L, P) or (N, L, P)
    reconstruction: np.ndarray | None = None  # (N, L)
    eta_d: np.ndarray | None = None           # (N,)
    runtime_s: float = 0.0
    align_with: np.ndarray | None = None      # alignment fallback, (L, P)


@dataclass
class MetricsReport:
    """Error metrics; fields are None when their ground truth is absent."""

    nrmse_a: float | None = None
    nrmse_m: float | None = None
    sam_m: float | None = None
    nrmse_y: float | None = None
    eta_d_map: np.ndarray | None = None
    runtime_s: float = 0.0

    @property
    def eta_d_mean(self) -> float | None:
        return None if self.eta_d_map is None else float(np.mean(self.eta_d_map))


def evaluate(cube, truth, estimates: Estimates) -> MetricsReport:
    """Score estimates against ground truth; endmember metrics are skipped
    when no true endmembers are available."""
    report = MetricsReport(eta_d_map=estimates.eta_d,
                           runtime_s=estimates.runtime_s)
    a_hat = np.asarray(estimates.abundances, dtype=np.float64)
    m_hat = estimates.endmembers
    truth_m = None if truth is None else truth.endmembers
    truth_a = None if truth is None else truth.abundances

    perm = None
    if truth_m is not None:
        basis = m_hat if m_hat is not None else estimates.align_with
        if basis is not None:
            perm = align_endmembers(truth_m, basis)
    if perm is not None:
        a_hat = a_hat[:, perm]
        if m_hat is not None:
            m_hat = np.asarray(m_hat)[..., perm]

    if truth_a is not None:
        report.nrmse_a = nrmse(truth_a, a_hat)
    if truth_m is not None and m_hat is not None:
        n = len(a_hat)
        mt = _per_pixel_stack(np.asarray(truth_m), n)
        mh = _per_pixel_stack(np.asarray(m_hat), n)
        report.nrmse_m = nrmse(mt, mh)
        report.sam_m = sam(mt, mh)
    if estimates.reconstruction is not None:
        report.nrmse_y = nrmse(_as_pixels(cube), estimates.reconstruction)
    return report


_CSV_COLUMNS = ["nrmse_a", "nrmse_m", "sam_m", "nrmse_y", "eta_d_mean",
                "runtime_s"]


def _cell(value) -> str:
    return "--" if value is None else repr(float(value))


def reports_to_csv(reports: list[MetricsReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in reports:
        writer.writerow([_cell(r.nrmse_a), _cell(r.nrmse_m), _cell(r.sam_m),
                         _cell(r.nrmse_y), _cell(r.eta_d_mean),
                         _cell(r.runtime_s)])
    return buf.getvalue()


def reports_from_csv(text: str) -> list[dict]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != _CSV_COLUMNS:
        raise InputError("unexpected report CSV columns")
    out = []
    for row in rows[1:]:
        out.append({col: (None if cell == "--" else float(cell))
                    for col, cell in zip(_CSV_COLUMNS, row)})
    return out
