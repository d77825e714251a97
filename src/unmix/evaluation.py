"""Metrics and the fully constrained least squares baseline.

NRMSE is a Frobenius ratio ``nrmse``; the spectral-angle score sam_m is
the mean over pixels n of sum_k arccos(<m_nk, m^_nk> / (|m_nk| |m^_nk|)),
the angles between each truth column and its aligned estimate column; and
the nonlinearity degree compares the norms of the two
abundance-concentration streams.  Estimated endmember columns are
aligned to ground truth by the angle-minimizing assignment before any
metric is computed.

Endmember stacks (N, L, P) are scored in two passes over fixed blocks of
``ROW_BLOCK`` pixels; a shared (L, P) matrix enters as a broadcast view.
A stack is a row source: an array, or a ``container.PayloadReader`` of the
stack on disk, and both passes read it only as ``stack[rows]``, one block
at a time, so a stack on disk is never read whole.  The first pass
computes every column norm of both stacks, once, and the angles between
the unit columns of each pixel, whose mean over pixels is the alignment's
cost matrix.  The second pass copies the truth block by block into one
(N, L, P) buffer and takes its whole-vector norm; it then takes the
estimate's columns in aligned order, reuses the first pass's norms for
the spectral angles, and overwrites the buffer with truth minus estimate.
That buffer is the only stack-sized array scoring makes: the endmember
NRMSE is one dot product of the whole difference over one of the whole
truth, and a dot product's rounding depends on the length of its vector,
so summing it by blocks would change the score's last bits.  Everything
else is computed per pixel, so every score is bitwise equal to its formula
evaluated on the whole aligned stacks at once.  The estimate's norms are
summed in the order that whole-stack evaluation sums them for the aligned
stack, so the cost matrix can differ in the last bit from one computed on
the unaligned stack; the alignment differs only where two assignments tie
to within rounding.
"""

from __future__ import annotations

import csv
import io
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .container import PayloadReader
from .data import _as_pixels
from .errors import DomainError, InputError

__all__ = ["nrmse", "nonlinearity_degree", "fcls", "project_simplex",
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


# Iteration cap and stopping residual of the FCLS projected gradient.
FCLS_MAX_ITER = 5000
FCLS_TOL = 1e-8


def fcls(cube, em_matrix: np.ndarray) -> np.ndarray:
    """Fully constrained least squares by projected gradient, all pixels at once.

    Minimizes ||y - M a||^2 over the simplex with step 1/lambda_max(M^T M),
    stopping when the projected-gradient residual falls below ``FCLS_TOL``.
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
    for _ in range(FCLS_MAX_ITER):
        grad = a @ gram - mty
        a_next = project_simplex(a - step * grad)
        resid = np.abs(a_next - a).max()
        a = a_next
        if resid < FCLS_TOL:
            break
    else:
        warnings.warn("fcls: projected gradient did not converge", RuntimeWarning)
    return a


# Pixels per block of the endmember-scoring passes.
ROW_BLOCK = 256


class NonFiniteEndmembers(InputError):
    """An endmember stack holds a NaN or an infinity.

    ``which`` is ``"truth"`` or ``"estimate"``; ``pixel`` is the first
    pixel (counted from 0) with such a value.
    """

    def __init__(self, which: str, pixel: int, band: int, column: int,
                 value: float):
        super().__init__(f"{which} endmembers have a non-finite value "
                         f"({value}) at pixel {pixel}, band {band}, "
                         f"column {column}")
        self.which = which
        self.pixel = pixel


def _source(m):
    """An endmember matrix or stack as a float64 array, or a payload reader
    as it is."""
    return m if isinstance(m, PayloadReader) else np.asarray(m, np.float64)


def _per_pixel_stack(m, n: int):
    if m.ndim == 2:
        return np.broadcast_to(m, (n,) + m.shape)
    return m


def _stack_pair(m_true, m_hat, n: int | None = None):
    """Both arguments as (N, L, P) row sources.  N is ``n`` when given, else
    the length of the first per-pixel stack of the two, else 1."""
    m_true, m_hat = _source(m_true), _source(m_hat)
    if n is None:
        n = next((m.shape[0] for m in (m_true, m_hat) if m.ndim == 3), 1)
    mt, mh = _per_pixel_stack(m_true, n), _per_pixel_stack(m_hat, n)
    if mt.shape != mh.shape:
        raise InputError(f"shape mismatch: {mt.shape} vs {mh.shape}")
    return mt, mh


def _blocks(n: int):
    return (slice(start, min(start + ROW_BLOCK, n))
            for start in range(0, n, ROW_BLOCK))


def _column_norms(block: np.ndarray, rows: slice, which: str) -> np.ndarray:
    """(B, P) column norms of a (B, L, P) block.

    A column holding a NaN or an infinity has a non-finite norm, so only a
    block with such a norm is searched for the value.
    """
    norms = np.linalg.norm(block, axis=1)
    if not np.isfinite(norms).all():
        bad = np.argwhere(~np.isfinite(block))
        if len(bad):                  # else the squares overflowed: no error
            pixel, band, column = (int(i) for i in bad[0])
            raise NonFiniteEndmembers(which, rows.start + pixel, band, column,
                                      float(block[pixel, band, column]))
    return norms


def _norm_pass(mt: np.ndarray, mh: np.ndarray):
    """First pass: the (N, P) column norms of both stacks and the (P, P)
    cost matrix whose entry (i, j) is the mean over pixels of the angle
    between truth column i and estimate column j."""
    n, _, p = mt.shape
    nt, nh = np.empty((n, p)), np.empty((n, p))
    angles = np.empty((n, p, p))
    for rows in _blocks(n):
        t = mt[rows]
        # The estimate with its bands contiguous, so that numpy sums each
        # norm pairwise, as it did for the whole column-permuted stack; a
        # C-ordered block would be summed band after band.
        h = np.swapaxes(np.ascontiguousarray(np.swapaxes(mh[rows], 1, 2)),
                        1, 2)
        nt[rows] = _column_norms(t, rows, "truth")
        nh[rows] = _column_norms(h, rows, "estimate")
        if np.any(nt[rows] == 0.0) or np.any(nh[rows] == 0.0):
            raise DomainError("zero-norm signature in angle computation")
        cos = np.swapaxes(t / nt[rows, None], 1, 2) @ (h / nh[rows, None])
        np.arccos(np.clip(cos, -1.0, 1.0), out=angles[rows])
    return nt, nh, angles.mean(axis=0)


def _angle_pass(mt: np.ndarray, mh: np.ndarray, cols: np.ndarray | None,
                nt: np.ndarray, nh: np.ndarray,
                diff: np.ndarray | None = None) -> np.ndarray:
    """Second pass: the per-pixel sums (N,) of the angles between the truth
    columns and the estimate's columns ``cols`` (all, in order, for None),
    from the first pass's norms ``nt`` and ``nh`` (the latter already in
    ``cols`` order).  With ``diff``, truth minus that estimate is written
    into it."""
    sums = np.empty(len(mt))
    for rows in _blocks(len(mt)):
        t = mt[rows]
        h = mh[rows] if cols is None else np.take(mh[rows], cols, axis=2)
        if diff is not None:
            np.subtract(t, h, out=diff[rows])
        cos = np.clip(np.sum(t * h, axis=1) / (nt[rows] * nh[rows]),
                      -1.0, 1.0)
        sums[rows] = np.arccos(cos).sum(axis=-1)
    return sums


def _assignment(cost: np.ndarray) -> np.ndarray:
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(len(cost), dtype=int)
    perm[rows] = cols
    return perm


def align_endmembers(m_true: np.ndarray, m_hat: np.ndarray) -> np.ndarray:
    """Column permutation of the estimate minimizing total mean angle.

    Returns ``perm`` such that estimate column perm[j] matches truth column j.
    """
    return _assignment(_norm_pass(*_stack_pair(m_true, m_hat))[2])


@dataclass
class Estimates:
    """Unmixing outputs entering a metrics report."""

    abundances: np.ndarray                    # (N, P)
    endmembers: np.ndarray | None = None      # (L, P) or (N, L, P), the
                                              # latter maybe a PayloadReader
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


def _endmember_scores(mt, mh, cols: np.ndarray | None,
                      nt: np.ndarray, nh: np.ndarray) -> tuple[float, float]:
    """(nrmse_m, sam_m) from the second pass; the arguments are those of
    ``_angle_pass``."""
    diff = np.empty(mt.shape)
    for rows in _blocks(len(mt)):
        diff[rows] = mt[rows]
    ref = np.linalg.norm(diff.ravel())
    if ref == 0.0:
        raise DomainError("reference norm is zero")
    sums = _angle_pass(mt, mh, cols, nt, nh, diff)
    return float(np.linalg.norm(diff.ravel()) / ref), float(sums.mean())


def evaluate(cube, truth, estimates: Estimates) -> MetricsReport:
    """Score estimates against ground truth; endmember metrics are skipped
    when no true endmembers are available.

    Endmember stacks, arrays or ``container.PayloadReader``s, are read in
    the module's two passes over blocks of ``ROW_BLOCK`` pixels: column
    norms and the alignment first, then the spectral angles and the
    difference of the aligned stacks.  Besides arrays of a few numbers per
    pixel, the only array as large as a stack that scoring holds is that
    difference, whose one dot product gives nrmse_m.  Every score is
    bitwise equal to its whole-array formula (see the module docstring)
    applied to the aligned stacks.
    """
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
            nt, nh, cost = _norm_pass(*_stack_pair(truth_m, basis))
            perm = _assignment(cost)
            nh = nh[:, perm]

    if truth_a is not None:
        report.nrmse_a = nrmse(truth_a,
                               a_hat if perm is None else a_hat[:, perm])
    if truth_m is not None and m_hat is not None:
        m_hat, cols = _source(m_hat), perm
        if m_hat.ndim == 2:                 # permuted once, then broadcast
            m_hat, cols = m_hat[:, perm], None
        mt, mh = _stack_pair(truth_m, m_hat, len(a_hat))
        # two shared matrices had their norms taken for one pixel
        per_pixel = mt.shape[::2]
        report.nrmse_m, report.sam_m = _endmember_scores(
            mt, mh, cols, np.broadcast_to(nt, per_pixel),
            np.broadcast_to(nh, per_pixel))
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
