"""Metrics and the fully constrained least squares baseline.

NRMSE is a Frobenius ratio ``nrmse``; the spectral-angle score sam_m is
the mean over pixels n of sum_k arccos(<m_nk, m^_nk> / (|m_nk| |m^_nk|)),
the angles between each true endmember and its aligned estimate; and the
nonlinearity degree compares the norms of the two abundance-concentration
streams.  Estimated endmembers, the VCA references of ``cli eval``'s FCLS
baseline among them, are aligned to ground truth by the angle-minimizing
assignment before any metric is computed, solved exactly in this module
(importing ``scipy.optimize`` cost more than scoring a 10k-pixel scene).

Every score is a streaming sum over fixed blocks of ``ROW_BLOCK`` rows
counted from row 0.  An input is a row source (``data._rows``): an
array, or a ``container.PayloadReader`` of a bundle on disk, read only as
``source[rows]``, one block at a time; a shared (P, L) endmember matrix
enters as a broadcast view.  Endmember stacks (N, P, L), each endmember's
bands contiguous, are scored in two passes.  The first reads each stack's
block once; it takes every endmember's norm and all P x P cross products
of each pixel (one batched product) and adds the angles between true
endmember i and estimate j into a (P, P) sum, whose mean over pixels is
the alignment's cost matrix.  sam_m is then the chosen assignment's total
cost, sum_i cost[i, perm(i)], which is the formula above.  The second
pass reads the stacks again and sums the squared truth and the squared
difference of the aligned stacks, the estimate's rows gathered whole,
for nrmse_m, as ``nrmse`` sums any two row sources.  Only a block whose
norms or sums are not finite is searched for a NaN or an infinity, so no
input needs a pass of its own to be checked; ``data``'s bundle check
reports the first, naming a bundle on disk by its path and an array by
its role (``truth``, ``estimate``, ``cube`` or ``reconstruction``); if
there is none, the squares of finite values overflowed, a ``DomainError``.
``report.csv``'s columns are the fields of ``MetricsReport``.

Sums of squares are taken by numpy's own einsum loop within a block and
in block order across blocks, and the cross products by one BLAS call per
pixel on its P x L endmembers, too small to be split across threads.  So the
rounding of every score depends on ``ROW_BLOCK`` and never on the BLAS
thread count (BLAS splits the dot product of a long vector across its
threads, and its rounding follows the split).  Scoring holds no array as
large as a stack, a cube or (N, P, P) angles: besides its inputs' few
numbers per pixel, only a block's worth at a time.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .container import PayloadReader
from .data import _check_finite, _rows
from .errors import DomainError, InputError


def nrmse(x, x_hat, name: str = "pixels", roles=("truth", "estimate"),
          score: str = "nrmse"):
    """||X - X_hat||_F / ||X||_F for row sources of one shape, of one axis
    or more, summed over blocks of ``ROW_BLOCK`` rows; a NaN or an
    infinity is reported as a value of the array ``name`` of its source,
    an array source named by its entry of ``roles`` (see the module
    docstring), and finite values whose squares overflow, or an X of zero
    norm, are a ``DomainError``, the latter naming ``score`` and X's
    source."""
    x, x_hat = _rows(x), _rows(x_hat)
    if x.shape != x_hat.shape:
        raise InputError(f"shape mismatch: {x.shape} vs {x_hat.shape}")
    return _ratio(*_residual_sums(x, x_hat, name, roles=roles), score,
                  _label(x, roles[0]))


def nonlinearity_degree(lin, nlin, start: int = 0) -> np.ndarray:
    """Share of the nonlinear stream in the concentration, per pixel, in [0, 1].

    ``lin`` and ``nlin`` are the two concentration streams (..., P) that
    the block from pixel ``start`` of ``inference.point_estimate_blocks``
    yields (``cli unmix`` writes this map as ``eta_d``): the share is
    ||nlin|| / (||lin|| + ||nlin||), and 0 where both norms are 0.  Each
    pixel's share reads only that pixel's streams.  Norms whose sum is not
    finite, as when the squares of finite streams overflow, are a
    ``DomainError`` naming ``start``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        n_lin = np.linalg.norm(np.asarray(lin, dtype=np.float64), axis=-1)
        n_nlin = np.linalg.norm(np.asarray(nlin, dtype=np.float64), axis=-1)
        denom = n_lin + n_nlin
    if not np.isfinite(denom).all():
        raise DomainError(f"eta_d: a sum of squares of the concentration "
                          f"streams overflows in the block from pixel {start}")
    return np.divide(n_nlin, denom, out=np.zeros_like(denom),
                     where=denom > 0.0)


# The most endmembers ``fcls`` takes: it solves one KKT system per
# nonempty support, 2^P - 1 of them.
FCLS_MAX_ENDMEMBERS = 10


def fcls(cube, em_matrix: np.ndarray) -> np.ndarray:
    """Fully constrained least squares, solved exactly for all pixels at once.

    Minimizes ||y - a M||^2, M the (P, L) endmember rows, subject to a >= 0
    and sum(a) = 1 by the active sets of Heinz & Chang (IEEE TGRS 39(3),
    2001).  For each nonempty support S, one (|S|+1)-square KKT system
    [M_S M_S^T 1; 1^T 0] [a_S; nu] = [M_S y; 1] gives every pixel's
    sum-to-one optimum on S.  The problem is convex, so a pixel's optimum
    is its lowest-objective solution with a >= 0; the P vertices (|S| = 1)
    are always such solutions.  More than ``FCLS_MAX_ENDMEMBERS``
    endmembers is an ``InputError``.
    """
    Y = _rows(cube)
    M = np.asarray(em_matrix, dtype=np.float64)
    p = len(M)
    if p > FCLS_MAX_ENDMEMBERS:
        raise InputError(f"fcls takes at most {FCLS_MAX_ENDMEMBERS} "
                         f"endmembers, got {p}")
    if np.linalg.matrix_rank(M) < p:
        raise InputError("endmember matrix must have full row rank")
    gram = M @ M.T
    mty = Y @ M.T                                   # (N, P)
    best = np.zeros((len(Y), p))
    best_cost = np.full(len(Y), np.inf)
    for k in range(1, p + 1):
        for s in map(list, itertools.combinations(range(p), k)):
            kkt = np.pad(gram[np.ix_(s, s)], (0, 1), constant_values=1.0)
            kkt[k, k] = 0.0
            rhs = np.vstack([mty[:, s].T, np.ones(len(Y))])
            a = np.zeros_like(best)
            a[:, s] = np.linalg.solve(kkt, rhs)[:k].T
            # ||y - a M||^2 - ||y||^2
            cost = np.einsum("np,np->n", a @ gram - 2.0 * mty, a)
            keep = (a >= 0.0).all(axis=1) & (cost < best_cost)
            best[keep], best_cost[keep] = a[keep], cost[keep]
    return best


# Rows per block of every scoring pass.  It sets the summation order of
# every score, and so the bytes of ``report.csv`` for given estimates.
ROW_BLOCK = 256


def _label(source, role: str) -> str:
    """A row source as a non-finite value's report names it: a payload
    reader by its bundle's path, an array by its ``role``."""
    return (source.path.removesuffix(".raw")
            if isinstance(source, PayloadReader) else role)


def _per_pixel_stack(m, n: int):
    if m.ndim == 2:
        return np.broadcast_to(m, (n,) + m.shape)
    return m


def _stack_pair(m_true, m_hat):
    """Both arguments as (N, P, L) row sources.  N is the length of the
    first per-pixel stack of the two, else 1."""
    m_true, m_hat = _rows(m_true), _rows(m_hat)
    n = next((m.shape[0] for m in (m_true, m_hat) if m.ndim == 3), 1)
    mt, mh = _per_pixel_stack(m_true, n), _per_pixel_stack(m_hat, n)
    if mt.shape != mh.shape:
        raise InputError(f"shape mismatch: {mt.shape} vs {mh.shape}")
    return mt, mh


def _blocks(n: int):
    return (slice(start, min(start + ROW_BLOCK, n))
            for start in range(0, n, ROW_BLOCK))


def _sum_squares(x: np.ndarray) -> float:
    """The sum of the squares of ``x``, in one pass of numpy's einsum loop
    (no BLAS call, and no array of the squares)."""
    flat = np.ascontiguousarray(x).ravel()
    return float(np.einsum("i,i->", flat, flat))


def _residual_sums(x, x_hat, name: str, perm: np.ndarray | None = None,
                   roles=("truth", "estimate")) -> tuple[float, float]:
    """(sum (x - x_hat)^2, sum x^2) of two row sources of one shape, block
    by block, with the second axis of ``x_hat`` taken in the order ``perm``
    (as it is for None).  A block whose sums are not finite fails
    ``_overflow_guard``, ``x`` searched first.
    """
    labels = [_label(src, role) for src, role in zip((x, x_hat), roles)]
    num = den = 0.0
    for rows in _blocks(len(x)):
        t, h = x[rows], x_hat[rows]
        if perm is not None:
            h = h[:, perm]
        block_num, block_den = _sum_squares(t - h), _sum_squares(t)
        if not math.isfinite(block_num + block_den):
            _overflow_guard(name, rows.start, *zip(labels, (t, h)))
        num += block_num
        den += block_den
    return num, den


def _ratio(num: float, den: float, score: str, label: str) -> float:
    """sqrt(num / den), or for a reference ``label`` of zero norm, whose
    ``score`` has no value, a ``DomainError`` naming both."""
    if den == 0.0:
        raise DomainError(f"{label}: the reference of {score} has zero norm")
    return math.sqrt(num) / math.sqrt(den)


def _overflow_guard(name: str, start: int, *labelled):
    """Fail for a block from pixel ``start`` whose sums of squares are not
    finite: ``_check_finite``'s error for the first NaN or infinity of the
    (label, block) pairs ``labelled``, searched in order, or if there is
    none, the squares of finite values overflowed, a ``DomainError``."""
    for label, block in labelled:
        _check_finite(label, name, block, None, start)
    labels = " and ".join(label for label, _ in labelled)
    raise DomainError(f"{labels}: a sum of squares of {name} overflows in "
                      f"the block from pixel {start}")


def _column_norms(block: np.ndarray, start: int, label: str) -> np.ndarray:
    """(B, P) norms of the endmembers of the (B, P, L) block from pixel
    ``start`` of the stack ``label``, every one finite: a block with a
    norm that is not fails ``_overflow_guard``, so every angle taken from
    them is finite too.
    """
    norms = np.sqrt(np.einsum("bpl,bpl->bp", block, block))
    if not np.isfinite(norms).all():
        _overflow_guard("endmembers", start, (label, block))
    return norms


def _zero_norm(start: int, *labelled):
    """Fail for the first endmember of zero norm in the (label, (B, P)
    norms) pairs ``labelled`` of the block from pixel ``start``, searched
    in order, a ``DomainError`` naming its stack, endmember and pixel."""
    for label, norms in labelled:
        zero = np.argwhere(norms == 0.0)
        if len(zero):
            pixel, k = zero[0]
            raise DomainError(f"{label}: endmember {k} of pixel "
                              f"{start + pixel} has zero norm")


def _alignment_cost(mt, mh) -> np.ndarray:
    """First pass: the (P, P) cost matrix whose entry (i, j) is the mean
    over pixels of the angle between true endmember i and estimate j of
    two (N, P, L) row sources."""
    n, p, _ = mt.shape
    lt, lh = _label(mt, "truth"), _label(mh, "estimate")
    total = np.zeros((p, p))
    for rows in _blocks(n):
        t, h = mt[rows], mh[rows]
        nt = _column_norms(t, rows.start, lt)
        nh = _column_norms(h, rows.start, lh)
        if np.any(nt == 0.0) or np.any(nh == 0.0):
            _zero_norm(rows.start, (lt, nt), (lh, nh))
        cos = (t @ np.swapaxes(h, 1, 2)) / (nt[:, :, None] * nh[:, None, :])
        total += np.arccos(np.clip(cos, -1.0, 1.0)).sum(axis=0)
    return total / n


def _min_cost_assignment(cost: np.ndarray) -> np.ndarray:
    """Columns perm of a least-total assignment of the finite square
    ``cost``, row i to column perm[i].

    Shortest augmenting paths, the method of scipy's
    ``linear_sum_assignment`` (Crouse, IEEE TAES 52(4), 2016): each row
    joins along the cheapest alternating path over the reduced costs
    cost[i, j] - u[i] - v[j], which the potentials u and v keep
    non-negative.  O(P^3).
    """
    p = len(cost)
    u, v = np.zeros(p), np.zeros(p + 1)
    row_of = np.full(p + 1, -1)       # column p is the path's root
    for i in range(p):
        row_of[p], col = i, p
        dist, prev = np.full(p, np.inf), np.full(p, p)
        done = np.zeros(p + 1, dtype=bool)
        while row_of[col] != -1:      # until the path reaches a free column
            done[col] = True
            r = row_of[col]
            reduced = cost[r] - u[r] - v[:p]
            closer = ~done[:p] & (reduced < dist)
            dist[closer], prev[closer] = reduced[closer], col
            todo = np.flatnonzero(~done[:p])
            nxt = todo[dist[todo].argmin()]
            delta = dist[nxt]
            u[row_of[done]] += delta
            v[done] -= delta
            dist[todo] -= delta
            col = nxt
        while col != p:               # flip the path's columns
            row_of[col] = row_of[prev[col]]
            col = prev[col]
    perm = np.empty(p, dtype=np.intp)
    perm[row_of[:p]] = np.arange(p)
    return perm


def align_endmembers(m_true, m_hat) -> tuple[np.ndarray, np.ndarray]:
    """Endmember permutation of the estimate minimizing total mean angle.

    ``m_true`` and ``m_hat`` are (P, L) or (N, P, L) row sources.  Returns
    ``(perm, cost)``: ``perm`` such that estimate endmember perm[j] matches
    true endmember j, and the (P, P) matrix of mean angles, true endmember
    i against estimate j, whose entries (j, perm[j]) sum to the least
    total.  ``_min_cost_assignment`` solves the assignment exactly; on
    ties any optimal permutation may be returned.  It needs a finite
    cost, and gets one: ``_column_norms`` passes only finite norms and
    ``_alignment_cost`` only nonzero ones, so every angle is in [0, pi].
    """
    cost = _alignment_cost(*_stack_pair(m_true, m_hat))
    return _min_cost_assignment(cost), cost


@dataclass
class Estimates:
    """Unmixing outputs entering a metrics report."""

    abundances: np.ndarray                    # (N, P)
    endmembers: np.ndarray | None = None      # (P, L) or (N, P, L), the
                                              # latter maybe a PayloadReader
    reconstruction: np.ndarray | None = None  # (N, L), maybe a PayloadReader
    eta_d: np.ndarray | None = None           # (N,)
    runtime_s: float = 0.0


@dataclass
class MetricsReport:
    """Error metrics, the mean nonlinearity degree and the runtime; a field
    is None when its ground truth or estimate is absent.  The fields, in
    order, are ``report.csv``'s columns."""

    nrmse_a: float | None = None
    nrmse_m: float | None = None
    sam_m: float | None = None
    nrmse_y: float | None = None
    eta_d_mean: float | None = None
    runtime_s: float = 0.0


def _check_pixel_counts(n: int, estimates: Estimates):
    """Reject the first per-pixel estimate whose length is not ``n``; a
    shared (P, L) endmember matrix has none."""
    for role in ("abundances", "endmembers", "reconstruction", "eta_d"):
        est = getattr(estimates, role)
        if est is None or (role == "endmembers" and _rows(est).ndim != 3):
            continue
        if len(est) != n:
            raise InputError(f"{_label(est, role)}: {role} of {len(est)} "
                             f"pixels for a cube of {n}")


def evaluate(cube, truth, estimates: Estimates) -> MetricsReport:
    """Score estimates against the ``data.GroundTruth`` ``truth``; the
    endmember metrics, and the alignment of the abundances, are skipped
    when the truth or the estimate has no endmembers.

    The cube, the reconstruction and the endmember stacks are row sources,
    arrays or ``container.PayloadReader``s, read in blocks of ``ROW_BLOCK``
    rows.  The stacks are read in the module's two passes: the alignment
    cost first, from which the assignment and sam_m follow, then the sums
    of nrmse_m over the aligned stacks.  nrmse_y reads the cube and the
    reconstruction once.  Besides arrays of a few numbers per pixel,
    scoring holds one block of each input at a time, and no array of
    (N, P, P) angles.  The rounding of every score depends on
    ``ROW_BLOCK``, not on the BLAS thread count.  eta_d_mean is the mean
    of ``estimates.eta_d``.  Every per-pixel estimate must have the cube's
    pixel count, else an ``InputError`` names it: a payload reader by its
    bundle's path, an array by its field (``abundances``, ``endmembers``,
    ``reconstruction`` or ``eta_d``).
    """
    _check_pixel_counts(len(_rows(cube)), estimates)
    report = MetricsReport(runtime_s=estimates.runtime_s)
    if estimates.eta_d is not None:
        report.eta_d_mean = float(np.mean(estimates.eta_d))
    a_hat = np.asarray(estimates.abundances, dtype=np.float64)
    m_hat, truth_m = estimates.endmembers, truth.endmembers

    perm = None
    if truth_m is not None and m_hat is not None:
        perm, cost = align_endmembers(truth_m, m_hat)

    if truth.abundances is not None:
        report.nrmse_a = nrmse(truth.abundances,
                               a_hat if perm is None else a_hat[:, perm],
                               "abundances", score="nrmse_a")
    if perm is not None:
        report.sam_m = float(cost[np.arange(len(perm)), perm].sum())
        mt, mh = _stack_pair(truth_m, m_hat)
        report.nrmse_m = _ratio(*_residual_sums(mt, mh, "endmembers", perm),
                                "nrmse_m", _label(mt, "truth"))
    if estimates.reconstruction is not None:
        report.nrmse_y = nrmse(cube, estimates.reconstruction,
                               "pixels", ("cube", "reconstruction"),
                               score="nrmse_y")
    return report


_CSV_COLUMNS = [f.name for f in fields(MetricsReport)]


def _cell(value) -> str:
    return "--" if value is None else repr(float(value))


def reports_to_csv(reports: list[MetricsReport]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for r in reports:
        writer.writerow([_cell(getattr(r, col)) for col in _CSV_COLUMNS])
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
