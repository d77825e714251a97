"""Data supply: bundles on disk, synthetic scenes, endmember extraction,
and the self-supervised construction of the labeled set.

Each bundle is a ``container`` of the arrays its name says: a cube's
``pixels``, ``abundances``, ``endmembers``, the ``nonlinearity_degree``
map, or the labelled set's ``y``, ``a`` and ``m``; ``container`` lists
their shapes and meta.  The readers here check each kind's array names,
axes and scene size, and every ``load_*`` reads with ``reader[:]``.  All
generation is deterministic given the caller's Generator; functions that
add noise spawn (variability, noise) child streams in a fixed order so the
noise realization is comparable across generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import container as ct
from .errors import BundleError, ExtractionError, GenerationError, InputError


@dataclass
class HyperCube:
    """An L-band W x H reflectance raster flattened to N pixels (row-major).

    ``pixels`` is an (N, L) array, or for a cube read in blocks from disk
    (``open_cube``) a ``container.PayloadReader`` of one.
    """

    width: int
    height: int
    pixels: np.ndarray                      # (N, L)
    wavelengths: np.ndarray | None = None   # (L,) nm, optional

    def __post_init__(self):
        self.pixels = _rows(self.pixels)
        if self.pixels.ndim != 2:
            raise InputError("pixels must be an (N, L) array")
        if self.width * self.height != self.pixels.shape[0]:
            raise InputError("width * height must equal the pixel count")
        if self.wavelengths is not None:
            self.wavelengths = np.asarray(self.wavelengths, dtype=np.float64)
            if self.wavelengths.shape != (self.pixels.shape[1],):
                raise InputError("wavelengths must have one entry per band")

    @property
    def n_pixels(self) -> int:
        return self.pixels.shape[0]

    @property
    def n_bands(self) -> int:
        return self.pixels.shape[1]


@dataclass
class GroundTruth:
    """True abundances and one shared or per-pixel endmember matrices;
    ``evaluation.evaluate`` skips the scores of either that is missing.

    A per-pixel stack may stay on disk as a ``container.PayloadReader``
    (``open_endmembers``), which ``evaluation.evaluate`` reads in blocks.
    """

    abundances: np.ndarray | None = None   # (N, P) simplex rows
    endmembers: np.ndarray | None = None   # (P, L) or (N, P, L)


def _rows(x):
    """A row source: a cube's pixels, a ``container.PayloadReader`` as it
    is, and anything else as a float64 array."""
    if isinstance(x, HyperCube):
        return x.pixels
    return x if isinstance(x, ct.PayloadReader) else np.asarray(x, np.float64)


# ------------------------------------------------------------- generation

# The fewest bands a synthetic library has, and the largest variability
# strength of a dc2 scene.
MIN_BANDS = 16
MAX_VARIABILITY = 0.5

# Smallest pairwise spectral angle (radians) of a synthetic library, and the
# draws allowed to reach it.
LIBRARY_MIN_ANGLE = 0.15
LIBRARY_MAX_ATTEMPTS = 100
# Gaussian blur (pixels) that softens the Voronoi region boundaries.
ABUNDANCE_BLUR_SIGMA = 1.5


def synth_endmember_library(n_bands: int, n_endmembers: int,
                            rng: np.random.Generator) -> np.ndarray:
    """P smooth, well-separated spectra in (0.05, 0.95), as (P, L) rows.

    Each spectrum is a sum of 3-6 Gaussian bumps rescaled into (0.08, 0.92);
    the whole set is redrawn until every pairwise spectral angle reaches
    ``LIBRARY_MIN_ANGLE`` radians.
    """
    if n_bands < MIN_BANDS:
        raise InputError(f"need at least {MIN_BANDS} bands, got {n_bands}")
    grid = np.arange(n_bands, dtype=np.float64)
    for _ in range(LIBRARY_MAX_ATTEMPTS):
        rows = []
        for _ in range(n_endmembers):
            n_bumps = int(rng.integers(3, 7))
            centers = rng.uniform(0, n_bands, n_bumps)
            widths = rng.uniform(n_bands / 16, n_bands / 4, n_bumps)
            amps = rng.uniform(0.3, 1.0, n_bumps)
            s = np.sum(amps[:, None]
                       * np.exp(-0.5 * ((grid[None, :] - centers[:, None])
                                        / widths[:, None]) ** 2), axis=0)
            lo, hi = s.min(), s.max()
            rows.append(0.08 + 0.84 * (s - lo) / max(hi - lo, 1e-12))
        M = np.stack(rows)
        if _min_pairwise_angle(M) >= LIBRARY_MIN_ANGLE:
            return M
    raise GenerationError(
        f"could not reach pairwise angle {LIBRARY_MIN_ANGLE} in "
        f"{LIBRARY_MAX_ATTEMPTS} draws")


def _min_pairwise_angle(M: np.ndarray) -> float:
    norms = np.linalg.norm(M, axis=1)
    cos = np.clip((M @ M.T) / np.outer(norms, norms), -1.0, 1.0)
    ang = np.arccos(cos)
    iu = np.triu_indices(M.shape[0], k=1)
    return float(ang[iu].min()) if len(iu[0]) else np.inf


def synth_abundance_maps(width: int, height: int, n_endmembers: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Piecewise-constant Voronoi label maps softened by a spatial blur.

    3P seeds, each endmember labelling at least one.  Returns (N, P)
    simplex rows; region interiors stay pure, boundaries mix.  The blur is
    ``_blur_nearest``, bitwise equal to ``scipy.ndimage.gaussian_filter(
    map, ABUNDANCE_BLUR_SIGMA, mode="nearest")`` of each label map.
    """
    P = n_endmembers
    n_regions = 3 * P
    seeds = rng.uniform([0.0, 0.0], [height, width], size=(n_regions, 2))
    labels = np.concatenate([np.arange(P),
                             rng.integers(0, P, n_regions - P)])
    yy, xx = np.mgrid[0:height, 0:width]
    d2 = ((yy[..., None] - seeds[:, 0]) ** 2
          + (xx[..., None] - seeds[:, 1]) ** 2)
    region = labels[np.argmin(d2, axis=-1)]
    onehot = np.eye(P)[region]                       # (H, W, P)
    blurred = np.clip(_blur_nearest(onehot, ABUNDANCE_BLUR_SIGMA), 0.0, None)
    blurred /= blurred.sum(axis=-1, keepdims=True)
    return blurred.reshape(height * width, P)


def _blur_nearest(a: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of (H, W, ...) ``a`` along axis 0 and then axis 1,
    edges extended by their nearest row, all trailing channels at once.

    It repeats scipy's ``gaussian_filter`` operation for operation, so the
    bytes match without importing scipy (the import costs more than all of
    ``generate``): the kernel's formula and radius ``int(4 sigma + 0.5)``,
    and ``NI_Correlate1D``'s symmetric sum, the centre tap first and then
    each pair of taps from the outermost in.
    """
    r = int(4.0 * sigma + 0.5)
    x = np.arange(-r, r + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    w = w / w.sum()
    for _ in range(2):               # axis 0, then axis 1 (swapped to 0)
        n = len(a)
        p = np.concatenate([a[:1].repeat(r, 0), a, a[-1:].repeat(r, 0)])
        out = p[r:r + n] * w[r]
        for j in range(r, 0, -1):
            out += (p[r - j:r - j + n] + p[r + j:r + j + n]) * w[r - j]
        a = out.swapaxes(0, 1)
    return a


def check_simplex(A: np.ndarray, row: str = "abundance row"):
    """Raise ``InputError`` naming the first row of ``A`` off the unit
    simplex, one with an entry below -1e-9 or a sum more than 1e-6 from 1,
    as ``row`` and its index."""
    bad = np.flatnonzero(np.any(A < -1e-9, axis=-1)
                         | (np.abs(A.sum(axis=-1) - 1.0) > 1e-6))
    if bad.size:
        raise InputError(f"{row} {bad[0]} is off the unit simplex: "
                         f"{A[bad[0]].tolist()}")


def noise_power_ratio(snr_db: float, name: str = "snr_db") -> float:
    """Signal-to-noise power ratio 10^(snr_db / 10) of an SNR in dB.

    Raises ``InputError`` naming ``name`` unless the ratio is a finite,
    normal float: a NaN or infinite SNR, or one beyond about +-3080 dB,
    gives no noise level that a float holds.
    """
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = np.inf
    if not np.finfo(np.float64).tiny <= ratio < np.inf:     # NaN fails too
        raise InputError(f"{name} {snr_db} dB gives no finite, nonzero "
                         f"noise power ratio")
    return ratio


# Rows per block of the finite checks and of the generators' writes.  It
# bounds the memory those passes hold; no output byte depends on it.
ROW_BLOCK = 512


def _append_noisy(clean: np.ndarray, snr_db: float | None,
                  noise_rng: np.random.Generator, pixels_out):
    """Append ``clean`` (N, L) plus white Gaussian noise to ``pixels_out``,
    made noisy in place in blocks of ``ROW_BLOCK`` pixels from pixel 0.

    The noise, one stream of ``noise_rng``, is scaled so the cube-level
    power ratio is ``snr_db`` (None: noiseless).  Its sigma is taken here
    alone, from the whole clean cube, which each generator therefore holds
    whole; the power is einsum's sum of squares, which forms no square of
    the cube, so the clean cube is the one cube held at the peak.
    """
    sigma = 0.0 if snr_db is None else float(np.sqrt(
        np.einsum("ij,ij->", clean, clean) / clean.size
        / noise_power_ratio(snr_db)))
    for start in range(0, len(clean), ROW_BLOCK):
        pixels = clean[start:start + ROW_BLOCK]
        pixels += sigma * noise_rng.standard_normal(pixels.shape)
        pixels_out.append(pixels)


def generate_dc1(abundances: np.ndarray, em_matrix: np.ndarray,
                 snr_db: float | None, rng: np.random.Generator, pixels_out):
    """Bilinear-mixture scene: y = a M + sum_{i<j} a_i a_j m_i * m_j + noise.

    The endmembers m_i are the rows of the (P, L) ``em_matrix``.  The noisy
    (N, L) pixels are appended to ``pixels_out``, a
    ``container.PayloadWriter`` or a list, as ``generate_dc2``'s are.
    """
    A = np.asarray(abundances, dtype=np.float64)
    M = np.asarray(em_matrix, dtype=np.float64)
    check_simplex(A)
    _, noise_rng = rng.spawn(2)
    clean = A @ M       # whole: a one-row product (gemv) may round otherwise
    for start in range(0, len(A), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        for i, j in combinations(range(len(M)), 2):
            clean[rows] += np.outer(A[rows, i] * A[rows, j], M[i] * M[j])
    _append_noisy(clean, snr_db, noise_rng, pixels_out)


def generate_dc2(abundances: np.ndarray, base_em: np.ndarray,
                 variability_strength: float, snr_db: float | None,
                 rng: np.random.Generator, endmembers_out, pixels_out):
    """Linear mixtures of per-pixel (P, L) endmembers: y_n = a_n M_n + e_n.

    Each (pixel, endmember) pair gets a random scale in [1-v, 1+v] modulated
    by a smooth zero-mean spectral bump, so signatures change shape (not just
    amplitude) while averaging to the drawn scale across bands; the stack is
    clipped to [0, 1].

    The (N, P, L) stack is appended to ``endmembers_out`` and then the
    noisy (N, L) pixels to ``pixels_out``, each in blocks of ``ROW_BLOCK``
    pixels from pixel 0; either may be a ``container.PayloadWriter`` or a
    list.
    """
    v = float(variability_strength)
    if not 0.0 <= v <= MAX_VARIABILITY:
        raise InputError(f"variability strength must be in "
                         f"[0, {MAX_VARIABILITY}], got {v}")
    A = np.asarray(abundances, dtype=np.float64)
    M0 = np.asarray(base_em, dtype=np.float64)
    check_simplex(A)
    n, (P, L) = len(A), M0.shape
    var_rng, noise_rng = rng.spawn(2)
    grid = np.arange(L, dtype=np.float64)
    scales = var_rng.uniform(1.0 - v, 1.0 + v, size=(n, P))
    centers = var_rng.uniform(0, L, size=(n, P))
    widths = var_rng.uniform(L / 10, L / 3, size=(n, P))
    amps = var_rng.uniform(0.5, 1.5, size=(n, P))
    clean = np.empty((n, L))
    for start in range(0, n, ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        # The block of the stack, updated in place.  The steps evaluate
        # clip(M0 · (1 + (s - 1) · (1 + amp · (bump - mean(bump))))),
        # bump = exp(-0.5 · ((grid - center) / width)²), in the same
        # order as the expression would, so the stack is bitwise the same.
        # At v = 0 every s is 1 exactly: the block is M0's, clipped.
        buf = np.subtract(grid[None, None, :], centers[rows, :, None])
        buf /= widths[rows, :, None]
        np.square(buf, out=buf)
        buf *= -0.5
        np.exp(buf, out=buf)                              # bump
        buf -= buf.mean(axis=-1, keepdims=True)
        buf *= amps[rows, :, None]
        buf += 1.0                                        # envelope
        buf *= scales[rows, :, None] - 1.0
        buf += 1.0                                        # multiplier
        buf *= M0[None, :, :]
        em = np.clip(buf, 0.0, 1.0, out=buf)
        endmembers_out.append(em)
        clean[rows] = np.einsum("npl,np->nl", em, A[rows])
    _append_noisy(clean, snr_db, noise_rng, pixels_out)


# ------------------------------------------------------------- extraction

def vca(cube, n_endmembers: int, rng: np.random.Generator) -> np.ndarray:
    """Vertex selection in the SVD signal subspace; returns P pixels, (P, L).

    Projects the data onto its top-P singular subspace, then P times
    draws a random direction, orthogonalizes it against the span of the
    already-selected vertices, and picks the pixel with the largest
    absolute component along it.  Each direction is drawn once: the span
    has fewer than P dimensions, so its residual is almost surely nonzero.
    """
    pixels = _rows(cube)
    X = pixels.T                                    # (L, N)
    L, n = X.shape
    P = n_endmembers
    if P > min(L, n):
        raise ExtractionError(f"cannot extract {P} endmembers from {L}x{n} data")
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    if s[P - 1] <= 1e-12 * s[0]:
        raise ExtractionError("signal subspace rank below the endmember count")
    Xp = U[:, :P].T @ X                             # (P, N)
    basis = np.zeros((P, 0))
    chosen: list[int] = []
    for _ in range(P):
        w = rng.standard_normal(P)
        w = w - basis @ (basis.T @ w)
        f = w / np.linalg.norm(w)
        idx = int(np.argmax(np.abs(f @ Xp)))
        chosen.append(idx)
        v = Xp[:, idx] - basis @ (basis.T @ Xp[:, idx])
        nv = np.linalg.norm(v)
        if nv > 1e-12:
            basis = np.hstack([basis, (v / nv)[:, None]])
    return pixels[chosen]


def spectral_angles(spectra: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Angles (radians) between rows of ``spectra`` and a single spectrum."""
    num = spectra @ ref
    den = np.linalg.norm(spectra, axis=-1) * np.linalg.norm(ref)
    return np.arccos(np.clip(num / np.maximum(den, 1e-300), -1.0, 1.0))


def extract_pure_pixels(cube, ref_endmembers: np.ndarray,
                        n_ppx: int) -> np.ndarray:
    """The pure-pixel shortlists, (P, n_ppx, L): row k holds the n_ppx
    cube pixels spectrally closest to reference row k, closest first."""
    pixels = _rows(cube)
    if not 1 <= n_ppx <= len(pixels):
        raise InputError(f"n_ppx must be in [1, {len(pixels)}], the cube's "
                         f"pixel count, got {n_ppx}")
    return np.stack([
        pixels[np.argsort(spectral_angles(pixels, ref), kind="stable")[:n_ppx]]
        for ref in ref_endmembers])


def build_supervised_set(ppx: np.ndarray, n_draws: int,
                         snr_db: float | None, rng: np.random.Generator
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Self-supervised labeled triples from the (P, n_ppx, L) pure-pixel
    shortlists ``ppx`` of ``extract_pure_pixels``, as (Y, A, M) arrays of
    shapes (n, L), (n, P), (n, P, L), n = n_draws * P.

    Each draw assembles a (P, L) endmember matrix by sampling one spectrum
    per endmember, then emits P samples with one-hot abundances and noisy
    copies of the matching row (per-sample noise at ``snr_db``, none for
    None), every draw from ``rng``.
    """
    P, n_ppx, L = ppx.shape
    rel = 0.0 if snr_db is None else 10.0 ** (-snr_db / 20.0)
    Y = np.empty((n_draws * P, L))
    A = np.tile(np.eye(P), (n_draws, 1))
    M = np.empty((n_draws * P, P, L))
    for d in range(n_draws):
        em = np.stack([ppx[k][rng.integers(n_ppx)] for k in range(P)])
        for j in range(P):
            clean = em[j]
            sigma = rel * np.linalg.norm(clean) / np.sqrt(L)
            Y[d * P + j] = clean + sigma * rng.standard_normal(L)
            M[d * P + j] = em
    return Y, A, M


# ------------------------------------------------------------- bundle io

# The axes of each array that ``_check_finite`` names (of fewer, the last).
_AXES = {"pixels": ("pixel", "band"), "abundances": ("pixel", "endmember"),
         "endmembers": ("pixel", "endmember", "band"),
         "nonlinearity_degree": ("pixel",), "y": ("sample", "band"),
         "a": ("sample", "endmember"), "m": ("sample", "endmember", "band")}


def _open(base: str, ndims: dict[str, tuple[int, ...]]
          ) -> tuple[dict, dict[str, ct.PayloadReader]]:
    """A bundle's meta and the readers of exactly the arrays ``ndims``
    names, each with one of the numbers of axes listed and no empty axis;
    else a ``BundleError`` naming the array."""
    meta, readers = ct.open_container(base, "bundle header")
    for name, allowed in ndims.items():
        if name not in readers:
            raise BundleError(f"{base}.json: no array {name!r}", field=name)
        shape = readers[name].shape
        if len(shape) not in allowed or 0 in shape:
            raise BundleError(f"{base}.json: {name} needs "
                              f"{' or '.join(map(str, allowed))} nonempty "
                              f"axes, got shape {shape}", field=name)
    extra = sorted(readers.keys() - ndims.keys())
    if extra:
        raise BundleError(f"{base}.json: unexpected array", field=extra[0])
    return meta, readers


def _scene(meta: dict, rows: int) -> tuple[int, int]:
    """The meta's width and height, JSON ints >= 1 whose product is
    ``rows``, else a ``BundleError`` naming the first bad one."""
    width, height = (ct.json_int(meta.get(key), key, 1)
                     for key in ("width", "height"))
    if width * height != rows:
        raise BundleError(f"width * height is {width * height}, the arrays "
                          f"have {rows} rows", field="width")
    return width, height


def _check_finite(base: str, name: str, data, width: int | None,
                  start: int = 0):
    """``data``, the rows of the array ``name`` of ``base`` from ``start``
    on (an array or a ``container.PayloadReader``), if every value is
    finite, read and checked ``ROW_BLOCK`` rows at a time; else an
    ``InputError`` naming the first NaN or infinity by its index on each
    axis, and for a scene ``width`` pixels wide by its row and column."""
    for at in range(0, len(data), ROW_BLOCK):
        block = data[at:at + ROW_BLOCK]
        bad = np.flatnonzero(~np.isfinite(block))
        if not bad.size:
            continue
        first, *rest = (int(i) for i in np.unravel_index(bad[0], block.shape))
        first += start + at
        axes = _AXES[name][-block.ndim:]
        where = f"{axes[0]} {first}"
        if width is not None:
            where += " (row {}, column {})".format(*divmod(first, width))
        where += "".join(f", {axis} {i}" for axis, i in zip(axes[1:], rest))
        raise InputError(f"{base}: {name} has a non-finite value "
                         f"({block.flat[bad[0]]}) at {where}")
    return data


def _cube_meta(width: int, height: int,
               wavelengths: np.ndarray | None) -> dict:
    meta = {"width": width, "height": height}
    if wavelengths is not None:
        meta["wavelengths"] = [float(w) for w in wavelengths]
    return meta


def save_cube(base: str, cube: HyperCube):
    ct.write_container(base, _cube_meta(cube.width, cube.height,
                                        cube.wavelengths),
                       {"pixels": cube.pixels})


def cube_writer(base: str, width: int, height: int, bands: int,
                wavelengths: np.ndarray | None = None) -> ct.PayloadWriter:
    """Write a cube's header; return the writer to which the caller appends
    its (N, L) pixels, in blocks of whole rows from pixel 0."""
    return ct.container_writer(base, _cube_meta(width, height, wavelengths),
                               {"pixels": (width * height, bands)})


def open_cube(base: str) -> HyperCube:
    """A cube bundle whose ``pixels`` is a ``container.PayloadReader``.

    Nothing is read but the header: ``check_cube_finite`` or a blocked
    pass of the caller's own must look for non-finite values."""
    meta, readers = _open(base, {"pixels": (2,)})
    pixels = readers["pixels"]
    width, height = _scene(meta, len(pixels))
    wl = meta.get("wavelengths")
    if wl is not None:
        if not isinstance(wl, list) or len(wl) != pixels.shape[1]:
            raise BundleError("wavelengths must list one number per band",
                              field="wavelengths")
        wl = np.asarray([ct.json_float(w, "wavelengths") for w in wl])
    return HyperCube(width=width, height=height, pixels=pixels,
                     wavelengths=wl)


def load_cube(base: str) -> HyperCube:
    """Read a cube bundle; a NaN or infinite value raises ``InputError``
    naming the first offending pixel and band."""
    cube = open_cube(base)
    cube.pixels = _check_finite(base, "pixels", cube.pixels[:], cube.width)
    return cube


def check_cube_finite(base: str, cube: HyperCube):
    """``load_cube``'s check of an opened cube, read in blocks."""
    _check_finite(base, "pixels", cube.pixels, cube.width)


def save_abundances(base: str, abundances: np.ndarray, width: int, height: int):
    ct.write_container(base, {"width": width, "height": height},
                       {"abundances": abundances})


def _load_map(base: str, name: str, ndim: int
              ) -> tuple[np.ndarray, int, int]:
    """The bundle's one array ``name`` of a scene's pixels, read whole, and
    the scene's width and height; a NaN or infinite value raises
    ``InputError`` naming the first offending pixel."""
    meta, readers = _open(base, {name: (ndim,)})
    width, height = _scene(meta, len(readers[name]))
    return _check_finite(base, name, readers[name][:], width), width, height


def load_abundances(base: str) -> tuple[np.ndarray, int, int]:
    return _load_map(base, "abundances", 2)


def save_endmembers(base: str, endmembers: np.ndarray,
                    width: int = 1, height: int = 1):
    """A shared (P, L) matrix is stored with no meta; a per-pixel (N, P, L)
    stack with the scene's width and height."""
    stack = np.asarray(endmembers, dtype=np.float64)
    meta = {}
    if stack.ndim == 3:
        if len(stack) != width * height:
            raise InputError("endmember stack length must match "
                             "width * height")
        meta = {"width": width, "height": height}
    ct.write_container(base, meta, {"endmembers": stack})


def endmember_writer(base: str, width: int, height: int, bands: int,
                     components: int) -> ct.PayloadWriter:
    """Write a per-pixel endmember stack's header; return the writer to
    which the caller appends the (N, P, L) stack, in blocks of whole pixels
    from pixel 0."""
    return ct.container_writer(
        base, {"width": width, "height": height},
        {"endmembers": (width * height, components, bands)})


def _endmembers(base: str):
    """A reader of the bundle's shared (P, L) matrix and None, or of its
    (N, P, L) stack and the scene's width."""
    meta, readers = _open(base, {"endmembers": (2, 3)})
    stack = readers["endmembers"]
    return stack, None if stack.ndim == 2 else _scene(meta, len(stack))[0]


def load_endmembers(base: str) -> np.ndarray:
    """Returns (P, L) when the bundle stores one shared matrix, else
    (N, P, L); a NaN or infinite value raises ``InputError`` naming the
    first offending pixel (row and column in a stack), endmember and band."""
    stack, width = _endmembers(base)
    return _check_finite(base, "endmembers", stack[:], width)


def open_endmembers(base: str):
    """The shared (P, L) matrix, read whole and checked as ``load_cube``
    checks a cube, else a ``container.PayloadReader`` of the (N, P, L)
    stack."""
    stack, width = _endmembers(base)
    return stack if width else _check_finite(base, "endmembers", stack[:], None)


# The array name of the one scalar map the commands write, the eta_d map.
SCALAR_MAP = "nonlinearity_degree"


def save_scalar_map(base: str, values: np.ndarray, width: int, height: int):
    ct.write_container(base, {"width": width, "height": height},
                       {SCALAR_MAP: np.reshape(values, -1)})


def load_scalar_map(base: str) -> np.ndarray:
    return _load_map(base, SCALAR_MAP, 1)[0]


def save_supervised(base: str, y: np.ndarray, a: np.ndarray, m: np.ndarray):
    """Write the labelled set's (n, L), (n, P) and (n, P, L) arrays."""
    if not len(y):
        raise InputError("cannot save an empty supervised set")
    ct.write_container(base, {}, {"y": y, "a": a, "m": m})


def load_supervised(base: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (Y, A, M) arrays of shapes (n, L), (n, P), (n, P, L).

    Shapes that disagree are a ``BundleError`` naming ``a`` or ``m``, and a
    NaN or infinite value or a row of ``a`` off the unit simplex an
    ``InputError`` naming the first offending sample."""
    _, readers = _open(base, {"y": (2,), "a": (2,), "m": (3,)})
    n, bands = readers["y"].shape
    want = {"a": (n, readers["a"].shape[1])}
    want["m"] = want["a"] + (bands,)
    for name, shape in want.items():
        if readers[name].shape != shape:
            raise BundleError(f"{base}.json: {name} has shape "
                              f"{readers[name].shape}, y and a imply "
                              f"{shape}", field=name)
    arrays = tuple(_check_finite(base, name, readers[name][:], None)
                   for name in ("y", "a", "m"))
    check_simplex(arrays[1], f"{base}: a at sample")
    return arrays
