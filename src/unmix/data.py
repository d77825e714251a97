"""Data supply: cube bundles on disk, synthetic scenes, endmember extraction,
and the self-supervised construction of the labeled set.

The bundle schema (``container`` documents the format) is built here: a
cube carries no ``role``, ground truth, estimates and the labelled set
carry one.  All generation is deterministic given the caller's Generator;
functions that add noise spawn (variability, noise) child streams in a fixed
order so the noise realization is comparable across generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage as _ndi

from . import container as ct
from .errors import BundleError, ExtractionError, GenerationError, InputError

__all__ = [
    "HyperCube", "SupervisedSample", "PurePixelDict", "GroundTruth",
    "synth_endmember_library", "synth_abundance_maps", "noise_power_ratio",
    "generate_dc1", "generate_dc2", "vca", "extract_pure_pixels",
    "build_supervised_set", "save_cube", "cube_writer", "load_cube",
    "open_cube", "save_abundances", "load_abundances", "save_endmembers",
    "endmember_writer", "load_endmembers", "open_endmembers",
    "save_scalar_map", "load_scalar_map",
    "save_supervised", "load_supervised",
]


@dataclass
class HyperCube:
    """An L-band W x H reflectance raster flattened to N pixels (row-major).

    ``pixels`` is an (N, L) array, or for a cube streamed from disk
    (``open_cube``) a ``container.PayloadReader`` of one.
    """

    width: int
    height: int
    pixels: np.ndarray                      # (N, L)
    wavelengths: np.ndarray | None = None   # (L,) nm, optional

    def __post_init__(self):
        if not isinstance(self.pixels, ct.PayloadReader):
            self.pixels = np.asarray(self.pixels, dtype=np.float64)
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
class SupervisedSample:
    """A labeled triple: pixel, abundance vector, endmember matrix."""

    y: np.ndarray       # (L,)
    a: np.ndarray       # (P,) one-hot up to clipping
    em: np.ndarray      # (P, L), one endmember per row


@dataclass
class PurePixelDict:
    """Per-endmember pure-pixel shortlists, sorted by spectral angle."""

    spectra: list[np.ndarray]    # P arrays of shape (n_ppx, L)
    indices: list[np.ndarray]    # source pixel indices into the cube
    angles: list[np.ndarray]     # matching angles, non-decreasing


@dataclass
class GroundTruth:
    """True abundances plus either one shared or per-pixel endmember matrices.

    A per-pixel stack may stay on disk as a ``container.PayloadReader``
    (``open_endmembers``), which ``evaluation.evaluate`` reads in blocks.
    """

    abundances: np.ndarray                 # (N, P) simplex rows
    endmembers: np.ndarray | None = None   # (P, L) or (N, P, L)


# ------------------------------------------------------------- generation

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
    if n_bands < 16:
        raise InputError(f"need at least 16 bands, got {n_bands}")
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
    simplex rows; region interiors stay pure, boundaries mix.
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
    blurred = np.stack([_ndi.gaussian_filter(onehot[..., k],
                                             ABUNDANCE_BLUR_SIGMA,
                                             mode="nearest")
                        for k in range(P)], axis=-1)
    blurred = np.clip(blurred, 0.0, None)
    blurred /= blurred.sum(axis=-1, keepdims=True)
    return blurred.reshape(height * width, P)


def _simplex_check(A: np.ndarray):
    if np.any(A < -1e-9) or np.any(np.abs(A.sum(axis=-1) - 1.0) > 1e-6):
        raise InputError("abundance rows must lie on the unit simplex")


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


def _noise_sigma(clean: np.ndarray, snr_db: float | None) -> float:
    if snr_db is None:
        return 0.0
    power = float(np.mean(clean ** 2))
    return float(np.sqrt(power / noise_power_ratio(snr_db)))


def _spatial_dims(n: int, width, height) -> tuple[int, int]:
    if width is not None and height is not None:
        if width * height != n:
            raise InputError("width * height must equal the abundance count")
        return width, height
    side = int(np.sqrt(n))
    return (side, side) if side * side == n else (n, 1)


def generate_dc1(abundances: np.ndarray, em_matrix: np.ndarray,
                 snr_db: float | None = 30.0,
                 rng: np.random.Generator | None = None,
                 width: int | None = None, height: int | None = None,
                 ) -> tuple[HyperCube, GroundTruth]:
    """Bilinear-mixture scene: y = a M + sum_{i<j} a_i a_j m_i * m_j + noise.

    The endmembers m_i are the rows of the (P, L) ``em_matrix``.  Noise is
    white Gaussian, scaled so the cube-level power ratio matches ``snr_db``
    (pass None for a noiseless cube).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    A = np.asarray(abundances, dtype=np.float64)
    M = np.asarray(em_matrix, dtype=np.float64)
    _simplex_check(A)
    _, noise_rng = rng.spawn(2)
    clean = A @ M
    P = len(M)
    for i in range(P):
        for j in range(i + 1, P):
            clean = clean + np.outer(A[:, i] * A[:, j], M[i] * M[j])
    sigma = _noise_sigma(clean, snr_db)
    pixels = clean + sigma * noise_rng.standard_normal(clean.shape)
    w, h = _spatial_dims(len(A), width, height)
    cube = HyperCube(width=w, height=h, pixels=pixels)
    return cube, GroundTruth(abundances=A.copy(), endmembers=M.copy())


def generate_dc2(abundances: np.ndarray, base_em: np.ndarray,
                 variability_strength: float = 0.15,
                 snr_db: float | None = 30.0,
                 rng: np.random.Generator | None = None,
                 width: int | None = None, height: int | None = None,
                 ) -> tuple[HyperCube, GroundTruth]:
    """Linear mixtures of per-pixel (P, L) endmembers: y_n = a_n M_n + e_n.

    Each (pixel, endmember) pair gets a random scale in [1-v, 1+v] modulated
    by a smooth zero-mean spectral bump, so signatures change shape (not just
    amplitude) while averaging to the drawn scale across bands.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    v = float(variability_strength)
    if not 0.0 <= v <= 0.5:
        raise InputError(f"variability strength must be in [0, 0.5], got {v}")
    A = np.asarray(abundances, dtype=np.float64)
    M0 = np.asarray(base_em, dtype=np.float64)
    _simplex_check(A)
    n, (P, L) = len(A), M0.shape
    var_rng, noise_rng = rng.spawn(2)
    if v > 0.0:
        grid = np.arange(L, dtype=np.float64)
        scales = var_rng.uniform(1.0 - v, 1.0 + v, size=(n, P))
        centers = var_rng.uniform(0, L, size=(n, P))
        widths = var_rng.uniform(L / 10, L / 3, size=(n, P))
        amps = var_rng.uniform(0.5, 1.5, size=(n, P))
        # The (N, P, L) stack, updated in place.  The steps evaluate
        # clip(M0 · (1 + (s - 1) · (1 + amp · (bump - mean(bump))))),
        # bump = exp(-0.5 · ((grid - center) / width)²), in the same order
        # as the expression would, so the stack is bitwise the same.
        buf = np.subtract(grid[None, None, :], centers[..., None])
        buf /= widths[..., None]
        np.square(buf, out=buf)
        buf *= -0.5
        np.exp(buf, out=buf)                                  # bump
        buf -= buf.mean(axis=-1, keepdims=True)
        buf *= amps[..., None]
        buf += 1.0                                            # envelope
        buf *= scales[..., None] - 1.0
        buf += 1.0                                            # multiplier
        buf *= M0[None, :, :]
        em_stack = np.clip(buf, 0.0, 1.0, out=buf)
    else:
        em_stack = np.broadcast_to(M0, (n, P, L)).copy()
    clean = np.einsum("npl,np->nl", em_stack, A)
    sigma = _noise_sigma(clean, snr_db)
    pixels = clean + sigma * noise_rng.standard_normal(clean.shape)
    w, h = _spatial_dims(n, width, height)
    cube = HyperCube(width=w, height=h, pixels=pixels)
    return cube, GroundTruth(abundances=A.copy(), endmembers=em_stack)


# ------------------------------------------------------------- extraction

def _as_pixels(cube) -> np.ndarray:
    if isinstance(cube, HyperCube):
        return cube.pixels
    return np.asarray(cube, dtype=np.float64)


def vca(cube, n_endmembers: int, rng: np.random.Generator) -> np.ndarray:
    """Vertex selection in the SVD signal subspace; returns P pixels, (P, L).

    Projects the data onto its top-P singular subspace, then repeatedly
    draws a random direction, orthogonalizes it against the span of the
    already-selected vertices, and picks the pixel with the largest
    absolute component along it.
    """
    pixels = _as_pixels(cube)
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
        f = None
        for _ in range(100):
            w = rng.standard_normal(P)
            w = w - basis @ (basis.T @ w)
            nw = np.linalg.norm(w)
            if nw > 1e-12:
                f = w / nw
                break
        if f is None:
            raise ExtractionError("selected vertices span the whole subspace")
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
                        n_ppx: int = 100) -> PurePixelDict:
    """The n_ppx cube pixels spectrally closest to each reference row."""
    pixels = _as_pixels(cube)
    if n_ppx > len(pixels):
        raise InputError(f"asked for {n_ppx} pure pixels, cube has {len(pixels)}")
    spectra, indices, angles = [], [], []
    for ref in ref_endmembers:
        ang = spectral_angles(pixels, ref)
        order = np.argsort(ang, kind="stable")[:n_ppx]
        spectra.append(pixels[order].copy())
        indices.append(order.copy())
        angles.append(ang[order].copy())
    return PurePixelDict(spectra=spectra, indices=indices, angles=angles)


def build_supervised_set(ppx: PurePixelDict, n_draws: int,
                         snr_db: float | None = 30.0,
                         rng: np.random.Generator | None = None
                         ) -> list[SupervisedSample]:
    """Self-supervised labeled triples from the pure-pixel shortlists.

    Each draw assembles a (P, L) endmember matrix by sampling one spectrum
    per endmember, then emits P samples with one-hot abundances and noisy
    copies of the matching row (per-sample noise at ``snr_db``).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    P = len(ppx.spectra)
    if any(len(s) == 0 for s in ppx.spectra):
        raise InputError("pure-pixel dictionary has an empty endmember list")
    L = ppx.spectra[0].shape[1]
    rel = 0.0 if snr_db is None else 10.0 ** (-snr_db / 20.0)
    samples: list[SupervisedSample] = []
    for _ in range(n_draws):
        em = np.stack([ppx.spectra[k][rng.integers(len(ppx.spectra[k]))]
                       for k in range(P)])
        for j in range(P):
            a = np.zeros(P)
            a[j] = 1.0
            clean = em[j]
            sigma = rel * np.linalg.norm(clean) / np.sqrt(L)
            y = clean + sigma * rng.standard_normal(L)
            samples.append(SupervisedSample(y=y, a=a, em=em.copy()))
    return samples


# ------------------------------------------------------------- bundle io

# Each role's payload order: a pixel's values back to back, any endmember
# matrix endmember-major (``container``); every other role is "bip".
_ORDER = {"endmembers": "bip-pl", "supervised": "bip-pl"}


def _bundle_writer(base: str, header: dict) -> ct.PayloadWriter:
    """Write the bundle's header; return the writer of its payload."""
    order = _ORDER.get(header.get("role"), "bip")
    ct.write_json(base + ".json",
                  {**header, "dtype": ct.DTYPE, "order": order})
    return ct.PayloadWriter(base + ".raw")


def _write_bundle(base: str, header: dict, payload: np.ndarray):
    with _bundle_writer(base, header) as writer:
        writer.append(payload)


def _open_bundle(base: str, role: str | None = None
                 ) -> tuple[dict, ct.PayloadReader]:
    """A bundle's checked header and the reader of its payload, whose rows
    are the width * height pixels; ``role`` None is a cube."""
    header = ct.read_json(base + ".json", "bundle header")
    for key in ("width", "height", "bands"):
        ct.json_int(header.get(key), key, 1)
    if header.get("dtype") != ct.DTYPE:
        raise BundleError(f"unsupported dtype {header.get('dtype')!r}",
                          field="dtype")
    if header.get("role") != role:
        raise BundleError(f"expected role {role!r}, found "
                          f"{header.get('role')!r}", field="role")
    order = _ORDER.get(role, "bip")
    if header.get("order") != order:
        raise BundleError(f"unsupported order {header.get('order')!r}, "
                          f"expected {order!r}", field="order")
    shape = (header["width"] * header["height"], header["bands"])
    if role == "endmembers":
        shape = (shape[0], ct.json_int(header.get("components"),
                                       "components", 1), shape[1])
    return header, ct.PayloadReader(base + ".raw", shape, field="bands")


def _read_bundle(base: str, role: str | None = None) -> tuple[dict, np.ndarray]:
    """A bundle's checked header and its whole payload."""
    header, reader = _open_bundle(base, role)
    return header, reader[:]


def _check_finite(kind: str, base: str, header: dict, data: np.ndarray,
                  start: int = 0):
    """InputError naming the first pixel, with its row, column and band,
    that holds a NaN or an infinity; ``data`` holds the rows from pixel
    ``start`` on."""
    bad = np.flatnonzero(~np.isfinite(data))
    if bad.size:
        pixel, band = divmod(int(bad[0]), header["bands"])
        pixel += start
        row, col = divmod(pixel, header["width"])
        raise InputError(
            f"{kind} {base} has a non-finite value ({data.flat[bad[0]]}) at "
            f"pixel {pixel} (row {row}, column {col}), band {band}")


def _cube_header(width: int, height: int, bands: int,
                 wavelengths: np.ndarray | None) -> dict:
    header = {"width": width, "height": height, "bands": bands}
    if wavelengths is not None:
        header["wavelengths"] = [float(w) for w in wavelengths]
    return header


def _cube_from(base: str, header: dict, pixels) -> HyperCube:
    wl = header.get("wavelengths")
    if wl is not None:
        if not isinstance(wl, list) or len(wl) != header["bands"]:
            raise BundleError("wavelengths must list one number per band",
                              field="wavelengths")
        wl = np.asarray([ct.json_float(w, "wavelengths") for w in wl])
    return HyperCube(width=header["width"], height=header["height"],
                     pixels=pixels, wavelengths=wl)


def save_cube(base: str, cube: HyperCube):
    _write_bundle(base, _cube_header(cube.width, cube.height, cube.n_bands,
                                     cube.wavelengths), cube.pixels)


def cube_writer(base: str, width: int, height: int, bands: int,
                wavelengths: np.ndarray | None = None) -> ct.PayloadWriter:
    """Write a cube's header; return the writer to which the caller appends
    its (N, L) pixels, in blocks of whole rows from pixel 0."""
    return _bundle_writer(base, _cube_header(width, height, bands,
                                             wavelengths))


def load_cube(base: str) -> HyperCube:
    """Read a cube bundle; a NaN or infinite value raises ``InputError``
    naming the first offending pixel and band."""
    header, data = _read_bundle(base)
    cube = _cube_from(base, header, data)
    _check_finite("cube", base, header, data)
    return cube


# Pixels per block of ``open_cube``'s finiteness pass.
ROW_BLOCK = 512


def open_cube(base: str) -> HyperCube:
    """A cube bundle whose ``pixels`` is a ``container.PayloadReader``.

    The payload is checked in one pass over blocks of ``ROW_BLOCK`` pixels;
    a NaN or infinite value raises ``InputError`` naming the first
    offending pixel and band, as ``load_cube`` does.  Only one block is in
    memory at a time.
    """
    header, reader = _open_bundle(base)
    cube = _cube_from(base, header, reader)
    for start in range(0, len(reader), ROW_BLOCK):
        _check_finite("cube", base, header,
                      reader[start:start + ROW_BLOCK], start)
    return cube


def save_abundances(base: str, abundances: np.ndarray, width: int, height: int):
    A = np.asarray(abundances, dtype=np.float64)
    header = {"width": width, "height": height, "bands": A.shape[1],
              "role": "abundances"}
    _write_bundle(base, header, A)


def load_abundances(base: str) -> tuple[np.ndarray, int, int]:
    """Read an abundance bundle; a NaN or infinite value raises
    ``InputError`` naming the first offending pixel and band."""
    header, data = _read_bundle(base, "abundances")
    _check_finite("abundances", base, header, data)
    return data, header["width"], header["height"]


def _endmember_header(width: int, height: int, bands: int,
                      components: int) -> dict:
    return {"width": width, "height": height, "bands": bands,
            "components": components, "role": "endmembers"}


def save_endmembers(base: str, endmembers: np.ndarray,
                    width: int = 1, height: int = 1):
    """Shared (P, L) matrices are stored as a 1x1 scene; per-pixel stacks
    (N, P, L) use the true spatial dimensions."""
    stack = np.asarray(endmembers, dtype=np.float64)
    if stack.ndim == 2:
        width = height = 1
        stack = stack[None]
    n, components, bands = stack.shape
    if n != width * height:
        raise InputError("endmember stack length must match width * height")
    _write_bundle(base, _endmember_header(width, height, bands, components),
                  stack)


def endmember_writer(base: str, width: int, height: int, bands: int,
                     components: int) -> ct.PayloadWriter:
    """Write a per-pixel endmember stack's header; return the writer to
    which the caller appends the (N, P, L) stack, in blocks of whole pixels
    from pixel 0."""
    return _bundle_writer(base, _endmember_header(width, height, bands,
                                                  components))


def load_endmembers(base: str) -> np.ndarray:
    """Returns (P, L) when the bundle stores one shared matrix, else (N, P, L)."""
    stack = open_endmembers(base)
    return stack if stack.ndim == 2 else stack[:]


def open_endmembers(base: str):
    """The shared (P, L) matrix of a 1 x 1 bundle, else a
    ``container.PayloadReader`` of its (N, P, L) stack."""
    _, reader = _open_bundle(base, "endmembers")
    return reader[:][0] if len(reader) == 1 else reader


# The role of the one scalar map the commands write, the eta_d map.
SCALAR_MAP_ROLE = "nonlinearity_degree"


def save_scalar_map(base: str, values: np.ndarray, width: int, height: int):
    vals = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    header = {"width": width, "height": height, "bands": 1,
              "role": SCALAR_MAP_ROLE}
    _write_bundle(base, header, vals)


def load_scalar_map(base: str) -> np.ndarray:
    """Read a one-band map; a NaN or infinite value raises ``InputError``
    naming the first offending pixel."""
    header, data = _read_bundle(base, SCALAR_MAP_ROLE)
    if header["bands"] != 1:
        raise BundleError(f"a scalar map has 1 band, header has "
                          f"{header['bands']}", field="bands")
    _check_finite(SCALAR_MAP_ROLE, base, header, data)
    return data.reshape(-1)


def save_supervised(base: str, samples: list[SupervisedSample]):
    if not samples:
        raise InputError("cannot save an empty supervised set")
    y = np.stack([s.y for s in samples])
    a = np.stack([s.a for s in samples])
    m = np.stack([s.em for s in samples])
    count, L = y.shape
    P = a.shape[1]
    payload = np.concatenate([y.reshape(count, -1), a.reshape(count, -1),
                              m.reshape(count, -1)], axis=1)
    header = {"width": count, "height": 1, "bands": L + P + L * P,
              "role": "supervised", "count": count, "pixel_bands": L,
              "components": P}
    _write_bundle(base, header, payload)


def load_supervised(base: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (Y, A, M) arrays of shapes (n, L), (n, P), (n, P, L).

    A NaN or infinite value raises ``InputError`` naming the first offending
    sample (as its pixel) and its value index (as its band)."""
    header, data = _read_bundle(base, "supervised")
    count, L, P = (ct.json_int(header.get(key), key, 1)
                   for key in ("count", "pixel_bands", "components"))
    if count != header["width"] * header["height"]:
        raise BundleError(
            f"count {count} != width * height "
            f"{header['width'] * header['height']}", field="count")
    if header["bands"] != L + P + L * P:
        raise BundleError(
            f"pixel_bands {L} and components {P} imply {L + P + L * P} "
            f"values per sample, header bands is {header['bands']}",
            field="pixel_bands")
    _check_finite("supervised set", base, header, data)
    return data[:, :L], data[:, L:L + P], data[:, L + P:].reshape(count, P, L)
