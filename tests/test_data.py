"""Data layer: the generators' mixing laws and the endmember-major layout
(..., P, L) of every endmember matrix, at P != L."""

import re
import tracemalloc

import numpy as np
import pytest

from unmix import data as dt
from unmix.errors import ExtractionError, InputError

L, P, W, H = 20, 3, 5, 4


@pytest.fixture
def scene_parts():
    root = np.random.default_rng(7)
    lib_rng, map_rng = root.spawn(2)
    library = dt.synth_endmember_library(L, P, lib_rng)
    maps = dt.synth_abundance_maps(W, H, P, map_rng)
    return library, maps


def dc1_scene(maps, library, snr_db, rng):
    """``generate_dc1``'s (N, L) pixels, collected from their blocks."""
    pixels = []
    dt.generate_dc1(maps, library, snr_db, rng, pixels)
    return np.concatenate(pixels)


def dc2_scene(maps, library, variability, snr_db, rng):
    """``generate_dc2``'s (N, L) pixels and (N, P, L) stack, each collected
    from its blocks."""
    stack, pixels = [], []
    dt.generate_dc2(maps, library, variability, snr_db, rng, stack, pixels)
    return np.concatenate(pixels), np.concatenate(stack)


def _scipy_blur(onehot, sigma):
    """The blur as ``synth_abundance_maps`` once ran it: scipy's
    ``gaussian_filter`` of each label map."""
    from scipy.ndimage import gaussian_filter
    return np.stack([gaussian_filter(onehot[..., k], sigma, mode="nearest")
                     for k in range(onehot.shape[-1])], axis=-1)


@pytest.mark.parametrize("width, height", [(1, 1), (1, 9), (9, 1), (4, 4),
                                           (37, 29), (100, 100)])
def test_abundance_maps_equal_the_scipy_blur_bitwise(monkeypatch, width,
                                                     height):
    """``synth_abundance_maps`` writes the bytes it wrote with scipy's blur,
    and the blur matches scipy on arbitrary values too."""
    calls = []

    def scipy_blur(onehot, sigma):
        calls.append(sigma)
        return _scipy_blur(onehot, sigma)
    for seed in range(4):
        for n_em in (2, 5):
            maps = dt.synth_abundance_maps(width, height, n_em,
                                           np.random.default_rng(seed))
            with monkeypatch.context() as m:
                m.setattr(dt, "_blur_nearest", scipy_blur)
                ref = dt.synth_abundance_maps(width, height, n_em,
                                              np.random.default_rng(seed))
            assert maps.tobytes() == ref.tobytes(), (seed, n_em)
        x = np.random.default_rng(seed).standard_normal((height, width, 3))
        assert (dt._blur_nearest(x, dt.ABUNDANCE_BLUR_SIGMA).tobytes()
                == _scipy_blur(x, dt.ABUNDANCE_BLUR_SIGMA).tobytes()), seed
    assert calls == [dt.ABUNDANCE_BLUR_SIGMA] * 8


def test_library_is_p_rows_of_l_bands(scene_parts):
    library, _ = scene_parts
    assert library.shape == (P, L)
    unit = library / np.linalg.norm(library, axis=1, keepdims=True)
    cos = np.clip(unit @ unit.T, -1.0, 1.0)
    angles = np.arccos(cos[np.triu_indices(P, k=1)])
    assert angles.min() >= dt.LIBRARY_MIN_ANGLE


def test_noiseless_dc1_is_linear_plus_bilinear(scene_parts):
    library, maps = scene_parts
    pixels = dc1_scene(maps, library, None, np.random.default_rng(1))
    want = maps @ library
    for i in range(P):
        for j in range(i + 1, P):
            want += (maps[:, i] * maps[:, j])[:, None] * (library[i] * library[j])
    np.testing.assert_allclose(pixels, want, rtol=1e-13, atol=0)


def test_noiseless_dc2_mixes_each_pixels_own_rows(scene_parts):
    library, maps = scene_parts
    pixels, stack = dc2_scene(maps, library, 0.3, None,
                              np.random.default_rng(2))
    assert stack.shape == (W * H, P, L)
    for n in range(W * H):
        want = sum(maps[n, p] * stack[n, p] for p in range(P))
        np.testing.assert_allclose(pixels[n], want, rtol=1e-13, atol=0)
    # the variability moves the signatures off the library
    assert not np.allclose(stack, library[None])


def test_dc2_without_variability_gives_every_pixel_the_library(scene_parts):
    library, maps = scene_parts
    _, stack = dc2_scene(maps, library, 0.0, 30.0, np.random.default_rng(3))
    assert stack.shape == (W * H, P, L)
    for n in range(W * H):
        np.testing.assert_array_equal(stack[n], library)


@pytest.mark.parametrize("variability", [0.3, 0.0])
def test_dc2_blocks_equal_the_whole_scene_formulas(scene_parts, variability):
    """Over three blocks, the stack and the pixels are bitwise those of the
    whole-scene formulas: each variability array drawn whole, the noise
    scaled to the power of the whole clean cube and drawn as one stream."""
    library, _ = scene_parts
    n = 2 * dt.ROW_BLOCK + 37
    maps = dt.synth_abundance_maps(n, 1, P, np.random.default_rng(4))
    stack, pixels = [], []
    dt.generate_dc2(maps, library, variability, 25.0,
                    np.random.default_rng(5), stack, pixels)
    assert [len(b) for b in stack] == [len(b) for b in pixels] \
        == [dt.ROW_BLOCK, dt.ROW_BLOCK, 37]
    var_rng, noise_rng = np.random.default_rng(5).spawn(2)
    want = np.broadcast_to(library, (n, P, L))
    if variability:
        s, c, w, amp = (var_rng.uniform(lo, hi, (n, P))[..., None]
                        for lo, hi in ((0.7, 1.3), (0, L), (L / 10, L / 3),
                                       (0.5, 1.5)))
        bump = np.exp(-0.5 * ((np.arange(L, dtype=np.float64) - c) / w) ** 2)
        envelope = 1.0 + amp * (bump - bump.mean(axis=-1, keepdims=True))
        want = np.clip(library * (1.0 + (s - 1.0) * envelope), 0.0, 1.0)
    assert np.concatenate(stack).tobytes() == want.tobytes()
    clean = np.einsum("npl,np->nl", want, maps)
    power = np.einsum("ij,ij->", clean, clean) / clean.size
    sigma = np.sqrt(power / dt.noise_power_ratio(25.0))
    noisy = clean + sigma * noise_rng.standard_normal(clean.shape)
    assert np.concatenate(pixels).tobytes() == noisy.tobytes()


@pytest.mark.parametrize("kind, variability", [("dc1", None), ("dc2", 0.0),
                                               ("dc2", 0.2)])
@pytest.mark.parametrize("row_block", [1, 7, 37 * 29 + 1])
def test_no_generated_byte_depends_on_the_row_block(monkeypatch, kind,
                                                    variability, row_block):
    """The pixels, and dc2's stack, of a noisy 37 x 29 x 30 scene are
    bitwise those written in blocks of the default ``ROW_BLOCK``."""
    library = dt.synth_endmember_library(30, P, np.random.default_rng(14))
    maps = dt.synth_abundance_maps(37, 29, P, np.random.default_rng(15))

    def scene():
        rng = np.random.default_rng(16)
        if kind == "dc1":
            return [dc1_scene(maps, library, 20.0, rng).tobytes()]
        return [x.tobytes() for x in dc2_scene(maps, library, variability,
                                               20.0, rng)]
    want = scene()
    monkeypatch.setattr(dt, "ROW_BLOCK", row_block)
    assert scene() == want


def test_vca_returns_p_cube_pixels_as_rows(scene_parts):
    library, maps = scene_parts
    pixels = dc1_scene(maps, library, 40.0, np.random.default_rng(4))
    refs = dt.vca(pixels, P, np.random.default_rng(5))
    assert refs.shape == (P, L)
    for row in refs:
        assert (pixels == row).all(axis=1).any()


def test_noiseless_supervised_set_is_one_hot_rows(scene_parts):
    library, maps = scene_parts
    pixels = dc1_scene(maps, library, 40.0, np.random.default_rng(6))
    ppx = dt.extract_pure_pixels(pixels, library, 4)
    y, a, m = dt.build_supervised_set(ppx, 3, None, np.random.default_rng(8))
    assert (y.shape, a.shape, m.shape) == ((3 * P, L), (3 * P, P),
                                           (3 * P, P, L))
    for i in range(3 * P):
        j = i % P
        np.testing.assert_array_equal(a[i], np.eye(P)[j])
        np.testing.assert_array_equal(y[i], m[i, j])
        # row k of the matrix is one of endmember k's pure pixels
        for k in range(P):
            assert (ppx[k] == m[i, k]).all(axis=1).any()


@pytest.mark.parametrize("n_ppx", [0, W * H + 1])
def test_pure_pixel_count_outside_the_cube_is_refused(scene_parts, n_ppx):
    library, maps = scene_parts
    pixels = dc1_scene(maps, library, 40.0, np.random.default_rng(6))
    with pytest.raises(InputError, match=f"got {n_ppx}$"):
        dt.extract_pure_pixels(pixels, library, n_ppx)


def test_endmember_stack_round_trip(tmp_path, scene_parts):
    library, maps = scene_parts
    _, stack = dc2_scene(maps, library, 0.2, 30.0, np.random.default_rng(9))
    base = str(tmp_path / "endmembers")
    dt.save_endmembers(base, stack, W, H)
    back = dt.load_endmembers(base)
    assert back.shape == (W * H, P, L)
    assert back.tobytes() == stack.tobytes()
    reader = dt.open_endmembers(base)
    assert reader.shape == (W * H, P, L)
    assert reader[3:5].tobytes() == stack[3:5].tobytes()
    shared = str(tmp_path / "library")
    dt.save_endmembers(shared, library)
    np.testing.assert_array_equal(dt.load_endmembers(shared), library)


def test_supervised_round_trip(tmp_path, scene_parts):
    library, maps = scene_parts
    pixels = dc1_scene(maps, library, 40.0, np.random.default_rng(10))
    ppx = dt.extract_pure_pixels(pixels, library, 4)
    labelled = dt.build_supervised_set(ppx, 2, 30.0,
                                       np.random.default_rng(11))
    base = str(tmp_path / "sup")
    dt.save_supervised(base, *labelled)
    back = dt.load_supervised(base)
    assert back[2].shape == (2 * P, P, L)
    assert [x.tobytes() for x in back] == [x.tobytes() for x in labelled]


def test_vca_refuses_a_cube_of_rank_below_the_endmember_count():
    # row 3 is the mean of rows 0 and 1, so the linear cube has rank 3:
    # singular values about 88, 9.7, 8.3 and then 1e-14
    r = np.random.default_rng(3)
    library = r.uniform(0.1, 0.9, (4, 64))
    library[3] = 0.5 * (library[0] + library[1])
    cube = r.dirichlet(np.ones(4), 400) @ library
    assert dt.vca(cube, 3, np.random.default_rng(0)).shape == (3, 64)
    with pytest.raises(ExtractionError, match="rank below the endmember"):
        dt.vca(cube, 4, np.random.default_rng(0))


@pytest.mark.parametrize("row_block", [dt.ROW_BLOCK, 16])
def test_endmember_stack_with_a_nan_names_pixel_endmember_and_band(
        tmp_path, monkeypatch, row_block):
    monkeypatch.setattr(dt, "ROW_BLOCK", row_block)
    stack = np.random.default_rng(12).uniform(0.1, 0.9, (64, P, L))
    stack[45, 2, 7] = np.nan
    base = str(tmp_path / "endmembers")
    dt.save_endmembers(base, stack, 8, 8)
    with pytest.raises(InputError) as err:
        dt.load_endmembers(base)
    assert str(err.value) == (f"{base}: endmembers has a non-finite value "
                              "(nan) at pixel 45 (row 5, column 5), "
                              "endmember 2, band 7")


def test_endmember_stack_check_holds_no_stack_sized_temporary(tmp_path):
    stack = np.random.default_rng(13).uniform(0.1, 0.9, (64 * 64, P, L))
    base = str(tmp_path / "endmembers")
    dt.save_endmembers(base, stack, 64, 64)
    tracemalloc.start()
    try:
        back = dt.load_endmembers(base)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.tobytes() == stack.tobytes()
    # the stack read whole, plus a block's booleans; a whole-stack
    # isfinite would add a quarter of the stack's bytes
    assert peak < 1.1 * stack.nbytes


@pytest.mark.parametrize("kwargs, rule", [
    ({"pixels": np.zeros(6)}, "pixels must be an (N, L) array"),
    ({"pixels": np.zeros((5, 16))}, "width * height must equal the pixel "
                                    "count"),
    ({"pixels": np.zeros((6, 16)), "wavelengths": np.arange(15.0)},
     "wavelengths must have one entry per band")])
def test_cube_of_inconsistent_sizes_is_refused(kwargs, rule):
    with pytest.raises(InputError, match=f"^{re.escape(rule)}$"):
        dt.HyperCube(width=3, height=2, **kwargs)


def test_library_of_too_few_bands_is_refused():
    with pytest.raises(InputError, match=f"^need at least {dt.MIN_BANDS} "
                                         f"bands, got {dt.MIN_BANDS - 1}$"):
        dt.synth_endmember_library(dt.MIN_BANDS - 1, P,
                                   np.random.default_rng(0))


@pytest.mark.parametrize("variability", [-0.1, dt.MAX_VARIABILITY + 0.1,
                                         float("nan")])
def test_dc2_variability_out_of_range_is_refused(scene_parts, variability):
    library, maps = scene_parts
    stack, pixels = [], []
    with pytest.raises(InputError, match="^variability strength must be in"):
        dt.generate_dc2(maps, library, variability, 30.0,
                        np.random.default_rng(0), stack, pixels)
    assert stack == pixels == []


def test_endmember_stack_of_another_length_is_refused(tmp_path, scene_parts):
    library, _ = scene_parts
    stack = np.broadcast_to(library, (W * H - 1,) + library.shape)
    with pytest.raises(InputError, match="^endmember stack length must "
                                         "match width \\* height$"):
        dt.save_endmembers(str(tmp_path / "em"), stack, W, H)
    assert list(tmp_path.iterdir()) == []


def test_empty_supervised_set_is_refused(tmp_path):
    with pytest.raises(InputError,
                       match="^cannot save an empty supervised set$"):
        dt.save_supervised(str(tmp_path / "sup"), np.zeros((0, L)),
                           np.zeros((0, P)), np.zeros((0, P, L)))
    assert list(tmp_path.iterdir()) == []
