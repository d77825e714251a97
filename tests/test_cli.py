"""Command-line contract: reproducible outputs, what they hold, exit codes."""

import ast
import importlib
import json
import os
import pkgutil
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import unmix
from unmix import cli
from unmix import container as ct
from unmix import data as dt
from unmix import diffcore as dc
from unmix import evaluation as ev
from unmix import inference as inf
from unmix import objective as ob
from unmix.errors import BundleError, InputError, TrainingError
from unmix.objective import TrainConfig, total_loss

WIDTH, HEIGHT, BANDS, P = 8, 8, 24, 3
OUTPUTS = ("abundances_est", "endmembers_est", "eta_d", "reconstruction")


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """A tiny dc2 scene and a checkpoint of a freshly initialised model."""
    root = tmp_path_factory.mktemp("cli")
    scene_dir = str(root / "scene")
    assert cli.main(["generate", "dc2", scene_dir, "--seed", "4",
                     "--width", str(WIDTH), "--height", str(HEIGHT),
                     "--bands", str(BANDS), "--endmembers", str(P)]) == 0
    theta, phi = inf.init_model(BANDS, P, 2, 11, np.random.default_rng(7))
    ckpt = str(root / "model")
    ct.save_checkpoint(ckpt, {"n_bands": BANDS, "n_endmembers": P,
                              "latent_dim": 2, "lista_layers": 11,
                              "seed": 7, "epoch": 0},
                       inf.model_parameters(theta, phi))
    return {"root": root, "cube": os.path.join(scene_dir, "cube"),
            "ckpt": ckpt, "theta": theta, "phi": phi}


def _unmix(scene, name: str) -> str:
    out = str(scene["root"] / name)
    assert cli.main(["unmix", scene["cube"], scene["ckpt"], out]) == 0
    return out


def _files(out_dir: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name != "manifest.json":
            with open(os.path.join(out_dir, name), "rb") as f:
                out[name] = f.read()
    return out


class TestUnmix:
    def test_rerun_writes_identical_bytes(self, scene):
        first = _files(_unmix(scene, "run_a"))
        second = _files(_unmix(scene, "run_b"))
        assert {f"{n}.{ext}" for n in OUTPUTS for ext in ("json", "raw")} \
            <= set(first)
        assert first == second

    def test_abundances_and_endmembers_are_point_estimates(self, scene):
        out = _unmix(scene, "run_pe")
        y = dt.load_cube(scene["cube"]).pixels
        a_ref, m_ref = inf.point_estimates(y, scene["phi"], scene["theta"])
        a_hat, width, height = dt.load_abundances(
            os.path.join(out, "abundances_est"))
        assert (width, height) == (WIDTH, HEIGHT)
        np.testing.assert_array_equal(a_hat, a_ref)
        np.testing.assert_array_equal(
            dt.load_endmembers(os.path.join(out, "endmembers_est")), m_ref)

    @pytest.mark.parametrize("n", [inf.ROW_BLOCK + 1,
                                   2 * inf.ROW_BLOCK + 37])
    def test_multi_block_scene_writes_point_estimates(self, scene, n):
        y = np.random.default_rng(n).uniform(0.0, 1.0, (n, BANDS))
        cube = str(scene["root"] / f"blocks_{n}")
        dt.save_cube(cube, dt.HyperCube(width=n, height=1, pixels=y))
        runs = []
        for name in ("a", "b"):
            out = str(scene["root"] / f"blocks_{n}_{name}")
            assert cli.main(["unmix", cube, scene["ckpt"], out]) == 0
            runs.append(_files(out))
        assert runs[0] == runs[1]
        a_ref, m_ref = inf.point_estimates(y, scene["phi"], scene["theta"])
        a_hat, _, _ = dt.load_abundances(os.path.join(out, "abundances_est"))
        m_hat = dt.load_endmembers(os.path.join(out, "endmembers_est"))
        assert a_hat.tobytes() == a_ref.tobytes()
        assert m_hat.tobytes() == m_ref.tobytes()

    def test_eta_d_is_stream_norm_ratio(self, scene):
        out = _unmix(scene, "run_eta")
        y = dt.load_cube(scene["cube"]).pixels
        m_hat = dt.load_endmembers(os.path.join(out, "endmembers_est"))
        lin, nlin = inf.abundance_streams(y, dc.constant(m_hat), scene["phi"])
        n_lin = np.linalg.norm(lin.data, axis=-1)
        n_nlin = np.linalg.norm(nlin.data, axis=-1)
        eta = dt.load_scalar_map(os.path.join(out, "eta_d"))
        assert eta.shape == (WIDTH * HEIGHT,)
        np.testing.assert_array_equal(eta, n_nlin / (n_lin + n_nlin))


class TestExitCodes:
    def test_nan_pixel_exits_2_naming_pixel_and_band(self, scene, capsys):
        cube = dt.load_cube(scene["cube"])
        pixels = cube.pixels.copy()
        pixels[13, 5] = np.nan
        bad = str(scene["root"] / "nan_cube")
        dt.save_cube(bad, dt.HyperCube(WIDTH, HEIGHT, pixels))
        capsys.readouterr()
        rc = cli.main(["unmix", bad, scene["ckpt"],
                       str(scene["root"] / "run_nan")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "pixel 13 (row 1, column 5), band 5" in err

    @pytest.mark.parametrize("bundle", ["abundances_est", "endmembers_est",
                                        "eta_d"])
    def test_non_finite_estimate_exits_2_naming_bundle_and_pixel(
            self, scene, capsys, bundle):
        out = _unmix(scene, f"run_nan_{bundle}")
        base = os.path.join(out, bundle)
        if bundle == "abundances_est":
            a_hat, _, _ = dt.load_abundances(base)
            a_hat[13, 1] = np.nan
            dt.save_abundances(base, a_hat, WIDTH, HEIGHT)
        elif bundle == "endmembers_est":
            m_hat = dt.load_endmembers(base)
            m_hat[13, 5, 1] = np.nan
            dt.save_endmembers(base, m_hat, WIDTH, HEIGHT)
        else:
            eta = dt.load_scalar_map(base)
            eta[13] = np.nan
            dt.save_scalar_map(base, eta, WIDTH, HEIGHT)
        csv = str(scene["root"] / f"report_nan_{bundle}.csv")
        capsys.readouterr()
        rc = cli.main(["eval", os.path.dirname(scene["cube"]), out, csv])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ")
        assert base in err and "pixel 13" in err
        assert not os.path.exists(csv)

    @pytest.mark.parametrize("snr", ["inf", "nan", "1e10", "-1e10"])
    def test_unusable_snr_exits_2_before_writing(self, tmp_path, capsys, snr):
        out = tmp_path / "scene"
        out.mkdir()
        rc = cli.main(["generate", "dc1", str(out), f"--snr={snr}",
                       "--bands", "16", "--width", "4", "--height", "4"])
        assert rc == 2
        assert "--snr" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("flag, value", [("--width", "0"),
                                             ("--height", "0"),
                                             ("--width", "-3"),
                                             ("--endmembers", "0")])
    def test_bad_size_exits_2_before_writing(self, tmp_path, capsys, flag,
                                             value):
        out = tmp_path / "scene"
        out.mkdir()
        size = {"--bands": "16", "--width": "4", "--height": "4", flag: value}
        capsys.readouterr()
        rc = cli.main(["generate", "dc2", str(out)]
                      + [arg for item in size.items() for arg in item])
        assert rc == 2
        assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("snr", ["inf", "nan", "1e10", "-1e10"])
    def test_unusable_selfsup_snr_exits_2_before_writing(self, scene, tmp_path,
                                                         capsys, snr):
        capsys.readouterr()
        rc = cli.main(["selfsup", scene["cube"], str(tmp_path / "sup"),
                       f"--snr={snr}", "--p", str(P), "--n-ppx", "4",
                       "--n-draws", "2"])
        assert rc == 2
        assert "--snr" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("flag, value, field", [
        ("--lambda", "nan", "lam"), ("--beta", "inf", "beta"),
        ("--tau", "-inf", "tau"), ("--varsigma1", "nan", "varsigma1"),
        ("--varsigma2", "inf", "varsigma2"),
        ("--rel-stop-tol", "nan", "rel_stop_tol"),
        ("--rel-stop-tol", "-inf", "rel_stop_tol"),
        ("--latent-dim", "0", "latent_dim"),
        ("--lista-layers", "0", "lista_layers")])
    def test_bad_train_setting_exits_2_before_training(
            self, scene, monkeypatch, capsys, flag, value, field):
        def step(*args, **kwargs):
            raise AssertionError("a training step ran")
        monkeypatch.setattr(ob, "total_loss", step)
        out = str(scene["root"] / f"bad_{field}")
        capsys.readouterr()
        rc = cli.main(["train", scene["cube"], _supervised(scene), out,
                       "--epochs", "1", f"{flag}={value}"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be")
        assert not os.path.exists(out + ".json")

    def test_fcls_baseline_over_the_endmember_cap_exits_2(self, tmp_path,
                                                           capsys):
        p = ev.FCLS_MAX_ENDMEMBERS + 1
        truth, est = _eval_bundles(tmp_path, 64, 32, p)
        csv = str(tmp_path / "report.csv")
        capsys.readouterr()
        rc = cli.main(["eval", truth, est, csv, "--baseline", "fcls"])
        assert rc == 2
        assert f"at most {ev.FCLS_MAX_ENDMEMBERS} endmembers, got {p}" \
            in capsys.readouterr().err
        assert not os.path.exists(csv)

    def test_linalg_failure_exits_3(self, scene, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")
        monkeypatch.setattr(cli, "point_estimate_blocks", fail)
        rc = cli.main(["unmix", scene["cube"], scene["ckpt"],
                       str(scene["root"] / "run_linalg")])
        assert rc == 3
        assert "SVD did not converge" in capsys.readouterr().err


class TestResume:
    def test_resume_continues_from_checkpoint_epoch(self, scene):
        out = str(scene["root"] / "resumed_ok")
        assert cli.main(["train", scene["cube"], _supervised(scene), out,
                         "--epochs", "1", "--resume", scene["ckpt"]]) == 0
        meta, arrays = ct.load_checkpoint(out)
        assert meta["epoch"] == 1
        _, start = ct.load_checkpoint(scene["ckpt"])
        assert arrays.keys() == start.keys()
        assert any(not np.array_equal(arrays[n], start[n]) for n in start)

    def test_checkpoint_records_the_trained_model_sizes(self, scene, capsys):
        """The size flags do not apply to a resumed model, and the new
        checkpoint records the sizes of the model it holds."""
        out = str(scene["root"] / "resumed_flags")
        assert cli.main(["train", scene["cube"], _supervised(scene), out,
                         "--epochs", "1", "--resume", scene["ckpt"],
                         "--latent-dim", "3", "--lista-layers", "7"]) == 0
        meta, _ = ct.load_checkpoint(out)
        assert (meta["latent_dim"], meta["lista_layers"]) == (2, 11)
        assert cli.main(["unmix", scene["cube"], out, out + "_maps"]) == 0

    def test_last_good_checkpoint_records_the_trained_model_sizes(
            self, scene, monkeypatch, capsys):
        def diverge(*args, theta, phi, start_epoch, **kwargs):
            err = TrainingError("objective diverged", epoch=start_epoch)
            err.last_good = {n: t.data.copy() for n, t in
                             inf.model_parameters(theta, phi).items()}
            err.last_epoch = start_epoch
            raise err

        monkeypatch.setattr(cli, "train", diverge)
        out = str(scene["root"] / "diverged_flags")
        assert cli.main(["train", scene["cube"], _supervised(scene), out,
                         "--resume", scene["ckpt"], "--latent-dim", "3",
                         "--lista-layers", "7"]) == 3
        meta, _ = ct.load_checkpoint(out)
        assert (meta["latent_dim"], meta["lista_layers"]) == (2, 11)
        assert cli.main(["unmix", scene["cube"], out, out + "_maps"]) == 0

    @pytest.mark.parametrize("field", ["n_bands", "n_endmembers"])
    def test_checkpoint_that_does_not_fit_exits_2(self, scene, capsys, field):
        """A checkpoint sized for other data exits 2 before training, naming
        the checkpoint and the field."""
        sizes = {"n_bands": BANDS, "n_endmembers": P}
        sizes[field] += 1
        theta, phi = inf.init_model(sizes["n_bands"], sizes["n_endmembers"],
                                    2, 11, np.random.default_rng(7))
        ckpt = str(scene["root"] / f"model_{field}")
        ct.save_checkpoint(ckpt, {**sizes, "latent_dim": 2, "lista_layers": 11,
                                  "seed": 7, "epoch": 0},
                           inf.model_parameters(theta, phi))
        out = str(scene["root"] / f"resumed_{field}")
        capsys.readouterr()
        assert cli.main(["train", scene["cube"], _supervised(scene), out,
                         "--epochs", "1", "--resume", ckpt]) == 2
        err = capsys.readouterr().err
        assert f"{ckpt}.json" in err and f"field: {field}" in err
        assert not os.path.exists(out + ".json")

    def test_model_built_from_a_checkpoint_trains(self, scene):
        """Packing makes the stored constants parameters: a step over the
        model ``_load_model`` builds gives the gradients of a drawn model
        loaded with the same arrays, bit for bit."""
        _, arrays = ct.load_checkpoint(scene["ckpt"])
        batch_s = dt.load_supervised(_supervised(scene))
        batch_u = dt.load_cube(scene["cube"]).pixels[:16]
        grads = []
        for loaded in (True, False):
            if loaded:
                _, theta, phi = cli._load_model(scene["ckpt"])
            else:
                theta, phi = inf.init_model(BANDS, P, 2, 11,
                                            np.random.default_rng(0))
                dc.load_params_into(inf.model_parameters(theta, phi), arrays)
            params = inf.model_parameters(theta, phi)
            dc.AdamState.create(params)
            bd = total_loss(batch_u, batch_s, theta, phi, TrainConfig(),
                            np.random.default_rng(3))
            grads.append({n: g.copy() for n, g in
                          dc.backward(-bd.node, params).items()})
        assert grads[0].keys() == grads[1].keys() == arrays.keys()
        assert any(g.any() for g in grads[0].values())
        for name, g in grads[1].items():
            assert grads[0][name].tobytes() == g.tobytes(), name


def _per_endmember_names(arrays: dict) -> dict:
    """The arrays under the names of checkpoints written before the decoders
    were one bank: endmember k's decoder arrays and log-scale apart."""
    out = {}
    for name, arr in arrays.items():
        if name.startswith(("gen.em_decoder.", "gen.em_log_scale")):
            head, _, layer = name.partition(".em_decoder.")
            for k in range(len(arr)):
                out[f"{head}.em_decoder{k}.{layer}" if layer
                    else f"{name}{k}"] = arr[k, ...]
        else:
            out[name] = arr
    return out


class TestPerEndmemberCheckpointNames:
    @pytest.fixture(scope="class")
    def old_style(self, scene):
        meta, arrays = ct.load_checkpoint(scene["ckpt"])
        base = str(scene["root"] / "model_per_endmember")
        ct.save_checkpoint(base, meta, _per_endmember_names(arrays))
        return base

    def test_loads_the_same_model(self, scene, old_style):
        _, arrays = ct.load_checkpoint(old_style)
        assert "gen.em_decoder2.w3" in arrays and "gen.em_log_scale1" in arrays
        _, theta, phi = cli._load_model(old_style)
        _, stacked = ct.load_checkpoint(scene["ckpt"])
        loaded = inf.model_parameters(theta, phi)
        assert loaded.keys() == stacked.keys()
        for name, t in loaded.items():
            assert t.data.shape == stacked[name].shape, name
            assert t.data.tobytes() == stacked[name].tobytes(), name

    def test_unmix_writes_the_same_bytes(self, scene, old_style):
        out = str(scene["root"] / "run_per_endmember")
        assert cli.main(["unmix", scene["cube"], old_style, out]) == 0
        assert _files(out) == _files(_unmix(scene, "run_stacked"))

    @pytest.mark.parametrize("missing", ["gen.em_decoder1.w2",
                                         "gen.em_decoder2.b0",
                                         "gen.em_log_scale0"])
    def test_missing_endmember_array_is_named(self, scene, capsys, missing):
        meta, arrays = ct.load_checkpoint(scene["ckpt"])
        arrays = _per_endmember_names(arrays)
        del arrays[missing]
        base = str(scene["root"] / f"model_without_{missing}")
        ct.save_checkpoint(base, meta, arrays)
        with pytest.raises(BundleError) as info:
            cli._load_model(base)
        assert info.value.field == missing
        capsys.readouterr()
        assert cli.main(["unmix", scene["cube"], base, base + "_maps"]) == 2
        assert f"field: {missing}" in capsys.readouterr().err


def _copy_cube(scene, name: str) -> str:
    base = str(scene["root"] / name)
    for ext in (".json", ".raw"):
        shutil.copyfile(scene["cube"] + ext, base + ext)
    return base


def _edit_header(base: str, key: str, value):
    """Set one header entry of a bundle; None removes it."""
    with open(base + ".json") as f:
        header = json.load(f)
    if value is None:
        del header[key]
    else:
        header[key] = value
    with open(base + ".json", "w") as f:
        json.dump(header, f)


def _supervised(scene) -> str:
    """A valid labelled set for the scene's band count."""
    base = str(scene["root"] / "sup_valid")
    if not os.path.exists(base + ".json"):
        rng = np.random.default_rng(2)
        dt.save_supervised(base, [
            dt.SupervisedSample(y=rng.random(BANDS), a=np.eye(P)[j],
                                em=rng.random((BANDS, P)))
            for j in range(P)])
    return base


class TestBundles:
    """A malformed bundle exits 2 and the message names the bad field."""

    def _unmix_rc(self, scene, cube: str, capsys) -> tuple[int, str]:
        capsys.readouterr()
        rc = cli.main(["unmix", cube, scene["ckpt"],
                       str(scene["root"] / ("run_" + os.path.basename(cube)))])
        return rc, capsys.readouterr().err

    @pytest.mark.parametrize("key", ["width", "height", "bands"])
    def test_boolean_header_field_exits_2(self, scene, capsys, key):
        base = _copy_cube(scene, f"bool_{key}")
        _edit_header(base, key, True)
        with pytest.raises(BundleError) as exc_info:
            dt.load_cube(base)
        assert exc_info.value.field == key
        rc, err = self._unmix_rc(scene, base, capsys)
        assert rc == 2 and f"field: {key}" in err

    def test_truncated_payload_exits_2(self, scene, capsys):
        base = _copy_cube(scene, "truncated")
        with open(base + ".raw", "r+b") as f:
            f.truncate(os.path.getsize(base + ".raw") - 8)
        rc, err = self._unmix_rc(scene, base, capsys)
        assert rc == 2
        n = WIDTH * HEIGHT * BANDS
        assert f"payload holds {n - 1} values, header implies {n}" in err
        assert "field: bands" in err

    def test_missing_payload_exits_2(self, scene, capsys):
        base = _copy_cube(scene, "no_raw")
        os.remove(base + ".raw")
        rc, err = self._unmix_rc(scene, base, capsys)
        assert rc == 2 and "no_raw.raw" in err

    # a value that disagrees with the record width names pixel_bands,
    # whichever of pixel_bands and components is wrong
    @pytest.mark.parametrize("key,value,named", [
        ("count", True, "count"), ("count", 0, "count"),
        ("count", P + 1, "count"), ("pixel_bands", True, "pixel_bands"),
        ("pixel_bands", -1, "pixel_bands"),
        ("pixel_bands", BANDS + 1, "pixel_bands"),
        ("components", True, "components"), ("components", "3", "components"),
        ("components", P + 1, "pixel_bands")])
    def test_bad_supervised_header_exits_2(self, scene, capsys, key, value,
                                           named):
        base = str(scene["root"] / f"sup_{key}_{value}")
        rng = np.random.default_rng(2)
        dt.save_supervised(base, [
            dt.SupervisedSample(y=rng.random(BANDS), a=np.eye(P)[j],
                                em=rng.random((BANDS, P)))
            for j in range(P)])
        _edit_header(base, key, value)
        with pytest.raises(BundleError) as exc_info:
            dt.load_supervised(base)
        assert exc_info.value.field == named
        capsys.readouterr()
        rc = cli.main(["train", scene["cube"], base,
                       str(scene["root"] / "sup_ckpt"), "--epochs", "1"])
        assert rc == 2 and f"field: {named}" in capsys.readouterr().err

    def test_non_finite_supervised_value_exits_2(self, scene, capsys):
        base = str(scene["root"] / "sup_nan")
        for ext in (".json", ".raw"):
            shutil.copyfile(_supervised(scene) + ext, base + ext)
        payload = np.fromfile(base + ".raw", dtype="<f8")
        record = BANDS + P + BANDS * P
        payload[2 * record + BANDS + P + 7] = np.nan   # sample 2, its M
        payload.tofile(base + ".raw")
        with pytest.raises(InputError):
            dt.load_supervised(base)
        capsys.readouterr()
        rc = cli.main(["train", scene["cube"], base,
                       str(scene["root"] / "sup_nan_ckpt"), "--epochs", "1"])
        err = capsys.readouterr().err
        assert rc == 2 and base in err
        assert f"pixel 2 (row 0, column 2), band {BANDS + P + 7}" in err

    @pytest.mark.parametrize("value", [True, False, 0, None])
    def test_bad_endmember_components_exits_2(self, scene, capsys, value):
        truth = str(scene["root"] / f"em_components_{value}")
        shutil.copytree(os.path.dirname(scene["cube"]), truth)
        _edit_header(os.path.join(truth, "endmembers"), "components", value)
        with pytest.raises(BundleError) as exc_info:
            dt.load_endmembers(os.path.join(truth, "endmembers"))
        assert exc_info.value.field == "components"
        capsys.readouterr()
        rc = cli.main(["eval", truth, _unmix(scene, f"em_est_{value}"),
                       str(scene["root"] / f"em_{value}.csv")])
        assert rc == 2 and "field: components" in capsys.readouterr().err

    # one manifest entry edited; value None removes the key.  The scalar
    # entry makes true pass as the int 1 unless bools are rejected.
    @pytest.mark.parametrize("name,key,value", [
        ("inf.z_trunk.w0", "shape", [999]), ("inf.z_trunk.w0", "shape", "4"),
        ("inf.z_trunk.w0", "shape", [-4, -1]),
        ("inf.z_trunk.w0", "offset", -8), ("inf.z_trunk.w0", "offset", 1.0),
        ("inf.z_trunk.w0", "offset", "past end"),
        ("inf.z_trunk.w0", "count", -1),
        ("inf.z_trunk.w0", "count", "off by one"),
        ("inf.z_trunk.w0", "count", None),
        ("inf.lista.log_eta0", "count", True),
        ("inf.lista.log_eta0", "offset", True),
        ("inf.lista.log_eta0", "shape", [True])])
    def test_bad_checkpoint_entry_exits_2(self, scene, capsys, name, key,
                                          value):
        base = str(scene["root"] / f"ckpt_{name}_{key}_{value}")
        for ext in (".json", ".raw"):
            shutil.copyfile(scene["ckpt"] + ext, base + ext)
        with open(base + ".json") as f:
            manifest = json.load(f)
        spec = manifest["arrays"][name]
        if value == "past end":
            value = os.path.getsize(base + ".raw") - 8
        elif value == "off by one":
            value = spec["count"] + 1
        if value is None:
            del spec[key]
        else:
            spec[key] = value
        with open(base + ".json", "w") as f:
            json.dump(manifest, f)
        with pytest.raises(BundleError) as exc_info:
            ct.load_checkpoint(base)
        assert exc_info.value.field == name
        capsys.readouterr()
        rc = cli.main(["unmix", scene["cube"], base,
                       str(scene["root"] / f"run_ckpt_{name}_{key}_{value}")])
        assert rc == 2 and f"field: {name}" in capsys.readouterr().err

    def _edited_ckpt(self, scene, name: str, edit) -> str:
        base = str(scene["root"] / name)
        for ext in (".json", ".raw"):
            shutil.copyfile(scene["ckpt"] + ext, base + ext)
        with open(base + ".json") as f:
            manifest = json.load(f)
        edit(manifest)
        with open(base + ".json", "w") as f:
            json.dump(manifest, f)
        return base

    # each size must be an int >= 1; None removes the entry
    @pytest.mark.parametrize("key", ["n_bands", "n_endmembers", "latent_dim",
                                     "lista_layers"])
    @pytest.mark.parametrize("value", [0, -2, True, 2.0, "3", None])
    def test_bad_checkpoint_meta_exits_2(self, scene, capsys, key, value):
        def edit(manifest):
            if value is None:
                del manifest["meta"][key]
            else:
                manifest["meta"][key] = value
        base = self._edited_ckpt(scene, f"meta_{key}_{value}", edit)
        capsys.readouterr()
        rc = cli.main(["unmix", scene["cube"], base,
                       str(scene["root"] / f"run_meta_{key}_{value}")])
        assert rc == 2 and f"field: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [-1, True, 1.5, "0", None])
    def test_bad_resume_epoch_exits_2(self, scene, capsys, value):
        def edit(manifest):
            if value is None:
                del manifest["meta"]["epoch"]
            else:
                manifest["meta"]["epoch"] = value
        base = self._edited_ckpt(scene, f"epoch_{value}", edit)
        sup = _supervised(scene)
        capsys.readouterr()
        rc = cli.main(["train", scene["cube"], sup,
                       str(scene["root"] / f"resumed_{value}"),
                       "--epochs", "1", "--resume", base])
        assert rc == 2 and "field: epoch" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["no meta", "meta list", "bad json",
                                      "json list"])
    def test_malformed_checkpoint_manifest_exits_2(self, scene, capsys, case):
        base = self._edited_ckpt(
            scene, f"manifest_{case.replace(' ', '_')}",
            lambda m: m.pop("meta") if case == "no meta"
            else m.update(meta=[1]))
        if case == "bad json":
            with open(base + ".json", "a") as f:
                f.write("}")
        elif case == "json list":
            with open(base + ".json", "w") as f:
                f.write("[]")
        with pytest.raises(BundleError) as exc_info:
            ct.load_checkpoint(base)
        field = "meta" if "meta" in case else None
        assert exc_info.value.field == field
        capsys.readouterr()
        rc = cli.main(["unmix", scene["cube"], base,
                       str(scene["root"] / f"run_{os.path.basename(base)}")])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ")
        assert field is None or f"field: {field}" in err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_non_finite_json_value_is_refused_before_writing(self, tmp_path,
                                                             value):
        wavelengths = np.linspace(400.0, 2400.0, BANDS)
        wavelengths[3] = value
        cube = dt.HyperCube(2, 1, np.full((2, BANDS), 0.5), wavelengths)
        cube_base = str(tmp_path / "cube")
        manifest = str(tmp_path / "manifest.json")
        for write, path in (
                (lambda: dt.save_cube(cube_base, cube), cube_base + ".json"),
                (lambda: cli._write_manifest(manifest, "unmix", {}, 0, {}, {},
                                             value), manifest)):
            with pytest.raises(InputError) as exc_info:
                write()
            assert path in str(exc_info.value)
        assert os.listdir(tmp_path) == []

    def test_non_contiguous_payload_writes_c_order_bytes(self, tmp_path):
        rng = np.random.default_rng(3)
        stack = rng.random((WIDTH * HEIGHT, P, BANDS)).transpose(0, 2, 1)
        assert not stack.flags.c_contiguous
        base = str(tmp_path / "em")
        dt.save_endmembers(base, stack, WIDTH, HEIGHT)
        with open(base + ".raw", "rb") as f:
            assert f.read() == np.ascontiguousarray(stack, "<f8").tobytes()
        np.testing.assert_array_equal(dt.load_endmembers(base), stack)

    def test_non_contiguous_payload_is_written_in_row_slices(self, tmp_path):
        stack = np.random.default_rng(4).random((20000, P, BANDS))
        stack = stack.transpose(0, 2, 1)
        base = str(tmp_path / "em")
        tracemalloc.start()
        try:
            dt.save_endmembers(base, stack, len(stack), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < stack.nbytes / 4, (peak, stack.nbytes)
        with open(base + ".raw", "rb") as f:
            assert f.read() == np.ascontiguousarray(stack, "<f8").tobytes()

    def test_payload_reader_reads_row_blocks(self, tmp_path):
        stack = np.random.default_rng(5).random((7, BANDS, P))
        path = str(tmp_path / "stack.raw")
        ct.write_f64(path, [stack])
        reader = ct.PayloadReader(path, stack.shape)
        assert (reader.shape, reader.ndim, len(reader)) == (stack.shape, 3, 7)
        for rows in (slice(0, 3), slice(3, 7), slice(5, 99), slice(7, 9),
                     slice(None)):
            assert reader[rows].tobytes() == stack[rows].tobytes()
        # the size is checked when the reader is made, and again as it reads
        with pytest.raises(BundleError, match="header implies"):
            ct.PayloadReader(path, (8, BANDS, P))
        with open(path, "r+b") as f:
            f.truncate(8 * BANDS * P * 6)
        with pytest.raises(BundleError, match="ended early"):
            reader[5:7]

    def test_wrong_role_exits_2(self, scene, capsys):
        est = str(scene["root"] / "wrong_role")
        shutil.copytree(_unmix(scene, "wrong_role_src"), est)
        for ext in (".json", ".raw"):
            shutil.copyfile(os.path.join(est, "eta_d" + ext),
                            os.path.join(est, "abundances_est" + ext))
        capsys.readouterr()
        rc = cli.main(["eval", os.path.dirname(scene["cube"]), est,
                       str(scene["root"] / "wrong_role.csv")])
        err = capsys.readouterr().err
        assert rc == 2 and "field: role" in err

    def _estimates(self, scene) -> str:
        """One ``unmix`` output directory, made once and shared."""
        out = str(scene["root"] / "shared_estimates")
        return out if os.path.isdir(out) else _unmix(scene, "shared_estimates")

    def _json_case(self, scene, reader: str, root) -> tuple[str, list]:
        """The JSON file a reader parses, in a fresh copy of the scene,
        estimates, checkpoint and labelled set, and a command that reads it."""
        truth, est = str(root / "truth"), str(root / "est")
        shutil.copytree(os.path.dirname(scene["cube"]), truth)
        shutil.copytree(self._estimates(scene), est)
        ckpt, sup = str(root / "model"), str(root / "sup")
        for src, dst in ((scene["ckpt"], ckpt), (_supervised(scene), sup)):
            for ext in (".json", ".raw"):
                shutil.copyfile(src + ext, dst + ext)
        evaluate = ["eval", truth, est, str(root / "report.csv")]
        unmix = ["unmix", os.path.join(truth, "cube"), ckpt, str(root / "out")]
        return {
            "cube": (os.path.join(truth, "cube"), unmix),
            "abundances": (os.path.join(truth, "abundances"), evaluate),
            "endmembers": (os.path.join(truth, "endmembers"), evaluate),
            "scalar_map": (os.path.join(est, "eta_d"), evaluate),
            "supervised": (sup, ["train", scene["cube"], sup,
                                 str(root / "trained"), "--epochs", "1"]),
            "checkpoint": (ckpt, unmix),
            "estimates_manifest": (os.path.join(est, "manifest"), evaluate),
        }[reader]

    @pytest.mark.parametrize("corruption", ["not_utf8", "not_json",
                                            "json_list"])
    @pytest.mark.parametrize("reader", [
        "cube", "abundances", "endmembers", "scalar_map", "supervised",
        "checkpoint", "estimates_manifest"])
    def test_unreadable_json_exits_2(self, scene, capsys, reader, corruption):
        root = scene["root"] / f"json_{reader}_{corruption}"
        base, argv = self._json_case(scene, reader, root)
        with open(base + ".json", "wb") as f:
            f.write({"not_utf8": b'{"width": "\xff"}',
                     "not_json": b'{"width": 8,',
                     "json_list": b"[1]"}[corruption])
        args = cli._build_parser().parse_args(argv)
        with pytest.raises(BundleError) as exc_info:
            args.func(args)
        assert base + ".json" in str(exc_info.value)
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("value", ["fast", True, [1.5]],
                             ids=["str", "bool", "list"])
    def test_non_numeric_wall_clock_exits_2(self, scene, capsys, value):
        est = str(scene["root"] / f"wall_clock_{value}")
        shutil.copytree(self._estimates(scene), est)
        _edit_header(os.path.join(est, "manifest"), "wall_clock_s", value)
        capsys.readouterr()
        rc = cli.main(["eval", os.path.dirname(scene["cube"]), est,
                       str(scene["root"] / f"wall_clock_{value}.csv")])
        assert rc == 2 and "field: wall_clock_s" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["abundances", "endmembers"])
    def test_cube_with_a_role_exits_2(self, scene, capsys, name):
        base = os.path.join(os.path.dirname(scene["cube"]), name)
        with pytest.raises(BundleError) as exc_info:
            dt.load_cube(base)
        assert exc_info.value.field == "role"
        capsys.readouterr()
        rc = cli.main(["selfsup", base, str(scene["root"] / f"sup_of_{name}")])
        assert rc == 2 and "field: role" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["int", "str", "short", "str_item",
                                      "bool_item", "nan_item"])
    def test_bad_wavelengths_exit_2(self, scene, capsys, case):
        head = [400.0] * (BANDS - 1)
        value = {"int": 5, "str": "400", "short": head,
                 "str_item": head + ["400"], "bool_item": head + [True],
                 "nan_item": head + [float("nan")]}[case]
        base = _copy_cube(scene, f"wavelengths_{case}")
        _edit_header(base, "wavelengths", value)
        with pytest.raises(BundleError) as exc_info:
            dt.load_cube(base)
        assert exc_info.value.field == "wavelengths"
        rc, err = self._unmix_rc(scene, base, capsys)
        assert rc == 2 and "field: wavelengths" in err

    def test_scalar_map_with_two_bands_exits_2(self, scene, capsys):
        est = str(scene["root"] / "eta_two_bands")
        shutil.copytree(self._estimates(scene), est)
        eta = os.path.join(est, "eta_d")
        # the payload still matches width * height * bands
        _edit_header(eta, "height", HEIGHT // 2)
        _edit_header(eta, "bands", 2)
        with pytest.raises(BundleError) as exc_info:
            dt.load_scalar_map(eta)
        assert exc_info.value.field == "bands"
        capsys.readouterr()
        rc = cli.main(["eval", os.path.dirname(scene["cube"]), est,
                       str(scene["root"] / "eta_two_bands.csv")])
        assert rc == 2 and "field: bands" in capsys.readouterr().err


def _resize_payload(path: str, delta: int):
    """Drop the last value of a payload (delta -1) or append one (+1)."""
    if delta < 0:
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 8)
    else:
        with open(path, "ab") as f:
            f.write(np.float64(0.5).tobytes())


def _line_cube(scene, name: str, n: int, nan_at=None) -> str:
    """A one-row cube of ``n`` random pixels; ``nan_at`` (pixel, band)."""
    y = np.random.default_rng(n).uniform(0.0, 1.0, (n, BANDS))
    if nan_at is not None:
        y[nan_at] = np.nan
    base = str(scene["root"] / name)
    dt.save_cube(base, dt.HyperCube(width=n, height=1, pixels=y))
    return base


class TestStreamedBundles:
    """``unmix`` and ``eval`` read and write scene-sized bundles in row
    blocks.  A bad payload size or a non-finite pixel is caught before
    anything is written, and a failure part way leaves no bundle."""

    @pytest.mark.parametrize("delta", [-1, 1])
    @pytest.mark.parametrize("bundle", ["cube", "endmembers",
                                        "endmembers_est"])
    def test_bad_payload_size_exits_2_before_writing(self, scene, capsys,
                                                     bundle, delta):
        root = scene["root"] / f"size_{bundle}_{delta}"
        truth = str(root / "truth")
        shutil.copytree(os.path.dirname(scene["cube"]), truth)
        est = str(root / "est")
        assert cli.main(["unmix", scene["cube"], scene["ckpt"], est]) == 0
        target = os.path.join(est if bundle == "endmembers_est" else truth,
                              bundle)
        _resize_payload(target + ".raw", delta)
        out, csv = str(root / "out"), str(root / "report.csv")
        capsys.readouterr()
        if bundle == "cube":
            rc = cli.main(["unmix", target, scene["ckpt"], out])
        else:
            rc = cli.main(["eval", truth, est, csv])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ")
        n = WIDTH * HEIGHT * BANDS * (1 if bundle == "cube" else P)
        assert f"{target}.raw: payload holds {n + delta} values" in err
        assert not os.path.exists(out) and not os.path.exists(csv)

    def test_nan_in_last_block_exits_2_and_writes_nothing(self, scene,
                                                          capsys):
        n = 2 * dt.ROW_BLOCK + 37
        cube = _line_cube(scene, "nan_last_block", n, (n - 2, 5))
        out = str(scene["root"] / "run_nan_last_block")
        capsys.readouterr()
        rc = cli.main(["unmix", cube, scene["ckpt"], out])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"pixel {n - 2} (row 0, column {n - 2}), band 5" in err
        assert not os.path.exists(out)

    def test_failure_in_second_block_exits_3_leaving_no_bundle(
            self, scene, monkeypatch, capsys):
        cube = _line_cube(scene, "two_blocks", inf.ROW_BLOCK + 1)
        blocks_seen = []
        least_squares = inf._least_squares_start

        def fail_in_block_2(m, y):
            blocks_seen.append(len(y))
            if len(blocks_seen) == 2:
                raise np.linalg.LinAlgError("SVD did not converge")
            return least_squares(m, y)
        monkeypatch.setattr(inf, "_least_squares_start", fail_in_block_2)
        out = str(scene["root"] / "run_fail_block_2")
        capsys.readouterr()
        rc = cli.main(["unmix", cube, scene["ckpt"], out])
        assert rc == 3
        assert "SVD did not converge" in capsys.readouterr().err
        assert blocks_seen == [inf.ROW_BLOCK, 1]
        assert os.listdir(out) == []

    def test_model_is_built_from_checkpoint_without_draws(self, scene,
                                                          monkeypatch):
        def no_draws(*args):
            raise AssertionError("random draw while loading a checkpoint")
        monkeypatch.setattr(dc, "xavier_uniform", no_draws)
        meta, theta, phi = cli._load_model(scene["ckpt"])
        params = inf.model_parameters(theta, phi)
        stored = inf.model_parameters(scene["theta"], scene["phi"])
        assert params.keys() == stored.keys()
        for name, t in params.items():
            assert t.data.tobytes() == stored[name].data.tobytes(), name
        # every tensor is a view of the one payload read, not a copy
        bases = [t.data.base for t in params.values()]
        assert bases[0] is not None
        assert all(base is bases[0] for base in bases)

    @pytest.mark.parametrize("case", ["missing", "misshapen"])
    def test_missing_or_misshapen_array_exits_2_naming_it(self, scene, capsys,
                                                          case):
        name = "gen.nlin_mixing.w1"
        base = str(scene["root"] / f"ckpt_{case}")
        for ext in (".json", ".raw"):
            shutil.copyfile(scene["ckpt"] + ext, base + ext)
        with open(base + ".json") as f:
            manifest = json.load(f)
        if case == "missing":
            del manifest["arrays"][name]
        else:                     # the same count, transposed
            manifest["arrays"][name]["shape"].reverse()
        with open(base + ".json", "w") as f:
            json.dump(manifest, f)
        out = str(scene["root"] / f"run_ckpt_{case}")
        capsys.readouterr()
        rc = cli.main(["unmix", scene["cube"], base, out])
        assert rc == 2 and f"field: {name}" in capsys.readouterr().err
        assert not os.path.exists(out)


# the bench scene's band and endmember counts
BIG_BANDS, BIG_P = 224, 5


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """Peak traced memory of ``unmix`` and ``eval`` at N = 4 and 16 blocks,
    on the bench scene's band and endmember counts: only what a command
    must hold whole may grow with the scene."""

    def test_unmix_peak_does_not_grow_with_the_scene(self, tmp_path):
        theta, phi = inf.init_model(BIG_BANDS, BIG_P, 2, 11,
                                    np.random.default_rng(1))
        ckpt = str(tmp_path / "model")
        ct.save_checkpoint(ckpt, {"n_bands": BIG_BANDS,
                                  "n_endmembers": BIG_P, "latent_dim": 2,
                                  "lista_layers": 11},
                           inf.model_parameters(theta, phi))
        del theta, phi
        peaks = []
        for n in (4 * inf.ROW_BLOCK, 16 * inf.ROW_BLOCK):
            cube = str(tmp_path / f"cube_{n}")
            y = np.random.default_rng(n).uniform(0.0, 1.0, (n, BIG_BANDS))
            dt.save_cube(cube, dt.HyperCube(width=n, height=1, pixels=y))
            del y
            peaks.append(_traced_peak(["unmix", cube, ckpt,
                                       str(tmp_path / f"out_{n}")]))
        assert peaks[1] <= 1.1 * peaks[0], peaks

    def test_eval_peak_does_not_grow_with_the_scene(self, tmp_path):
        """``eval`` reads the endmember stacks, the cube and the
        reconstruction in blocks: its peak must not grow with N."""
        peaks = []
        for n in (4 * ev.ROW_BLOCK, 16 * ev.ROW_BLOCK):
            truth, est = _eval_bundles(tmp_path, n, BIG_BANDS, BIG_P)
            peaks.append(_traced_peak(["eval", truth, est,
                                       str(tmp_path / f"report_{n}.csv")]))
        assert peaks[1] <= 1.1 * peaks[0], peaks


def _eval_bundles(root, n: int, bands: int, p: int) -> tuple[str, str]:
    """Truth and estimate directories of random bundles for ``eval``, an
    n x 1 scene; returns their paths."""
    rng = np.random.default_rng(n)
    truth, est = root / f"truth_{n}", root / f"est_{n}"
    truth.mkdir()
    est.mkdir()
    stack = (n, bands, p)
    dt.save_cube(str(truth / "cube"), dt.HyperCube(
        n, 1, rng.uniform(0.0, 1.0, (n, bands))))
    dt.save_cube(str(est / "reconstruction"), dt.HyperCube(
        n, 1, rng.uniform(0.0, 1.0, (n, bands))))
    for d, name in ((truth, "abundances"), (est, "abundances_est")):
        dt.save_abundances(str(d / name), rng.dirichlet(np.ones(p), n), n, 1)
    for d, name in ((truth, "endmembers"), (est, "endmembers_est")):
        dt.save_endmembers(str(d / name), rng.uniform(0.05, 1.0, stack), n, 1)
    dt.save_scalar_map(str(est / "eta_d"), rng.uniform(0.0, 1.0, n), n, 1)
    return str(truth), str(est)


class TestThreadIndependence:
    def test_eval_report_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """``cli eval`` in fresh processes with BLAS on one and on two
        threads writes the same report, ``runtime_s`` aside, on a scene whose
        stacks and cube are long enough for BLAS to split a dot product."""
        # 1.28M values per stack: scored by whole-vector BLAS dots, three
        # of this scene's scores differ in their last digits between 1 and
        # 2 threads
        truth, est = _eval_bundles(tmp_path, 4000, 64, 5)
        src = os.path.dirname(unmix.__path__[0])
        path = os.pathsep.join(filter(None, [src,
                                             os.environ.get("PYTHONPATH")]))
        reports = []
        for threads in ("1", "2"):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("UNMIX_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       PYTHONPATH=path)
            csv = str(tmp_path / f"report_{threads}.csv")
            subprocess.run([sys.executable, "-m", "unmix.cli", "eval", truth,
                            est, csv], env=env, check=True,
                           capture_output=True, timeout=120)
            with open(csv, "rb") as f:
                lines = f.read().splitlines()
            # the last column is the estimates' runtime_s
            reports.append([line.rsplit(b",", 1)[0] for line in lines])
        assert reports[0] == reports[1]


class TestPublicSurface:
    """Every exported name resolves, and so does every function the
    benchmark's tracer wraps, so a deletion that would break either fails
    here."""

    def test_import_unmix(self):
        import unmix
        assert unmix.__version__

    @pytest.mark.parametrize("module", sorted(
        m.name for m in pkgutil.iter_modules(unmix.__path__)))
    def test_all_entries_resolve(self, module):
        mod = importlib.import_module(f"unmix.{module}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert missing == []

    def test_tracer_targets_exist(self):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                            "tracer.py")
        with open(path) as f:
            tree = ast.parse(f.read())
        targets = next(
            ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                    for t in node.targets))
        missing = [f"{layer}.{name}" for layer, names in targets.items()
                   for name in names
                   if not callable(getattr(
                       importlib.import_module(f"unmix.{layer}"), name, None))]
        assert targets and missing == []
