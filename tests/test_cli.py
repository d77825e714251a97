"""Command-line contract: reproducible outputs, what they hold, exit codes."""

import argparse
import ast
import dataclasses
import importlib
import inspect
import json
import os
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
from unmix.distributions import RngNoise
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
            m_hat[13, 1, 5] = np.nan
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

    @pytest.mark.parametrize("kind, flag, value, rule", [
        ("dc2", "--width", "0", ">= 1, got 0"),
        ("dc2", "--height", "0", ">= 1, got 0"),
        ("dc2", "--width", "-3", ">= 1, got -3"),
        ("dc2", "--endmembers", "0", ">= 1, got 0"),
        ("dc1", "--bands", "8", ">= 16, got 8"),
        ("dc2", "--bands", "15", ">= 16, got 15"),
        ("dc2", "--variability", "0.9", "in [0, 0.5], got 0.9"),
        ("dc2", "--variability", "-0.1", "in [0, 0.5], got -0.1"),
        ("dc2", "--variability", "nan", "in [0, 0.5], got nan")])
    def test_bad_size_exits_2_before_writing(self, tmp_path, capsys, kind,
                                             flag, value, rule):
        """Into an empty directory it leaves empty, or one that did not
        exist, which it does not make."""
        size = {"--bands": "16", "--width": "4", "--height": "4", flag: value}
        for made in (True, False):
            out = tmp_path / f"scene_{made}"
            if made:
                out.mkdir()
            capsys.readouterr()
            rc = cli.main(["generate", kind, str(out)]
                          + [arg for item in size.items() for arg in item])
            assert rc == 2
            assert f"{flag} must be {rule}" in capsys.readouterr().err
            assert os.listdir(out) == [] if made else not out.exists()

    @pytest.mark.parametrize("bundle", ["endmembers", "endmembers_est"])
    def test_non_finite_endmember_exits_2_naming_endmember_and_band(
            self, scene, tmp_path, capsys, bundle):
        """``eval`` names a NaN in a dc1 truth's shared (P, L) matrix, or in
        the estimated (N, P, L) stack, by its bundle, endmember and band, in
        the words of every bundle reader."""
        truth, est = str(tmp_path / "dc1"), str(tmp_path / "est")
        assert cli.main(["generate", "dc1", truth, "--width", str(WIDTH),
                         "--height", str(HEIGHT), "--bands", str(BANDS),
                         "--endmembers", str(P)]) == 0
        assert cli.main(["unmix", os.path.join(truth, "cube"), scene["ckpt"],
                         est]) == 0
        base = os.path.join(truth if bundle == "endmembers" else est, bundle)
        m = dt.load_endmembers(base)
        if bundle == "endmembers":
            m[1, 5] = np.nan
            where = "endmember 1, band 5"
        else:
            m[13, 1, 5] = np.nan
            where = "pixel 13, endmember 1, band 5"
        dt.save_endmembers(base, m, WIDTH, HEIGHT)
        csv = str(tmp_path / "report.csv")
        capsys.readouterr()
        assert cli.main(["eval", truth, est, csv]) == 2
        assert capsys.readouterr().err == (f"error: {base}: endmembers has a "
                                           f"non-finite value (nan) at "
                                           f"{where}\n")
        assert not os.path.exists(csv)

    def test_overflowing_cube_exits_3_and_writes_no_report(self, scene,
                                                          tmp_path, capsys):
        """A finite cube whose squares overflow has no nrmse_y: exit 3
        naming both bundles, not a report holding ``nan``."""
        truth, est = str(tmp_path / "dc1"), str(tmp_path / "est")
        assert cli.main(["generate", "dc1", truth, "--width", str(WIDTH),
                         "--height", str(HEIGHT), "--bands", str(BANDS),
                         "--endmembers", str(P)]) == 0
        assert cli.main(["unmix", os.path.join(truth, "cube"), scene["ckpt"],
                         est]) == 0
        cube_base = os.path.join(truth, "cube")
        cube = dt.load_cube(cube_base)
        dt.save_cube(cube_base, dt.HyperCube(WIDTH, HEIGHT,
                                             cube.pixels * 1e160))
        recon_base = os.path.join(est, "reconstruction")
        dt.save_cube(recon_base, dt.HyperCube(
            WIDTH, HEIGHT, np.zeros((WIDTH * HEIGHT, BANDS))))
        csv = str(tmp_path / "report.csv")
        capsys.readouterr()
        assert cli.main(["eval", truth, est, csv]) == 3
        assert capsys.readouterr().err == (
            f"error: {cube_base} and {recon_base}: a sum of squares of "
            f"pixels overflows in the block from pixel 0\n")
        assert not os.path.exists(csv)

    def test_all_zero_truth_abundances_exit_3_and_write_no_report(
            self, scene, tmp_path, capsys):
        """An abundance truth of zero norm has no nrmse_a to report."""
        truth = str(tmp_path / "truth")
        shutil.copytree(os.path.dirname(scene["cube"]), truth)
        base = os.path.join(truth, "abundances")
        a, w, h = dt.load_abundances(base)
        dt.save_abundances(base, np.zeros_like(a), w, h)
        csv = str(tmp_path / "report.csv")
        capsys.readouterr()
        assert cli.main(["eval", truth, _unmix(scene, "est_zero_truth"),
                         csv]) == 3
        assert capsys.readouterr().err == "error: reference norm is zero\n"
        assert not os.path.exists(csv)

    def test_overflowing_cube_exits_3_in_unmix(self, scene, tmp_path,
                                               capsys):
        """A finite cube whose concentration streams' squares overflow has
        no eta_d: exit 3 naming the block, and no bundle left behind, not
        an all-NaN map."""
        truth, out = str(tmp_path / "dc1"), str(tmp_path / "est")
        assert cli.main(["generate", "dc1", truth, "--width", str(WIDTH),
                         "--height", str(HEIGHT), "--bands", str(BANDS),
                         "--endmembers", str(P)]) == 0
        cube_base = os.path.join(truth, "cube")
        cube = dt.load_cube(cube_base)
        dt.save_cube(cube_base, dt.HyperCube(WIDTH, HEIGHT,
                                             cube.pixels * 1e160))
        capsys.readouterr()
        assert cli.main(["unmix", cube_base, scene["ckpt"], out]) == 3
        assert capsys.readouterr().err == (
            "error: eta_d: a sum of squares of the concentration streams "
            "overflows in the block from pixel 0\n")
        assert os.listdir(out) == []

    def test_eta_d_of_another_size_exits_2(self, scene, tmp_path, capsys):
        """An eta_d map of 10 pixels among the estimates of a 64-pixel
        scene is refused, not averaged into eta_d_mean."""
        est = _unmix(scene, "run_foreign_eta")
        truth = os.path.dirname(scene["cube"])
        dt.save_scalar_map(os.path.join(est, "eta_d"),
                           np.full(10, 0.5), 10, 1)
        csv = str(tmp_path / "report.csv")
        capsys.readouterr()
        assert cli.main(["eval", truth, est, csv]) == 2
        assert capsys.readouterr().err == (
            f"error: eta_d: eta_d of 10 pixels for a cube of "
            f"{WIDTH * HEIGHT}\n")
        assert not os.path.exists(csv)

    def test_endmember_stack_of_another_scene_exits_2(self, scene, tmp_path,
                                                      capsys):
        """The endmember stack of a 5x4 scene among the estimates of an
        8x8 dc1 scene, whose truth is one shared matrix, is refused, not
        scored over its 20 pixels."""
        runs = {}
        for name, (w, h) in (("big", (WIDTH, HEIGHT)), ("small", (5, 4))):
            truth, est = str(tmp_path / name), str(tmp_path / f"{name}_est")
            assert cli.main(["generate", "dc1", truth, "--width", str(w),
                             "--height", str(h), "--bands", str(BANDS),
                             "--endmembers", str(P)]) == 0
            assert cli.main(["unmix", os.path.join(truth, "cube"),
                             scene["ckpt"], est]) == 0
            runs[name] = truth, est
        (truth, est), (_, small) = runs["big"], runs["small"]
        stack = os.path.join(est, "endmembers_est")
        for ext in (".json", ".raw"):
            shutil.copyfile(os.path.join(small, "endmembers_est") + ext,
                            stack + ext)
        csv = str(tmp_path / "report.csv")
        capsys.readouterr()
        assert cli.main(["eval", truth, est, csv]) == 2
        assert capsys.readouterr().err == (
            f"error: {stack}: endmembers of 20 pixels for a cube of "
            f"{WIDTH * HEIGHT}\n")
        assert not os.path.exists(csv)

    @pytest.mark.parametrize("command", ["generate", "unmix"])
    def test_non_empty_output_dir_exits_2_without_force(self, scene,
                                                        tmp_path, capsys,
                                                        command):
        out = tmp_path / "out"
        out.mkdir()
        (out / "kept.txt").write_bytes(b"kept")
        args = {"generate": ["generate", "dc1", str(out), "--width", "4",
                             "--height", "4", "--bands", str(BANDS)],
                "unmix": ["unmix", scene["cube"], scene["ckpt"], str(out)]}
        capsys.readouterr()
        assert cli.main(args[command]) == 2
        assert capsys.readouterr().err == (
            f"error: output directory {out} is not empty; use --force\n")
        assert os.listdir(out) == ["kept.txt"]
        assert (out / "kept.txt").read_bytes() == b"kept"

    def test_labelled_set_of_another_band_count_exits_2(self, scene,
                                                        tmp_path, capsys):
        sup, out = str(tmp_path / "sup"), str(tmp_path / "model")
        rng = np.random.default_rng(2)
        dt.save_supervised(sup, rng.random((P, BANDS + 1)), np.eye(P),
                           rng.random((P, P, BANDS + 1)))
        before = sorted(os.listdir(tmp_path))
        capsys.readouterr()
        rc = cli.main(["train", scene["cube"], sup, out, "--epochs", "1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: supervised set band count differs from the cube\n")
        assert sorted(os.listdir(tmp_path)) == before

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

    @pytest.mark.parametrize("flag, value", [("--p", "1"), ("--p", "0"),
                                             ("--p", "-1"),
                                             ("--n-ppx", "0"),
                                             ("--n-ppx", "-2"),
                                             ("--n-draws", "0"),
                                             ("--n-draws", "-1")])
    def test_bad_selfsup_size_exits_2_before_writing(
            self, scene, tmp_path, monkeypatch, capsys, flag, value):
        """Before the cube is read; a labelled set needs two endmembers,
        since ``train`` cannot sample a one-endmember Dirichlet."""
        def read(*args, **kwargs):
            raise AssertionError("the cube was read")
        monkeypatch.setattr(dt, "load_cube", read)
        least = 2 if flag == "--p" else 1
        sizes = {"--p": str(P), "--n-ppx": "4", "--n-draws": "2", flag: value}
        capsys.readouterr()
        rc = cli.main(["selfsup", scene["cube"], str(tmp_path / "sup")]
                      + [arg for item in sizes.items() for arg in item])
        assert rc == 2
        assert f"{flag} must be >= {least}, got {value}" \
            in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_more_endmembers_than_bands_exits_2_before_writing(
            self, scene, tmp_path, capsys):
        capsys.readouterr()
        rc = cli.main(["selfsup", scene["cube"], str(tmp_path / "sup"),
                       "--p", "40"])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"error: cannot extract 40 endmembers from {BANDS}x"
            f"{WIDTH * HEIGHT} data\n")
        assert os.listdir(tmp_path) == []

    def test_one_endmember_labelled_set_exits_2_before_training(
            self, scene, tmp_path, monkeypatch, capsys):
        def step(*args, **kwargs):
            raise AssertionError("a training step ran")
        monkeypatch.setattr(ob, "total_loss", step)
        sup, out = str(tmp_path / "sup"), str(tmp_path / "model")
        rng = np.random.default_rng(2)
        dt.save_supervised(sup, rng.random((4, BANDS)), np.ones((4, 1)),
                           rng.random((4, 1, BANDS)))
        capsys.readouterr()
        rc = cli.main(["train", scene["cube"], sup, out, "--epochs", "1"])
        assert rc == 2
        assert capsys.readouterr().err == ("error: labeled set must have at "
                                           "least 2 endmembers, got 1\n")
        assert not os.path.exists(out + ".json")

    @pytest.mark.parametrize("flag, value, field", [
        ("--lambda", "nan", "lam"), ("--beta", "inf", "beta"),
        ("--tau", "-inf", "tau"), ("--varsigma1", "nan", "varsigma1"),
        ("--varsigma2", "inf", "varsigma2"),
        ("--rel-stop-tol", "nan", "rel_stop_tol"),
        ("--rel-stop-tol", "-inf", "rel_stop_tol"),
        ("--latent-dim", "0", "latent_dim"),
        ("--lista-layers", "0", "lista_layers"),
        ("--k", "0", "k and k_e"), ("--ke", "0", "k and k_e"),
        ("--batch-size", "0", "batch_size and max_epochs"),
        ("--epochs", "0", "batch_size and max_epochs")])
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

    # The suite turns a RuntimeWarning into an error.  Here numpy's warning
    # of the overflow comes before the refusal under test, so it is ignored.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_objective_overflow_exits_3_writing_no_checkpoint(
            self, scene, capsys):
        out = str(scene["root"] / "diverged")
        capsys.readouterr()
        rc = cli.main(["train", scene["cube"], _supervised(scene), out,
                       "--epochs", "1", "--lambda", "1e308"])
        assert rc == 3
        assert capsys.readouterr().err == (
            "error: objective diverged; epoch=0; batch=0\n")
        assert not os.path.exists(out + ".json")

    @pytest.mark.parametrize("case", ["generate into a file",
                                      "unmix through a file",
                                      "eval into a directory"])
    def test_unusable_path_exits_2_writing_nothing(self, scene, tmp_path,
                                                   capsys, case):
        """A path that cannot be written exits 2 with a message naming it,
        not with a traceback, and leaves everything as it was."""
        est = _unmix(scene, "run_for_paths") if case.startswith("eval") \
            else None
        root = tmp_path / "paths"
        root.mkdir()
        (root / "afile").write_bytes(b"kept")
        (root / "adir").mkdir()
        path = {"generate into a file": root / "afile",
                "unmix through a file": root / "afile" / "maps",
                "eval into a directory": root / "adir"}[case]
        argv = {"generate": ["generate", "dc1", str(path), "--width", "4",
                             "--height", "4", "--bands", "16"],
                "unmix": ["unmix", scene["cube"], scene["ckpt"], str(path)],
                "eval": ["eval", os.path.dirname(scene["cube"]), est,
                         str(path)]}[case.split()[0]]
        capsys.readouterr()
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
        assert sorted(os.listdir(root)) == ["adir", "afile"]
        assert (root / "afile").read_bytes() == b"kept"
        assert os.listdir(root / "adir") == []

    @pytest.mark.parametrize("case", ["missing", "file"])
    def test_unwritable_checkpoint_path_exits_2_before_training(
            self, scene, monkeypatch, capsys, tmp_path, case):
        def step(*args, **kwargs):
            raise AssertionError("a training step ran")
        monkeypatch.setattr(ob, "total_loss", step)
        (tmp_path / "file").write_bytes(b"")
        out = str(tmp_path / case / "model")
        capsys.readouterr()
        rc = cli.main(["train", scene["cube"], _supervised(scene), out,
                       "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and out in err
        assert sorted(os.listdir(tmp_path)) == ["file"]

    @pytest.mark.parametrize("case", ["usable", "missing", "file",
                                      "directory"])
    @pytest.mark.parametrize("command", ["selfsup", "eval"])
    def test_unusable_output_exits_2_before_any_work(
            self, scene, monkeypatch, capsys, tmp_path, command, case):
        """``selfsup`` and ``eval --baseline fcls`` check the file they
        write before they run VCA or FCLS: an output in a missing
        directory, through a file or onto a directory exits 2 naming it,
        and the spies on ``dt.vca`` and ``ev.fcls`` see no call."""
        calls = []

        def spy(fn):
            def counted(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return counted
        monkeypatch.setattr(dt, "vca", spy(dt.vca))
        monkeypatch.setattr(ev, "fcls", spy(ev.fcls))
        (tmp_path / "file").write_bytes(b"")
        out = str({"usable": tmp_path / "out",
                   "missing": tmp_path / "no" / "out",
                   "file": tmp_path / "file" / "out",
                   "directory": tmp_path / "out"}[case])
        written = out + ".json" if command == "selfsup" else out
        if case == "directory":
            os.mkdir(written)
        if command == "selfsup":
            argv = ["selfsup", scene["cube"], out, "--p", str(P),
                    "--n-ppx", "4", "--n-draws", "2"]
        else:
            est = str(scene["root"] / "run_for_spies")
            if not os.path.isdir(est):
                _unmix(scene, "run_for_spies")
            argv = ["eval", os.path.dirname(scene["cube"]), est, out,
                    "--baseline", "fcls"]
        capsys.readouterr()
        rc = cli.main(argv)
        err = capsys.readouterr().err
        if case == "usable":
            assert rc == 0 and os.path.isfile(written)
            assert calls == (["vca"] if command == "selfsup"
                             else ["vca", "fcls"])
        else:
            assert rc == 2 and calls == []
            assert err.startswith("error: ") and written in err

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


class TestTrainFlags:
    """``train`` takes one flag per ``TrainConfig`` field, with the field's
    default, besides the model sizes, the seed and the resume path."""

    @staticmethod
    def _train_parser():
        sub = next(a for a in cli._build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        return sub.choices["train"]

    def test_flag_set_is_unchanged(self):
        flags = {s for a in self._train_parser()._actions
                 for s in a.option_strings}
        assert flags == {"-h", "--help", "--lambda", "--beta", "--tau",
                         "--varsigma1", "--varsigma2", "--latent-dim",
                         "--lista-layers", "--k", "--ke", "--epochs",
                         "--batch-size", "--rel-stop-tol", "--seed",
                         "--resume"}

    def test_parsed_flags_fill_the_config(self):
        names = [f.name for f in dataclasses.fields(TrainConfig)]
        args = self._train_parser().parse_args(["cube", "sup", "out"])
        assert TrainConfig(**{n: getattr(args, n) for n in names}) \
            == TrainConfig()
        for n in names:
            assert type(getattr(args, n)) is type(getattr(TrainConfig(), n))
        args = self._train_parser().parse_args(
            ["cube", "sup", "out", "--lambda", "0.5", "--ke", "3",
             "--epochs", "7", "--batch-size", "9", "--rel-stop-tol", "0.2"])
        assert (args.lam, args.k_e, args.max_epochs, args.batch_size,
                args.rel_stop_tol) == (0.5, 3, 7, 9, 0.2)


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

    def test_domain_error_in_a_step_saves_the_last_good_checkpoint(
            self, scene, capsys):
        """A ``DomainError`` in a training step is a training error: a
        q(z|y) scale that underflows to 0 exits 3 naming the epoch and
        batch, and the resumed checkpoint is saved as the last good one."""
        meta, arrays = ct.load_checkpoint(scene["ckpt"])
        arrays = dict(arrays, **{"inf.z_scale_head.b2": np.full_like(
            arrays["inf.z_scale_head.b2"], -800.0)})
        base = str(scene["root"] / "zero_z_scale")
        ct.save_checkpoint(base, meta, arrays)
        out = base + "_resumed"
        capsys.readouterr()
        assert cli.main(["train", scene["cube"], _supervised(scene), out,
                         "--epochs", "1", "--resume", base]) == 3
        err = capsys.readouterr().err
        assert (f"training diverged; last-good checkpoint saved to {out}.json"
                in err)
        assert "error: Gaussian scale must be positive; epoch=1; batch=0" \
            in err
        saved_meta, saved = ct.load_checkpoint(out)
        assert saved_meta["epoch"] == meta["epoch"]
        assert saved.keys() == arrays.keys()
        for name, a in arrays.items():
            assert saved[name].tobytes() == a.tobytes(), name

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

    def test_stream_without_shrinkage_steps_trains(self, scene):
        """``--lista-layers 1`` gives a stream with no step size, which
        trains and unmixes."""
        out = str(scene["root"] / "lista_1")
        assert cli.main(["train", scene["cube"], _supervised(scene), out,
                         "--epochs", "1", "--lista-layers", "1"]) == 0
        meta, arrays = ct.load_checkpoint(out)
        assert meta["lista_layers"] == 1 and "inf.lista.log_eta0" not in arrays
        assert cli.main(["unmix", scene["cube"], out, out + "_maps"]) == 0

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
            dc.ParamArena(params)
            bd = total_loss(batch_u, batch_s, theta, phi, TrainConfig(),
                            RngNoise(np.random.default_rng(3)))
            grads.append({n: g.copy() for n, g in
                          dc.backward(-bd.node, params).items()})
        assert grads[0].keys() == grads[1].keys() == arrays.keys()
        assert any(g.any() for g in grads[0].values())
        for name, g in grads[1].items():
            assert grads[0][name].tobytes() == g.tobytes(), name


class TestManifests:
    def test_train_output_path_drops_its_suffix(self, scene):
        """``train``'s checkpoint path may name the bundle's header, as
        every other bundle argument may."""
        out = str(scene["root"] / "suffixed")
        assert cli.main(["train", scene["cube"], _supervised(scene),
                         out + ".json", "--epochs", "1"]) == 0
        assert os.path.exists(out + ".raw")
        assert not os.path.exists(out + ".json.json")
        manifest = ct.read_json(out + ".manifest.json", "manifest")
        assert manifest["outputs"]["checkpoint"] == out + ".json"
        assert cli.main(["unmix", scene["cube"], out + ".json",
                         out + "_maps"]) == 0

    def test_resumed_train_records_the_model_it_trained(self, scene):
        """A resumed run records the sizes of the model it trained, not the
        flags', and the checkpoint it resumed among its inputs."""
        first = str(scene["root"] / "latent_3")
        assert cli.main(["train", scene["cube"], _supervised(scene), first,
                         "--epochs", "1", "--latent-dim", "3",
                         "--lista-layers", "7"]) == 0
        resumed = first + "_resumed"
        assert cli.main(["train", scene["cube"], _supervised(scene), resumed,
                         "--epochs", "1", "--resume", first + ".json"]) == 0
        fresh, again = (ct.read_json(base + ".manifest.json", "manifest")
                        for base in (first, resumed))
        assert (again["args"]["latent_dim"],
                again["args"]["lista_layers"]) == (3, 7)
        assert set(fresh["inputs"]) == {"cube", "supervised"}
        assert again["inputs"] == dict(fresh["inputs"],
                                       checkpoint=first + ".json")

    def test_eval_records_its_wall_time(self, scene):
        out = _unmix(scene, "run_eval_time")
        csv = out + ".csv"
        assert cli.main(["eval", os.path.dirname(scene["cube"]), out,
                         csv]) == 0
        manifest = ct.read_json(csv + ".manifest.json", "manifest")
        assert manifest["wall_clock_s"] > 0.0


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


def _copy_cube(scene, name: str) -> str:
    base = str(scene["root"] / name)
    for ext in (".json", ".raw"):
        shutil.copyfile(scene["cube"] + ext, base + ext)
    return base


def _edit_header(base: str, key: str, value, table: str | None = None):
    """Set one entry of a JSON file, or of its object ``table``; None
    removes it."""
    with open(base + ".json") as f:
        header = json.load(f)
    entries = header if table is None else header[table]
    if value is None:
        del entries[key]
    else:
        entries[key] = value
    with open(base + ".json", "w") as f:
        json.dump(header, f)


class TestNonFiniteCheckpoint:
    """A checkpoint value that is NaN or infinite is a ``BundleError``
    naming the parameter and its first bad index, before any output."""

    CASES = [("gen.nlin_mixing.w0", (3, 7), np.nan),
             ("inf.z_trunk.w0", (1, 2), np.inf),
             ("gen.em_log_scale", (2,), -np.inf)]

    def _ckpt(self, scene, name, index, value) -> str:
        meta, arrays = ct.load_checkpoint(scene["ckpt"])
        arrays = {n: a.copy() for n, a in arrays.items()}
        arrays[name][index] = value
        # a second bad entry later in the array: the first one is named
        arrays[name].reshape(-1)[-1] = value
        base = str(scene["root"] / f"nonfinite_{name}_{value}")
        ct.save_checkpoint(base, meta, arrays)
        return base

    def test_unmix_checks_each_parameter_once(self, scene, monkeypatch):
        """``load_checkpoint`` scans every value once.  ``StoredParams``,
        over which ``cli unmix`` builds the model twice (to load it, then
        for the unmixing pass), scans none, so no other scan of the values
        is made."""
        scanned, loaded = [], []
        isfinite, load = np.isfinite, ct.load_checkpoint

        def spy_isfinite(x, *args, **kwargs):
            scanned.append(x)
            return isfinite(x, *args, **kwargs)

        def spy_load(base):
            meta, arrays = load(base)
            loaded.append(arrays)
            return meta, arrays
        monkeypatch.setattr(ct, "load_checkpoint", spy_load)
        monkeypatch.setattr(np, "isfinite", spy_isfinite)
        _unmix(scene, "checked_once")
        monkeypatch.undo()
        (arrays,) = loaded
        assert len(arrays) == 51
        from_checkpoint = [x for x in scanned if any(
            np.shares_memory(x, a) for a in arrays.values())]
        assert sum(np.size(x) for x in from_checkpoint) \
            == sum(a.size for a in arrays.values())
        # the pass builds its constants with plain ``StoredParams``, which
        # takes values with a NaN as they are
        nan = {n: np.full_like(a, np.nan) for n, a in arrays.items()}
        inf.init_model(BANDS, P, 2, 11, dc.StoredParams(nan))

    @pytest.mark.parametrize("name,index,value", CASES)
    def test_unmix_exits_2_before_any_output(self, scene, capsys, name,
                                             index, value):
        base = self._ckpt(scene, name, index, value)
        out = base + "_maps"
        capsys.readouterr()
        assert cli.main(["unmix", scene["cube"], base, out]) == 2
        err = capsys.readouterr().err
        assert f"field: {name}" in err and f"index {index}" in err
        assert "Traceback" not in err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("name,index,value", CASES)
    def test_resume_exits_2_before_any_output(self, scene, capsys, name,
                                              index, value):
        base = self._ckpt(scene, name, index, value)
        out = base + "_resumed"
        capsys.readouterr()
        assert cli.main(["train", scene["cube"], _supervised(scene), out,
                         "--epochs", "1", "--resume", base]) == 2
        err = capsys.readouterr().err
        assert f"field: {name}" in err and f"index {index}" in err
        assert not any(os.path.exists(out + ext) for ext in
                       (".json", ".raw", ".history.csv", ".manifest.json"))

    def test_array_the_model_does_not_read_is_named_by_its_value(
            self, scene):
        # the values are checked as read, before any model is built: a NaN
        # in an array that no model reads is named with its index
        meta, arrays = ct.load_checkpoint(scene["ckpt"])
        extra = np.zeros((5, 2))
        extra[4, 0] = np.nan
        base = str(scene["root"] / "nonfinite_unread")
        ct.save_checkpoint(base, meta, dict(arrays, **{"gen.extra": extra}))
        with pytest.raises(BundleError) as info:
            cli._load_model(base)
        assert info.value.field == "gen.extra"
        assert "not finite at index (4, 0)" in str(info.value)

    def test_load_params_into_writes_nothing(self, scene):
        _, arrays = ct.load_checkpoint(scene["ckpt"])
        arrays = dict(arrays, **{"inf.lista.log_eta_unc": np.zeros(2)})
        theta, phi = inf.init_model(BANDS, P, 2, 11, np.random.default_rng(0))
        params = inf.model_parameters(theta, phi)
        before = {n: t.data.copy() for n, t in params.items()}
        with pytest.raises(BundleError) as info:
            dc.load_params_into(params, arrays)
        assert info.value.field == "inf.lista.log_eta_unc"
        assert "shape mismatch" in str(info.value)
        for name, t in params.items():
            assert t.data.tobytes() == before[name].tobytes(), name


def _supervised(scene) -> str:
    """A valid labelled set for the scene's band count."""
    base = str(scene["root"] / "sup_valid")
    if not os.path.exists(base + ".json"):
        rng = np.random.default_rng(2)
        dt.save_supervised(base, rng.random((P, BANDS)), np.eye(P),
                           rng.random((P, P, BANDS)))
    return base


class TestBundles:
    """A malformed bundle exits 2 and the message names the bad field."""

    def _unmix_rc(self, scene, cube: str, capsys) -> tuple[int, str]:
        capsys.readouterr()
        rc = cli.main(["unmix", cube, scene["ckpt"],
                       str(scene["root"] / ("run_" + os.path.basename(cube)))])
        return rc, capsys.readouterr().err

    # the product of width and height must be the pixel count, else the
    # error names width
    @pytest.mark.parametrize("key, value, named", [
        ("width", True, "width"), ("height", True, "height"),
        ("width", 0, "width"), ("height", "8", "height"),
        ("height", None, "height"), ("width", WIDTH + 1, "width"),
        ("height", 2 * HEIGHT, "width")])
    def test_bad_scene_size_exits_2(self, scene, capsys, key, value, named):
        base = _copy_cube(scene, f"size_{key}_{value}")
        _edit_header(base, key, value, "meta")
        with pytest.raises(BundleError) as exc_info:
            dt.load_cube(base)
        assert exc_info.value.field == named
        rc, err = self._unmix_rc(scene, base, capsys)
        assert rc == 2 and f"field: {named}" in err

    # one header entry edited; None removes it
    @pytest.mark.parametrize("key, value", [
        ("format", None), ("format", "unmix-v2"), ("format", 1),
        ("format", "unmix-ckpt-v1"),
        ("dtype", None), ("dtype", "f32le"), ("meta", None),
        ("meta", [1]), ("arrays", None), ("arrays", [1])])
    def test_bad_container_field_exits_2_before_writing(self, scene, capsys,
                                                        key, value):
        base = _copy_cube(scene, f"container_{key}_{value}")
        _edit_header(base, key, value)
        with pytest.raises(BundleError) as exc_info:
            dt.open_cube(base)
        assert exc_info.value.field == key
        out = str(scene["root"] / f"run_container_{key}_{value}")
        capsys.readouterr()
        assert cli.main(["unmix", base, scene["ckpt"], out]) == 2
        assert f"field: {key}" in capsys.readouterr().err
        assert not os.path.exists(out)

    # the pixels' entry edited: past the payload's end, a count that is not
    # the shape's, and shapes of the same count with 1 and 3 axes
    @pytest.mark.parametrize("key, value", [
        ("offset", 8), ("count", 1), ("shape", [WIDTH * HEIGHT * BANDS]),
        ("shape", [WIDTH * HEIGHT, BANDS, 1])])
    def test_bad_array_entry_exits_2(self, scene, capsys, key, value):
        base = _copy_cube(scene, f"entry_{key}_{value}")
        with open(base + ".json") as f:
            header = json.load(f)
        header["arrays"]["pixels"][key] = value
        with open(base + ".json", "w") as f:
            json.dump(header, f)
        with pytest.raises(BundleError) as exc_info:
            dt.open_cube(base)
        assert exc_info.value.field == "pixels"
        rc, err = self._unmix_rc(scene, base, capsys)
        assert rc == 2 and "field: pixels" in err

    def test_truncated_payload_exits_2(self, scene, capsys):
        base = _copy_cube(scene, "truncated")
        with open(base + ".raw", "r+b") as f:
            f.truncate(os.path.getsize(base + ".raw") - 8)
        rc, err = self._unmix_rc(scene, base, capsys)
        assert rc == 2
        n = WIDTH * HEIGHT * BANDS
        assert f"{base}.raw: payload holds {n - 1} values, the array ends " \
               f"at value {n} (field: pixels)" in err

    def test_missing_payload_exits_2(self, scene, capsys):
        base = _copy_cube(scene, "no_raw")
        os.remove(base + ".raw")
        rc, err = self._unmix_rc(scene, base, capsys)
        assert rc == 2 and "no_raw.raw" in err

    def test_missing_checkpoint_exits_2_writing_nothing(self, scene, capsys):
        ckpt, out = (str(scene["root"] / n) for n in ("no_ckpt", "run_no_ckpt"))
        capsys.readouterr()
        assert cli.main(["unmix", scene["cube"], ckpt, out]) == 2
        assert capsys.readouterr().err == (
            f"error: missing checkpoint manifest {ckpt}.json\n")
        assert not os.path.exists(out)

    def test_missing_truth_cube_exits_2_writing_nothing(self, scene, capsys):
        truth, csv = (str(scene["root"] / n) for n in ("no_truth", "no.csv"))
        capsys.readouterr()
        assert cli.main(["eval", truth, _unmix(scene, "est_no_truth"),
                         csv]) == 2
        assert capsys.readouterr().err == (
            f"error: missing bundle header "
            f"{os.path.join(truth, 'cube')}.json\n")
        assert not os.path.exists(csv)

    # (y, a, m) shapes; the error names the first array that disagrees
    # with y and a, or that has the wrong number of axes
    @pytest.mark.parametrize("case, shapes, named", [
        ("a_rows", ((P, BANDS), (P + 1, P), (P, P, BANDS)), "a"),
        ("a_columns", ((P, BANDS), (P, P + 1), (P, P, BANDS)), "m"),
        ("m_bands", ((P, BANDS), (P, P), (P, P, BANDS + 1)), "m"),
        ("m_rows", ((P, BANDS), (P, P), (P + 1, P, BANDS)), "m"),
        ("y_axes", ((P, BANDS, 1), (P, P), (P, P, BANDS)), "y"),
        ("m_axes", ((P, BANDS), (P, P), (P, P * BANDS)), "m")])
    def test_mismatched_supervised_shapes_exit_2(self, scene, capsys, case,
                                                 shapes, named):
        base = str(scene["root"] / f"sup_shapes_{case}")
        rng = np.random.default_rng(2)
        ct.write_container(base, {}, {name: rng.random(shape) for name, shape
                                      in zip(("y", "a", "m"), shapes)})
        with pytest.raises(BundleError) as exc_info:
            dt.load_supervised(base)
        assert exc_info.value.field == named
        capsys.readouterr()
        rc = cli.main(["train", scene["cube"], base,
                       str(scene["root"] / "sup_ckpt"), "--epochs", "1"])
        assert rc == 2 and f"field: {named}" in capsys.readouterr().err

    def test_non_finite_supervised_value_exits_2(self, scene, capsys):
        base = str(scene["root"] / "sup_nan")
        y, a, m = dt.load_supervised(_supervised(scene))
        m[2, 0, 7] = np.nan
        dt.save_supervised(base, y, a, m)
        with pytest.raises(InputError):
            dt.load_supervised(base)
        capsys.readouterr()
        rc = cli.main(["train", scene["cube"], base,
                       str(scene["root"] / "sup_nan_ckpt"), "--epochs", "1"])
        err = capsys.readouterr().err
        assert rc == 2 and base in err
        assert "m has a non-finite value (nan) at sample 2, endmember 0, " \
               "band 7" in err

    def test_labelled_arrays_sharing_bytes_exit_2(self, scene, capsys):
        """y moved one value on overlaps a: refused, not read as spectra
        shifted by one band."""
        base = str(scene["root"] / "sup_shared_bytes")
        for ext in (".json", ".raw"):
            shutil.copyfile(_supervised(scene) + ext, base + ext)
        with open(base + ".json") as f:
            header = json.load(f)
        header["arrays"]["y"]["offset"] += 8
        with open(base + ".json", "w") as f:
            json.dump(header, f)
        with pytest.raises(BundleError, match="inside an array") as exc_info:
            dt.load_supervised(base)
        assert exc_info.value.field == "a"
        out = str(scene["root"] / "sup_shared_bytes_ckpt")
        capsys.readouterr()
        rc = cli.main(["train", scene["cube"], base, out, "--epochs", "1"])
        assert rc == 2 and "field: a" in capsys.readouterr().err
        assert not os.path.exists(out + ".json")

    def test_off_simplex_supervised_row_exits_2_before_training(
            self, scene, monkeypatch, capsys):
        def step(*args, **kwargs):
            raise AssertionError("a training step ran")
        base = str(scene["root"] / "sup_off_simplex")
        y, a, m = dt.load_supervised(_supervised(scene))
        a[-1] = (0.7, 0.7, 0.0)
        dt.save_supervised(base, y, a, m)
        with pytest.raises(InputError, match=f"a at sample {P - 1} is off "
                                             "the unit simplex"):
            dt.load_supervised(base)
        monkeypatch.setattr(ob, "total_loss", step)
        out = str(scene["root"] / "sup_off_simplex_ckpt")
        capsys.readouterr()
        rc = cli.main(["train", scene["cube"], base, out, "--epochs", "1"])
        err = capsys.readouterr().err
        assert rc == 2 and base in err and f"sample {P - 1}" in err
        assert not os.path.exists(out + ".json")

    # a per-pixel stack of 4 or 1 axes, and one without a width
    @pytest.mark.parametrize("case, named", [
        ("4_axes", "endmembers"), ("1_axis", "endmembers"),
        ("no_width", "width")])
    def test_bad_endmember_stack_exits_2(self, scene, capsys, case, named):
        truth = str(scene["root"] / f"em_{case}")
        shutil.copytree(os.path.dirname(scene["cube"]), truth)
        base = os.path.join(truth, "endmembers")
        with open(base + ".json") as f:
            header = json.load(f)
        entry = header["arrays"]["endmembers"]
        if case == "no_width":
            del header["meta"]["width"]
        else:
            entry["shape"] = (entry["shape"] + [1] if case == "4_axes"
                              else [entry["count"]])
        with open(base + ".json", "w") as f:
            json.dump(header, f)
        with pytest.raises(BundleError) as exc_info:
            dt.load_endmembers(base)
        assert exc_info.value.field == named
        capsys.readouterr()
        rc = cli.main(["eval", truth, _unmix(scene, f"em_est_{case}"),
                       str(scene["root"] / f"em_{case}.csv")])
        assert rc == 2 and f"field: {named}" in capsys.readouterr().err

    # one manifest entry edited; value None removes the key.  The scalar
    # entry makes true pass as the int 1 unless bools are rejected.
    @pytest.mark.parametrize("name,key,value", [
        ("inf.z_trunk.w0", "shape", [999]), ("inf.z_trunk.w0", "shape", "4"),
        ("inf.z_trunk.w0", "shape", [-4, -1]),
        ("inf.z_trunk.w0", "offset", -8), ("inf.z_trunk.w0", "offset", 1.0),
        ("inf.z_trunk.w0", "offset", 4),
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

    def test_checkpoint_arrays_sharing_bytes_exit_2_writing_nothing(
            self, scene, capsys):
        """One step size read from another's bytes is refused, not
        loaded as that value."""
        def share(manifest):
            arrays = manifest["arrays"]
            arrays["inf.lista.log_eta_sp"]["offset"] = \
                arrays["inf.lista.log_eta_unc"]["offset"]
        base = self._edited_ckpt(scene, "ckpt_shared_bytes", share)
        with pytest.raises(BundleError, match="inside an array") as exc_info:
            ct.load_checkpoint(base)
        named = exc_info.value.field
        assert named in ("inf.lista.log_eta_sp", "inf.lista.log_eta_unc")
        out = str(scene["root"] / "run_ckpt_shared_bytes")
        capsys.readouterr()
        assert cli.main(["unmix", scene["cube"], base, out]) == 2
        assert f"field: {named}" in capsys.readouterr().err
        assert not os.path.exists(out)

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
        stack = rng.random((WIDTH * HEIGHT, BANDS, P)).transpose(0, 2, 1)
        assert not stack.flags.c_contiguous
        base = str(tmp_path / "em")
        dt.save_endmembers(base, stack, WIDTH, HEIGHT)
        with open(base + ".raw", "rb") as f:
            assert f.read() == np.ascontiguousarray(stack, "<f8").tobytes()
        np.testing.assert_array_equal(dt.load_endmembers(base), stack)

    def test_payload_reader_reads_row_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        arrays = {"head": rng.random((3, BANDS)),
                  "stack": rng.random((7, P, BANDS))}
        base = str(tmp_path / "stacks")
        ct.write_container(base, {"note": 1}, arrays)
        meta, readers = ct.open_container(base)
        assert meta == {"note": 1} and readers.keys() == arrays.keys()
        reader = readers["stack"]
        assert (reader.shape, reader.ndim, len(reader)) == \
            ((7, P, BANDS), 3, 7)
        assert reader.offset == 8 * 3 * BANDS
        stack = arrays["stack"]
        for rows in (slice(0, 3), slice(3, 7), slice(5, 99), slice(7, 9),
                     slice(None)):
            assert reader[rows].tobytes() == stack[rows].tobytes()
        assert readers["head"][:].tobytes() == arrays["head"].tobytes()
        # the size is checked when the container is opened, and again as a
        # reader reads
        _resize_payload(base + ".raw", 1)
        with pytest.raises(BundleError, match="header implies"):
            ct.open_container(base)
        with open(base + ".raw", "r+b") as f:
            f.truncate(8 * (3 * BANDS + 6 * BANDS * P))
        with pytest.raises(BundleError, match="ended early"):
            reader[5:7]

    def test_empty_array_inside_another_shares_no_byte(self, tmp_path):
        arrays = {"head": np.arange(4.0), "none": np.zeros((0, BANDS)),
                  "tail": np.ones(2)}
        base = str(tmp_path / "empty")
        ct.write_container(base, {}, arrays)
        _edit_header(base, "none", {"offset": 8, "count": 0,
                                    "shape": [0, BANDS]}, "arrays")
        _, readers = ct.open_container(base)
        assert readers["none"][:].shape == (0, BANDS)
        for name in ("head", "tail"):
            assert readers[name][:].tobytes() == arrays[name].tobytes()

    @pytest.mark.parametrize("case, named", [
        ("fewer lista layers", "inf.lista.log_eta3"),
        ("extra array", "gen.extra")])
    def test_array_the_model_does_not_read_exits_2(self, scene, capsys,
                                                   case, named):
        """A checkpoint holds exactly the model's arrays: ``unmix`` of one
        holding more exits 2 naming the first, before any output."""
        meta, arrays = ct.load_checkpoint(scene["ckpt"])
        if case == "fewer lista layers":
            meta = dict(meta, lista_layers=5)
        else:
            arrays = dict(arrays, **{"gen.extra": np.zeros(2)})
        base = str(scene["root"] / f"unread_{case.replace(' ', '_')}")
        ct.save_checkpoint(base, meta, arrays)
        out = base + "_maps"
        capsys.readouterr()
        assert cli.main(["unmix", scene["cube"], base, out]) == 2
        assert f"field: {named}" in capsys.readouterr().err
        assert not os.path.exists(out)

    # The 11-layer checkpoint with: its lista_layers one too small, so that
    # its last step size goes unread; the format that checkpoints had before
    # every file was a container; each endmember's decoder arrays named
    # apart; and the step size log_eta{K-2} that the stream once held unread.
    @pytest.mark.parametrize("case, named", [
        ("one lista layer fewer", "inf.lista.log_eta8"),
        ("checkpoint format", "format"),
        ("per-endmember names", "gen.em_decoder.w0"),
        ("unread step size", "inf.lista.log_eta9")])
    @pytest.mark.parametrize("command", ["unmix", "resume"])
    def test_checkpoint_off_the_schema_exits_2_before_any_output(
            self, scene, capsys, case, named, command):
        """A checkpoint is read under today's names only: ``unmix`` and
        ``train --resume`` of one whose arrays disagree with its meta or its
        format exit 2 naming the field, and write nothing."""
        meta, arrays = ct.load_checkpoint(scene["ckpt"])
        if case == "one lista layer fewer":
            meta = dict(meta, lista_layers=10)
        elif case == "per-endmember names":
            arrays = _per_endmember_names(arrays)
        elif case == "unread step size":
            arrays = dict(arrays, **{
                "inf.lista.log_eta9": arrays["inf.lista.log_eta0"]})
        base = str(scene["root"] / f"off_schema_{case.replace(' ', '_')}")
        ct.save_checkpoint(base, meta, arrays)
        if case == "checkpoint format":
            _edit_header(base, "format", "unmix-ckpt-v1")
        out = f"{base}_{command}"
        argv = (["unmix", scene["cube"], base, out] if command == "unmix"
                else ["train", scene["cube"], _supervised(scene), out,
                      "--epochs", "1", "--resume", base])
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert f"field: {named}" in capsys.readouterr().err
        assert not any(os.path.exists(out + ext) for ext in
                       ("", ".json", ".raw", ".history.csv", ".manifest.json"))

    @pytest.mark.parametrize("case, named", [
        ("eta_d as abundances", "abundances"), ("renamed", "pixels"),
        ("extra", "extra")])
    def test_missing_or_unexpected_array_exits_2(self, scene, capsys, case,
                                                 named):
        """A bundle holds exactly its kind's arrays: a missing one is named,
        and so is one more."""
        root = scene["root"] / f"names_{case.replace(' ', '_')}"
        truth, est = str(root / "truth"), str(root / "est")
        shutil.copytree(os.path.dirname(scene["cube"]), truth)
        shutil.copytree(self._estimates(scene), est)
        cube = os.path.join(truth, "cube")
        if case == "eta_d as abundances":
            for ext in (".json", ".raw"):
                shutil.copyfile(os.path.join(est, "eta_d" + ext),
                                os.path.join(est, "abundances_est" + ext))
        with open(cube + ".json") as f:
            header = json.load(f)
        if case == "renamed":
            header["arrays"]["pixel"] = header["arrays"].pop("pixels")
        elif case == "extra":
            header["arrays"]["extra"] = {
                "offset": os.path.getsize(cube + ".raw"), "count": 0,
                "shape": [0]}
        with open(cube + ".json", "w") as f:
            json.dump(header, f)
        capsys.readouterr()
        assert cli.main(["eval", truth, est, str(root / "report.csv")]) == 2
        assert f"field: {named}" in capsys.readouterr().err
        assert not os.path.exists(root / "report.csv")

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

    # Each kind's header as it was before every file was a container: no
    # format, the array's shape in width, height, bands (and components).
    _OLD_HEADERS = {
        "cube": {"bands": BANDS},
        "abundances": {"bands": P, "role": "abundances"},
        "endmembers": {"bands": BANDS, "components": P,
                       "role": "endmembers", "order": "bip-pl"},
        "scalar_map": {"bands": 1, "role": "nonlinearity_degree"},
        "supervised": {"width": P, "height": 1, "count": P,
                       "bands": BANDS + P + BANDS * P, "pixel_bands": BANDS,
                       "components": P, "role": "supervised",
                       "order": "bip-pl"},
    }

    @pytest.mark.parametrize("reader", sorted(_OLD_HEADERS))
    def test_bundle_of_the_older_header_exits_2_before_writing(
            self, scene, capsys, reader):
        """No reader of the older bundle header is kept: it has no
        ``format``, and the error names that field."""
        root = scene["root"] / f"old_header_{reader}"
        base, argv = self._json_case(scene, reader, root)
        header = {"width": WIDTH, "height": HEIGHT, "dtype": "f64le",
                  "order": "bip", **self._OLD_HEADERS[reader]}
        with open(base + ".json", "w") as f:
            json.dump(header, f)
        before = sorted(os.listdir(root))
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert "field: format" in capsys.readouterr().err
        assert sorted(os.listdir(root)) == before

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
    def test_other_bundle_as_cube_exits_2(self, scene, capsys, name):
        base = os.path.join(os.path.dirname(scene["cube"]), name)
        with pytest.raises(BundleError) as exc_info:
            dt.load_cube(base)
        assert exc_info.value.field == "pixels"
        capsys.readouterr()
        rc = cli.main(["selfsup", base, str(scene["root"] / f"sup_of_{name}")])
        assert rc == 2 and "field: pixels" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["int", "str", "short", "str_item",
                                      "bool_item", "nan_item"])
    def test_bad_wavelengths_exit_2(self, scene, capsys, case):
        head = [400.0] * (BANDS - 1)
        value = {"int": 5, "str": "400", "short": head,
                 "str_item": head + ["400"], "bool_item": head + [True],
                 "nan_item": head + [float("nan")]}[case]
        base = _copy_cube(scene, f"wavelengths_{case}")
        _edit_header(base, "wavelengths", value, "meta")
        with pytest.raises(BundleError) as exc_info:
            dt.load_cube(base)
        assert exc_info.value.field == "wavelengths"
        rc, err = self._unmix_rc(scene, base, capsys)
        assert rc == 2 and "field: wavelengths" in err

    def test_scalar_map_with_two_axes_exits_2(self, scene, capsys):
        est = str(scene["root"] / "eta_two_axes")
        shutil.copytree(self._estimates(scene), est)
        eta = os.path.join(est, "eta_d")
        # the same count, as (N / 2, 2)
        with open(eta + ".json") as f:
            header = json.load(f)
        header["arrays"][dt.SCALAR_MAP]["shape"] = [WIDTH * HEIGHT // 2, 2]
        with open(eta + ".json", "w") as f:
            json.dump(header, f)
        with pytest.raises(BundleError) as exc_info:
            dt.load_scalar_map(eta)
        assert exc_info.value.field == dt.SCALAR_MAP
        capsys.readouterr()
        rc = cli.main(["eval", os.path.dirname(scene["cube"]), est,
                       str(scene["root"] / "eta_two_axes.csv")])
        assert rc == 2 and f"field: {dt.SCALAR_MAP}" in capsys.readouterr().err


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

    @pytest.mark.parametrize("bundle", ["cube", "reconstruction"])
    def test_eval_nan_in_last_block_exits_2_naming_bundle(self, tmp_path,
                                                          capsys, bundle):
        n = 2 * ev.ROW_BLOCK + 37
        truth, est = _eval_bundles(tmp_path, n, BANDS, P)
        base = os.path.join(truth if bundle == "cube" else est, bundle)
        pixels = dt.load_cube(base).pixels
        pixels[n - 2, 5] = np.nan
        dt.save_cube(base, dt.HyperCube(n, 1, pixels))
        csv = str(tmp_path / "report.csv")
        capsys.readouterr()
        assert cli.main(["eval", truth, est, csv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {base}: pixels has a non-finite "
                              f"value (nan) at pixel {n - 2}, band 5\n")
        assert not os.path.exists(csv)

    def test_eval_reads_each_cube_row_once(self, tmp_path, monkeypatch):
        """The cube and the reconstruction are read by nrmse_y's pass
        alone, which also looks for non-finite values."""
        n = 2 * ev.ROW_BLOCK + 37
        truth, est = _eval_bundles(tmp_path, n, BANDS, P)
        reads = {}
        getitem = ct.PayloadReader.__getitem__

        def counted(reader, rows):
            start, stop, _ = rows.indices(len(reader))
            reads.setdefault(reader.path, np.zeros(len(reader), int))[
                start:stop] += 1
            return getitem(reader, rows)
        monkeypatch.setattr(ct.PayloadReader, "__getitem__", counted)
        assert cli.main(["eval", truth, est, str(tmp_path / "r.csv")]) == 0
        for path in (os.path.join(truth, "cube.raw"),
                     os.path.join(est, "reconstruction.raw")):
            assert reads[path].tolist() == [1] * n, path

    def test_failure_in_second_block_exits_3_leaving_no_bundle(
            self, scene, monkeypatch, capsys):
        cube = _line_cube(scene, "two_blocks", inf.ROW_BLOCK + 1)
        blocks_seen = []
        least_squares = inf._least_squares_start

        def fail_in_block_2(gram, b):
            blocks_seen.append(len(b))
            if len(blocks_seen) == 2:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return least_squares(gram, b)
        monkeypatch.setattr(inf, "_least_squares_start", fail_in_block_2)
        out = str(scene["root"] / "run_fail_block_2")
        capsys.readouterr()
        rc = cli.main(["unmix", cube, scene["ckpt"], out])
        assert rc == 3
        assert "Eigenvalues did not converge" in capsys.readouterr().err
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

    @pytest.mark.parametrize("kind", ["dc1", "dc2"])
    def test_generate_peak_grows_by_at_most_one_cube(self, tmp_path, kind):
        """``generate`` holds the clean cube whole, but not its square for
        the noise power, and dc2's (N, P, L) stack and the noisy pixels
        only a block at a time."""
        peaks, cubes = [], []
        for blocks in (4, 16):
            peaks.append(_traced_peak([
                "generate", kind, str(tmp_path / f"scene_{blocks}"),
                "--width", str(dt.ROW_BLOCK), "--height", str(blocks),
                "--bands", str(BIG_BANDS), "--endmembers", str(BIG_P)]))
            cubes.append(8 * blocks * dt.ROW_BLOCK * BIG_BANDS)
        assert peaks[1] - peaks[0] <= 1.25 * (cubes[1] - cubes[0]), peaks

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
    stack = (n, p, bands)
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


def _fresh_env(**env) -> dict:
    """This process's environment for a fresh ``unmix`` process: ``src`` on
    PYTHONPATH, no BLAS thread variables, then ``env``."""
    src = os.path.dirname(unmix.__path__[0])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**{k: v for k, v in os.environ.items()
               if k not in ("UNMIX_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
            **env, "PYTHONPATH": path}


class TestThreadIndependence:
    def test_eval_report_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        """``cli eval`` in fresh processes with BLAS on one and on two
        threads writes the same report, ``runtime_s`` aside, on a scene whose
        stacks and cube are long enough for BLAS to split a dot product."""
        # 1.28M values per stack: scored by whole-vector BLAS dots, three
        # of this scene's scores differ in their last digits between 1 and
        # 2 threads
        truth, est = _eval_bundles(tmp_path, 4000, 64, 5)
        reports = []
        for threads in ("1", "2"):
            env = _fresh_env(OPENBLAS_NUM_THREADS=threads,
                             OMP_NUM_THREADS=threads)
            csv = str(tmp_path / f"report_{threads}.csv")
            subprocess.run([sys.executable, "-m", "unmix.cli", "eval", truth,
                            est, csv], env=env, check=True,
                           capture_output=True, timeout=120)
            with open(csv, "rb") as f:
                lines = f.read().splitlines()
            # the last column is the estimates' runtime_s
            reports.append([line.rsplit(b",", 1)[0] for line in lines])
        assert reports[0] == reports[1]


    def test_trained_unmix_rerun_on_one_thread_count_repeats_its_bytes(
            self, scene):
        """Fresh-process ``cli unmix`` of a trained checkpoint writes the
        same bytes twice on one BLAS thread count, for 1 and for 2 threads.
        Across the counts its abundances and eta_d may differ."""
        root = scene["root"] / "threads"
        root.mkdir()
        sup, ckpt = str(root / "sup"), str(root / "model")
        assert cli.main(["selfsup", scene["cube"], sup, "--p", str(P),
                         "--n-ppx", "5", "--n-draws", "4", "--seed", "5"]) == 0
        assert cli.main(["train", scene["cube"], sup, ckpt, "--epochs", "2",
                         "--batch-size", "16", "--seed", "6"]) == 0
        for threads in ("1", "2"):
            env = _fresh_env(OPENBLAS_NUM_THREADS=threads,
                             OMP_NUM_THREADS=threads)
            runs = []
            for rerun in ("a", "b"):
                out = str(root / f"est_{threads}_{rerun}")
                subprocess.run([sys.executable, "-m", "unmix.cli", "unmix",
                                scene["cube"], ckpt, out], env=env,
                               check=True, capture_output=True, timeout=120)
                runs.append(_files(out))
            assert {f"{n}.raw" for n in OUTPUTS} <= set(runs[0])
            assert runs[0] == runs[1], threads


# Runs ``cli.main`` on its arguments (none: import only) and prints, as
# JSON, the process's thread count at the end (None without /proc) and the
# scipy subpackages it loaded.
_COLD_START = """
import json, sys
from unmix import cli
if len(sys.argv) > 1 and cli.main(sys.argv[1:]):
    sys.exit(1)
try:
    with open("/proc/self/status") as f:
        threads = next(int(line.split()[1]) for line in f
                       if line.startswith("Threads:"))
except OSError:
    threads = None
print(json.dumps({"threads": threads, "scipy": sorted(
    {m.split(".")[1] for m in sys.modules if m.startswith("scipy.")})}))
"""


def _cold_start(argv, **env) -> dict:
    """``_COLD_START`` of ``argv`` in a fresh process, in ``_fresh_env``."""
    proc = subprocess.run([sys.executable, "-c", _COLD_START, *argv],
                          env=_fresh_env(**env), check=True,
                          capture_output=True, text=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


class TestColdStart:
    """Each command, run alone in a fresh process, loads only the scipy
    subpackages it calls."""

    def _train(self, scene, tmp_path, **env) -> dict:
        return _cold_start(["train", scene["cube"], _supervised(scene),
                            str(tmp_path / "model"), "--epochs", "1",
                            "--batch-size", "16"], **env)

    def test_import_loads_no_scipy(self):
        assert _cold_start([])["scipy"] == []

    def test_selfsup_loads_no_scipy(self, scene, tmp_path):
        assert _cold_start(["selfsup", scene["cube"], str(tmp_path / "sup"),
                            "--p", str(P), "--n-ppx", "5",
                            "--n-draws", "4"])["scipy"] == []

    def test_unmix_loads_no_scipy(self, scene, tmp_path):
        assert _cold_start(["unmix", scene["cube"], scene["ckpt"],
                            str(tmp_path / "est")])["scipy"] == []

    def test_generate_loads_no_scipy(self, tmp_path):
        assert _cold_start([
            "generate", "dc2", str(tmp_path / "scene"), "--width", "4",
            "--height", "4", "--bands", "16", "--endmembers", "3"
        ])["scipy"] == []

    def test_train_loads_neither_optimize_nor_ndimage(self, scene, tmp_path):
        loaded = set(self._train(scene, tmp_path)["scipy"])
        assert {"special", "linalg"} <= loaded
        assert not loaded & {"optimize", "ndimage"}, loaded

    def test_eval_loads_no_scipy(self, scene, tmp_path):
        est = _unmix(scene, "cold_est")
        args = ["eval", os.path.dirname(scene["cube"]), est,
                str(tmp_path / "report.csv")]
        assert _cold_start(args)["scipy"] == []
        assert _cold_start(args + ["--baseline", "fcls",
                                   "--seed", "0"])["scipy"] == []

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="thread count is read from /proc")
    def test_train_keeps_the_blas_pin(self, scene, tmp_path):
        """``UNMIX_THREADS=1`` still pins scipy's BLAS, which ``train``
        loads after the pin is set: the process ends on one thread."""
        run = self._train(scene, tmp_path, UNMIX_THREADS="1")
        assert "linalg" in run["scipy"]
        assert run["threads"] == 1


class TestProcessExitStatus:
    def test_unusable_path_exits_2_without_traceback(self, tmp_path):
        """``python -m unmix.cli`` exits with status 2, and prints no
        traceback, for an output directory that is a regular file."""
        afile = tmp_path / "afile"
        afile.write_bytes(b"kept")
        proc = subprocess.run(
            [sys.executable, "-m", "unmix.cli", "generate", "dc1", str(afile),
             "--width", "4", "--height", "4", "--bands", "16"],
            env=_fresh_env(), capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and str(afile) in proc.stderr
        assert "Traceback" not in proc.stderr
        assert afile.read_bytes() == b"kept"


class TestPublicSurface:
    """Every name the benchmark calls or its tracer wraps resolves, so a
    deletion that would break either fails here."""

    def test_import_unmix(self):
        import unmix
        assert unmix.__version__

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

    def test_benchmark_child_names_exist(self):
        """Every ``unmix`` name that ``perfbench/child.py`` imports, or reads
        as an attribute of an imported ``unmix`` module, resolves, and every
        keyword it passes to ``TrainConfig`` is a field."""
        path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                            "child.py")
        with open(path) as f:
            tree = ast.parse(f.read())
        modules, missing, found = {}, [], 0
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "unmix":
                        found += 1      # a missing module raises, naming it
                        module = importlib.import_module(alias.name)
                        modules[alias.asname or "unmix"] = \
                            module if alias.asname else unmix
            elif isinstance(node, ast.ImportFrom) \
                    and (node.module or "").split(".")[0] == "unmix":
                mod = importlib.import_module(node.module)
                for alias in node.names:
                    found += 1
                    try:
                        value = importlib.import_module(
                            f"{node.module}.{alias.name}")
                    except ImportError:
                        value = getattr(mod, alias.name, None)
                    if value is None:
                        missing.append(f"{node.module}.{alias.name}")
                    elif inspect.ismodule(value):
                        modules[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                found += 1
                if not hasattr(modules[node.value.id], node.attr):
                    missing.append(f"{modules[node.value.id].__name__}."
                                   f"{node.attr}")
        config_fields = {f.name for f in dataclasses.fields(TrainConfig)}
        calls = [node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "attr",
                             getattr(node.func, "id", None)) == "TrainConfig"]
        missing += [f"TrainConfig({kw.arg}=)" for call in calls
                    for kw in call.keywords if kw.arg not in config_fields]
        assert found and calls
        assert missing == []
