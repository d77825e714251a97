"""Command-line interface: generate | selfsup | train | unmix | eval.

Every command writes a manifest recording its arguments, seed, inputs,
outputs, and wall time; rerunning a command with the same arguments and
the same BLAS thread count reproduces the output files byte for byte (the
manifest's wall-clock and the live-measured baseline runtime are the only
nondeterministic values).  The thread count matters because BLAS splits
large products across its threads, and the rounding follows the split:
``unmix`` of a trained model on 1 and on 2 threads can write different
bytes in each of its four bundles, abundances and eta_d included.  Set
``UNMIX_THREADS`` before ``unmix`` is imported to pin the count, as the
benchmark does with ``UNMIX_THREADS=1``; scipy's BLAS, loaded later,
keeps the pin too.  ``eval``'s scores of the estimates are the same on any
thread count.

``generate`` reads each scene kind from one table, ``SCENE_KINDS``: its
default endmember count, its default variability strength and whether it
mixes bilinearly.  Every kind is drawn by ``data.generate_scene``.  A kind
without variability (dc1) has the shared (P, L) library as its truth and
refuses ``--variability``; one with it (dc2) writes the per-pixel stack.

scipy is imported in the functions that call it, so each command loads
only its own: ``train`` ``scipy.special`` and ``scipy.linalg``, and
``generate``, ``selfsup``, ``unmix`` and ``eval`` none.

``unmix`` runs the products of three of its four networks in float32 and
everything else in float64 (``inference.point_estimate_blocks``).  At
100 x 100 x 224, P = 5, with a fresh model on one thread, the command
takes about 0.9 s, against about 1.2 s for the same pass in float64; its
outputs differ from that pass's by at most 1e-6.

``selfsup`` and ``eval --baseline fcls`` take their endmember references
from ``data.vca``, which holds the cube whole.  It makes two passes over
the cube, the (L, L) band Gram and the projection onto the Gram's top P
eigenvectors, and runs 16 VCA sequences over the projected (P, N)
pixels; it takes no SVD of the (L, N) cube.  At 100 x 100 x 224, P = 5,
that is about 0.03 s on one core.

Exit codes: 0 ok, 2 input error (a path that cannot be read or written
included), 3 numeric/training error.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import container as ct
from . import data as dt
from . import diffcore as dc
from . import evaluation as ev
from .errors import BundleError, InputError, TrainingError, UnmixError
from .inference import init_model, model_parameters, point_estimate_blocks
from .objective import TrainConfig, history_to_csv, train

_EXIT_INPUT = 2
_EXIT_NUMERIC = 3


def _strip_bundle(path: str) -> str:
    for suffix in (".json", ".raw"):
        if path.endswith(suffix):
            return path[: -len(suffix)]
    return path


def _write_manifest(path: str, command: str, args: dict, seed,
                    inputs: dict, outputs: dict, wall_clock_s: float):
    manifest = {"command": command, "args": args, "seed": seed,
                "inputs": inputs, "outputs": outputs,
                "wall_clock_s": wall_clock_s}
    ct.write_json(path, manifest)


def _prepare_out_dir(path: str, force: bool):
    if os.path.isdir(path) and os.listdir(path) and not force:
        raise InputError(f"output directory {path} is not empty; use --force")
    os.makedirs(path, exist_ok=True)


def _check_out_file(path: str):
    """Reject an output file that cannot be written, before any work: one
    whose directory does not exist, or a path that is a directory."""
    if not os.path.isdir(os.path.dirname(path) or os.curdir):
        raise InputError(f"{path}: no directory to write it in")
    if os.path.isdir(path):
        raise InputError(f"{path}: is a directory")


def _write_pgm(path: str, image: np.ndarray):
    """8-bit grayscale PGM from values in [0, 1]."""
    arr = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    gray = np.floor(arr * 255.0 + 0.5).astype(np.uint8)
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray.tobytes())


def _check_sizes(*flags: tuple[str, int], least: int = 1):
    """Reject the first (flag, value) pair whose size is below ``least``."""
    for flag, value in flags:
        if value < least:
            raise InputError(f"{flag} must be >= {least}, got {value}")


# ----------------------------------------------------------------- commands

# Each scene kind's default endmember count, default variability strength
# (None: no variability, the truth is the shared (P, L) library) and
# whether its pixels carry bilinear terms.
SCENE_KINDS = {"dc1": (3, None, True), "dc2": (5, 0.15, False)}


def cmd_generate(args) -> int:
    """Draw a scene of a kind of ``SCENE_KINDS`` with ``data.generate_scene``.

    Every flag is checked, and the library and the abundance maps drawn,
    before the output directory is made, so a failure writes nothing.
    """
    t0 = time.perf_counter()
    p, v, bilinear = SCENE_KINDS[args.kind]
    if args.endmembers is not None:
        p = args.endmembers
    if args.variability is not None:
        if v is None:
            raise InputError(f"--variability: {args.kind} has no endmember "
                             f"variability")
        v = args.variability
    _check_sizes(("--width", args.width), ("--height", args.height),
                 ("--endmembers", p))
    _check_sizes(("--bands", args.bands), least=dt.MIN_BANDS)
    if v is not None and not 0.0 <= v <= dt.MAX_VARIABILITY:
        raise InputError(f"--variability must be in [0, "
                         f"{dt.MAX_VARIABILITY}], got {v}")
    dt.noise_power_ratio(args.snr, "--snr")
    root = np.random.default_rng(args.seed)
    lib_rng, map_rng, mix_rng = root.spawn(3)
    library = dt.synth_endmember_library(args.bands, p, lib_rng)
    maps = dt.synth_abundance_maps(args.width, args.height, p, map_rng)
    _prepare_out_dir(args.out_dir, args.force)
    wavelengths = np.linspace(400.0, 2400.0, args.bands)
    paths = {n: os.path.join(args.out_dir, n)
             for n in ("cube", "abundances", "endmembers")}
    if v is None:
        dt.save_endmembers(paths["endmembers"], library)
        m_writer = contextlib.nullcontext()
    else:
        m_writer = dt.endmember_writer(paths["endmembers"], args.width,
                                       args.height, args.bands, p)
    with dt.cube_writer(paths["cube"], args.width, args.height, args.bands,
                        wavelengths) as y_out, m_writer as m_out:
        dt.generate_scene(maps, library, v or 0.0, bilinear, args.snr,
                          mix_rng, m_out, y_out)
    dt.save_abundances(paths["abundances"], maps, args.width, args.height)
    _write_manifest(
        os.path.join(args.out_dir, "manifest.json"), "generate",
        {"kind": args.kind, "width": args.width, "height": args.height,
         "bands": args.bands, "snr_db": args.snr, "endmembers": p,
         "variability": v},
        args.seed, {}, {k: base + ".json" for k, base in paths.items()},
        time.perf_counter() - t0)
    print(f"wrote {args.kind} scene ({args.width}x{args.height}x{args.bands}, "
          f"P={p}) to {args.out_dir}")
    return 0


def cmd_selfsup(args) -> int:
    t0 = time.perf_counter()
    _check_sizes(("--p", args.p), least=2)
    _check_sizes(("--n-ppx", args.n_ppx), ("--n-draws", args.n_draws))
    dt.noise_power_ratio(args.snr, "--snr")
    out_base = _strip_bundle(args.out)
    _check_out_file(out_base + ".json")
    cube_base = _strip_bundle(args.cube)
    cube = dt.load_cube(cube_base)
    rng = np.random.default_rng(args.seed)
    vca_rng, set_rng = rng.spawn(2)
    refs = dt.vca(cube, args.p, vca_rng)
    ppx = dt.extract_pure_pixels(cube, refs, args.n_ppx)
    y, a, m = dt.build_supervised_set(ppx, args.n_draws, args.snr, set_rng)
    dt.save_supervised(out_base, y, a, m)
    _write_manifest(
        out_base + ".manifest.json", "selfsup",
        {"p": args.p, "n_ppx": args.n_ppx, "n_draws": args.n_draws,
         "snr_db": args.snr}, args.seed,
        {"cube": cube_base + ".json"}, {"supervised": out_base + ".json"},
        time.perf_counter() - t0)
    print(f"wrote {len(y)} supervised samples to {out_base}.json")
    return 0


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    out_base = _strip_bundle(args.out_ckpt)
    _check_out_file(out_base + ".json")
    cube_base, sup_base = map(_strip_bundle, (args.cube, args.supervised))
    cube = dt.load_cube(cube_base)
    y_s, a_s, m_s = dt.load_supervised(sup_base)
    if y_s.shape[1] != cube.n_bands:
        raise InputError("supervised set band count differs from the cube")
    # the checkpoint records the config in JSON, which has no inf or NaN
    if not math.isfinite(args.rel_stop_tol):
        raise InputError(f"rel_stop_tol must be finite, got "
                         f"{args.rel_stop_tol}")
    config = TrainConfig(**{f.name: getattr(args, f.name)
                            for f in fields(TrainConfig)})
    theta = phi = None
    start_epoch = 0
    latent_dim, lista_layers = args.latent_dim, args.lista_layers
    inputs = {"cube": cube_base + ".json", "supervised": sup_base + ".json"}
    if args.resume:
        ckpt = _strip_bundle(args.resume)
        inputs["checkpoint"] = ckpt + ".json"
        meta, theta, phi = _load_model(ckpt)
        start_epoch = ct.json_int(ckpt + ".json", meta.get("epoch"),
                                  "epoch") + 1
        _check_fits(ckpt, "n_bands", phi.n_bands, "the cube", cube.n_bands)
        _check_fits(ckpt, "n_endmembers", phi.n_endmembers,
                    "the labelled set", a_s.shape[1])
        # the sizes of the model trained, not the flags'
        latent_dim, lista_layers = phi.latent_dim, phi.lista.n_layers
    meta = {"n_bands": cube.n_bands, "n_endmembers": a_s.shape[1],
            "latent_dim": latent_dim, "lista_layers": lista_layers,
            "seed": args.seed, "config": config.as_dict(), "epoch": 0}
    try:
        theta, phi, history = train(
            cube.pixels, (y_s, a_s, m_s), config, args.seed,
            latent_dim=latent_dim, lista_layers=lista_layers,
            theta=theta, phi=phi, start_epoch=start_epoch)
    except TrainingError as err:
        if err.last_epoch >= 0:
            meta["epoch"] = err.last_epoch
            ct.save_checkpoint(out_base, meta, err.last_good)
            print(f"training diverged; last-good checkpoint saved to "
                  f"{out_base}.json", file=sys.stderr)
        raise
    meta["epoch"] = history[-1].epoch
    ct.save_checkpoint(out_base, meta, model_parameters(theta, phi))
    with open(out_base + ".history.csv", "w") as f:
        f.write(history_to_csv(history))
    _write_manifest(
        out_base + ".manifest.json", "train",
        {"config": config.as_dict(), "latent_dim": latent_dim,
         "lista_layers": lista_layers, "resume": args.resume},
        args.seed, inputs,
        {"checkpoint": out_base + ".json",
         "history": out_base + ".history.csv"},
        time.perf_counter() - t0)
    print(f"trained {len(history)} epochs "
          f"(final objective {history[-1].total:.4f}); "
          f"checkpoint at {out_base}.json")
    return 0


def _load_model(ckpt_base: str):
    """The checkpoint's meta and the model built over its arrays, under the
    model's names: an array the model misses, or one it does not read, is
    a ``BundleError`` naming it."""
    meta, arrays = ct.load_checkpoint(ckpt_base)
    header = ckpt_base + ".json"
    sizes = [ct.json_int(header, meta.get(key), key, 1) for key in
             ("n_bands", "n_endmembers", "latent_dim", "lista_layers")]
    try:
        theta, phi = init_model(*sizes, dc.StoredParams(arrays))
    except BundleError as exc:      # an array the model misses or reshapes
        raise BundleError(f"{header}: {exc.message}", exc.field) from None
    unread = arrays.keys() - model_parameters(theta, phi).keys()
    if unread:
        raise BundleError(f"{header}: checkpoint array the model does not "
                          f"read", field=next(n for n in arrays if n in unread))
    return meta, theta, phi


def _check_fits(ckpt_base: str, field: str, have: int, data: str, want: int):
    """Reject a model whose ``field`` size ``have`` is not the data's."""
    if have != want:
        raise InputError(f"{ckpt_base}.json: checkpoint {field} is {have}, "
                         f"{data} has {want} (field: {field})")


def _remove_bundles(bases):
    for base in bases:
        for ext in (".json", ".raw"):
            if os.path.exists(base + ext):
                os.remove(base + ext)


def cmd_unmix(args) -> int:
    """Write the point estimates, eta_d and the reconstruction of every pixel.

    The cube is read in blocks twice: once to check that every value is
    finite, before the output directory is made, then by the blocked pass
    (``point_estimate_blocks``), whose endmember and reconstruction blocks
    are appended to their bundles as they are computed.  Only the
    abundances and eta_d, a few numbers per pixel, are held whole.  The
    outputs depend only on the pixel values, the pixel count and the BLAS
    thread count (any of them may change with it), and
    ``inference.point_estimates`` of the cube's pixels returns the same
    bytes as the abundance and endmember maps.  A failure part way removes
    the bundles written so far, as when a cube or a weight leaves float32's
    range in the pass, or the stream norms of eta_d overflow (exit 3).
    An earlier run's manifest and abundance images are removed first, so
    after a failure no file of that run claims this command's outputs.
    """
    t0 = time.perf_counter()
    cube_base = _strip_bundle(args.cube)
    cube = dt.open_cube(cube_base)
    dt.check_cube_finite(cube_base, cube)
    ckpt = _strip_bundle(args.ckpt)
    meta, theta, phi = _load_model(ckpt)
    _check_fits(ckpt, "n_bands", phi.n_bands, "the cube", cube.n_bands)
    _prepare_out_dir(args.out_dir, args.force)
    for name in os.listdir(args.out_dir):
        if name == "manifest.json" or (name.startswith("abundance_")
                                       and name.endswith(".pgm")):
            os.remove(os.path.join(args.out_dir, name))
    paths = {n: os.path.join(args.out_dir, n)
             for n in ("abundances_est", "endmembers_est", "eta_d",
                       "reconstruction")}
    w, h, L, P = cube.width, cube.height, cube.n_bands, phi.n_endmembers
    a_hat, eta = np.empty((cube.n_pixels, P)), np.empty(cube.n_pixels)
    try:
        with dt.endmember_writer(paths["endmembers_est"], w, h, L, P) as m_out, \
                dt.cube_writer(paths["reconstruction"], w, h, L,
                               cube.wavelengths) as recon_out:
            for rows, a_blk, m_blk, lin, nlin, recon in point_estimate_blocks(
                    cube.pixels, phi, theta):
                a_hat[rows] = a_blk
                eta[rows] = ev.nonlinearity_degree(lin, nlin, rows.start)
                m_out.append(m_blk)
                recon_out.append(recon)
    except BaseException:
        _remove_bundles(paths.values())
        raise
    dt.save_abundances(paths["abundances_est"], a_hat, w, h)
    dt.save_scalar_map(paths["eta_d"], eta, w, h)
    for k in range(P):
        _write_pgm(os.path.join(args.out_dir, f"abundance_{k}.pgm"),
                   a_hat[:, k].reshape(h, w))
    _write_manifest(
        os.path.join(args.out_dir, "manifest.json"), "unmix",
        {"ckpt": args.ckpt}, meta.get("seed"),
        {"cube": cube_base + ".json", "checkpoint": ckpt + ".json"},
        {k: v + ".json" for k, v in paths.items()},
        time.perf_counter() - t0)
    print(f"wrote abundance/endmember/nonlinearity maps to {args.out_dir}")
    return 0


def _load_truth(truth_dir: str):
    """The cube, opened as a ``container.PayloadReader`` of its pixels, and
    the truth: each of its bundles the directory holds, the endmembers as a
    shared matrix or a reader of the per-pixel stack."""
    cube = dt.open_cube(os.path.join(truth_dir, "cube"))
    abundances = endmembers = None
    if os.path.exists(os.path.join(truth_dir, "abundances.json")):
        abundances, _, _ = dt.load_abundances(os.path.join(truth_dir, "abundances"))
    if os.path.exists(os.path.join(truth_dir, "endmembers.json")):
        endmembers = dt.open_endmembers(os.path.join(truth_dir, "endmembers"))
    return cube, dt.GroundTruth(abundances=abundances, endmembers=endmembers)


def cmd_eval(args) -> int:
    """Score the estimates against the truth; a NaN or an infinity in any
    bundle exits 2 naming the bundle and the first value's index.

    The endmember stacks, the cube and the reconstruction stay on disk:
    ``evaluate`` reads them in row blocks, the stacks in its two passes and
    the cube and reconstruction once for nrmse_y, passes that also find a
    non-finite value, and holds no array as large as any of them.  Only the
    abundances and eta_d, a few numbers per pixel, are read whole, and the
    cube too for ``--baseline fcls``, whose VCA and FCLS need all of it.
    The baseline row is scored like any estimate, the VCA references being
    its shared (P, L) endmembers, so it has every score but eta_d.
    An output path that cannot be written exits 2 before anything is read,
    and every payload's size is checked against its header before anything
    is scored or written.  The scores of the estimates do not depend on the
    BLAS thread count.
    """
    t0 = time.perf_counter()
    _check_out_file(args.out_csv)
    cube, truth = _load_truth(args.truth_dir)
    est_dir = args.estimates_dir
    a_hat, _, _ = dt.load_abundances(os.path.join(est_dir, "abundances_est"))
    m_hat = eta = recon = None
    if os.path.exists(os.path.join(est_dir, "endmembers_est.json")):
        m_hat = dt.open_endmembers(os.path.join(est_dir, "endmembers_est"))
    if os.path.exists(os.path.join(est_dir, "eta_d.json")):
        eta = dt.load_scalar_map(os.path.join(est_dir, "eta_d"))
    if os.path.exists(os.path.join(est_dir, "reconstruction.json")):
        recon = dt.open_cube(os.path.join(est_dir, "reconstruction")).pixels
    runtime = 0.0
    manifest_path = os.path.join(est_dir, "manifest.json")
    if os.path.exists(manifest_path):
        manifest = ct.read_json(manifest_path, "estimates manifest")
        runtime = ct.json_float(manifest_path, manifest.get(
            "wall_clock_s", 0.0), "wall_clock_s")
    reports = [ev.evaluate(cube, truth, ev.Estimates(
        abundances=a_hat, endmembers=m_hat, reconstruction=recon,
        eta_d=eta, runtime_s=runtime))]
    if args.baseline == "fcls":
        pixels = dt.load_cube(os.path.join(args.truth_dir, "cube")).pixels
        t_base = time.perf_counter()
        refs = dt.vca(pixels, a_hat.shape[1], np.random.default_rng(args.seed))
        a_base = ev.fcls(pixels, refs)
        base_est = ev.Estimates(abundances=a_base, endmembers=refs,
                                reconstruction=a_base @ refs,
                                runtime_s=time.perf_counter() - t_base)
        reports.append(ev.evaluate(pixels, truth, base_est))
    csv_text = ev.reports_to_csv(reports)
    with open(args.out_csv, "w") as f:
        f.write(csv_text)
    _write_manifest(
        args.out_csv + ".manifest.json", "eval",
        {"baseline": args.baseline}, args.seed,
        {"truth": args.truth_dir, "estimates": est_dir},
        {"report": args.out_csv}, time.perf_counter() - t0)
    print(csv_text, end="")
    return 0


# ----------------------------------------------------------------- parser

# The train flags not spelled like their ``TrainConfig`` field.
_TRAIN_FLAGS = {"lam": "lambda", "k_e": "ke", "max_epochs": "epochs"}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unmix",
        description="Variational hyperspectral unmixing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a benchmark scene")
    g.add_argument("kind", choices=list(SCENE_KINDS))
    g.add_argument("out_dir")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--width", type=int, default=50)
    g.add_argument("--height", type=int, default=50)
    g.add_argument("--bands", type=int, default=64)
    g.add_argument("--snr", type=float, default=30.0)
    g.add_argument("--variability", type=float, default=None)
    g.add_argument("--endmembers", type=int, default=None)
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("selfsup", help="build the self-supervised labeled set")
    s.add_argument("cube")
    s.add_argument("out")
    s.add_argument("--p", type=int, default=3)
    s.add_argument("--n-ppx", type=int, default=100)
    s.add_argument("--n-draws", type=int, default=100)
    s.add_argument("--snr", type=float, default=30.0)
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_selfsup)

    t = sub.add_parser("train", help="fit the unmixing model")
    t.add_argument("cube")
    t.add_argument("supervised")
    t.add_argument("out_ckpt")
    for f in fields(TrainConfig):
        flag = _TRAIN_FLAGS.get(f.name, f.name).replace("_", "-")
        t.add_argument(f"--{flag}", dest=f.name, type=type(f.default),
                       default=f.default)
    t.add_argument("--latent-dim", type=int, default=2)
    t.add_argument("--lista-layers", type=int, default=11)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--resume", default=None)
    t.set_defaults(func=cmd_train)

    u = sub.add_parser("unmix", help="export abundance and endmember maps")
    u.add_argument("cube")
    u.add_argument("ckpt")
    u.add_argument("out_dir")
    u.add_argument("--force", action="store_true")
    u.set_defaults(func=cmd_unmix)

    e = sub.add_parser("eval", help="score estimates against ground truth")
    e.add_argument("truth_dir")
    e.add_argument("estimates_dir")
    e.add_argument("out_csv")
    e.add_argument("--baseline", choices=["fcls"], default=None)
    e.add_argument("--seed", type=int, default=0)
    e.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:  # a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except (UnmixError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
