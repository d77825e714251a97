"""Command-line interface: generate | selfsup | train | unmix | eval.

Every command writes a manifest recording its arguments, seed, inputs,
outputs, and wall time; rerunning a command with the same arguments and
the same BLAS thread count reproduces the output files byte for byte (the
manifest's wall-clock and the live-measured baseline runtime are the only
nondeterministic values).  The thread count matters because BLAS splits
large products across its threads, and the rounding follows the split:
``unmix`` on 1 and on 2 threads writes different ``endmembers_est`` and
``reconstruction`` bytes (its abundances and eta_d agree).  Set
``UNMIX_THREADS`` before ``unmix`` is imported to pin the count, as the
benchmark does with ``UNMIX_THREADS=1``.  ``eval``'s scores of the
estimates are the same on any thread count.

Exit codes: 0 ok, 2 input error, 3 numeric/training error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import time

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


def _write_pgm(path: str, image: np.ndarray):
    """8-bit grayscale PGM from values in [0, 1]."""
    arr = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    gray = np.floor(arr * 255.0 + 0.5).astype(np.uint8)
    h, w = gray.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray.tobytes())


# ----------------------------------------------------------------- commands

def cmd_generate(args) -> int:
    t0 = time.perf_counter()
    p = args.endmembers
    if p is None:
        p = 3 if args.kind == "dc1" else 5
    for flag, value in (("--width", args.width), ("--height", args.height),
                        ("--endmembers", p)):
        if value < 1:
            raise InputError(f"{flag} must be >= 1, got {value}")
    dt.noise_power_ratio(args.snr, "--snr")
    _prepare_out_dir(args.out_dir, args.force)
    root = np.random.default_rng(args.seed)
    lib_rng, map_rng, mix_rng = root.spawn(3)
    library = dt.synth_endmember_library(args.bands, p, lib_rng)
    maps = dt.synth_abundance_maps(args.width, args.height, p, map_rng)
    if args.kind == "dc1":
        cube, truth = dt.generate_dc1(maps, library, args.snr, mix_rng,
                                      width=args.width, height=args.height)
    else:
        cube, truth = dt.generate_dc2(maps, library, args.variability,
                                      args.snr, mix_rng,
                                      width=args.width, height=args.height)
    cube.wavelengths = np.linspace(400.0, 2400.0, args.bands)
    paths = {n: os.path.join(args.out_dir, n)
             for n in ("cube", "abundances", "endmembers")}
    dt.save_cube(paths["cube"], cube)
    dt.save_abundances(paths["abundances"], truth.abundances,
                       args.width, args.height)
    dt.save_endmembers(paths["endmembers"], truth.endmembers,
                       args.width, args.height)
    _write_manifest(
        os.path.join(args.out_dir, "manifest.json"), "generate",
        {"kind": args.kind, "width": args.width, "height": args.height,
         "bands": args.bands, "snr_db": args.snr, "endmembers": p,
         "variability": args.variability if args.kind == "dc2" else None},
        args.seed, {}, {k: v + ".json" for k, v in paths.items()},
        time.perf_counter() - t0)
    print(f"wrote {args.kind} scene ({args.width}x{args.height}x{args.bands}, "
          f"P={p}) to {args.out_dir}")
    return 0


def cmd_selfsup(args) -> int:
    t0 = time.perf_counter()
    dt.noise_power_ratio(args.snr, "--snr")
    cube_base = _strip_bundle(args.cube)
    cube = dt.load_cube(cube_base)
    rng = np.random.default_rng(args.seed)
    vca_rng, set_rng = rng.spawn(2)
    refs = dt.vca(cube, args.p, vca_rng)
    ppx = dt.extract_pure_pixels(cube, refs, args.n_ppx)
    samples = dt.build_supervised_set(ppx, args.n_draws, args.snr, set_rng)
    out_base = _strip_bundle(args.out)
    dt.save_supervised(out_base, samples)
    _write_manifest(
        out_base + ".manifest.json", "selfsup",
        {"p": args.p, "n_ppx": args.n_ppx, "n_draws": args.n_draws,
         "snr_db": args.snr}, args.seed,
        {"cube": cube_base + ".json"}, {"supervised": out_base + ".json"},
        time.perf_counter() - t0)
    print(f"wrote {len(samples)} supervised samples to {out_base}.json")
    return 0


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    cube = dt.load_cube(_strip_bundle(args.cube))
    y_s, a_s, m_s = dt.load_supervised(_strip_bundle(args.supervised))
    if y_s.shape[1] != cube.n_bands:
        raise InputError("supervised set band count differs from the cube")
    # the checkpoint records the config in JSON, which has no inf or NaN
    if not math.isfinite(args.rel_stop_tol):
        raise InputError(f"rel_stop_tol must be finite, got "
                         f"{args.rel_stop_tol}")
    config = TrainConfig(lam=args.lam, beta=args.beta, tau=args.tau,
                         varsigma1=args.varsigma1, varsigma2=args.varsigma2,
                         k=args.k, k_e=args.ke, batch_size=args.batch_size,
                         max_epochs=args.epochs,
                         rel_stop_tol=args.rel_stop_tol)
    out_base = args.out_ckpt
    theta = phi = None
    start_epoch = 0
    latent_dim, lista_layers = args.latent_dim, args.lista_layers
    if args.resume:
        ckpt = _strip_bundle(args.resume)
        meta, theta, phi = _load_model(ckpt)
        start_epoch = ct.json_int(meta.get("epoch"), "epoch") + 1
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
        if err.last_good is not None and err.last_epoch is not None \
                and err.last_epoch >= 0:
            meta["epoch"] = err.last_epoch
            ct.save_checkpoint(out_base, meta, err.last_good)
            print(f"training diverged; last-good checkpoint saved to "
                  f"{out_base}.json", file=sys.stderr)
        raise
    meta["epoch"] = history[-1].epoch if history else start_epoch
    ct.save_checkpoint(out_base, meta, model_parameters(theta, phi))
    with open(out_base + ".history.csv", "w") as f:
        f.write(history_to_csv(history))
    _write_manifest(
        out_base + ".manifest.json", "train",
        {"config": config.as_dict(), "latent_dim": args.latent_dim,
         "lista_layers": args.lista_layers, "resume": args.resume},
        args.seed,
        {"cube": _strip_bundle(args.cube) + ".json",
         "supervised": _strip_bundle(args.supervised) + ".json"},
        {"checkpoint": out_base + ".json",
         "history": out_base + ".history.csv"},
        time.perf_counter() - t0)
    print(f"trained {len(history)} epochs "
          f"(final objective {history[-1].total:.4f}); "
          f"checkpoint at {out_base}.json")
    return 0


def _load_model(ckpt_base: str):
    """The checkpoint's meta and the model built over its arrays."""
    meta, arrays = ct.load_checkpoint(ckpt_base)
    sizes = [ct.json_int(meta.get(key), key, 1) for key in
             ("n_bands", "n_endmembers", "latent_dim", "lista_layers")]
    arrays = _stack_per_endmember(arrays, sizes[1])
    theta, phi = init_model(*sizes, dc.StoredParams(arrays))
    return meta, theta, phi


# The endmember number in the array names of checkpoints written before the
# decoders were one bank: gen.em_decoder{k}.w{i}, .b{i}, gen.em_log_scale{k}.
_ENDMEMBER_NUMBER = re.compile(r"(?<=^gen\.em_decoder)\d+|(?<=^gen\.em_log_scale)\d+")


def _stack_per_endmember(arrays: dict[str, np.ndarray], n_endmembers: int
                         ) -> dict[str, np.ndarray]:
    """The checkpoint's arrays with endmember k's of an older checkpoint
    stacked, k = 0..P-1, under the bank's name; a missing or misshapen one
    is a ``BundleError`` naming it."""
    out = dict(arrays)
    for name in arrays:
        bank = _ENDMEMBER_NUMBER.sub("", name)
        if bank != name and bank not in out:
            olds = [_ENDMEMBER_NUMBER.sub(str(k), name)
                    for k in range(n_endmembers)]
            for old in olds:
                if old not in arrays or arrays[old].shape != arrays[name].shape:
                    raise BundleError("checkpoint missing or misshapen "
                                      "parameter", field=old)
            out[bank] = np.stack([arrays[old] for old in olds])
    return out


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
    outputs depend only on the pixel values and the pixel count, and
    ``inference.point_estimates`` of the cube's pixels returns the same
    bytes as the abundance and endmember maps.  A failure part way removes
    the bundles written so far.
    """
    t0 = time.perf_counter()
    cube = dt.open_cube(_strip_bundle(args.cube))
    ckpt = _strip_bundle(args.ckpt)
    meta, theta, phi = _load_model(ckpt)
    _check_fits(ckpt, "n_bands", phi.n_bands, "the cube", cube.n_bands)
    _prepare_out_dir(args.out_dir, args.force)
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
                eta[rows] = ev.nonlinearity_degree(lin, nlin)
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
        {"cube": _strip_bundle(args.cube) + ".json",
         "checkpoint": ckpt + ".json"},
        {k: v + ".json" for k, v in paths.items()},
        time.perf_counter() - t0)
    print(f"wrote abundance/endmember/nonlinearity maps to {args.out_dir}")
    return 0


def _load_truth(truth_dir: str):
    """The cube, opened as a ``container.PayloadReader`` of its pixels, and
    the truth, whose endmembers are a shared matrix or a reader of the
    per-pixel stack."""
    cube = dt.open_cube(os.path.join(truth_dir, "cube"))
    abundances = endmembers = None
    if os.path.exists(os.path.join(truth_dir, "abundances.json")):
        abundances, _, _ = dt.load_abundances(os.path.join(truth_dir, "abundances"))
    if os.path.exists(os.path.join(truth_dir, "endmembers.json")):
        endmembers = dt.open_endmembers(os.path.join(truth_dir, "endmembers"))
    truth = (dt.GroundTruth(abundances=abundances, endmembers=endmembers)
             if abundances is not None else None)
    return cube, truth


def cmd_eval(args) -> int:
    """Score the estimates against the truth; a NaN or an infinity in any
    bundle exits 2 naming the bundle and the first pixel holding one.

    The endmember stacks, the cube and the reconstruction stay on disk:
    ``evaluate`` reads them in row blocks, the stacks in its two passes and
    the cube and reconstruction once for nrmse_y, and holds no array as
    large as any of them.  The cube and the reconstruction are checked
    for finite values in one more blocked pass each, when opened.  Only the
    abundances and eta_d, a few numbers per pixel, are read whole, and the
    cube too for ``--baseline fcls``, whose VCA and FCLS need all of it.
    Every payload's size is checked against its header before anything is
    scored or written.  The scores of the estimates do not depend on the
    BLAS thread count.
    """
    cube, truth = _load_truth(args.truth_dir)
    est_dir = args.estimates_dir
    a_hat, _, _ = dt.load_abundances(os.path.join(est_dir, "abundances_est"))
    m_hat = eta = recon = None
    # the endmember stacks are checked by ``evaluate``'s first pass
    em_bundles = {"truth": os.path.join(args.truth_dir, "endmembers"),
                  "estimate": os.path.join(est_dir, "endmembers_est")}
    if os.path.exists(em_bundles["estimate"] + ".json"):
        m_hat = dt.open_endmembers(em_bundles["estimate"])
    if os.path.exists(os.path.join(est_dir, "eta_d.json")):
        eta = dt.load_scalar_map(os.path.join(est_dir, "eta_d"))
    if os.path.exists(os.path.join(est_dir, "reconstruction.json")):
        recon = dt.open_cube(os.path.join(est_dir, "reconstruction")).pixels
    runtime = 0.0
    manifest_path = os.path.join(est_dir, "manifest.json")
    if os.path.exists(manifest_path):
        manifest = ct.read_json(manifest_path, "estimates manifest")
        runtime = ct.json_float(manifest.get("wall_clock_s", 0.0),
                                "wall_clock_s")
    try:
        reports = [ev.evaluate(cube, truth, ev.Estimates(
            abundances=a_hat, endmembers=m_hat, reconstruction=recon,
            eta_d=eta, runtime_s=runtime))]
        if args.baseline == "fcls":
            pixels = cube.pixels[:]
            t0 = time.perf_counter()
            refs = dt.vca(pixels, a_hat.shape[1],
                          np.random.default_rng(args.seed))
            a_base = ev.fcls(pixels, refs)
            base_est = ev.Estimates(abundances=a_base, endmembers=None,
                                    reconstruction=a_base @ refs.T,
                                    align_with=refs,
                                    runtime_s=time.perf_counter() - t0)
            reports.append(ev.evaluate(pixels, truth, base_est))
    except ev.NonFiniteEndmembers as exc:
        raise InputError(f"{em_bundles[exc.which]}: {exc}") from None
    csv_text = ev.reports_to_csv(reports)
    with open(args.out_csv, "w") as f:
        f.write(csv_text)
    _write_manifest(
        args.out_csv + ".manifest.json", "eval",
        {"baseline": args.baseline}, args.seed,
        {"truth": args.truth_dir, "estimates": est_dir},
        {"report": args.out_csv}, 0.0)
    print(csv_text, end="")
    return 0


# ----------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unmix",
        description="Variational hyperspectral unmixing toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="synthesize a benchmark scene")
    g.add_argument("kind", choices=["dc1", "dc2"])
    g.add_argument("out_dir")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--width", type=int, default=50)
    g.add_argument("--height", type=int, default=50)
    g.add_argument("--bands", type=int, default=64)
    g.add_argument("--snr", type=float, default=30.0)
    g.add_argument("--variability", type=float, default=0.15)
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
    t.add_argument("--lambda", dest="lam", type=float, default=1.0)
    t.add_argument("--beta", type=float, default=0.1)
    t.add_argument("--tau", type=float, default=0.01)
    t.add_argument("--varsigma1", type=float, default=1.0)
    t.add_argument("--varsigma2", type=float, default=1.0)
    t.add_argument("--latent-dim", type=int, default=2)
    t.add_argument("--lista-layers", type=int, default=11)
    t.add_argument("--k", type=int, default=5)
    t.add_argument("--ke", type=int, default=1)
    t.add_argument("--epochs", type=int, default=30)
    t.add_argument("--batch-size", type=int, default=16)
    t.add_argument("--rel-stop-tol", type=float, default=0.01)
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
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except (UnmixError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
