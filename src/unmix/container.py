"""The on-disk container: a JSON header next to a raw float64 payload.

Every file one command hands to the next (cubes, ground truth, the labelled
set, estimates, checkpoints) is a container, and every command writes a
JSON run manifest.  Only this module reads or writes them; a reader
failure is a ``BundleError`` naming the file or the offending field.

Bytes: ``<base>.json`` is one JSON object, ASCII, indent 1, sorted keys,
trailing newline.  ``<base>.raw`` is little-endian IEEE-754 float64 values
back to back, with no header or padding, each array in C order.

Bundle header (``data`` builds it):
- ``width``, ``height``, ``bands``: JSON ints >= 1; the payload holds the
  (width * height, bands) array, pixels row-major.
- ``dtype``: ``"f64le"``; ``order``: ``"bip"`` (band-interleaved by pixel).
- ``role``: absent for a cube, whose optional ``wavelengths`` is a list of
  ``bands`` finite numbers (nm).  ``"abundances"``: bands = P.
  ``"endmembers"``: adds ``components`` = P (a JSON int >= 1); the payload
  is the (N, bands, P) stack, a shared (L, P) matrix a 1 x 1 scene.  A
  scalar map's name (``"nonlinearity_degree"``): bands = 1.
  ``"supervised"``: adds ``count`` = width * height, ``pixel_bands`` = L and
  ``components`` = P (JSON ints >= 1), bands = L + P + L * P; each record
  is y (L), a (P) and the (L, P) endmember matrix.

Checkpoint manifest:
- ``format``: ``"unmix-ckpt-v1"``; ``dtype``: ``"f64le"``.
- ``meta``: an object; ``cli`` reads ``n_bands``, ``n_endmembers``,
  ``latent_dim``, ``lista_layers`` (JSON ints >= 1) and, to resume,
  ``epoch`` (a JSON int >= 0).
- ``arrays``: name -> ``offset`` (bytes, a multiple of 8), ``count`` and
  ``shape``, JSON ints >= 0 with count = prod(shape).  The writer lays the
  arrays out back to back in the order it is given them.

Run manifest: ``command``, ``args``, ``seed``, ``inputs``, ``outputs`` and
``wall_clock_s``, which ``eval`` reads (a finite number) as the runtime.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import BundleError

__all__ = ["DTYPE", "write_json", "read_json", "write_f64", "read_f64",
           "json_int", "json_float", "save_checkpoint", "load_checkpoint"]

DTYPE = "f64le"
_CKPT_FORMAT = "unmix-ckpt-v1"


def write_json(path: str, obj: dict):
    with open(path, "w") as f:
        json.dump(obj, f, indent=1, sort_keys=True)
        f.write("\n")


def read_json(path: str, what: str) -> dict:
    """The JSON object stored at ``path``; ``what`` names it in errors."""
    try:
        with open(path, encoding="utf-8") as f:
            obj = json.load(f)
    except FileNotFoundError:
        raise BundleError(f"missing {what} {path}") from None
    except ValueError as exc:       # also UnicodeDecodeError
        raise BundleError(f"malformed {what} {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise BundleError(f"{what} {path} is not a JSON object")
    return obj


def write_f64(path: str, arrays):
    """Write the arrays back to back as little-endian float64, C order."""
    with open(path, "wb") as f:
        for arr in arrays:
            np.ascontiguousarray(arr, dtype="<f8").tofile(f)


def read_f64(path: str, count: int | None = None,
             field: str | None = None) -> np.ndarray:
    """The flat payload at ``path`` as native float64.

    With ``count``, the file must hold exactly that many values, else a
    ``BundleError`` naming ``field``.
    """
    try:
        with open(path, "rb") as f:
            size = f.seek(0, 2)
            if count is not None and size != 8 * count:
                raise BundleError(f"payload holds {size // 8} values, "
                                  f"header implies {count}", field=field)
            f.seek(0)
            # no copy where "<f8" is already the native float64 layout
            return np.fromfile(f, dtype="<f8").astype(np.float64, copy=False)
    except FileNotFoundError:
        raise BundleError(f"missing payload {path}") from None


def json_int(value, field: str, least: int = 0) -> int:
    """``value`` if a JSON int >= ``least``, else a ``BundleError`` naming
    ``field``.  JSON true/false load as bools, which are ints to Python."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise BundleError(f"expected an int >= {least}, got {value!r}",
                          field=field)
    return value


def json_float(value, field: str) -> float:
    """``value`` if a finite JSON number, else a ``BundleError``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise BundleError(f"expected a finite number, got {value!r}",
                          field=field)
    return float(value)


# ---- checkpoints ----------------------------------------------------

def save_checkpoint(base_path: str, meta: dict, params: dict):
    """Write the named arrays (or tensors' values) back to back, in
    ``params`` order, to ``<base>.raw``, and their table to ``<base>.json``."""
    arrays, payload = {}, []
    offset = 0
    for name, value in params.items():
        data = value if isinstance(value, np.ndarray) else value.data
        arrays[name] = {"offset": offset, "count": int(data.size),
                        "shape": list(data.shape)}
        payload.append(data)
        offset += 8 * data.size
    write_json(base_path + ".json", {"format": _CKPT_FORMAT, "dtype": DTYPE,
                                     "meta": meta, "arrays": arrays})
    write_f64(base_path + ".raw", payload)


def load_checkpoint(base_path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta table and name -> array, each a view of one payload read."""
    manifest = read_json(base_path + ".json", "checkpoint manifest")
    if manifest.get("format") != _CKPT_FORMAT:
        raise BundleError("unknown checkpoint format", field="format")
    if manifest.get("dtype") != DTYPE:
        raise BundleError("unsupported dtype", field="dtype")
    meta = manifest.get("meta")
    if not isinstance(meta, dict):
        raise BundleError("missing or malformed meta table", field="meta")
    specs = manifest.get("arrays")
    if not isinstance(specs, dict):
        raise BundleError("missing array table", field="arrays")
    flat = read_f64(base_path + ".raw")
    arrays = {}
    for name, spec in specs.items():
        start, count, shape = _array_entry(spec, name, flat.size)
        arrays[name] = flat[start:start + count].reshape(shape)
    return meta, arrays


def _array_entry(spec, name: str, n_values: int
                 ) -> tuple[int, int, tuple[int, ...]]:
    """(first value, count, shape) of one entry, else a ``BundleError``."""
    if not isinstance(spec, dict) or not isinstance(spec.get("shape"), list):
        raise BundleError("malformed array entry", field=name)
    offset = json_int(spec.get("offset"), name)
    count = json_int(spec.get("count"), name)
    shape = tuple(json_int(n, name) for n in spec["shape"])
    if offset % 8:
        raise BundleError(f"array offset {offset} is not a multiple of 8",
                          field=name)
    if count != math.prod(shape):
        raise BundleError(f"array count {count} != product of shape {shape}",
                          field=name)
    if offset // 8 + count > n_values:
        raise BundleError("array extends past payload", field=name)
    return offset // 8, count, shape
