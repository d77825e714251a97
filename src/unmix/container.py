"""The on-disk container: a JSON header next to a raw float64 payload.

Every file one command hands to the next (cubes, ground truth, the labelled
set, estimates, checkpoints) is a container, and every command writes a
JSON run manifest.  Only this module reads or writes them; a reader
failure is a ``BundleError`` naming the file or the offending field.

Bytes: ``<base>.json`` is one JSON object, ASCII, indent 1, sorted keys,
finite numbers only, trailing newline.  ``<base>.raw`` is little-endian
IEEE-754 float64 values back to back, with no header or padding, each
array in C order.

Bundle header (``data`` builds it):
- ``width``, ``height``, ``bands``: JSON ints >= 1; the payload holds the
  (width * height, bands) array, pixels row-major.
- ``dtype``: ``"f64le"``; ``order``: one per role, else a ``BundleError``
  naming ``order``: ``"bip"`` (band-interleaved by pixel), and for the
  roles holding endmember matrices ``"bip-pl"``, by pixel with each (P, L)
  matrix endmember-major.  An older ``"bip"`` endmember bundle, (L, P) per
  pixel, holds as many values, so only this check refuses it; no reader
  of that layout is kept (rerun ``generate``, ``selfsup`` and ``unmix``).
- ``role``: absent for a cube, whose optional ``wavelengths`` is a list of
  ``bands`` finite numbers (nm).  ``"abundances"``: bands = P.
  ``"endmembers"``: adds ``components`` = P (a JSON int >= 1); the payload
  is the (N, P, bands) stack, a shared (P, L) matrix a 1 x 1 scene.  A
  scalar map's name (``"nonlinearity_degree"``): bands = 1.
  ``"supervised"``: adds ``count`` = width * height, ``pixel_bands`` = L and
  ``components`` = P (JSON ints >= 1), bands = L + P + L * P; each record
  is y (L), a (P) and the (P, L) endmember matrix.

Checkpoint manifest:
- ``format``: ``"unmix-ckpt-v1"``; ``dtype``: ``"f64le"``.
- ``meta``: an object; ``cli`` reads ``n_bands``, ``n_endmembers``,
  ``latent_dim``, ``lista_layers`` (JSON ints >= 1) and, to resume,
  ``epoch`` (a JSON int >= 0).
- ``arrays``: name -> ``offset`` (bytes, a multiple of 8), ``count`` and
  ``shape``, JSON ints >= 0 with count = prod(shape).  The writer lays the
  arrays out back to back in the order it is given them.  The names and
  shapes are the model's parameters; this module does not read them.
  The endmember layout leaves checkpoints as they were: the mixing net
  reads a (P, L) matrix's rows back to back, the (L, P) one's columns.
  Older checkpoints name each endmember's decoder arrays and log-scale
  apart (``gen.em_decoder{k}.w{i}``, ``gen.em_log_scale{k}``), and ``cli``
  stacks them into the decoder bank's arrays when it loads one.

Run manifest: ``command``, ``args``, ``seed``, ``inputs``, ``outputs`` and
``wall_clock_s``, which ``eval`` reads (a finite number) as the runtime.

Payloads in row blocks.  A scene-sized payload need not be held whole:
- ``PayloadReader(path, shape)`` checks, when it is made, that the file
  holds exactly prod(shape) values, else a ``BundleError`` naming the file.
  ``reader[start:stop]`` then reads just those rows of the C-order array,
  from byte 8 * start * prod(shape[1:]), into a new array; a file that
  ends early is a ``BundleError``.  ``read_f64`` is one whole-array read.
- ``PayloadWriter(path)`` truncates the file, and each ``append(array)``
  adds the array's values in C order.  Appending the row blocks of an
  array, in order from row 0, writes the same bytes as writing it whole.
  An array that is not C-ordered little-endian float64 is converted in
  slices of whole rows, never as one whole contiguous copy.  ``write_f64``
  appends each of its arrays.

Nothing is memory-mapped.  The pages of a mapped file that a pass touches
count toward the process's resident set until the kernel reclaims them,
so one pass over a mapped 90 MB stack raises peak RSS by about as much as
reading it whole would.  A positioned read into a block-sized buffer
bounds the memory a pass holds by its block.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .errors import BundleError, InputError

__all__ = ["DTYPE", "write_json", "read_json", "PayloadReader",
           "PayloadWriter", "write_f64", "read_f64", "json_int", "json_float",
           "save_checkpoint", "load_checkpoint"]

DTYPE = "f64le"
_CKPT_FORMAT = "unmix-ckpt-v1"


def write_json(path: str, obj: dict):
    """Write ``obj`` as the file's one JSON object.

    A non-finite float has no JSON spelling: it is an ``InputError`` naming
    the file, raised before the file is opened, so no partial header is
    left behind.
    """
    try:
        text = json.dumps(obj, indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None
    with open(path, "w") as f:
        f.write(text + "\n")


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


class PayloadReader:
    """Row blocks of the C-order float64 array of ``shape`` stored at ``path``.

    Making the reader checks the file's size against ``shape``, else a
    ``BundleError`` naming the file and ``field``; ``reader[rows]`` (a
    slice of the first axis) then reads just those rows, from their offset,
    into a new native float64 array.  Each read opens the file for itself,
    so a reader holds no file between reads and needs no closing.  With
    ``shape`` None the payload is one flat array of every whole value in
    the file.
    """

    def __init__(self, path: str, shape: tuple[int, ...] | None = None,
                 field: str | None = None):
        try:
            size = os.path.getsize(path)
        except FileNotFoundError:
            raise BundleError(f"missing payload {path}") from None
        if shape is None:
            shape = (size // 8,)
        elif size != 8 * math.prod(shape):
            raise BundleError(f"{path}: payload holds {size // 8} values, "
                              f"header implies {math.prod(shape)}",
                              field=field)
        self.path = path
        self.shape = tuple(shape)
        self._row_bytes = 8 * math.prod(self.shape[1:])

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, step = rows.indices(len(self))
        if step != 1:
            raise ValueError("a payload is read in contiguous row blocks")
        out = np.empty((max(stop - start, 0),) + self.shape[1:], dtype="<f8")
        view = memoryview(out.reshape(-1).view(np.uint8))
        try:
            with open(self.path, "rb", buffering=0) as f:
                f.seek(start * self._row_bytes)
                while view:
                    got = f.readinto(view)
                    if not got:
                        raise BundleError(f"{self.path}: payload ended early")
                    view = view[got:]
        except FileNotFoundError:
            raise BundleError(f"missing payload {self.path}") from None
        # no copy where "<f8" is already the native float64 layout
        return out.astype(np.float64, copy=False)


# Values per slice in which ``PayloadWriter`` copies a non-contiguous array.
_WRITE_SLICE_VALUES = 1 << 17


class PayloadWriter:
    """Appends arrays to ``path``, each as little-endian float64 in C order.

    An array that is not already C-ordered little-endian float64 is copied
    in slices of whole rows of about ``_WRITE_SLICE_VALUES`` values, never
    as one whole contiguous copy.  Close it, or use it as a context manager.
    """

    def __init__(self, path: str):
        self._file = open(path, "wb")

    def append(self, arr):
        arr = np.asarray(arr)
        if arr.ndim == 0:
            arr = arr.reshape(1)
        if arr.dtype == np.dtype("<f8") and arr.flags.c_contiguous:
            self._file.write(arr.reshape(-1).view(np.uint8))
            return
        rows = max(1, _WRITE_SLICE_VALUES // max(1, math.prod(arr.shape[1:])))
        for start in range(0, len(arr), rows):
            block = np.ascontiguousarray(arr[start:start + rows], dtype="<f8")
            self._file.write(block.reshape(-1).view(np.uint8))

    def close(self):
        self._file.close()

    def __enter__(self) -> "PayloadWriter":
        return self

    def __exit__(self, *exc):
        self.close()


def write_f64(path: str, arrays):
    """Write the arrays back to back as little-endian float64, C order."""
    with PayloadWriter(path) as writer:
        for arr in arrays:
            writer.append(arr)


def read_f64(path: str) -> np.ndarray:
    """Every whole value of the payload at ``path``, as one flat native
    float64 array."""
    return PayloadReader(path)[:]


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
