"""The on-disk container: named float64 arrays behind one JSON header.

Every file one command hands to the next (cubes, ground truth, the labelled
set, estimates, checkpoints) is a container, and every command writes a
JSON run manifest.  Only this module reads or writes them; a reader
failure is a ``BundleError`` naming the file or the offending field.

Bytes: ``<base>.json`` is one JSON object, ASCII, indent 1, sorted keys,
finite numbers only, trailing newline.  ``<base>.raw`` holds the arrays
back to back as little-endian IEEE-754 float64 values, each array in C
order, with no header or padding.

Header:
- ``format``: ``"unmix-v2"``, the one format read.  A file of another
  format or none, ``"unmix-v1"`` included, is refused naming it; no reader
  of an older schema is kept (rerun the command that wrote it).
- ``meta``: an object of the kind's scalar fields (below).
- ``arrays``: a list of ``[name, shape]`` pairs in payload order, the
  names distinct and each shape a list of JSON ints >= 0.  The payload
  holds the arrays back to back in that order, so an array starts where
  the one before it ends, and no header can describe arrays that overlap
  or leave a gap.  An array reaching past the payload's end is a
  ``BundleError`` naming the array, a payload that goes on past the last
  array's end is one naming the file, and a name listed twice is one
  naming that name; the reader of each kind names an array the kind
  misses.  Each header error starts with ``<base>.json:``.

Kinds (``data`` and ``cli`` build them; N = width * height pixels,
row-major; each endmember matrix is (P, L), endmember-major):

  kind            arrays                        meta
  cube            pixels (N, L)                 width, height, wavelengths?
  abundances      abundances (N, P)             width, height
  endmembers      endmembers (P, L) shared, or  --
                  endmembers (N, P, L)          width, height
  eta_d map       nonlinearity_degree (N,)      width, height
  labelled set    y (n, L), a (n, P), m (n, P, L)   --
  checkpoint      the model's parameters        n_bands, n_endmembers,
                                                latent_dim, lista_layers,
                                                seed, config, epoch

A bundle holds exactly its kind's arrays, each with its number of axes
and no empty axis, and a checkpoint exactly the model's; every value is
finite, checked as a command reads it.  ``width`` and ``height`` are
JSON ints >= 1 whose product is the row count, and ``wavelengths`` lists
one finite number (nm) per band.  ``data`` and ``cli`` name the array or
key that breaks one of these.  ``cli`` reads the checkpoint's sizes (JSON
ints >= 1) and, to resume, ``epoch`` (a JSON int >= 0).  A checkpoint
under older array names (each endmember's decoder apart, or an unread
LISTA step size) is refused naming the first array the model misses or
does not read; rerun the ``train`` that wrote it.

Run manifest: ``command``, ``args``, ``seed``, ``inputs``, ``outputs`` and
``wall_clock_s``, which ``eval`` reads (a finite number) as the runtime.

Payloads in row blocks.  A scene-sized array need not be held whole:
- ``open_container(base)`` returns the meta and one ``PayloadReader`` per
  array, whose ``reader[start:stop]`` reads just those rows.
- ``container_writer(base, meta, shapes)`` writes the header and returns
  the ``PayloadWriter`` whose ``append(array)`` adds the array's values.
  Appending each array's row blocks in turn, from row 0, writes the same
  bytes as ``write_container`` of the whole arrays.

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

FORMAT = "unmix-v2"


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
    """Row blocks of the C-order float64 array of ``shape`` stored at byte
    ``offset`` of the file ``path``.

    ``reader[rows]`` (a slice of the first axis) reads just those rows, from
    their offset, into a new native float64 array.  Each read opens the
    file for itself, so a reader holds no file between reads and needs no
    closing.  ``open_container`` checks the file's size once, when it makes
    the readers.
    """

    def __init__(self, path: str, shape: tuple[int, ...], offset: int = 0):
        self.path = path
        self.shape = tuple(shape)
        self.offset = offset
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
                f.seek(self.offset + start * self._row_bytes)
                while view:
                    got = f.readinto(view)
                    if not got:
                        raise BundleError(f"{self.path}: payload ended early")
                    view = view[got:]
        except FileNotFoundError:
            raise BundleError(f"missing payload {self.path}") from None
        # no copy where "<f8" is already the native float64 layout
        return out.astype(np.float64, copy=False)


class PayloadWriter:
    """Appends arrays to ``path``, each as little-endian float64 in C order.

    Close it, or use it as a context manager.
    """

    def __init__(self, path: str):
        self._file = open(path, "wb")

    def append(self, arr):
        data = np.ascontiguousarray(arr, dtype="<f8")
        self._file.write(data.reshape(-1).view(np.uint8))

    def close(self):
        self._file.close()

    def __enter__(self) -> "PayloadWriter":
        return self

    def __exit__(self, *exc):
        self.close()


def json_int(path: str, value, field: str, least: int = 0) -> int:
    """``value`` if a JSON int >= ``least``, else a ``BundleError`` naming
    the file ``path`` and ``field``.  JSON true/false load as bools, which
    are ints to Python."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise BundleError(f"{path}: expected an int >= {least}, got "
                          f"{value!r}", field=field)
    return value


def json_float(path: str, value, field: str) -> float:
    """``value`` if a finite JSON number, else a ``BundleError`` naming the
    file ``path`` and ``field``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise BundleError(f"{path}: expected a finite number, got "
                          f"{value!r}", field=field)
    return float(value)


# ---- containers -----------------------------------------------------

def container_writer(base: str, meta: dict,
                     shapes: dict[str, tuple[int, ...]]) -> PayloadWriter:
    """Write the header of arrays of these names and shapes, laid out back
    to back in this order; return the writer to which the caller appends
    them, in the same order."""
    write_json(base + ".json", {"format": FORMAT, "meta": meta, "arrays": [
        [name, list(shape)] for name, shape in shapes.items()]})
    return PayloadWriter(base + ".raw")


def write_container(base: str, meta: dict, arrays: dict[str, np.ndarray]):
    """Write the named arrays whole, in ``arrays`` order."""
    with container_writer(base, meta, {name: np.shape(arr) for name, arr
                                       in arrays.items()}) as writer:
        for arr in arrays.values():
            writer.append(arr)


def open_container(base: str, what: str = "container header"
                   ) -> tuple[dict, dict[str, PayloadReader]]:
    """The checked meta and name -> ``PayloadReader`` of a container;
    ``what`` names its header in errors."""
    header_path, path = base + ".json", base + ".raw"
    header = read_json(header_path, what)
    if header.get("format") != FORMAT:
        raise BundleError(f"{header_path}: unknown format "
                          f"{header.get('format')!r}", field="format")
    meta, entries = header.get("meta"), header.get("arrays")
    if not isinstance(meta, dict):
        raise BundleError(f"{header_path}: missing or malformed meta table",
                          field="meta")
    if not isinstance(entries, list):
        raise BundleError(f"{header_path}: missing or malformed array list",
                          field="arrays")
    try:
        size = os.path.getsize(path)
    except FileNotFoundError:
        raise BundleError(f"missing payload {path}") from None
    readers, end = {}, 0
    for entry in entries:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], str) and isinstance(entry[1], list)):
            raise BundleError(f"{header_path}: an array entry is not a "
                              f"[name, shape] pair", field="arrays")
        name = entry[0]
        if name in readers:
            raise BundleError(f"{header_path}: array listed twice", field=name)
        shape = tuple(json_int(header_path, n, name) for n in entry[1])
        readers[name] = PayloadReader(path, shape, end)
        end += 8 * math.prod(shape)
        if end > size:
            raise BundleError(f"{path}: payload holds {size // 8} values, "
                              f"the array ends at value {end // 8}",
                              field=name)
    if size != end:
        raise BundleError(f"{path}: payload holds {size // 8} values, "
                          f"header implies {end // 8}")
    return meta, readers


# ---- checkpoints ----------------------------------------------------

def save_checkpoint(base_path: str, meta: dict, params: dict):
    """Write the named arrays (or tensors' values) as a container, in
    ``params`` order."""
    write_container(base_path, meta, {
        name: value if isinstance(value, np.ndarray) else value.data
        for name, value in params.items()})


def load_checkpoint(base_path: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The meta table and name -> array, each a view of one payload read,
    whose values are scanned once: a NaN or an infinity is a ``BundleError``
    naming the payload, the first array with one and its first bad index."""
    meta, readers = open_container(base_path, "checkpoint manifest")
    path = base_path + ".raw"
    flat = PayloadReader(path, (os.path.getsize(path) // 8,))[:]
    arrays = {name: flat[r.offset // 8:][:math.prod(r.shape)].reshape(r.shape)
              for name, r in readers.items()}
    bad = next((n for n, a in arrays.items() if not np.isfinite(a).all()), None)
    if bad is not None:
        index = tuple(map(int, np.argwhere(~np.isfinite(arrays[bad]))[0]))
        raise BundleError(f"{path}: checkpoint parameter is not finite at "
                          f"index {index}", field=bad)
    return meta, arrays
