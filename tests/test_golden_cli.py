"""Golden digests of every file the five CLI commands write.

A tiny fixed-seed pipeline (``generate`` dc1 and dc2, ``selfsup``, a
one-epoch ``train``, ``unmix``, ``eval`` with the FCLS baseline) runs in
a fresh directory with relative paths, and the sha256 of each file it
writes must match the recorded one.  Two values are wall-clock readings
and are left out of the digests: the top-level ``wall_clock_s`` line of
each manifest and the ``runtime_s`` column of the eval report.  A change
meant to keep the outputs must pass this unchanged; a change meant to
alter them re-records the file with

    PYTHONPATH=src python tests/test_golden_cli.py

which prints the entries that differ from the file it overwrites.
"""

import hashlib
import json
import os
import sys

from conftest import changed_entries
from unmix import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.json")
SCENE = ["--width", "6", "--height", "6", "--bands", "24", "--endmembers", "3"]


def _pipeline():
    """Run every command, writing under the current directory."""
    steps = [
        ["generate", "dc1", "dc1", "--seed", "3", *SCENE],
        ["generate", "dc2", "dc2", "--seed", "4", *SCENE],
        ["selfsup", "dc2/cube", "sup", "--p", "3", "--n-ppx", "5",
         "--n-draws", "4", "--seed", "5"],
        ["train", "dc2/cube", "sup", "model", "--epochs", "1", "--seed", "6"],
        ["unmix", "dc2/cube", "model", "est"],
        ["eval", "dc2", "est", "report.csv", "--baseline", "fcls"],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv


def _masked(name: str, raw: bytes) -> bytes:
    """The bytes of one output with its wall-clock readings taken out."""
    if name.endswith("manifest.json"):
        return b"".join(line for line in raw.splitlines(keepends=True)
                        if not line.startswith(b' "wall_clock_s": '))
    if name.endswith(".csv") and raw.startswith(b"nrmse_a,"):
        rows = [line.split(b",") for line in raw.splitlines()]
        col = rows[0].index(b"runtime_s")
        for row in rows[1:]:
            row[col] = b"*"
        return b"".join(b",".join(row) + b"\n" for row in rows)
    return raw


def digests(root: str) -> dict[str, str]:
    """Relative path -> sha256 of every file the pipeline wrote under root."""
    os.makedirs(root, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        _pipeline()
    finally:
        os.chdir(cwd)
    out = {}
    for folder, _, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            with open(path, "rb") as f:
                raw = f.read()
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            out[rel] = hashlib.sha256(_masked(name, raw)).hexdigest()
    return dict(sorted(out.items()))


def test_outputs_match_golden_digests_and_rerun_is_identical(tmp_path):
    with open(GOLDEN) as f:
        golden = json.load(f)
    first = digests(str(tmp_path / "a"))
    second = digests(str(tmp_path / "b"))
    assert first == second
    assert first.keys() == golden.keys()
    for name in golden:
        assert first[name] == golden[name], name


def test_changed_entries_name_what_a_re_record_moves(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"a": "x", "b": {"c": [1, 2]}, "e": 3}))
    assert changed_entries(str(path), {"a": "x", "b": {"c": [1, 3]},
                                       "d": 0}) == ["b.c[1]", "d", "e"]
    assert changed_entries(str(path), {"a": "x", "b": {"c": [1, 2]},
                                       "e": 3}) == []
    assert changed_entries(str(tmp_path / "none.json"), {"a": 1}) == ["a"]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        rec = digests(tmp)
    changed = changed_entries(GOLDEN, rec)
    with open(GOLDEN, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN} ({len(rec)} files); changed: "
          f"{', '.join(changed) or 'no change'}", file=sys.stderr)
