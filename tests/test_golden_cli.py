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

which prints the files whose digest differs from the file it overwrites.

Every ``.json``/``.raw`` pair the pipeline writes is a ``container``, and
an unknown ``format`` or a payload one value short in any of them makes
the command that reads it exit 2 naming the field or the file.
"""

import hashlib
import json
import os
import shutil
import sys

import pytest

from conftest import change_summary, changed_entries
from unmix import cli
from unmix import container as ct
from unmix import evaluation as ev

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


# A command that reads each container the pipeline writes, run in its
# directory, and the outputs such a command would write.
_EVAL_DC1 = ["eval", "dc1", "est", "new_report.csv"]
_EVAL = ["eval", "dc2", "est", "new_report.csv"]
_UNMIX = ["unmix", "dc2/cube", "model", "new_est"]
READERS = {
    "dc1/cube": ["selfsup", "dc1/cube", "new_sup", "--p", "3", "--n-ppx",
                 "5", "--n-draws", "4"],
    "dc1/abundances": _EVAL_DC1, "dc1/endmembers": _EVAL_DC1,
    "dc2/cube": _UNMIX, "dc2/abundances": _EVAL, "dc2/endmembers": _EVAL,
    "est/abundances_est": _EVAL, "est/endmembers_est": _EVAL,
    "est/eta_d": _EVAL, "est/reconstruction": _EVAL,
    "model": _UNMIX,
    "sup": ["train", "dc2/cube", "sup", "new_model", "--epochs", "1"],
}
NEW_OUTPUTS = ("new_report.csv", "new_est", "new_sup.json", "new_model.json")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> str:
    root = str(tmp_path_factory.mktemp("pipeline"))
    digests(root)
    return root


def test_every_file_but_the_manifests_is_a_container(pipeline):
    names = {os.path.relpath(os.path.join(folder, name), pipeline)
             for folder, _, files in os.walk(pipeline) for name in files}
    pairs = {name[:-len(ext)] for name in names for ext in (".json", ".raw")
             if name.endswith(ext) and not name.endswith("manifest.json")}
    assert pairs == READERS.keys()
    for base in pairs:
        assert {base + ".json", base + ".raw"} <= names
        ct.open_container(os.path.join(pipeline, base))


@pytest.mark.parametrize("corruption", ["format", "short"])
@pytest.mark.parametrize("base", sorted(READERS))
def test_bad_container_exits_2_through_its_reader(pipeline, monkeypatch,
                                                  capsys, base, corruption):
    monkeypatch.chdir(pipeline)
    saved = {}
    for ext in (".json", ".raw"):
        with open(base + ext, "rb") as f:
            saved[ext] = f.read()
    try:
        if corruption == "short":
            with open(base + ".raw", "wb") as f:
                f.write(saved[".raw"][:-8])
            named = f"{base}.raw: payload holds"
        else:
            header = json.loads(saved[".json"])
            header["format"] = "unmix-v0"
            with open(base + ".json", "w") as f:
                json.dump(header, f)
            named = "field: format"
        capsys.readouterr()
        assert cli.main(READERS[base]) == 2
        assert named in capsys.readouterr().err
        assert not any(os.path.exists(out) for out in NEW_OUTPUTS)
    finally:
        for ext, raw in saved.items():
            with open(base + ext, "wb") as f:
                f.write(raw)


def test_eval_without_truth_abundances_scores_the_endmembers(pipeline,
                                                            tmp_path):
    truth = tmp_path / "dc2"
    shutil.copytree(os.path.join(pipeline, "dc2"), truth)
    for ext in (".json", ".raw"):
        os.remove(truth / f"abundances{ext}")
    report = str(tmp_path / "report.csv")
    assert cli.main(["eval", str(truth), os.path.join(pipeline, "est"),
                     report]) == 0
    with open(report) as f:
        (row,) = ev.reports_from_csv(f.read())
    with open(os.path.join(pipeline, "report.csv")) as f:
        full = ev.reports_from_csv(f.read())[0]
    assert [k for k, v in row.items() if v is None] == ["nrmse_a"]
    for name in ("nrmse_m", "sam_m", "nrmse_y"):
        assert row[name] == full[name], name


def test_changed_entries_name_what_a_re_record_moves(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps({"a": "x", "b": {"c": [1, 2]}, "e": 3}))
    assert changed_entries(str(path), {"a": "x", "b": {"c": [1, 3]},
                                       "d": 0}) == ["b.c[1]", "d", "e"]
    assert changed_entries(str(path), {"a": "x", "b": {"c": [1, 2]},
                                       "e": 3}) == []
    assert changed_entries(str(tmp_path / "none.json"), {"a": 1}) == ["a"]


def test_change_summary_counts_moved_entries_per_top_level_key(tmp_path):
    path = tmp_path / "golden.json"
    sha = ["0" * 64, "1" * 64, "2" * 64]
    path.write_text(json.dumps({"losses": [1.0, 2.0], "sha": sha[:2],
                                "same": [3]}))
    assert change_summary(str(path), {"losses": [1.0, 2.5],
                                      "sha": sha[1:], "same": [3]}) == (
        "losses 1/2, sha 2/2\nlosses[1]: 2.0 -> 2.5")
    assert change_summary(str(path), json.loads(path.read_text())) == (
        "no change")


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        rec = digests(tmp)
    summary = change_summary(GOLDEN, rec)
    with open(GOLDEN, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN} ({len(rec)} files); changed: {summary}",
          file=sys.stderr)
