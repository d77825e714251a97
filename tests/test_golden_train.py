"""Golden record of a seeded 3-step ``objective.train``.

Three optimizer steps at L=24, P=3, B=16 must reproduce, bitwise, the
recorded per-step objective, the sha256 of every gradient handed to Adam,
the sha256 of every parameter after each update, and the bytes of the
final checkpoint.  A change meant to keep the numerics must pass this
unchanged; a change meant to alter them re-records the file with

    PYTHONPATH=src python tests/test_golden_train.py

which prints the entries that differ from the file it overwrites.
"""

import hashlib
import json
import os
import sys

import numpy as np

from conftest import changed_entries
from unmix import diffcore as dc
from unmix import objective as ob
from unmix.inference import model_parameters

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_train.json")
N_PIXELS, BANDS, P, BATCH = 48, 24, 3, 16


def _sha(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, "<f8").tobytes()).hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _data():
    r = np.random.default_rng(2024)
    m = r.uniform(0.1, 0.9, (BANDS, P))
    a = r.dirichlet(np.ones(P), size=N_PIXELS)
    y = a @ m.T + 0.01 * r.standard_normal((N_PIXELS, BANDS))
    y_s = np.stack([m[:, k] for k in range(P)] * 4)
    a_s = np.concatenate([np.eye(P)] * 4)
    m_s = np.stack([m] * (P * 4)) + 0.01 * r.standard_normal((P * 4, BANDS, P))
    return y, (y_s, a_s, m_s.transpose(0, 2, 1))


def record(tmp_dir: str) -> dict:
    """Run 3 steps of ``train`` and digest everything each step produced."""
    losses, grads_sha, params_sha = [], [], []
    total_loss, adam_step = ob.total_loss, ob.adam_step

    def loss_spy(*args, **kwargs):
        bd = total_loss(*args, **kwargs)
        losses.append(bd.total)
        return bd

    def adam_spy(params, grads, state, lr):
        grads_sha.append({n: _sha(grads[n]) for n in params})
        out = adam_step(params, grads, state, lr)
        params_sha.append({n: _sha(t.data) for n, t in params.items()})
        return out

    ob.total_loss, ob.adam_step = loss_spy, adam_spy
    try:
        d_u, d_s = _data()
        cfg = ob.TrainConfig(batch_size=BATCH, max_epochs=1)
        theta, phi, hist = ob.train(d_u, d_s, cfg, seed=21, latent_dim=2,
                                    lista_layers=11)
    finally:
        ob.total_loss, ob.adam_step = total_loss, adam_step
    base = os.path.join(tmp_dir, "golden")
    dc.save_checkpoint(base, {"n_bands": BANDS, "n_endmembers": P,
                              "latent_dim": 2, "lista_layers": 11,
                              "seed": 21, "epoch": hist[-1].epoch},
                       model_parameters(theta, phi))
    return {"losses": losses, "grads_sha256": grads_sha,
            "params_sha256": params_sha,
            "checkpoint_sha256": {ext: _file_sha(base + ext)
                                  for ext in (".json", ".raw")}}


def test_three_steps_match_golden_record(tmp_path):
    with open(GOLDEN) as f:
        golden = json.load(f)
    got = record(str(tmp_path))
    assert len(got["losses"]) == 3
    assert got["losses"] == golden["losses"]
    for step in range(3):
        assert got["grads_sha256"][step] == golden["grads_sha256"][step], step
        assert got["params_sha256"][step] == golden["params_sha256"][step], step
    assert got["checkpoint_sha256"] == golden["checkpoint_sha256"]


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        rec = record(tmp)
    changed = changed_entries(GOLDEN, rec)
    with open(GOLDEN, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {GOLDEN} ({len(rec['losses'])} steps); changed: "
          f"{', '.join(changed) or 'no change'}", file=sys.stderr)
