"""Training losses and closure gradients pinned to recorded reference values.

``reference_pin.json`` holds the epoch losses (as ``float.hex``) of both
tasks in all four modes, concat with dropout on, and the gradients of
``make_loss_closure`` on one probe batch per task and mode. They were
recorded from the per-triple scalar implementation that the batched
training core replaced, except the hadamard link-prediction epoch losses,
recorded again once ``fit`` began to train that mode's temperature;
``python tests/test_reference_pin.py`` prints the values of the current
code in the same layout.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from condcl.encoder import EmbeddingStore, StoreProvider
from condcl.losses import CstsQuadruplet, KgTriple, pair_twins
from condcl.trainer import (
    TrainConfig,
    initial_arrays,
    make_loss_closure,
    make_synthetic_csts,
    make_synthetic_kg,
    train,
)

REFERENCE = Path(__file__).with_name("reference_pin.json")
MODES = ("full", "lowrank", "hadamard", "concat")
TOL = 1e-10


def _config(task, mode, nh, seed, **kw):
    return TrainConfig(
        task=task, mode=mode, nh=nh, nk=2 if mode == "lowrank" else None, seed=seed, **kw
    )


def epoch_losses() -> dict[str, list[str]]:
    """Two epochs at batch 8 with pre-batch and self negatives on (the defaults)."""
    quads, csts_store = make_synthetic_csts(20, 2, 8, seed=1)
    kg, kg_store = make_synthetic_kg(48, 2, 8, seed=2)
    out = {}
    for task, data, store in (("csts", quads, csts_store), ("kgc", kg.train, kg_store)):
        for mode in MODES:
            cfg = _config(task, mode, 8, seed=11, epochs=2, batch_size=8, dropout_p=0.1)
            report = train(cfg, data, StoreProvider(store))
            out[f"{task}/{mode}"] = [float(x).hex() for x in report.epoch_losses]
    return out


def probe_gradients() -> dict[str, dict]:
    """Loss and gradients of one closure per task and mode (nh=4)."""
    nh = 4
    texts = ["s0a", "s0b", "s1a", "s1b", "s2a", "s2b", "c0", "c1", "c2", "r1", "r2"]
    texts += [f"e{i}" for i in (1, 2, 3, 4, 9)]
    store = EmbeddingStore(nh)
    rng = np.random.default_rng(5)
    for text in texts:
        store.add(text, rng.normal(size=nh))
    provider = StoreProvider(store)
    twins = pair_twins(
        [
            CstsQuadruplet("s0a", "s0b", "c0", 4.5, 0),
            CstsQuadruplet("s0a", "s0b", "c1", 1.5, 0),
            CstsQuadruplet("s1a", "s1b", "c1", 3.5, 1),
            CstsQuadruplet("s1a", "s1b", "c2", 2.0, 1),
            CstsQuadruplet("s2a", "s2b", "c2", 5.0, 2),
            CstsQuadruplet("s2a", "s2b", "c0", 1.0, 2),
        ]
    )
    triples = [
        KgTriple("e1", "r1", "e2"),
        KgTriple("e2", "r2", "e3"),
        KgTriple("e3", "r1", "e2"),
        KgTriple("e4", "r2", "e4"),
    ]
    prebatch = [[("e2", provider.embed("e2")), ("e9", provider.embed("e9"))]]
    out = {}
    for task, batch, pre in (("csts", twins, None), ("kgc", triples, prebatch)):
        for mode in MODES:
            cfg = _config(task, mode, nh, seed=3, epochs=1, batch_size=4)
            closure = make_loss_closure(cfg, batch, provider, prebatch=pre)
            _, arrays = initial_arrays(cfg)
            loss, grads = closure(arrays)
            out[f"{task}/{mode}"] = {
                "loss": float(loss).hex(),
                "grads": {k: [float(x).hex() for x in np.ravel(g)] for k, g in grads.items()},
            }
    return out


def compute() -> dict:
    return {"epoch_losses": epoch_losses(), "probe_gradients": probe_gradients()}


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def _floats(hexes):
    return np.array([float.fromhex(h) for h in hexes])


def test_epoch_losses_equal_the_reference(reference):
    got = epoch_losses()
    assert got.keys() == reference["epoch_losses"].keys()
    for key, want in reference["epoch_losses"].items():
        np.testing.assert_allclose(_floats(got[key]), _floats(want), rtol=0, atol=TOL, err_msg=key)


def test_closure_gradients_equal_the_reference(reference):
    got = probe_gradients()
    assert got.keys() == reference["probe_gradients"].keys()
    for key, want in reference["probe_gradients"].items():
        assert float.fromhex(got[key]["loss"]) == pytest.approx(
            float.fromhex(want["loss"]), rel=0, abs=TOL
        ), key
        assert got[key]["grads"].keys() == want["grads"].keys(), key
        for name, values in want["grads"].items():
            np.testing.assert_allclose(
                _floats(got[key]["grads"][name]), _floats(values), rtol=0, atol=TOL,
                err_msg=f"{key} {name}",
            )


if __name__ == "__main__":
    json.dump(compute(), sys.stdout, indent=1)
    sys.stdout.write("\n")
