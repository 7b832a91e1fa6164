import json

import numpy as np
import pytest

from condcl import cli
from condcl.encoder import save_embeddings
from condcl.hypernet import init_params, save_checkpoint
from condcl.trainer import make_synthetic_csts, save_csts_jsonl


@pytest.fixture
def csts_run(tmp_path):
    """Similarity data, embeddings and a train config for nh=8."""
    quads, store = make_synthetic_csts(6, 2, 8, seed=0)
    save_csts_jsonl(quads, tmp_path / "data.jsonl")
    save_embeddings(store, tmp_path / "emb.jsonl")
    config = {
        "task": "csts",
        "mode": "full",
        "nh": 8,
        "epochs": 1,
        "batch_size": 4,
        "data": str(tmp_path / "data.jsonl"),
        "embeddings": str(tmp_path / "emb.jsonl"),
    }
    return tmp_path, quads, config


def run(tmp_path, command, config, *extra):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return cli.main([*command, "--config", str(path), *extra])


@pytest.mark.parametrize("key", ["lr", "gamma"])
def test_train_rejects_nan_config_with_usage_exit(csts_run, capsys, key):
    tmp_path, _, config = csts_run
    if key == "gamma":
        config["loss"] = {"gamma": float("nan")}
    else:
        config[key] = float("nan")
    assert run(tmp_path, ["train"], config) == cli.EXIT_USAGE
    assert f"{key} must be a finite number" in capsys.readouterr().err


def test_zero_norm_projection_aborts_training(csts_run, capsys):
    tmp_path, quads, config = csts_run
    emb_path = tmp_path / "emb.jsonl"
    records = [json.loads(line) for line in emb_path.read_text(encoding="utf-8").splitlines()]
    for rec in records:
        if rec["text"] == quads[0].s1:
            rec["embedding"] = [0.0] * len(rec["embedding"])
    emb_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert run(tmp_path, ["train"], config) == cli.EXIT_ABORT
    err = capsys.readouterr().err
    assert "training aborted" in err and "epoch 0 batch" in err and "zero-norm" in err


def test_eval_reports_a_checkpoint_header_without_mode(csts_run, capsys):
    tmp_path, _, config = csts_run
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, init_params("full", 8, seed=0))
    blob = ckpt.read_bytes()
    n = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16 : 16 + n])
    del header["mode"]
    raw = json.dumps(header).encode("utf-8")
    ckpt.write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + n :])
    config["checkpoint"] = str(ckpt)
    assert run(tmp_path, ["eval"], config) == cli.EXIT_USAGE
    assert "unknown mode None" in capsys.readouterr().err


def test_frobenius_analysis_refuses_a_concat_checkpoint(csts_run):
    tmp_path, quads, config = csts_run
    ckpt = tmp_path / "concat.ckpt"
    save_checkpoint(ckpt, init_params("concat", 8, seed=0))
    conditions = tmp_path / "conditions.txt"
    conditions.write_text("\n".join(sorted({q.c for q in quads})) + "\n", encoding="utf-8")
    config.update(checkpoint=str(ckpt), conditions=str(conditions))
    assert run(tmp_path, ["analyze", "frobenius"], config) == cli.EXIT_USAGE


def test_every_mode_trains_and_evaluates(csts_run, capsys):
    tmp_path, _, config = csts_run
    for mode in ("full", "lowrank", "hadamard", "concat"):
        ckpt = tmp_path / f"{mode}.ckpt"
        config.update(mode=mode, nk=2 if mode == "lowrank" else None, checkpoint=str(ckpt))
        assert run(tmp_path, ["train"], config, "--out", str(ckpt)) == cli.EXIT_OK
        capsys.readouterr()
        assert run(tmp_path, ["eval"], config) == cli.EXIT_OK
        metrics = json.loads(capsys.readouterr().out)
        assert np.isfinite(metrics["spearman"])
