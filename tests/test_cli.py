import json

import numpy as np
import pytest

from condcl import cli, hypernet
from condcl.encoder import EmbeddingStore, save_embeddings
from condcl.hypernet import init_params, load_checkpoint, save_checkpoint
from condcl.losses import KgTriple
from condcl.trainer import make_synthetic_csts, make_synthetic_kg, save_csts_jsonl, save_kg_tsv


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


@pytest.mark.parametrize(
    "key, value", [("epochs", "3"), ("nh", 8.0), ("batch_size", True), ("nk", "2")]
)
def test_train_rejects_a_wrongly_typed_count_with_usage_exit(csts_run, capsys, key, value):
    tmp_path, _, config = csts_run
    config[key] = value
    assert run(tmp_path, ["train"], config) == cli.EXIT_USAGE
    assert f"error: {key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["epoch", "batch_szie"])
def test_a_misspelt_config_key_is_a_usage_error(csts_run, capsys, key):
    tmp_path, _, config = csts_run
    config[key] = 1
    assert run(tmp_path, ["train"], config) == cli.EXIT_USAGE
    assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


@pytest.mark.parametrize("ks", [5, "ab", [1.5], [True], [], [0]])
def test_eval_refuses_ks_that_are_not_positive_integers(tmp_path, capsys, ks):
    dataset, store = make_synthetic_kg(24, 2, 8, seed=0)
    save_kg_tsv(dataset.test, tmp_path / "test.tsv")
    save_embeddings(store, tmp_path / "emb.jsonl")
    save_checkpoint(tmp_path / "m.ckpt", init_params("full", 8, seed=0))
    config = {
        "task": "kgc",
        "data": str(tmp_path / "test.tsv"),
        "embeddings": str(tmp_path / "emb.jsonl"),
        "checkpoint": str(tmp_path / "m.ckpt"),
    }
    assert run(tmp_path, ["eval"], {**config, "ks": [1, 2]}) == cli.EXIT_OK
    assert set(json.loads(capsys.readouterr().out)["hits"]) == {"1", "2"}
    assert run(tmp_path, ["eval"], {**config, "ks": ks}) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "'ks' must be a non-empty list of positive integers" in err and "Traceback" not in err


def test_train_rejects_a_wrongly_typed_prebatch_size(csts_run, capsys):
    tmp_path, _, config = csts_run
    config["loss"] = {"prebatch_size": "2"}
    assert run(tmp_path, ["train"], config) == cli.EXIT_USAGE
    assert "error: prebatch_size must be an integer" in capsys.readouterr().err


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


def test_a_config_that_is_not_utf8_is_a_usage_error_naming_it(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"task": "csts", "x": "\xff"}')
    assert cli.main(["train", "--config", str(path)]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {path}: invalid UTF-8 at byte 23\n"


def test_a_conditions_file_that_is_not_utf8_is_a_usage_error_naming_its_line(csts_run, capsys):
    tmp_path, quads, config = csts_run
    ckpt = tmp_path / "full.ckpt"
    save_checkpoint(ckpt, init_params("full", 8, seed=0))
    conditions = tmp_path / "conditions.txt"
    conditions.write_bytes(quads[0].c.encode("utf-8") + b"\ncond-\xff\n")
    config.update(checkpoint=str(ckpt), conditions=str(conditions))
    assert run(tmp_path, ["analyze", "frobenius"], config) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {conditions}:2: invalid UTF-8\n"


def test_sweep_rank_trains_one_lowrank_run_per_divisor(csts_run):
    tmp_path, _, config = csts_run
    config["eval_data"] = config["data"]
    out = tmp_path / "sweep.tsv"
    assert run(tmp_path, ["sweep-rank"], config, "--divisors", "1,4", "--out", str(out)) == 0
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    assert header == "nk\tparam_count\tmetric"
    for row, nk in zip(rows, (8, 2), strict=True):
        count = hypernet.param_count(init_params("lowrank", 8, nk, seed=0))
        assert row.split("\t")[:2] == [str(nk), str(count)]


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


def test_train_prints_loss_components_and_throughput(csts_run, capsys):
    tmp_path, _, config = csts_run
    config["epochs"] = 2
    assert run(tmp_path, ["train"], config) == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert [set(parts) for parts in report["epoch_components"]] == [{"mse", "cl"}] * 2
    assert report["examples_per_s"] > 0
    assert [set(stage) for stage in report["epoch_stage_s"]] == [{"graph", "step"}] * 2


def test_kgc_batch_without_negatives_is_a_usage_error(tmp_path, capsys):
    triples = [KgTriple("a", "r", "b"), KgTriple("b", "r", "c")]
    save_kg_tsv(triples, tmp_path / "train.tsv")
    store = EmbeddingStore(8)
    rng = np.random.default_rng(0)
    for text in ("a", "b", "c", "r"):
        store.add(text, rng.normal(size=8))
    save_embeddings(store, tmp_path / "emb.jsonl")
    config = {
        "task": "kgc",
        "mode": "full",
        "nh": 8,
        "epochs": 1,
        "batch_size": 1,
        "loss": {"use_self_neg": False, "prebatch_size": 0},
        "data": str(tmp_path / "train.tsv"),
        "embeddings": str(tmp_path / "emb.jsonl"),
    }
    assert run(tmp_path, ["train"], config) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: no negatives available for triple")
    assert "Traceback" not in err


def test_eval_reports_a_malformed_embedding_with_its_line(csts_run, capsys):
    tmp_path, _, config = csts_run
    emb_path = tmp_path / "emb.jsonl"
    n = len(emb_path.read_text(encoding="utf-8").splitlines())
    with emb_path.open("a", encoding="utf-8") as fh:
        fh.write('{"text": "a", "embedding": [{}]}\n')
    config["checkpoint"] = str(tmp_path / "absent.ckpt")
    assert run(tmp_path, ["eval"], config) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert f"emb.jsonl:{n + 1}:" in err and "Traceback" not in err


def test_train_reports_a_non_string_condition_with_its_line(csts_run, capsys):
    tmp_path, _, config = csts_run
    data_path = tmp_path / "data.jsonl"
    records = [json.loads(line) for line in data_path.read_text(encoding="utf-8").splitlines()]
    records[1]["condition"] = {"x": 1}
    data_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert run(tmp_path, ["train"], config) == cli.EXIT_USAGE
    assert "data.jsonl:2: sentence1/sentence2/condition must be" in capsys.readouterr().err


@pytest.mark.parametrize("block", [1, hypernet.GENERATE_BLOCK])
def test_cluster_analysis_projects_each_point_through_its_condition(
    csts_run, monkeypatch, capsys, block
):
    tmp_path, quads, config = csts_run
    # Each condition keeps the sentences of other pairs, so no two groups share points.
    kept = [q for q in quads if (q.pair_id < 3) == (q.c == "cond-00")]
    save_csts_jsonl(kept, tmp_path / "data.jsonl")
    ckpt = tmp_path / "lowrank.ckpt"
    save_checkpoint(ckpt, init_params("lowrank", 8, 3, seed=2))
    params, _ = load_checkpoint(ckpt)
    config["checkpoint"] = str(ckpt)
    monkeypatch.setattr(hypernet, "GENERATE_BLOCK", block)  # 1: a stack per condition
    points = []
    kmeans = cli.eval_mod.kmeans

    def recorded(X, k, seed):
        points.append(X)
        return kmeans(X, k, seed)

    monkeypatch.setattr(cli.eval_mod, "kmeans", recorded)
    out = tmp_path / "clusters"
    assert run(tmp_path, ["analyze", "clusters"], config, "--k", "2", "--out", str(out)) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {"k", "points", "impurity_before", "impurity_after"}
    before, after = points
    rows = (tmp_path / "clusters.before.tsv").read_text(encoding="utf-8").splitlines()[1:]
    with (tmp_path / "emb.jsonl").open(encoding="utf-8") as fh:
        emb = {r["text"]: np.array(r["embedding"]) for r in map(json.loads, fh)}
    t = params.tensors
    for row, h_s, got in zip(rows, before, after):
        h_c = emb[row.split("\t")[1]]
        W1 = (t["U1"] @ h_c + t["U1_bias"]).reshape(8, 3)
        W2 = (t["U2"] @ h_c + t["U2_bias"]).reshape(8, 3)
        np.testing.assert_allclose(got, W1 @ (W2.T @ h_s), rtol=0, atol=1e-12)
    assert len(rows) == len(after) > 2


@pytest.mark.parametrize("flag", ["--k", "--per-group"])
def test_cluster_analysis_refuses_a_count_below_one(csts_run, capsys, flag):
    tmp_path, _, config = csts_run
    ckpt = tmp_path / "full.ckpt"
    save_checkpoint(ckpt, init_params("full", 8, seed=0))
    config["checkpoint"] = str(ckpt)
    out = str(tmp_path / "clusters")
    assert run(tmp_path, ["analyze", "clusters"], config, flag, "-1", "--out", out) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {flag} must be >= 1, got -1\n"
    assert not (tmp_path / "clusters.impurity.json").exists()


def test_bench_cache_reports_generated_operators_per_architecture(capsys):
    argv = ["bench-cache", "--gen-sentences", "3", "--gen-conditions", "2", "--nh", "8"]
    assert cli.main([*argv, "--nk", "2", "--heavy-rounds", "1"]) == cli.EXIT_OK
    header, *rows = [line.split("\t") for line in capsys.readouterr().out.strip().split("\n")]
    assert header == [
        "architecture", "requests", "heavy_ops", "light_ops", "gen_ops",
        "hits", "misses", "hit_rate", "resident_bytes", "wall_ms",
    ]
    gen_ops = {row[0]: int(row[header.index("gen_ops")]) for row in rows}
    assert gen_ops == {"bi": 0, "tri": 0, "hyper-full": 2, "hyper-lowrank": 2}


@pytest.mark.parametrize("sizes", [("0", "2"), ("3", "0")])
def test_bench_cache_with_a_zero_size_workload_is_a_usage_error(capsys, sizes):
    argv = ["bench-cache", "--gen-sentences", sizes[0], "--gen-conditions", sizes[1], "--nh", "8"]
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == "error: workload generator needs positive sizes\n"


@pytest.mark.parametrize("flags", [("--heavy-rounds", "0"), ("--nh", "1")])
def test_bench_cache_with_a_bad_encoder_setting_is_a_usage_error(capsys, flags):
    argv = ["bench-cache", "--gen-sentences", "2", "--gen-conditions", "2", "--nh", "8", *flags]
    assert cli.main(argv) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: HashingProvider needs integers, dim >= 2 and rounds >= 1")


def test_gradcheck_checks_every_task_and_mode(capsys):
    assert cli.main(["gradcheck", "--nh", "6", "--probes", "20"]) == cli.EXIT_OK
    *lines, overall = capsys.readouterr().out.strip().split("\n")
    checked = [tuple(f.split("=")[1] for f in line.split()[1:3]) for line in lines]
    assert checked == [(task, mode) for task in ("csts", "kgc") for mode in hypernet.MODES]
    assert overall.startswith("gradcheck overall max_rel_err=")
    probes = {pair: int(line.split("probes=")[1].split()[0]) for pair, line in zip(checked, lines)}
    assert probes["csts", "hadamard"] == 0  # no learnable array
    assert all(n > 0 for pair, n in probes.items() if pair != ("csts", "hadamard"))


@pytest.mark.parametrize("probes", ["0", "-3"])
def test_gradcheck_with_no_probes_is_a_usage_error(capsys, probes):
    assert cli.main(["gradcheck", "--nh", "4", "--probes", probes]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: n_probes must be >= 1")


@pytest.mark.parametrize("command", [["eval"], ["analyze", "clusters"], ["analyze", "frobenius"]])
def test_a_checkpoint_of_another_dimension_is_a_usage_error(csts_run, capsys, command):
    tmp_path, _, config = csts_run
    ckpt = tmp_path / "nh6.ckpt"
    save_checkpoint(ckpt, init_params("full", 6, seed=0))
    config["checkpoint"] = str(ckpt)
    assert run(tmp_path, command, config) == cli.EXIT_USAGE
    assert "checkpoint dimension 6 does not match provider dimension 8" in capsys.readouterr().err


UNREAD_FLAGS = {
    "eval": ("seed", "mode", "nh", "nk"),
    "bench-cache": ("config", "mode"),
    "analyze clusters": ("mode", "nh", "nk"),
    "analyze frobenius": ("seed", "mode", "nh", "nk"),
    "sweep-rank": ("mode", "nk"),
    "gradcheck": ("config", "mode", "out"),
    "make-synthetic csts": ("config", "mode", "nk"),
    "make-synthetic kg": ("config", "mode", "nk"),
}


@pytest.mark.parametrize(
    "command, flag", [(command, flag) for command, flags in UNREAD_FLAGS.items() for flag in flags]
)
def test_a_shared_flag_the_command_does_not_read_is_refused(capsys, command, flag):
    value = "full" if flag == "mode" else "1"
    assert cli.main([*command.split(), f"--{flag}", value]) == cli.EXIT_USAGE
    assert f"unrecognized arguments: --{flag}" in capsys.readouterr().err
