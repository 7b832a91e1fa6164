import json

import numpy as np
import pytest

from condcl import cli, hypernet
from condcl.encoder import EmbeddingStore, StoreProvider, load_embeddings, save_embeddings
from condcl.evaluation import evaluate_csts, evaluate_kgc
from condcl.hypernet import init_params, load_checkpoint, save_checkpoint
from condcl.losses import KgTriple
from condcl.trainer import (
    TrainConfig,
    fit,
    load_csts_jsonl,
    load_kg_tsv,
    make_synthetic_csts,
    make_synthetic_kg,
    save_csts_jsonl,
    save_kg_tsv,
    split_csts_holdout,
)


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
    # Only lowrank generators have a rank, and each line names the checked one.
    ranks = [[f for f in line.split() if f.startswith("nk=")] for line in lines]
    assert ranks == [["nk=1"] if mode == "lowrank" else [] for _, mode in checked]
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


def analyze_ready(csts_run):
    """csts_run's config with a full checkpoint and a conditions file added."""
    tmp_path, quads, config = csts_run
    ckpt = tmp_path / "full.ckpt"
    save_checkpoint(ckpt, init_params("full", 8, seed=0))
    conditions = tmp_path / "conditions.txt"
    conditions.write_text("\n".join(sorted({q.c for q in quads})) + "\n", encoding="utf-8")
    config.update(checkpoint=str(ckpt), conditions=str(conditions), eval_data=config["data"])
    return tmp_path, config


@pytest.mark.parametrize(
    "command, written",
    [
        (["eval"], "out"),
        (["sweep-rank", "--divisors", "4"], "out"),
        (["analyze", "frobenius"], "out"),
        (["analyze", "clusters", "--k", "2"], "out.impurity.json"),
    ],
)
def test_a_config_out_is_where_the_command_writes(csts_run, capsys, command, written):
    tmp_path, config = analyze_ready(csts_run)
    config["out"] = str(tmp_path / "out")
    assert run(tmp_path, command, config) == cli.EXIT_OK
    assert (tmp_path / written).exists()
    if written == "out":
        assert capsys.readouterr().out == ""
    assert not (tmp_path / "clusters.impurity.json").exists()


def test_a_flag_wins_over_the_config_value(csts_run, capsys):
    tmp_path, config = analyze_ready(csts_run)
    config["out"] = str(tmp_path / "config-out")
    assert run(tmp_path, ["eval"], config, "--out", str(tmp_path / "flag-out")) == cli.EXIT_OK
    assert (tmp_path / "flag-out").exists() and not (tmp_path / "config-out").exists()


def test_cluster_analysis_reads_the_config_seed(csts_run, monkeypatch):
    tmp_path, config = analyze_ready(csts_run)
    config.update(seed=7, out=str(tmp_path / "clusters"))
    seeds = []
    kmeans = cli.eval_mod.kmeans

    def recorded(X, k, seed):
        seeds.append(seed)
        return kmeans(X, k, seed)

    monkeypatch.setattr(cli.eval_mod, "kmeans", recorded)
    assert run(tmp_path, ["analyze", "clusters"], config, "--k", "2") == cli.EXIT_OK
    assert seeds == [7, 7]


@pytest.mark.parametrize("command, key", [("clusters", "data"), ("frobenius", "conditions")])
def test_a_missing_analyze_path_is_a_usage_error_naming_its_key(csts_run, capsys, command, key):
    tmp_path, config = analyze_ready(csts_run)
    del config[key]
    assert run(tmp_path, ["analyze", command], config) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: missing required config key: {key!r}\n"


def make_synthetic(tmp_path, capsys, dataset, *flags):
    """Run make-synthetic into tmp_path/dataset and return its directory and printed counts."""
    out_dir = tmp_path / dataset
    assert cli.main(["make-synthetic", dataset, "--nh", "8", *flags, "--out", str(out_dir)]) == 0
    return out_dir, capsys.readouterr().out


def assert_same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert all((a / name).read_bytes() == (b / name).read_bytes() for name in names)


def test_make_synthetic_csts_writes_the_splits_embeddings_and_counts(tmp_path, capsys):
    out_dir, printed = make_synthetic(tmp_path, capsys, "csts", "--pairs", "10", "--conditions", "2")
    quads, store = make_synthetic_csts(10, 2, 8, seed=0)
    train, held = split_csts_holdout(quads, 0.8)
    expected = tmp_path / "expected"
    expected.mkdir()
    save_csts_jsonl(train, expected / "csts_train.jsonl")
    save_csts_jsonl(held, expected / "csts_eval.jsonl")
    save_embeddings(store, expected / "embeddings.jsonl")
    assert_same_files(out_dir, expected)
    counts = {"train_records": 16, "eval_records": 4, "embeddings": 22, "out_dir": str(out_dir)}
    assert printed == json.dumps(counts) + "\n"


def test_make_synthetic_kg_writes_the_splits_embeddings_and_counts(tmp_path, capsys):
    out_dir, printed = make_synthetic(tmp_path, capsys, "kg", "--entities", "60", "--relations", "2")
    dataset, store = make_synthetic_kg(60, 2, 8, seed=0)
    expected = tmp_path / "expected"
    expected.mkdir()
    for name, split in (("train", dataset.train), ("valid", dataset.valid), ("test", dataset.test)):
        save_kg_tsv(split, expected / f"{name}.tsv")
    save_embeddings(store, expected / "embeddings.jsonl")
    assert_same_files(out_dir, expected)
    counts = {
        "train_triples": len(dataset.train),
        "valid_triples": len(dataset.valid),
        "test_triples": len(dataset.test),
        "entities": 60,
        "relations": 2,
        "out_dir": str(out_dir),
    }
    assert printed == json.dumps(counts) + "\n"


@pytest.mark.parametrize(
    "dataset, flags",
    [("csts", ("--pairs", "10", "--conditions", "2")), ("kg", ("--entities", "60"))],
)
def test_make_synthetic_seeds_0_by_default(tmp_path, capsys, dataset, flags):
    default, _ = make_synthetic(tmp_path / "default", capsys, dataset, *flags)
    zero, _ = make_synthetic(tmp_path / "zero", capsys, dataset, *flags, "--seed", "0")
    one, _ = make_synthetic(tmp_path / "one", capsys, dataset, *flags, "--seed", "1")
    assert_same_files(default, zero)
    assert (default / "embeddings.jsonl").read_bytes() != (one / "embeddings.jsonl").read_bytes()


@pytest.fixture
def csts_trained(tmp_path, capsys):
    """make-synthetic csts, then train on its train split: the eval config over its eval split."""
    out_dir, _ = make_synthetic(tmp_path, capsys, "csts", "--pairs", "20", "--conditions", "2")
    config = {
        "task": "csts",
        "mode": "full",
        "nh": 8,
        "epochs": 1,
        "batch_size": 8,
        "data": str(out_dir / "csts_train.jsonl"),
        "embeddings": str(out_dir / "embeddings.jsonl"),
        "checkpoint": str(tmp_path / "m.ckpt"),
    }
    assert run(tmp_path, ["train"], config, "--out", config["checkpoint"]) == cli.EXIT_OK
    capsys.readouterr()
    config.update(data=str(out_dir / "csts_eval.jsonl"), train_data=config["data"])
    return tmp_path, config


def test_csts_eval_after_training_scores_the_eval_split(csts_trained, capsys):
    tmp_path, config = csts_trained
    params, _ = load_checkpoint(config["checkpoint"])
    provider = StoreProvider(load_embeddings(config["embeddings"]))
    quads = load_csts_jsonl(config["data"])
    expected = {**evaluate_csts(params, provider, quads), "instances": len(quads)}
    for split in ([], ["--split", "overall"], ["--split", "seen"]):
        # Every eval condition also occurs in training, so seen is the whole split.
        assert run(tmp_path, ["eval"], config, *split) == cli.EXIT_OK
        assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"
    assert run(tmp_path, ["eval"], config, "--split", "unseen") == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: split 'unseen' selected zero instances\n"


def test_csts_eval_splits_by_the_train_data_conditions(csts_trained, capsys):
    tmp_path, config = csts_trained
    train = [q for q in load_csts_jsonl(config["train_data"]) if q.c == "cond-00"]
    save_csts_jsonl(train, tmp_path / "cond00.jsonl")
    config["train_data"] = str(tmp_path / "cond00.jsonl")
    quads = load_csts_jsonl(config["data"])
    for split, keep in (("seen", lambda c: c == "cond-00"), ("unseen", lambda c: c != "cond-00")):
        assert run(tmp_path, ["eval"], config, "--split", split) == cli.EXIT_OK
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["instances"] == sum(keep(q.c) for q in quads) > 0
    del config["train_data"]
    assert run(tmp_path, ["eval"], config, "--split", "seen") == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: missing required config key: 'train_data'\n"


@pytest.fixture
def kgc_run(tmp_path, capsys):
    """make-synthetic kg and a lowrank kgc config over it, filtered by train and valid."""
    out_dir, _ = make_synthetic(tmp_path, capsys, "kg", "--entities", "60", "--relations", "2")
    config = {
        "task": "kgc",
        "mode": "lowrank",
        "nh": 8,
        "nk": 2,
        "epochs": 1,
        "batch_size": 16,
        "data": str(out_dir / "train.tsv"),
        "embeddings": str(out_dir / "embeddings.jsonl"),
        "checkpoint": str(tmp_path / "m.ckpt"),
        "eval_data": str(out_dir / "test.tsv"),
        "filter_data": [str(out_dir / "train.tsv"), str(out_dir / "valid.tsv")],
    }
    return tmp_path, out_dir, config


def test_kgc_eval_after_training_filters_by_every_known_triple(kgc_run, capsys):
    tmp_path, out_dir, config = kgc_run
    assert run(tmp_path, ["train"], config, "--out", config["checkpoint"]) == cli.EXIT_OK
    capsys.readouterr()
    config["data"] = config["eval_data"]
    assert run(tmp_path, ["eval"], config) == cli.EXIT_OK
    metrics = json.loads(capsys.readouterr().out)
    params, _ = load_checkpoint(config["checkpoint"])
    provider = StoreProvider(load_embeddings(config["embeddings"]))
    test = load_kg_tsv(out_dir / "test.tsv")
    known = test + load_kg_tsv(out_dir / "train.tsv") + load_kg_tsv(out_dir / "valid.tsv")
    entities = sorted({e for t in known for e in (t.h, t.t)})
    assert metrics == json.loads(json.dumps(evaluate_kgc(params, provider, test, known, entities)))
    assert metrics["queries"] == 2 * len(test)
    assert run(tmp_path, ["eval"], config, "--split", "seen") == cli.EXIT_USAGE
    assert capsys.readouterr().err == "error: seen/unseen splits apply to the csts task only\n"


def test_sweep_rank_on_kgc_ranks_the_eval_split_against_every_known_triple(kgc_run):
    tmp_path, out_dir, config = kgc_run
    out = tmp_path / "sweep.tsv"
    assert run(tmp_path, ["sweep-rank"], config, "--divisors", "1,4", "--out", str(out)) == 0
    header, *rows = out.read_text(encoding="utf-8").splitlines()
    assert header == "nk\tparam_count\tmetric"
    provider = StoreProvider(load_embeddings(config["embeddings"]))
    train = load_kg_tsv(out_dir / "train.tsv")
    test = load_kg_tsv(out_dir / "test.tsv")
    known = test + train + train + load_kg_tsv(out_dir / "valid.tsv")
    entities = sorted({e for t in known for e in (t.h, t.t)})
    fields = {k: v for k, v in config.items() if k in TrainConfig.__dataclass_fields__}
    for row, nk in zip(rows, (8, 2), strict=True):
        run_cfg = TrainConfig.from_dict({**fields, "nk": nk})
        params, _, _ = fit(run_cfg, train, provider)
        mrr = evaluate_kgc(params, provider, test, known, entities)["mrr"]
        assert row == f"{nk}\t{hypernet.param_count(params)}\t{mrr:.6f}"


def test_bench_cache_reads_a_workload_file(tmp_path, capsys):
    workload = tmp_path / "workload.tsv"
    workload.write_text("a b\tc1\nd e\tc2\n\na b\tc2\n", encoding="utf-8")
    argv = ["bench-cache", "--workload", str(workload), "--nh", "8", "--nk", "2"]
    assert cli.main([*argv, "--heavy-rounds", "1"]) == cli.EXIT_OK
    header, *rows = [line.split("\t") for line in capsys.readouterr().out.strip().split("\n")]
    columns = {name: {row[0]: row[header.index(name)] for row in rows} for name in header}
    assert columns["requests"] == dict.fromkeys(["bi", "tri", "hyper-full", "hyper-lowrank"], "3")
    assert columns["gen_ops"] == {"bi": "0", "tri": "0", "hyper-full": "2", "hyper-lowrank": "2"}


@pytest.mark.parametrize(
    "text, message",
    [("a\tb\tc\n", "{path}:1: expected sentence<TAB>condition"), ("\n\n", "empty workload")],
)
def test_bench_cache_refuses_a_malformed_or_empty_workload(tmp_path, capsys, text, message):
    workload = tmp_path / "workload.tsv"
    workload.write_text(text, encoding="utf-8")
    assert cli.main(["bench-cache", "--workload", str(workload), "--nh", "8"]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message.format(path=workload)}\n"


def test_gradcheck_seeds_0_by_default(capsys):
    def printed(*seed):
        assert cli.main(["gradcheck", "--nh", "4", "--probes", "5", *seed]) == cli.EXIT_OK
        return capsys.readouterr().out

    assert printed() == printed("--seed", "0") != printed("--seed", "1")


def test_bench_cache_seeds_0_by_default(capsys, monkeypatch):
    seeds = []
    init_params = cli.hypernet.init_params

    def recorded(*args, seed):
        seeds.append(seed)
        return init_params(*args, seed=seed)

    monkeypatch.setattr(cli.hypernet, "init_params", recorded)
    argv = ["bench-cache", "--gen-sentences", "2", "--gen-conditions", "2", "--nh", "8"]
    for seed in ([], ["--seed", "3"]):
        assert cli.main([*argv, "--heavy-rounds", "1", *seed]) == cli.EXIT_OK
    assert seeds == [0, 0, 3, 3]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["csts", "--pairs", "1"], "1 pairs at train_fraction=0.8 leave the eval split empty"),
        (["csts", "--pairs", "2", "--train-fraction", "0.1"], "leave the train split empty"),
        (["kg", "--nh", "1"], "need n_entities >= 4, n_relations >= 2 and nh >= 2"),
    ],
)
def test_make_synthetic_refuses_sizes_that_leave_a_split_empty(tmp_path, capsys, flags, message):
    assert cli.main(["make-synthetic", *flags, "--out", str(tmp_path / "out")]) == cli.EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()
