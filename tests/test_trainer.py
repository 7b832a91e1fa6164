import copy

import numpy as np
import pytest

from condcl.encoder import HashingProvider, StoreProvider
from condcl.errors import CondclError, ConfigError, FormatError, TrainingDivergedError
from condcl.evaluation import csts_predictions, spearman
from condcl.hypernet import load_checkpoint
from condcl.losses import CstsQuadruplet, KgTriple, LossConfig, pair_twins
from condcl.trainer import (
    Adam,
    TrainConfig,
    fit,
    load_csts_jsonl,
    load_kg_tsv,
    make_loss_closure,
    make_synthetic_csts,
    make_synthetic_kg,
    save_csts_jsonl,
    save_kg_tsv,
    split_csts_holdout,
    train,
)


def tiny_csts(n_pairs=6, nh=8, seed=0):
    return make_synthetic_csts(n_pairs, 2, nh, seed)


class TestTrainConfig:
    def test_round_trip(self):
        cfg = TrainConfig(task="csts", mode="lowrank", nh=16, nk=4, seed=3)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig.from_dict({"task": "csts", "mode": "full", "nh": 8, "bogus": 1})

    def test_unknown_loss_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown loss"):
            TrainConfig.from_dict(
                {"task": "csts", "mode": "full", "nh": 8, "loss": {"nope": 1}}
            )

    def test_bad_task(self):
        with pytest.raises(ConfigError):
            TrainConfig(task="both", mode="full", nh=8).validate()

    def test_lowrank_default_rank(self):
        cfg = TrainConfig(task="csts", mode="lowrank", nh=64)
        assert cfg.nk_effective == 5  # 64 // 12

    def test_negative_lr_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(task="csts", mode="full", nh=8, lr=-1.0).validate()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize(
        "key", ["lr", "eps", "weight_decay", "dropout_p", "betas", "tau_csts", "tau_kgc", "gamma"]
    )
    def test_non_finite_values_rejected(self, key, value):
        d = {"task": "csts", "mode": "full", "nh": 8}
        if key == "betas":
            d["betas"] = [0.9, value]
        elif key in LossConfig.__dataclass_fields__:
            d["loss"] = {key: value}
        else:
            d[key] = value
        with pytest.raises(ValueError, match=key):
            TrainConfig.from_dict(d)


class TestAdam:
    def test_lr_zero_is_bit_identical(self):
        rng = np.random.default_rng(0)
        params = {"w": rng.normal(size=(4, 4)), "b": rng.normal(size=4)}
        before = {k: v.copy() for k, v in params.items()}
        opt = Adam(params, lr=0.0, weight_decay=0.1)
        for _ in range(5):
            opt.step({k: rng.normal(size=v.shape) for k, v in params.items()})
        for k in params:
            assert np.array_equal(params[k], before[k])

    def test_first_step_matches_hand_computation(self):
        p0 = np.array([1.0, -2.0])
        g = np.array([0.5, 0.25])
        params = {"p": p0.copy()}
        opt = Adam(params, lr=0.1, betas=(0.9, 0.999), eps=1e-8)
        opt.step({"p": g})
        # bias-corrected first step reduces to lr * g / (|g| + eps)
        expected = p0 - 0.1 * g / (np.abs(g) + 1e-8)
        assert params["p"] == pytest.approx(expected, rel=1e-9)

    def test_decoupled_decay_ignores_gradient(self):
        params = {"p": np.array([2.0])}
        opt = Adam(params, lr=0.5, weight_decay=0.1)
        opt.step({"p": np.array([0.0])})
        # zero gradient: only the decay term moves the parameter
        assert params["p"][0] == pytest.approx(2.0 * (1 - 0.5 * 0.1))

    def test_exempt_names_skip_decay(self):
        params = {"tau_kgc": np.array(0.05)}
        opt = Adam(params, lr=0.5, weight_decay=0.9, decay_exempt=("tau_kgc",))
        opt.step({"tau_kgc": np.array(0.0)})
        assert float(params["tau_kgc"]) == pytest.approx(0.05)


class TestTrainBasics:
    def test_same_seed_identical_report(self):
        quads, store = tiny_csts()
        provider = StoreProvider(store)
        cfg = TrainConfig(task="csts", mode="full", nh=8, epochs=3, batch_size=4, seed=9)
        r1 = train(cfg, quads, provider)
        r2 = train(cfg, quads, provider)
        assert r1.epoch_losses == r2.epoch_losses

    def test_lr_zero_keeps_params_bit_identical(self):
        quads, store = tiny_csts()
        provider = StoreProvider(store)
        cfg = TrainConfig(task="csts", mode="full", nh=8, epochs=2, batch_size=4, seed=1, lr=0.0)
        params, _, _ = fit(cfg, quads, provider)
        from condcl.hypernet import init_params

        fresh = init_params("full", 8, seed=1)
        assert np.array_equal(params.U, fresh.U)
        assert np.array_equal(params.U_bias, fresh.U_bias)

    def test_frozen_encoder_invariant(self):
        quads, store = tiny_csts()
        provider = StoreProvider(store)
        before = store.snapshot_bytes()
        cfg = TrainConfig(task="csts", mode="full", nh=8, epochs=2, batch_size=4, seed=2)
        train(cfg, quads, provider)
        assert store.snapshot_bytes() == before

    def test_single_batch_step_reduces_loss_for_95_of_100_seeds(self):
        quads, store = tiny_csts(n_pairs=4, nh=8, seed=3)
        provider = StoreProvider(store)
        twins = pair_twins(quads)
        wins = 0
        for seed in range(100):
            cfg = TrainConfig(
                task="csts", mode="full", nh=8, epochs=1, batch_size=4, seed=seed, lr=1e-3
            )
            params, arrays, report = fit(cfg, quads, provider)
            closure = make_loss_closure(cfg, twins, provider)
            final_arrays = dict(params.tensors())
            loss_after, _ = closure(final_arrays)
            if loss_after < report.epoch_losses[0]:
                wins += 1
        assert wins >= 95

    def test_hadamard_training_is_noop_and_reports_losses(self):
        quads, store = tiny_csts()
        provider = StoreProvider(store)
        cfg = TrainConfig(task="csts", mode="hadamard", nh=8, epochs=3, batch_size=4, seed=4)
        params, _, report = fit(cfg, quads, provider)
        assert params.tensors() == {}
        assert len(report.epoch_losses) == 3
        assert all(np.isfinite(l) for l in report.epoch_losses)
        # no learnable params: all epochs see the same mean loss
        assert report.epoch_losses[0] == pytest.approx(report.epoch_losses[-1], abs=1e-12)

    def test_checkpoint_round_trip_preserves_loss(self, tmp_path):
        quads, store = tiny_csts(seed=5)
        provider = StoreProvider(store)
        cfg = TrainConfig(task="csts", mode="lowrank", nh=8, nk=2, epochs=2, batch_size=4, seed=5)
        path = tmp_path / "model.ckpt"
        params, arrays, _ = fit(cfg, quads, provider, checkpoint_path=path)
        twins = pair_twins(quads)
        closure = make_loss_closure(cfg, twins, provider)
        loss_native, _ = closure(dict(params.tensors()))
        loaded, _extras = load_checkpoint(path)
        loss_loaded, _ = closure(dict(loaded.tensors()))
        assert loss_loaded == pytest.approx(loss_native, abs=1e-6)

    def test_kgc_checkpoint_round_trips_temperature(self, tmp_path):
        ds, store = make_synthetic_kg(24, 2, 8, seed=6)
        provider = StoreProvider(store)
        cfg = TrainConfig(task="kgc", mode="full", nh=8, epochs=2, batch_size=4, seed=6)
        path = tmp_path / "model.ckpt"
        params, arrays, _ = fit(cfg, ds.train, provider, checkpoint_path=path)
        _, extras = load_checkpoint(path)
        assert extras["tau_kgc"] == pytest.approx(float(arrays["tau_kgc"]), abs=1e-6)

    def test_empty_dataset_rejected(self):
        _, store = tiny_csts()
        cfg = TrainConfig(task="csts", mode="full", nh=8, epochs=1, batch_size=4, seed=0)
        with pytest.raises(CondclError):
            train(cfg, [], StoreProvider(store))

    def test_provider_dim_mismatch_rejected(self):
        quads, _ = tiny_csts(nh=8)
        cfg = TrainConfig(task="csts", mode="full", nh=16, epochs=1, batch_size=4, seed=0)
        with pytest.raises(CondclError):
            train(cfg, quads, HashingProvider(dim=8, seed=0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_diagnostics(self):
        quads, store = tiny_csts()
        provider = StoreProvider(store)
        # absurd decoupled decay drives parameters to overflow, which the
        # loss surfaces as non-finite
        cfg = TrainConfig(
            task="csts", mode="full", nh=8, epochs=50, batch_size=4, seed=7,
            lr=1e160, weight_decay=1e160,
        )
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(cfg, quads, provider)


class TestSyntheticCsts:
    def test_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            make_synthetic_csts(10, 3, 8, seed=0)

    def test_labels_in_native_range(self):
        quads, _ = make_synthetic_csts(50, 4, 16, seed=1)
        assert all(1.0 <= q.y <= 5.0 for q in quads)

    def test_twin_labels_ordered(self):
        quads, _ = make_synthetic_csts(80, 4, 16, seed=2)
        for tp in pair_twins(quads):
            assert tp.high.y >= tp.low.y

    def test_two_records_per_pair(self):
        quads, _ = make_synthetic_csts(30, 2, 8, seed=3)
        assert len(quads) == 60
        assert len(pair_twins(quads)) == 30

    def test_store_covers_all_texts(self):
        quads, store = make_synthetic_csts(20, 4, 16, seed=4)
        for q in quads:
            assert q.s1 in store and q.s2 in store and q.c in store

    def test_oracle_block_projector_reaches_spearman_one(self):
        quads, store = make_synthetic_csts(60, 4, 16, seed=5)
        provider = StoreProvider(store)
        block = 16 // 4
        cond_index = {f"cond-{k:02d}": k for k in range(4)}
        preds, golds = [], []
        for q in quads:
            k = cond_index[q.c]
            sl = slice(k * block, (k + 1) * block)
            a = provider.embed(q.s1)[sl]
            b = provider.embed(q.s2)[sl]
            preds.append(float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b))))
            golds.append(q.y)
        assert spearman(preds, golds) == pytest.approx(1.0, abs=1e-12)

    def test_holdout_split_keeps_twins_together(self):
        quads, _ = make_synthetic_csts(40, 2, 8, seed=6)
        train_q, eval_q = split_csts_holdout(quads, 0.8)
        assert len(train_q) + len(eval_q) == len(quads)
        assert {q.pair_id for q in train_q}.isdisjoint({q.pair_id for q in eval_q})
        pair_twins(train_q)
        pair_twins(eval_q)


class TestSyntheticKg:
    def test_splits_disjoint_and_nonempty(self):
        ds, _ = make_synthetic_kg(120, 3, 32, seed=0)
        triples = {("train", t) for t in ds.train}
        assert ds.train and ds.valid and ds.test
        train_set = set(ds.train)
        assert not train_set & set(ds.valid)
        assert not train_set & set(ds.test)
        assert not set(ds.valid) & set(ds.test)

    def test_every_relation_covered(self):
        ds, _ = make_synthetic_kg(120, 4, 32, seed=1)
        covered = {t.r for t in ds.all_triples()}
        assert covered == set(ds.relations)

    def test_gold_tail_top1_under_generating_maps(self):
        ds, store = make_synthetic_kg(100, 3, 32, seed=2)
        lat = {e: store[e] for e in ds.entities}
        for t in ds.all_triples():
            q = ds.generator_maps[t.r] @ lat[t.h]
            best = max(
                (e for e in ds.entities if e != t.h),
                key=lambda e: float(q @ lat[e]),
            )
            assert best == t.t

    def test_included_scores_above_threshold(self):
        ds, store = make_synthetic_kg(100, 3, 32, seed=3)
        lat = {e: store[e] for e in ds.entities}
        for t in ds.all_triples():
            q = ds.generator_maps[t.r] @ lat[t.h]
            score = float(q @ lat[t.t]) / (np.linalg.norm(q) * np.linalg.norm(lat[t.t]))
            assert score > 0.9

    def test_degenerate_inputs_error(self):
        with pytest.raises(ValueError):
            make_synthetic_kg(3, 2, 16, seed=0)
        with pytest.raises((CondclError, ValueError)):
            make_synthetic_kg(4, 2, 16, seed=0)

    def test_deterministic(self):
        a, _ = make_synthetic_kg(80, 2, 16, seed=9)
        b, _ = make_synthetic_kg(80, 2, 16, seed=9)
        assert a.train == b.train and a.valid == b.valid and a.test == b.test


class TestDataFiles:
    def test_csts_jsonl_round_trip(self, tmp_path):
        quads, _ = tiny_csts()
        p = tmp_path / "data.jsonl"
        save_csts_jsonl(quads, p)
        loaded = load_csts_jsonl(p)
        assert loaded == quads

    def test_csts_malformed_line(self, tmp_path):
        p = tmp_path / "data.jsonl"
        p.write_text('{"sentence1": "a"}\n')
        with pytest.raises(FormatError, match=":1:"):
            load_csts_jsonl(p)

    def test_kg_tsv_round_trip(self, tmp_path):
        triples = [KgTriple("a", "r", "b"), KgTriple("b", "s", "c")]
        p = tmp_path / "data.tsv"
        save_kg_tsv(triples, p)
        assert load_kg_tsv(p) == triples

    def test_kg_tsv_bad_columns(self, tmp_path):
        p = tmp_path / "data.tsv"
        p.write_text("a\tb\n")
        with pytest.raises(FormatError, match=":1:"):
            load_kg_tsv(p)
