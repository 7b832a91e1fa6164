import copy
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from condcl import autodiff as ad
from condcl.encoder import EmbeddingStore, HashingProvider, StoreProvider, load_embeddings
from condcl.errors import CondclError, ConfigError, FormatError, TrainingDivergedError
from condcl.evaluation import csts_predictions, spearman
from condcl.hypernet import load_checkpoint
from condcl.losses import (
    CstsQuadruplet,
    KgTriple,
    LossConfig,
    grad_check,
    kgc_candidates,
    pair_twins,
)
from condcl.trainer import (
    ADAM_CHUNK,
    Adam,
    TrainConfig,
    fit,
    initial_arrays,
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
from condcl.trainer import _closure as trainer_closure


def tiny_csts(n_pairs=6, nh=8, seed=0):
    return make_synthetic_csts(n_pairs, 2, nh, seed)


def snapshot_bytes(store: EmbeddingStore) -> bytes:
    """A store's vectors as one byte string, to check that nothing changes them."""
    return b"".join(v.tobytes() for _, v in store.items())


class TestTrainConfig:
    def test_round_trip(self):
        cfg = TrainConfig(task="csts", mode="lowrank", nh=16, nk=4, seed=3)
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig.from_dict({"task": "csts", "mode": "full", "nh": 8, "bogus": 1})

    @pytest.mark.parametrize("key", ["nope", "use_prebatch_neg"])
    def test_unknown_loss_keys_rejected(self, key):
        with pytest.raises(ConfigError, match=f"unknown loss config keys: \\['{key}'\\]"):
            TrainConfig.from_dict(
                {"task": "csts", "mode": "full", "nh": 8, "loss": {key: False}}
            )

    def test_bad_task(self):
        with pytest.raises(ConfigError):
            TrainConfig(task="both", mode="full", nh=8).validate()

    def test_lowrank_default_rank(self):
        cfg = TrainConfig(task="csts", mode="lowrank", nh=64)
        params, _ = initial_arrays(cfg)
        assert params.nk == 5  # 64 // 12

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

    @pytest.mark.parametrize("betas", [[1.0, 0.999], [0.9, 1.5], [-0.1, 0.999]])
    def test_betas_outside_unit_interval_rejected(self, betas):
        # b1 = 1 divides by zero in Adam's bias correction; b2 > 1 takes sqrt of a negative
        with pytest.raises(ConfigError, match="betas"):
            TrainConfig.from_dict({"task": "csts", "mode": "full", "nh": 8, "betas": betas})

    @pytest.mark.parametrize(
        "loss",
        [
            {"tau_csts": -1},
            {"tau_csts": 0.0},
            {"tau_kgc": 0.0},
            {"gamma": -0.5},
            {"prebatch_size": -1},
            {"prebatch_size": 1.5},
        ],
    )
    def test_bad_loss_values_raise_config_error(self, loss):
        with pytest.raises(ConfigError, match=next(iter(loss))):
            TrainConfig.from_dict({"task": "csts", "mode": "full", "nh": 8, "loss": loss})


def whole_array_adam(params, grads, m, v, t, lr, betas, eps, weight_decay, exempt):
    """The whole-array Adam update that the chunked step must reproduce bit for bit:
    the bias corrections folded into ``lr_t`` and ``eps_t``."""
    b1, b2 = betas
    sqrt_bc2 = math.sqrt(1.0 - b2**t)
    lr_t, eps_t = lr * sqrt_bc2 / (1.0 - b1**t), eps * sqrt_bc2
    for name, p in params.items():
        g = grads[name]
        m[name] *= b1
        m[name] += (1.0 - b1) * g
        v[name] *= b2
        tmp = np.multiply(g, g, out=np.empty_like(p))
        tmp *= 1.0 - b2
        v[name] += tmp
        if weight_decay and name not in exempt:
            p -= (lr * weight_decay) * p
        p -= lr_t * m[name] / (np.sqrt(v[name]) + eps_t)


def unfolded_adam(params, grads, m, v, t, lr, betas, eps, weight_decay, exempt):
    """The textbook update with three divisions per value: lr * m_hat / (sqrt(v_hat) + eps)."""
    b1, b2 = betas
    for name, p in params.items():
        g = grads[name]
        m[name] = b1 * m[name] + (1.0 - b1) * g
        v[name] = b2 * v[name] + (1.0 - b2) * g * g
        if weight_decay and name not in exempt:
            p -= (lr * weight_decay) * p
        p -= lr * (m[name] / (1.0 - b1**t)) / (np.sqrt(v[name] / (1.0 - b2**t)) + eps)


class TestAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_chunked_step_equals_the_whole_array_expression(self, weight_decay):
        rng = np.random.default_rng(7)
        shapes = {
            "U": (ADAM_CHUNK // 64 * 3 + 5, 64),  # several chunks and a short last one
            "bias": (ADAM_CHUNK + 1,),
            "small": (3, 5),
            "tau_kgc": (),
        }
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        ref = copy.deepcopy(params)
        ref_m = {k: np.zeros_like(p) for k, p in ref.items()}
        ref_v = {k: np.zeros_like(p) for k, p in ref.items()}
        kw = dict(lr=3e-3, betas=(0.8, 0.99), eps=1e-7, weight_decay=weight_decay)
        opt = Adam(params, **kw)
        for t in range(1, 6):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            # a strided gradient: the transpose of a C-ordered array
            grads["small"] = np.ascontiguousarray(rng.normal(size=(5, 3))).T
            whole_array_adam(ref, grads, ref_m, ref_v, t, exempt=("tau_kgc",), **kw)
            opt.step(grads)
            for k in shapes:
                assert np.array_equal(params[k], ref[k]), (t, k)
                assert np.array_equal(opt.m[k], ref_m[k]) and np.array_equal(opt.v[k], ref_v[k])

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_folded_step_stays_within_1e_12_of_the_unfolded_formula(self, weight_decay):
        rng = np.random.default_rng(11)
        shapes = {"U": (ADAM_CHUNK // 64 + 3, 64), "bias": (17,), "tau_kgc": ()}
        params = {k: rng.normal(size=s) for k, s in shapes.items()}
        ref = copy.deepcopy(params)
        ref_m = {k: np.zeros_like(p) for k, p in ref.items()}
        ref_v = {k: np.zeros_like(p) for k, p in ref.items()}
        kw = dict(lr=3e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=weight_decay)
        opt = Adam(params, **kw)
        for t in range(1, 6):
            grads = {k: rng.normal(size=s) for k, s in shapes.items()}
            unfolded_adam(ref, grads, ref_m, ref_v, t, exempt=("tau_kgc",), **kw)
            opt.step(grads)
        for k in shapes:
            np.testing.assert_allclose(params[k], ref[k], rtol=1e-12, atol=0, err_msg=k)

    def test_non_contiguous_parameter_is_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            Adam({"w": np.ones((4, 3)).T}, lr=0.1)

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
        opt = Adam(params, lr=0.5, weight_decay=0.9)
        opt.step({"tau_kgc": np.array(0.0)})
        assert float(params["tau_kgc"]) == pytest.approx(0.05)


class TestTrainBasics:
    @pytest.mark.parametrize("task", ["csts", "kgc"])
    def test_empty_batch_refused_when_closure_is_built(self, task):
        cfg = TrainConfig(task=task, mode="full", nh=8)
        with pytest.raises(ValueError, match="batch is empty"):
            make_loss_closure(cfg, [], HashingProvider(dim=8, seed=0))

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
        assert np.array_equal(params.tensors["U"], fresh.tensors["U"])
        assert np.array_equal(params.tensors["U_bias"], fresh.tensors["U_bias"])

    def test_frozen_encoder_invariant(self):
        quads, store = tiny_csts()
        provider = StoreProvider(store)
        before = snapshot_bytes(store)
        cfg = TrainConfig(task="csts", mode="full", nh=8, epochs=2, batch_size=4, seed=2)
        train(cfg, quads, provider)
        assert snapshot_bytes(store) == before

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
            final_arrays = dict(params.tensors)
            loss_after, _ = closure(final_arrays)
            if loss_after < report.epoch_losses[0]:
                wins += 1
        assert wins >= 95

    def test_hadamard_training_is_noop_and_reports_losses(self):
        quads, store = tiny_csts()
        provider = StoreProvider(store)
        cfg = TrainConfig(task="csts", mode="hadamard", nh=8, epochs=3, batch_size=4, seed=4)
        params, _, report = fit(cfg, quads, provider)
        assert params.tensors == {}
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
        loss_native, _ = closure(dict(params.tensors))
        loaded, _extras = load_checkpoint(path)
        loss_loaded, _ = closure(dict(loaded.tensors))
        assert loss_loaded == pytest.approx(loss_native, abs=1e-6)

    def test_kgc_checkpoint_round_trips_temperature(self, tmp_path):
        ds, store = make_synthetic_kg(24, 2, 8, seed=6)
        provider = StoreProvider(store)
        cfg = TrainConfig(task="kgc", mode="full", nh=8, epochs=2, batch_size=4, seed=6)
        path = tmp_path / "model.ckpt"
        params, arrays, _ = fit(cfg, ds.train, provider, checkpoint_path=path)
        _, extras = load_checkpoint(path)
        assert extras["tau_kgc"] == pytest.approx(float(arrays["tau_kgc"]), abs=1e-6)

    def test_hadamard_kgc_trains_its_temperature(self):
        # The temperature is hadamard KGC's only learnable array.
        ds, store = make_synthetic_kg(24, 2, 8, seed=6)
        cfg = TrainConfig(task="kgc", mode="hadamard", nh=8, lr=1e-2, epochs=2, batch_size=4)
        params, arrays, report = fit(cfg, ds.train, StoreProvider(store))
        assert params.tensors == {} and set(arrays) == {"tau_kgc"}
        assert abs(float(arrays["tau_kgc"]) - cfg.loss.tau_kgc) > 1e-3
        assert report.epoch_losses[-1] < report.epoch_losses[0]

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

    @pytest.mark.parametrize("n_pairs, fraction, side", [(1, 0.8, "eval"), (2, 0.1, "train")])
    def test_holdout_split_refuses_to_leave_a_side_empty(self, n_pairs, fraction, side):
        quads, _ = make_synthetic_csts(n_pairs, 2, 8, seed=6)
        message = f"{n_pairs} pairs at train_fraction={fraction} leave the {side} split empty"
        with pytest.raises(ValueError, match=message):
            split_csts_holdout(quads, fraction)


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

    def test_a_one_dimensional_space_is_refused_and_two_dimensions_suffice(self):
        with pytest.raises(ValueError, match="nh >= 2"):
            make_synthetic_kg(60, 2, 1, seed=0)
        ds, _ = make_synthetic_kg(60, 2, 2, seed=0)
        assert ds.train and ds.valid and ds.test

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

    @pytest.mark.parametrize(
        "field,value",
        [
            ("condition", {"x": 1}),
            ("sentence1", 3),
            ("sentence2", None),
            ("label", True),
            ("label", "3.0"),
            ("label", float("nan")),
            pytest.param("label", 10**400, id="label-beyond-float"),
            ("pair_id", 1.5),
            ("pair_id", True),
            ("pair_id", "1"),
        ],
    )
    def test_csts_field_of_the_wrong_type_reports_lineno(self, tmp_path, field, value):
        rec = {"sentence1": "a", "sentence2": "b", "condition": "c", "label": 3, "pair_id": 0}
        lines = [json.dumps(rec), json.dumps({**rec, field: value})]
        p = tmp_path / "data.jsonl"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=f":2: .*{field}"):
            load_csts_jsonl(p)
        p.write_text(lines[0] + "\n")
        (quad,) = load_csts_jsonl(p)
        assert quad == CstsQuadruplet("a", "b", "c", 3.0, 0) and isinstance(quad.y, float)


# One small valid file per text loader.
TEXT_FILES = {
    "embeddings": (
        load_embeddings,
        '{"text": "a b", "embedding": [0.5, -1]}\n{"text": "c", "embedding": [2.0, 3e-2]}\n',
    ),
    "csts": (
        load_csts_jsonl,
        '{"sentence1": "a", "sentence2": "b", "condition": "c", "label": 3.5, "pair_id": 0}\n'
        '{"sentence1": "a", "sentence2": "b", "condition": "d", "label": 1, "pair_id": 0}\n',
    ),
    "triples": (load_kg_tsv, "h\tr\tt\nh2\tr2\tt\n"),
}


class TestTextLoaderErrors:
    @pytest.mark.parametrize("name", sorted(TEXT_FILES))
    def test_invalid_utf8_reports_lineno(self, tmp_path, name):
        load, text = TEXT_FILES[name]
        first, second = text.encode("utf-8").split(b"\n", 1)
        p = tmp_path / name
        p.write_bytes(first + b"\n" + second.replace(b"c", b"\xff", 1).replace(b"t", b"\xff", 1))
        with pytest.raises(FormatError, match=":2: invalid UTF-8"):
            load(p)

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(name=st.sampled_from(sorted(TEXT_FILES)), data=st.data())
    def test_byte_edit_or_truncation_is_format_error_or_loads(self, tmp_path_factory, name, data):
        # Any single-byte edit or truncation of a valid file: FormatError or a
        # clean load, nothing else.
        load, text = TEXT_FILES[name]
        blob = text.encode("utf-8")
        pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
        if data.draw(st.booleans(), label="truncate"):
            bad = blob[:pos]
        else:
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]), label="byte")
            bad = blob[:pos] + bytes([byte]) + blob[pos + 1 :]
        path = tmp_path_factory.getbasetemp() / f"fuzzed-{name}"
        path.write_bytes(bad)
        try:
            load(path)
        except FormatError:
            pass


def gaussian_provider(texts, nh, seed=0, zero=None):
    """Random normal embeddings; the text ``zero`` gets the zero vector."""
    store = EmbeddingStore(nh)
    rng = np.random.default_rng(seed)
    for text in texts:
        v = rng.normal(size=nh)
        store.add(text, np.zeros(nh) if text == zero else v)
    return StoreProvider(store)


def probe_batches(nh, zero=None):
    """A twin batch and a triple batch sharing conditions, with a pre-batch."""
    twins = pair_twins(
        [
            CstsQuadruplet(f"s{i}a", f"s{i}b", f"c{(i + k) % 3}", 4.0 - 2.0 * k, i)
            for i in range(4)
            for k in (0, 1)
        ]
    )
    triples = [KgTriple(f"e{i}", f"r{i % 2}", f"e{(3 * i + 1) % 5}") for i in range(5)]
    texts = [t for tp in twins for t in (tp.high.s1, tp.high.s2, tp.high.c, tp.low.c)]
    texts += [t for tr in triples for t in (tr.h, tr.r, tr.t)] + ["e9"]
    provider = gaussian_provider(sorted(set(texts)), nh, seed=1, zero=zero)
    prebatch = [[("e1", provider.embed("e1")), ("e9", provider.embed("e9"))]]
    return provider, twins, triples, prebatch


# Tensors one closure call builds at nh=64 and 32 instances: the leaves, the
# generator's linear layers, the grouped projection, the row takes and one loss node.
TENSORS_PER_CALL = {
    ("csts", "full"): 7,
    ("csts", "lowrank"): 11,
    ("csts", "hadamard"): 0,  # no leaf: the loss is a plain value
    ("csts", "concat"): 5,
    ("kgc", "full"): 7,
    ("kgc", "lowrank"): 11,
    ("kgc", "hadamard"): 2,  # the tau_kgc leaf and the loss node
    ("kgc", "concat"): 5,
}


class TestBatchedTraining:
    @pytest.mark.parametrize("task,mode", sorted(TENSORS_PER_CALL))
    def test_tensors_per_closure_call(self, task, mode, monkeypatch):
        nh, n = 64, 32
        twins = pair_twins(
            [
                CstsQuadruplet(f"s{i}a", f"s{i}b", f"c{(i + k) % 5}", 4.0 - 2.0 * k, i)
                for i in range(n)
                for k in (0, 1)
            ]
        )
        triples = [KgTriple(f"e{i}", f"r{i % 4}", f"t{i}") for i in range(n)]
        texts = {t for tp in twins for t in (tp.high.s1, tp.high.s2, tp.high.c, tp.low.c)}
        texts |= {t for tr in triples for t in (tr.h, tr.r, tr.t)}
        provider = gaussian_provider(sorted(texts), nh, seed=2)
        cfg = TrainConfig(task=task, mode=mode, nh=nh, seed=1, batch_size=n)
        prebatch = [[("t0", provider.embed("t0"))]] if task == "kgc" else None
        closure = make_loss_closure(cfg, twins if task == "csts" else triples, provider, prebatch)
        _, arrays = initial_arrays(cfg)
        made, init = [], ad.Tensor.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ad.Tensor, "__init__", counting_init)
        loss, grads = closure(arrays)
        assert len(made) == TENSORS_PER_CALL[task, mode]
        assert np.isfinite(loss) and set(grads) == set(arrays)

    @pytest.mark.parametrize("task", ["csts", "kgc"])
    def test_generator_gradient_takes_no_per_condition_outer_products(self, task, monkeypatch):
        # One product G.T @ H per generator tensor and batch, not an (nh^2, nh)
        # outer product per condition summed over the batch.
        nh = 6
        provider, twins, triples, prebatch = probe_batches(nh)
        cfg = TrainConfig(task=task, mode="full", nh=nh, seed=3)
        batch, pre = (twins, None) if task == "csts" else (triples, prebatch)
        closure = make_loss_closure(cfg, batch, provider, prebatch=pre)
        _, arrays = initial_arrays(cfg)
        outer, shapes = np.outer, []

        def recording_outer(a, b):
            shapes.append((np.size(a), np.size(b)))
            return outer(a, b)

        monkeypatch.setattr(np, "outer", recording_outer)
        _, grads = closure(arrays)
        assert (nh * nh, nh) not in shapes
        assert grads["U"].shape == (nh * nh, nh) and grads["U"].flags.c_contiguous

    @pytest.mark.parametrize("task", ["csts", "kgc"])
    @pytest.mark.parametrize("mode", ["full", "lowrank", "hadamard", "concat"])
    def test_closure_gradients_pass_grad_check(self, task, mode):
        nh = 6
        provider, twins, triples, prebatch = probe_batches(nh)
        cfg = TrainConfig(task=task, mode=mode, nh=nh, nk=2, seed=3)
        batch, pre = (twins, None) if task == "csts" else (triples, prebatch)
        closure = make_loss_closure(cfg, batch, provider, prebatch=pre)
        _, arrays = initial_arrays(cfg)
        report = grad_check(closure, arrays, n_probes=60, seed=3)
        assert report.max_rel_err < 1e-4
        if task == "kgc":  # the learnable temperature, probed on its own
            rest = {k: v for k, v in arrays.items() if k != "tau_kgc"}
            tau_only = grad_check(
                lambda a: closure({**rest, **a}), {"tau_kgc": arrays["tau_kgc"]}
            )
            assert tau_only.n_checked == 1 and tau_only.max_rel_err < 1e-4

    def test_batch_of_512_with_two_512_triple_prebatches(self):
        nh = 8
        entities = [f"e{i}" for i in range(700)]
        provider = gaussian_provider(entities + ["r0", "r1", "r2"], nh, seed=2)
        rng = np.random.default_rng(4)
        triples = [
            KgTriple(entities[h], f"r{h % 3}", entities[t])
            for h, t in rng.integers(0, len(entities), size=(512, 2))
        ]
        prebatch = [
            [(entities[t], provider.embed(entities[t])) for t in rng.integers(0, 700, size=512)]
            for _ in range(2)
        ]
        cfg = TrainConfig(task="kgc", mode="lowrank", nh=nh, nk=2, seed=4)
        closure = make_loss_closure(cfg, triples, provider, prebatch=prebatch)
        _, arrays = initial_arrays(cfg)
        report = grad_check(closure, arrays, n_probes=6, seed=4)
        assert report.max_rel_err < 1e-4
        rest = {k: v for k, v in arrays.items() if k != "tau_kgc"}
        tau_only = grad_check(lambda a: closure({**rest, **a}), {"tau_kgc": arrays["tau_kgc"]})
        assert tau_only.max_rel_err < 1e-4

    @pytest.mark.parametrize("task", ["csts", "kgc"])
    def test_zero_norm_projection_raises(self, task):
        nh = 6
        zero = "s0a" if task == "csts" else "e0"  # a sentence, or the head of triples[0]
        provider, twins, triples, prebatch = probe_batches(nh, zero=zero)
        cfg = TrainConfig(task=task, mode="full", nh=nh, seed=0, epochs=1, batch_size=8)
        batch = twins if task == "csts" else triples
        closure = make_loss_closure(cfg, batch, provider, prebatch=prebatch)
        _, arrays = initial_arrays(cfg)
        with pytest.raises(ValueError, match="zero-norm"):
            closure(arrays)
        data = [q for tp in twins for q in (tp.high, tp.low)] if task == "csts" else triples
        with pytest.raises(TrainingDivergedError, match="zero-norm"):
            train(cfg, data, provider)

    def test_a_row_without_negatives_raises(self):
        provider, _, triples, _ = probe_batches(6)
        loss = LossConfig(use_self_neg=False, prebatch_size=0)
        cfg = TrainConfig(task="kgc", mode="full", nh=6, epochs=1, batch_size=1, loss=loss)
        with pytest.raises(ValueError, match="no negatives available for triple KgTriple"):
            train(cfg, triples, provider)

    @pytest.mark.parametrize("task", ["csts", "kgc"])
    def test_report_carries_loss_components_and_throughput(self, task):
        nh = 6
        provider, twins, triples, _ = probe_batches(nh)
        data = [q for tp in twins for q in (tp.high, tp.low)] if task == "csts" else triples
        cfg = TrainConfig(task=task, mode="lowrank", nh=nh, nk=2, epochs=3, batch_size=2, seed=5)
        report = train(cfg, data, provider)
        assert len(report.epoch_components) == 3
        for loss, parts in zip(report.epoch_losses, report.epoch_components):
            assert set(parts) == ({"mse", "cl"} if task == "csts" else {"cl"})
            assert sum(parts.values()) == pytest.approx(loss, rel=1e-12)
        assert np.isfinite(report.examples_per_s) and report.examples_per_s > 0
        d = report.to_dict()
        assert d["epoch_components"] == report.epoch_components
        assert d["examples_per_s"] == report.examples_per_s
        assert d["epoch_stage_s"] == report.epoch_stage_s

    @pytest.mark.parametrize("mode", ["full", "hadamard"])
    def test_stage_times_split_the_epoch_loop(self, mode):
        provider, twins, _, _ = probe_batches(6)
        data = [q for tp in twins for q in (tp.high, tp.low)]
        cfg = TrainConfig(task="csts", mode=mode, nh=6, epochs=3, batch_size=1, seed=5)
        report = train(cfg, data, provider)
        assert len(report.epoch_stage_s) == 3
        for stage in report.epoch_stage_s:
            assert set(stage) == {"graph", "step"}
            assert all(s >= 0.0 for s in stage.values())
        loop_s = cfg.epochs * len(twins) / report.examples_per_s
        assert sum(sum(stage.values()) for stage in report.epoch_stage_s) <= loop_s

    @pytest.mark.parametrize("prebatch_size", [0, 1])
    def test_closure_keeps_the_pre_batch_window_of_training(self, prebatch_size, monkeypatch):
        # The last of three KGC batches follows two earlier ones; given both as
        # past batches, make_loss_closure keeps the last prebatch_size of them,
        # as training does, and so gives training's loss for that batch.
        nh = 8
        triples = [KgTriple(f"h{i}", f"r{i % 2}", f"t{i}") for i in range(9)]
        texts = sorted({x for tr in triples for x in (tr.h, tr.r, tr.t)})
        provider = gaussian_provider(texts, nh, seed=3)
        window = LossConfig(prebatch_size=prebatch_size)
        cfg = TrainConfig(task="kgc", mode="full", nh=nh, epochs=1, batch_size=3, seed=2, loss=window)
        batches, trained = [], []

        def recording_candidates(batch, *args):
            batches.append(list(batch))
            return kgc_candidates(batch, *args)

        def recording_closure(loss_of):
            fn = trainer_closure(loss_of)

            def recorded(arrays, components_out=None):
                loss, grads = fn(arrays, components_out)
                trained.append((loss, {k: v.copy() for k, v in arrays.items()}))
                return loss, grads

            return recorded

        monkeypatch.setattr("condcl.trainer.kgc_candidates", recording_candidates)
        monkeypatch.setattr("condcl.trainer._closure", recording_closure)
        train(cfg, triples, provider)
        monkeypatch.undo()
        assert len(batches) == len(trained) == 3
        past = [[(tr.t, provider.embed(tr.t)) for tr in batch] for batch in batches[:2]]
        loss, arrays = trained[2]
        got, _ = make_loss_closure(cfg, batches[2], provider, prebatch=past)(arrays)
        assert got == pytest.approx(loss, rel=1e-12)
