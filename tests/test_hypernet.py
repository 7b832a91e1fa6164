import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import condcl
from condcl import autodiff as ad
from condcl.errors import DimensionMismatchError, FormatError
from condcl.hypernet import (
    MODES,
    ConditionOperator,
    HyperNetParams,
    apply_operator,
    default_nk,
    densify,
    diagonal_operator,
    dropout_mask,
    generate_condition_matrix,
    init_params,
    load_checkpoint,
    make_operator,
    operator_frobenius_normalized,
    param_count,
    project,
    save_checkpoint,
)

rng = np.random.default_rng(0)


def unit(v):
    return v / np.linalg.norm(v)


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_params("full", 8, seed=3)
        b = init_params("full", 8, seed=3)
        assert np.array_equal(a.U, b.U)
        assert np.array_equal(a.U_bias, b.U_bias)

    def test_full_bias_is_identity(self):
        p = init_params("full", 6, seed=0)
        assert np.array_equal(p.U_bias.reshape(6, 6), np.eye(6))

    def test_zero_bias_flag(self):
        p = init_params("full", 6, seed=0, zero_bias=True)
        assert not p.U_bias.any()

    def test_lowrank_rank_bounds(self):
        with pytest.raises(ValueError):
            init_params("lowrank", 8, nk=9)

    def test_default_rank_divisor(self):
        assert default_nk(768) == 64
        assert default_nk(1024) == 85
        assert init_params("lowrank", 24, seed=0).nk == default_nk(24) == 2

    def test_hadamard_has_no_tensors(self):
        assert init_params("hadamard", 8).tensors() == {}


class TestGenerate:
    def test_zeroed_weights_give_identity_operator(self):
        p = init_params("full", 5, seed=1)
        p.U[:] = 0.0
        for _ in range(3):
            op = generate_condition_matrix(p, unit(rng.normal(size=5)))
            assert np.array_equal(op.W, np.eye(5))

    def test_linearity_without_bias(self):
        p = init_params("full", 6, seed=2, zero_bias=True)
        h = unit(rng.normal(size=6))
        a = 2.7
        w1 = generate_condition_matrix(p, a * h).W
        w2 = a * generate_condition_matrix(p, h).W
        assert w1 == pytest.approx(w2, abs=1e-10)

    def test_affine_combination(self):
        # op(alpha a + beta b) = alpha op(a) + beta op(b) + (1-alpha-beta) * bias
        p = init_params("full", 6, seed=3)
        a, b = rng.normal(size=6), rng.normal(size=6)
        alpha, beta = 0.6, -1.3
        lhs = generate_condition_matrix(p, alpha * a + beta * b).W
        rhs = (
            alpha * generate_condition_matrix(p, a).W
            + beta * generate_condition_matrix(p, b).W
            + (1 - alpha - beta) * p.U_bias.reshape(6, 6)
        )
        assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_factored_matches_densified(self):
        for seed in range(5):
            p = init_params("lowrank", 10, nk=3, seed=seed)
            h = unit(np.random.default_rng(seed).normal(size=10))
            op = generate_condition_matrix(p, h)
            assert op.form == "factored"
            assert densify(op) == pytest.approx(op.W1 @ op.W2.T, abs=1e-12)

    def test_wrong_mode(self):
        p = HyperNetParams(mode="bogus", nh=4)
        with pytest.raises(ValueError):
            generate_condition_matrix(p, np.ones(4))

    def test_wrong_dim(self):
        p = init_params("full", 4, seed=0)
        with pytest.raises(DimensionMismatchError):
            generate_condition_matrix(p, np.ones(5))


class TestProject:
    def test_identity_dense(self):
        op = ConditionOperator(form="dense", W=np.eye(4))
        h = rng.normal(size=4)
        assert np.array_equal(project(op, h), h)

    def test_factored_equals_densified(self):
        for seed in range(10):
            r = np.random.default_rng(seed)
            p = init_params("lowrank", 12, nk=4, seed=seed)
            h_c = unit(r.normal(size=12))
            h_s = unit(r.normal(size=12))
            op = generate_condition_matrix(p, h_c)
            assert project(op, h_s) == pytest.approx(densify(op) @ h_s, abs=1e-10)

    def test_diagonal_is_hadamard(self):
        h_c = rng.normal(size=7)
        h_s = rng.normal(size=7)
        generated = generate_condition_matrix(init_params("hadamard", 7), h_c)
        assert np.array_equal(project(diagonal_operator(h_c), h_s), project(generated, h_s))
        assert np.array_equal(project(generated, h_s), h_c * h_s)

    def test_factored_never_densifies(self):
        # With nh=3000 a dense product would need ~72 MB; the factored path
        # must stay within a small fraction of that.
        nh, nk = 3000, 2
        w1 = rng.normal(size=(nh, nk))
        w2 = rng.normal(size=(nh, nk))
        h = rng.normal(size=nh)
        op = ConditionOperator(form="factored", W1=w1, W2=w2)
        tracemalloc.start()
        project(op, h)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < nh * nh * 8 * 0.05

    def test_dim_mismatch(self):
        op = ConditionOperator(form="dense", W=np.eye(4))
        with pytest.raises(DimensionMismatchError):
            project(op, np.ones(5))


def compose(params, h_c, h_s):
    return project(generate_condition_matrix(params, h_c), h_s)


class TestComposers:
    def test_hadamard_ones(self):
        h = rng.normal(size=5)
        assert np.array_equal(compose(init_params("hadamard", 5), np.ones(5), h), h)

    def test_hadamard_zeros(self):
        h = rng.normal(size=5)
        assert not compose(init_params("hadamard", 5), np.zeros(5), h).any()

    def test_concat_inference_is_plain_linear(self):
        p = init_params("concat", 4, seed=5)
        h_c, h_s = rng.normal(size=4), rng.normal(size=4)
        out = compose(p, h_c, h_s)
        assert out == pytest.approx(p.Wcat @ np.concatenate([h_c, h_s]), abs=1e-12)

    def test_concat_dropout_zero_matches_inference(self):
        p = init_params("concat", 4, seed=5, dropout_p=0.0)
        h_c, h_s = rng.normal(size=4), rng.normal(size=4)
        op = generate_condition_matrix(p, h_c)
        mask = dropout_mask(np.random.default_rng(0), 8, p.dropout_p)
        assert np.array_equal(apply_operator(op, h_s, mask), project(op, h_s))

    def test_concat_block_structure(self):
        p = init_params("concat", 3, seed=0)
        p.Wcat[:] = np.hstack([np.eye(3), np.zeros((3, 3))])
        h_c, h_s = rng.normal(size=3), rng.normal(size=3)
        assert compose(p, h_c, h_s) == pytest.approx(h_c, abs=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_generate_then_project_is_the_mode_formula(self, mode):
        nh, nk = 6, 2
        p = init_params(mode, nh, nk if mode == "lowrank" else None, seed=4)
        r = np.random.default_rng(9)
        h_c, h_s = r.normal(size=nh), r.normal(size=nh)
        if mode == "full":
            expected = (p.U @ h_c + p.U_bias).reshape(nh, nh) @ h_s
        elif mode == "lowrank":
            W1 = (p.U1 @ h_c + p.U1_bias).reshape(nh, nk)
            W2 = (p.U2 @ h_c + p.U2_bias).reshape(nh, nk)
            expected = W1 @ (W2.T @ h_s)
        elif mode == "hadamard":
            expected = h_c * h_s
        else:
            expected = p.Wcat @ np.concatenate([h_c, h_s])
        assert np.array_equal(compose(p, h_c, h_s), expected)

    @pytest.mark.parametrize("mode", MODES)
    def test_autodiff_leaves_give_the_inference_values(self, mode):
        nh = 6
        p = init_params(mode, nh, 2 if mode == "lowrank" else None, seed=8)
        r = np.random.default_rng(10)
        h_c, h_s = r.normal(size=nh), r.normal(size=nh)
        leaves = {k: ad.leaf(v) for k, v in p.tensors().items()}
        out = apply_operator(make_operator(mode, leaves, h_c, nh, p.nk), h_s)
        out = out.data if isinstance(out, ad.Tensor) else out
        assert np.array_equal(out, compose(p, h_c, h_s))


class TestParamCount:
    def test_full_nh4(self):
        assert param_count(init_params("full", 4, seed=0)) == 80

    def test_lowrank_nh4_nk2(self):
        assert param_count(init_params("lowrank", 4, nk=2, seed=0)) == 80

    def test_concat(self):
        assert param_count(init_params("concat", 4, seed=0)) == 32

    def test_ratio_approaches_nh_over_2nk(self):
        for nh, nk in ((256, 16), (512, 8)):
            full = param_count(init_params("full", nh, seed=0))
            low = param_count(init_params("lowrank", nh, nk=nk, seed=0))
            assert full / low == pytest.approx(nh / (2 * nk), rel=0.02)

    def test_paper_scale_rank_choices_shrink_params_5x(self):
        # counting only; no tensors of this size are allocated
        def full_count(nh):
            return nh**3 + nh**2

        def lowrank_count(nh, nk):
            return 2 * (nh * nh * nk + nh * nk)

        for nh in (768, 1024):
            nk = nh // 12
            assert lowrank_count(nh, nk) < full_count(nh) / 5


class TestFrobenius:
    def test_concat_form_has_no_matrix(self):
        op = generate_condition_matrix(init_params("concat", 4, seed=0), np.ones(4))
        with pytest.raises(ValueError):
            operator_frobenius_normalized(op)
        with pytest.raises(ValueError):
            densify(op)

    def test_dense_value(self):
        op = ConditionOperator(form="dense", W=np.eye(4))
        assert operator_frobenius_normalized(op) == pytest.approx(2 / 4)

    def test_diagonal_value(self):
        h = rng.normal(size=9)
        assert operator_frobenius_normalized(diagonal_operator(h)) == pytest.approx(
            np.linalg.norm(h) / 3
        )

    def test_factored_blockwise_matches_densified(self):
        for seed in range(5):
            p = init_params("lowrank", 10, nk=4, seed=seed)
            op = generate_condition_matrix(p, unit(np.random.default_rng(seed).normal(size=10)))
            dense_norm = np.linalg.norm(densify(op))
            assert operator_frobenius_normalized(op) == pytest.approx(
                dense_norm / np.sqrt(2 * 10 * 4), rel=1e-10
            )


class TestCheckpoint:
    @pytest.mark.parametrize("mode,nk", [("full", None), ("lowrank", 3), ("concat", None)])
    def test_round_trip_f32(self, tmp_path, mode, nk):
        p = init_params(mode, 8, nk=nk, seed=11)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, p, extras={"tau_kgc": np.array(0.05)})
        loaded, extras = load_checkpoint(path)
        assert loaded.mode == mode
        assert loaded.nh == 8
        for name, arr in p.tensors().items():
            expected = np.asarray(arr, dtype=np.float32).astype(np.float64)
            assert np.array_equal(loaded.tensors()[name], expected)
        assert extras["tau_kgc"] == pytest.approx(0.05, abs=1e-9)

    def test_magic_enforced(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(FormatError, match="magic"):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        p = init_params("full", 4, seed=0)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, p)
        blob = path.read_bytes()
        path.write_bytes(blob[:-40])
        with pytest.raises(FormatError, match="truncated"):
            load_checkpoint(path)

    def test_magic_literal(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, init_params("full", 4, seed=0))
        assert path.read_bytes()[:8] == b"HYPERCL1"


def _split_checkpoint(path):
    blob = path.read_bytes()
    (n,) = struct.unpack("<Q", blob[8:16])
    return json.loads(blob[16 : 16 + n]), blob[16 + n :]


def _write_checkpoint(path, header, payload):
    raw = json.dumps(header).encode("utf-8")
    path.write_bytes(b"HYPERCL1" + struct.pack("<Q", len(raw)) + raw + payload)


def _lowrank_checkpoint(path):
    save_checkpoint(path, init_params("lowrank", 4, nk=2, seed=0), {"tau_kgc": np.array(0.05)})
    return path


def _drop(key):
    return lambda h: h.pop(key)


def _set(key, value):
    return lambda h: h.__setitem__(key, value)


def _set_entry(i, key, value):
    return lambda h: h["tensors"][i].__setitem__(key, value)


HEADER_EDITS = {
    "no-mode": _drop("mode"),
    "no-nh": _drop("nh"),
    "no-nk": _drop("nk"),
    "no-tensors": _drop("tensors"),
    "mode-unknown": _set("mode", "bogus"),
    "mode-list": _set("mode", ["lowrank"]),
    "nh-string": _set("nh", "4"),
    "nh-float": _set("nh", 4.0),
    "nh-bool": _set("nh", True),
    "nh-zero": _set("nh", 0),
    "nh-negative": _set("nh", -4),
    "nh-wrong": _set("nh", 5),
    "nk-wrong": _set("nk", 1),
    "nk-zero": _set("nk", 0),
    "nk-above-nh": _set("nk", 5),
    "nk-string": _set("nk", "2"),
    "dropout-nan": _set("dropout_p", float("nan")),
    "dropout-string": _set("dropout_p", "0.1"),
    "dropout-one": _set("dropout_p", 1.0),
    "tensors-object": _set("tensors", {}),
    "tensors-entry-int": _set("tensors", [1]),
    "entry-no-offset": lambda h: h["tensors"][0].pop("offset"),
    "entry-negative-offset": _set_entry(0, "offset", -4),
    "entry-float-offset": _set_entry(0, "offset", 0.5),
    "entry-name-int": _set_entry(0, "name", 3),
    "entry-shape-string": _set_entry(0, "shape", "8,4"),
    "entry-shape-negative": _set_entry(0, "shape", [-8, -4]),
    "entry-shape-wrong": _set_entry(0, "shape", [4, 8]),
    "entry-renamed": _set_entry(0, "name", "V1"),
    "entry-duplicate": lambda h: h["tensors"].append(dict(h["tensors"][0])),
}


class TestCheckpointFormatErrors:
    @pytest.mark.parametrize("edit", HEADER_EDITS.values(), ids=HEADER_EDITS.keys())
    def test_header_edit_raises_format_error(self, tmp_path, edit):
        path = _lowrank_checkpoint(tmp_path / "m.ckpt")
        header, payload = _split_checkpoint(path)
        edit(header)
        _write_checkpoint(path, header, payload)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_header_that_is_not_an_object_raises_format_error(self, tmp_path):
        path = _lowrank_checkpoint(tmp_path / "m.ckpt")
        header, payload = _split_checkpoint(path)
        _write_checkpoint(path, [header], payload)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "cut", [0, 4, 8, 12, 16, 20, "header-1", "header", "header+3", "end-1"]
    )
    def test_truncation_raises_format_error(self, tmp_path, cut):
        path = _lowrank_checkpoint(tmp_path / "m.ckpt")
        blob = path.read_bytes()
        header_end = 16 + struct.unpack("<Q", blob[8:16])[0]
        offsets = {"header-1": header_end - 1, "header": header_end, "header+3": header_end + 3}
        offsets["end-1"] = len(blob) - 1
        path.write_bytes(blob[: offsets.get(cut, cut)])
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_raises_format_error(self, tmp_path, value):
        path = _lowrank_checkpoint(tmp_path / "m.ckpt")
        header, payload = _split_checkpoint(path)
        bad = np.array([value], dtype="<f4").tobytes()
        _write_checkpoint(path, header, bad + payload[4:])
        with pytest.raises(FormatError, match="non-finite"):
            load_checkpoint(path)

    def test_wrong_rank_is_rejected_under_optimize(self, tmp_path):
        path = _lowrank_checkpoint(tmp_path / "m.ckpt")
        header, payload = _split_checkpoint(path)
        header["nk"] = 1
        _write_checkpoint(path, header, payload)
        code = (
            "import sys\n"
            "from condcl.errors import FormatError\n"
            "from condcl.hypernet import load_checkpoint\n"
            "try:\n"
            "    load_checkpoint(sys.argv[1])\n"
            "except FormatError:\n"
            "    sys.exit(0)\n"
            "sys.exit(1)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(condcl.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code, str(path)], env=env, capture_output=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr.decode()
