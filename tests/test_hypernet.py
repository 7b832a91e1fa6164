import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import condcl
from condcl import autodiff as ad
from condcl import hypernet
from condcl.errors import ConfigError, DimensionMismatchError, FormatError
from condcl.hypernet import (
    GENERATE_BLOCK,
    MODES,
    ConditionOperator,
    HyperNetParams,
    apply_stack,
    default_nk,
    generate_blocks,
    generate_stack,
    init_params,
    load_checkpoint,
    operator_frobenius_normalized,
    param_count,
    save_checkpoint,
)
from condcl.trainer import TrainConfig, dropout_mask

rng = np.random.default_rng(0)


def densify(op: ConditionOperator) -> np.ndarray:
    """Each operator of a full, lowrank or hadamard stack as a dense R x nh x nh matrix."""
    if op.mode == "full":
        return np.array(op.arrays["W"])
    if op.mode == "lowrank":
        return op.arrays["W1"] @ op.arrays["W2"].transpose(0, 2, 1)
    if op.mode == "hadamard":
        d = op.arrays["d"]
        return d[:, :, None] * np.eye(d.shape[1])
    raise ValueError(f"a {op.mode} operator is not a square matrix over h_s")


def unit(v):
    return v / np.linalg.norm(v)


def traced_peak(call, *args):
    """The peak traced allocation of ``call(*args)``; tracing stops however it ends."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Operator indices that do not send each of three rows to one of two operators.
BAD_WHICH = {
    "short": [0, 1],
    "long": [0, 1, 1, 0],
    "float": [0.0, 1.0, 1.0],
    "bool": [False, True, True],
    "negative": [0, -1, 1],
    "past-the-stack": [0, 2, 1],
    "negative-int": -1,
    "int-past-the-stack": 2,
    "float-scalar": 0.0,
}


def mode_formula(params, h_c, h_s):
    """One condition's operator applied to one vector, by the mode's formula
    over ``params.tensors`` in plain numpy."""
    t, nh, nk = params.tensors, params.nh, params.nk
    if params.mode == "full":
        return (t["U"] @ h_c + t["U_bias"]).reshape(nh, nh) @ h_s
    if params.mode == "lowrank":
        W1 = (t["U1"] @ h_c + t["U1_bias"]).reshape(nh, nk)
        W2 = (t["U2"] @ h_c + t["U2_bias"]).reshape(nh, nk)
        return W1 @ (W2.T @ h_s)
    if params.mode == "hadamard":
        return h_c * h_s
    return t["Wcat"] @ np.concatenate([h_c, h_s])


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_params("full", 8, seed=3)
        b = init_params("full", 8, seed=3)
        assert np.array_equal(a.tensors["U"], b.tensors["U"])
        assert np.array_equal(a.tensors["U_bias"], b.tensors["U_bias"])

    def test_full_bias_is_identity(self):
        p = init_params("full", 6, seed=0)
        assert np.array_equal(p.tensors["U_bias"].reshape(6, 6), np.eye(6))

    def test_lowrank_rank_bounds(self):
        with pytest.raises(ValueError):
            init_params("lowrank", 8, nk=9)

    def test_default_rank_divisor(self):
        assert default_nk(768) == 64
        assert default_nk(1024) == 85
        assert init_params("lowrank", 24, seed=0).nk == default_nk(24) == 2

    def test_hadamard_has_no_tensors(self):
        assert init_params("hadamard", 8).tensors == {}

    @pytest.mark.parametrize("mode,nh,nk", [(m, 12, 3) for m in MODES] + [("lowrank", 24, None)])
    def test_tensors_follow_the_shape_table(self, mode, nh, nk):
        p = init_params(mode, nh, nk, seed=0)
        shapes = {name: t.shape for name, t in p.tensors.items()}
        assert list(shapes.items()) == list(hypernet._tensor_shapes(mode, nh, p.nk).items())


# (mode, nh, nk) that describe no generator, and what the refusal says.
BAD_GENERATORS = {
    "lowrank-nk-float": (("lowrank", 8, 2.5), "nk must be an integer, got 2.5"),
    "lowrank-nk-bool": (("lowrank", 8, True), "nk must be an integer, got True"),
    "nh-float": (("full", 8.0, None), "nh must be an integer, got 8.0"),
    "nh-bool": (("full", True, None), "nh must be an integer, got True"),
    "nh-zero": (("full", 0, None), "nh must be positive"),
    "mode-unknown": (("bogus", 8, None), "unknown mode 'bogus'"),
}


class TestGeneratorRules:
    """One rule check, three callers: init, a run config and a checkpoint header."""

    @pytest.mark.parametrize("shape,message", BAD_GENERATORS.values(), ids=BAD_GENERATORS.keys())
    def test_init_params_refuses(self, shape, message):
        with pytest.raises(ValueError, match=message):
            init_params(*shape)

    @pytest.mark.parametrize("shape,message", BAD_GENERATORS.values(), ids=BAD_GENERATORS.keys())
    def test_train_config_refuses(self, shape, message):
        mode, nh, nk = shape
        cfg = TrainConfig(task="csts", mode=mode, nh=nh, nk=nk)
        with pytest.raises(ConfigError, match=message):
            cfg.validate()

    @pytest.mark.parametrize("shape,message", BAD_GENERATORS.values(), ids=BAD_GENERATORS.keys())
    def test_checkpoint_header_refuses(self, tmp_path, shape, message):
        path = _lowrank_checkpoint(tmp_path / "m.ckpt")
        header, payload = _split_checkpoint(path)
        header.update(zip(("mode", "nh", "nk"), shape))
        _write_checkpoint(path, header, payload)
        with pytest.raises(FormatError, match=message):
            load_checkpoint(path)


class TestGenerate:
    def test_zeroed_weights_give_identity_operator(self):
        p = init_params("full", 5, seed=1)
        p.tensors["U"][:] = 0.0
        op = generate_stack(p.mode, p.tensors, rng.normal(size=(3, 5)))
        assert np.array_equal(op.arrays["W"], np.broadcast_to(np.eye(5), (3, 5, 5)))

    def test_linearity_without_bias(self):
        p = init_params("full", 6, seed=2)
        p.tensors["U_bias"][:] = 0.0
        h = unit(rng.normal(size=6))
        a = 2.7
        W = generate_stack(p.mode, p.tensors, np.stack([a * h, h])).arrays["W"]
        assert W[0] == pytest.approx(a * W[1], abs=1e-10)

    def test_affine_combination(self):
        # op(alpha a + beta b) = alpha op(a) + beta op(b) + (1-alpha-beta) * bias
        p = init_params("full", 6, seed=3)
        a, b = rng.normal(size=6), rng.normal(size=6)
        alpha, beta = 0.6, -1.3
        W = generate_stack(p.mode, p.tensors, np.stack([alpha * a + beta * b, a, b])).arrays["W"]
        bias = p.tensors["U_bias"].reshape(6, 6)
        rhs = alpha * W[1] + beta * W[2] + (1 - alpha - beta) * bias
        assert W[0] == pytest.approx(rhs, abs=1e-9)

    def test_factored_matches_densified(self):
        for seed in range(5):
            p = init_params("lowrank", 10, nk=3, seed=seed)
            H = np.random.default_rng(seed).normal(size=(2, 10))
            op = generate_stack(p.mode, p.tensors, H)
            assert op.mode == "lowrank" and op.shape == (2, 10)
            W1, W2 = op.arrays["W1"], op.arrays["W2"]
            for r in range(2):
                assert densify(op)[r] == pytest.approx(W1[r] @ W2[r].T, abs=1e-12)

    def test_wrong_mode(self):
        p = HyperNetParams(mode="bogus", nh=4)
        with pytest.raises(ValueError):
            next(generate_blocks(p, np.ones((1, 4))))

    def test_wrong_dim(self):
        p = init_params("full", 4, seed=0)
        with pytest.raises(DimensionMismatchError):
            generate_blocks(p, np.ones((1, 5)))

    @pytest.mark.parametrize("mode, nk", [("full", None), ("lowrank", 8)])
    def test_a_stack_is_generated_at_the_memory_of_its_output(self, mode, nk):
        # The bias is added in place; holding the product and its sum at once peaks at 2x.
        p = init_params(mode, 32, nk, seed=0)
        H = np.random.default_rng(0).normal(size=(64, 32))
        out_bytes = sum(a.nbytes for a in generate_stack(mode, p.tensors, H).arrays.values())
        assert traced_peak(generate_stack, mode, p.tensors, H) < 1.5 * out_bytes


class TestProject:
    """Rows projected through a stack by ``apply_stack``."""

    def test_identity_dense(self):
        op = ConditionOperator("full", {"W": np.eye(4)[None]})
        h = rng.normal(size=4)
        assert np.array_equal(apply_stack(op, h, 0), h[None])

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(
        "which", [[0, 0, 2, 2, 2], [2, 0, 2, 0, 2]], ids=["grouped", "interleaved"]
    )
    def test_each_row_goes_through_its_condition(self, mode, which):
        nh = 8
        p = init_params(mode, nh, 3 if mode == "lowrank" else None, seed=6)
        r = np.random.default_rng(7)
        H, h_s = r.normal(size=(3, nh)), r.normal(size=(5, nh))
        op = generate_stack(p.mode, p.tensors, H)
        out = apply_stack(op, h_s, which)  # condition 1 gets no rows
        for row, h, c in zip(out, h_s, which):
            np.testing.assert_allclose(row, mode_formula(p, H[c], h), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_ndarray_operators_give_ndarrays(self, mode):
        # inference builds no autodiff Tensor: operators and projected rows are ndarrays
        p = init_params(mode, 6, 2 if mode == "lowrank" else None, seed=1)
        H, h_s = rng.normal(size=(2, 6)), rng.normal(size=(3, 6))
        op = generate_stack(mode, p.tensors, H)
        assert all(type(a) is np.ndarray for a in op.arrays.values())
        assert type(apply_stack(op, h_s, [0, 1, 1])) is np.ndarray
        for _, block in generate_blocks(p, H):
            assert type(apply_stack(block, h_s, [0, 1, 1])) is np.ndarray

    def test_factored_equals_densified(self):
        for seed in range(10):
            r = np.random.default_rng(seed)
            p = init_params("lowrank", 12, nk=4, seed=seed)
            h_c = unit(r.normal(size=12))
            h_s = unit(r.normal(size=12))
            op = generate_stack(p.mode, p.tensors, h_c[None])
            got = apply_stack(op, h_s, 0)[0]
            assert got == pytest.approx(mode_formula(p, h_c, h_s), abs=1e-10)
            assert got == pytest.approx(densify(op)[0] @ h_s, abs=1e-10)

    def test_diagonal_is_hadamard(self):
        h_c = rng.normal(size=7)
        h_s = rng.normal(size=7)
        generated = generate_stack("hadamard", init_params("hadamard", 7).tensors, h_c[None])
        by_hand = apply_stack(generate_stack("hadamard", {}, h_c[None]), h_s, 0)
        assert np.array_equal(by_hand, apply_stack(generated, h_s, 0))
        assert np.array_equal(by_hand[0], h_c * h_s)

    def test_factored_never_densifies(self):
        # With nh=3000 a dense product would need ~72 MB; the factored path
        # must stay within a small fraction of that.
        nh, nk = 3000, 2
        w1 = rng.normal(size=(1, nh, nk))
        w2 = rng.normal(size=(1, nh, nk))
        h = rng.normal(size=nh)
        op = ConditionOperator("lowrank", {"W1": w1, "W2": w2})
        assert traced_peak(apply_stack, op, h, 0) < nh * nh * 8 * 0.05

    def test_dim_mismatch(self):
        op = ConditionOperator("full", {"W": np.eye(4)[None]})
        with pytest.raises(DimensionMismatchError):
            apply_stack(op, np.ones(5), 0)
        concat = generate_stack("concat", init_params("concat", 4, seed=0).tensors, np.ones((1, 4)))
        with pytest.raises(DimensionMismatchError):
            apply_stack(concat, np.ones((2, 3)), 0)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("which", BAD_WHICH.values(), ids=BAD_WHICH.keys())
    def test_which_must_name_an_operator_of_the_stack_per_row(self, mode, which):
        p = init_params(mode, 4, nk=2 if mode == "lowrank" else None, seed=0)
        op = generate_stack(p.mode, p.tensors, np.ones((2, 4)))
        with pytest.raises(ValueError, match="which"):
            apply_stack(op, np.ones((3, 4)), which)

    def test_rows_must_be_finite_one_or_two_dimensional(self):
        op = ConditionOperator("full", {"W": np.eye(4)[None]})
        with pytest.raises(ValueError, match="non-finite"):
            apply_stack(op, np.full((3, 4), np.inf), 0)
        with pytest.raises(ValueError, match="2-D"):
            apply_stack(op, np.ones((1, 1, 4)), 0)

    @pytest.mark.parametrize(
        "mode, nh, nk",
        [("full", 64, None), ("full", 256, None), ("lowrank", 64, 8), ("lowrank", 768, 64)],
    )
    @pytest.mark.parametrize("spread, blocks", [(True, 2), (False, 1.5)], ids=["spread", "one"])
    def test_indexed_rows_are_projected_one_group_at_a_time(self, mode, nh, nk, spread, blocks):
        # Each group's product is written straight into its rows of the output;
        # copying all rows into group order and the products back peaks above 2.
        # Rows that all name one operator are one product into the output, as
        # for an int: gathering them as one group and copying it back peaks at 3.
        g = np.random.default_rng(0)
        R, B = 8, 512
        shapes = {"full": {"W": (R, nh, nh)}, "lowrank": {"W1": (R, nh, nk), "W2": (R, nh, nk)}}
        op = ConditionOperator(mode, {k: g.normal(size=s) for k, s in shapes[mode].items()})
        rows = g.normal(size=(B, nh))
        which = g.integers(0, R, size=B) if spread else np.full(B, 3)
        assert traced_peak(apply_stack, op, rows, which) < blocks * B * nh * 8
        if not spread:
            assert np.array_equal(apply_stack(op, rows, which), apply_stack(op, rows, 3))


def factored_dots(op, rows, r, anchors):
    """``anchors @ P.T`` and P's row norms, from ``factored_projection`` as
    evaluation's head queries use it."""
    W1, Z, _, norms = hypernet.factored_projection(op, rows, r)
    return (anchors if W1 is None else anchors @ W1) @ Z.T, norms


class TestFactoredProjection:
    """``factored_projection`` against the projected rows of ``apply_stack``."""

    @pytest.mark.parametrize(
        "mode, nk",
        [("full", None), ("hadamard", None), ("concat", None), ("lowrank", 1), ("lowrank", 4),
         ("lowrank", 8)],
    )
    def test_dots_and_norms_are_those_of_the_projected_rows(self, mode, nk):
        # Every operator of a 3-condition stack, by its index: r > 0 included.
        nh = 8
        g = np.random.default_rng(5)
        p = init_params(mode, nh, nk, seed=5)
        op = generate_stack(p.mode, p.tensors, g.normal(size=(3, nh)))
        rows, anchors = g.normal(size=(20, nh)), g.normal(size=(6, nh))
        rows[7] = 0.0
        for r in range(3):
            P = apply_stack(op, rows, r)
            W1, Z, ZG, norms = hypernet.factored_projection(op, rows, r)
            dots, _ = factored_dots(op, rows, r, anchors)
            np.testing.assert_allclose(dots, anchors @ P.T, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(ZG @ Z.T, P @ P.T, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(norms, np.linalg.norm(P, axis=1), rtol=1e-12, atol=1e-12)
            if mode == "lowrank":
                assert Z.shape == (20, nk) and W1.shape == (nh, nk)
            else:  # the projection itself
                assert W1 is None and np.array_equal(Z, P) and np.array_equal(ZG, P)
            if mode != "concat":  # concat adds Wcat @ [h_c; 0] to a zero row
                assert norms[7] == 0.0  # so a cosine against it still raises

    def test_lowrank_rows_are_never_projected_to_nh(self):
        # With nh=3000 and nk=2 the 200 projected rows would hold 4.8 MB. The
        # rank-nk path holds 200 x 2 values, their finiteness check and the
        # anchors' dots.
        nh, nk, N = 3000, 2, 200
        g = np.random.default_rng(0)
        op = ConditionOperator("lowrank", {k: g.normal(size=(1, nh, nk)) for k in ("W1", "W2")})
        rows, anchors = g.normal(size=(N, nh)), g.normal(size=(4, nh))
        assert traced_peak(factored_dots, op, rows, 0, anchors) < 0.25 * N * nh * 8

    def test_rows_are_checked_as_apply_stack_checks_them(self):
        op = ConditionOperator("lowrank", {"W1": np.ones((1, 4, 2)), "W2": np.ones((1, 4, 2))})
        with pytest.raises(DimensionMismatchError):
            hypernet.factored_projection(op, np.ones((3, 5)), 0)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="h_s contains non-finite entries"):
                hypernet.factored_projection(op, np.full((3, 4), bad), 0)


def compose(params, h_c, h_s):
    op = generate_stack(params.mode, params.tensors, np.asarray(h_c)[None])
    return apply_stack(op, h_s, 0)[0]


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
        assert out == pytest.approx(p.tensors["Wcat"] @ np.concatenate([h_c, h_s]), abs=1e-12)

    def test_concat_dropout_zero_matches_inference(self):
        p = init_params("concat", 4, seed=5)
        H, h_s = rng.normal(size=(1, 4)), rng.normal(size=(1, 4))
        mask = dropout_mask(np.random.default_rng(0), (1, 8), 0.0)
        op = generate_stack("concat", p.tensors, H)
        out = apply_stack(op, h_s, 0, mask)
        assert np.array_equal(out[0], compose(p, H[0], h_s[0]))

    def test_concat_block_structure(self):
        p = init_params("concat", 3, seed=0)
        p.tensors["Wcat"][:] = np.hstack([np.eye(3), np.zeros((3, 3))])
        h_c, h_s = rng.normal(size=3), rng.normal(size=3)
        assert compose(p, h_c, h_s) == pytest.approx(h_c, abs=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_generate_then_project_is_the_mode_formula(self, mode):
        nh, nk = 6, 2
        p = init_params(mode, nh, nk if mode == "lowrank" else None, seed=4)
        r = np.random.default_rng(9)
        h_c, h_s = r.normal(size=nh), r.normal(size=nh)
        assert np.array_equal(compose(p, h_c, h_s), mode_formula(p, h_c, h_s))

    @pytest.mark.parametrize("mode", MODES)
    def test_autodiff_leaves_give_the_inference_values(self, mode):
        # Training's path (the shared stacked generator over autodiff leaves)
        # against inference's (a ``generate_blocks`` block over ndarrays), each
        # sending three interleaved row groups through one ``apply_stack``.
        nh = 6
        p = init_params(mode, nh, 2 if mode == "lowrank" else None, seed=8)
        r = np.random.default_rng(10)
        H, h_s = r.normal(size=(3, nh)), r.normal(size=(6, nh))
        which = np.array([1, 0, 2, 1, 2, 1])
        leaves = {k: ad.leaf(v) for k, v in p.tensors.items()}
        out = ad.value(apply_stack(generate_stack(mode, leaves, H), h_s, which))
        ((_, op),) = generate_blocks(p, H)
        assert np.array_equal(out, apply_stack(op, h_s, which))

    @pytest.mark.parametrize("mode", MODES)
    def test_stacked_generator_is_the_inference_formula(self, mode):
        nh, nk = 6, 2
        p = init_params(mode, nh, nk if mode == "lowrank" else None, seed=3)
        H = np.random.default_rng(13).normal(size=(4, nh))
        ((_, op),) = generate_blocks(p, H)
        assert op.shape[0] == 4
        t = p.tensors
        for r in range(4):
            a = {name: array[r] for name, array in op.arrays.items()}
            if mode == "full":
                assert np.array_equal(a["W"], (H @ t["U"].T + t["U_bias"])[r].reshape(nh, nh))
            elif mode == "lowrank":
                assert np.array_equal(a["W1"], (H @ t["U1"].T + t["U1_bias"])[r].reshape(nh, nk))
                assert np.array_equal(a["W2"], (H @ t["U2"].T + t["U2_bias"])[r].reshape(nh, nk))
            elif mode == "hadamard":
                assert np.array_equal(a["d"], H[r])
            else:
                assert op.Wcat is t["Wcat"] and np.array_equal(a["h_c"], H[r])


class TestBatched:
    @pytest.mark.parametrize("mode", MODES)
    def test_generate_blocks_match_one_stack(self, mode):
        # Two generating blocks, in order: each is its rows of a single stacked product.
        nh = 6
        p = init_params(mode, nh, 2 if mode == "lowrank" else None, seed=5)
        H = np.random.default_rng(11).normal(size=(GENERATE_BLOCK + 3, nh))  # two blocks
        blocks = list(generate_blocks(p, H))
        spans = [slice(0, GENERATE_BLOCK), slice(GENERATE_BLOCK, 2 * GENERATE_BLOCK)]
        assert [span for span, _ in blocks] == spans
        assert [op.shape for _, op in blocks] == [(GENERATE_BLOCK, nh), (3, nh)]
        stack = generate_stack(p.mode, p.tensors, H)
        for span, op in blocks:
            assert op.mode == stack.mode and list(op.arrays) == list(stack.arrays)
            for name, array in stack.arrays.items():
                assert np.array_equal(array[span], op.arrays[name])
            assert op.Wcat is stack.Wcat

    @pytest.mark.parametrize("mode", MODES)
    def test_project_rows_match_vectors(self, mode):
        nh = 6
        p = init_params(mode, nh, 2 if mode == "lowrank" else None, seed=6)
        r = np.random.default_rng(12)
        op = generate_stack(p.mode, p.tensors, r.normal(size=(1, nh)))
        M = r.normal(size=(5, nh))
        out = apply_stack(op, M, 0)
        assert out.shape == (5, nh)
        for row, h_s in zip(out, M):
            one = apply_stack(op, h_s, 0)[0]
            np.testing.assert_allclose(row, one, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", MODES)
    def test_rows_of_unequal_width_raise_a_dimension_mismatch(self, mode):
        p = init_params(mode, 6, 2 if mode == "lowrank" else None, seed=0)
        op = generate_stack(p.mode, p.tensors, np.ones((1, 6)))
        for project in (apply_stack, hypernet.factored_projection):
            with pytest.raises(DimensionMismatchError, match="h_s rows differ in width: 5, 6"):
                project(op, [np.ones(6), np.ones(5)], 0)

    def test_generate_blocks_validates_the_stack(self):
        p = init_params("full", 4, seed=0)
        with pytest.raises(DimensionMismatchError):
            generate_blocks(p, np.ones((2, 5)))
        with pytest.raises(ValueError, match="non-finite"):
            generate_blocks(p, np.full((1, 4), np.nan))
        with pytest.raises(ValueError, match="2-D"):
            generate_blocks(p, np.ones(4))


class TestFrozenMemo:
    """Loaded params are frozen: generate_blocks makes a condition's operator once."""

    @pytest.fixture
    def generated(self, monkeypatch):
        """The condition rows that reach generate_stack, one list per call."""
        calls = []
        generate = hypernet.generate_stack

        def counting(mode, tensors, H):
            calls.append([h.tobytes() for h in H])
            return generate(mode, tensors, H)

        monkeypatch.setattr(hypernet, "generate_stack", counting)
        return calls

    @staticmethod
    def loaded(tmp_path, mode, nh=6):
        path = tmp_path / f"{mode}.ckpt"
        save_checkpoint(path, init_params(mode, nh, 2 if mode == "lowrank" else None, seed=4))
        return load_checkpoint(path)[0]

    @staticmethod
    def writeable(params):
        tensors = {name: np.array(t) for name, t in params.tensors.items()}
        return HyperNetParams(params.mode, params.nh, params.nk, tensors)

    def test_loaded_tensors_are_read_only_and_own_their_data(self, tmp_path):
        for mode in MODES:
            for t in self.loaded(tmp_path, mode).tensors.values():
                assert t.flags.owndata and not t.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    t.flat[0] = 1.0
        (tau,) = load_checkpoint(_lowrank_checkpoint(tmp_path / "m.ckpt"))[1].values()
        assert not tau.flags.writeable

    @pytest.mark.parametrize("mode", ["full", "lowrank"])
    def test_memoised_blocks_equal_a_writeable_copys(self, tmp_path, monkeypatch, mode):
        # Hits, misses, repeated rows, and a hit that the block's own misses evict.
        monkeypatch.setattr(hypernet, "GENERATE_BLOCK", 2)
        params = self.loaded(tmp_path, mode)
        copy = self.writeable(params)
        H = np.random.default_rng(3).normal(size=(5, 6))
        for rows in ([0, 1], [0, 2], [1, 1, 3, 0], [0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [2, 2]):
            got, want = list(generate_blocks(params, H[rows])), list(generate_blocks(copy, H[rows]))
            assert [span for span, _ in got] == [span for span, _ in want]
            for (_, op), (_, ref) in zip(got, want):
                assert (op.mode, op.shape) == (ref.mode, ref.shape)
                assert list(op.arrays) == list(ref.arrays)
                for name, array in ref.arrays.items():
                    np.testing.assert_allclose(op.arrays[name], array, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("mode", ["full", "lowrank"])
    def test_a_block_is_generated_whole_unless_every_row_is_kept(self, tmp_path, generated, mode):
        # Generating a block reads the whole generator whatever its rows, so a
        # partly kept block is generated whole; a wholly kept one not at all.
        params = self.loaded(tmp_path, mode)
        H = np.random.default_rng(3).normal(size=(5, 6))
        for rows in ([0, 1], [1, 2, 0], [4, 3, 2, 1, 0], [3, 3]):
            list(generate_blocks(params, H[rows]))
        k = [h.tobytes() for h in H]
        assert generated == [[k[0], k[1]], [k[1], k[2], k[0]], [k[4], k[3], k[2], k[1], k[0]]]

    def test_a_block_generated_whole_is_kept_whole(self, tmp_path, monkeypatch, generated):
        # Row 1 was kept before [1, 3] missed; it is kept again as the newest, so
        # the eviction to GENERATE_BLOCK rows does not drop it.
        monkeypatch.setattr(hypernet, "GENERATE_BLOCK", 2)
        params = self.loaded(tmp_path, "lowrank")
        H = np.random.default_rng(3).normal(size=(4, 6))
        for rows in ([0, 1], [2], [1, 3], [1, 3]):
            list(generate_blocks(params, H[rows]))
        assert len(generated) == 3 and list(params._memo[1]) == [H[1].tobytes(), H[3].tobytes()]

    def test_only_loaded_full_and_lowrank_params_hold_a_memo(self, tmp_path):
        # Hadamard and concat operators hold the condition embeddings themselves.
        held = {mode: self.loaded(tmp_path, mode)._memo is not None for mode in MODES}
        assert held == {"full": True, "lowrank": True, "hadamard": False, "concat": False}

    def test_read_only_params_not_loaded_generate_every_call(self, tmp_path, generated):
        params = self.writeable(self.loaded(tmp_path, "full"))
        for t in params.tensors.values():
            t.flags.writeable = False
            assert t.flags.owndata
        H = np.random.default_rng(3).normal(size=(2, 6))
        for _ in range(3):
            list(generate_blocks(params, H))
        assert len(generated) == 3 and params._memo is None

    def test_a_tensor_seen_writeable_drops_the_memo_for_good(self, tmp_path, generated):
        # Made writeable, changed in place and made read-only again: the call that
        # saw it writeable dropped the memo, so nothing stale is served afterwards.
        params = self.loaded(tmp_path, "lowrank")
        H = np.random.default_rng(3).normal(size=(2, 6))
        list(generate_blocks(params, H))
        U1 = params.tensors["U1"]
        U1.flags.writeable = True
        U1 *= 2.0
        list(generate_blocks(params, H))
        U1.flags.writeable = False
        [(_, op)] = generate_blocks(params, H)
        assert len(generated) == 3 and params._memo is None
        want = generate_stack("lowrank", params.tensors, H)
        assert np.array_equal(op.arrays["W1"], want.arrays["W1"])

    def test_the_memo_keeps_the_last_generate_block_conditions(
        self, tmp_path, monkeypatch, generated
    ):
        monkeypatch.setattr(hypernet, "GENERATE_BLOCK", 1)
        params = self.loaded(tmp_path, "lowrank")
        H = np.random.default_rng(3).normal(size=(3, 6))
        list(generate_blocks(params, H))
        assert len(generated) == 3 and len(params._memo[1]) == 1
        generated.clear()
        list(generate_blocks(params, H[2:]))
        assert generated == []
        list(generate_blocks(params, H[:1]))
        assert generated == [[H[0].tobytes()]]

    def test_writeable_or_borrowed_tensors_generate_every_call(self, tmp_path, generated):
        # A read-only view can change through its base, so it is not frozen.
        params = self.writeable(self.loaded(tmp_path, "full"))
        views = {name: t.view() for name, t in params.tensors.items()}
        for t in views.values():
            t.flags.writeable = False
        borrowed = HyperNetParams("full", 6, None, views)
        H = np.random.default_rng(3).normal(size=(2, 6))
        for p in (params, params, borrowed, borrowed):
            list(generate_blocks(p, H))
        assert len(generated) == 4

    def test_a_replaced_tensor_drops_the_memo(self, tmp_path, generated):
        params = self.loaded(tmp_path, "lowrank")
        H = np.random.default_rng(3).normal(size=(2, 6))
        list(generate_blocks(params, H))
        U1 = np.array(params.tensors["U1"]) * 2.0
        U1.flags.writeable = False
        params.tensors["U1"] = U1
        [(_, op)] = generate_blocks(params, H)
        assert len(generated) == 2
        want = generate_stack("lowrank", params.tensors, H)
        assert np.array_equal(op.arrays["W1"], want.arrays["W1"])


class TestParamCount:
    def test_full_nh4(self):
        assert param_count(init_params("full", 4, seed=0)) == 80

    def test_lowrank_nh4_nk2(self):
        assert param_count(init_params("lowrank", 4, nk=2, seed=0)) == 80

    def test_concat(self):
        assert param_count(init_params("concat", 4, seed=0)) == 32

    def test_ratio_approaches_nh_over_2nk(self):
        # zero-stride arrays: exact sizes, and nothing allocated at nh=512
        def params(mode, nh, nk, shapes):
            arrays = {name: np.broadcast_to(0.0, shape) for name, shape in shapes.items()}
            return HyperNetParams(mode=mode, nh=nh, nk=nk, tensors=arrays)

        for nh, nk in ((256, 16), (512, 8)):
            dense = {"U": (nh * nh, nh), "U_bias": (nh * nh,)}
            full = param_count(params("full", nh, None, dense))
            factor = {"U1": (nh * nk, nh), "U1_bias": (nh * nk,)}
            factor.update(U2=factor["U1"], U2_bias=factor["U1_bias"])
            low = param_count(params("lowrank", nh, nk, factor))
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
        op = generate_stack("concat", init_params("concat", 4, seed=0).tensors, np.ones((1, 4)))
        with pytest.raises(ValueError):
            operator_frobenius_normalized(op)
        with pytest.raises(ValueError):
            densify(op)

    def test_dense_value(self):
        op = ConditionOperator("full", {"W": np.stack([np.eye(4), 2 * np.eye(4)])})
        assert operator_frobenius_normalized(op) == pytest.approx([2 / 4, 4 / 4])

    def test_diagonal_value(self):
        H = rng.normal(size=(2, 9))
        assert operator_frobenius_normalized(generate_stack("hadamard", {}, H)) == pytest.approx(
            np.linalg.norm(H, axis=1) / 3
        )

    def test_factored_blockwise_matches_densified(self):
        for seed in range(5):
            p = init_params("lowrank", 10, nk=4, seed=seed)
            H = np.random.default_rng(seed).normal(size=(3, 10))
            op = generate_stack(p.mode, p.tensors, H)
            dense_norms = [np.linalg.norm(W) for W in densify(op)]
            assert operator_frobenius_normalized(op) == pytest.approx(
                np.array(dense_norms) / np.sqrt(2 * 10 * 4), rel=1e-10
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
        for name, arr in p.tensors.items():
            expected = np.asarray(arr, dtype=np.float32).astype(np.float64)
            assert np.array_equal(loaded.tensors[name], expected)
        assert extras["tau_kgc"] == pytest.approx(0.05, abs=1e-9)

    def test_header_holds_the_generator_and_the_manifest_only(self, tmp_path):
        for mode in MODES:
            path = tmp_path / f"{mode}.ckpt"
            save_checkpoint(path, init_params(mode, 4, seed=0), {"tau_kgc": np.array(0.05)})
            header, _ = _split_checkpoint(path)
            assert list(header) == ["mode", "nh", "nk", "tensors"]

    @pytest.mark.parametrize("dropout_p", [0.1, float("nan"), "0.1"])
    def test_a_header_carrying_dropout_p_loads_as_without_it(self, tmp_path, dropout_p):
        # Files written while the header held concat's dropout rate load as before;
        # the rate is training policy, so the field is read by nothing.
        path = _lowrank_checkpoint(tmp_path / "m.ckpt")
        want, want_extras = load_checkpoint(path)
        header, payload = _split_checkpoint(path)
        _write_checkpoint(path, {**header, "dropout_p": dropout_p}, payload)
        got, extras = load_checkpoint(path)
        assert (got.mode, got.nh, got.nk) == (want.mode, want.nh, want.nk)
        for name in want.tensors:
            assert np.array_equal(got.tensors[name], want.tensors[name])
        assert list(extras) == list(want_extras) == ["tau_kgc"]
        assert np.array_equal(extras["tau_kgc"], want_extras["tau_kgc"])

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

    def test_load_holds_the_float64_tensors_and_one_chunk(self, tmp_path):
        # full nh=160 is 4.1M values, about four chunks.
        path = tmp_path / "m.ckpt"
        p = init_params("full", 160, seed=0)
        save_checkpoint(path, p)
        values = param_count(p)
        del p
        peak = traced_peak(load_checkpoint, path)
        # float64 tensors, the float32 read buffer and its finiteness mask
        assert peak < 8 * values + 5 * hypernet.CHUNK_VALUES + 64 * 1024

    def test_save_holds_one_chunk(self, tmp_path):
        p = init_params("full", 160, seed=0)
        peak = traced_peak(save_checkpoint, tmp_path / "m.ckpt", p, {"tau_kgc": np.array(0.05)})
        assert peak < 4 * hypernet.CHUNK_VALUES + 64 * 1024


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


def _later_chunk_non_finite(path, value):
    """The lowrank checkpoint with ``value`` as the last value of U2 (32 values)."""
    header, payload = _split_checkpoint(_lowrank_checkpoint(path))
    (u2,) = (e for e in header["tensors"] if e["name"] == "U2")
    at = u2["offset"] + 4 * 31
    bad = np.array([value], "<f4").tobytes()
    _write_checkpoint(path, header, payload[:at] + bad + payload[at + 4 :])
    return path


def _cut_inside_u2(path):
    """The lowrank checkpoint cut after the first 20 of U2's 32 values."""
    header, payload = _split_checkpoint(_lowrank_checkpoint(path))
    (u2,) = (e for e in header["tensors"] if e["name"] == "U2")
    _write_checkpoint(path, header, payload[: u2["offset"] + 4 * 20])
    return path


def _zero_sized_checkpoint(path, shape):
    """The lowrank checkpoint with its extra tensor's shape set to ``shape``."""
    header, payload = _split_checkpoint(_lowrank_checkpoint(path))
    (extra,) = (e for e in header["tensors"] if e["name"] == "tau_kgc")
    extra["shape"] = shape
    _write_checkpoint(path, header, payload)
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
    "tensors-object": _set("tensors", {}),
    "tensors-entry-int": _set("tensors", [1]),
    "entry-no-offset": lambda h: h["tensors"][0].pop("offset"),
    "entry-negative-offset": _set_entry(0, "offset", -4),
    "entry-float-offset": _set_entry(0, "offset", 0.5),
    "entry-name-int": _set_entry(0, "name", 3),
    "entry-shape-string": _set_entry(0, "shape", "8,4"),
    "entry-shape-negative": _set_entry(0, "shape", [-8, -4]),
    "entry-shape-wrong": _set_entry(0, "shape", [4, 8]),
    "entry-shape-zero-too-big": _set_entry(0, "shape", [0, 2**62]),
    "entry-shape-zero-beyond-intp": _set_entry(0, "shape", [0, 2**70]),
    "entry-renamed": _set_entry(0, "name", "V1"),
    "entry-duplicate": lambda h: h["tensors"].append(dict(h["tensors"][0])),
}


def _tiny_checkpoint_blob(mode, root):
    path = root / f"tiny-{mode}.ckpt"
    if not path.exists():
        save_checkpoint(path, init_params(mode, 3, nk=2 if mode == "lowrank" else None, seed=0))
    return path.read_bytes()


class TestCheckpointFormatErrors:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mode=st.sampled_from(["full", "lowrank"]), data=st.data())
    def test_header_byte_edit_or_truncation_is_format_error_or_loads(
        self, tmp_path_factory, mode, data
    ):
        # Any single-byte edit or truncation inside the magic, the length
        # field or the JSON header: FormatError or a clean load, nothing else.
        root = tmp_path_factory.getbasetemp()
        blob = _tiny_checkpoint_blob(mode, root)
        header_end = 16 + struct.unpack("<Q", blob[8:16])[0]
        pos = data.draw(st.integers(0, header_end - 1), label="pos")
        if data.draw(st.booleans(), label="truncate"):
            bad = blob[:pos]
        else:
            byte = data.draw(st.integers(0, 255).filter(lambda b: b != blob[pos]), label="byte")
            bad = blob[:pos] + bytes([byte]) + blob[pos + 1 :]
        path = root / f"fuzzed-{mode}.ckpt"
        path.write_bytes(bad)
        try:
            params, _ = load_checkpoint(path)
        except FormatError:
            return
        assert params.mode in MODES and param_count(params) > 0


    @pytest.mark.parametrize("edit", HEADER_EDITS.values(), ids=HEADER_EDITS.keys())
    def test_header_edit_raises_format_error(self, tmp_path, edit):
        path = _lowrank_checkpoint(tmp_path / "m.ckpt")
        header, payload = _split_checkpoint(path)
        edit(header)
        _write_checkpoint(path, header, payload)
        with pytest.raises(FormatError):
            load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[0, 2**62], [0, 2**70], [0] + [1] * 64])
    def test_a_shape_no_array_can_take_names_the_tensor(self, tmp_path, shape):
        # A zero dimension needs no payload, so only the shape check refuses these.
        path = _zero_sized_checkpoint(tmp_path / "m.ckpt", shape)
        with pytest.raises(FormatError, match="tensor 'tau_kgc' has shape"):
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

    @pytest.mark.parametrize("chunk", [1, 3, 7, 16])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_in_a_later_chunk_names_the_tensor(
        self, tmp_path, monkeypatch, chunk, value
    ):
        monkeypatch.setattr(hypernet, "CHUNK_VALUES", chunk)
        path = _later_chunk_non_finite(tmp_path / "m.ckpt", value)
        with pytest.raises(FormatError, match="'U2' holds non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("chunk", [1, 3, 7, 16])
    def test_payload_cut_inside_a_later_chunk_is_truncation(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(hypernet, "CHUNK_VALUES", chunk)
        path = _cut_inside_u2(tmp_path / "m.ckpt")
        with pytest.raises(FormatError, match="payload truncated for tensor 'U2'"):
            load_checkpoint(path)

    @pytest.mark.parametrize("chunk", [1, 3, 7, 16, hypernet.CHUNK_VALUES])
    def test_offsets_out_of_file_order_load_equal(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(hypernet, "CHUNK_VALUES", chunk)
        in_order = _lowrank_checkpoint(tmp_path / "in-order.ckpt")
        header, payload = _split_checkpoint(in_order)
        # Write the payloads in reverse manifest order; the manifest keeps its order.
        pieces, end = [], 0
        for entry in reversed(header["tensors"]):
            size = 4 * int(np.prod(entry["shape"]))
            pieces.append(payload[entry["offset"] : entry["offset"] + size])
            entry["offset"], end = end, end + size
        _write_checkpoint(tmp_path / "reversed.ckpt", header, b"".join(pieces))
        params, extras = load_checkpoint(in_order)
        got, got_extras = load_checkpoint(tmp_path / "reversed.ckpt")
        assert list(got.tensors) == list(params.tensors) and list(got_extras) == list(extras)
        for name, arr in {**params.tensors, **extras}.items():
            assert np.array_equal({**got.tensors, **got_extras}[name], arr)

    def test_short_read_is_truncation(self, tmp_path, monkeypatch):
        # The file shrinks after its size was taken: the second chunk read
        # comes back one byte short.
        class ShortReader(io.BufferedReader):
            reads = 0

            def readinto(self, buffer):
                self.reads += 1
                view = memoryview(buffer).cast("B")
                return super().readinto(view[:-1] if self.reads == 2 else view)

        monkeypatch.setattr(hypernet, "CHUNK_VALUES", 5)
        monkeypatch.setattr(
            hypernet, "open", lambda path, mode: ShortReader(io.FileIO(path, mode)), raising=False
        )
        path = _lowrank_checkpoint(tmp_path / "m.ckpt")
        with pytest.raises(FormatError, match="payload truncated for tensor 'U1'"):
            load_checkpoint(path)

    def test_wrong_rank_is_rejected_under_optimize(self, tmp_path):
        path = _lowrank_checkpoint(tmp_path / "m.ckpt")
        header, payload = _split_checkpoint(path)
        header["nk"] = 1
        _write_checkpoint(path, header, payload)
        nan = _later_chunk_non_finite(tmp_path / "nan.ckpt", np.nan)
        cut = _cut_inside_u2(tmp_path / "cut.ckpt")
        huge = [_zero_sized_checkpoint(tmp_path / f"z{e}.ckpt", [0, 2**e]) for e in (62, 70)]
        # Under -O as well: a checkpoint's header and payloads, a NaN and a cut
        # in a later chunk and shapes no array can take included, the rows
        # entering an operator (width, finiteness and each row's operator
        # index, in apply_stack and in grouped_matmul), and the rules
        # of a generator.
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from condcl.errors import DimensionMismatchError, FormatError\n"
            "from condcl import hypernet\n"
            "from condcl.autodiff import grouped_matmul\n"
            "from condcl.hypernet import ConditionOperator, apply_stack, init_params, load_checkpoint\n"
            "def raises(error, call, *args):\n"
            "    try:\n"
            "        call(*args)\n"
            "    except error:\n"
            "        return True\n"
            "    return False\n"
            "op = ConditionOperator('full', {'W': np.eye(4)[None]})\n"
            "hypernet.CHUNK_VALUES = 3\n"
            "bad = [[0], [0, 0.0], [0, -1], [0, 1], -1, 1]\n"
            "checks = [\n"
            "    raises(FormatError, load_checkpoint, sys.argv[1]),\n"
            "    raises(FormatError, load_checkpoint, sys.argv[2]),\n"
            "    raises(FormatError, load_checkpoint, sys.argv[3]),\n"
            "    raises(FormatError, load_checkpoint, sys.argv[4]),\n"
            "    raises(FormatError, load_checkpoint, sys.argv[5]),\n"
            "    raises(DimensionMismatchError, apply_stack, op, np.ones(5), 0),\n"
            "    raises(ValueError, apply_stack, op, np.full((2, 4), np.nan), 0),\n"
            "    *(raises(ValueError, apply_stack, op, np.ones((2, 4)), w) for w in bad),\n"
            "    *(raises(ValueError, grouped_matmul, np.ones((2, 4)), op.arrays['W'], w) for w in bad),\n"
            "    raises(ValueError, init_params, 'lowrank', 8, 2.5),\n"
            "]\n"
            "print(checks)\n"
            "sys.exit(0 if all(checks) else 1)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(condcl.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code, *map(str, (path, nan, cut, *huge))],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
