import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import condcl
from condcl.cache import JOINT_KEY_SEP
from condcl.encoder import (
    HASH_BLOCK,
    EmbeddingStore,
    HashingProvider,
    StoreProvider,
    hash_encode,
    load_embeddings,
    save_embeddings,
)
from condcl.errors import FormatError, MissingEmbeddingError

# -- frozen reference: the per-token, per-round hashing encoder, kept as it was ----------


def _token_hash(token: str, seed: int, salt: bytes) -> int:
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(token.encode("utf-8"), key=key, salt=salt, digest_size=8)
    return int.from_bytes(digest.digest(), "little")


def reference_hash_encode(text: str, dim: int, seed: int) -> np.ndarray:
    if dim < 2:
        raise ValueError("hash_encode requires dim >= 2")
    tokens = text.lower().split()
    v = np.zeros(dim, dtype=np.float64)
    if not tokens:
        v[0] = 1.0
        return v
    for tok in tokens:
        idx = _token_hash(tok, seed, b"idx") % dim
        sign = 1.0 if _token_hash(tok, seed, b"sgn") & 1 else -1.0
        v[idx] += sign
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        # Signed counts can cancel exactly; fall back to the defined empty case.
        v[0] = 1.0
        return v
    return v / norm


def reference_embed(text: str, dim: int, seed: int, rounds: int) -> np.ndarray:
    v = reference_hash_encode(text, dim, seed)
    if rounds == 1:
        return v
    for r in range(1, rounds):
        v = v + reference_hash_encode(text, dim, seed + r)
    norm = float(np.linalg.norm(v))
    return v / norm if norm > 0.0 else reference_hash_encode("", dim, seed)


def _bucket_and_sign(token: str, dim: int, seed: int) -> tuple[int, bool]:
    return _token_hash(token, seed, b"idx") % dim, bool(_token_hash(token, seed, b"sgn") & 1)


def cancelling_text(dim: int, seed: int) -> str:
    """Two tokens that share a bucket with opposite signs under ``seed``: their counts cancel."""
    seen: dict[tuple[int, bool], str] = {}
    for i in range(20000):
        token = f"w{i}"
        bucket, positive = _bucket_and_sign(token, dim, seed)
        if (bucket, not positive) in seen:
            return f"{seen[bucket, not positive]} {token}"
        seen.setdefault((bucket, positive), token)
    raise AssertionError("no cancelling pair found")


ORACLE_DIMS = (2, 3, 8, 768)
ORACLE_SEEDS = (0, 7, -3, 2**64 - 1, 2**64 + 5)
ORACLE_ROUNDS = (1, 2, 5, 64, 130)  # 130 spans three blocks of rounds
ORACLE_TEXTS = (
    "",
    "  \t\n ",
    "the cat sat" + JOINT_KEY_SEP + "is about animals",
    "echo echo echo echo",
    "MiXeD Case mixed CASE",
    "naïve café — 東京 ß",
)


class TestFrozenOracle:
    """The provider's output equals the frozen reference bit for bit."""

    @pytest.mark.parametrize("rounds", ORACLE_ROUNDS)
    @pytest.mark.parametrize("dim", ORACLE_DIMS)
    def test_matches_reference(self, dim, rounds):
        for seed in ORACLE_SEEDS:
            provider = HashingProvider(dim, seed, rounds)
            # Counts cancel in the last round, which for 130 rounds is in the third block.
            texts = (*ORACLE_TEXTS, cancelling_text(dim, seed + rounds - 1))
            for text in texts:
                assert np.array_equal(provider.embed(text), reference_embed(text, dim, seed, rounds))
            if rounds == 1:
                for text in texts:
                    assert np.array_equal(hash_encode(text, dim, seed), reference_embed(text, dim, seed, 1))

    def test_cancelling_text_cancels(self):
        for dim in ORACLE_DIMS:
            text = cancelling_text(dim, 7)
            assert reference_hash_encode(text, dim, 7).tolist() == [1.0] + [0.0] * (dim - 1)
            assert np.array_equal(hash_encode(text, dim, 7), reference_hash_encode(text, dim, 7))

    def test_rounds_that_cancel_each_other_give_e0(self):
        # One token whose two round vectors are opposite: the sum has norm 0.
        token = next(
            t for t in (f"t{i}" for i in range(1000))
            if _bucket_and_sign(t, 2, 0)[0] == _bucket_and_sign(t, 2, 1)[0]
            and _bucket_and_sign(t, 2, 0)[1] != _bucket_and_sign(t, 2, 1)[1]
        )
        assert reference_embed(token, 2, 0, 2).tolist() == [1.0, 0.0]
        assert np.array_equal(HashingProvider(2, 0, 2).embed(token), reference_embed(token, 2, 0, 2))

    @given(
        st.text(max_size=60),
        st.sampled_from(ORACLE_DIMS),
        st.integers(-(2**65), 2**65),
        st.sampled_from((1, 2, 3, 64, 65)),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_any_text(self, text, dim, seed, rounds):
        got = HashingProvider(dim, seed, rounds).embed(text)
        assert np.array_equal(got, reference_embed(text, dim, seed, rounds))


class TestHashEncode:
    def test_empty_text_is_e0(self):
        assert hash_encode("", 8, 0).tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_whitespace_only_is_e0(self):
        assert hash_encode("   \t ", 8, 3).tolist() == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_deterministic(self):
        a = hash_encode("the quick brown fox", 16, 42)
        b = hash_encode("the quick brown fox", 16, 42)
        assert np.array_equal(a, b)

    def test_seed_changes_output(self):
        a = hash_encode("the quick brown fox", 16, 1)
        b = hash_encode("the quick brown fox", 16, 2)
        assert not np.array_equal(a, b)

    def test_bag_of_words(self):
        assert np.array_equal(hash_encode("a b", 32, 0), hash_encode("b a", 32, 0))

    def test_case_folding(self):
        assert np.array_equal(hash_encode("Apple Pie", 32, 5), hash_encode("apple pie", 32, 5))

    def test_min_dim(self):
        with pytest.raises(ValueError):
            hash_encode("x", 1, 0)

    @given(st.text(min_size=1, max_size=40), st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_unit_norm(self, text, seed):
        v = hash_encode(text, 16, seed)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


class TestStore:
    def test_add_and_lookup(self):
        store = EmbeddingStore(3)
        store.add("x", [1.0, 2.0, 3.0])
        assert "x" in store
        assert store["x"].tolist() == [1.0, 2.0, 3.0]

    def test_exact_string_keying(self):
        store = EmbeddingStore(2)
        store.add("x", [1.0, 0.0])
        assert "X" not in store
        assert " x" not in store

    def test_missing_raises(self):
        store = EmbeddingStore(2)
        with pytest.raises(MissingEmbeddingError):
            store["nope"]

    def test_stored_vectors_are_read_only(self):
        store = EmbeddingStore(2)
        store.add("x", [1.0, 0.0])
        with pytest.raises(ValueError):
            store["x"][0] = 5.0


class TestJsonlRoundTrip:
    def test_load_two_lines(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        p.write_text(
            json.dumps({"text": "a", "embedding": [1.0, 2.0]})
            + "\n"
            + json.dumps({"text": "b", "embedding": [3.0, 4.0]})
            + "\n"
        )
        store = load_embeddings(p)
        assert len(store) == 2
        assert store.dim == 2

    def test_inconsistent_dim(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        p.write_text(
            json.dumps({"text": "a", "embedding": [1.0, 2.0, 3.0, 4.0]})
            + "\n"
            + json.dumps({"text": "b", "embedding": [1.0, 2.0, 3.0, 4.0, 5.0]})
            + "\n"
        )
        with pytest.raises(FormatError, match=":2:"):
            load_embeddings(p)

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        p.write_text(json.dumps({"text": "a", "embedding": [1.0]}) + "\n{bad json\n")
        with pytest.raises(FormatError, match=":2:"):
            load_embeddings(p)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e39"])
    def test_non_finite_value_reports_lineno(self, tmp_path, value):
        p = tmp_path / "emb.jsonl"
        good = json.dumps({"text": "a", "embedding": [1.0, 2.0]})
        p.write_text(good + "\n" + '{"text": "b", "embedding": [%s, 1.0]}\n' % value)
        with pytest.raises(FormatError, match=r":2: embedding holds non-finite values"):
            load_embeddings(p)

    @pytest.mark.parametrize(
        "embedding",
        ["[{}]", '["x"]', "[[1.0], [2.0, 3.0]]", "[[1.0, 2.0]]", "[true, 1.0]", "[]", "{}", "null"],
    )
    def test_non_numeric_embedding_reports_lineno(self, tmp_path, embedding):
        p = tmp_path / "emb.jsonl"
        good = json.dumps({"text": "a", "embedding": [1.0, 2.0]})
        p.write_text(good + "\n" + '{"text": "b", "embedding": %s}\n' % embedding)
        with pytest.raises(FormatError, match=":2:"):
            load_embeddings(p)

    def test_integer_values_load_and_beyond_float_range_is_non_finite(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        p.write_text('{"text": "a", "embedding": [1, -2]}\n')
        assert load_embeddings(p)["a"].tolist() == [1.0, -2.0]
        p.write_text('{"text": "a", "embedding": [1, %s]}\n' % ("9" * 400))
        with pytest.raises(FormatError, match=r":1: embedding holds non-finite values"):
            load_embeddings(p)

    def test_non_string_text_reports_lineno(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        p.write_text('{"text": 1, "embedding": [1.0]}\n')
        with pytest.raises(FormatError, match=":1:"):
            load_embeddings(p)

    def test_duplicate_text(self, tmp_path):
        p = tmp_path / "emb.jsonl"
        rec = json.dumps({"text": "a", "embedding": [1.0, 2.0]})
        p.write_text(rec + "\n" + rec + "\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_embeddings(p)

    def test_round_trip_bit_exact_at_f32(self, tmp_path):
        rng = np.random.default_rng(7)
        store = EmbeddingStore(5)
        for i in range(10):
            store.add(f"t{i}", rng.normal(size=5))
        p = tmp_path / "emb.jsonl"
        save_embeddings(store, p)
        loaded = load_embeddings(p)
        for text, vec in store.items():
            expected = np.asarray(vec, dtype=np.float32).astype(np.float64)
            assert np.array_equal(loaded[text], expected)
        # a second round trip is the identity
        p2 = tmp_path / "emb2.jsonl"
        save_embeddings(loaded, p2)
        loaded2 = load_embeddings(p2)
        for text, vec in loaded.items():
            assert np.array_equal(loaded2[text], vec)

    def test_written_text_equals_the_per_scalar_float32_formula(self, tmp_path):
        # Files written before the vectorized writer (benchmark inputs among them)
        # keep their bytes: each value is written as float(np.float32(x)).
        edges = [0.0, -0.0, 1e-45, 1.4e-45, 7e-46, 5e-324, 1e-40, 1.1754942e-38, 1.17549435e-38]
        edges += [0.1, 1 / 3, 2.0**-149, 3.4028234e38, 3.4e38, 65504.0, 16777217.0]
        values = np.concatenate([np.logspace(-45, np.log10(3.4e38), 10_000), edges])
        values = np.concatenate([values, -values, [0.0] * (-2 * len(values) % 16)])
        store = EmbeddingStore(16)
        for i, vec in enumerate(values.reshape(-1, 16)):
            store.add(f"t{i}", vec)
        p = tmp_path / "emb.jsonl"
        save_embeddings(store, p)
        want = "".join(
            json.dumps({"text": text, "embedding": [float(np.float32(x)) for x in vec]}) + "\n"
            for text, vec in store.items()
        )
        assert p.read_text(encoding="utf-8") == want


class TestProviders:
    def test_store_provider_hit(self):
        store = EmbeddingStore(2)
        store.add("x", [0.5, 0.5])
        p = StoreProvider(store)
        assert p.embed("x").tolist() == [0.5, 0.5]

    def test_store_provider_miss_is_error(self):
        p = StoreProvider(EmbeddingStore(2))
        with pytest.raises(MissingEmbeddingError):
            p.embed("absent")

    def test_hashing_provider_delegates(self):
        p = HashingProvider(dim=16, seed=9)
        assert np.array_equal(p.embed("hello world"), hash_encode("hello world", 16, 9))

    def test_hashing_provider_pure(self):
        p = HashingProvider(dim=8, seed=1)
        assert np.array_equal(p.embed("abc def"), p.embed("abc def"))

    def test_set_up_is_bounded_by_one_block_of_rounds(self):
        # Never embed with it: that would hash 10**9 rounds.
        p = HashingProvider(8, rounds=10**9)
        assert p.rounds == 10**9
        assert len(p._hashers) == 2 * HASH_BLOCK

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 1},
            {"dim": 0},
            {"dim": True},
            {"dim": 8.0},
            {"dim": "8"},
            {"dim": 8, "seed": 1.5},
            {"dim": 8, "seed": True},
            {"dim": 8, "seed": None},
            {"dim": 8, "rounds": 0},
            {"dim": 8, "rounds": -2},
            {"dim": 8, "rounds": 2.5},
            {"dim": 8, "rounds": True},
        ],
    )
    def test_bad_arguments_are_refused_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            HashingProvider(**kwargs)

    def test_numpy_integers_are_accepted(self):
        p = HashingProvider(np.int64(8), np.int32(3), np.int64(2))
        assert (p.dim, p.seed, p.rounds) == (8, 3, 2)
        assert np.array_equal(p.embed("a b"), reference_embed("a b", 8, 3, 2))

    def test_bad_arguments_are_refused_under_optimize(self):
        code = (
            "import sys\n"
            "from condcl.encoder import HashingProvider\n"
            "def refused(**kwargs):\n"
            "    try:\n"
            "        HashingProvider(**kwargs)\n"
            "    except ValueError:\n"
            "        return True\n"
            "    return False\n"
            "checks = [refused(dim=1), refused(dim=True), refused(dim=8, seed=0.5),\n"
            "          refused(dim=8, rounds=2.5), refused(dim=8, rounds=True), refused(dim=8, rounds=0)]\n"
            "print(checks)\n"
            "sys.exit(0 if all(checks) else 1)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(condcl.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True, timeout=120
        )
        assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()

    def test_rounds_add_work_but_stay_deterministic(self):
        p1 = HashingProvider(dim=16, seed=3, rounds=5)
        p2 = HashingProvider(dim=16, seed=3, rounds=5)
        assert np.array_equal(p1.embed("query text"), p2.embed("query text"))
        assert np.linalg.norm(p1.embed("query text")) == pytest.approx(1.0, abs=1e-12)
