import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condcl.encoder import (
    EmbeddingStore,
    HashingProvider,
    StoreProvider,
    hash_encode,
    load_embeddings,
    save_embeddings,
)
from condcl.errors import FormatError, MissingEmbeddingError


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

    def test_rounds_add_work_but_stay_deterministic(self):
        p1 = HashingProvider(dim=16, seed=3, rounds=5)
        p2 = HashingProvider(dim=16, seed=3, rounds=5)
        assert np.array_equal(p1.embed("query text"), p2.embed("query text"))
        assert np.linalg.norm(p1.embed("query text")) == pytest.approx(1.0, abs=1e-12)
