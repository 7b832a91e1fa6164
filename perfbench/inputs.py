"""Input generation for the condcl benchmark.

Run as a separate process by ``run.py`` so that the memory and time spent
building inputs never count toward the measured process:

    python3 perfbench/inputs.py --workload eval-paper --seed 3 --out DIR

Every input is a deterministic function of (workload, seed, sizes) and is
written as the files a user would hand to condcl: embedding JSONL, C-STS
JSONL, triple TSV, a HYPERCL1 checkpoint, or a request TSV.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Sizes:
    """Every size a workload depends on, in one place."""

    # train-small
    train_nh: int = 64
    train_batch: int = 32
    train_csts_pairs: int = 400
    train_kg_entities: int = 200
    # train.tsv keeps its first 160 triples (5 batches of 32): the generator
    # yields 173-202 over seeds 0-299, and a KGC batch's pre-batch negatives
    # grow with the batches before it, so with every triple kept the seeds
    # with the fewest ran up to 6% more examples/s.
    train_kg_triples: int = 160
    conditions: int = 4
    relations: int = 4
    # eval-paper and serve-stream share the paper-scale generator
    paper_nh: int = 768
    paper_nk: int = 64
    eval_kg_entities: int = 1000
    eval_csts_pairs: int = 1000
    eval_triples_per_call: int = 8
    # serve-stream. Pool and exponents are calibrated to the cache mix of a
    # reference stream of 4000 requests over 16 conditions: hyper missed 744
    # of 8000 lookups (9.3%) and bi 1376 of 4000 (34.4%). A grid search (pool
    # 2000-3000, sentence exponent 1.38-1.49, condition exponent 0.6-1.3)
    # picked these; seeds 101-110 give 9.25% and 34.2% (test_perfbench checks
    # the shares).
    serve_pool: int = 2000
    serve_conditions: int = 16
    serve_requests: int = 1000
    serve_sentence_zipf: float = 1.43
    serve_condition_zipf: float = 1.1
    serve_sentence_words: int = 10
    serve_condition_words: int = 3
    serve_heavy_rounds: int = 64
    serve_sample: int = 64
    # repetitions of set-up whose median is setup_s
    setup_reps: int = 3


# Small enough for the benchmark's own tests to run every workload in seconds.
TINY = Sizes(
    train_nh=16,
    train_batch=8,
    train_csts_pairs=24,
    train_kg_entities=40,
    train_kg_triples=24,
    paper_nh=32,
    paper_nk=4,
    eval_kg_entities=60,
    eval_csts_pairs=30,
    eval_triples_per_call=4,
    serve_pool=60,
    serve_conditions=4,
    serve_requests=200,
    serve_heavy_rounds=2,
    serve_sample=8,
    setup_reps=2,
)

CHECKPOINT = "generator.ckpt"
REQUESTS = "requests.tsv"
CSTS_DATA = "csts.jsonl"
CSTS_EMB = "csts_embeddings.jsonl"
KG_EMB = "kg_embeddings.jsonl"
KG_SPLITS = ("train", "valid", "test")


def _kg_files(
    out: Path, condcl, n_entities: int, n_relations: int, nh: int, seed: int, n_train=None
) -> None:
    """Triple TSVs and entity embeddings; ``n_train`` caps the train split."""
    trainer = condcl.trainer
    dataset, store = trainer.make_synthetic_kg(n_entities, n_relations, nh, seed)
    for split in KG_SPLITS:
        triples = getattr(dataset, split)
        if split == "train":
            triples = triples[:n_train]
        trainer.save_kg_tsv(triples, out / f"{split}.tsv")
    condcl.encoder.save_embeddings(store, out / KG_EMB)


def _csts_files(out: Path, condcl, n_pairs: int, n_conditions: int, nh: int, seed: int) -> None:
    quads, store = condcl.trainer.make_synthetic_csts(n_pairs, n_conditions, nh, seed)
    condcl.trainer.save_csts_jsonl(quads, out / CSTS_DATA)
    condcl.encoder.save_embeddings(store, out / CSTS_EMB)


def _checkpoint(out: Path, condcl, sizes: Sizes, seed: int) -> None:
    params = condcl.hypernet.init_params("lowrank", sizes.paper_nh, sizes.paper_nk, seed=seed)
    condcl.hypernet.save_checkpoint(out / CHECKPOINT, params)


def _words(rng, n: int, prefix: str) -> list[str]:
    letters = list("abcdefghijklmnopqrstuvwxyz")
    words = []
    for i in range(n):
        length = int(rng.integers(3, 9))
        words.append(prefix + "".join(rng.choice(letters, size=length)) + str(i))
    return words


def _zipf_draws(rng, n: int, exponent: float, draws: int):
    """``draws`` item indices whose counts follow a Zipf profile over ``n`` items.

    Counts come from systematic sampling of the expected counts, so the number
    of distinct items drawn barely moves with the seed; the seed picks which
    item has which popularity and the order of the draws.
    """
    import numpy as np

    weights = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** exponent
    cumulative = np.cumsum(weights / weights.sum() * draws)
    cumulative[-1] = draws
    edges = np.floor(np.concatenate([[0.0], cumulative]) + rng.random())
    counts = np.diff(edges).astype(np.int64)
    return rng.permutation(np.repeat(rng.permutation(n), counts))


def request_stream(sizes: Sizes, seed: int) -> list[tuple[str, str]]:
    """Zipf-popular sentences paired with Zipf-popular conditions.

    Every sentence has the same number of words, and so has every condition:
    the hashing encoder's cost grows with the word count, and fixed counts
    keep the work of a stream from depending on which sentences the seed
    makes popular.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 7])
    vocab = _words(rng, 2000, "")
    cond_vocab = _words(rng, 200, "c")
    pool = [
        " ".join(rng.choice(vocab, size=sizes.serve_sentence_words)) for _ in range(sizes.serve_pool)
    ]
    conditions = [
        " ".join(rng.choice(cond_vocab, size=sizes.serve_condition_words))
        for _ in range(sizes.serve_conditions)
    ]
    s_idx = _zipf_draws(rng, sizes.serve_pool, sizes.serve_sentence_zipf, sizes.serve_requests)
    c_idx = _zipf_draws(rng, sizes.serve_conditions, sizes.serve_condition_zipf, sizes.serve_requests)
    return [(pool[i], conditions[j]) for i, j in zip(s_idx, c_idx)]


def make_inputs(workload: str, seed: int, sizes: Sizes, out: Path) -> None:
    import condcl.encoder
    import condcl.hypernet
    import condcl.trainer

    out.mkdir(parents=True, exist_ok=True)
    if workload == "train-small":
        _csts_files(out, condcl, sizes.train_csts_pairs, sizes.conditions, sizes.train_nh, seed)
        _kg_files(
            out,
            condcl,
            sizes.train_kg_entities,
            sizes.relations,
            sizes.train_nh,
            seed,
            n_train=sizes.train_kg_triples,
        )
    elif workload == "eval-paper":
        _checkpoint(out, condcl, sizes, seed)
        _csts_files(out, condcl, sizes.eval_csts_pairs, sizes.conditions, sizes.paper_nh, seed)
        _kg_files(out, condcl, sizes.eval_kg_entities, sizes.relations, sizes.paper_nh, seed)
    elif workload == "serve-stream":
        _checkpoint(out, condcl, sizes, seed)
        with (out / REQUESTS).open("w", encoding="utf-8") as fh:
            for s, c in request_stream(sizes, seed):
                fh.write(f"{s}\t{c}\n")
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--sizes", default="{}", help="JSON object of Sizes overrides")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    sizes = Sizes(**json.loads(args.sizes))
    make_inputs(args.workload, args.seed, sizes, Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
