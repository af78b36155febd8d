"""Workload definitions: model config, corpus generator, split sizes and
BLAS thread count for each named workload.  Why each workload exists is
recorded in BENCHMARK.json and README.md.

This module imports neither numpy nor gatedoc at import time, so
`run.py` can read a workload's thread count and set the BLAS
environment before numpy loads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

# Table-3 full-scale dimensions (the paper's Table 3) with the Table-3
# learning rate; batch size stays at the desk default so that an Adam
# step follows every 8 documents at both scales.
FULL_SCALE = dict(
    d_tok=128, d_h=768, n_heads=12, d_g=768, d_class_hidden=300, learning_rate=2e-5
)

ZIPF_WORDS = 20000  # the max_vocab cap
ZIPF_EXPONENT = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    blas_threads: str  # a count, or "nproc"
    corpus: str  # "key_sentence" or "zipf"
    n_sentences: int  # per document
    epochs: int
    n_train: int
    n_dev: int
    n_predict: int  # at least 100, so that p90 over documents has 10 beyond it
    n_vocab_only: int = 0  # extra corpus documents that only feed build_vocab
    overrides: dict = field(default_factory=dict)

    def threads(self):
        if self.blas_threads == "nproc":
            return len(os.sched_getaffinity(0))
        return int(self.blas_threads)

    def n_docs(self):
        return self.n_train + self.n_dev + self.n_predict + self.n_vocab_only

    def config(self, seed):
        from gatedoc.config import TrainConfig

        # patience >= max_epochs: early stopping never changes the work done
        return TrainConfig(
            seed=seed, max_epochs=self.epochs, patience=self.epochs, **self.overrides
        ).validate()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="desk-train",
            blas_threads="1",
            corpus="key_sentence",
            n_sentences=6,
            epochs=2,
            n_train=64,
            n_dev=16,
            n_predict=100,
        ),
        Workload(
            name="full-train",
            blas_threads="nproc",
            corpus="zipf",
            n_sentences=6,
            epochs=1,
            n_train=8,
            n_dev=4,
            n_predict=100,
            n_vocab_only=4000,
            overrides=FULL_SCALE,
        ),
        Workload(
            name="long-predict",
            blas_threads="1",
            corpus="key_sentence",
            n_sentences=30,
            epochs=1,
            n_train=16,
            n_dev=4,
            n_predict=100,
        ),
    )
}


def _zipf_corpus(n_docs, seed, n_sentences):
    """Two-class documents of Zipf-distributed words in the key-sentence shape."""
    import numpy as np

    from gatedoc.synthetic import NEGATIVE_SCORE, POSITIVE_SCORE, SyntheticRecord

    rng = np.random.default_rng([seed, 1])
    weights = 1.0 / np.arange(1, ZIPF_WORDS + 1) ** ZIPF_EXPONENT
    cdf = np.cumsum(weights / weights.sum())
    words = [f"w{i:05d}" for i in range(ZIPF_WORDS)]
    records = []
    for i in range(n_docs):
        sentences = []
        for length in rng.integers(12, 19, size=n_sentences):
            ranks = np.searchsorted(cdf, rng.random(length), side="right")
            toks = [words[min(r, ZIPF_WORDS - 1)] for r in ranks]
            toks[0] = toks[0].capitalize()  # keeps the segmenter splitting
            sentences.append(" ".join(toks) + ".")
        records.append(
            SyntheticRecord(
                id=f"zipf-{i:05d}",
                text=" ".join(sentences),
                score=POSITIVE_SCORE if i % 2 else NEGATIVE_SCORE,
                key_index=0,
            )
        )
    return records


def write_corpus(workload, seed, path):
    """Write the workload's seeded corpus as JSON lines; same seed, same bytes."""
    from gatedoc import synthetic

    if workload.corpus == "zipf":
        records = _zipf_corpus(workload.n_docs(), seed, workload.n_sentences)
    else:
        records = synthetic.generate_key_sentence_corpus(
            workload.n_docs(), seed, n_distractors=workload.n_sentences - 1
        )
    synthetic.write_corpus(records, path)
