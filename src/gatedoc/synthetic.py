"""Synthetic two-class corpus for desk-scale verification.

Documents come in confound pairs: the two documents of a pair share the
same five distractor sentences at the same positions and differ only in
the key sentence (positive pool vs negative pool), so distractor content
carries exactly zero label information, on the population and on any
split.  Each distractor is a loud alternation of one positive and one
negative token.  At desk scale (5 epochs, seeds 0-4) the model without a
gate reaches the same test accuracy.  A trained model detects the keys
of one class, which varies by seed: that class's key gets the top gate
in 69-100% of its documents, the other class's in about 0%.

Records carry the key sentence's index so tests can compare gate scores
of key vs distractor sentences.  Labels use the three_way scheme:
score 1 (negative) or 5 (positive); the neutral class exists in the
output space but never as gold.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

NEGATIVE_TOKENS = tuple(f"neg{i}" for i in range(12))
POSITIVE_TOKENS = tuple(f"pos{i}" for i in range(12))

NEGATIVE_SCORE = 1  # three_way class 0
POSITIVE_SCORE = 5  # three_way class 2


@dataclass(frozen=True)
class SyntheticRecord:
    id: str
    text: str
    score: int
    key_index: int  # sentence index of the key sentence


def _finish(tokens):
    words = list(tokens)
    words[0] = words[0].capitalize()  # capital start keeps the segmenter splitting
    return " ".join(words) + "."


def _draw(rng, pool, n):
    return [pool[i] for i in rng.integers(0, len(pool), size=n)]


def _distractor(rng):
    pos = POSITIVE_TOKENS[int(rng.integers(0, len(POSITIVE_TOKENS)))]
    neg = NEGATIVE_TOKENS[int(rng.integers(0, len(NEGATIVE_TOKENS)))]
    return _finish([pos, neg] * int(rng.integers(6, 10)))


def generate_key_sentence_corpus(n_docs, seed, n_distractors=5):
    """Balanced two-class documents, one key sentence each, in confound pairs."""
    rng = np.random.default_rng(seed)
    records = []
    for pair in range((n_docs + 1) // 2):
        distractors = [_distractor(rng) for _ in range(n_distractors)]
        key_index = int(rng.integers(0, n_distractors + 1))
        for label in (0, 1):
            i = 2 * pair + label
            if i == n_docs:  # odd count: the last pair has only its negative
                break
            pool = POSITIVE_TOKENS if label else NEGATIVE_TOKENS
            key = _finish(_draw(rng, pool, int(rng.integers(4, 7))))
            sentences = list(distractors)
            sentences.insert(key_index, key)
            records.append(
                SyntheticRecord(
                    id=f"synth-{i:05d}",
                    text=" ".join(sentences),
                    score=POSITIVE_SCORE if label else NEGATIVE_SCORE,
                    key_index=key_index,
                )
            )
    return records


def write_corpus(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(asdict(rec), sort_keys=True) + "\n")
