"""Text preprocessing: sentence segmentation, vocabulary, tokenization,
stream assembly, label bucketing, dataset loading and batching.

A document becomes the stream ``[CLS] s_1 [SEP] s_2 [SEP] ...`` where
each sentence is closed by a separator token whose encoder output later
serves as that sentence's embedding.
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError

logger = logging.getLogger(__name__)

RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[S]")
SPLIT_RATIOS = (0.8, 0.1, 0.1)  # train/dev/test shares of one corpus; test takes the rest
PAD_ID, UNK_ID, CLS_ID, SEP_ID, START_ID = range(5)

# Sentence boundaries are . ! ? followed by whitespace and then an
# uppercase letter, digit, or quote.  Periods closing these tokens never
# split; decimal points are protected implicitly because no whitespace
# follows them.
ABBREVIATIONS = frozenset(
    {"mr.", "mrs.", "ms.", "dr.", "prof.", "sr.", "jr.", "st.",
     "e.g.", "i.e.", "etc.", "vs.", "u.s."}
)
_QUOTES = "\"'“”‘’«»‹›"
# a terminator followed by whitespace; group 1 is the next non-space character
_BOUNDARY_RE = re.compile(r"[.!?](?=\s+(\S))")
# a token longer than every abbreviation cannot be one
_ABBREVIATION_SPAN = 1 + max(len(a) for a in ABBREVIATIONS)

_PUNCT_RE = re.compile(r"[^\w\s]")  # a punctuation mark: neither a word character nor whitespace

SCHEMES = {
    # scheme -> (min score, max score, number of classes)
    "ten_scale": (1, 10, 10),
    "three_way": (1, 5, 3),
}


@dataclass(frozen=True)
class RawDocument:
    id: str
    text: str
    score: int | None  # None: an unlabelled document


@dataclass(frozen=True)
class Limits:
    max_sentences: int
    max_stream_len: int


@dataclass
class Vocab:
    token_to_id: dict
    id_to_token: list

    def __len__(self):
        return len(self.id_to_token)


@dataclass
class TokenizedDocument:
    """A document ready for the encoder.

    `token_stream` starts with [CLS] and closes every sentence with a
    [SEP] whose position is recorded in `sep_positions`.
    """

    id: str
    sentences: list
    token_stream: list
    sep_positions: list
    sentence_spans: list
    label: int | None
    n_classes: int


@dataclass
class LoadedDataset:
    documents: list
    skipped: int


def scheme_n_classes(scheme):
    if scheme not in SCHEMES:
        raise UsageError(f"unknown label scheme {scheme!r}")
    return SCHEMES[scheme][2]


def bucket_label(score, scheme, doc_id=None):
    """Map an integer review score to a class index.

    ten_scale: class = score - 1.  three_way: <3 negative (0),
    =3 neutral (1), >3 positive (2).
    """
    scheme_n_classes(scheme)  # raises on unknown scheme
    lo, hi, _ = SCHEMES[scheme]
    if not isinstance(score, int) or isinstance(score, bool) or not lo <= score <= hi:
        where = f" in document {doc_id!r}" if doc_id else ""
        raise DataError(f"score {score!r} outside [{lo}, {hi}] for {scheme}{where}")
    if scheme == "ten_scale":
        return score - 1
    if score < 3:
        return 0
    if score == 3:
        return 1
    return 2


def segment_sentences(text):
    """Split text into (sentence, (start, end)) character spans.

    Splits after . ! ? followed by whitespace and an uppercase letter,
    digit, or quote, protecting the built-in abbreviation list.  Spans
    are disjoint, ordered, and cover every non-whitespace character;
    text with no terminator yields a single sentence.
    """
    if not text:
        raise UsageError("cannot segment empty text")
    cuts = [
        m.end()
        for m in _BOUNDARY_RE.finditer(text)
        if (m[1].isupper() or m[1].isdigit() or m[1] in _QUOTES)
        and not (m[0] == "." and _ends_in_abbreviation(text, m.end()))
    ]
    sentences = []
    for a, b in zip([0, *cuts], [*cuts, len(text)]):
        piece = text[a:b]
        start, end = a + len(piece) - len(piece.lstrip()), a + len(piece.rstrip())
        if end > start:
            sentences.append((text[start:end], (start, end)))
    return sentences


def _ends_in_abbreviation(text, end):
    """Whether the whitespace-delimited token that ends at `end` is an abbreviation."""
    return text[max(0, end - _ABBREVIATION_SPAN) : end].split()[-1].lower() in ABBREVIATIONS


def _spaced(match):
    return f" {match[0]} "


def tokenize_words(text):
    r"""Lowercased word tokens; punctuation marks are their own tokens.

    The tokens are those of ``re.findall(r"\w+|[^\w\s]", text.lower())``:
    every character is a word character, a space, or a punctuation mark
    (neither), so once each mark stands between spaces, splitting on
    whitespace leaves the runs of word characters and the marks alone.
    `str.split` and `re`'s ``\s`` call the same whitespace test
    (``Py_UNICODE_ISSPACE``).  One substitution and one split take about
    half the time of the alternation's ``findall``.
    """
    return _PUNCT_RE.sub(_spaced, text.lower()).split()


def tokenize(text, vocab):
    """Token ids for one sentence; out-of-vocabulary words map to [UNK]."""
    get = vocab.token_to_id.get
    return [get(tok, UNK_ID) for tok in tokenize_words(text)]


def build_vocab(corpus, min_freq, max_size):
    """Frequency-capped word vocabulary over raw documents.

    Ties at the size cap break lexicographically; identical corpora
    produce identical vocabularies.
    """
    corpus = list(corpus)
    if not corpus:
        raise UsageError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for doc in corpus:
        counts.update(tokenize_words(doc.text))
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_freq),
        key=lambda tok: (-counts[tok], tok),
    )[:max_size]
    return vocab_from_tokens(kept)


def vocab_from_tokens(tokens):
    id_to_token = list(RESERVED_TOKENS) + list(tokens)
    return Vocab(
        token_to_id={tok: i for i, tok in enumerate(id_to_token)},
        id_to_token=id_to_token,
    )


def assemble_document(
    tokenized_sentences, spans, limits, *, doc_id, label, n_classes
):
    """Build the [CLS]/[SEP] stream from per-sentence token ids.

    Empty sentences are dropped.  Sentences beyond the max-sentence
    limit are cut from the end; if the stream would still exceed the
    length limit, whole trailing sentences go first and the last kept
    sentence is truncated to fit its closing [SEP].
    """
    sents = [(list(ids), span) for ids, span in zip(tokenized_sentences, spans) if ids]
    if not sents:
        raise DataError(f"document {doc_id!r} has no tokens after tokenization")
    sents = sents[: limits.max_sentences]

    def total(items):
        return 1 + sum(len(ids) + 1 for ids, _ in items)

    while len(sents) > 1 and total(sents) > limits.max_stream_len:
        sents.pop()
    if total(sents) > limits.max_stream_len:
        ids, span = sents[0]
        sents[0] = (ids[: limits.max_stream_len - 2], span)

    stream = [CLS_ID]
    sep_positions = []
    for ids, _ in sents:
        stream.extend(ids)
        stream.append(SEP_ID)
        sep_positions.append(len(stream) - 1)
    return TokenizedDocument(
        id=doc_id,
        sentences=[ids for ids, _ in sents],
        token_stream=stream,
        sep_positions=sep_positions,
        sentence_spans=[span for _, span in sents],
        label=label,
        n_classes=n_classes,
    )


def prepare_document(raw, scheme, vocab, limits):
    """RawDocument -> TokenizedDocument (label bucketed, stream built)."""
    label = None if raw.score is None else bucket_label(raw.score, scheme, doc_id=raw.id)
    segments = segment_sentences(raw.text)
    ids = [tokenize(s, vocab) for s, _ in segments]
    spans = [span for _, span in segments]
    return assemble_document(
        ids, spans, limits,
        doc_id=raw.id, label=label, n_classes=scheme_n_classes(scheme),
    )


def read_raw_dataset(path, scheme):
    """Parse a JSON-lines file of {"id", "text", "score"} records.

    A null or missing score makes an unlabelled document (score None),
    which only prediction accepts.  Malformed lines and out-of-range
    scores are skipped with a counted warning; an empty result is a data
    error.
    """
    scheme_n_classes(scheme)  # raises on unknown scheme
    docs = []
    skipped = 0
    # a leading BOM is dropped; bytes that are not UTF-8 are read as lone
    # surrogates, so that only their line fails (at the encode), not the file
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8")
                obj = json.loads(line)
                doc_id, text, score = obj["id"], obj["text"], obj.get("score")
                if not isinstance(doc_id, str) or not isinstance(text, str) or not text:
                    raise ValueError("bad field types")
                (doc_id + text).encode("utf-8")  # a JSON escape can make a lone surrogate
                if score is not None:
                    bucket_label(score, scheme, doc_id=doc_id)
            # RecursionError: json.loads on a line nested too deep
            except (KeyError, TypeError, ValueError, RecursionError, DataError) as exc:
                skipped += 1
                logger.warning("%s:%d skipped: %s", path, lineno, exc)
                continue
            docs.append(RawDocument(id=doc_id, text=text, score=score))
    if not docs:
        raise DataError(f"no valid documents in {path}")
    return LoadedDataset(documents=docs, skipped=skipped)


def prepare_documents(raws, scheme, vocab, limits, where):
    """Prepare each RawDocument, in order; one that raises DataError is
    skipped, counted and logged.

    `where` names the source in messages; no usable document at all is a
    data error.
    """
    docs = []
    skipped = 0
    for raw in raws:
        try:
            docs.append(prepare_document(raw, scheme, vocab, limits))
        except DataError as exc:
            skipped += 1
            logger.warning("%s: document %r skipped: %s", where, raw.id, exc)
    if not docs:
        raise DataError(f"no usable documents in {where}")
    return LoadedDataset(documents=docs, skipped=skipped)


def load_dataset(path, scheme, vocab, limits):
    """One TokenizedDocument per valid line of a JSON-lines file, in order."""
    raw = read_raw_dataset(path, scheme)
    prepared = prepare_documents(raw.documents, scheme, vocab, limits, path)
    return LoadedDataset(prepared.documents, skipped=raw.skipped + prepared.skipped)


def shuffle_split(items, seed):
    """Deterministic seeded shuffle, then the SPLIT_RATIOS train/dev/test split."""
    items = list(items)
    order = np.random.default_rng(seed).permutation(len(items))
    shuffled = [items[i] for i in order]
    n = len(shuffled)
    n_train, n_dev = (int(n * share) for share in SPLIT_RATIOS[:2])
    return (
        shuffled[:n_train],
        shuffled[n_train : n_train + n_dev],
        shuffled[n_train + n_dev :],
    )


def make_batches(items, batch_size):
    """Consecutive chunks of at most `batch_size` documents."""
    if batch_size < 1:
        raise UsageError(f"batch_size must be >= 1, got {batch_size}")
    return [items[i : i + batch_size] for i in range(0, len(items), batch_size)]
