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
from itertools import filterfalse, groupby

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

# a token: a run of word characters, or any other non-space character
# alone; \S meets only non-word characters, because \w+ is tried first
_TOKEN_RE = re.compile(r"\w+|\S")

SCHEMES = {
    # scheme -> the class of each score from 1 up
    "ten_scale": tuple(range(10)),
    "three_way": (0, 0, 1, 2, 2),  # negative below 3, neutral at 3, positive above
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
    return SCHEMES[scheme][-1] + 1  # the top score is in the top class


def bucket_label(score, scheme, doc_id=None):
    """Map an integer review score from 1 up to its class in `SCHEMES`."""
    scheme_n_classes(scheme)  # raises on unknown scheme
    classes = SCHEMES[scheme]
    if not isinstance(score, int) or isinstance(score, bool) or not 1 <= score <= len(classes):
        where = f" in document {doc_id!r}" if doc_id else ""
        raise DataError(f"score {score!r} outside [1, {len(classes)}] for {scheme}{where}")
    return classes[score - 1]


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


def tokenize(text, vocab):
    r"""Token ids for one sentence; out-of-vocabulary words map to [UNK].

    The tokens are those of ``_TOKEN_RE.findall(text.lower())``, taken
    one whitespace chunk at a time: no token holds whitespace, and
    `str.split` and ``\s`` call the same whitespace test.  A chunk that
    is `str.isalnum` is one token, because ``\w`` is that per-character
    test or ``_``; any other chunk goes through the regex.
    """
    get = vocab.token_to_id.get
    ids = []
    for chunk in text.lower().split():
        if chunk.isalnum():
            ids.append(get(chunk, UNK_ID))
        else:
            ids += [get(tok, UNK_ID) for tok in _TOKEN_RE.findall(chunk)]
    return ids


def build_vocab(corpus, min_freq, max_size):
    """Frequency-capped word vocabulary over raw documents.

    Tokens are ranked by count; ties, also at the size cap, break
    lexicographically, so identical corpora produce identical
    vocabularies.  The corpus is counted by whitespace chunk, as
    `tokenize` reads it, and each distinct chunk that is not `str.isalnum`
    moves its count onto its tokens: the regex runs once over each run of
    such chunks (in first-seen order) that share a count, never once per
    occurrence.
    """
    corpus = list(corpus)
    if not corpus:
        raise UsageError("cannot build a vocabulary from an empty corpus")
    counts = Counter()
    for doc in corpus:
        counts.update(doc.text.lower().split())
    # pop them all first: a chunk such as "," is also a token, whose count must not grow before it is read
    runs = [
        (n, " ".join(chunks))
        for n, chunks in groupby(list(filterfalse(str.isalnum, counts)), key=counts.pop)
    ]
    for n, text in runs:
        tokens = _TOKEN_RE.findall(text)
        if n == 1:  # the chunks seen once, most of them in a Zipfian corpus
            counts.update(tokens)
        else:
            for tok in tokens:
                counts[tok] += n
    kept = sorted([tok for tok, c in counts.items() if c >= min_freq])
    kept.sort(key=counts.__getitem__, reverse=True)  # stable: equal counts stay lexicographic
    return vocab_from_tokens(kept[:max_size])


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
    limit are cut from the end; of the rest, the longest prefix that fits
    the length limit is kept.  A first sentence too long on its own is
    kept alone, truncated to fit its closing [SEP].
    """
    sents = [(list(ids), span) for ids, span in zip(tokenized_sentences, spans) if ids]
    if not sents:
        raise DataError(f"document {doc_id!r} has no tokens after tokenization")
    sents = sents[: limits.max_sentences]
    size = 1  # [CLS]
    for n, (ids, span) in enumerate(sents):
        size += len(ids) + 1
        if size > limits.max_stream_len:
            sents = sents[:n] if n else [(ids[: limits.max_stream_len - 2], span)]
            break

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
