"""Model explanation machinery over `model.Prediction` records: the
prediction for raw text with each sentence's text beside its gate score,
the distribution of gate-score spread across a dataset's predictions,
and the score-difference histogram over wrong predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .model import predict
from .textpipe import RawDocument, prepare_document


@dataclass
class StddevReport:
    """Spread of min-max-normalized gate scores per document.

    `stddevs` is sorted ascending; population standard deviations of
    values in [0, 1] are bounded by 0.5.
    """

    stddevs: list
    fraction_over_0_2: float
    n_documents: int


@dataclass
class ScoreDiffHistogram:
    """Wrong predictions bucketed by |predicted - gold| in scale points.

    Cumulative fractions are None when there are no wrong predictions.
    """

    counts: dict
    n_wrong: int
    cumulative_at_1: float | None
    cumulative_at_2: float | None


def minmax_normalize(scores):
    """Rescale to [0, 1]; an all-equal sequence (incl. length 1) maps to zeros."""
    arr = np.asarray(scores, dtype=np.float64)
    span = arr.max() - arr.min()
    if span == 0.0:
        return np.zeros_like(arr)
    return (arr - arr.min()) / span


def explain(params, config, vocab, text):
    """The unlabelled Prediction for raw text, and the (text, span) of each
    sentence the model read, in document order: sentence i is the one
    `gate_scores[i]` scores."""
    if not text or not text.strip():
        raise UsageError("explain needs non-empty text")
    try:
        text.encode("utf-8")  # argv bytes that are not UTF-8 arrive as lone surrogates
    except UnicodeEncodeError as exc:
        raise UsageError(f"text is not valid UTF-8: {exc}") from exc
    doc = prepare_document(
        RawDocument("input", text, None), config.scheme, vocab, config.limits()
    )
    sentences = [(text[s:e], (s, e)) for s, e in doc.sentence_spans]
    return predict(doc, params), sentences


def stddev_report(predictions):
    """Per-document stddev of normalized gate scores, sorted ascending."""
    predictions = list(predictions)
    if not predictions:
        raise UsageError("stddev_report needs a non-empty dataset")
    if not all(pred.gate_enabled for pred in predictions):
        raise UsageError("stddev_report requires a model trained with the gate enabled")
    stddevs = sorted(
        float(minmax_normalize(pred.gate_scores).std())  # population stddev
        for pred in predictions
    )
    over = sum(1 for s in stddevs if s > 0.2)
    return StddevReport(
        stddevs=stddevs,
        fraction_over_0_2=over / len(stddevs),
        n_documents=len(stddevs),
    )


def error_histogram(predictions):
    """Bucket wrong predictions by class-index distance on the label scale.

    For three_way the distance is ordinal over class indices, with the
    neutral class sitting between negative and positive.
    """
    counts = {}
    n_wrong = 0
    for pred in predictions:
        if pred.gold is None:
            raise UsageError("error_histogram needs labeled predictions")
        if pred.predicted == pred.gold:
            continue
        n_wrong += 1
        diff = abs(pred.predicted - pred.gold)
        counts[diff] = counts.get(diff, 0) + 1
    if n_wrong == 0:
        return ScoreDiffHistogram(
            counts={}, n_wrong=0, cumulative_at_1=None, cumulative_at_2=None
        )
    at_1 = sum(v for k, v in counts.items() if k <= 1) / n_wrong
    at_2 = sum(v for k, v in counts.items() if k <= 2) / n_wrong
    return ScoreDiffHistogram(
        counts=counts, n_wrong=n_wrong, cumulative_at_1=at_1, cumulative_at_2=at_2
    )
