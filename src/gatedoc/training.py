"""Training loop, accuracy evaluation, and the four-row ablation run.

Training is fully seeded: parameter init consumes one generator in a
fixed order and each epoch's batch order comes from (seed, epoch), so a
given (config, seed, data) triple reproduces the same history and the
same final parameters bit for bit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import model as modmod
from .errors import TrainingError, UsageError
from .stats import welch_ttest
from .textpipe import make_batches

logger = logging.getLogger(__name__)

ABLATION_VARIANTS = (
    ("The whole model", {}),
    ("- Class similarity embedding for a sentence", {"use_sentence_class_sim": False}),
    ("- Gated sentence embedding", {"use_gate": False}),
    ("- Class similarity embedding for a document", {"use_document_class_sim": False}),
)


@dataclass
class EvalResult:
    accuracy: float
    correct: int
    total: int
    predictions: list


@dataclass
class TrainResult:
    params: modmod.ModelParams
    history: list
    best_epoch: int
    best_dev_accuracy: float


@dataclass
class AblationRow:
    label: str
    test_accuracy: float
    dev_accuracy: float
    test_accuracies: list
    p_value_vs_full: float | None


def require_labels(documents):
    """Refuse, with UsageError, a document that has no gold label."""
    for doc in documents:
        if doc.label is None:
            raise UsageError(f"document {doc.id!r} has no gold label")


def evaluate(params, documents):
    """Accuracy = correct / total over all documents, plus the predictions."""
    documents = list(documents)
    if not documents:
        raise UsageError("evaluate needs a non-empty dataset")
    require_labels(documents)
    predictions = modmod.predict_all(documents, params)
    correct = sum(pred.predicted == pred.gold for pred in predictions)
    return EvalResult(
        accuracy=correct / len(documents),
        correct=correct,
        total=len(documents),
        predictions=predictions,
    )


def _batch_step(batch, params, named, optimizer, batch_index):
    """One Adam step over a batch, run as one graph per pack; returns each
    document's loss.  A pack's mean loss is weighted by its share of the
    batch, so the gradients are the batch mean of the per-document ones."""
    ad.zero_grad([t for _, t in named])
    losses = []
    for pack in modmod.packs(batch, params.max_stream_len()):
        probs = modmod.forward_pack(pack, params).probs
        target = modmod.one_hot([doc.label for doc in pack], params.n_classes, params.dtype())
        values = ad.bce_rows(probs.data, target.data)
        for doc, value in zip(pack, values):
            if not np.isfinite(value):
                raise TrainingError(
                    f"non-finite loss in batch {batch_index} on document {doc.id!r}; "
                    f"a smaller learning_rate than {optimizer.learning_rate} may keep it finite"
                )
        losses.extend(float(value) for value in values)
        weight = ad.Tensor(np.full((1, 1), len(pack) / len(batch), params.dtype()))
        ad.backward(ad.mul(ad.bce_loss(probs, target), weight))
    ad.adam_step(named, optimizer)
    return losses


def train(train_docs, dev_docs, config, vocab_size):
    """Train a model; keep the best-dev checkpoint; stop on patience."""
    train_docs = list(train_docs)
    dev_docs = list(dev_docs)
    if not train_docs or not dev_docs:
        raise UsageError("train needs non-empty train and dev splits")
    require_labels(train_docs + dev_docs)
    params = modmod.build_model(config, vocab_size)
    named = params.named_parameters()
    optimizer = ad.OptimizerState(learning_rate=config.learning_rate)
    history = []
    best_acc = -1.0
    best_epoch = -1
    snapshot = None  # the best epoch's parameters, kept while a later epoch may overwrite them
    bad_epochs = 0
    for epoch in range(config.max_epochs):
        order = np.random.default_rng([config.seed, epoch]).permutation(len(train_docs))
        shuffled = [train_docs[i] for i in order]
        epoch_losses = []
        for b, batch in enumerate(make_batches(shuffled, config.batch_size)):
            epoch_losses.extend(_batch_step(batch, params, named, optimizer, b))
        dev = evaluate(params, dev_docs)
        entry = {
            "epoch": epoch,
            "train_loss": float(np.mean(epoch_losses)),
            "dev_accuracy": dev.accuracy,
        }
        history.append(entry)
        logger.info(
            "epoch %d: train_loss %.6f dev_accuracy %.4f",
            epoch, entry["train_loss"], dev.accuracy,
        )
        if dev.accuracy >= best_acc:
            # ties keep the most recent checkpoint (the most-trained model
            # among equals); patience counts only strict improvements
            if dev.accuracy > best_acc:
                bad_epochs = 0
            else:
                bad_epochs += 1
            best_acc = dev.accuracy
            best_epoch = epoch
            if epoch + 1 < config.max_epochs and bad_epochs < config.patience:
                if snapshot is None:
                    snapshot = [t.data.copy() for _, t in named]
                else:
                    for buf, (_, t) in zip(snapshot, named):
                        np.copyto(buf, t.data)
        else:
            bad_epochs += 1
        if bad_epochs >= config.patience:
            break
    if best_epoch != len(history) - 1:
        for buf, (_, t) in zip(snapshot, named):
            t.data = buf
    ad.zero_grad([t for _, t in named])  # the last step's gradients have no reader
    return TrainResult(
        params=params,
        history=history,
        best_epoch=best_epoch,
        best_dev_accuracy=best_acc,
    )


def ablation_run(config, train_docs, dev_docs, test_docs, vocab_size, seeds):
    """Train the full model and the three single-removal variants.

    All variants share seeds and data; the rows come in `ABLATION_VARIANTS`
    order.  With two or more seeds, each variant row carries a Welch
    t-test p-value against the full model over the per-seed test accuracies.
    """
    seeds = list(seeds)
    if not seeds:
        raise UsageError("ablation needs at least one seed")
    rows = []
    full_accs = None
    for label, overrides in ABLATION_VARIANTS:
        test_accs = []
        dev_accs = []
        for seed in seeds:
            variant = replace(config, seed=seed, **overrides)
            result = train(train_docs, dev_docs, variant, vocab_size)
            test_accs.append(evaluate(result.params, test_docs).accuracy)
            dev_accs.append(result.best_dev_accuracy)
        p_value = None
        if full_accs is None:
            full_accs = test_accs
        elif len(seeds) >= 2:
            _, p_value = welch_ttest(full_accs, test_accs)
        rows.append(
            AblationRow(
                label=label,
                test_accuracy=test_accs[0],
                dev_accuracy=dev_accs[0],
                test_accuracies=test_accs,
                p_value_vs_full=p_value,
            )
        )
    return rows
