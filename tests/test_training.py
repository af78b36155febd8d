import json
import re
from dataclasses import replace

import numpy as np
import pytest

import gatedoc.cli
from gatedoc import autodiff, model, synthetic, training
from gatedoc.errors import TrainingError, UsageError

from conftest import make_doc, tiny_config


def test_seeded_training_is_bit_identical(rng):
    cfg = tiny_config(max_epochs=2, batch_size=2)
    docs = [make_doc(rng, 3, 20, label=i % 3, doc_id=f"d{i}") for i in range(8)]
    runs = [training.train(docs[:6], docs[6:], cfg, vocab_size=20) for _ in range(2)]
    first, second = runs
    assert len(first.history) == 2
    assert first.history == second.history
    a, b = dict(first.params.named_parameters()), dict(second.params.named_parameters())
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name].data, b[name].data), name


def _built_models(monkeypatch, edit):
    """Have `training.train` build its model as usual, then apply `edit`."""
    original = model.build_model

    def edited(*args, **kwargs):
        params = original(*args, **kwargs)
        edit(params)
        return params

    monkeypatch.setattr(model, "build_model", edited)


def test_non_finite_loss_names_the_batch_and_the_document(rng, monkeypatch):
    # token 29 occurs only in document d0, and its embedding is NaN, so
    # only that document's loss is non-finite; d0 is not its batch's first
    docs = [make_doc(rng, 2, 20, label=i % 3, doc_id=f"d{i}") for i in range(8)]
    docs[0].token_stream[1] = 29
    _built_models(monkeypatch, lambda mp: mp.encoder.tok_emb.data.__setitem__(29, np.nan))
    cfg = tiny_config(max_epochs=1, batch_size=3, max_stream_len=64)
    order = list(np.random.default_rng([cfg.seed, 0]).permutation(6))
    batch, place = divmod(order.index(0), cfg.batch_size)
    assert place > 0
    with pytest.raises(TrainingError, match=f"non-finite loss in batch {batch} on document 'd0'"):
        training.train(docs[:6], docs[6:], cfg, vocab_size=30)


def test_non_finite_gradient_names_the_parameter(rng, monkeypatch):
    named = {}
    _built_models(monkeypatch, lambda mp: named.update(mp.named_parameters()))
    real_backward = autodiff.backward

    def poisoned(loss):
        real_backward(loss)
        named["docenc.bridge_w"].grad[0, 0] = np.inf

    monkeypatch.setattr(autodiff, "backward", poisoned)
    docs = _train_docs(rng)
    cfg = tiny_config(max_epochs=1, batch_size=2)
    with pytest.raises(TrainingError, match=re.escape("parameter 'docenc.bridge_w'")):
        training.train(docs[:4], docs[4:], cfg, vocab_size=20)


def test_evaluate_runs_packs_that_match_predict(rng):
    cfg = tiny_config(max_stream_len=40)
    docs = [make_doc(rng, 3, 20, label=i % 3, doc_id=f"d{i}") for i in range(7)]
    params = model.build_model(cfg, 20, rng=rng)
    assert 1 < len(model.packs(docs, cfg.max_stream_len)) < len(docs)
    result = training.evaluate(params, docs)
    assert [p.id for p in result.predictions] == [doc.id for doc in docs]
    for pred, doc in zip(result.predictions, docs):
        alone = model.predict(doc, params)
        np.testing.assert_allclose(pred.probs, alone.probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pred.gate_scores, alone.gate_scores, rtol=0, atol=1e-12)
        assert (pred.predicted, pred.gold) == (alone.predicted, doc.label)
    assert result.correct == sum(p.predicted == p.gold for p in result.predictions)


def test_batch_step_gradient_is_the_mean_over_its_documents(rng, monkeypatch):
    cfg = tiny_config(max_stream_len=40)
    batch = [make_doc(rng, 3, 20, label=i % 3, doc_id=f"d{i}") for i in range(5)]
    assert 1 < len(model.packs(batch, cfg.max_stream_len)) < len(batch)
    params = model.build_model(cfg, 20, rng=rng)
    named = params.named_parameters()
    leaves = [t for _, t in named]
    autodiff.zero_grad(leaves)
    losses = []
    for doc in batch:
        target = model.one_hot(doc.label, cfg.n_classes, np.float64)
        loss = autodiff.bce_loss(model.forward(doc, params).probs, target)
        losses.append(float(loss.data.reshape(())))
        autodiff.backward(autodiff.mul(loss, autodiff.Tensor(np.full((1, 1), 1 / len(batch)))))
    want = {name: t.grad.copy() for name, t in named}
    seen = {}
    monkeypatch.setattr(
        autodiff, "adam_step", lambda named, state: seen.update((n, t.grad) for n, t in named)
    )
    got = training._batch_step(batch, params, named, None, 0)
    np.testing.assert_allclose(got, losses, rtol=0, atol=1e-12)
    for name in want:
        np.testing.assert_allclose(seen[name], want[name], rtol=0, atol=1e-12, err_msg=name)


def _scripted_dev(monkeypatch, accuracies, params_seen):
    """Replace dev evaluation with a fixed accuracy per epoch; record the
    parameters each epoch's evaluation saw."""
    scripted = iter(accuracies)

    def fake_evaluate(params, documents):
        params_seen.append({n: t.data.copy() for n, t in params.named_parameters()})
        return training.EvalResult(
            accuracy=next(scripted), correct=0, total=len(documents), predictions=[]
        )

    monkeypatch.setattr(training, "evaluate", fake_evaluate)


def _train_docs(rng, n=6):
    return [make_doc(rng, 2, 20, label=i % 3, doc_id=f"d{i}") for i in range(n)]


class TestEarlyStopping:
    def test_patience_counts_ties_and_drops_then_stops(self, rng, monkeypatch):
        seen = []
        _scripted_dev(monkeypatch, [0.5, 0.6, 0.6, 0.4, 0.9, 0.9], seen)
        cfg = tiny_config(max_epochs=6, patience=2, batch_size=2)
        docs = _train_docs(rng)
        result = training.train(docs[:4], docs[4:], cfg, vocab_size=20)
        # epoch 2 ties (1 bad epoch), epoch 3 drops (2 bad epochs): stop
        assert [h["epoch"] for h in result.history] == [0, 1, 2, 3]
        assert [h["dev_accuracy"] for h in result.history] == [0.5, 0.6, 0.6, 0.4]

    def test_best_snapshot_restored_and_tie_keeps_later_epoch(self, rng, monkeypatch):
        seen = []
        _scripted_dev(monkeypatch, [0.5, 0.6, 0.6, 0.4], seen)
        cfg = tiny_config(max_epochs=4, patience=5, batch_size=2)
        docs = _train_docs(rng)
        result = training.train(docs[:4], docs[4:], cfg, vocab_size=20)
        assert (result.best_epoch, result.best_dev_accuracy) == (2, 0.6)
        final = {n: t.data for n, t in result.params.named_parameters()}

        def same(snapshot):
            return all(np.array_equal(final[n], snapshot[n]) for n in final)

        assert same(seen[2])
        assert not same(seen[1]) and not same(seen[3])

    @pytest.mark.parametrize(
        "accuracies, max_epochs, patience",
        [([0.5], 1, 5), ([0.5, 0.6], 2, 5), ([0.5, 0.5], 3, 1)],
        ids=["one-epoch", "last-epoch-best", "patience-used-up"],
    )
    def test_best_last_epoch_returns_the_arrays_it_built(
        self, rng, monkeypatch, accuracies, max_epochs, patience
    ):
        # the best epoch is the last one run, so nothing is restored
        built = []
        _built_models(monkeypatch, lambda mp: built.extend(t.data for _, t in mp.named_parameters()))
        _scripted_dev(monkeypatch, accuracies, [])
        cfg = tiny_config(max_epochs=max_epochs, patience=patience, batch_size=2)
        docs = _train_docs(rng)
        result = training.train(docs[:4], docs[4:], cfg, vocab_size=20)
        assert result.best_epoch == len(result.history) - 1 == len(accuracies) - 1
        assert all(t.data is data for (_, t), data in zip(result.params.named_parameters(), built))


def test_returned_parameters_hold_no_gradient(rng):
    docs = _train_docs(rng)
    result = training.train(docs[:4], docs[4:], tiny_config(max_epochs=1, batch_size=2), 20)
    assert all(t.grad is None for _, t in result.params.named_parameters())


def test_zero_epochs_return_an_empty_history(rng):
    # validate() refuses max_epochs 0; a direct caller may still pass it
    docs = _train_docs(rng)
    cfg = replace(tiny_config(batch_size=2), max_epochs=0)
    result = training.train(docs[:4], docs[4:], cfg, 20)
    assert (result.history, result.best_epoch, result.best_dev_accuracy) == ([], -1, -1.0)


@pytest.mark.parametrize("split", ["train", "dev"])
def test_train_refuses_an_unlabelled_document_before_building(rng, monkeypatch, split):
    _built_models(monkeypatch, lambda mp: pytest.fail("built a model"))
    docs = _train_docs(rng)
    unlabelled = 0 if split == "train" else 4
    docs[unlabelled] = replace(docs[unlabelled], label=None)
    with pytest.raises(UsageError, match=f"{docs[unlabelled].id!r} has no gold label"):
        training.train(docs[:4], docs[4:], tiny_config(max_epochs=1, batch_size=2), 20)


class TestAblationRun:
    def test_rows_in_variant_order_with_p_values_only_over_two_seeds(self, rng):
        cfg = tiny_config(max_epochs=1, batch_size=4)
        docs = [make_doc(rng, 2, 20, label=i % 3, doc_id=f"d{i}") for i in range(10)]
        train_docs, dev_docs, test_docs = docs[:6], docs[6:8], docs[8:]
        labels = [label for label, _ in training.ABLATION_VARIANTS]

        one = training.ablation_run(cfg, train_docs, dev_docs, test_docs, 20, seeds=[0])
        assert [row.label for row in one] == labels
        assert all(row.p_value_vs_full is None for row in one)
        assert all(len(row.test_accuracies) == 1 for row in one)

        two = training.ablation_run(cfg, train_docs, dev_docs, test_docs, 20, seeds=[0, 1])
        assert [row.label for row in two] == labels
        assert two[0].p_value_vs_full is None
        for row in two[1:]:
            assert isinstance(row.p_value_vs_full, float)
            assert 0.0 <= row.p_value_vs_full <= 1.0
        assert all(len(row.test_accuracies) == 2 for row in two)


def test_write_metrics_one_sorted_json_line_per_epoch(tmp_path, monkeypatch):
    # train --out writes the history; keys come out sorted whatever their order in memory
    history = [
        {"train_loss": 1.25, "epoch": 0, "dev_accuracy": 0.5},
        {"train_loss": 0.75, "epoch": 1, "dev_accuracy": 0.625},
    ]

    def with_history(*args, **kwargs):
        return replace(training.train(*args, **kwargs), history=history)

    monkeypatch.setattr(gatedoc.cli, "train", with_history)
    corpus = tmp_path / "corpus.jsonl"
    synthetic.write_corpus(synthetic.generate_key_sentence_corpus(20, seed=0), corpus)
    config = tmp_path / "run.cfg"
    config.write_text(
        f"data = {corpus}\nd_tok = 4\nd_h = 8\nn_heads = 2\nn_layers = 1\n"
        "d_class = 3\nd_class_hidden = 4\nd_g = 6\nmax_epochs = 1\nbatch_size = 4\n",
        encoding="utf-8",
    )
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    path = out_dir / "metrics.jsonl"
    assert gatedoc.cli.main(["train", "--config", str(config), "--out", str(path)]) == 0
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines == [json.dumps(entry, sort_keys=True) for entry in history]
    assert [list(json.loads(line)) for line in lines] == [
        ["dev_accuracy", "epoch", "train_loss"]
    ] * 2
    assert sorted(p.name for p in out_dir.iterdir()) == ["metrics.jsonl"]
