"""Tests of the benchmark itself, at tiny model sizes."""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import oraclegate  # noqa: E402
import stagetrace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from gatedoc import autodiff, checkpoint, model, textpipe  # noqa: E402

TINY_MODEL = dict(d_tok=8, d_h=8, n_heads=2, n_layers=1, d_class=4, d_class_hidden=4, d_g=8)


def tiny(name):
    w = WORKLOADS[name]
    return dataclasses.replace(
        w,
        epochs=1,
        n_train=4,
        n_dev=2,
        n_predict=3,
        n_vocab_only=min(w.n_vocab_only, 20),
        overrides={**w.overrides, **TINY_MODEL},
    )


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[kind]}


WRAPPED = [(m, a) for m, a, _ in stagetrace.STAGES] + [
    (autodiff, "backward"),
    (autodiff, "adam_step"),
    (checkpoint, "load_checkpoint"),
    (textpipe, "prepare_document"),
]


def wrapped_attributes():
    return {(m.__name__, a): getattr(m, a) for m, a in WRAPPED}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_reports_declared_metrics(name, trace, kind):
    details, result = harness.run(tiny(name), seed=0, seconds=0, trace=trace, root=ROOT)
    assert result["correct"], details["problems"]
    assert result["failed"] == 0
    assert result["attempted"] >= 4 + 3
    assert set(result["metrics"]) == declared(kind)
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    assert details["oracle_max_abs_error"] <= oraclegate.TOLERANCE


def test_traced_stage_nodes_sum_to_graph():
    rng = np.random.default_rng(5)
    w = tiny("desk-train")
    config = w.config(seed=0)
    mp = model.build_model(config, vocab_size=30)
    doc = _doc(rng, n_sentences=4)
    with stagetrace.StageTrace() as tracer:
        probs = model.forward(doc, mp).probs
        loss = autodiff.bce_loss(probs, model.one_hot(doc.label, mp.n_classes, mp.dtype()))
        n_graph = len(autodiff.Graph.trace(loss).nodes)
        autodiff.backward(loss)
    assert sum(tracer.nodes.values()) == n_graph
    assert all(tracer.nodes[name] > 0 for name in stagetrace.STAGE_NAMES)
    assert tracer.metrics()["autodiff.nodes_per_doc"][0] == n_graph


def test_wrapped_attributes_are_restored():
    before = wrapped_attributes()
    harness.run(tiny("long-predict"), seed=0, seconds=0, trace=1, root=ROOT)
    assert wrapped_attributes() == before
    with pytest.raises(RuntimeError):
        with stagetrace.StageTrace():
            assert wrapped_attributes() != before
            raise RuntimeError("inside a traced block")
    assert wrapped_attributes() == before


def test_same_seed_runs_repeat_quality_figures():
    a, _ = harness.run(tiny("desk-train"), seed=3, seconds=0, trace=0, root=ROOT)
    b, _ = harness.run(tiny("desk-train"), seed=3, seconds=0, trace=0, root=ROOT)
    assert a["final_train_loss"] == b["final_train_loss"]
    assert a["test_accuracy"] == b["test_accuracy"]


def test_oracle_gate_rejects_perturbed_parameter(monkeypatch):
    w = tiny("desk-train")
    config = w.config(seed=0)
    docs = [_doc(np.random.default_rng(i), n_sentences=3) for i in range(2)]
    assert oraclegate.check(config, 30, docs, ROOT) <= oraclegate.TOLERANCE

    exact = oraclegate.reference_arrays

    def perturbed(mp):
        arrays = exact(mp)
        arrays["encoder.wq"][0, 0] += 1e-6
        return arrays

    monkeypatch.setattr(oraclegate, "reference_arrays", perturbed)
    with pytest.raises(oraclegate.GateError):
        oraclegate.check(config, 30, docs, ROOT)


def _doc(rng, n_sentences):
    from gatedoc.textpipe import CLS_ID, SEP_ID, TokenizedDocument

    stream, seps = [CLS_ID], []
    for _ in range(n_sentences):
        stream.extend(int(t) for t in rng.integers(5, 30, size=int(rng.integers(2, 6))))
        stream.append(SEP_ID)
        seps.append(len(stream) - 1)
    return TokenizedDocument(
        id="doc",
        sentences=[],
        token_stream=stream,
        sep_positions=seps,
        sentence_spans=[(0, 1)] * n_sentences,
        label=2,
        n_classes=3,
    )
