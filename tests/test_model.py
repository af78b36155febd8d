import ast
import inspect
import itertools
import math
from dataclasses import is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedoc import autodiff as ad
from gatedoc import checkpoint, synthetic, textpipe
from gatedoc.cli import GRADCHECK_THRESHOLD
from gatedoc.errors import DimensionError
from gatedoc.model import (
    build_model, forward, forward_pack, one_hot, packs, predict, predict_all,
)
from gatedoc.textpipe import CLS_ID, SEP_ID, assemble_document

from conftest import make_doc, randomize_params, recording_functions, tiny_config
from forward_oracle import oracle_forward

VOCAB_SIZE = 20

# three ablation switches x gate mode x attention scope
VARIANTS = [
    dict(
        use_sentence_class_sim=sent,
        use_gate=gate,
        use_document_class_sim=docsim,
        gate_mode=mode,
        attention_scope=scope,
    )
    for sent, gate, docsim, mode, scope in itertools.product(
        (True, False), (True, False), (True, False), ("scalar", "vector"),
        ("sentence", "document"),
    )
]


def _variant_id(v):
    return "-".join(
        [
            "sent" if v["use_sentence_class_sim"] else "nosent",
            "gate" if v["use_gate"] else "nogate",
            "doc" if v["use_document_class_sim"] else "nodoc",
            v["gate_mode"],
            v["attention_scope"],
        ]
    )


def _model(variant, seed=0):
    config = tiny_config(**variant)
    rng = np.random.default_rng(seed)
    params = build_model(config, VOCAB_SIZE, rng=rng)
    randomize_params(params, rng)
    return config, params, rng


@pytest.fixture(params=VARIANTS, ids=_variant_id)
def variant(request):
    return request.param


def test_engine_matches_numpy_oracle(variant):
    config, params, rng = _model(variant)
    arrays = {name: t.data for name, t in params.named_parameters()}
    for n_sentences in (1, 3):
        doc = make_doc(rng, n_sentences, VOCAB_SIZE)
        result = forward(doc, params)
        probs, scores = oracle_forward(
            arrays, doc, n_layers=config.n_layers, n_heads=config.n_heads, **variant
        )
        np.testing.assert_allclose(result.probs.data.reshape(-1), probs, rtol=0, atol=1e-12)
        np.testing.assert_allclose(result.gate_scores, scores, rtol=0, atol=1e-12)


def test_column_major_checkpoint_matches_oracle_and_built_model(variant, tmp_path, monkeypatch):
    # with no size threshold every matrix is saved as order "F" and loads
    # column-major; with a 4-row cut the stream's products run numpy's own
    # x @ w on it, and the [SEP] rows and the GRU steps autodiff's
    # transposed form
    monkeypatch.setattr(checkpoint, "_COLUMN_MAJOR_MIN", 0)
    monkeypatch.setattr(ad, "_FEW_ROWS", 4)
    config, params, rng = _model(variant)
    words = [f"w{i}" for i in range(VOCAB_SIZE - len(textpipe.RESERVED_TOKENS))]
    path = tmp_path / "model.gdoc"
    checkpoint.save_checkpoint(params, config, textpipe.vocab_from_tokens(words), path)
    loaded, _, _ = checkpoint.load_checkpoint(path)
    matrices = [t.data for _, t in loaded.named_parameters() if min(t.shape) > 1]
    assert matrices and not any(a.flags.c_contiguous for a in matrices)
    arrays = {name: t.data for name, t in params.named_parameters()}
    docs = [make_doc(rng, n_sentences, VOCAB_SIZE) for n_sentences in (1, 3)]
    for doc in docs:
        result, built = forward(doc, loaded), forward(doc, params)
        probs, scores = oracle_forward(
            arrays, doc, n_layers=config.n_layers, n_heads=config.n_heads, **variant
        )
        for want_probs, want_scores in ((probs, scores), (built.probs.data, built.gate_scores)):
            np.testing.assert_allclose(
                result.probs.data.reshape(-1), want_probs.reshape(-1), rtol=0, atol=1e-12
            )
            np.testing.assert_allclose(result.gate_scores, want_scores, rtol=0, atol=1e-12)
    # a pack runs the document GRU's steps over two rows at once
    result, built = forward_pack(docs, loaded), forward_pack(docs, params)
    np.testing.assert_allclose(result.probs.data, built.probs.data, rtol=0, atol=1e-12)
    for got, expected in zip(result.gate_scores, built.gate_scores):
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_predict_records_no_graph_and_equals_a_recorded_forward(variant, monkeypatch):
    config, params, rng = _model(variant)
    docs = [make_doc(rng, n_sentences, VOCAB_SIZE) for n_sentences in (1, 3)]
    assert packs(docs, params.max_stream_len()) == [docs]
    alone = [forward(doc, params) for doc in docs]
    packed = forward_pack(docs, params)
    made = []
    monkeypatch.setattr(ad, "Node", lambda *args: made.append(args[0]))
    preds = [predict(doc, params) for doc in docs]
    preds_all = predict_all(docs, params)
    assert made == []
    for pred, result in zip(preds, alone):
        assert pred.probs == result.probs.data[0].tolist()
        assert pred.gate_scores == result.gate_scores.tolist()
    for pred, probs, scores in zip(preds_all, packed.probs.data, packed.gate_scores):
        assert pred.probs == probs.tolist() and pred.gate_scores == scores.tolist()
    forward(docs[0], params)  # outside predict the same ops record
    assert made


D_H = tiny_config().d_h


@st.composite
def sentence_lengths(draw):
    """1-12 sentence lengths in tokens, in any order: short ones, whose
    blocks share a padded group, and up to three long ones, which with
    enough short ones are too skewed for one group."""
    n = draw(st.integers(1, 12))
    n_long = draw(st.integers(0, min(n, 3)))
    short = draw(st.lists(st.integers(1, 3), min_size=n - n_long, max_size=n - n_long))
    long = draw(st.lists(st.integers(40, 90), min_size=n_long, max_size=n_long))
    return draw(st.permutations(short + long))


def _filled_doc(rng, lengths, **overrides):
    """A config and a document of these sentence lengths whose stream fills
    the config's max_stream_len exactly."""
    stream_len = 1 + sum(n + 1 for n in lengths)
    config = tiny_config(max_sentences=len(lengths), max_stream_len=stream_len, **overrides)
    sentences = [[int(t) for t in rng.integers(5, VOCAB_SIZE, size=n)] for n in lengths]
    spans = [(i, i + 1) for i in range(len(lengths))]
    doc = assemble_document(
        sentences, spans, config.limits(), doc_id="drawn", label=0, n_classes=config.n_classes
    )
    assert len(doc.token_stream) == config.max_stream_len
    return config, doc


@given(
    variant=st.sampled_from(VARIANTS),
    n_layers=st.integers(1, 3),
    n_heads=st.sampled_from([h for h in range(1, D_H + 1) if D_H % h == 0]),
    lengths=sentence_lengths(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=100)
def test_engine_matches_numpy_oracle_on_drawn_documents(variant, n_layers, n_heads, lengths, seed):
    rng = np.random.default_rng(seed)
    config, doc = _filled_doc(rng, lengths, n_layers=n_layers, n_heads=n_heads, **variant)
    params = build_model(config, VOCAB_SIZE, rng=rng)
    randomize_params(params, rng)
    arrays = {name: t.data for name, t in params.named_parameters()}
    result = forward(doc, params)
    probs, scores = oracle_forward(arrays, doc, n_layers=n_layers, n_heads=n_heads, **variant)
    np.testing.assert_allclose(result.probs.data.reshape(-1), probs, rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.gate_scores, scores, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", VARIANTS, ids=_variant_id)
@given(
    sentences=st.lists(st.integers(1, 12), min_size=1, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=6)
def test_pack_equals_its_documents_one_by_one(variant, sentences, seed):
    # one graph over the pack gives each document's own outputs, and its
    # loss, weighted by the pack size, the per-document loss and gradient sums
    rng = np.random.default_rng(seed)
    config = tiny_config(max_sentences=12, max_stream_len=80, n_layers=2, **variant)
    params = build_model(config, VOCAB_SIZE, rng=rng)
    randomize_params(params, rng)
    pack = [
        make_doc(rng, k, VOCAB_SIZE, label=int(rng.integers(3)), doc_id=f"d{i}")
        for i, k in enumerate(sentences)
    ]
    leaves = [t for _, t in params.named_parameters()]
    packed = forward_pack(pack, params)
    ad.zero_grad(leaves)
    singles = 0.0
    for i, doc in enumerate(pack):
        alone = forward(doc, params)
        np.testing.assert_allclose(
            packed.probs.data[i : i + 1], alone.probs.data, rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(packed.gate_scores[i], alone.gate_scores, rtol=0, atol=1e-12)
        loss = ad.bce_loss(alone.probs, one_hot(doc.label, config.n_classes, np.float64))
        singles += float(loss.data.reshape(()))
        ad.backward(loss)
    summed = {name: t.grad.copy() for name, t in params.named_parameters()}
    ad.zero_grad(leaves)
    target = one_hot([doc.label for doc in pack], config.n_classes, np.float64)
    loss = ad.mul(ad.bce_loss(packed.probs, target), ad.Tensor(np.full((1, 1), len(pack), float)))
    assert abs(float(loss.data.reshape(())) - singles) <= 1e-12
    ad.backward(loss)
    for name, t in params.named_parameters():
        np.testing.assert_allclose(t.grad, summed[name], rtol=0, atol=1e-12, err_msg=name)


def _sized_doc(n_rows, doc_id):
    """A document whose token stream has `n_rows` rows (one sentence)."""
    return textpipe.TokenizedDocument(
        id=doc_id, sentences=[], token_stream=[0] * n_rows, sep_positions=[n_rows - 1],
        sentence_spans=[], label=0, n_classes=3,
    )


@given(
    sizes=st.lists(st.integers(2, 300), min_size=1, max_size=30),
    max_rows=st.integers(2, 512),
)
@settings(max_examples=100)
def test_packs_keep_order_and_the_row_cap(sizes, max_rows):
    docs = [_sized_doc(n, f"d{i}") for i, n in enumerate(sizes)]
    result = packs(docs, max_rows)
    assert [doc for pack in result for doc in pack] == docs
    for pack in result:
        rows = sum(len(doc.token_stream) for doc in pack)
        assert pack and (rows <= max_rows or len(pack) == 1)
    # greedy: a pack closes only when the next document would not fit
    for pack, following in zip(result, result[1:]):
        rows = sum(len(doc.token_stream) for doc in pack)
        assert rows + len(following[0].token_stream) > max_rows


def test_long_documents_form_packs_of_one():
    # the 30-sentence key-sentence documents of the long-predict benchmark
    config = tiny_config(max_stream_len=512, max_sentences=50)
    records = synthetic.generate_key_sentence_corpus(12, seed=3, n_distractors=29)
    raws = [
        textpipe.RawDocument(id=r.id, text=r.text, score=r.score) for r in records
    ]
    vocab = textpipe.build_vocab(raws, min_freq=1, max_size=1000)
    docs = [textpipe.prepare_document(r, config.scheme, vocab, config.limits()) for r in raws]
    assert all(len(doc.token_stream) > config.max_stream_len // 2 for doc in docs)
    assert packs(docs, config.max_stream_len) == [[doc] for doc in docs]


def test_engine_gradients_on_a_skewed_document():
    # blocks of 1, 51, 3, 4 and 2 rows are too skewed for one group; the
    # 3- and 4-row blocks share a padded group, so padded queries and keys
    # occur together
    rng = np.random.default_rng(7)
    config, doc = _filled_doc(rng, [50, 2, 3, 1], n_layers=2)
    params = build_model(config, VOCAB_SIZE, rng=rng)
    randomize_params(params, rng)
    target = one_hot(doc.label, config.n_classes, np.float64)
    named = dict(params.named_parameters())
    # the encoder's attention inputs and the decoder's query
    checked = [named[name] for name in (
        "encoder.wq", "encoder.bq", "encoder.wk", "encoder.wv", "encoder.bv",
        "docenc.bridge_w", "docenc.bridge_b",
    )]
    worst, entry = ad.grad_check(
        lambda: ad.bce_loss(forward(doc, params).probs, target), checked, eps=1e-3
    )
    assert worst < GRADCHECK_THRESHOLD, f"worst relative error {worst} at {entry}"


@pytest.mark.parametrize("scope", ["sentence", "document"])
def test_last_layer_runs_only_at_the_sep_rows(scope):
    # keys and values span the stream in both layers; the last layer's
    # queries, output projection and FFN only the [SEP] rows
    config = tiny_config(n_layers=2, attention_scope=scope)
    rng = np.random.default_rng(0)
    params = build_model(config, VOCAB_SIZE, rng=rng)
    doc = make_doc(rng, 3, VOCAB_SIZE)
    target = one_hot(doc.label, config.n_classes, np.float64)
    loss = ad.bce_loss(forward(doc, params).probs, target)
    weights = ("wv", "wq", "wo", "w_ff1", "w_ff2")
    rows = {name: [] for name in weights}
    for out in ad.Graph.trace(loss).nodes:
        for name in weights:
            if out.node.op == "linear" and out.node.inputs[1] is getattr(params.encoder, name):
                rows[name].append(out.shape[0])
    n, k = len(doc.token_stream), len(doc.sep_positions)
    assert rows == {"wv": [n, n], **dict.fromkeys(weights[1:], [n, k])}


def test_a_stream_past_its_last_sep_is_refused_under_sentence_scope():
    # the trailing row is in no block, so the blocks do not tile the stream,
    # whether the document is a pack's last or is followed by another
    config = tiny_config(attention_scope="sentence")
    params = build_model(config, VOCAB_SIZE, rng=np.random.default_rng(0))
    trailing = textpipe.TokenizedDocument(
        id="trailing", sentences=[], token_stream=[CLS_ID, 5, 6, SEP_ID, 7],
        sep_positions=[3], sentence_spans=[], label=0, n_classes=3,
    )
    following = make_doc(np.random.default_rng(1), 2, VOCAB_SIZE)
    for pack, match in [([trailing], "cover 4 of 5"), ([trailing, following], "follow row 4")]:
        with pytest.raises(DimensionError, match=match):
            forward_pack(pack, params)


def test_parameter_keys_are_tensor_names(variant):
    _, params, _ = _model(variant)
    named = params.named_parameters()
    assert all(name == t.name for name, t in named)
    names = [name for name, _ in named]
    assert len(names) == len(set(names))


def test_named_parameters_are_every_tensor_held_in_draw_order(variant):
    params = build_model(tiny_config(**variant), VOCAB_SIZE, rng=np.random.default_rng(5))
    named = params.named_parameters()
    held = set()

    def walk(obj):
        for value in vars(obj).values():
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, ad.Tensor):
                    held.add(id(item))
                elif is_dataclass(item):
                    walk(item)

    walk(params)
    assert held == {id(t) for _, t in named}
    ref = np.random.default_rng(5)
    for _, t in named:
        if np.all(t.data == t.data.flat[0]):
            continue  # a constant fill draws nothing
        limit = math.sqrt(6.0 / sum(t.shape))
        np.testing.assert_array_equal(t.data, ref.uniform(-limit, limit, size=t.shape))


def test_switched_off_variant_has_none_of_its_parameters(variant):
    _, params, _ = _model(variant)
    names = [name for name, _ in params.named_parameters()]

    def has(prefix):
        return any(n.startswith(prefix) for n in names)

    assert has("classsim.sent.") == variant["use_sentence_class_sim"]
    assert has("classsim.doc.") == variant["use_document_class_sim"]
    assert has("classsim.w_c") == (
        variant["use_sentence_class_sim"] or variant["use_document_class_sim"]
    )
    assert has("gate.") == variant["use_gate"]


def test_every_parameter_gets_a_gradient(variant):
    # a parameter whose gradient is identically zero (such as a key bias
    # under row-wise softmax) never learns and should not exist
    config, params, rng = _model(variant)
    named = params.named_parameters()
    ad.zero_grad([t for _, t in named])
    for label in range(config.n_classes):
        doc = make_doc(rng, 3, VOCAB_SIZE, label=label)
        target = one_hot(label, config.n_classes, np.float64)
        ad.backward(ad.bce_loss(forward(doc, params).probs, target))
    peaks = {name: float(np.abs(t.grad).max()) for name, t in named}
    largest = max(peaks.values())
    weak = {name: p / largest for name, p in peaks.items() if p < 1e-10 * largest}
    assert not weak, f"parameters with vanishing gradients: {weak}"


def _recorded_op_kinds():
    """The op kind of every `_make` call in `autodiff`'s source."""
    calls = [
        node for node in ast.walk(ast.parse(inspect.getsource(ad)))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_make"
    ]
    assert all(isinstance(call.args[0], ast.Constant) for call in calls)
    return {call.args[0].value for call in calls}


def test_every_engine_op_has_a_caller():
    # each document's loss graph as training's batch step builds it, scaled by 1/batch
    seen = set()
    for variant in VARIANTS:
        config, params, rng = _model(variant)
        doc = make_doc(rng, 3, VOCAB_SIZE)
        target = one_hot(doc.label, config.n_classes, np.float64)
        half = ad.Tensor(np.full((1, 1), 0.5))
        loss = ad.mul(ad.bce_loss(forward(doc, params).probs, target), half)
        seen |= {t.node.op for t in ad.Graph.trace(loss).nodes}
    assert seen == _recorded_op_kinds()


def test_every_engine_op_has_a_gradient_test():
    ops = recording_functions()
    tests = ast.parse(Path(__file__).with_name("test_autodiff.py").read_text())
    (per_op,) = [c for c in tests.body if getattr(c, "name", None) == "TestGradCheckPerOp"]
    used = {
        node.attr for node in ast.walk(per_op)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "ad"
    }
    assert "mul" in ops and ops <= used, f"ops without a gradient test: {ops - used}"
