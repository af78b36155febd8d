"""Full model: parameter construction with ablation switches, the
forward pass over a pack of tokenized documents as one graph (one
document is the pack of one), the sigmoid classifier head, and the one
prediction loop, `predict_all`, which runs the forward pass pack by pack
without recording a graph and makes the `Prediction` record every report
reads; `predict` is its call on one document.  The forward pass appends
each sentence embedding's class similarities with `concat`.

A pack is bounded by the memory its graph keeps, not by the position
table: `pack_rows()` admits documents until their hidden states, summed
over layers, reach `PACK_STATE_BYTES`.  Each graph costs a fixed number
of op calls, so few packs per batch save time.  What a recorded graph
keeps depends on the attention scope (tracemalloc, two layers): about
18 times its hidden-state bytes under sentence scope, at d_h 64 and 768,
so a pack's graph stays near 18 MiB; and 25.8 times for a desk-width
pack of 500-row documents under document scope, where attention keeps
each block's n_heads * L^2 weights, so near 26 MiB.  A document at the
stream limit always fits alone: at the Table-3 widths that 512-row
floor is the cap.

Disabling a variant flag removes its parameters entirely rather than
zeroing them; the class matrix is stored once and shared by the
sentence-side and document-side similarity paths.  `named_parameters()`
is the initializer's own list of what it made, in draw order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import document as docmod
from . import encoder as encmod
from .autodiff import Tensor
from .errors import UsageError

PACK_STATE_BYTES = 1 << 20  # hidden-state bytes of one pack, over all layers


@dataclass
class Prediction:
    """One document's class probabilities and per-sentence gate scores:
    the record `gatedoc predict` and `explain --report` write as it stands.

    `gate_scores[i]` belongs to the document's i-th sentence the model
    read; when the gate variant is disabled the scores are 0.5
    placeholders and `gate_enabled` is False.
    """

    id: str
    probs: list
    predicted: int
    gold: int | None
    gate_scores: list
    gate_enabled: bool


@dataclass
class ForwardResult:
    """Graph-connected output of a forward pass over a pack of documents.

    `probs` has one row per document; `gate_scores` holds one array per
    document from `forward_pack`, and the one document's array from
    `forward`.
    """

    probs: Tensor
    gate_scores: list | np.ndarray


@dataclass
class ModelParams:
    attention_scope: str
    encoder: encmod.EncoderParams
    sent_sim: encmod.ClassSimilarity | None
    doc_sim: encmod.ClassSimilarity | None
    gate: docmod.GateParams | None
    doc_encoder: docmod.DocEncoderParams
    out_w1: Tensor
    out_b1: Tensor
    out_w2: Tensor
    out_b2: Tensor
    named: list  # (name, leaf) of every parameter, in draw order

    # read from the parameters they describe, so they cannot disagree with them
    n_classes = property(lambda self: self.out_b2.shape[1])
    use_sentence_class_sim = property(lambda self: self.sent_sim is not None)
    use_gate = property(lambda self: self.gate is not None)
    use_document_class_sim = property(lambda self: self.doc_sim is not None)

    def named_parameters(self):
        """Every trainable tensor once, keyed by name, in draw order."""
        return self.named

    def dtype(self):
        return self.encoder.tok_emb.data.dtype

    def pack_rows(self):
        """The most stream rows a pack of several documents holds: as
        many as keep `PACK_STATE_BYTES` of hidden state over all layers,
        and never fewer than the position table, the longest stream."""
        enc = self.encoder
        row_bytes = enc.n_layers * enc.w_in.shape[1] * self.dtype().itemsize
        return max(enc.pos_emb.shape[0], PACK_STATE_BYTES // row_bytes)


def build_model(config, vocab_size, rng=None, dtype=None, stored=None):
    """Construct the parameters for a config.

    Without `stored`, initialization draws from `rng` (default: seeded
    with `config.seed`) in a fixed parameter order, so a given (config,
    seed) pair always produces the same model.  With `stored`, a name ->
    array map, every parameter is taken from it and nothing is drawn
    (see `autodiff.initializer`).
    """
    if rng is None and stored is None:
        rng = np.random.default_rng(config.seed)
    init = ad.initializer(dtype if dtype is not None else config.dtype, rng, stored)
    n_classes = config.n_classes
    enc = encmod.init_encoder(
        init,
        vocab_size=vocab_size,
        d_tok=config.d_tok,
        d_h=config.d_h,
        n_heads=config.n_heads,
        n_layers=config.n_layers,
        max_len=config.max_stream_len,
    )
    w_c = None
    if config.use_sentence_class_sim or config.use_document_class_sim:
        w_c = init("classsim.w_c", n_classes, config.d_class)
    sent_sim = None
    if config.use_sentence_class_sim:
        sent_sim = encmod.init_class_similarity(
            init, w_c, config.d_h, config.d_class_hidden, config.d_class, "classsim.sent"
        )
    doc_sim = None
    if config.use_document_class_sim:
        doc_sim = encmod.init_class_similarity(
            init, w_c, config.d_g, config.d_class_hidden, config.d_class, "classsim.doc"
        )
    e_prime_width = config.d_h + (n_classes if config.use_sentence_class_sim else 0)
    gate = None
    if config.use_gate:
        gate = docmod.init_gate(init, e_prime_width, config.gate_mode)
    doc_encoder = docmod.init_doc_encoder(init, e_prime_width, config.d_g)
    head_in = config.d_g + (n_classes if config.use_document_class_sim else 0)
    d_hidden = config.resolved_d_out_hidden()
    return ModelParams(
        attention_scope=config.attention_scope,
        encoder=enc,
        sent_sim=sent_sim,
        doc_sim=doc_sim,
        gate=gate,
        doc_encoder=doc_encoder,
        out_w1=init("head.w1", head_in, d_hidden),
        out_b1=init("head.b1", 1, d_hidden, 0.0),
        out_w2=init("head.w2", d_hidden, n_classes),
        out_b2=init("head.b2", 1, n_classes, 0.0),
        named=init.made,
    )


def classify_head(e_d, mp):
    """Per-class sigmoid scores from the document embedding (1 x n_classes)."""
    if mp.use_document_class_sim:
        c_d = encmod.class_similarity(e_d, mp.doc_sim)
        head_in = ad.concat((e_d, c_d))
    else:
        head_in = e_d
    h = ad.relu(ad.linear(head_in, mp.out_w1, mp.out_b1))
    return ad.sigmoid(ad.linear(h, mp.out_w2, mp.out_b2))


def packs(docs, max_rows):
    """Runs of consecutive documents whose token streams together hold at
    most `max_rows` rows; a document alone always forms a pack.  The
    callers pass `ModelParams.pack_rows()`: 1 MiB of hidden states, which
    a recorded graph keeps many times over, by attention scope (the
    module docstring)."""
    out, rows = [], 0
    for doc in docs:
        n = len(doc.token_stream)
        if out and rows + n <= max_rows:
            out[-1].append(doc)
            rows += n
        else:
            out.append([doc])
            rows = n
    return out


def forward_pack(docs, mp):
    """Sentence encoder -> gated document encoder -> classifier head over
    a pack of documents as one graph.

    The documents' streams are laid end to end, each with its own
    position ids, and cut into attention blocks: each document, or
    under sentence scope each sentence with its [SEP]; no [SEP] then
    attends to [CLS], so its row is left out and the positions start
    at 1.  No block spans two documents (`attention` refuses blocks
    that do not tile the stream), and every later stage works row-wise
    or per document, so each document's output is what it would be
    alone, up to the rounding of other GEMM shapes.
    """
    skip = 1 if mp.attention_scope == "sentence" else 0  # leave out the [CLS] row
    stream, positions, blocks, rows = [], [], [], []
    for doc in docs:
        base = len(stream)
        stream += doc.token_stream[skip:]
        positions += range(skip, len(doc.token_stream))
        seps = [base + sep - skip for sep in doc.sep_positions]
        rows += seps
        stops = [sep + 1 for sep in seps] if skip else [len(stream)]
        blocks += zip([base, *stops[:-1]], stops)
    e = encmod.transformer_encode(
        stream, mp.encoder, blocks=blocks, rows=rows, positions=positions
    )
    if mp.use_sentence_class_sim:
        c = encmod.class_similarity(e, mp.sent_sim)
        e_prime = ad.concat((e, c))
    else:
        e_prime = e
    if mp.use_gate:
        scores, e_dprime = docmod.gate(e_prime, mp.gate)
    else:
        scores = np.full(e_prime.shape[0], 0.5)
        e_dprime = e_prime
    n_sents = [len(doc.sep_positions) for doc in docs]
    encs = docmod.encode_sequence(e_dprime, mp.doc_encoder.enc_cell, n_sents)
    e_d = docmod.decode_document(encs, mp.doc_encoder, n_sents)
    probs = classify_head(e_d, mp)
    stops = list(itertools.accumulate(n_sents))
    per_doc = [scores[stop - k : stop] for stop, k in zip(stops, n_sents)]
    return ForwardResult(probs=probs, gate_scores=per_doc)


def forward(doc, mp):
    """`forward_pack` of one document."""
    result = forward_pack([doc], mp)
    return ForwardResult(probs=result.probs, gate_scores=result.gate_scores[0])


def predict(doc, mp):
    """Forward one document into its Prediction."""
    return predict_all([doc], mp)[0]


def predict_all(docs, mp):
    """One Prediction per document, in order: one `forward_pack` per pack
    of at most `mp.pack_rows()` rows, recording no graph.  That cap bounds
    a recorded graph (the module docstring gives its size by attention
    scope), so a pack that records none holds less while it runs."""
    preds = []
    for pack in packs(docs, mp.pack_rows()):
        with ad.no_grad():
            result = forward_pack(pack, mp)
        preds += [
            Prediction(
                id=doc.id,
                probs=[float(p) for p in probs],
                predicted=int(np.argmax(probs)),  # lowest index wins ties
                gold=doc.label,
                gate_scores=[float(s) for s in scores],
                gate_enabled=mp.use_gate,
            )
            for doc, probs, scores in zip(pack, result.probs.data, result.gate_scores)
        ]
    return preds


def one_hot(label, n_classes, dtype):
    """One-hot rows, one per label of `label` (a label or a sequence): the
    array `autodiff.bce_loss` takes as its target."""
    labels = np.atleast_1d(label)
    bad = labels[(labels < 0) | (labels >= n_classes)]
    if bad.size:
        raise UsageError(f"label {bad[0]} outside [0, {n_classes})")
    t = np.zeros((len(labels), n_classes), dtype=dtype)
    t[np.arange(len(labels)), labels] = 1.0
    return t
