"""Sentence encoder: a parameter-shared transformer over the
[CLS]/[SEP] token stream of one document, or of a pack of documents
laid end to end, that returns the rows asked for (the [SEP] rows, in
`model.forward_pack`), and the class similarities of those rows.

One transformer layer's weights are applied at every depth, so the
parameter count is independent of the layer count.  Layers are
pre-norm residual: x + Attn(LN(x)), then x + FFN(LN(x)).

Self-attention is block scoped: `model.forward_pack` cuts the stream
into row blocks (each sentence with its [SEP], or each document with its
[CLS]); `autodiff.attention` refuses blocks that do not tile it, and
`transformer_encode` a block that holds none of the requested rows.
Every layer runs one `attention` node that scores each block only
against itself, so a stream costs at most 4 * sum(L_i^2) scores per
head (padding included) rather than n^2.  The last layer forms its
queries, and everything after attention, only at the requested rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DimensionError


@dataclass
class EncoderParams:
    """Embedding tables, input projection, and the one shared layer."""

    n_layers: int
    n_heads: int
    tok_emb: Tensor
    pos_emb: Tensor
    w_in: Tensor
    b_in: Tensor
    ln1_g: Tensor
    ln1_b: Tensor
    wq: Tensor
    bq: Tensor
    wk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    w_ff1: Tensor
    b_ff1: Tensor
    w_ff2: Tensor
    b_ff2: Tensor


@dataclass
class ClassSimilarity:
    """One side's ReLU FNN into class space plus the shared class matrix.

    `w_c` holds one row per target class; the sentence-side and
    document-side instances reference the same tensor object.
    """

    w_c: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


def init_encoder(init, vocab_size, d_tok, d_h, n_heads, n_layers, max_len):
    return EncoderParams(
        n_layers=n_layers,
        n_heads=n_heads,
        tok_emb=init("encoder.tok_emb", vocab_size, d_tok),
        pos_emb=init("encoder.pos_emb", max_len, d_tok),
        w_in=init("encoder.w_in", d_tok, d_h),
        b_in=init("encoder.b_in", 1, d_h, 0.0),
        ln1_g=init("encoder.ln1_g", 1, d_h, 1.0),
        ln1_b=init("encoder.ln1_b", 1, d_h, 0.0),
        wq=init("encoder.wq", d_h, d_h),
        bq=init("encoder.bq", 1, d_h, 0.0),
        wk=init("encoder.wk", d_h, d_h),
        wv=init("encoder.wv", d_h, d_h),
        bv=init("encoder.bv", 1, d_h, 0.0),
        wo=init("encoder.wo", d_h, d_h),
        bo=init("encoder.bo", 1, d_h, 0.0),
        ln2_g=init("encoder.ln2_g", 1, d_h, 1.0),
        ln2_b=init("encoder.ln2_b", 1, d_h, 0.0),
        w_ff1=init("encoder.w_ff1", d_h, 4 * d_h),
        b_ff1=init("encoder.b_ff1", 1, 4 * d_h, 0.0),
        w_ff2=init("encoder.w_ff2", 4 * d_h, d_h),
        b_ff2=init("encoder.b_ff2", 1, d_h, 0.0),
    )


def init_class_similarity(init, w_c, d_in, d_hidden, d_class, prefix):
    return ClassSimilarity(
        w_c=w_c,
        w1=init(f"{prefix}.w1", d_in, d_hidden),
        b1=init(f"{prefix}.b1", 1, d_hidden, 0.0),
        w2=init(f"{prefix}.w2", d_hidden, d_class),
        b2=init(f"{prefix}.b2", 1, d_class, 0.0),
    )


def _shared_layer(x, p, blocks, rows=None, q_blocks=None):
    """One layer; given `rows`, queried (`q_blocks` per block) and returned only there."""
    a = ad.layer_norm(x, p.ln1_g, p.ln1_b)
    k = ad.linear(a, p.wk)  # a key bias would add a per-row constant: softmax ignores it
    v = ad.linear(a, p.wv, p.bv)
    if rows is not None:
        x, a = ad.gather_rows(x, rows), ad.gather_rows(a, rows)
    merged = ad.attention(ad.linear(a, p.wq, p.bq), k, v, p.n_heads, blocks, q_blocks)
    x = ad.add(x, ad.linear(merged, p.wo, p.bo))
    f = ad.layer_norm(x, p.ln2_g, p.ln2_b)
    ff = ad.linear(ad.relu(ad.linear(f, p.w_ff1, p.b_ff1)), p.w_ff2, p.b_ff2)
    return ad.add(x, ff)


def transformer_encode(stream, params, *, blocks, rows, positions):
    """Contextual embeddings at the stream positions `rows` (len(rows) x d_h).

    Self-attention is restricted to `blocks`, the (start, stop) row
    ranges that `model.forward_pack` makes: each sentence with its [SEP]
    under sentence scope, or each document, [CLS] first, under document
    scope.  `attention` refuses blocks that do not tile the stream.
    `positions`, required, holds each row's position id; a pack restarts
    them at each document.  `rows` must be strictly increasing, and each
    block must hold one or more of them (no output reads a block without
    one), else DimensionError.  The shared layer runs `params.n_layers`
    (>= 1) times; the last run forms queries, and everything after
    attention, only at `rows`.  The ops refuse a position beyond the
    position table, and `positions` of another length.
    """
    rows = np.asarray(rows, dtype=np.intp)
    if rows.ndim != 1 or not rows.size or (np.diff(rows) <= 0).any():
        raise DimensionError(f"transformer_encode: rows {rows} empty or not strictly increasing")
    stops = np.searchsorted(rows, [stop for _, stop in blocks]).tolist()
    q_blocks = list(zip([0, *stops[:-1]], stops))  # each block's requested rows
    if any(stop <= start for start, stop in q_blocks):
        raise DimensionError(f"transformer_encode: a block holds none of the rows {rows}")
    tok = ad.gather_rows(params.tok_emb, stream)
    pos = ad.gather_rows(params.pos_emb, positions)
    x = ad.linear(ad.add(tok, pos), params.w_in, params.b_in)
    for _ in range(params.n_layers - 1):
        x = _shared_layer(x, params, blocks)
    return _shared_layer(x, params, blocks, rows, q_blocks)


def class_similarity(e_in, cs):
    """Inner products with each class embedding: rows W_c . FNN(e) (k x n_classes)."""
    h = ad.relu(ad.linear(e_in, cs.w1, cs.b1))
    f = ad.relu(ad.linear(h, cs.w2, cs.b2))
    return ad.linear(f, ad.transpose(cs.w_c))

