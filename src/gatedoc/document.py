"""Document encoder: learned per-sentence importance gates, a forward
GRU over the gated sentence embeddings, and a one-step decoder whose
context vector is the engine's `attention` with one query per document
and an unscaled dot score; the decoder returns only the document
embeddings.  Every stage takes the sentence rows of a pack of documents
at once: the gate is row-wise, and the GRU runs and attention blocks
are cut at the documents' sentence counts.

GRU orientation, fixed throughout (and matched by the test oracles):
    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    h~ = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * h~

Both the encoder's recurrence over each document's sentence rows and
the decoder's single step per document run as one fused `autodiff.gru`
node, packed by length: the input projections are computed for every
row before the step loop, and the hand-written backward through time
forms each weight gradient with one GEMM over all steps.  A GRU cell
holds the (z, r, h) triples that op takes; its parameters are drawn
gate by gate, and `ModelParams.named_parameters()` lists them in that
draw order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import UsageError


@dataclass
class GateParams:
    mode: str  # "scalar": one row, one score per sentence; "vector": square matrix
    w_g: Tensor


@dataclass
class GruCellParams:
    w: tuple  # (z, r, h) input weights: the triples `autodiff.gru` takes
    u: tuple  # (z, r, h) recurrent weights
    b: tuple  # (z, r, h) biases


@dataclass
class DocEncoderParams:
    enc_cell: GruCellParams
    bridge_w: Tensor
    bridge_b: Tensor
    start_emb: Tensor
    dec_cell: GruCellParams


def init_gate(init, width, mode):
    # W_g starts at zero (every gate exactly 0.5): a random projection here,
    # under Adam's scale-free steps, saturates all gates within the first
    # epoch and permanently freezes the importance mechanism at desk scale.
    # Gradients flow fine from zero since the gate multiplies its input.
    if mode not in ("scalar", "vector"):
        raise UsageError(f"unknown gate mode {mode!r}")
    rows = 1 if mode == "scalar" else width
    return GateParams(mode=mode, w_g=init("gate.w_g", rows, width, 0.0))


def init_gru_cell(init, d_in, d_hidden, prefix):
    """Made gate by gate (w_z, u_z, b_z, w_r, ...), held kind by kind."""
    per_gate = (("w", d_in, None), ("u", d_hidden, None), ("b", 1, 0.0))
    by_gate = [
        [init(f"{prefix}.{kind}_{tag}", rows, d_hidden, fill) for kind, rows, fill in per_gate]
        for tag in "zrh"
    ]
    return GruCellParams(*zip(*by_gate))


def init_doc_encoder(init, d_in, d_g):
    return DocEncoderParams(
        enc_cell=init_gru_cell(init, d_in, d_g, "docenc.enc"),
        bridge_w=init("docenc.bridge_w", d_g, d_g),
        bridge_b=init("docenc.bridge_b", 1, d_g, 0.0),
        start_emb=init("docenc.start_emb", 1, d_g),
        dec_cell=init_gru_cell(init, 2 * d_g, d_g, "docenc.dec"),
    )


def gate(e_prime, gp):
    """Importance scores and the gated sentence matrix.

    Scalar mode: g_i = sigmoid(w_g . E'_i), row i scaled by g_i.
    Vector mode: per-coordinate sigmoid gates, elementwise product.  The
    reported score is the mean gate of the row, which in scalar mode is
    g_i itself.  Returns (scores as float64 per sentence, E'').
    """
    z = ad.matmul(e_prime, ad.transpose(gp.w_g))  # (n, 1) or (n, width)
    gated = ad.mul(e_prime, ad.sigmoid(z))
    # report in float64 from the pre-activations so scores stay inside (0, 1)
    scores = ad.sigmoid(Tensor(z.data.astype(np.float64))).data
    return scores.mean(axis=1), gated


def encode_sequence(e_dprime, cell, lengths):
    """Forward GRU states over each document's gated sentence rows, from
    a zero state; `lengths` counts the rows of each document, in order."""
    h0 = Tensor(np.zeros((len(lengths), cell.u[0].shape[0]), dtype=e_dprime.data.dtype))
    return ad.gru(e_dprime, h0, cell.w, cell.u, cell.b, lengths)


def decode_document(encs, dp, lengths):
    """One-step decode: one document embedding per document (docs x d_g).

    `lengths` counts each document's encoder states, in order.  A
    document's dec_0 = tanh(enc_n W + b), from its last state, is both its
    attention query and the decoder's initial state; the context vector
    is the engine's attention of dec_0 over that document's encoder
    states with Luong et al.'s unscaled dot score (arXiv:1508.04025), and
    the decoder input is the start-symbol embedding concatenated with it.
    """
    stops = list(itertools.accumulate(lengths))
    blocks = list(zip([0, *stops[:-1]], stops))
    enc_n = ad.gather_rows(encs, [stop - 1 for stop in stops])
    dec0 = ad.tanh(ad.linear(enc_n, dp.bridge_w, dp.bridge_b))
    one_each = [(i, i + 1) for i in range(len(lengths))]
    cnt = ad.attention(dec0, encs, encs, 1, blocks, q_blocks=one_each, scale=1.0)
    x = ad.concat((ad.gather_rows(dp.start_emb, [0] * len(lengths)), cnt))
    return ad.gru(x, dec0, dp.dec_cell.w, dp.dec_cell.u, dp.dec_cell.b, [1] * len(lengths))
