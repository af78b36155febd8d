"""Document encoder: learned per-sentence importance gates, a forward
GRU over the gated sentence embeddings, and a one-step decoder with
dot-product attention that yields the document embedding.

GRU orientation, fixed throughout (and matched by the test oracles):
    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    h~ = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * h~

Both the encoder's recurrence over all sentence rows and the decoder's
single step run as one fused `autodiff.gru` node: the input projections
are computed for every row before the step loop, and the hand-written
backward through time forms each weight gradient with one GEMM over all
steps.
"""

from __future__ import annotations

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
    w_z: Tensor
    u_z: Tensor
    b_z: Tensor
    w_r: Tensor
    u_r: Tensor
    b_r: Tensor
    w_h: Tensor
    u_h: Tensor
    b_h: Tensor


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
    per_gate = (("w", d_in, None), ("u", d_hidden, None), ("b", 1, 0.0))
    return GruCellParams(*(
        init(f"{prefix}.{kind}_{tag}", rows, d_hidden, fill)
        for tag in "zrh" for kind, rows, fill in per_gate
    ))


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
    Vector mode: per-coordinate sigmoid gates, elementwise product; the
    reported score is the mean gate of the row.  Returns (scores as
    float64 per sentence, E'').
    """
    z = ad.matmul(e_prime, ad.transpose(gp.w_g))  # (n, 1) or (n, width)
    g = ad.sigmoid(z)
    if gp.mode == "scalar":
        gated = ad.scale_rows(e_prime, g)
    else:
        gated = ad.mul(g, e_prime)
    # report in float64 from the pre-activations so scores stay inside (0, 1)
    scores = ad.sigmoid(Tensor(z.data.astype(np.float64))).data
    scores = scores.mean(axis=1) if gp.mode == "vector" else scores[:, 0]
    return scores, gated


def _run_gru(x, h0, cell):
    return ad.gru(
        x, h0, (cell.w_z, cell.w_r, cell.w_h), (cell.u_z, cell.u_r, cell.u_h),
        (cell.b_z, cell.b_r, cell.b_h),
    )


def encode_sequence(e_dprime, cell):
    """Forward GRU states over the gated sentence rows, from a zero state."""
    h0 = Tensor(np.zeros((1, cell.u_z.shape[0]), dtype=e_dprime.data.dtype))
    return _run_gru(e_dprime, h0, cell)


def attend(encs, query):
    """Dot-product attention: weights over encoder states and their weighted sum."""
    scores = ad.matmul(encs, ad.transpose(query))  # (n, 1)
    a = ad.softmax(scores, axis=0)
    cnt = ad.matmul(ad.transpose(a), encs)  # (1, d_g)
    return a, cnt


def decode_document(encs, dp):
    """One-step decode: document embedding and the attention weights.

    dec_0 = tanh-FNN(enc_n) is both the attention query and the
    decoder's initial state; the decoder input is the start-symbol
    embedding concatenated with the context vector.
    """
    enc_n = ad.gather_rows(encs, [encs.shape[0] - 1])
    dec0 = ad.tanh(ad.linear(enc_n, dp.bridge_w, dp.bridge_b))
    a, cnt = attend(encs, dec0)
    x = ad.concat((dp.start_emb, cnt), axis=1)
    e_d = _run_gru(x, dec0, dp.dec_cell)
    return e_d, a
