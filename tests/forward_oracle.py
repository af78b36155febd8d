"""Straight-line numpy transcription of the model's forward pass.

Shares no code with the engine: it consumes plain parameter arrays
(by name) and a tokenized document, and recomputes every stage with
bare numpy.  Used to cross-check the graph-based forward.
"""

import numpy as np

LN_EPS = 1e-5


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _layer_norm(x, gain, bias):
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    xhat = (x - mu) / np.sqrt(var + LN_EPS)
    return xhat * gain.reshape(1, -1) + bias.reshape(1, -1)


def _segments(stream_len, sep_positions):
    seg = [0] * stream_len
    current = 1
    pos = 1
    for sep in sep_positions:
        for p in range(pos, sep + 1):
            seg[p] = current
        pos = sep + 1
        current += 1
    return np.asarray(seg)


def _attention_block(a, n_heads, arr):
    n, d_h = a.shape
    dk = d_h // n_heads
    q = a @ arr["encoder.wq"] + arr["encoder.bq"]
    k = a @ arr["encoder.wk"]
    v = a @ arr["encoder.wv"] + arr["encoder.bv"]
    heads = []
    for h in range(n_heads):
        sl = slice(h * dk, (h + 1) * dk)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(dk)
        if arr.get("__mask__") is not None:
            scores = scores + arr["__mask__"]
        heads.append(_softmax(scores, axis=1) @ v[:, sl])
    merged = np.concatenate(heads, axis=1)
    return merged @ arr["encoder.wo"] + arr["encoder.bo"]


def _gru(x, h, arr, prefix):
    z = _sigmoid(x @ arr[f"{prefix}.w_z"] + h @ arr[f"{prefix}.u_z"] + arr[f"{prefix}.b_z"])
    r = _sigmoid(x @ arr[f"{prefix}.w_r"] + h @ arr[f"{prefix}.u_r"] + arr[f"{prefix}.b_r"])
    cand = np.tanh(
        x @ arr[f"{prefix}.w_h"] + (r * h) @ arr[f"{prefix}.u_h"] + arr[f"{prefix}.b_h"]
    )
    return (1.0 - z) * h + z * cand


def _class_similarity(e, arr, prefix):
    h = np.maximum(e @ arr[f"{prefix}.w1"] + arr[f"{prefix}.b1"], 0.0)
    f = np.maximum(h @ arr[f"{prefix}.w2"] + arr[f"{prefix}.b2"], 0.0)
    return f @ arr["classsim.w_c"].T


def oracle_forward(
    arrays,
    doc,
    n_layers,
    n_heads,
    use_sentence_class_sim=True,
    use_gate=True,
    use_document_class_sim=True,
    gate_mode="scalar",
    attention_scope="sentence",
):
    """Returns (per-class probabilities, per-sentence gate scores)."""
    arr = {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}
    stream = list(doc.token_stream)
    n = len(stream)

    x = arr["encoder.tok_emb"][stream] + arr["encoder.pos_emb"][:n]
    h = x @ arr["encoder.w_in"] + arr["encoder.b_in"]
    if attention_scope == "sentence":
        seg = _segments(n, doc.sep_positions)
        arr["__mask__"] = np.where(seg[:, None] == seg[None, :], 0.0, -1e9)
    else:
        arr["__mask__"] = None
    for _ in range(n_layers):
        a = _layer_norm(h, arr["encoder.ln1_g"], arr["encoder.ln1_b"])
        h = h + _attention_block(a, n_heads, arr)
        f = _layer_norm(h, arr["encoder.ln2_g"], arr["encoder.ln2_b"])
        ff = np.maximum(f @ arr["encoder.w_ff1"] + arr["encoder.b_ff1"], 0.0)
        h = h + (ff @ arr["encoder.w_ff2"] + arr["encoder.b_ff2"])

    e = h[list(doc.sep_positions)]
    if use_sentence_class_sim:
        c = _class_similarity(e, arr, "classsim.sent")
        e_prime = np.concatenate([e, c], axis=1)
    else:
        e_prime = e

    if use_gate:
        z = e_prime @ arr["gate.w_g"].T
        g = _sigmoid(z)
        e_gated = g * e_prime  # scalar mode broadcasts the (n, 1) column
        scores = g.mean(axis=1) if gate_mode == "vector" else g[:, 0]
    else:
        e_gated = e_prime
        scores = np.full(e_prime.shape[0], 0.5)

    d_g = arr["docenc.enc.u_z"].shape[0]
    state = np.zeros((1, d_g))
    encs = []
    for i in range(e_gated.shape[0]):
        state = _gru(e_gated[i : i + 1], state, arr, "docenc.enc")
        encs.append(state)
    encs = np.concatenate(encs, axis=0)

    dec0 = np.tanh(encs[-1:] @ arr["docenc.bridge_w"] + arr["docenc.bridge_b"])
    att = _softmax(encs @ dec0.T, axis=0)
    cnt = att.T @ encs
    e_d = _gru(np.concatenate([arr["docenc.start_emb"], cnt], axis=1), dec0, arr, "docenc.dec")

    if use_document_class_sim:
        c_d = _class_similarity(e_d, arr, "classsim.doc")
        head_in = np.concatenate([e_d, c_d], axis=1)
    else:
        head_in = e_d
    hidden = np.maximum(head_in @ arr["head.w1"] + arr["head.b1"], 0.0)
    probs = _sigmoid(hidden @ arr["head.w2"] + arr["head.b2"])
    return probs.reshape(-1), scores
