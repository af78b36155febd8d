"""Correctness gate run before any timing.

A float64 twin of the workload's model, built from the same seed, must
reproduce the straight-line numpy oracle in `tests/forward_oracle.py`
(probabilities and gate scores) within TOLERANCE on the workload's own
documents.
"""

from __future__ import annotations

import importlib.util
import math

import numpy as np

from gatedoc import model

TOLERANCE = 1e-12


class GateError(Exception):
    """The engine's float64 forward disagrees with the numpy oracle."""


def load_oracle(root):
    """`oracle_forward` from the checkout's tests/forward_oracle.py."""
    path = root / "tests" / "forward_oracle.py"
    spec = importlib.util.spec_from_file_location("forward_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.oracle_forward


def float64_twin(config, vocab_size):
    """The workload's initial model in float64, drawn from the same seed.

    The gate weights start at zero, which pins every gate score at 0.5;
    they are redrawn from the seed so the gate-score comparison is not
    trivially exact.
    """
    mp = model.build_model(config, vocab_size, dtype="float64")
    if mp.gate is not None:
        w_g = mp.gate.w_g
        rng = np.random.default_rng([config.seed, 2])
        w_g.data = rng.normal(0.0, 1.0 / math.sqrt(w_g.shape[1]), size=w_g.shape)
    return mp


def reference_arrays(mp):
    """Parameter arrays keyed by `Tensor.name`, the names the oracle reads.

    `ModelParams.named_parameters` drops the `encoder.` prefix of the
    encoder tensors, so its own keys cannot be used here.
    """
    return {t.name: t.data.copy() for _, t in mp.named_parameters()}


def max_oracle_error(mp, arrays, docs, oracle_forward):
    """Largest absolute difference over probabilities and gate scores."""
    worst = 0.0
    for doc in docs:
        result = model.forward(doc, mp)
        probs, scores = oracle_forward(
            arrays,
            doc,
            n_layers=mp.encoder.n_layers,
            n_heads=mp.encoder.n_heads,
            use_sentence_class_sim=mp.use_sentence_class_sim,
            use_gate=mp.use_gate,
            use_document_class_sim=mp.use_document_class_sim,
            gate_mode=mp.gate.mode if mp.gate is not None else "scalar",
            attention_scope=mp.attention_scope,
        )
        diffs = np.concatenate(
            [
                np.abs(result.probs.data.reshape(-1) - probs),
                np.abs(np.asarray(result.gate_scores) - scores),
            ]
        )
        if not np.isfinite(diffs).all():
            return math.inf
        worst = max(worst, float(diffs.max()))
    return worst


def check(config, vocab_size, docs, root):
    """Raise GateError unless the float64 twin matches the oracle on `docs`."""
    twin = float64_twin(config, vocab_size)
    error = max_oracle_error(twin, reference_arrays(twin), docs, load_oracle(root))
    if not error <= TOLERANCE:
        raise GateError(
            f"float64 forward differs from the numpy oracle by {error:.3e} "
            f"(tolerance {TOLERANCE:.0e})"
        )
    return error
