"""Outside-in per-stage trace.

`StageTrace` is a context manager that replaces public functions of the
gatedoc modules with timing wrappers and puts the originals back on
exit, so untraced runs execute unpatched code.

Forward: each stage call records its self time (its wall time minus the
stage calls nested in it, so the head excludes the document-side class
similarity) and the node-id interval it ran in.

Backward: the wrapper around `autodiff.backward` traces the loss graph,
assigns each node to the innermost stage whose interval holds its id
(node ids grow in creation order), or to "glue" when no stage created
it, then wraps every node's backward closure with a timer before calling
the original `backward`.  Engine time is backward wall time minus the
time spent inside the closures.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from gatedoc import autodiff, checkpoint, document, encoder, model, textpipe

# (module, attribute, stage name); stage calls may nest
STAGES = (
    (encoder, "transformer_encode", "encoder.transformer"),
    (encoder, "class_similarity", "encoder.classsim"),
    (document, "gate", "document.gate"),
    (document, "encode_sequence", "document.gru_encode"),
    (document, "decode_document", "document.decode"),
    (model, "classify_head", "model.head"),
)
GLUE = "glue"
STAGE_NAMES = tuple(name for _, _, name in STAGES)

# node kinds the model builds today; anything else is counted as "other"
OPS = (
    "matmul", "add", "sub", "mul", "sigmoid", "tanh", "relu", "concat", "slice",
    "gather", "transpose", "softmax", "scale_rows", "layer_norm", "bce",
)


def _next_node_id():
    """The id the next tensor will get (consumes one id; ids only need to grow)."""
    return autodiff.Tensor(0.0).node_id


def attention_useful_fraction(segments, n):
    """Share of the n x n attention scores that the segment mask keeps."""
    if segments is None:
        return 1.0
    sizes = np.bincount(np.asarray(segments))
    return float((sizes.astype(np.float64) ** 2).sum() / (n * n))


class StageTrace:
    def __init__(self):
        self.fwd_s = dict.fromkeys(STAGE_NAMES, 0.0)
        self.bwd_s = dict.fromkeys(STAGE_NAMES + (GLUE,), 0.0)
        self.nodes = dict.fromkeys(STAGE_NAMES + (GLUE,), 0)
        self.op_nodes = Counter()
        self.forwards = 0
        self.backwards = 0
        self.backward_s = 0.0
        self.closure_s = 0.0
        self.calls = Counter()  # adam / load -> number of calls
        self.call_s = Counter()  # adam / load -> seconds
        self.prepared = 0
        self.prepare_s = 0.0
        self.tokens = 0
        self.sentences = 0
        self.attn_useful = []
        self._stack = []  # child time accumulated by each open stage call
        self._spans = []  # (first id, last id, stage) of calls since the last backward
        self._saved = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        patches = [(m, attr, self._stage_wrapper(name)) for m, attr, name in STAGES]
        patches += [
            (autodiff, "backward", self._backward_wrapper),
            (autodiff, "adam_step", self._call_timer("adam")),
            (checkpoint, "load_checkpoint", self._call_timer("load")),
            (textpipe, "prepare_document", self._prepare_wrapper),
        ]
        for module, attr, make in patches:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, make(original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)
        self._spans.clear()
        return False

    # -- wrappers -----------------------------------------------------------

    def _stage_wrapper(self, name):
        def make(fn):
            def traced(*args, **kwargs):
                first = _next_node_id()
                self._stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - t0
                    child = self._stack.pop()
                    if self._stack:
                        self._stack[-1] += elapsed
                self.fwd_s[name] += elapsed - child
                self._spans.append((first, _next_node_id(), name))
                if name == "encoder.transformer":
                    self.forwards += 1
                    segments = kwargs.get("segments", args[2] if len(args) > 2 else None)
                    self.attn_useful.append(attention_useful_fraction(segments, len(args[0])))
                return out

            return traced

        return make

    def _stage_of_nodes(self, graph):
        """Stage name per node id of `graph`, from the recorded intervals."""
        ids = [t.node_id for t in graph.nodes]
        lo, hi = min(ids), max(ids)
        # among nested intervals holding an id, the innermost starts last
        spans = sorted(
            (s for s in self._spans if s[1] >= lo and s[0] <= hi), reverse=True
        )
        out = {}
        for i in ids:
            out[i] = next((name for first, last, name in spans if first <= i <= last), GLUE)
        return out

    def _timed_closure(self, fn, stage):
        def timed(g):
            t0 = time.perf_counter()
            try:
                return fn(g)
            finally:
                dt = time.perf_counter() - t0
                self.bwd_s[stage] += dt
                self.closure_s += dt

        return timed

    def _backward_wrapper(self, fn):
        def traced(loss):
            if loss.node is not None:
                graph = autodiff.Graph.trace(loss)
                stages = self._stage_of_nodes(graph)
                for t in graph.nodes:
                    stage = stages[t.node_id]
                    self.nodes[stage] += 1
                    self.op_nodes[t.node.op if t.node.op in OPS else "other"] += 1
                    t.node.backward_fn = self._timed_closure(t.node.backward_fn, stage)
            self._spans.clear()
            self.backwards += 1
            t0 = time.perf_counter()
            try:
                return fn(loss)
            finally:
                self.backward_s += time.perf_counter() - t0

        return traced

    def _call_timer(self, key):
        def make(fn):
            def traced(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.call_s[key] += time.perf_counter() - t0
                    self.calls[key] += 1

            return traced

        return make

    def _prepare_wrapper(self, fn):
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            doc = fn(*args, **kwargs)
            self.prepare_s += time.perf_counter() - t0
            self.prepared += 1
            self.tokens += len(doc.token_stream)
            self.sentences += len(doc.sep_positions)
            return doc

        return traced

    # -- report -------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as name -> (value, unit)."""

        def per(total, count, scale=1.0):
            return total * scale / count if count else 0.0

        fwd, bwd = self.forwards, self.backwards
        out = {}
        for name in STAGE_NAMES:
            out[f"{name}.fwd_ms"] = (per(self.fwd_s[name], fwd, 1e3), "ms")
        for name in STAGE_NAMES + (GLUE,):
            out[f"{name}.bwd_ms"] = (per(self.bwd_s[name], bwd, 1e3), "ms")
            out[f"{name}.nodes"] = (per(self.nodes[name], bwd), "count")
        out["encoder.attn_useful_frac"] = (
            float(np.mean(self.attn_useful)) if self.attn_useful else 0.0, "fraction"
        )
        out["autodiff.backward_ms"] = (per(self.backward_s, bwd, 1e3), "ms")
        out["autodiff.backward_engine_ms"] = (
            per(self.backward_s - self.closure_s, bwd, 1e3), "ms"
        )
        out["autodiff.nodes_per_doc"] = (per(sum(self.nodes.values()), bwd), "count")
        for op in OPS + ("other",):
            out[f"autodiff.nodes.{op}"] = (per(self.op_nodes[op], bwd), "count")
        out["autodiff.adam_ms_per_step"] = (
            per(self.call_s["adam"], self.calls["adam"], 1e3), "ms"
        )
        out["textpipe.prepare_ms_per_doc"] = (per(self.prepare_s, self.prepared, 1e3), "ms")
        out["textpipe.tokens_per_doc"] = (per(self.tokens, self.prepared), "count")
        out["textpipe.sentences_per_doc"] = (per(self.sentences, self.prepared), "count")
        out["checkpoint.load_ms"] = (per(self.call_s["load"], self.calls["load"], 1e3), "ms")
        return out
