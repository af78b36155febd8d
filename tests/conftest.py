import numpy as np
import pytest
from hypothesis import settings

from gatedoc import autodiff as ad
from gatedoc.autodiff import Tensor
from gatedoc.config import TrainConfig
from gatedoc.textpipe import CLS_ID, SEP_ID, TokenizedDocument

# every property test draws the same examples on every run and keeps no
# example database; no deadline, since timings swing with machine load
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")


def tiny_config(**overrides):
    """Small 64-bit config for exactness tests."""
    base = dict(
        scheme="three_way",
        d_tok=4,
        d_h=8,
        n_heads=2,
        n_layers=1,
        d_class=3,
        d_class_hidden=4,
        d_g=6,
        d_out_hidden=8,
        max_sentences=8,
        max_stream_len=48,
        dtype="float64",
    )
    base.update(overrides)
    return TrainConfig(**base).validate()


def make_doc(rng, n_sentences, vocab_size, n_classes=3, label=0, doc_id="doc"):
    """A TokenizedDocument with random token ids, bypassing the text pipeline."""
    stream = [CLS_ID]
    sentences = []
    sep_positions = []
    spans = []
    cursor = 0
    for _ in range(n_sentences):
        n_tok = int(rng.integers(2, 6))
        ids = [int(t) for t in rng.integers(5, vocab_size, size=n_tok)]
        sentences.append(ids)
        stream.extend(ids)
        stream.append(SEP_ID)
        sep_positions.append(len(stream) - 1)
        spans.append((cursor, cursor + n_tok))
        cursor += n_tok + 1
    return TokenizedDocument(
        id=doc_id,
        sentences=sentences,
        token_stream=stream,
        sep_positions=sep_positions,
        sentence_spans=spans,
        label=label,
        n_classes=n_classes,
    )


def total(x):
    """Sum of all entries of a 2-D tensor, as the (1, 1) product 1^T X 1."""
    rows, cols = x.shape
    dtype = x.data.dtype
    left = ad.matmul(Tensor(np.ones((1, rows), dtype=dtype)), x)
    return ad.matmul(left, Tensor(np.ones((cols, 1), dtype=dtype)))


def randomize_params(params, rng, scale=0.5):
    """Overwrite every parameter with uniform random values (same dtype)."""
    for _, t in params.named_parameters():
        t.data = rng.uniform(-scale, scale, size=t.data.shape).astype(t.data.dtype)


def skewed_backward(op, factor=1.01):
    """`op` with every input gradient of its backward scaled by `factor`."""

    def skewed(*args, **kwargs):
        out = op(*args, **kwargs)
        if out.node is not None:
            bw = out.node.backward_fn
            out.node.backward_fn = lambda g: tuple(factor * gi for gi in bw(g))
        return out

    return skewed


def zero_params(params):
    for _, t in params.named_parameters():
        t.data = np.zeros_like(t.data)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
