import ast
import inspect
import json

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from gatedoc import autodiff as ad
from gatedoc.autodiff import Tensor
from gatedoc.config import TrainConfig
from gatedoc.textpipe import CLS_ID, SEP_ID, RawDocument, TokenizedDocument

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


def recording_functions():
    """Names of the functions of `autodiff` that record a node (call `_make`)."""
    return {
        fn.name for fn in ast.parse(inspect.getsource(ad)).body
        if isinstance(fn, ast.FunctionDef)
        and any(getattr(node.func, "id", None) == "_make"
                for node in ast.walk(fn) if isinstance(node, ast.Call))
    }


def total(x):
    """Sum of all entries of a 2-D tensor, as the (1, 1) product 1^T X 1."""
    rows, cols = x.shape
    dtype = x.data.dtype
    left = ad.linear(Tensor(np.ones((1, rows), dtype=dtype)), x)
    return ad.linear(left, Tensor(np.ones((cols, 1), dtype=dtype)))


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


# JSON-lines files as (kind, line bytes, RawDocument or None) lists: good
# records, blank lines, and every way the reader must skip a line
_OMIT = object()  # a record without a "score" key
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _good_record(draw):
    record = {"id": draw(st.text(max_size=8)), "text": draw(st.text(min_size=1, max_size=30))}
    score = draw(st.sampled_from([_OMIT, None, 1, 2, 3, 4, 5]))
    if score is not _OMIT:
        record["score"] = score
    return record


def _dumped(record, ensure_ascii=True):
    return json.dumps(record, ensure_ascii=ensure_ascii).encode("utf-8")


@st.composite
def _good_line(draw):
    record = draw(_good_record())
    doc = RawDocument(id=record["id"], text=record["text"], score=record.get("score"))
    return _dumped(record, draw(st.booleans())), doc


@st.composite
def _bad_line(draw):
    """A line the reader must skip: one of the ways a record can be malformed."""
    record = draw(_good_record())
    kind = draw(
        st.sampled_from(
            ["not a record", "wrong field", "missing field", "huge number", "deep nesting",
             "not utf-8", "lone surrogate", "cut short"]
        )
    )
    if kind == "not a record":
        value = draw(_JSON_VALUES.filter(lambda v: not isinstance(v, dict)))
        return _dumped(value, draw(st.booleans()))
    if kind == "wrong field":
        field = draw(st.sampled_from(["id", "text", "score"]))
        wrong = _JSON_VALUES.filter(lambda v: not isinstance(v, str))
        if field == "text":
            wrong = wrong | st.just("")
        elif field == "score":  # neither null nor an integer in 1..5
            wrong = _JSON_VALUES.filter(lambda v: v is not None and v not in range(1, 6))
            wrong = wrong | st.sampled_from([True, 3.0, "3"])
        record[field] = draw(wrong)
        return _dumped(record)
    if kind == "missing field":
        del record[draw(st.sampled_from(["id", "text"]))]
        return _dumped(record)
    if kind == "huge number":  # out of range, past the integer-string limit, or inf
        record["score"] = 0
        number = draw(st.sampled_from(["9" * 40, "1" + "0" * 5000, "-" + "7" * 5000, "1e999"]))
        return _dumped(record).replace(b'"score": 0', b'"score": ' + number.encode())
    if kind == "deep nesting":  # from 1000 levels json.loads raises RecursionError
        depth = draw(st.integers(1, 20) | st.integers(1000, 100_000))
        return b"[" * depth + b"]" * depth
    if kind == "lone surrogate":  # a JSON escape that decodes to text UTF-8 cannot encode
        field = draw(st.sampled_from(["id", "text"]))
        at = draw(st.integers(0, len(record[field])))
        surrogate = chr(draw(st.integers(0xD800, 0xDFFF)))
        record[field] = record[field][:at] + surrogate + record[field][at:]
        return _dumped(record)
    line = _dumped(record)
    if kind == "not utf-8":  # a byte >= 0x80 between two ASCII bytes is never valid UTF-8
        at = draw(st.integers(0, len(line)))
        return line[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + line[at:]
    return line[: draw(st.integers(1, len(line) - 1))]  # cut short: the "}" is gone


JSONL_LINES = st.lists(
    st.one_of(
        _good_line().map(lambda g: ("good", *g)),
        _bad_line().map(lambda b: ("bad", b, None)),
        st.sampled_from([b"", b"  ", b"\t", "\u3000".encode()]).map(lambda b: ("blank", b, None)),
    ),
    max_size=12,
)
