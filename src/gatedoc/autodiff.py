"""Dense-tensor engine with reverse-mode automatic differentiation.

Covers exactly what the gated document classifier needs: 2-D matrix
products, the affine map x W + b as one node, pointwise add and mul of
equal shapes, sigmoid/tanh/relu, row gather, an n-ary concat that joins
columns, transpose, block-scoped multi-head attention (one node with a
hand-written backward; query blocks of their own and a score scale
serve the decoder), GRU runs over sequences packed by length (one node,
input projections hoisted out of the step loop, and a hand-written
backward through time), row-wise layer normalisation, binary
cross-entropy, the one initializer that makes every parameter (drawn,
filled with a constant, or taken from a checkpoint's arrays) and lists
each one it makes, a fourth-order central-difference gradient checker
and an Adam optimizer.  No op broadcasts but `mul`, whose second operand
may be a column as tall as the first, scaling its rows (the gate
application); a bias row enters only through `linear`.  Each op checks
the shapes it is given and raises DimensionError, so the model code
above it does not check them again.

Outside the GEMMs, most of an op's time goes to numpy passes over small
arrays, so the kernels make few of them: results are formed in place
where the inputs are not needed again, a row reduction over a few dozen
entries (layer norm's means, attention's softmax sums) is a GEMV against
a constant vector, and attention gathers and scatters each operand once,
head-major.  `Tensor` holds its data as given: every caller passes a
float32 or float64 array, and each op returns one in its inputs' dtype.

Weights may be row-major or column-major.  `checkpoint.load_checkpoint`
holds every large matrix column-major (see there), and the forward
products of `linear`, `matmul` and `gru` go through `_mm`.  Against
such a weight w, up to `_FEW_ROWS` rows are multiplied as (w^T x^T)^T,
which makes w OpenBLAS's left operand: at d_h = 768 that takes 0.5-0.9x
the time of the row-major product, and a one-document predict at full
scale about 0.8x (2 cores).  From about 200 rows on it is slower than
numpy's own x @ w on the column-major w, which `_mm` then runs, as it
does for one 1-D row.  A row-major weight, which is all `build_model`
makes, is multiplied as x @ w, so a built model's arithmetic does not
depend on any of this.

Graphs are built eagerly: every operation whose inputs require
gradients records a `Node` holding the op kind, its input tensors and a
backward closure with whatever activations the derivative needs.
`backward` walks the reachable nodes once, in reverse creation order
(creation order is topological by construction), and detaches each node
from its output as it goes, so activations are freed during the walk.
A graph is walked once: a later backward that reaches it raises, as
does one from a loss that recorded no node.  Inside `no_grad` no op
records a node, so an inference pass keeps no activations.  The only
global mutable state is the node-id counter and that recording flag, a
context variable local to the thread (and asyncio task) that set it, so
independent graphs can be built concurrently.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, DimensionError, GradCheckError, TrainingError, UsageError

_node_ids = itertools.count()
_recording = contextvars.ContextVar("recording", default=True)  # False inside `no_grad`

_PROB_CLAMP = 1e-7  # bce_loss clamps probabilities into [1e-7, 1 - 1e-7]
_LN_EPS = 1e-5  # added to the row variance in layer_norm
_BETA1, _BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor
_ADAM_CHUNK = 1 << 15  # elements Adam updates at a time: its temporaries stay in cache
_FEW_ROWS = 128  # rows up to which `_mm` makes a column-major weight the left operand


class Node:
    """One recorded operation: op kind, inputs, and the backward rule."""

    __slots__ = ("op", "inputs", "backward_fn")

    def __init__(self, op, inputs, backward_fn):
        self.op = op
        self.inputs = inputs
        self.backward_fn = backward_fn


class Tensor:
    """A dense array participating in a reverse-mode differentiation graph.

    `data` is never mutated by operations; `adam_step` updates it in
    place between graph builds, so a C-contiguous array taken from `data`
    before a step holds the new values after it.  Any other, such as a
    column-major matrix from `checkpoint.load_checkpoint`, is replaced by
    a row-major copy on the first step.  `grad` accumulates across
    backward calls until `zero_grad` clears it, which is what
    batch-level gradient accumulation relies on.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "node", "node_id")

    def __init__(self, data, requires_grad=False, name=None):
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.grad = None
        self.name = name
        self.node = None
        self.node_id = next(_node_ids)

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, grad={self.requires_grad}{tag})"


def parameter(name, data):
    """A named trainable leaf."""
    return Tensor(data, requires_grad=True, name=name)


def initializer(dtype, rng=None, stored=None):
    """The maker of every parameter: `init(name, rows, cols, fill=None)`.

    Without `stored`, `init` returns a (rows x cols) leaf in `dtype`
    filled with the constant `fill`, or, when `fill` is None, drawn from
    `rng` uniform in +-sqrt(6 / (rows + cols)) (Xavier), so the draws
    follow the call order.  With `stored`, a name -> array map, `init`
    draws nothing: it pops the array stored under `name`, which the leaf
    then holds (converted when its dtype is not `dtype`), and refuses a
    missing name or another shape with CheckpointError.  Whatever is
    left in the map was never asked for.  A leaf too large to allocate
    is a UsageError, since its size comes from the config.  `init.made`
    lists every (name, leaf) made so far, in call order.
    """
    def init(name, rows, cols, fill=None):
        if stored is not None:
            data = stored.pop(name, None)
            if data is None:
                raise CheckpointError(f"checkpoint has no parameter {name!r}")
            if data.shape != (rows, cols):
                raise CheckpointError(
                    f"parameter {name!r}: stored shape {data.shape} != expected {(rows, cols)}"
                )
        else:
            try:
                if fill is not None:
                    data = np.full((rows, cols), fill, dtype=dtype)
                else:
                    limit = math.sqrt(6.0 / (rows + cols))
                    data = rng.uniform(-limit, limit, size=(rows, cols))
            # numpy refuses a size past its index range, the OS one past memory
            except (ValueError, OverflowError, MemoryError) as exc:
                raise UsageError(
                    f"parameter {name!r} of shape {(rows, cols)} is too large to allocate"
                ) from exc
        leaf = parameter(name, np.asarray(data, dtype=dtype))
        init.made.append((name, leaf))
        return leaf

    init.made = []
    return init


_WALKED = Node("walked", (), None)  # stands in for a node `backward` has walked


@contextlib.contextmanager
def no_grad():
    """Within the block, ops in this context record no node: their outputs
    are constants whatever their inputs, so nothing they compute is kept
    for a backward pass.  A thread started inside the block records."""
    token = _recording.set(False)
    try:
        yield
    finally:
        _recording.reset(token)


def _make(op, out_data, inputs, backward_fn):
    """An op's output; it records a node if recording and an input requires grad."""
    t = Tensor.__new__(Tensor)
    t.data, t.grad, t.name = out_data, None, None
    t.requires_grad = _recording.get() and any(i.requires_grad for i in inputs)
    t.node = Node(op, inputs, backward_fn) if t.requires_grad else None
    t.node_id = next(_node_ids)
    return t


@dataclass
class Graph:
    """Reachable operation nodes of one output, in creation order."""

    nodes: list

    @classmethod
    def trace(cls, output):
        seen = set()
        ops = []
        stack = [output]
        while stack:
            t = stack.pop()
            if id(t) in seen or t.node is None:
                continue
            seen.add(id(t))
            ops.append(t)
            stack.extend(t.node.inputs)
        ops.sort(key=lambda t: t.node_id)
        return cls(nodes=ops)


def backward(loss):
    """Accumulate gradients of a scalar `loss` into every requires_grad leaf."""
    if loss.data.size != 1:
        raise UsageError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss.node is None:
        raise UsageError("backward needs a loss that recorded a graph")

    nodes = Graph.trace(loss).nodes
    grads = {id(loss): np.ones_like(loss.data)}
    while nodes:
        t = nodes.pop()
        # each node is walked once: dropping it frees the activations it
        # saved, and its inputs once no other node holds them
        node, t.node = t.node, _WALKED
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if node is _WALKED:
            raise UsageError("backward through a graph that an earlier backward walked")
        in_grads = node.backward_fn(g)
        for inp, ig in zip(node.inputs, in_grads):
            if ig is None or not inp.requires_grad:
                continue
            if inp.node is None:
                inp.grad = ig if inp.grad is None else inp.grad + ig
            else:
                key = id(inp)
                grads[key] = ig if key not in grads else grads[key] + ig


def zero_grad(params):
    for t in params:
        t.grad = None


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------


def _t_dot(a, g):
    """a^T g.  For one row the broadcast product gives the same values and
    runs about 3x faster than a rank-1 BLAS GEMM at d = 768."""
    return a.T * g if a.shape[0] == 1 else a.T @ g


def _mm(x, w):
    """x @ w.  A column-major w times at most `_FEW_ROWS` rows is computed
    as (w^T x^T)^T, where w^T is row-major; see the module docstring."""
    if w.flags.c_contiguous or x.ndim == 1 or x.shape[0] > _FEW_ROWS:
        return x @ w
    return np.ascontiguousarray((w.T @ x.T).T)


def matmul(a, b):
    """Standard 2-D matrix product."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    out = _mm(a.data, b.data)

    def bw(g):
        return (
            g @ b.data.T if a.requires_grad else None,
            _t_dot(a.data, g) if b.requires_grad else None,
        )

    return _make("matmul", out, (a, b), bw)


def linear(x, w, b):
    """The affine map x W + b, with b a (1 x d_out) row, as one node."""
    fits = x.data.ndim == w.data.ndim == 2 and x.shape[1] == w.shape[0]
    if not fits or b.shape != (1, w.shape[1]):
        raise DimensionError(
            f"linear: input {x.shape}, weight {w.shape} and bias {b.shape} do not fit"
        )
    out = _mm(x.data, w.data)
    out += b.data

    def bw(g):
        return (
            g @ w.data.T if x.requires_grad else None,
            _t_dot(x.data, g) if w.requires_grad else None,
            g.sum(axis=0, keepdims=True) if b.requires_grad else None,
        )

    return _make("linear", out, (x, w, b), bw)


def _same_shape(kind, a, b):
    if a.shape != b.shape:
        raise DimensionError(f"{kind}: shapes {a.shape} and {b.shape} differ")


def add(a, b):
    """Pointwise sum of two tensors of one shape."""
    _same_shape("add", a, b)

    def bw(g):
        return (g if a.requires_grad else None, g if b.requires_grad else None)

    return _make("add", a.data + b.data, (a, b), bw)


def mul(a, b):
    """Pointwise product of two tensors of one shape, or of a 2-D `a` and
    a column `b` as tall as it, which scales row i of `a` by b[i] (the
    gate application)."""
    ad, bd = a.data, b.data
    column = ad.ndim == 2 and bd.shape == (ad.shape[0], 1)
    if not column:
        _same_shape("mul", a, b)

    def bw(g):
        gb = None
        if b.requires_grad:
            gb = (g * ad).sum(axis=1, keepdims=True) if column else g * ad
        return (g * bd if a.requires_grad else None, gb)

    return _make("mul", ad * bd, (a, b), bw)


def _sigmoid(x):
    # exp(min(x, 0)) / (1 + exp(-|x|)) never exponentiates a positive
    # argument; it equals 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below
    return np.exp(np.minimum(x, 0)) / (1.0 + np.exp(-np.abs(x)))


def sigmoid(x):
    y = _sigmoid(x.data)

    def bw(g):
        return (g * y * (1.0 - y),)

    return _make("sigmoid", y, (x,), bw)


def tanh(x):
    y = np.tanh(x.data)

    def bw(g):
        return (g * (1.0 - y * y),)

    return _make("tanh", y, (x,), bw)


def relu(x):
    mask = x.data > 0

    def bw(g):
        return (g * mask,)

    return _make("relu", np.maximum(x.data, 0), (x,), bw)


def concat(tensors):
    """2-D tensors of one height side by side; backward splits the columns."""
    tensors = tuple(tensors)
    rows = tensors[0].shape[:1]
    if any(t.data.ndim != 2 or t.shape[:1] != rows for t in tensors):
        raise DimensionError(f"concat: incompatible shapes {[t.shape for t in tensors]}")
    out = np.concatenate([t.data for t in tensors], axis=1)
    bounds = np.cumsum([t.shape[1] for t in tensors[:-1]])

    def bw(g):
        parts = np.split(g, bounds, axis=1)
        return tuple(p if t.requires_grad else None for p, t in zip(parts, tensors))

    return _make("concat", out, tensors, bw)


def gather_rows(x, indices):
    """Rows of a 2-D tensor at `indices`; backward scatter-adds (repeats sum).

    The backward scatter-adds element by element, through flat indices
    into the gradient's buffer: numpy runs `np.add.at` on a 1-D array
    about 4x faster than row by row on a 2-D one, and adds each element's
    rows in the same order, so the result is the same.
    """
    if x.data.ndim != 2:
        raise DimensionError(f"gather_rows needs a 2-D tensor, got shape {x.shape}")
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise DimensionError("gather_rows indices must be a flat sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[0]):
        raise DimensionError(f"gather_rows: index out of range for {x.shape[0]} rows")
    out = x.data[idx]

    def bw(g):
        full = np.zeros(x.shape, x.data.dtype)  # C order, so its flat view is a view
        cols = x.shape[1]
        flat = (idx[:, None] * cols + np.arange(cols)).reshape(-1)
        np.add.at(full.reshape(-1), flat, g.reshape(-1))
        return (full,)

    return _make("gather", out, (x,), bw)


def transpose(x):
    if x.data.ndim != 2:
        raise DimensionError(f"transpose needs a 2-D tensor, got shape {x.shape}")
    out = x.data.T.copy()

    def bw(g):
        return (g.T,)

    return _make("transpose", out, (x,), bw)


def _group_blocks(blocks):
    """Indices of the blocks batched together, one list per group.

    Each group is padded to its longest block.  Every group costs a
    fixed run of numpy calls, so all blocks share one group when that
    keeps the padded score entries, sum of n_group * L^2, within
    4 * sum(L_i^2).  Otherwise blocks whose lengths share a power-of-two
    ceiling form a group; a group's longest block is then under twice
    its shortest, which keeps the same bound.
    """
    lengths = [stop - start for start, stop in blocks]
    if len(blocks) * max(lengths) ** 2 <= 4 * sum(L * L for L in lengths):
        return [list(range(len(blocks)))]
    by_ceiling = {}
    for i, length in enumerate(lengths):
        by_ceiling.setdefault((length - 1).bit_length(), []).append(i)
    return list(by_ceiling.values())


def _pad_ranges(ranges):
    """(rows, valid) of (start, stop) row ranges padded to the longest.

    `rows` (n_ranges x L) holds each range's row indices, padding
    repeating its first row; `valid` marks the real entries, or is None
    when nothing is padded.
    """
    sizes = [stop - start for start, stop in ranges]
    offsets = np.arange(max(sizes))
    valid = offsets < np.array(sizes)[:, None]
    rows = np.array([start for start, _ in ranges])[:, None] + offsets * valid
    return rows, None if min(sizes) == len(offsets) else valid


def _check_tiling(kind, ranges, n, allow_empty=False):
    pos = 0
    for start, stop in ranges:
        if start != pos or stop < start + (not allow_empty):
            raise DimensionError(f"attention: {kind} ({start}, {stop}) does not follow row {pos}")
        pos = stop
    if pos != n or not n:
        raise DimensionError(f"attention: {kind} cover {pos} of {n} rows")


def attention(q, k, v, n_heads, blocks, q_blocks=None, scale=None):
    """Multi-head dot-product attention scoped to row blocks.

    k and v are (n x d) and q is (m x d); head h uses columns
    [h*d_k, (h+1)*d_k) with d_k = d / n_heads.  `blocks` lists
    (start, stop) key ranges tiling [0, n) in order, and `q_blocks` one
    query range per block, tiling [0, m) in order (default: `blocks`).
    Key blocks are non-empty; a query range may be empty, and its block
    is dropped before grouping: no output reads its keys, so their dK
    and dV rows are exactly 0.
    The queries of range i attend only to the keys of block i: per block
    and head, softmax(scale Q K^T) V, where `scale` defaults to
    1/sqrt(d_k).  Blocks are batched by key length group (`_group_blocks`),
    the group's key and query ranges each padded to their longest.  Each
    operand is gathered once into a head-major (heads x n_group x L x d_k)
    array by indexing its (rows x heads x d_k) view, and the output and
    the gradients are scattered back through the same view.  Padded keys
    score -inf, padded query rows carry no gradient, and only real rows
    are written: the output and dQ at the query rows, dK and dV at the
    key rows.  The scores become the weights P in place; the softmax
    denominators and the backward's rowsum(dP * P) are GEMVs against a
    ones vector, and each row max is taken over the leading axis of a
    copy with the keys first, since numpy reduces a short last axis
    slowly.  The backward pass keeps P and applies dV = P^T G,
    dS = scale P * (dP - rowsum(dP * P)), dQ = dS K, dK = dS^T Q.
    """
    if q.data.ndim != 2 or k.data.ndim != 2 or v.shape != k.shape or q.shape[1] != k.shape[1]:
        raise DimensionError(f"attention: q {q.shape}, k {k.shape} and v {v.shape} do not fit")
    d = k.shape[1]
    if n_heads <= 0 or d % n_heads:
        raise DimensionError(f"attention: width {d} not divisible by {n_heads} heads")
    _check_tiling("blocks", blocks, k.shape[0])
    if q_blocks is not None:
        if len(q_blocks) != len(blocks):
            raise DimensionError(f"attention: {len(q_blocks)} query ranges, {len(blocks)} blocks")
        _check_tiling("q_blocks", q_blocks, q.shape[0], allow_empty=True)
    d_k = d // n_heads
    if scale is None:
        scale = 1.0 / math.sqrt(d_k)

    def heads(x, rows):  # (heads x group x L x d_k), through the (rows x heads x d_k) view
        return x.reshape(-1, n_heads, d_k).transpose(1, 0, 2)[:, rows]

    def put_rows(dest, xh, rows, valid):
        view = dest.reshape(-1, n_heads, d_k).transpose(1, 0, 2)
        if valid is None:
            view[:, rows] = xh
        else:
            view[:, rows[valid]] = xh[:, valid]

    def row_sums(a):  # over the last axis, as one GEMV
        return (a.reshape(-1, a.shape[-1]) @ np.ones(a.shape[-1], a.dtype)).reshape(a.shape[:-1])

    if q_blocks is not None:  # a block without queries adds nothing
        kept = [i for i, (start, stop) in enumerate(q_blocks) if stop > start]
        blocks, q_blocks = [blocks[i] for i in kept], [q_blocks[i] for i in kept]
    out = np.empty_like(q.data)
    saved = []
    for members in _group_blocks(blocks):
        qrows, qvalid = krows, kvalid = _pad_ranges([blocks[i] for i in members])
        if q_blocks is not None:
            qrows, qvalid = _pad_ranges([q_blocks[i] for i in members])
        qh, kh, vh = heads(q.data, qrows), heads(k.data, krows), heads(v.data, krows)
        p = qh @ kh.transpose(0, 1, 3, 2)  # the scores, made the weights P in place
        p *= scale
        if kvalid is not None:
            np.copyto(p, -np.inf, where=~kvalid[None, :, None, :])
        p -= np.ascontiguousarray(np.moveaxis(p, -1, 0)).max(axis=0)[..., None]
        np.exp(p, out=p)
        p /= row_sums(p)[..., None]
        put_rows(out, p @ vh, qrows, qvalid)
        saved.append((qrows, qvalid, krows, kvalid, qh, kh, vh, p))

    def bw(g):
        grads = [np.zeros_like(t.data) if t.requires_grad else None for t in (q, k, v)]
        dq, dk, dv = grads
        for qrows, qvalid, krows, kvalid, qh, kh, vh, p in saved:
            gh = heads(g, qrows)
            if qvalid is not None:
                gh *= qvalid[None, :, :, None]  # padded query rows carry no gradient
            ds = gh @ vh.transpose(0, 1, 3, 2)  # dP, made dS in place
            ds -= row_sums(ds * p)[..., None]
            ds *= p
            ds *= scale
            if dq is not None:
                put_rows(dq, ds @ kh, qrows, qvalid)
            if dk is not None:
                put_rows(dk, ds.transpose(0, 1, 3, 2) @ qh, krows, kvalid)
            if dv is not None:
                put_rows(dv, p.transpose(0, 1, 3, 2) @ gh, krows, kvalid)
        return tuple(grads)

    return _make("attention", out, (q, k, v), bw)


def gru(x, h0, w, u, b, lengths):
    """GRU runs over consecutive runs of the rows of x, one run per
    sequence, as one node.

    `lengths` cuts the n rows of x into consecutive sequences; h0 holds
    one starting state per sequence.  `w`, `u` and `b` are the (z, r, h)
    triples of input weights (d_in x d), recurrent weights (d x d) and
    biases (1 x d).  Row j of the (n x d) output is its sequence's state
    after reading row j of x:
        z = sigmoid(x_j W_z + h U_z + b_z)
        r = sigmoid(x_j W_r + h U_r + b_r)
        c = tanh(x_j W_h + (r * h) U_h + b_h)
        h' = (1 - z) * h + z * c
    The sequences run packed by length, as a PackedSequence does: the
    rows are reordered step-major with the longest sequences first, so
    step i updates the leading rows of the state matrix, one for each
    sequence longer than i.  The input projections X W + b are three
    GEMMs before the step loop (Appleyard et al. 2016, arXiv:1604.01946).
    The backward pass carries dh back through the steps and keeps the
    gradients dA of the three pre-activations; after the loop
    dW = X^T dA, dU_z = H_prev^T dA_z, dU_r = H_prev^T dA_r,
    dU_h = (R * H_prev)^T dA_h and dX = sum of dA W^T, one GEMM each
    over all steps.
    """
    if x.data.ndim != 2 or x.shape[0] < 1:
        raise DimensionError(f"gru: input must be 2-D with at least one row, got {x.shape}")
    n, d_in, d = x.shape[0], x.shape[1], h0.shape[-1]
    lengths = [int(length) for length in lengths]
    if not lengths or min(lengths) < 1 or sum(lengths) != n:
        raise DimensionError(f"gru: sequence lengths {lengths} do not cut {n} rows")
    expected = [(len(lengths), d)] + [(d_in, d)] * 3 + [(d, d)] * 3 + [(1, d)] * 3
    inputs = (x, h0, *w, *u, *b)
    if [t.shape for t in inputs[1:]] != expected:
        raise DimensionError(
            f"gru: input {x.shape} / state {h0.shape} do not match {len(lengths)} sequences "
            f"and weights {[t.shape for t in w]}, {[t.shape for t in u]}, {[t.shape for t in b]}"
        )
    # step-major order, longest sequences first (stable): the sequences
    # still running at step i are the first a_i rows of that step
    n_seq = len(lengths)
    by_len = sorted(range(n_seq), key=lengths.__getitem__, reverse=True)
    ending = [0] * lengths[by_len[0]]  # ending[i]: sequences of length i + 1
    for length in lengths:
        ending[length - 1] += 1
    running = list(itertools.accumulate(reversed(ending)))[::-1]
    order = slice(None)  # one sequence, or one step: the rows are in order
    if n_seq > 1 and len(running) > 1:
        firsts = list(itertools.accumulate([0] + lengths[:-1]))
        order = [firsts[s] + i for i, a in enumerate(running) for s in by_len[:a]]
    # `states` holds the sorted h0 rows, then each packed row's new state,
    # so the states before a step are a slice: h0, or the last step's.  A
    # step of one sequence indexes 1-D rows, which numpy handles faster.
    starts = [0, *itertools.accumulate(running)][:-1]
    befores = [0] + [n_seq + start for start in starts[:-1]]
    steps = [
        (s, p) if a == 1 else (slice(s, s + a), slice(p, p + a))
        for s, a, p in zip(starts, running, befores)
    ]
    xd = x.data[order]
    u_z, u_r, u_h = (t.data for t in u)
    p_z, p_r, p_h = (_mm(xd, wt.data) + bt.data for wt, bt in zip(w, b))
    states = np.empty((n_seq + n, d), dtype=xd.dtype)
    states[:n_seq] = h0.data[by_len]
    new_states = states[n_seq:]
    zs, rs, cs = (np.empty((n, d), dtype=xd.dtype) for _ in range(3))
    for now, before in steps:
        h = states[before]
        a = _mm(h, u_z)
        a += p_z[now]
        z = zs[now] = _sigmoid(a)
        a = _mm(h, u_r)
        a += p_r[now]
        r = rs[now] = _sigmoid(a)
        a = _mm(r * h, u_h)
        a += p_h[now]
        c = cs[now] = np.tanh(a)
        new_states[now] = (1.0 - z) * h + z * c
    out = np.empty_like(new_states)
    out[order] = new_states

    def bw(g):
        h_prev = states[[p + i for p, a in zip(befores, running) for i in range(a)]]
        # the per-step factors that do not depend on the carried gradient
        k_z = zs * (1.0 - zs) * (cs - h_prev)  # dA_z = dh * k_z
        k_h = zs * (1.0 - cs * cs)  # dA_h = dh * k_h
        rh = rs * h_prev
        k_r = (1.0 - rs) * rh  # dA_r = (dA_h U_h^T) * k_r
        keep = 1.0 - zs
        da_z, da_r, da_h = (np.empty_like(zs) for _ in range(3))
        # d_states[j] gathers dL/d states[j]: the output gradient, and the
        # carry back from the sequence's next step, added when it is run
        d_states = np.zeros_like(states)
        d_new = d_states[n_seq:]
        d_new[...] = g[order]
        for now, before in reversed(steps):
            dh = d_new[now]
            a_z = da_z[now] = dh * k_z[now]
            a_h = da_h[now] = dh * k_h[now]
            d_rh = a_h @ u_h.T
            a_r = da_r[now] = d_rh * k_r[now]
            d_states[before] += dh * keep[now] + d_rh * rs[now] + a_z @ u_z.T + a_r @ u_r.T
        das = (da_z, da_r, da_h)
        dx = dh0 = None
        if x.requires_grad:
            dx = np.empty_like(xd)
            dx[order] = sum(da @ wt.data.T for da, wt in zip(das, w))
        if h0.requires_grad:
            dh0 = np.empty_like(h0.data)
            dh0[by_len] = d_states[:n_seq]
        grads = [dx, dh0]
        grads += [_t_dot(xd, da) if wt.requires_grad else None for da, wt in zip(das, w)]
        grads += [
            _t_dot(hp, da) if ut.requires_grad else None
            for hp, da, ut in zip((h_prev, h_prev, rh), das, u)
        ]
        grads += [
            da.sum(axis=0, keepdims=True) if bt.requires_grad else None
            for da, bt in zip(das, b)
        ]
        return tuple(grads)

    return _make("gru", out, inputs, bw)


def layer_norm(x, gain, bias):
    """Row-wise layer normalisation of a 2-D tensor: (x - mean) /
    sqrt(var + 1e-5) * gain + bias, per row.

    numpy reduces rows of a few dozen entries slowly, so every row mean
    (the mean and variance, and the two means of the backward pass) is a
    GEMV against a constant 1/d vector.
    """
    if x.data.ndim != 2:
        raise DimensionError(f"layer_norm needs a 2-D tensor, got shape {x.shape}")
    d = x.shape[1]
    if gain.shape != (1, d) or bias.shape != (1, d):
        raise DimensionError(
            f"layer_norm: gain {gain.shape} / bias {bias.shape} are not (1, {d}) rows"
        )
    avg = np.full(d, 1.0 / d, dtype=x.data.dtype)
    xhat = x.data - (x.data @ avg)[:, None]  # centred, then scaled in place
    inv = (1.0 / np.sqrt(np.square(xhat) @ avg + _LN_EPS))[:, None]
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def bw(g):
        dxhat = g * gain.data
        dx = None
        if x.requires_grad:
            dx = dxhat - (dxhat @ avg)[:, None]
            dx -= xhat * ((dxhat * xhat) @ avg)[:, None]
            dx *= inv
        dgain = (g * xhat).sum(axis=0, keepdims=True) if gain.requires_grad else None
        dbias = g.sum(axis=0, keepdims=True) if bias.requires_grad else None
        return (dx, dgain, dbias)

    return _make("layer_norm", out, (x, gain, bias), bw)


def bce_rows(probs, target):
    """Each row's mean binary cross-entropy of per-class probabilities
    (arrays) vs a one-hot target, probabilities clamped into
    [1e-7, 1 - 1e-7] before the log."""
    p = np.clip(probs, _PROB_CLAMP, 1.0 - _PROB_CLAMP)
    per = -(target * np.log(p) + (1.0 - target) * np.log1p(-p))
    return per.sum(axis=1) / probs.shape[1]


def bce_loss(probs, target):
    """Mean over rows of `bce_rows`, one document per row.

    Gradients vanish on the clamped region.  The target is a constant.
    """
    if probs.data.ndim != 2 or probs.data.shape != target.data.shape:
        raise DimensionError(
            f"bce_loss: probs shape {probs.shape} != target shape {target.shape}"
        )
    lo, hi = _PROB_CLAMP, 1.0 - _PROB_CLAMP
    p = np.clip(probs.data, lo, hi)
    t = target.data
    c = probs.data.size
    out = np.full((1, 1), bce_rows(probs.data, t).mean(), dtype=probs.data.dtype)
    inside = (probs.data > lo) & (probs.data < hi)

    def bw(g):
        return (g.reshape(()) / c * inside * (-t / p + (1.0 - t) / (1.0 - p)),)

    return _make("bce", out, (probs,), bw)


# ---------------------------------------------------------------------------
# verification and optimization
# ---------------------------------------------------------------------------


def grad_check(f, params, eps=1e-4):
    """Worst relative error between analytic and central-difference gradients.

    `f` is a closure that rebuilds the computation from the current
    contents of `params` (a sequence of leaf tensors) and returns a
    scalar tensor.  The numeric gradient is the fourth-order stencil
    (8 (f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h; each difference is
    taken before it is scaled, so a zero gradient reads as exactly zero.
    Relative error uses max(|analytic|, |numeric|, 1e-8) as the
    denominator.  Returns (worst, (name, flat index, analytic, numeric));
    the entry is None when `params` hold no values.  Run in 64-bit.
    """
    params = list(params)
    zero_grad(params)
    loss = f()
    if not np.isfinite(loss.data).all():
        raise GradCheckError("non-finite loss at the evaluation point")
    backward(loss)
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]
    worst, entry = 0.0, None
    for p, ana in zip(params, analytic):
        p.data = np.ascontiguousarray(p.data)  # reshape below must be a view
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            values = []
            for step in (eps, -eps, 2.0 * eps, -2.0 * eps):
                flat[i] = orig + step
                values.append(float(f().data.reshape(())))
            flat[i] = orig
            if not all(math.isfinite(v) for v in values):
                raise GradCheckError(
                    f"non-finite value while perturbing {p.name or 'parameter'}[{i}]"
                )
            f1p, f1m, f2p, f2m = values
            num = (8.0 * (f1p - f1m) - (f2p - f2m)) / (12.0 * eps)
            a = float(ana.reshape(-1)[i])
            rel = abs(a - num) / max(abs(a), abs(num), 1e-8)
            if entry is None or rel > worst:
                worst, entry = rel, (p.name, i, a, num)
    zero_grad(params)
    return worst, entry


@dataclass
class OptimizerState:
    """Adam moments and step counter for a set of named parameters."""

    learning_rate: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(named, state):
    """One Adam update of each (name, Tensor) in `named` from its `.grad`.

    The moments and `p.data` are updated in place, in chunks of
    `_ADAM_CHUNK` elements, so a step allocates no parameter-sized array
    beyond the moments made on the first one; only a gradient or a `data`
    that is not C-contiguous is copied once.  Each chunk runs Algorithm 1
    of Kingma & Ba in the same expression order as the whole-array
    `p - lr * (m / bc1) / (sqrt(v / bc2) + eps)`, so the result is the same
    to the bit.  Deterministic given inputs; raises TrainingError on a
    non-finite gradient, naming the parameter, before anything of that
    parameter is updated.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    lr = state.learning_rate
    for name, p in named:
        g = p.grad.reshape(-1)  # a copy only when the gradient is not C-contiguous
        chunks = [slice(i, i + _ADAM_CHUNK) for i in range(0, g.size, _ADAM_CHUNK)]
        if not all(np.isfinite(g[c]).all() for c in chunks):
            raise TrainingError(
                f"non-finite gradient for parameter {name!r}; a smaller learning_rate "
                f"than {lr} may keep it finite"
            )
        p.data = np.ascontiguousarray(p.data)  # reshape below must be a view
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros(p.data.shape, p.data.dtype)
            state.v[name] = np.zeros(p.data.shape, p.data.dtype)
        flat_p, flat_m, flat_v = p.data.reshape(-1), m.reshape(-1), state.v[name].reshape(-1)
        num = np.empty(min(g.size, _ADAM_CHUNK), p.data.dtype)
        den = np.empty_like(num)
        for c in chunks:
            gc, mc, vc, pc = g[c], flat_m[c], flat_v[c], flat_p[c]
            nc, dc = num[: gc.size], den[: gc.size]
            mc *= _BETA1
            mc += np.multiply(gc, 1.0 - _BETA1, out=nc)
            vc *= _BETA2
            np.multiply(gc, 1.0 - _BETA2, out=nc)
            vc += np.multiply(nc, gc, out=nc)
            np.divide(mc, bc1, out=nc)
            nc *= lr
            np.sqrt(np.divide(vc, bc2, out=dc), out=dc)
            dc += _ADAM_EPS
            pc -= np.divide(nc, dc, out=nc)
