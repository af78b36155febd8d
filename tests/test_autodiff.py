import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedoc import autodiff as ad
from gatedoc.autodiff import Graph, Tensor
from gatedoc.errors import (
    CheckpointError, DimensionError, GradCheckError, TrainingError, UsageError,
)

from conftest import recording_functions, total


def t(data, grad=True, name=None):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad, name=name)


# ---------------------------------------------------------------------------
# forward values against naive oracles
# ---------------------------------------------------------------------------


class TestLinear:
    def test_identity(self):
        out = ad.linear(t(np.eye(2)), t([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_hand_dot_product(self):
        out = ad.linear(t([[1.0, 2.0]]), t([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_against_triple_loop_oracle(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = ad.linear(t(a), t(b))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.linear(t(np.ones((2, 3))), t(np.ones((2, 3))))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    def test_bit_equal_to_numpy(self, rng, dtype, rows, bias):
        shapes = ((rows, 5), (5, 3), (1, 3))
        x, w, b = (rng.standard_normal(shape).astype(dtype) for shape in shapes)
        out = ad.linear(Tensor(x), Tensor(w), Tensor(b) if bias else None)
        assert out.data.dtype == dtype
        assert np.array_equal(out.data, x @ w + b if bias else x @ w)

    def test_without_bias_the_node_reads_x_and_w(self, rng):
        # `backward` zips a node's inputs with its gradients: no None input
        x, w = t(rng.standard_normal((4, 5))), t(rng.standard_normal((5, 3)))
        out = ad.linear(x, w)
        assert out.node.inputs == (x, w)
        ad.backward(total(out))
        np.testing.assert_array_equal(x.grad, np.ones((4, 3)) @ w.data.T)
        np.testing.assert_array_equal(w.grad, x.data.T @ np.ones((4, 3)))

    @pytest.mark.parametrize(
        "x_shape, w_shape, b_shape",
        [((2, 4), (5, 3), (1, 3)), ((2, 4), (4, 3), (3,)), ((2, 4), (4, 3), (2, 3)),
         ((2, 4), (4, 3), (1, 4)), ((4,), (4, 3), (1, 3))],
    )
    def test_shape_mismatch(self, x_shape, w_shape, b_shape):
        with pytest.raises(DimensionError):
            ad.linear(t(np.ones(x_shape)), t(np.ones(w_shape)), t(np.ones(b_shape)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_row_transposed_product_equals_gemm(self, rng, dtype):
        a = rng.standard_normal((1, 768)).astype(dtype)
        g = rng.standard_normal((1, 96)).astype(dtype)
        assert np.array_equal(ad._t_dot(a, g), a.T @ g)


class TestColumnMajorProduct:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("rows", [1, 6, 100, ad._FEW_ROWS + 1])
    def test_equals_the_plain_product(self, rng, order, rows):
        w = np.asarray(rng.standard_normal((48, 80)), order=order)
        x = rng.standard_normal((rows, 48))
        out = ad._mm(x, w)
        assert out.flags.c_contiguous
        np.testing.assert_allclose(out, x @ w, rtol=0, atol=1e-12)
        # one 1-D row, as the step of a one-sequence GRU multiplies it
        np.testing.assert_allclose(ad._mm(x[0], w), x[0] @ w, rtol=0, atol=1e-12)
        if order == "C":  # a row-major weight keeps the plain product, to the bit
            assert np.array_equal(out, x @ w)


class TestElementwise:
    def test_add_vectors(self):
        out = ad.add(t([1.0, 2.0]), t([3.0, 4.0]))
        assert out.data.tolist() == [4.0, 6.0]

    def test_row_broadcast(self, rng):
        # a bias row enters through `linear`; add and mul refuse to broadcast it
        x = t(rng.standard_normal((4, 3)))
        row = t(rng.standard_normal((1, 3)))
        for op in (ad.add, ad.mul):
            with pytest.raises(DimensionError):
                op(x, row)

    def test_incompatible_shapes(self):
        # mul takes a column as tall as x, (2, 1), and add does not
        x = t(np.ones((2, 3)))
        for shape in ((3, 2), (1, 1), (3, 1), (2,)):
            for op in (ad.add, ad.mul):
                with pytest.raises(DimensionError):
                    op(x, t(np.ones(shape)))
        with pytest.raises(DimensionError):
            ad.add(x, t(np.ones((2, 1))))

    @given(
        st.integers(1, 5),
        st.integers(1, 5),
        st.sampled_from(["add", "mul"]),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40)
    def test_matches_numpy_oracle(self, n, d, kind, seed):
        r = np.random.default_rng(seed)
        a = r.uniform(-1, 1, (n, d))
        b = r.uniform(-1, 1, (n, d))
        expected = {"add": a + b, "mul": a * b}[kind]
        out = getattr(ad, kind)(t(a), t(b))
        np.testing.assert_allclose(out.data, expected, atol=1e-12)


class TestActivations:
    def test_sigmoid_symmetry_point(self):
        assert ad.sigmoid(t([[0.0]])).data.tolist() == [[0.5]]

    def test_relu_cases(self):
        out = ad.relu(t([-3.0, 3.0]))
        assert out.data.tolist() == [0.0, 3.0]

    def test_sigmoid_stable_at_500(self):
        out = ad.sigmoid(t([[500.0, -500.0]]))
        assert out.data[0, 0] == 1.0
        assert 0.0 < out.data[0, 1] < 1e-200
        assert np.isfinite(out.data).all()


class TestConcatSplit:
    def test_widths_add_up(self, rng):
        e = t(rng.standard_normal((2, 5)))
        c = t(rng.standard_normal((2, 3)))
        assert ad.concat((e, c)).shape == (2, 8)

    def test_slice_round_trip_exact(self, rng):
        parts = [rng.standard_normal((3, w)) for w in (2, 4, 1)]
        merged = ad.concat([t(p) for p in parts]).data
        np.testing.assert_array_equal(merged[:, 0:2], parts[0])
        np.testing.assert_array_equal(merged[:, 2:6], parts[1])
        np.testing.assert_array_equal(merged[:, 6:7], parts[2])

    @pytest.mark.parametrize("shape", [(2,), (2, 2, 1)])
    def test_joins_only_2d_tensors(self, shape):
        with pytest.raises(DimensionError, match="incompatible shapes"):
            ad.concat((t(np.ones((2, 2))), t(np.ones(shape))))


def _softmax(x):
    """Row-wise softmax of x (m x n) by `attention`: the rows as queries
    over k = v = I_n, with scale 1, give softmax(x I) I = softmax(x)."""
    m, n = x.shape
    eye = t(np.eye(n), grad=False)
    return ad.attention(x, eye, eye, 1, [(0, n)], q_blocks=[(0, m)], scale=1.0)


class TestSoftmax:
    def test_uniform(self):
        out = _softmax(t([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3] * 3], atol=1e-15)

    def test_stable_at_1000(self):
        out = _softmax(t([[1000.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-15)

    def test_closed_form_log_ratio(self):
        out = _softmax(t([[math.log(2.0), math.log(1.0)]]))
        np.testing.assert_allclose(out.data, [[2 / 3, 1 / 3]], atol=1e-15)

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_sums_to_one(self, n, d, axis, seed):
        x = np.random.default_rng(seed).uniform(-50, 50, (n, d))
        out = _softmax(t(x if axis == 1 else x.T)).data
        out = out if axis == 1 else out.T
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=axis), 1.0, atol=1e-12)


def _blocks(lengths):
    stops = np.cumsum(lengths).tolist()
    return list(zip([0] + stops[:-1], stops))


def _dense_attention(q, k, v, n_heads, blocks, q_blocks=None, scale=None):
    """Per-head loop over the full m x n scores with a -1e9 cross-block mask."""
    dk = q.shape[1] // n_heads
    scale = 1 / math.sqrt(dk) if scale is None else scale

    def segments(ranges):
        return np.repeat(np.arange(len(ranges)), [stop - start for start, stop in ranges])

    mask = np.where(segments(q_blocks or blocks)[:, None] == segments(blocks)[None, :], 0.0, -1e9)
    heads = []
    for h in range(n_heads):
        cols = slice(h * dk, (h + 1) * dk)
        s = q[:, cols] @ k[:, cols].T * scale + mask
        e = np.exp(s - s.max(axis=1, keepdims=True))
        heads.append((e / e.sum(axis=1, keepdims=True)) @ v[:, cols])
    return np.concatenate(heads, axis=1)


def _dense_attention_grads(q, k, v, g, n_heads, blocks, q_blocks=None, scale=None):
    """(dQ, dK, dV) of sum(g * attention), by the textbook softmax
    derivative, block by block and head by head."""
    dk = q.shape[1] // n_heads
    scale = 1 / math.sqrt(dk) if scale is None else scale
    grads = [np.zeros_like(x) for x in (q, k, v)]
    for (k_start, k_stop), (q_start, q_stop) in zip(blocks, q_blocks or blocks):
        keys, queries = slice(k_start, k_stop), slice(q_start, q_stop)
        for h in range(n_heads):
            cols = slice(h * dk, (h + 1) * dk)
            qb, kb, vb, gb = q[queries, cols], k[keys, cols], v[keys, cols], g[queries, cols]
            s = qb @ kb.T * scale
            e = np.exp(s - s.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            dp = gb @ vb.T
            ds = p * (dp - (dp * p).sum(axis=1, keepdims=True)) * scale
            grads[0][queries, cols] = ds @ kb
            grads[1][keys, cols] = ds.T @ qb
            grads[2][keys, cols] = p.T @ gb
    return grads


# (n_heads, block lengths): one block; similar lengths padded into one
# group, with a length-1 block; lengths too skewed for one group, split
# into two power-of-two groups, one of them padded.  Then queries other
# than the keys, as (key block lengths, query range lengths, scale): one
# query per block; a 3-row query range padded with a 1-row one in the
# padded group of the skewed case; and an unscaled score
ATTENTION_CASES = [
    (1, [5]),
    (3, [5]),
    (1, [1, 3, 2, 4]),
    (3, [1, 3, 2, 4]),
    (1, [1, 1, 1, 1, 1, 1, 7, 5]),
    (3, [1, 1, 1, 1, 1, 1, 7, 5]),
    (1, ([3, 5, 2], [1, 1, 1], None)),
    (3, ([1, 1, 1, 1, 1, 1, 7, 5], [1, 2, 1, 1, 1, 1, 3, 1], None)),
    (3, ([4, 2], [2, 3], 1.0)),
]


def _attention_args(rng, n_heads, lengths, width, low=-1.0, high=1.0):
    """q, k, v (as arrays) and the remaining `attention` arguments of a case."""
    if not isinstance(lengths, tuple):
        lengths = (lengths, None, None)
    key_lengths, q_lengths, scale = lengths
    blocks = _blocks(key_lengths)
    q_blocks = None if q_lengths is None else _blocks(q_lengths)
    n, m = sum(key_lengths), sum(q_lengths or key_lengths)
    q, k, v = (rng.uniform(low, high, (rows, width)) for rows in (m, n, n))
    return q, k, v, (n_heads, blocks, q_blocks, scale)


class TestAttention:
    @pytest.mark.parametrize("n_heads, lengths", ATTENTION_CASES)
    def test_matches_dense_masked_reference(self, rng, n_heads, lengths):
        q, k, v, args = _attention_args(rng, n_heads, lengths, 4 * n_heads, -2.0, 2.0)
        out = ad.attention(t(q), t(k), t(v), *args)
        np.testing.assert_allclose(
            out.data, _dense_attention(q, k, v, *args), rtol=0, atol=1e-12
        )

    # blocks too skewed for one group (the power-of-two branch), with a
    # padded group; padded query ranges; query ranges of three lengths in
    # the padded group
    @pytest.mark.parametrize("n_heads, lengths", [
        (3, [1, 1, 1, 1, 1, 1, 7, 5]),
        (3, ([1, 1, 1, 1, 1, 1, 7, 5], [1, 2, 1, 1, 1, 1, 3, 1], None)),
        (3, ([1, 1, 1, 1, 1, 1, 1, 7, 5, 6], [1, 1, 1, 1, 1, 1, 1, 2, 3, 4], None)),
    ])
    def test_gradients_match_dense_per_block_reference(self, rng, n_heads, lengths):
        q, k, v, args = _attention_args(rng, n_heads, lengths, 4 * n_heads, -2.0, 2.0)
        assert len(ad._group_blocks(args[1])) == 2
        g = rng.uniform(-1, 1, q.shape)
        leaves = t(q), t(k), t(v)
        out = ad.attention(*leaves, *args)
        np.testing.assert_allclose(out.data, _dense_attention(q, k, v, *args), rtol=0, atol=1e-12)
        ad.backward(total(ad.mul(out, t(g, grad=False))))
        for leaf, want in zip(leaves, _dense_attention_grads(q, k, v, g, *args)):
            np.testing.assert_allclose(leaf.grad, want, rtol=0, atol=1e-12)

    def test_float32_in_float32_out(self, rng):
        q, k, v = (Tensor(rng.uniform(-1, 1, (6, 4)).astype(np.float32)) for _ in range(3))
        assert ad.attention(q, k, v, 2, _blocks([1, 2, 3])).data.dtype == np.float32

    def test_other_blocks_bit_identical(self, rng):
        lengths = [1, 3, 2, 4, 3]
        n, blocks = sum(lengths), _blocks(lengths)
        q, k, v = (rng.uniform(-1, 1, (n, 6)) for _ in range(3))
        base = ad.attention(t(q), t(k), t(v), 3, blocks).data
        start, stop = blocks[3]  # the length-4 block, batched with the others
        for x in (q, k, v):
            x[start:stop] = rng.uniform(-1, 1, (stop - start, 6))
        changed = ad.attention(t(q), t(k), t(v), 3, blocks).data
        np.testing.assert_array_equal(base[:start], changed[:start])
        np.testing.assert_array_equal(base[stop:], changed[stop:])
        assert np.abs(base[start:stop] - changed[start:stop]).max() > 1e-6

    @pytest.mark.parametrize(
        "blocks", [[], [(0, 3), (4, 6)], [(0, 3), (2, 6)], [(0, 4)], [(0, 3), (3, 3), (3, 6)]]
    )
    def test_blocks_must_tile_the_rows(self, blocks):
        x = t(np.ones((6, 2)))
        with pytest.raises(DimensionError):
            ad.attention(x, x, x, 1, blocks)

    def test_heads_must_divide_width(self):
        x = t(np.ones((3, 4)))
        with pytest.raises(DimensionError):
            ad.attention(x, x, x, 3, [(0, 3)])

    @pytest.mark.parametrize(
        "key_lengths, q_shape, q_blocks",
        [
            ([3, 3], (2, 3), [(0, 1), (1, 2)]),  # q narrower than k
            ([3, 3], (2, 2), [(0, 2)]),  # one query range for two blocks
            ([3, 3], (2, 2), [(0, 1), (1, 3)]),  # ranges run past q's rows
            ([3, 3], (3, 2), [(0, 1), (1, 2)]),  # ranges leave a row of q out
            ([3, 3], (2, 2), [(0, 1), (0, 2)]),  # ranges overlap
            ([3, 0, 3], (2, 2), [(0, 1), (1, 1), (1, 2)]),  # the middle key block is empty
            # a key block without queries: the first, a 1-row one; then a
            # middle one and the last, whose range starts at q's end
            ([1, 4, 3], (2, 2), _blocks([0, 1, 1])),
            ([1] * 7 + [7, 5, 6], (11, 2), _blocks([1, 1, 1, 0, 1, 1, 1, 2, 3, 0])),
        ],
    )
    def test_queries_must_fit_the_keys(self, key_lengths, q_shape, q_blocks):
        x = t(np.ones((sum(key_lengths), 2)))
        with pytest.raises(DimensionError):
            ad.attention(t(np.ones(q_shape)), x, x, 1, _blocks(key_lengths), q_blocks=q_blocks)


def _gru_inputs(rng, n, d_in, d, h0_grad=True, dtype=np.float64):
    """x, h0 and the (z, r, h) triples of W, U and b for `ad.gru`."""
    def draw(shape, grad=True):
        return Tensor(rng.uniform(-0.8, 0.8, shape).astype(dtype), requires_grad=grad)

    x = draw((n, d_in))
    h0 = draw((1, d)) if h0_grad else Tensor(np.zeros((1, d), dtype=dtype))
    w = tuple(draw((d_in, d)) for _ in range(3))
    u = tuple(draw((d, d)) for _ in range(3))
    b = tuple(draw((1, d)) for _ in range(3))
    return x, h0, w, u, b


def _stack_rows(tensors):
    """The rows of `tensors` one under another, by engine ops (exact)."""
    return ad.transpose(ad.concat([ad.transpose(x) for x in tensors]))


def _composed_gru(x, h0, w, u, b, lengths):
    """The same recurrence, one sequence of all rows (`lengths` is [n]),
    built step by step from elementary ops."""
    ones, minus_one = Tensor(np.ones(h0.shape)), Tensor(np.full(h0.shape, -1.0))
    h, states = h0, []
    for i in range(x.shape[0]):
        xi = ad.gather_rows(x, [i])
        z = ad.sigmoid(ad.add(ad.add(ad.linear(xi, w[0]), ad.linear(h, u[0])), b[0]))
        r = ad.sigmoid(ad.add(ad.add(ad.linear(xi, w[1]), ad.linear(h, u[1])), b[1]))
        c = ad.tanh(ad.add(ad.add(ad.linear(xi, w[2]), ad.linear(ad.mul(r, h), u[2])), b[2]))
        h = ad.add(ad.mul(ad.add(ones, ad.mul(z, minus_one)), h), ad.mul(z, c))
        states.append(h)
    return _stack_rows(states)


# (rows, d_in, d): one step; several steps; a long run; a narrow state
GRU_SHAPES = [(1, 3, 4), (5, 4, 4), (30, 6, 4), (3, 5, 2)]


class TestGru:
    @pytest.mark.parametrize("n, d_in, d", GRU_SHAPES)
    def test_output_and_gradients_match_composition(self, rng, n, d_in, d):
        x, h0, w, u, b = _gru_inputs(rng, n, d_in, d)
        inputs = [x, h0, *w, *u, *b]
        weight = Tensor(rng.uniform(-1, 1, (n, d)))
        results = []
        for run in (ad.gru, _composed_gru):
            ad.zero_grad(inputs)
            out = run(x, h0, w, u, b, [n])
            ad.backward(total(ad.mul(out, weight)))
            results.append((out.data, [p.grad for p in inputs]))
        (fused, fused_grads), (composed, composed_grads) = results
        np.testing.assert_allclose(fused, composed, rtol=0, atol=1e-12)
        assert len(fused_grads) == 11
        for got, want in zip(fused_grads, composed_grads):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_float32_in_float32_out(self, rng):
        x, h0, w, u, b = _gru_inputs(rng, 4, 3, 5, dtype=np.float32)
        out = ad.gru(x, h0, w, u, b, [4])
        assert out.data.dtype == np.float32
        ad.backward(total(out))
        assert all(p.grad.dtype == np.float32 for p in [x, h0, *w, *u, *b])

    @pytest.mark.parametrize(
        "field, index, shape",
        [
            ("x", None, (3,)),
            ("x", None, (0, 3)),
            ("h0", None, (1, 5)),
            ("h0", None, (2, 4)),
            ("w", 1, (2, 4)),
            ("u", 2, (4, 5)),
            ("b", 0, (4,)),
        ],
    )
    def test_shape_mismatch(self, rng, field, index, shape):
        x, h0, w, u, b = _gru_inputs(rng, 2, 3, 4)
        args = {"x": x, "h0": h0, "w": list(w), "u": list(u), "b": list(b), "lengths": [2]}
        bad = t(np.zeros(shape))
        if index is None:
            args[field] = bad
        else:
            args[field][index] = bad
        with pytest.raises(DimensionError):
            ad.gru(**args)

    def test_triples_must_have_three_entries(self, rng):
        x, h0, w, u, b = _gru_inputs(rng, 2, 3, 4)
        with pytest.raises(DimensionError):
            ad.gru(x, h0, w[:2], u, b, [2])


def _single_sequence_gru(x, h0, w, u, b, g):
    """Output and the 11 gradients of one sequence, stepped row by row on
    1-D states as the single-sequence op did before sequences were packed."""
    u_z, u_r, u_h = (p.data for p in u)
    xd, n = x.data, x.shape[0]
    p_z, p_r, p_h = (xd @ wt.data + bt.data for wt, bt in zip(w, b))
    hs = np.empty((n + 1, h0.shape[1]))
    hs[0] = h0.data
    zs, rs, cs = (np.empty((n, h0.shape[1])) for _ in range(3))
    for i in range(n):
        h = hs[i]
        z = zs[i] = ad._sigmoid(p_z[i] + h @ u_z)
        r = rs[i] = ad._sigmoid(p_r[i] + h @ u_r)
        c = cs[i] = np.tanh(p_h[i] + (r * h) @ u_h)
        hs[i + 1] = (1.0 - z) * h + z * c
    h_prev = hs[:-1]
    k_z, k_h = zs * (1.0 - zs) * (cs - h_prev), zs * (1.0 - cs * cs)
    rh = rs * h_prev
    k_r = (1.0 - rs) * rh
    da_z, da_r, da_h = (np.empty_like(zs) for _ in range(3))
    dh = np.zeros(h0.shape[1])
    for i in range(n - 1, -1, -1):
        dh = dh + g[i]
        a_z = da_z[i] = dh * k_z[i]
        a_h = da_h[i] = dh * k_h[i]
        d_rh = a_h @ u_h.T
        a_r = da_r[i] = d_rh * k_r[i]
        dh = dh * (1.0 - zs[i]) + d_rh * rs[i] + a_z @ u_z.T + a_r @ u_r.T
    das = (da_z, da_r, da_h)
    grads = [sum(da @ wt.data.T for da, wt in zip(das, w)), dh.reshape(1, -1)]
    grads += [ad._t_dot(xd, da) for da in das]
    grads += [ad._t_dot(hp, da) for hp, da in zip((h_prev, h_prev, rh), das)]
    grads += [da.sum(axis=0, keepdims=True) for da in das]
    return hs[1:], grads


class TestGruLengths:
    @pytest.mark.parametrize("n, d_in, d", GRU_SHAPES)
    def test_one_length_is_bit_identical_to_the_single_sequence_op(self, rng, n, d_in, d):
        x, h0, w, u, b = _gru_inputs(rng, n, d_in, d)
        inputs = [x, h0, *w, *u, *b]
        weight = Tensor(rng.uniform(-1, 1, (n, d)))
        want_out, want_grads = _single_sequence_gru(x, h0, w, u, b, weight.data)
        out = ad.gru(x, h0, w, u, b, [n])
        ad.backward(total(ad.mul(out, weight)))
        np.testing.assert_array_equal(out.data, want_out)
        for p, want in zip(inputs, want_grads):
            np.testing.assert_array_equal(p.grad, want)

    @pytest.mark.parametrize("lengths", [[3, 1, 2], [1, 1, 1, 1], [2, 5], [4]])
    def test_packed_sequences_equal_separate_runs(self, rng, lengths):
        n, d_in, d = sum(lengths), 3, 4
        x, _, w, u, b = _gru_inputs(rng, n, d_in, d)
        h0 = t(rng.uniform(-0.8, 0.8, (len(lengths), d)))
        params = [x, h0, *w, *u, *b]
        weight = Tensor(rng.uniform(-1, 1, (n, d)))
        ad.zero_grad(params)
        packed = ad.gru(x, h0, w, u, b, lengths)
        ad.backward(total(ad.mul(packed, weight)))
        got = [p.grad for p in params]
        ad.zero_grad(params)
        stops = np.cumsum(lengths)
        runs = [
            ad.gru(ad.gather_rows(x, range(stop - k, stop)), ad.gather_rows(h0, [i]), w, u, b, [k])
            for i, (stop, k) in enumerate(zip(stops, lengths))
        ]
        separate = _stack_rows(runs)
        ad.backward(total(ad.mul(separate, weight)))
        np.testing.assert_allclose(packed.data, separate.data, rtol=0, atol=1e-12)
        for p, g in zip(params, got):
            np.testing.assert_allclose(g, p.grad, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "lengths, h0_rows", [([3, 0, 2], 3), ([2, 2], 2), ([3, 3], 2), ([], 1), ([5], 2)]
    )
    def test_lengths_must_cut_the_rows(self, rng, lengths, h0_rows):
        x, _, w, u, b = _gru_inputs(rng, 5, 3, 4)
        h0 = t(np.zeros((h0_rows, 4)))
        with pytest.raises(DimensionError):
            ad.gru(x, h0, w, u, b, lengths)


def _padded_groups(blocks):
    """(rows, valid) of each group's blocks, padded as `attention` pads them."""
    return [ad._pad_ranges([blocks[i] for i in members]) for members in ad._group_blocks(blocks)]


def _padded_scores(blocks):
    return sum(rows.size * rows.shape[1] for rows, _ in _padded_groups(blocks))


class TestBlockGrouping:
    @pytest.mark.parametrize(
        "lengths, n_groups", [([1, 3, 2, 4], 1), ([1, 1, 1, 1, 1, 1, 7, 5], 2)]
    )
    def test_one_group_only_within_the_bound(self, lengths, n_groups):
        assert len(ad._group_blocks(_blocks(lengths))) == n_groups

    def test_skewed_document_padding_bound(self):
        # one 400-row block and 49 one-row blocks: padding every block to
        # the longest would score 50 * 400^2 entries, 12x the bound
        lengths = [400] + [1] * 49
        assert _padded_scores(_blocks(lengths)) <= 4 * sum(L * L for L in lengths)

    @given(st.lists(st.integers(1, 512), min_size=1, max_size=40))
    @settings(max_examples=60)
    def test_every_row_once_within_the_bound(self, lengths):
        blocks = _blocks(lengths)
        groups = _padded_groups(blocks)
        assert len(groups) <= 10  # at most log2(512) + 1 length groups
        real = np.concatenate(
            [rows.reshape(-1) if valid is None else rows[valid] for rows, valid in groups]
        )
        np.testing.assert_array_equal(np.sort(real), np.arange(sum(lengths)))
        assert _padded_scores(blocks) <= 4 * sum(L * L for L in lengths)


class TestBceLoss:
    def test_perfect_prediction_is_tiny(self):
        probs = t([[1.0, 0.0, 0.0]])
        target = np.array([[1.0, 0.0, 0.0]])
        assert float(ad.bce_loss(probs, target).data.reshape(())) < 1e-6

    def test_maximum_entropy_is_ln2(self):
        probs = t([[0.5, 0.5]])
        target = np.array([[1.0, 0.0]])
        loss = float(ad.bce_loss(probs, target).data.reshape(()))
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_against_direct_summation_oracle(self, rng):
        p = rng.uniform(0.05, 0.95, (1, 7))
        labels = rng.integers(0, 2, (1, 7)).astype(np.float64)
        expected = -np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p))
        out = ad.bce_loss(t(p), labels)
        assert abs(float(out.data.reshape(())) - expected) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            ad.bce_loss(t([[0.5, 0.5]]), np.array([[1.0]]))


class TestMulByColumnAndGatherAndNorm:
    def test_mul_by_column_matches_loop(self, rng):
        x = rng.standard_normal((4, 3))
        s = rng.uniform(0.1, 0.9, (4, 1))
        out = ad.mul(t(x), t(s))
        for i in range(4):
            np.testing.assert_allclose(out.data[i], x[i] * s[i, 0], atol=1e-15)

    def test_gather_rows_with_repeats(self, rng):
        table = rng.standard_normal((6, 3))
        out = ad.gather_rows(t(table), [1, 1, 4])
        np.testing.assert_array_equal(out.data, table[[1, 1, 4]])

    # repeats out of order, one index, none
    @pytest.mark.parametrize("indices", [[4, 1, 4, 0, 1, 4, 2, 4, 4, 1], [3], []])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gather_rows_backward_equals_add_at(self, rng, dtype, indices):
        # a column-major table: the scatter must not write into a flattened copy
        table = Tensor(np.asfortranarray(rng.standard_normal((6, 8)), dtype), requires_grad=True)
        out = ad.gather_rows(table, indices)
        # magnitudes apart, so that another order of the sums rounds differently
        g = (rng.standard_normal(out.shape) * 10.0 ** rng.integers(-3, 4, out.shape)).astype(dtype)
        (got,) = out.node.backward_fn(g)
        want = np.zeros(table.shape, dtype)
        np.add.at(want, np.asarray(indices, dtype=np.intp), g)
        assert got.dtype == dtype and np.array_equal(got, want)

    def test_gather_out_of_range(self):
        with pytest.raises(DimensionError):
            ad.gather_rows(t(np.ones((3, 2))), [3])

    def test_layer_norm_matches_manual(self, rng):
        x = rng.standard_normal((3, 5))
        g = rng.standard_normal((1, 5))
        b = rng.standard_normal((1, 5))
        out = ad.layer_norm(t(x), t(g), t(b))
        mu = x.mean(axis=1, keepdims=True)
        var = x.var(axis=1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + 1e-5) * g + b
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_layer_norm_needs_row_gain_and_bias(self, rng):
        x = t(rng.standard_normal((3, 5)))
        with pytest.raises(DimensionError):
            ad.layer_norm(x, t(np.ones(5)), t(np.zeros((1, 5))))
        with pytest.raises(DimensionError):
            ad.layer_norm(x, t(np.ones((1, 5))), t(np.zeros((3, 5))))


# ---------------------------------------------------------------------------
# backward pass
# ---------------------------------------------------------------------------


def _every_op(rng, dtype):
    """One output of each function of `autodiff` that records a node, by
    name, and the leaves they read, all of `dtype`."""
    leaves = []

    def leaf(*shape):
        leaves.append(Tensor(rng.uniform(-1, 1, shape).astype(dtype), requires_grad=True))
        return leaves[-1]

    x, y = leaf(4, 6), leaf(4, 6)
    gru_triples = [tuple(leaf(*shape) for _ in range(3)) for shape in ((6, 5), (5, 5), (1, 5))]
    outputs = {
        "linear": ad.linear(x, leaf(6, 3), leaf(1, 3)),
        "add": ad.add(x, y),
        "mul": ad.mul(x, leaf(4, 1)),
        "sigmoid": ad.sigmoid(x),
        "tanh": ad.tanh(x),
        "relu": ad.relu(x),
        "concat": ad.concat((x, y)),
        "gather_rows": ad.gather_rows(x, [3, 0, 3]),
        "transpose": ad.transpose(x),
        "attention": ad.attention(x, y, y, 2, [(0, 1), (1, 4)]),
        "gru": ad.gru(x, leaf(1, 5), *gru_triples, [4]),
        "layer_norm": ad.layer_norm(x, leaf(1, 6), leaf(1, 6)),
        "bce_loss": ad.bce_loss(ad.sigmoid(x), np.eye(4, 6, dtype=dtype)),
    }
    return outputs, leaves


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_op_keeps_its_inputs_dtype(rng, dtype):
    # neither Tensor nor _make converts data, so nothing else keeps a
    # float32 graph in float32
    outputs, leaves = _every_op(rng, dtype)
    assert set(outputs) == recording_functions()
    for name, out in outputs.items():
        assert type(out.data) is np.ndarray and out.data.dtype == dtype, name
        ad.backward(total(out))
    assert all(leaf.grad.dtype == dtype for leaf in leaves)


class TestBackward:
    def test_sigmoid_dot_at_zero_weight(self, rng):
        x_val = rng.standard_normal((3, 1))
        w = t(np.zeros((1, 3)), name="w")
        loss = ad.sigmoid(ad.linear(w, t(x_val, grad=False)))
        ad.backward(loss)
        np.testing.assert_allclose(w.grad, 0.25 * x_val.T, atol=1e-14)

    def test_fan_out_accumulates_both_paths(self):
        x = t([[2.0]], name="x")
        loss = ad.add(ad.mul(x, x), ad.mul(t([[3.0]], grad=False), x))
        ad.backward(loss)
        assert x.grad[0, 0] == pytest.approx(2 * 2.0 + 3.0)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(UsageError):
            ad.backward(t([[1.0, 2.0]]))

    def test_a_loss_that_recorded_no_graph_is_refused(self):
        x = t([[2.0]], name="x")
        with ad.no_grad():
            inside = ad.mul(x, x)
        constant = ad.mul(t([[2.0]], grad=False), t([[3.0]], grad=False))
        for loss in (x, constant, inside):
            with pytest.raises(UsageError, match="recorded a graph"):
                ad.backward(loss)
        assert x.grad is None

    def test_grad_accumulates_across_calls(self):
        x = t([[1.0]], name="x")
        ad.backward(ad.mul(x, t([[2.0]], grad=False)))
        ad.backward(ad.mul(x, t([[2.0]], grad=False)))
        assert x.grad[0, 0] == 4.0

    def test_a_walked_graph_is_not_walked_again(self):
        x = t([[3.0]])
        y = ad.tanh(ad.mul(x, x))
        ad.backward(ad.mul(y, t([[2.0]], grad=False)))
        with pytest.raises(UsageError, match="earlier backward"):
            ad.backward(ad.mul(y, t([[0.5]], grad=False)))  # a new loss over the walked y
        with pytest.raises(UsageError, match="earlier backward"):
            ad.backward(y)

    def test_backward_fills_only_trainable_leaves(self, rng):
        a = t(rng.standard_normal((2, 2)), name="a")
        b = t(rng.standard_normal((2, 2)), name="b")
        c = t(rng.standard_normal((2, 2)), grad=False)
        ad.backward(total(ad.linear(ad.linear(a, b), c)))
        assert a.grad is not None and b.grad is not None
        assert c.grad is None

    def test_graph_trace_is_topologically_ordered(self, rng):
        x = t(rng.standard_normal((2, 2)))
        y = ad.mul(ad.add(x, x), ad.tanh(x))
        loss = total(y)
        nodes = Graph.trace(loss).nodes
        position = {id(n): i for i, n in enumerate(nodes)}
        for n in nodes:
            for inp in n.node.inputs:
                if inp.node is not None:
                    assert position[id(inp)] < position[id(n)]


class TestNoGrad:
    def test_ops_inside_record_nothing_and_record_again_after(self):
        x = t([[0.5, -1.0]])
        with ad.no_grad():
            y = ad.tanh(ad.mul(x, x))
        assert y.node is None and not y.requires_grad
        np.testing.assert_array_equal(y.data, ad.tanh(ad.mul(x, x)).data)
        assert ad.tanh(x).node is not None

    def test_recording_resumes_after_an_error_and_after_a_nested_block(self):
        x = t([[0.5]])
        with pytest.raises(ZeroDivisionError):
            with ad.no_grad():
                with ad.no_grad():
                    pass
                assert ad.tanh(x).node is None  # still inside the outer block
                1 / 0
        assert ad.tanh(x).node is not None

    def test_a_thread_started_inside_records(self):
        x = t([[0.5]])
        made = []
        with ad.no_grad():
            worker = threading.Thread(target=lambda: made.append(ad.tanh(x)))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert ad.tanh(x).node is None
        assert made[0].node is not None


# ---------------------------------------------------------------------------
# gradient checking: every differentiable op at rel err < 1e-5 in 64-bit
# ---------------------------------------------------------------------------


def _check(f, params, bound=1e-5):
    worst, entry = ad.grad_check(f, params)
    assert worst < bound, f"worst relative error {worst} at {entry}"


class TestGradCheckPerOp:
    def test_quadratic_textbook_case(self):
        theta = t([[3.0]], name="theta")
        worst, (name, index, analytic, numeric) = ad.grad_check(
            lambda: ad.mul(theta, theta), [theta]
        )
        assert worst < 1e-9
        assert (name, index, analytic) == ("theta", 0, 6.0)
        assert abs(numeric - 6.0) < 1e-9

    # one row (the bridge, the head and the gate of a one-sentence
    # document) and many rows (the encoder); without a bias, the key
    # projection, the class similarity and the gate
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("bias", [True, False], ids=["bias", "no_bias"])
    def test_linear(self, rng, rows, bias):
        x = t(rng.uniform(-1, 1, (rows, 4)))
        w = t(rng.uniform(-1, 1, (4, 2)))
        b = t(rng.uniform(-1, 1, (1, 2))) if bias else None
        params = [x, w, b] if bias else [x, w]
        _check(lambda: total(ad.tanh(ad.linear(x, w, b))), params)

    @pytest.mark.parametrize("op", [ad.add, ad.mul], ids=["add", "mul"])
    def test_elementwise_same_shape(self, rng, op):
        a = t(rng.uniform(-1, 1, (3, 4)))
        b = t(rng.uniform(-1, 1, (3, 4)))
        _check(lambda: total(ad.tanh(op(a, b))), [a, b])

    @pytest.mark.parametrize("kind", ["sigmoid", "tanh"])
    def test_smooth_activations(self, rng, kind):
        x = t(rng.uniform(-1, 1, (3, 4)))
        _check(lambda: total(getattr(ad, kind)(x)), [x])

    def test_relu_away_from_kink(self, rng):
        vals = rng.uniform(-1, 1, (3, 4))
        vals[np.abs(vals) < 0.05] = 0.5  # keep the finite difference off the kink
        x = t(vals)
        _check(lambda: total(ad.relu(x)), [x])

    def test_concat_and_slice(self, rng):
        a = t(rng.uniform(-1, 1, (2, 3)))
        b = t(rng.uniform(-1, 1, (2, 2)))
        # a distinct weight per column, so a misplaced split boundary shows
        w = t(rng.uniform(-1, 1, (2, 8)), grad=False)
        _check(lambda: total(ad.mul(ad.tanh(ad.concat((a, b, a))), w)), [a, b])

    def test_gather_rows_with_repeats(self, rng):
        table = t(rng.uniform(-1, 1, (5, 3)))
        _check(lambda: total(ad.tanh(ad.gather_rows(table, [0, 2, 2, 4]))), [table])

    def test_transpose(self, rng):
        x = t(rng.uniform(-1, 1, (3, 4)))
        _check(lambda: total(ad.tanh(ad.transpose(x))), [x])

    @pytest.mark.parametrize("axis", [0, 1])
    def test_softmax(self, rng, axis):
        # the softmax form of `attention`: only the queries carry a gradient
        x = t(rng.uniform(-1, 1, (3, 4)))
        w = t(rng.uniform(-1, 1, (3, 4)), grad=False)

        def softmax():
            return _softmax(x) if axis == 1 else ad.transpose(_softmax(ad.transpose(x)))

        _check(lambda: total(ad.mul(softmax(), w)), [x])

    @pytest.mark.parametrize("n_heads, lengths", ATTENTION_CASES)
    def test_attention(self, rng, n_heads, lengths):
        q, k, v, args = _attention_args(rng, n_heads, lengths, 2 * n_heads)
        q, k, v = t(q), t(k), t(v)
        w = t(rng.uniform(-1, 1, q.shape), grad=False)
        _check(lambda: total(ad.mul(ad.attention(q, k, v, *args), w)), [q, k, v])

    # (rows, d_in, d, h0 carries a gradient): one step from a trained
    # state; five steps from a constant zero state; d_in != d
    @pytest.mark.parametrize(
        "n, d_in, d, h0_grad", [(1, 3, 4, True), (5, 3, 3, False), (3, 5, 2, True)]
    )
    def test_gru(self, rng, n, d_in, d, h0_grad):
        x, h0, w, u, b = _gru_inputs(rng, n, d_in, d, h0_grad=h0_grad)
        weight = t(rng.uniform(-1, 1, (n, d)), grad=False)
        params = [x, *([h0] if h0_grad else []), *w, *u, *b]
        _check(lambda: total(ad.mul(ad.gru(x, h0, w, u, b, [n]), weight)), params)

    def test_gru_packed_by_length(self, rng):
        # three sequences whose steps run 3, 2 and 1 of them, each from
        # its own state, which carries a gradient
        lengths = [3, 1, 2]
        x, _, w, u, b = _gru_inputs(rng, sum(lengths), 3, 4)
        h0 = t(rng.uniform(-0.8, 0.8, (len(lengths), 4)))
        weight = t(rng.uniform(-1, 1, (sum(lengths), 4)), grad=False)
        params = [x, h0, *w, *u, *b]
        _check(lambda: total(ad.mul(ad.gru(x, h0, w, u, b, lengths), weight)), params)

    def test_mul_by_column(self, rng):
        x = t(rng.uniform(-1, 1, (4, 3)))
        s = t(rng.uniform(0.2, 0.8, (4, 1)))
        _check(lambda: total(ad.tanh(ad.mul(x, s))), [x, s])

    # rows of 5; width 1, where every normalised entry is 0; a single row
    @pytest.mark.parametrize("shape", [(3, 5), (3, 1), (1, 5)], ids=["3x5", "3x1", "1x5"])
    def test_layer_norm(self, rng, shape):
        x = t(rng.uniform(-1, 1, shape))
        g = t(rng.uniform(0.5, 1.5, (1, shape[1])))
        b = t(rng.uniform(-0.5, 0.5, (1, shape[1])))
        _check(lambda: total(ad.tanh(ad.layer_norm(x, g, b))), [x, g, b])

    def test_bce_loss(self, rng):
        x = t(rng.uniform(-1, 1, (1, 5)))
        target = np.eye(5)[:1]
        _check(lambda: ad.bce_loss(ad.sigmoid(x), target), [x])

    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=15)
    def test_random_small_tensor_chain(self, n, d, seed):
        r = np.random.default_rng(seed)
        a = t(r.uniform(-1, 1, (n, d)))
        b = t(r.uniform(-1, 1, (d, n)))
        worst, _ = ad.grad_check(
            lambda: total(ad.sigmoid(ad.linear(ad.tanh(a), b))), [a, b]
        )
        assert worst < 1e-5

    def test_non_finite_reported_with_parameter_name(self):
        x = t([[1.0]], name="culprit")

        def f():
            # log of a negative perturbed value goes NaN
            with np.errstate(divide="ignore", invalid="ignore"):
                out = Tensor(np.log(x.data - 1.0), requires_grad=True)
            return total(out)

        with pytest.raises(GradCheckError):
            ad.grad_check(f, [x])


# ---------------------------------------------------------------------------
# parameter initialization
# ---------------------------------------------------------------------------


class TestInitializer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_draws_xavier_uniform_in_call_order(self, dtype):
        init = ad.initializer(dtype, np.random.default_rng(3))
        a, ones, b = init("a", 4, 6), init("ones", 1, 6, 1.0), init("b", 6, 2)
        ref = np.random.default_rng(3)
        for t, (rows, cols) in ((a, (4, 6)), (b, (6, 2))):
            limit = math.sqrt(6.0 / (rows + cols))
            expected = ref.uniform(-limit, limit, size=(rows, cols)).astype(dtype)
            np.testing.assert_array_equal(t.data, expected)
            assert t.data.dtype == dtype and t.requires_grad
        np.testing.assert_array_equal(ones.data, np.ones((1, 6), dtype=dtype))
        assert (a.name, ones.name, b.name) == ("a", "ones", "b")
        assert init.made == [("a", a), ("ones", ones), ("b", b)]

    def test_fills_draw_nothing(self):
        rng = np.random.default_rng(0)
        init = ad.initializer(np.float64, rng)
        zeros = init("z", 2, 3, 0.0)
        np.testing.assert_array_equal(zeros.data, np.zeros((2, 3)))
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_stored_arrays_are_taken_by_name(self):
        w, v = np.arange(6.0).reshape(2, 3), np.arange(2.0).reshape(1, 2)
        stored = {"w": w, "v": v, "unused": np.zeros((1, 1))}
        init = ad.initializer(np.float64, stored=stored)
        assert init("w", 2, 3).data is w
        assert list(stored) == ["v", "unused"]
        assert [name for name, _ in init.made] == ["w"]
        converted = ad.initializer(np.float32, stored=stored)("v", 1, 2)
        np.testing.assert_array_equal(converted.data, v.astype(np.float32))
        assert converted.data.dtype == np.float32 and list(stored) == ["unused"]

    def test_missing_or_reshaped_stored_array_refused(self):
        init = ad.initializer(np.float64, stored={"w": np.zeros((3, 2))})
        with pytest.raises(CheckpointError, match="no parameter 'v'"):
            init("v", 3, 2)
        with pytest.raises(CheckpointError, match="shape"):
            init("w", 2, 3)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self, rng):
        p = ad.parameter("p", rng.standard_normal((2, 2)))
        before = p.data.copy()
        state = ad.OptimizerState(learning_rate=0.1)
        p.grad = np.zeros((2, 2))
        ad.adam_step([("p", p)], state)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_magnitude_is_learning_rate(self, rng):
        p = ad.parameter("p", np.zeros((3, 3)))
        g = rng.uniform(0.5, 2.0, (3, 3))
        state = ad.OptimizerState(learning_rate=0.01)
        p.grad = g
        ad.adam_step([("p", p)], state)
        np.testing.assert_allclose(np.abs(p.data), 0.01, rtol=1e-6)

    def test_two_steps_match_the_textbook_update(self, rng):
        # Kingma & Ba (arXiv:1412.6980), Algorithm 1, with b1 0.9, b2 0.999, eps 1e-8
        p = ad.parameter("p", rng.standard_normal((2, 3)))
        expected = p.data.copy()
        m = v = np.zeros((2, 3))
        state = ad.OptimizerState(learning_rate=0.01)
        for t in (1, 2):
            g = rng.standard_normal((2, 3))
            m, v = 0.9 * m + 0.1 * g, 0.999 * v + 0.001 * g * g
            m_hat, v_hat = m / (1 - 0.9**t), v / (1 - 0.999**t)
            expected = expected - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            p.grad = g
            ad.adam_step([("p", p)], state)
        np.testing.assert_allclose(p.data, expected, rtol=1e-12)

    def test_converges_on_quadratic(self):
        theta = ad.parameter("theta", np.array([[0.0]]))
        state = ad.OptimizerState(learning_rate=0.1)
        for _ in range(100):
            theta.grad = 2.0 * (theta.data - 5.0)
            ad.adam_step([("theta", theta)], state)
        assert abs(theta.data[0, 0] - 5.0) < 0.5

    def test_non_finite_gradient_names_parameter(self):
        p = ad.parameter("exploding", np.zeros((1, 1)))
        state = ad.OptimizerState(learning_rate=0.1)
        p.grad = np.array([[np.nan]])
        with pytest.raises(TrainingError, match="exploding"):
            ad.adam_step([("exploding", p)], state)

    @staticmethod
    def _whole_array_step(p, m, v, g, t, lr):
        """The former Adam expression over whole arrays, kept as the reference."""
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * g * g
        bc1, bc2 = 1.0 - 0.9**t, 1.0 - 0.999**t
        return p - lr * (m / bc1) / (np.sqrt(v / bc2) + 1e-8), m, v

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("delta", [None, -1, 0, 1])
    def test_in_place_steps_equal_the_whole_array_expression(self, rng, dtype, delta):
        # a 1-element parameter, and one chunk - 1, chunk and chunk + 1 long
        size = 1 if delta is None else ad._ADAM_CHUNK + delta
        shapes = {"flat": (1, size), "square": (3, 4)}
        params = {n: ad.parameter(n, rng.standard_normal(s).astype(dtype)) for n, s in shapes.items()}
        want = {n: (p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data))
                for n, p in params.items()}
        state = ad.OptimizerState(learning_rate=0.01)
        for t in (1, 2, 3):
            for n, p in params.items():
                g = rng.standard_normal(shapes[n]).astype(dtype)
                if n == "square":  # a transposed gradient is not C-contiguous
                    g = np.ascontiguousarray(g.T).T
                p.grad = g
                want[n] = self._whole_array_step(*want[n], g, t, 0.01)
            ad.adam_step(list(params.items()), state)
        for n, p in params.items():
            assert p.data.dtype == dtype
            assert np.array_equal(p.data, want[n][0]), n
            assert np.array_equal(state.m[n], want[n][1]), n
            assert np.array_equal(state.v[n], want[n][2]), n

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_gradient_leaves_the_parameter_unchanged(self, rng, bad):
        # the bad value sits in the second chunk, after a chunk that is fine
        size = ad._ADAM_CHUNK + 5
        p = ad.parameter("w", rng.standard_normal((1, size)).astype(np.float32))
        state = ad.OptimizerState(learning_rate=0.01)
        p.grad = rng.standard_normal((1, size)).astype(np.float32)
        ad.adam_step([("w", p)], state)
        before = (p.data.copy(), state.m["w"].copy(), state.v["w"].copy())
        g = rng.standard_normal((1, size)).astype(np.float32)
        g[0, ad._ADAM_CHUNK + 2] = bad
        p.grad = g
        with pytest.raises(TrainingError, match="'w'"):
            ad.adam_step([("w", p)], state)
        assert np.array_equal(p.data, before[0])
        assert np.array_equal(state.m["w"], before[1])
        assert np.array_equal(state.v["w"], before[2])

    def test_deterministic_given_inputs(self, rng):
        g = rng.standard_normal((2, 2))
        results = []
        for _ in range(2):
            p = ad.parameter("p", np.ones((2, 2)))
            state = ad.OptimizerState(learning_rate=0.05)
            p.grad = g
            for _ in range(3):
                ad.adam_step([("p", p)], state)
            results.append(p.data.copy())
        np.testing.assert_array_equal(results[0], results[1])
