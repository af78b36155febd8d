import numpy as np
import pytest

from gatedoc import autodiff as ad
from gatedoc import encoder as enc
from gatedoc.autodiff import Tensor
from gatedoc.errors import DimensionError

from conftest import tiny_config, total


def _params(rng, vocab_size=12, d_tok=4, d_h=4, n_heads=1, n_layers=1, max_len=16):
    init = ad.initializer(np.float64, rng)
    p = enc.init_encoder(
        init, vocab_size=vocab_size, d_tok=d_tok, d_h=d_h,
        n_heads=n_heads, n_layers=n_layers, max_len=max_len,
    )
    # layer-norm inits are ones/zeros; randomize for non-trivial oracle checks
    for _, tensor in init.made:
        tensor.data = rng.uniform(-0.5, 0.5, size=tensor.data.shape)
    return p


class TestTransformerEncode:
    def test_positional_sensitivity(self, rng):
        p = _params(rng)
        kw = dict(blocks=[(0, 4)], rows=range(4), positions=range(4))
        base = enc.transformer_encode([2, 5, 7, 3], p, **kw).data
        swapped = enc.transformer_encode([2, 7, 5, 3], p, **kw).data
        assert np.abs(base - swapped).max() > 1e-8

    def test_single_head_matches_brute_force(self, rng):
        p = _params(rng, d_h=4, n_heads=1, n_layers=1)
        stream = [2, 6, 8, 9, 3]
        kw = dict(blocks=[(0, 5)], rows=range(5), positions=range(5))
        out = enc.transformer_encode(stream, p, **kw).data

        # step-by-step straight-line recomputation
        def ln(x, g, b):
            mu = x.mean(axis=1, keepdims=True)
            var = x.var(axis=1, keepdims=True)
            return (x - mu) / np.sqrt(var + 1e-5) * g.reshape(1, -1) + b.reshape(1, -1)

        x = p.tok_emb.data[stream] + p.pos_emb.data[:5]
        h = x @ p.w_in.data + p.b_in.data
        a = ln(h, p.ln1_g.data, p.ln1_b.data)
        q = a @ p.wq.data + p.bq.data
        k = a @ p.wk.data
        v = a @ p.wv.data + p.bv.data
        scores = q @ k.T / np.sqrt(4.0)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        att = e / e.sum(axis=1, keepdims=True)
        h = h + ((att @ v) @ p.wo.data + p.bo.data)
        f = ln(h, p.ln2_g.data, p.ln2_b.data)
        ff = np.maximum(f @ p.w_ff1.data + p.b_ff1.data, 0.0)
        expected = h + (ff @ p.w_ff2.data + p.b_ff2.data)

        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_sentence_scope_isolates_sentences(self, rng):
        p = _params(rng, n_layers=2, n_heads=2, d_h=4)
        # [CLS] a a [SEP] b b [SEP]
        kw = dict(blocks=[(0, 1), (1, 4), (4, 7)], rows=range(7), positions=range(7))
        base = enc.transformer_encode([2, 5, 6, 3, 7, 8, 3], p, **kw).data
        changed = enc.transformer_encode([2, 5, 6, 3, 9, 10, 3], p, **kw).data
        np.testing.assert_array_equal(base[:4], changed[:4])  # sentence 1 untouched
        assert np.abs(base[4:] - changed[4:]).max() > 1e-10

    def test_stream_too_long_rejected(self, rng):
        p = _params(rng, max_len=8)
        kw = dict(blocks=[(0, 9)], rows=[8], positions=range(9))
        with pytest.raises(DimensionError):
            enc.transformer_encode(list(range(9)), p, **kw)

    # the [SEP] rows, one per block under sentence scope; then [CLS], two
    # rows of one sentence and a row that is not a [SEP]
    @pytest.mark.parametrize("rows", [[3, 5, 9], [0, 1, 3, 8]])
    @pytest.mark.parametrize("blocks", [[(0, 10)], [(0, 1), (1, 4), (4, 6), (6, 10)]])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_requested_rows_equal_those_of_a_full_encode(self, rng, n_layers, blocks, rows):
        p = _params(rng, d_h=4, n_heads=2, n_layers=n_layers)
        stream = [2, 5, 6, 3, 7, 3, 8, 9, 10, 3]
        kw = dict(blocks=blocks, positions=range(len(stream)))
        full = enc.transformer_encode(stream, p, rows=range(len(stream)), **kw).data
        pruned = enc.transformer_encode(stream, p, rows=rows, **kw).data
        np.testing.assert_allclose(pruned, full[rows], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("rows", [[3, 1], [1, 1, 3], []])
    def test_rows_must_be_strictly_increasing(self, rng, rows):
        p = _params(rng)
        with pytest.raises(DimensionError, match="strictly increasing"):
            enc.transformer_encode([2, 5, 6, 3], p, blocks=[(0, 4)], rows=rows, positions=range(4))

    def test_parameter_count_independent_of_depth(self, rng):
        def size(n_layers):
            init = ad.initializer(np.float64, rng)
            enc.init_encoder(init, 12, 4, 4, 1, n_layers, 16)
            return sum(t.data.size for _, t in init.made)

        assert size(1) == size(4)


class TestExtract:
    """`transformer_encode` returns the requested rows with `gather_rows`."""

    def test_picks_separator_rows(self, rng):
        encoded = Tensor(rng.standard_normal((9, 4)))
        out = ad.gather_rows(encoded, [4, 8])
        np.testing.assert_array_equal(out.data, encoded.data[[4, 8]])

    def test_single_sentence_single_row(self, rng):
        encoded = Tensor(rng.standard_normal((5, 4)))
        assert ad.gather_rows(encoded, [4]).shape == (1, 4)

    def test_out_of_range_is_internal_error(self, rng):
        encoded = Tensor(rng.standard_normal((5, 4)))
        with pytest.raises(DimensionError, match="out of range"):
            ad.gather_rows(encoded, [5])


def _class_sim(rng, d_in=4, d_hidden=3, d_class=3, n_classes=3):
    w_c = ad.parameter("classsim.w_c", rng.uniform(-0.5, 0.5, (n_classes, d_class)))
    init = ad.initializer(np.float64, rng)
    cs = enc.init_class_similarity(init, w_c, d_in, d_hidden, d_class, "cs")
    for _, tensor in init.made:  # w_c is made above, not by init
        tensor.data = rng.uniform(-0.5, 0.5, size=tensor.data.shape)
    return cs


class TestClassSimilarity:
    def test_relu_kill_gives_zero_row(self, rng):
        cs = _class_sim(rng)
        cs.b2.data = np.full((1, 3), -100.0)  # output pre-activations all negative
        out = enc.class_similarity(Tensor(rng.standard_normal((2, 4))), cs)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))

    def test_identity_class_matrix_returns_fnn_output(self, rng):
        cs = _class_sim(rng, d_class=3, n_classes=3)
        cs.w_c.data = np.eye(3)
        x = Tensor(rng.standard_normal((2, 4)))
        out = enc.class_similarity(x, cs)
        h = np.maximum(x.data @ cs.w1.data + cs.b1.data, 0)
        fnn = np.maximum(h @ cs.w2.data + cs.b2.data, 0)
        np.testing.assert_allclose(out.data, fnn, atol=1e-14)

    def test_against_loop_oracle(self, rng):
        cs = _class_sim(rng)
        x = rng.standard_normal((2, 4))
        out = enc.class_similarity(Tensor(x), cs)
        for i in range(2):
            h = np.maximum(cs.w1.data.T @ x[i] + cs.b1.data.reshape(-1), 0)
            f = np.maximum(cs.w2.data.T @ h + cs.b2.data.reshape(-1), 0)
            expected = cs.w_c.data @ f
            np.testing.assert_allclose(out.data[i], expected, atol=1e-12)

    def test_width_mismatch(self, rng):
        cs = _class_sim(rng, d_in=4)
        with pytest.raises(DimensionError):
            enc.class_similarity(Tensor(rng.standard_normal((2, 5))), cs)

    def test_gradient_reaches_class_matrix(self, rng):
        cs = _class_sim(rng)
        x = Tensor(rng.standard_normal((2, 4)))
        ad.backward(total(enc.class_similarity(x, cs)))
        assert cs.w_c.grad is not None
        assert np.abs(cs.w_c.grad).sum() > 0

    def test_fnn_gradcheck(self, rng):
        cs = _class_sim(rng)
        x = Tensor(rng.uniform(-1, 1, (2, 4)))
        params = [cs.w_c, cs.w1, cs.b1, cs.w2, cs.b2]
        worst, _ = ad.grad_check(
            lambda: total(ad.tanh(enc.class_similarity(x, cs))), params
        )
        assert worst < 1e-5


class TestEnrich:
    """`model.forward_pack` appends the class similarities with `concat`,
    which joins columns."""

    def test_width_is_sum(self, rng):
        e = Tensor(rng.standard_normal((2, 3)))
        c = Tensor(rng.standard_normal((2, 2)))
        assert ad.concat((e, c)).shape == (2, 5)

    def test_prefix_is_sentence_embedding(self, rng):
        e = Tensor(rng.standard_normal((3, 4)))
        c = Tensor(rng.standard_normal((3, 3)))
        out = ad.concat((e, c))
        np.testing.assert_array_equal(out.data[:, :4], e.data)
        np.testing.assert_array_equal(out.data[:, 4:], c.data)

    def test_row_mismatch(self, rng):
        e, c = Tensor(rng.standard_normal((2, 3))), Tensor(rng.standard_normal((3, 3)))
        with pytest.raises(DimensionError, match="incompatible shapes"):
            ad.concat((e, c))


class TestFiniteness:
    def test_outputs_finite_for_bounded_weights(self, rng):
        cfg = tiny_config()
        from gatedoc.model import build_model, forward
        from conftest import make_doc, randomize_params

        mp = build_model(cfg, vocab_size=20, rng=rng, dtype="float64")
        randomize_params(mp, rng, scale=1.0)
        doc = make_doc(rng, 3, 20)
        result = forward(doc, mp)
        assert np.isfinite(result.probs.data).all()
        assert np.isfinite(result.gate_scores).all()
