import numpy as np
import pytest

from gatedoc import autodiff as ad
from gatedoc import document as doc
from gatedoc.autodiff import Tensor
from gatedoc.errors import DimensionError

from conftest import skewed_backward, total


def _gate(rng, width, mode="scalar", randomize=True):
    gp = doc.init_gate(ad.initializer(np.float64), width, mode)
    if randomize:
        gp.w_g.data = rng.uniform(-0.5, 0.5, size=gp.w_g.data.shape)
    return gp


def _cell(rng, d_in, d_g, prefix="cell"):
    init = ad.initializer(np.float64, rng)
    cell = doc.init_gru_cell(init, d_in, d_g, prefix)
    for _, tensor in init.made:
        tensor.data = rng.uniform(-0.5, 0.5, size=tensor.data.shape)
    return cell


def _by_gate(cell):
    """A cell's tensors in draw order: w_z, u_z, b_z, w_r, ..."""
    return [tensor for triple in zip(cell.w, cell.u, cell.b) for tensor in triple]


def _gru(x, h0, cell):
    return ad.gru(x, h0, cell.w, cell.u, cell.b, [x.shape[0]])


def _doc_encoder(rng, d_in, d_g):
    init = ad.initializer(np.float64, rng)
    dp = doc.init_doc_encoder(init, d_in, d_g)
    for tensor in _by_gate(dp.enc_cell) + _by_gate(dp.dec_cell):
        tensor.data = rng.uniform(-0.5, 0.5, size=tensor.data.shape)
    for tensor in (dp.bridge_w, dp.bridge_b, dp.start_emb):
        tensor.data = rng.uniform(-0.5, 0.5, size=tensor.data.shape)
    return dp, [tensor for _, tensor in init.made]


class TestGate:
    def test_zero_weights_give_half_gates(self, rng):
        gp = _gate(rng, 5, randomize=False)  # init is zero by design
        e = Tensor(rng.standard_normal((3, 5)))
        scores, gated = doc.gate(e, gp)
        np.testing.assert_array_equal(scores, [0.5, 0.5, 0.5])
        np.testing.assert_allclose(gated.data, 0.5 * e.data, atol=1e-15)

    def test_saturated_open_gate_passes_row(self, rng):
        gp = _gate(rng, 3, randomize=False)
        gp.w_g.data = np.full((1, 3), 50.0)
        e = Tensor(np.ones((1, 3)))
        scores, gated = doc.gate(e, gp)
        assert scores[0] > 1 - 1e-12
        np.testing.assert_allclose(gated.data, e.data, atol=1e-10)

    def test_saturated_closed_gate_suppresses_row(self, rng):
        gp = _gate(rng, 3, randomize=False)
        gp.w_g.data = np.full((1, 3), -50.0)
        e = Tensor(np.ones((1, 3)))
        scores, gated = doc.gate(e, gp)
        assert scores[0] < 1e-12
        np.testing.assert_allclose(gated.data, np.zeros((1, 3)), atol=1e-10)

    def test_scores_strictly_inside_unit_interval(self, rng):
        gp = _gate(rng, 4)
        e = Tensor(rng.standard_normal((6, 4)) * 10)
        scores, _ = doc.gate(e, gp)
        assert ((scores > 0) & (scores < 1)).all()

    def test_vector_mode_reports_mean(self, rng):
        gp = _gate(rng, 4, mode="vector")
        e = Tensor(rng.standard_normal((3, 4)))
        scores, gated = doc.gate(e, gp)
        z = e.data @ gp.w_g.data.T
        g = 1 / (1 + np.exp(-z))
        np.testing.assert_allclose(scores, g.mean(axis=1), atol=1e-12)
        np.testing.assert_allclose(gated.data, g * e.data, atol=1e-12)

    def test_width_mismatch(self, rng):
        gp = _gate(rng, 4)
        with pytest.raises(DimensionError):
            doc.gate(Tensor(rng.standard_normal((2, 5))), gp)


class TestGruCell:
    def test_all_zero_weights_zero_state(self, rng):
        init = ad.initializer(np.float64, rng)
        cell = doc.init_gru_cell(init, 3, 4, "c")
        for _, tensor in init.made:
            tensor.data = np.zeros_like(tensor.data)
        h = _gru(Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 4))), cell)
        np.testing.assert_array_equal(h.data, np.zeros((1, 4)))

    def test_update_gate_forced_closed_copies_state(self, rng):
        cell = _cell(rng, 3, 4)
        cell.b[0].data = np.full((1, 4), -100.0)  # z ~ 0 -> h' ~ h_prev
        h_prev = rng.standard_normal((1, 4))
        h = _gru(Tensor(rng.standard_normal((1, 3))), Tensor(h_prev), cell)
        np.testing.assert_allclose(h.data, h_prev, atol=1e-12)

    def test_against_scalar_loop_oracle(self, rng):
        cell = _cell(rng, 3, 4)
        x = rng.standard_normal(3)
        h_prev = rng.standard_normal(4)
        out = _gru(Tensor(x.reshape(1, 3)), Tensor(h_prev.reshape(1, 4)), cell)

        def sig(v):
            return 1 / (1 + np.exp(-v))

        expected = np.zeros(4)
        for j in range(4):
            z = sig(sum(x[i] * cell.w[0].data[i, j] for i in range(3))
                    + sum(h_prev[i] * cell.u[0].data[i, j] for i in range(4))
                    + cell.b[0].data[0, j])
            r_vec = [sig(sum(x[i] * cell.w[1].data[i, jj] for i in range(3))
                         + sum(h_prev[i] * cell.u[1].data[i, jj] for i in range(4))
                         + cell.b[1].data[0, jj]) for jj in range(4)]
            cand = np.tanh(sum(x[i] * cell.w[2].data[i, j] for i in range(3))
                           + sum(r_vec[i] * h_prev[i] * cell.u[2].data[i, j] for i in range(4))
                           + cell.b[2].data[0, j])
            expected[j] = (1 - z) * h_prev[j] + z * cand
        np.testing.assert_allclose(out.data.reshape(-1), expected, atol=1e-10)

    def test_width_mismatch(self, rng):
        cell = _cell(rng, 3, 4)
        with pytest.raises(DimensionError):
            _gru(Tensor(np.ones((1, 5))), Tensor(np.ones((1, 4))), cell)

    def test_gradcheck_all_parameters(self, rng):
        cell = _cell(rng, 3, 4)
        x = Tensor(rng.uniform(-1, 1, (1, 3)))
        h0 = Tensor(rng.uniform(-1, 1, (1, 4)))
        worst, _ = ad.grad_check(lambda: total(_gru(x, h0, cell)), _by_gate(cell))
        assert worst < 1e-5


class TestEncodeSequence:
    def test_chained_single_steps_equal_one_run(self, rng):
        cell = _cell(rng, 3, 4)
        e = rng.standard_normal((5, 3))
        encs = doc.encode_sequence(Tensor(e), cell, [5])
        h = Tensor(np.zeros((1, 4)))
        for i in range(5):
            h = _gru(Tensor(e[i : i + 1]), h, cell)
            np.testing.assert_allclose(h.data[0], encs.data[i], rtol=0, atol=1e-14)

    def test_prefix_property(self, rng):
        cell = _cell(rng, 3, 4)
        e = rng.standard_normal((5, 3))
        full = doc.encode_sequence(Tensor(e), cell, [5])
        prefix = doc.encode_sequence(Tensor(e[:3]), cell, [3])
        np.testing.assert_allclose(prefix.data, full.data[:3], atol=1e-15)

    def test_against_step_oracle(self, rng):
        cell = _cell(rng, 3, 4)
        e = rng.standard_normal((3, 3))
        encs = doc.encode_sequence(Tensor(e), cell, [3])

        def sig(v):
            return 1 / (1 + np.exp(-v))

        h = np.zeros(4)
        for i in range(3):
            z = sig(e[i] @ cell.w[0].data + h @ cell.u[0].data + cell.b[0].data.reshape(-1))
            r = sig(e[i] @ cell.w[1].data + h @ cell.u[1].data + cell.b[1].data.reshape(-1))
            cand = np.tanh(
                e[i] @ cell.w[2].data + (r * h) @ cell.u[2].data + cell.b[2].data.reshape(-1)
            )
            h = (1 - z) * h + z * cand
            np.testing.assert_allclose(encs.data[i], h, atol=1e-10)


def _context(encs, query, values=None):
    """The decoder's attention form: one query over the encoder states,
    unscaled; with `values` an (n x d) identity it returns the weights."""
    n = encs.shape[0]
    values = encs if values is None else values
    return ad.attention(query, encs, values, 1, [(0, n)], q_blocks=[(0, 1)], scale=1.0)


def _weights(encs, query):
    """The attention weights of the decoder's form, for d >= n states."""
    n, d = encs.shape
    return _context(encs, query, Tensor(np.eye(n, d))).data[0, :n]


def _sig(v):
    return 1 / (1 + np.exp(-v))


def _gru_step(x, h, cell):
    """One GRU step transcribed from the equations, on plain arrays."""
    z = _sig(x @ cell.w[0].data + h @ cell.u[0].data + cell.b[0].data)
    r = _sig(x @ cell.w[1].data + h @ cell.u[1].data + cell.b[1].data)
    cand = np.tanh(x @ cell.w[2].data + (r * h) @ cell.u[2].data + cell.b[2].data)
    return (1 - z) * h + z * cand


def _decoded(encs, dp, cnt):
    """The decoder's output from the encoder states for a given context vector."""
    dec0 = np.tanh(encs[-1:] @ dp.bridge_w.data + dp.bridge_b.data)
    return _gru_step(np.concatenate([dp.start_emb.data, cnt], axis=1), dec0, dp.dec_cell)


class TestAttend:
    """The decoder's attention, as the one `attention` node `decode_document` builds."""

    def test_identical_states_give_uniform_weights(self, rng):
        row = rng.standard_normal(4)
        encs = Tensor(np.tile(row, (3, 1)))
        query = Tensor(rng.standard_normal((1, 4)))
        np.testing.assert_allclose(_weights(encs, query), np.full(3, 1 / 3), atol=1e-12)
        np.testing.assert_allclose(_context(encs, query).data.reshape(-1), row, atol=1e-12)

    def test_dominant_state_takes_all(self, rng):
        encs = np.ones((3, 4)) * 0.01
        encs[1] = 100.0
        query = Tensor(np.ones((1, 4)))
        assert _weights(Tensor(encs), query)[1] > 1 - 1e-9
        cnt = _context(Tensor(encs), query)
        np.testing.assert_allclose(cnt.data.reshape(-1), encs[1], atol=1e-6)

    def test_weights_sum_to_one_and_weighted_sum_oracle(self, rng):
        encs = rng.standard_normal((3, 4))
        query = rng.standard_normal((1, 4))
        assert abs(_weights(Tensor(encs), Tensor(query)).sum() - 1.0) < 1e-12
        cnt = _context(Tensor(encs), Tensor(query))
        scores = encs @ query.reshape(-1)
        e = np.exp(scores - scores.max())
        w = e / e.sum()
        expected = sum(w[i] * encs[i] for i in range(3))
        np.testing.assert_allclose(cnt.data.reshape(-1), expected, atol=1e-12)

    def test_shift_invariance(self, rng):
        encs = rng.standard_normal((4, 5))
        q = rng.standard_normal((1, 5))
        a1 = _weights(Tensor(encs), Tensor(q))
        # adding a constant to all scores = appending a constant direction;
        # verified on the op's softmax form, scores over k = v = I
        scores = Tensor((encs @ q.reshape(-1) + 7.5).reshape(1, -1))
        eye = Tensor(np.eye(4))
        shifted = ad.attention(scores, eye, eye, 1, [(0, 4)], q_blocks=[(0, 1)], scale=1.0)
        np.testing.assert_allclose(a1, shifted.data[0], atol=1e-12)

    def test_query_width_mismatch(self, rng):
        with pytest.raises(DimensionError):
            _context(Tensor(rng.standard_normal((3, 4))), Tensor(rng.standard_normal((1, 5))))


class TestDecodeDocument:
    def test_single_sentence_attention_is_one(self, rng):
        # one state takes all the weight: the context vector is enc_0
        dp, _ = _doc_encoder(rng, 3, 4)
        encs = doc.encode_sequence(Tensor(rng.standard_normal((1, 3))), dp.enc_cell, [1])
        e_d = doc.decode_document(encs, dp, [1])
        assert e_d.shape == (1, 4)
        np.testing.assert_allclose(e_d.data, _decoded(encs.data, dp, encs.data), atol=1e-12)

    def test_zero_bridge_gives_uniform_attention(self, rng):
        # dec_0 = tanh(0) scores every state 0: the context vector is their mean
        dp, _ = _doc_encoder(rng, 3, 4)
        dp.bridge_w.data = np.zeros_like(dp.bridge_w.data)
        dp.bridge_b.data = np.zeros_like(dp.bridge_b.data)
        encs = doc.encode_sequence(Tensor(rng.standard_normal((3, 3))), dp.enc_cell, [3]).data
        e_d = doc.decode_document(Tensor(encs), dp, [3])
        mean = encs.mean(axis=0, keepdims=True)
        np.testing.assert_allclose(e_d.data, _decoded(encs, dp, mean), atol=1e-12)

    def test_against_equation_transcription_oracle(self, rng):
        dp, _ = _doc_encoder(rng, 3, 4)
        e = rng.standard_normal((3, 3))
        encs = doc.encode_sequence(Tensor(e), dp.enc_cell, [3])
        e_d = doc.decode_document(encs, dp, [3])

        h = np.zeros((1, 4))
        states = []
        for i in range(3):
            h = _gru_step(e[i : i + 1], h, dp.enc_cell)
            states.append(h)
        states = np.concatenate(states, axis=0)
        dec0 = np.tanh(states[-1:] @ dp.bridge_w.data + dp.bridge_b.data)
        scores = states @ dec0.T
        w = np.exp(scores - scores.max())
        w = w / w.sum()
        np.testing.assert_allclose(e_d.data, _decoded(states, dp, w.T @ states), atol=1e-10)


class TestGateInfluenceInvariant:
    def test_closed_gate_blocks_sentence_content(self, rng):
        width, d_g = 5, 4
        gp = _gate(rng, width)
        dp, _ = _doc_encoder(rng, width, d_g)

        def run(e_prime):
            scores, _ = doc.gate(Tensor(e_prime), gp)
            scores[1] = 0.0  # close sentence 1's gate
            gated = ad.mul(Tensor(e_prime), Tensor(scores[:, None]))
            encs = doc.encode_sequence(gated, dp.enc_cell, [3])
            e_d = doc.decode_document(encs, dp, [3])
            return e_d.data

        e = rng.standard_normal((3, width))
        base = run(e)
        perturbed = e.copy()
        perturbed[1] = rng.standard_normal(width) * 10
        assert np.abs(run(perturbed) - base).max() < 1e-9

    @staticmethod
    def _whole_module(rng, n_sentences):
        """Gate -> GRU encoder -> decoder under a batch loss, and its parameters."""
        width, d_g = 4, 3
        gp = _gate(rng, width)
        dp, made = _doc_encoder(rng, width, d_g)
        # a batch of inputs and a cross-entropy-style loss keep every
        # parameter's gradient well above finite-difference noise
        inputs = [Tensor(rng.uniform(-1, 1, (n_sentences, width))) for _ in range(3)]
        w_out = Tensor(rng.uniform(-1, 1, (d_g, 2)), requires_grad=False)
        target = np.array([[1.0, 0.0]])
        params = [gp.w_g] + made

        def f():
            total = None
            for e in inputs:
                _, gated = doc.gate(e, gp)
                encs = doc.encode_sequence(gated, dp.enc_cell, [n_sentences])
                e_d = doc.decode_document(encs, dp, [n_sentences])
                loss = ad.bce_loss(ad.sigmoid(ad.linear(e_d, w_out)), target)
                total = loss if total is None else ad.add(total, loss)
            return total

        return f, params

    @pytest.mark.parametrize("n_sentences", [1, 2, 4])
    def test_whole_module_gradcheck(self, rng, n_sentences):
        # h = 1e-3: the smallest gradients here (~6e-9) sit below the 1e-8
        # floor, where the roundoff of a 1e-4 step decides the error
        worst, _ = ad.grad_check(*self._whole_module(rng, n_sentences), eps=1e-3)
        assert worst < 1e-4

    def test_gradcheck_catches_one_percent_tanh_error(self, rng, monkeypatch):
        monkeypatch.setattr(ad, "tanh", skewed_backward(ad.tanh))
        worst, _ = ad.grad_check(*self._whole_module(rng, 4), eps=1e-3)
        assert worst >= 1e-4
