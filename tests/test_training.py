import numpy as np

from gatedoc import training

from conftest import make_doc, tiny_config


def test_seeded_training_is_bit_identical(rng):
    cfg = tiny_config(max_epochs=2, batch_size=2)
    docs = [make_doc(rng, 3, 20, label=i % 3, doc_id=f"d{i}") for i in range(8)]
    runs = [training.train(docs[:6], docs[6:], cfg, vocab_size=20) for _ in range(2)]
    first, second = runs
    assert len(first.history) == 2
    assert first.history == second.history
    a, b = dict(first.params.named_parameters()), dict(second.params.named_parameters())
    assert a.keys() == b.keys()
    for name in a:
        assert np.array_equal(a[name].data, b[name].data), name
