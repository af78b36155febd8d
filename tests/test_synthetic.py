import pytest

from gatedoc import synthetic


# even and odd counts, so both a full last pair and a lone negative are compared
@pytest.mark.parametrize("n_docs", [0, 1, 2, 7, 40])
@pytest.mark.parametrize("n_distractors", [0, 5, 29])
def test_corpus_is_a_prefix_of_the_next_larger_one(n_docs, n_distractors):
    smaller = synthetic.generate_key_sentence_corpus(n_docs, 3, n_distractors)
    larger = synthetic.generate_key_sentence_corpus(n_docs + 1, 3, n_distractors)
    assert len(smaller) == n_docs
    assert smaller == larger[:n_docs]
