import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedoc import textpipe as tp
from gatedoc.checkpoint import load_checkpoint, save_checkpoint
from gatedoc.config import TrainConfig
from gatedoc.errors import DataError, UsageError
from gatedoc.model import build_model

from conftest import JSONL_LINES, tiny_config


# the tokenizer's specification: runs of word characters, and every other
# non-space character on its own
WORD_RE = re.compile(r"\w+|[^\w\s]")

LIMITS = TrainConfig().limits()  # the pipeline limits a default run uses


def rd(i, text, score=1):
    return tp.RawDocument(id=str(i), text=text, score=score)


def _checkpoint_with(vocab, path):
    """Vocabularies are persisted inside checkpoints; write one around `vocab`."""
    config = tiny_config()
    save_checkpoint(build_model(config, len(vocab)), config, vocab, path)
    return path


# ---------------------------------------------------------------------------
# sentence segmentation
# ---------------------------------------------------------------------------


class TestSegmentation:
    def test_two_plain_sentences(self):
        sents = tp.segment_sentences("Good movie. Bad ending.")
        assert [s for s, _ in sents] == ["Good movie.", "Bad ending."]

    def test_decimal_number_protected(self):
        sents = tp.segment_sentences("It cost $3.50 today.")
        assert len(sents) == 1

    def test_abbreviations_and_mixed_terminators(self):
        sents = tp.segment_sentences("Dr. Smith liked it! Really? Yes.")
        assert len(sents) == 3
        assert "Dr. Smith" in sents[0][0]

    @pytest.mark.parametrize("abbr", sorted(tp.ABBREVIATIONS))
    def test_every_abbreviation_protected(self, abbr):
        text = f"{abbr.capitalize()} Smith met {abbr.upper()} Jones. Then it ended."
        assert [s for s, _ in tp.segment_sentences(text)][1:] == ["Then it ended."]

    def test_token_ending_in_an_abbreviation_splits(self):
        sents = tp.segment_sentences("It was unprof. Then vs. Us. It ended.")
        assert [s for s, _ in sents] == ["It was unprof.", "Then vs. Us.", "It ended."]

    def test_no_terminator_is_one_sentence(self):
        sents = tp.segment_sentences("no terminator here")
        assert len(sents) == 1
        assert sents[0][1] == (0, len("no terminator here"))

    def test_lowercase_continuation_does_not_split(self):
        sents = tp.segment_sentences("He said no. but then agreed.")
        assert len(sents) == 1

    def test_quote_opens_sentence(self):
        sents = tp.segment_sentences('She left. "Stay," he said.')
        assert len(sents) == 2

    def test_empty_text_rejected(self):
        with pytest.raises(UsageError):
            tp.segment_sentences("")

    def test_spans_slice_back_to_sentence_text(self):
        text = "  One two. Three four!  "
        for sent, (start, end) in tp.segment_sentences(text):
            assert text[start:end] == sent

    @given(
        st.text(
            alphabet="aB .!?“Q3\n\tz.",
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=150)
    def test_spans_tile_nonwhitespace(self, text):
        if not text.strip():
            return
        sents = tp.segment_sentences(text)
        prev_end = 0
        covered = set()
        for _, (start, end) in sents:
            assert start < end
            assert start >= prev_end  # ordered, disjoint
            assert not text[start].isspace() and not text[end - 1].isspace()
            covered.update(range(start, end))
            prev_end = end
        for i, ch in enumerate(text):
            if not ch.isspace():
                assert i in covered  # every non-whitespace character belongs to a span


# ---------------------------------------------------------------------------
# vocabulary and tokenization
# ---------------------------------------------------------------------------


class TestVocab:
    def test_min_freq_filters(self):
        vocab = tp.build_vocab([rd(0, "a a b")], min_freq=2, max_size=100)
        assert "a" in vocab.token_to_id
        assert "b" not in vocab.token_to_id

    def test_reserved_ids_fixed(self):
        vocab = tp.build_vocab([rd(0, "a a")], min_freq=1, max_size=100)
        assert vocab.id_to_token[:5] == list(tp.RESERVED_TOKENS)
        assert tp.PAD_ID == 0 and tp.UNK_ID == 1 and tp.CLS_ID == 2
        assert tp.SEP_ID == 3 and tp.START_ID == 4

    def test_deterministic_serialization(self, tmp_path):
        corpus = [rd(i, "the cat sat on the mat. again!") for i in range(3)]
        blobs = []
        for run in range(2):
            vocab = tp.build_vocab(corpus, min_freq=1, max_size=100)
            blobs.append(_checkpoint_with(vocab, tmp_path / f"run{run}.gdoc").read_bytes())
        assert blobs[0] == blobs[1]

    def test_tie_break_is_lexicographic(self):
        vocab = tp.build_vocab([rd(0, "b a b a c c z z")], min_freq=1, max_size=3)
        kept = vocab.id_to_token[5:]
        assert kept == ["a", "b", "c"]  # z loses the tie at the cap

    def test_empty_corpus_rejected(self):
        with pytest.raises(UsageError):
            tp.build_vocab([], min_freq=1, max_size=100)

    def test_save_load_round_trip(self, tmp_path):
        vocab = tp.build_vocab([rd(0, "alpha beta alpha gamma.")], min_freq=1, max_size=100)
        _, _, loaded = load_checkpoint(_checkpoint_with(vocab, tmp_path / "model.gdoc"))
        assert loaded.id_to_token == vocab.id_to_token
        assert loaded.token_to_id == vocab.token_to_id


class TestTokenize:
    def test_words_and_punctuation(self):
        vocab = tp.build_vocab([rd(0, "good movie. good movie.")], min_freq=1, max_size=100)
        ids = tp.tokenize("Good movie.", vocab)
        assert ids == [
            vocab.token_to_id["good"],
            vocab.token_to_id["movie"],
            vocab.token_to_id["."],
        ]

    def test_unknown_word_maps_to_unk(self):
        vocab = tp.build_vocab([rd(0, "known known")], min_freq=1, max_size=100)
        assert tp.tokenize("unknown", vocab) == [tp.UNK_ID]

    def test_empty_string(self):
        vocab = tp.build_vocab([rd(0, "x x")], min_freq=1, max_size=100)
        assert tp.tokenize("", vocab) == []

    @pytest.mark.parametrize(
        "text",
        ["", " ", "It's 3.50$!", "a_b-c\u00a0d\u2028e\x1cf", "ÉCOLE…«ça»", "İ", "٣٤ ١٢!"],
    )
    def test_words_are_the_specification_regex(self, text):
        assert tp.tokenize_words(text) == WORD_RE.findall(text.lower())

    @given(st.text(max_size=80))
    @settings(max_examples=200)
    def test_any_text_tokenizes_as_the_specification_regex(self, text):
        assert tp.tokenize_words(text) == WORD_RE.findall(text.lower())


# ---------------------------------------------------------------------------
# stream assembly
# ---------------------------------------------------------------------------


def _assemble(sentence_ids, limits=None, label=0):
    limits = limits or LIMITS
    spans = [(i, i + 1) for i in range(len(sentence_ids))]
    return tp.assemble_document(
        sentence_ids, spans, limits, doc_id="t", label=label, n_classes=3
    )


class TestAssemble:
    def test_layout_arithmetic(self):
        doc = _assemble([[7, 8, 9], [10, 11, 12]])
        assert len(doc.token_stream) == 9
        assert doc.sep_positions == [4, 8]
        assert doc.token_stream[0] == tp.CLS_ID

    def test_max_sentences_cap(self):
        doc = _assemble([[7]] * 60)
        assert len(doc.sentences) == 50
        assert doc.token_stream.count(tp.SEP_ID) == 50

    def test_long_sentence_truncated_to_exact_limit(self):
        doc = _assemble([list(range(5, 605))])
        assert len(doc.token_stream) == 512
        assert doc.token_stream[-1] == tp.SEP_ID
        assert doc.sep_positions == [511]

    def test_whole_trailing_sentences_dropped_first(self):
        limits = tp.Limits(max_sentences=50, max_stream_len=12)
        doc = _assemble([[5] * 6, [6] * 6], limits)
        # dropping the second sentence fits; the first stays whole
        assert doc.sentences == [[5] * 6]
        assert len(doc.token_stream) == 8

    def test_empty_sentences_dropped(self):
        doc = _assemble([[], [7, 8], []])
        assert doc.sentences == [[7, 8]]

    def test_all_empty_rejected(self):
        with pytest.raises(DataError):
            _assemble([[], []])

    @given(
        st.lists(
            st.lists(st.integers(5, 30), min_size=0, max_size=12),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=60)
    def test_structural_invariants(self, sentence_ids):
        if not any(sentence_ids):
            return
        doc = _assemble(sentence_ids)
        assert doc.token_stream[0] == tp.CLS_ID
        assert doc.token_stream.count(tp.SEP_ID) == len(doc.sentences)
        assert len(doc.sep_positions) == len(doc.sentences)
        assert all(a < b for a, b in zip(doc.sep_positions, doc.sep_positions[1:]))
        assert all(doc.token_stream[p] == tp.SEP_ID for p in doc.sep_positions)


# ---------------------------------------------------------------------------
# label bucketing
# ---------------------------------------------------------------------------


class TestBucketLabel:
    def test_positive_above_three(self):
        assert tp.bucket_label(4, "three_way") == 2

    def test_neutral_at_three(self):
        assert tp.bucket_label(3, "three_way") == 1

    def test_ten_scale_offset(self):
        assert tp.bucket_label(7, "ten_scale") == 6

    def test_out_of_range_names_document(self):
        with pytest.raises(DataError, match="doc-9"):
            tp.bucket_label(11, "ten_scale", doc_id="doc-9")

    def test_unknown_scheme(self):
        with pytest.raises(UsageError):
            tp.bucket_label(1, "five_way")

    @given(st.integers(1, 4))
    def test_three_way_monotone(self, score):
        assert tp.bucket_label(score, "three_way") <= tp.bucket_label(score + 1, "three_way")


# ---------------------------------------------------------------------------
# dataset loading and batching
# ---------------------------------------------------------------------------


def _write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class TestLoadDataset:
    def test_valid_lines_in_order(self, tmp_path):
        path = tmp_path / "data.jsonl"
        _write_jsonl(
            path,
            [
                {"id": f"d{i}", "text": f"Sentence number {i}.", "score": 1 + i}
                for i in range(3)
            ],
        )
        vocab = tp.build_vocab([rd(0, "sentence number 0 1 2 . " * 3)], min_freq=1, max_size=100)
        loaded = tp.load_dataset(path, "three_way", vocab, LIMITS)
        assert [d.id for d in loaded.documents] == ["d0", "d1", "d2"]
        assert loaded.skipped == 0

    def test_out_of_range_score_skipped_with_count(self, tmp_path):
        path = tmp_path / "data.jsonl"
        _write_jsonl(
            path,
            [
                {"id": "ok", "text": "Fine movie.", "score": 5},
                {"id": "bad", "text": "Broken.", "score": 11},
            ],
        )
        vocab = tp.build_vocab([rd(0, "fine movie broken . " * 2)], min_freq=1, max_size=100)
        loaded = tp.load_dataset(path, "ten_scale", vocab, LIMITS)
        assert [d.id for d in loaded.documents] == ["ok"]
        assert loaded.skipped == 1

    def test_score_of_wrong_type_skipped_with_count(self, tmp_path):
        path = tmp_path / "data.jsonl"
        scores = [4, True, 2.5, "3", 0]
        _write_jsonl(
            path, [{"id": f"d{i}", "text": "Fine movie.", "score": s} for i, s in enumerate(scores)]
        )
        raw = tp.read_raw_dataset(path, "three_way")
        assert [d.id for d in raw.documents] == ["d0"]
        assert raw.skipped == len(scores) - 1

    def test_null_or_missing_score_is_an_unlabelled_document(self, tmp_path):
        path = tmp_path / "data.jsonl"
        _write_jsonl(
            path,
            [
                {"id": "null", "text": "Fine movie.", "score": None},
                {"id": "missing", "text": "Fine movie."},
                {"id": "labelled", "text": "Fine movie.", "score": 4},
            ],
        )
        raw = tp.read_raw_dataset(path, "three_way")
        assert [(d.id, d.score) for d in raw.documents] == [
            ("null", None), ("missing", None), ("labelled", 4)
        ]
        assert raw.skipped == 0
        vocab = tp.build_vocab([rd(0, "fine movie . " * 2)], min_freq=1, max_size=100)
        loaded = tp.load_dataset(path, "three_way", vocab, LIMITS)
        assert [d.label for d in loaded.documents] == [None, None, 2]

    def test_line_that_is_not_utf8_skipped_with_count(self, tmp_path):
        path = tmp_path / "data.jsonl"
        good = [json.dumps({"id": i, "text": "Fine movie.", "score": 4}) for i in ("a", "b")]
        bad = b'{"id": "c\xff", "text": "Fine movie.", "score": 4}'
        path.write_bytes(f"{good[0]}\n".encode() + bad + f"\n{good[1]}".encode())
        raw = tp.read_raw_dataset(path, "three_way")
        assert [d.id for d in raw.documents] == ["a", "b"] and raw.skipped == 1

    def test_a_leading_byte_order_mark_costs_no_record(self, tmp_path):
        path = tmp_path / "data.jsonl"
        lines = [json.dumps({"id": i, "text": "Fine movie.", "score": 4}) for i in "abc"]
        path.write_bytes(("\ufeff" + "\n".join(lines)).encode("utf-8"))
        raw = tp.read_raw_dataset(path, "three_way")
        assert [d.id for d in raw.documents] == ["a", "b", "c"] and raw.skipped == 0
        # only the file's first bytes are a byte-order mark; one later is a bad line
        path.write_bytes(("\ufeff" + "\n\ufeff".join(lines)).encode("utf-8"))
        raw = tp.read_raw_dataset(path, "three_way")
        assert [d.id for d in raw.documents] == ["a"] and raw.skipped == 2

    def test_malformed_json_skipped(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "a", "text": "Good.", "score": 2}\nnot json\n')
        vocab = tp.build_vocab([rd(0, "good . " * 2)], min_freq=1, max_size=100)
        loaded = tp.load_dataset(path, "three_way", vocab, LIMITS)
        assert loaded.skipped == 1

    def test_line_nested_too_deep_skipped_with_count(self, tmp_path):
        # json.loads raises RecursionError on it, not ValueError
        path = tmp_path / "data.jsonl"
        good = json.dumps({"id": "a", "text": "Fine movie.", "score": 4})
        path.write_text(f"{good}\n{'[' * 100_000}{']' * 100_000}\n", encoding="utf-8")
        raw = tp.read_raw_dataset(path, "three_way")
        assert [d.id for d in raw.documents] == ["a"] and raw.skipped == 1

    def test_whitespace_only_text_is_read_then_skipped_when_prepared(self, tmp_path):
        path = tmp_path / "data.jsonl"
        _write_jsonl(
            path,
            [
                {"id": "ok", "text": "Good film.", "score": 5},
                {"id": "blank", "text": " \t ", "score": 2},
            ],
        )
        raw = tp.read_raw_dataset(path, "three_way")
        assert [d.id for d in raw.documents] == ["ok", "blank"] and raw.skipped == 0
        vocab = tp.build_vocab([rd(0, "good film . " * 2)], min_freq=1, max_size=100)
        prepared = tp.prepare_documents(raw.documents, "three_way", vocab, LIMITS, path)
        assert [d.id for d in prepared.documents] == ["ok"] and prepared.skipped == 1
        loaded = tp.load_dataset(path, "three_way", vocab, LIMITS)
        assert [d.id for d in loaded.documents] == ["ok"] and loaded.skipped == 1

    def test_empty_file_is_data_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        vocab = tp.build_vocab([rd(0, "x x")], min_freq=1, max_size=100)
        with pytest.raises(DataError):
            tp.load_dataset(path, "three_way", vocab, LIMITS)

    def test_unreadable_file_is_io_error(self, tmp_path):
        vocab = tp.build_vocab([rd(0, "x x")], min_freq=1, max_size=100)
        with pytest.raises(OSError):
            tp.load_dataset(tmp_path / "missing.jsonl", "three_way", vocab, LIMITS)


# ---------------------------------------------------------------------------
# malformed input: whatever a line holds, the reader skips and counts it
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "data.jsonl"


@given(lines=JSONL_LINES, crlf=st.booleans(), final_newline=st.booleans())
@settings(max_examples=200)
def test_reader_returns_the_good_records_in_order_and_counts_the_bad(
    fuzz_path, lines, crlf, final_newline
):
    end = b"\r\n" if crlf else b"\n"
    fuzz_path.write_bytes(end.join(line for _, line, _ in lines) + (end if final_newline else b""))
    good = [doc for kind, _, doc in lines if kind == "good"]
    if not good:
        with pytest.raises(DataError, match="no valid documents"):
            tp.read_raw_dataset(fuzz_path, "three_way")
        return
    raw = tp.read_raw_dataset(fuzz_path, "three_way")
    assert raw.documents == good
    assert raw.skipped == sum(kind == "bad" for kind, _, _ in lines)


class TestSplitAndBatch:
    def test_batch_sizes(self):
        batches = tp.make_batches(list(range(10)), 4)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_same_seed_same_order(self):
        docs = list(range(30))
        a = [tp.make_batches(part, 4) for part in tp.shuffle_split(docs, seed=9)]
        b = [tp.make_batches(part, 4) for part in tp.shuffle_split(docs, seed=9)]
        assert a == b

    def test_different_seed_different_order_same_multiset(self):
        docs = list(range(100))
        a = tp.shuffle_split(docs, seed=1)
        b = tp.shuffle_split(docs, seed=2)
        assert a[0] != b[0]
        assert sorted(a[0] + a[1] + a[2]) == sorted(b[0] + b[1] + b[2]) == docs

    def test_split_proportions(self):
        train, dev, test = tp.shuffle_split(list(range(10)), seed=0)
        assert (len(train), len(dev), len(test)) == (8, 1, 1)

    def test_batch_size_validation(self):
        with pytest.raises(UsageError):
            tp.make_batches([1], 0)


class TestPipelineDeterminism:
    def test_identical_inputs_identical_documents(self, tmp_path):
        path = tmp_path / "data.jsonl"
        _write_jsonl(
            path,
            [
                {"id": "a", "text": "Nice film. Great acting!", "score": 5},
                {"id": "b", "text": "Terrible. Boring plot.", "score": 1},
            ],
        )
        corpus = [rd(0, "nice film great acting terrible boring plot . ! " * 2)]
        results = []
        for _ in range(2):
            vocab = tp.build_vocab(corpus, min_freq=1, max_size=100)
            loaded = tp.load_dataset(path, "three_way", vocab, LIMITS)
            results.append([(d.id, d.token_stream, d.sep_positions, d.label) for d in loaded.documents])
        assert results[0] == results[1]
