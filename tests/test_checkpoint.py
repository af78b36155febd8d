import errno
import json
import struct
import zlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedoc import checkpoint
from gatedoc import textpipe as tp
from gatedoc.checkpoint import VERSION, load_checkpoint, save_checkpoint
from gatedoc.errors import CheckpointError
from gatedoc.model import build_model

from conftest import randomize_params, tiny_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

HEADER_START = 12  # magic, version and header length precede the JSON header


def _vocab():
    corpus = [tp.RawDocument(id="0", text="a movie. the movie was great! the end.", score=5)]
    return tp.build_vocab(corpus, min_freq=1)


def _saved(tmp_path, dtype="float64", learning_rate=1e-3):
    config = tiny_config(dtype=dtype, learning_rate=learning_rate)
    vocab = _vocab()
    params = build_model(config, len(vocab))
    randomize_params(params, np.random.default_rng(7))
    path = tmp_path / "model.gdoc"
    save_checkpoint(params, config, vocab, path)
    return path, params, config, vocab


def test_write_atomic_leaves_no_tmp_when_a_piece_fails(tmp_path):
    def pieces():
        yield b"first"
        raise RuntimeError("second piece")

    with pytest.raises(RuntimeError):
        checkpoint.write_atomic(pieces(), tmp_path / "out")
    assert list(tmp_path.iterdir()) == []


def test_failed_save_keeps_the_previous_checkpoint_and_no_tmp(tmp_path, monkeypatch):
    path, _, _, _ = _saved(tmp_path)
    before = path.read_bytes()
    write = checkpoint.write_atomic

    def full_disk_at_the_third_piece(pieces, target):
        def written():
            yield from pieces[:2]
            assert Path(f"{target}.tmp").exists()
            raise OSError(errno.ENOSPC, "No space left on device")

        write(written(), target)

    monkeypatch.setattr(checkpoint, "write_atomic", full_disk_at_the_third_piece)
    with pytest.raises(OSError, match="No space left"):
        _saved(tmp_path, dtype="float32")
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == before


def _header_len(blob):
    return struct.unpack_from("<I", blob, 8)[0]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_round_trip_is_exact(tmp_path, dtype):
    path, params, config, vocab = _saved(tmp_path, dtype=dtype)
    loaded, loaded_config, loaded_vocab = load_checkpoint(path)
    assert loaded_config == config
    assert loaded_vocab.id_to_token == vocab.id_to_token
    before, after = params.named_parameters(), loaded.named_parameters()
    assert [n for n, _ in before] == [n for n, _ in after]
    for (name, a), (_, b) in zip(before, after):
        assert b.data.dtype == np.dtype(dtype), name
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)


def test_stored_names_are_tensor_names(tmp_path):
    path, _, _, _ = _saved(tmp_path)
    blob = path.read_bytes()
    header = blob[HEADER_START : HEADER_START + _header_len(blob)].decode("utf-8")
    assert '"encoder.tok_emb"' in header


def test_truncated_file_refused(tmp_path):
    path, _, _, _ = _saved(tmp_path)
    blob = path.read_bytes()
    for keep in (0, 3, 20, len(blob) // 2, len(blob) - 1):
        path.write_bytes(blob[:keep])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


@pytest.mark.parametrize("section", ["header", "arrays", "vocabulary"])
def test_flipped_byte_refused(tmp_path, section):
    path, _, _, vocab = _saved(tmp_path)
    blob = path.read_bytes()
    arrays_start = HEADER_START + _header_len(blob)
    vocab_len = len("\n".join(vocab.id_to_token[len(tp.RESERVED_TOKENS) :]).encode("utf-8"))
    vocab_start = len(blob) - 4 - vocab_len
    index = {
        "header": HEADER_START + 5,
        "arrays": (arrays_start + vocab_start) // 2,
        "vocabulary": vocab_start + 1,
    }[section]
    corrupt = bytearray(blob)
    corrupt[index] ^= 0x01
    path.write_bytes(bytes(corrupt))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_edited_header_value_refused(tmp_path):
    path, _, _, _ = _saved(tmp_path, learning_rate=0.001)
    blob = path.read_bytes()
    edited = blob.replace(b'"learning_rate": 0.001', b'"learning_rate": 0.003')
    assert edited != blob and len(edited) == len(blob)
    path.write_bytes(edited)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_version_1_file_refused(tmp_path):
    path, _, _, _ = _saved(tmp_path)
    blob = bytearray(path.read_bytes())
    assert struct.unpack_from("<I", blob, 4)[0] == VERSION
    struct.pack_into("<I", blob, 4, 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="version 1"):
        load_checkpoint(path)


def test_version_2_file_refused(tmp_path):
    # a tiny model stores every array as order "C": without the order
    # fields and under version 2, this is the file version 2 wrote
    path, _, _, _ = _saved(tmp_path)

    def unordered(specs, arrays):
        for spec in specs:
            del spec["order"]

    _rewritten(path, unordered)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, 4, 2)
    _write_with_crc(path, bytes(blob[:-4]))
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 2"):
        load_checkpoint(path)


def test_missing_file_refused(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "absent.gdoc")


def _rewritten(path, edit):
    """Rewrite the checkpoint at `path` after `edit(specs, arrays)` changes
    its parameter list, with a fresh CRC, so only the parameter check can refuse."""
    blob = path.read_bytes()
    end = HEADER_START + _header_len(blob)
    header = json.loads(blob[HEADER_START:end])
    itemsize = np.dtype(header["config"]["dtype"]).itemsize
    arrays = []
    for spec in header["params"]:
        size = int(np.prod(spec["shape"])) * itemsize
        arrays.append(blob[end : end + size])
        end += size
    edit(header["params"], arrays)
    hb = json.dumps(header, sort_keys=True).encode("utf-8")
    body = blob[:8] + struct.pack("<I", len(hb)) + hb + b"".join(arrays) + blob[end:-4]
    _write_with_crc(path, body)


def _write_with_crc(path, body):
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


def _rename(specs, arrays):
    specs[0]["name"] += "_renamed"


def _transpose_shape(specs, arrays):
    spec = next(s for s in specs if s["shape"][0] != s["shape"][1])
    spec["shape"] = spec["shape"][::-1]


def _drop(specs, arrays):
    del specs[-1], arrays[-1]


def _add(specs, arrays):
    specs.append({"name": "head.extra", "order": "C", "shape": [1, 2]})
    arrays.append(np.zeros(2).tobytes())


def _repeat(specs, arrays):
    specs.append(dict(specs[-1]))
    arrays.append(arrays[-1])


def test_config_that_does_not_validate_refused(tmp_path):
    path, _, _, _ = _saved(tmp_path)
    blob = path.read_bytes()
    edited = blob.replace(b'"n_heads": 2', b'"n_heads": 3')
    assert edited != blob and len(edited) == len(blob)
    _write_with_crc(path, edited[:-4])
    with pytest.raises(CheckpointError, match="n_heads"):
        load_checkpoint(path)


def _unnamed(specs, arrays):
    del specs[0]["name"]


def _not_a_record(specs, arrays):
    specs[0] = "encoder.tok_emb"


@pytest.mark.parametrize(
    "edit", [_rename, _transpose_shape, _drop, _add, _repeat, _unnamed, _not_a_record]
)
def test_parameter_mismatch_refused(tmp_path, edit):
    path, _, _, _ = _saved(tmp_path)
    _rewritten(path, edit)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("order", [None, "X", ["F"]], ids=["missing", "X", "list"])
def test_unknown_order_refused(tmp_path, order):
    path, _, _, _ = _saved(tmp_path)

    def reorder(specs, arrays):
        if order is None:
            del specs[0]["order"]
        else:
            specs[0]["order"] = order

    _rewritten(path, reorder)
    with pytest.raises(CheckpointError, match="order"):
        load_checkpoint(path)


def test_lengths_past_the_end_refused_before_allocating(tmp_path):
    path, _, _, _ = _saved(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:8] + struct.pack("<I", len(blob)) + blob[12:])
    with pytest.raises(CheckpointError, match="header runs past the end"):
        load_checkpoint(path)

    def huge(specs, arrays):  # 8 TB of float64
        specs[0]["shape"] = [10**6, 10**6]

    path.write_bytes(blob)
    _rewritten(path, huge)
    with pytest.raises(CheckpointError, match="runs past the end of the file"):
        load_checkpoint(path)


def test_undecodable_vocabulary_refused(tmp_path):
    path, _, _, _ = _saved(tmp_path)
    _write_with_crc(path, path.read_bytes()[:-4] + b"\xff")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_parameters_load_by_name_in_any_order(tmp_path):
    path, params, _, _ = _saved(tmp_path)

    def reverse(specs, arrays):
        specs.reverse()
        arrays.reverse()

    _rewritten(path, reverse)
    loaded, _, _ = load_checkpoint(path)
    for (name, a), (_, b) in zip(params.named_parameters(), loaded.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)


def test_load_draws_no_random_init(tmp_path, monkeypatch):
    path, params, _, _ = _saved(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError("load_checkpoint created a random generator")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    loaded, _, _ = load_checkpoint(path)
    assert len(loaded.named_parameters()) == len(params.named_parameters())


def test_large_matrices_load_column_major_with_the_same_values(tmp_path, monkeypatch):
    # with the threshold at 6^2, the 8-wide matrices are saved as order
    # "F" and the 4-wide not
    monkeypatch.setattr(checkpoint, "_COLUMN_MAJOR_MIN", 36)
    path, params, config, vocab = _saved(tmp_path)
    loaded, _, _ = load_checkpoint(path)
    large = 0
    for (name, a), (_, b) in zip(params.named_parameters(), loaded.named_parameters()):
        np.testing.assert_array_equal(a.data, b.data, err_msg=name)
        if min(b.data.shape) ** 2 >= 36:
            large += 1
            assert b.data.flags.f_contiguous and not b.data.flags.c_contiguous, name
        else:
            assert b.data.flags.c_contiguous, name
    assert 0 < large < len(params.named_parameters())
    resaved = tmp_path / "resaved.gdoc"
    save_checkpoint(loaded, config, vocab, resaved)
    assert resaved.read_bytes() == path.read_bytes()


def test_no_desk_or_long_predict_parameter_reaches_the_column_major_size(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import FULL_SCALE, WORKLOADS, write_corpus

    for name in ("desk-train", "long-predict"):
        workload = WORKLOADS[name]
        config = workload.config(0)
        corpus = tmp_path / f"{name}.jsonl"
        write_corpus(workload, 0, corpus)
        raw = tp.read_raw_dataset(corpus, config.scheme).documents
        vocab = tp.build_vocab(raw, min_freq=config.min_freq, max_size=config.max_vocab)
        params = build_model(config, len(vocab))
        largest = max(t.data.size for _, t in params.named_parameters())
        assert largest < checkpoint._COLUMN_MAJOR_MIN, name
    assert FULL_SCALE["d_h"] ** 2 >= checkpoint._COLUMN_MAJOR_MIN  # Table-3 weights do


def test_full_scale_layout_leaves_the_token_table_row_major(tmp_path, monkeypatch):
    # the saver stores every Table-3 matrix 768 wide or more both ways as
    # order "F", which loads column-major; the token table, which only row
    # gathers read, it stores as "C"
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from workloads import FULL_SCALE

    config = tiny_config(**FULL_SCALE, dtype="float32")
    words = [f"w{i}" for i in range(16_600 - len(tp.RESERVED_TOKENS))]
    vocab = tp.vocab_from_tokens(words)
    params = build_model(config, len(vocab))
    path = tmp_path / "full.gdoc"
    save_checkpoint(params, config, vocab, path)
    loaded, _, _ = load_checkpoint(path)
    column_major = set()
    for (name, built), (_, got) in zip(params.named_parameters(), loaded.named_parameters()):
        np.testing.assert_array_equal(got.data, built.data, err_msg=name)
        if not got.data.flags.c_contiguous:
            assert got.data.flags.f_contiguous, name
            column_major.add(name)
    assert column_major == {
        name for name, t in params.named_parameters() if min(t.shape) >= FULL_SCALE["d_h"]
    }
    assert len(column_major) == 19
    assert "encoder.tok_emb" not in column_major
    assert params.encoder.tok_emb.data.size >= checkpoint._COLUMN_MAJOR_MIN


@pytest.fixture(scope="module")
def saved_blobs(tmp_path_factory):
    """(a path to write to, {column_major: the bytes of a saved checkpoint}).

    With no size threshold at save, every matrix is stored as order "F".
    """
    root = tmp_path_factory.mktemp("fuzz")
    blobs = {}
    for column_major in (False, True):
        threshold = 0 if column_major else checkpoint._COLUMN_MAJOR_MIN
        with mock.patch.object(checkpoint, "_COLUMN_MAJOR_MIN", threshold):
            path, _, _, _ = _saved(root)
        blobs[column_major] = path.read_bytes()
        assert (b'"order": "F"' in blobs[column_major]) == column_major
    return root / "corrupt.gdoc", blobs


@given(data=st.data(), column_major=st.booleans())
@settings(max_examples=200)
def test_any_truncation_or_flipped_byte_is_refused(saved_blobs, data, column_major):
    path, blobs = saved_blobs
    blob = blobs[column_major]
    if data.draw(st.booleans(), label="truncate"):
        corrupt = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        corrupt = bytearray(blob)
        corrupt[data.draw(st.integers(0, len(blob) - 1), label="index")] ^= data.draw(
            st.integers(1, 255), label="mask"
        )
    path.write_bytes(bytes(corrupt))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
