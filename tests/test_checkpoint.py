import struct

import numpy as np
import pytest

from gatedoc import textpipe as tp
from gatedoc.checkpoint import VERSION, load_checkpoint, save_checkpoint
from gatedoc.errors import CheckpointError
from gatedoc.model import build_model

from conftest import randomize_params, tiny_config

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
    for keep in (3, 20, len(blob) // 2, len(blob) - 1):
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


def test_missing_file_refused(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "absent.gdoc")
