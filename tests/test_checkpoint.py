import errno
import json
import struct
import zlib

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


def test_failed_save_leaves_no_file_behind(tmp_path, monkeypatch):
    class FullDisk:  # the checksum is the last write
        def pack(self, crc):
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("gatedoc.checkpoint._CRC", FullDisk())
    with pytest.raises(OSError, match="No space left"):
        _saved(tmp_path)
    assert list(tmp_path.iterdir()) == []


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
    specs.append({"name": "head.extra", "shape": [1, 2]})
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
