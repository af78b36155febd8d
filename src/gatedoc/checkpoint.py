"""Binary checkpoint persistence.

Layout: magic ``GDOC``, version u32, header-length u32, a UTF-8 JSON
header (config snapshot, parameter names and shapes), the parameter
arrays as little-endian ``config.dtype`` in header order, the
vocabulary (one non-reserved token per line), then a CRC32 of every
byte before it.  A checksum, name or shape mismatch refuses to load.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

from .config import TrainConfig
from .errors import CheckpointError
from .model import build_model
from .textpipe import RESERVED_TOKENS, vocab_from_tokens

MAGIC = b"GDOC"
VERSION = 2
_PREAMBLE = struct.Struct("<4sII")  # magic, version, header length
_CRC = struct.Struct("<I")


def _array_dtype(config):
    return np.dtype(config.dtype).newbyteorder("<")


def save_checkpoint(params, config, vocab, path):
    """Write model + config + vocab; atomic via temp file and rename."""
    named = params.named_parameters()
    dtype = _array_dtype(config)
    header = {
        "config": config.to_dict(),
        "params": [{"name": name, "shape": list(t.data.shape)} for name, t in named],
    }
    hb = json.dumps(header, sort_keys=True).encode("utf-8")
    pieces = [_PREAMBLE.pack(MAGIC, VERSION, len(hb)), hb]
    pieces += [np.ascontiguousarray(t.data, dtype=dtype) for _, t in named]
    pieces.append("\n".join(vocab.id_to_token[len(RESERVED_TOKENS) :]).encode("utf-8"))

    tmp = f"{path}.tmp"
    crc = 0
    with open(tmp, "wb") as fh:
        for piece in pieces:
            fh.write(piece)
            crc = zlib.crc32(piece, crc)
        fh.write(_CRC.pack(crc))
    os.replace(tmp, path)


def load_checkpoint(path):
    """Load (ModelParams, TrainConfig, Vocab); refuse corrupt files."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot open checkpoint {path}: {exc}") from exc
    if len(blob) < _PREAMBLE.size + _CRC.size:
        raise CheckpointError(f"truncated checkpoint: only {len(blob)} bytes")
    magic, version, header_len = _PREAMBLE.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointError(f"bad magic bytes {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    body = memoryview(blob)[: -_CRC.size]
    (crc_stored,) = _CRC.unpack_from(blob, len(body))
    if zlib.crc32(body) != crc_stored:
        raise CheckpointError("checksum mismatch: checkpoint is truncated or corrupt")
    offset = _PREAMBLE.size + header_len
    try:
        header = json.loads(bytes(body[_PREAMBLE.size : offset]))
        config = TrainConfig.from_dict(header["config"])
        specs = header["params"]
    except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc

    dtype = _array_dtype(config)
    arrays = []
    for spec in specs:
        count = int(np.prod(spec["shape"], dtype=np.int64))
        if offset + count * dtype.itemsize > len(body):
            raise CheckpointError(f"parameter {spec['name']!r} runs past the end of the file")
        arrays.append(np.frombuffer(body, dtype=dtype, count=count, offset=offset))
        offset += count * dtype.itemsize
    tokens = bytes(body[offset:]).decode("utf-8").split("\n")
    vocab = vocab_from_tokens([t for t in tokens if t])

    params = build_model(config, vocab_size=len(vocab))
    named = params.named_parameters()
    if [name for name, _ in named] != [spec["name"] for spec in specs]:
        raise CheckpointError("checkpoint parameter names do not match the config")
    for (name, tensor), spec, arr in zip(named, specs, arrays):
        shape = tuple(spec["shape"])
        if shape != tensor.data.shape:
            raise CheckpointError(
                f"parameter {name!r}: stored shape {shape} != expected {tensor.data.shape}"
            )
        # frombuffer views are read-only; force a writable copy
        tensor.data = np.array(arr.reshape(shape), dtype=np.dtype(config.dtype))
    return params, config, vocab
