"""Binary checkpoint persistence.

Layout: magic ``GDOC``, version u32, header-length u32, a UTF-8 JSON
header (config snapshot, parameter names and shapes), the parameter
arrays as little-endian ``config.dtype`` in header order, the
vocabulary (one non-reserved token per line), then a CRC32 of every
byte before it.

Loading draws no random init: the stored arrays, keyed by name, go to
`build_model(stored=...)`.  A checksum mismatch, a parameter the file
lacks or stores in another shape, and a stored array the config does
not build all refuse to load.

A loaded matrix of at least `_COLUMN_MAJOR_MIN` (2^19) elements is held
column-major, made by one transposing copy as it is read (`_read_array`);
the file's bytes stay row-major.  `autodiff` multiplies such a weight as
OpenBLAS's left operand, which for the few rows of one document (the
last layer's [SEP] rows, the document GRU) takes 0.5-0.9x the time at
d_h = 768 (2 cores, 1 or 2 BLAS threads).  For a matrix of 512 x 512 or
fewer elements the layout gains nothing reliable (0.6x to 2.3x the
time, by shape and rows), so only Table-3-scale weights reach the size,
and the token table, which only row gathers read.  A built model stays
row-major: training's products of hundreds of rows gain nothing from
the layout, and the copies would slow `build_model`.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import zlib
from dataclasses import asdict

import numpy as np

from .config import TrainConfig
from .errors import CheckpointError, UsageError
from .model import build_model
from .textpipe import RESERVED_TOKENS, vocab_from_tokens

MAGIC = b"GDOC"
VERSION = 2
_PREAMBLE = struct.Struct("<4sII")  # magic, version, header length
_CRC = struct.Struct("<I")
_COLUMN_MAJOR_MIN = 1 << 19  # elements from which a loaded matrix is held column-major
_BAND_ROWS = 256  # rows of a large matrix read and transposed at a time


def _array_dtype(config):
    return np.dtype(config.dtype).newbyteorder("<")


def save_checkpoint(params, config, vocab, path):
    """Write model + config + vocab; atomic via temp file and rename."""
    named = params.named_parameters()
    dtype = _array_dtype(config)
    header = {
        "config": asdict(config),
        "params": [{"name": name, "shape": list(t.data.shape)} for name, t in named],
    }
    hb = json.dumps(header, sort_keys=True).encode("utf-8")
    pieces = [_PREAMBLE.pack(MAGIC, VERSION, len(hb)), hb]
    pieces += [np.ascontiguousarray(t.data, dtype=dtype) for _, t in named]
    pieces.append("\n".join(vocab.id_to_token[len(RESERVED_TOKENS) :]).encode("utf-8"))

    tmp = f"{path}.tmp"
    crc = 0
    try:
        with open(tmp, "wb") as fh:
            for piece in pieces:
                fh.write(piece)
                crc = zlib.crc32(piece, crc)
            fh.write(_CRC.pack(crc))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _read_array(fh, shape, dtype, crc):
    """The next stored array of `shape`, and the CRC summed over its bytes.

    A large matrix goes column-major through a buffer of `_BAND_ROWS`
    rows: copied band by band, the transpose takes about a third of the
    time of one `np.asfortranarray` of the whole matrix.
    """
    if len(shape) != 2 or math.prod(shape) < _COLUMN_MAJOR_MIN:
        arr = np.empty(shape, dtype)
        fh.readinto(arr)
        return arr, zlib.crc32(arr, crc)
    arr = np.empty(shape, dtype, order="F")
    band = np.empty((min(_BAND_ROWS, shape[0]), shape[1]), dtype)  # never larger than arr
    for start in range(0, shape[0], _BAND_ROWS):
        rows = band[: shape[0] - start]
        fh.readinto(rows)
        crc = zlib.crc32(rows, crc)
        arr[start : start + _BAND_ROWS] = rows
    return arr, crc


def load_checkpoint(path):
    """Load (ModelParams, TrainConfig, Vocab); refuse corrupt files.

    Each stored array is read straight into the array its parameter takes
    over (a large matrix, in bands that are copied column-major), and the
    CRC is summed piece by piece, so the file is never held in memory
    whole.  Each length is checked against the file size before
    anything is allocated for it.
    """
    stored = {}
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < _PREAMBLE.size + _CRC.size:
                raise CheckpointError(f"truncated checkpoint: only {size} bytes")
            preamble = fh.read(_PREAMBLE.size)
            magic, version, header_len = _PREAMBLE.unpack(preamble)
            if magic != MAGIC:
                raise CheckpointError(f"bad magic bytes {magic!r}, expected {MAGIC!r}")
            if version != VERSION:
                raise CheckpointError(f"unsupported checkpoint version {version}")
            offset, end = _PREAMBLE.size + header_len, size - _CRC.size
            if offset > end:
                raise CheckpointError("truncated checkpoint: the header runs past the end")
            header_bytes = fh.read(header_len)
            crc = zlib.crc32(header_bytes, zlib.crc32(preamble))
            header = json.loads(header_bytes)
            config = TrainConfig.from_dict(header["config"])
            dtype = _array_dtype(config)
            for spec in header["params"]:
                name, shape = spec["name"], tuple(spec["shape"])
                offset += math.prod(shape) * dtype.itemsize
                if offset > end:
                    raise CheckpointError(f"parameter {name!r} runs past the end of the file")
                stored[name], crc = _read_array(fh, shape, dtype, crc)
            vocab_bytes, crc_bytes = fh.read(end - offset), fh.read()
        if zlib.crc32(vocab_bytes, crc) != _CRC.unpack(crc_bytes)[0]:
            raise CheckpointError("checksum mismatch: checkpoint is truncated or corrupt")
        tokens = vocab_bytes.decode("utf-8").split("\n")
    except OSError as exc:
        raise CheckpointError(f"cannot open checkpoint {path}: {exc}") from exc
    # ValueError covers bad JSON, shapes and UTF-8; UsageError, a config that does not validate
    except (KeyError, TypeError, ValueError, UsageError) as exc:
        raise CheckpointError(f"unreadable checkpoint: {exc}") from exc
    if len(stored) != len(header["params"]):
        raise CheckpointError("checkpoint stores a parameter name twice")
    vocab = vocab_from_tokens([t for t in tokens if t])

    params = build_model(config, vocab_size=len(vocab), stored=stored)
    if stored:
        raise CheckpointError(f"checkpoint parameters the config does not build: {sorted(stored)}")
    return params, config, vocab
