"""Binary checkpoint persistence.

Layout: magic ``GDOC``, version u32, header-length u32, a UTF-8 JSON
header (config snapshot; each parameter's name, shape and order), the
parameter arrays as little-endian ``config.dtype`` in header order, the
vocabulary (one non-reserved token per line), then a CRC32 of every
byte before it.  An array of order ``"C"`` is stored row-major.  One of
order ``"F"`` is stored as the row-major bytes of its transpose, so it
is read with one `readinto` in that shape and held column-major as the
`.T` view.  The file describes itself: the loader applies no layout rule.

Loading draws no random init: the stored arrays, keyed by name, go to
`build_model(stored=...)`.  A checksum mismatch, a parameter the file
lacks or stores in another shape or an unknown order, and a stored
array the config does not build all refuse to load.

The saver gives order ``"F"`` to a matrix whose narrower dimension,
squared, reaches `_COLUMN_MAJOR_MIN` (2^19).  `autodiff` multiplies
such a weight as OpenBLAS's left operand, which for the few rows of one
document (the last layer's [SEP] rows, the document GRU) takes 0.5-0.9x
the time at d_h = 768 (2 cores, 1 or 2 BLAS threads).  For a matrix of
512 x 512 or fewer elements the layout gains nothing reliable (0.6x to
2.3x the time, by shape and rows), so only Table-3-scale weights, 768
wide or more both ways, reach the rule.  The token table (vocabulary x
d_tok, 128 wide at full scale) does not: only row gathers read it, and a
110-row gather from it column-major takes about 5x the time.  A built
model stays row-major: training's products of hundreds of rows gain
nothing from the layout, and the copies would slow `build_model`.  So
saving a built model pays one transposing copy per order-"F" matrix,
and resaving a loaded one pays none.
"""

from __future__ import annotations

import contextlib
import itertools
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
VERSION = 3
_PREAMBLE = struct.Struct("<4sII")  # magic, version, header length
_CRC = struct.Struct("<I")
_COLUMN_MAJOR_MIN = 1 << 19  # the saver stores a matrix as order "F" from min(shape)^2 this large


def _array_dtype(config):
    return np.dtype(config.dtype).newbyteorder("<")


def write_atomic(pieces, path):
    """Write the byte pieces to `path` whole or not at all: they go to a
    temp file that replaces `path` only once written, and that is removed
    if anything raises."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _with_crc(pieces):
    crc = 0
    for piece in pieces:
        crc = zlib.crc32(piece, crc)
        yield piece
    yield _CRC.pack(crc)


def save_checkpoint(params, config, vocab, path):
    """Write model + config + vocab through `write_atomic`."""
    dtype = _array_dtype(config)
    specs, views = [], []
    for name, t in params.named_parameters():
        a = t.data
        order = "F" if a.ndim == 2 and min(a.shape) ** 2 >= _COLUMN_MAJOR_MIN else "C"
        specs.append({"name": name, "order": order, "shape": list(a.shape)})
        views.append(a.T if order == "F" else a)
    hb = json.dumps({"config": asdict(config), "params": specs}, sort_keys=True).encode("utf-8")
    head = [_PREAMBLE.pack(MAGIC, VERSION, len(hb)), hb]
    arrays = (np.ascontiguousarray(v, dtype=dtype) for v in views)  # each made as it is written
    vocab_bytes = "\n".join(vocab.id_to_token[len(RESERVED_TOKENS) :]).encode("utf-8")
    write_atomic(_with_crc(itertools.chain(head, arrays, [vocab_bytes])), path)


def _read_array(fh, shape, order, dtype, crc):
    """The next stored array, and the CRC summed over its bytes: one
    `readinto`, in the transposed shape for order "F"."""
    transposed = order == "F"
    arr = np.empty(shape[::-1] if transposed else shape, dtype)
    fh.readinto(arr)
    return (arr.T if transposed else arr), zlib.crc32(arr, crc)


def load_checkpoint(path):
    """Load (ModelParams, TrainConfig, Vocab); refuse corrupt files.

    Each stored array is read straight into the array its parameter takes
    over (an order-"F" matrix, into its transpose, whose `.T` view is
    held), and the CRC is summed piece by piece, so the file is never
    held in memory whole.  Each length is checked against the file size
    before anything is allocated for it.
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
                name, shape, order = spec["name"], tuple(spec["shape"]), spec["order"]
                if order not in ("C", "F"):
                    raise CheckpointError(f"parameter {name!r} has order {order!r}, not C or F")
                offset += math.prod(shape) * dtype.itemsize
                if offset > end:
                    raise CheckpointError(f"parameter {name!r} runs past the end of the file")
                stored[name], crc = _read_array(fh, shape, order, dtype, crc)
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
