"""Run configuration: desk-scale defaults, full-scale values selectable.

Config files are flat ``key = value`` UTF-8 text with ``#`` comments.
Unknown and repeated keys are rejected so typos fail loudly at load time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import UsageError
from .textpipe import Limits, scheme_n_classes

# The one shared layer makes depth cost time and activations, not
# parameters, so only a cap stops a huge n_layers from running the
# machine out of memory.  The paper uses 12.
MAX_LAYERS = 64


@dataclass
class TrainConfig:
    # data
    scheme: str = "three_way"
    data: str | None = None
    train_data: str | None = None
    dev_data: str | None = None
    test_data: str | None = None
    # optimization (Table-3 full-scale values: batch_size 64, learning_rate 2e-5)
    learning_rate: float = 1e-3
    batch_size: int = 8
    max_epochs: int = 30
    patience: int = 5
    seed: int = 0
    # architecture (full-scale: d_tok 128, d_h 768, d_class_hidden 300)
    d_tok: int = 32
    d_h: int = 64
    n_heads: int = 2
    n_layers: int = 2
    d_class: int = 32
    d_class_hidden: int = 32
    d_g: int = 64
    d_out_hidden: int = 0  # 0 -> max(16, 8 * n_classes)
    # pipeline limits
    max_sentences: int = 50
    max_stream_len: int = 512
    min_freq: int = 2
    max_vocab: int = 20000
    # variant switches (Table-5 ablations)
    use_sentence_class_sim: bool = True
    use_gate: bool = True
    use_document_class_sim: bool = True
    gate_mode: str = "scalar"
    # "sentence": self-attention stays within each sentence, so separator
    # outputs depend on their own sentence alone, and [CLS] is not encoded.
    # "document": full-stream attention (the ALBERT-style arrangement).
    attention_scope: str = "sentence"
    dtype: str = "float32"

    @property
    def n_classes(self):
        return scheme_n_classes(self.scheme)

    def resolved_d_out_hidden(self):
        return self.d_out_hidden if self.d_out_hidden > 0 else max(16, 8 * self.n_classes)

    def limits(self):
        return Limits(
            max_sentences=self.max_sentences, max_stream_len=self.max_stream_len
        )

    def validate(self):
        scheme_n_classes(self.scheme)  # raises on unknown scheme
        if self.gate_mode not in ("scalar", "vector"):
            raise UsageError(f"gate_mode must be scalar or vector, got {self.gate_mode!r}")
        if self.attention_scope not in ("sentence", "document"):
            raise UsageError(
                f"attention_scope must be sentence or document, got {self.attention_scope!r}"
            )
        if self.dtype not in ("float32", "float64"):
            raise UsageError(f"dtype must be float32 or float64, got {self.dtype!r}")
        for name, kind in _KINDS.items():
            if kind == "float" and not math.isfinite(getattr(self, name)):
                raise UsageError(f"{name} must be finite, got {getattr(self, name)}")
        positive = (
            "learning_rate", "batch_size", "max_epochs", "patience",
            "d_tok", "d_h", "n_heads", "n_layers", "d_class", "d_class_hidden",
            "d_g", "max_sentences", "min_freq", "max_vocab",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise UsageError(f"{name} must be positive, got {getattr(self, name)}")
        if self.n_layers > MAX_LAYERS:
            raise UsageError(f"n_layers must be at most {MAX_LAYERS}, got {self.n_layers}")
        if self.seed < 0:  # numpy's generators refuse negative seeds
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if self.d_h % self.n_heads != 0:
            raise UsageError(f"d_h ({self.d_h}) must be divisible by n_heads ({self.n_heads})")
        if self.max_stream_len < 3:
            raise UsageError("max_stream_len must leave room for [CLS] and one [SEP]")
        if self.d_out_hidden < 0:
            raise UsageError("d_out_hidden must be >= 0 (0 selects the default)")
        return self

    @classmethod
    def from_dict(cls, d):
        unknown = set(d) - set(_KINDS)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{k: _typed(k, _KINDS[k], v) for k, v in d.items()}).validate()


_KINDS = {f.name: f.type for f in fields(TrainConfig)}  # declared type of each field


def _typed(name, kind, value):
    """`value` checked against its field's declared type; an int widens to float."""
    if kind.startswith("str"):
        if not (isinstance(value, str) or (value is None and kind == "str | None")):
            raise UsageError(f"{name} must be a string, got {value!r}")
    elif kind == "bool":
        if not isinstance(value, bool):
            raise UsageError(f"{name} must be true or false, got {value!r}")
    elif kind in ("int", "float"):
        fractional = isinstance(value, float) and not value.is_integer()
        if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            kind == "int" and fractional
        ):
            wanted = "an integer" if kind == "int" else "a number"
            raise UsageError(f"{name} must be {wanted}, got {value!r}")
        return int(value) if kind == "int" else float(value)
    return value


_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False}


def _parse_value(kind, raw):
    """A config-file value converted by its field's type; a value that does
    not convert stays a string, for `_typed` to reject."""
    if kind == "bool":
        return _BOOL_WORDS.get(raw.lower(), raw)
    if kind in ("int", "float"):
        for convert in (int, float):
            try:
                return convert(raw)
            except ValueError:
                pass
    return raw


def parse_config_text(text):
    values, first_lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"config line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if not key or not raw:
            raise UsageError(f"config line {lineno}: empty key or value")
        first = first_lines.setdefault(key, lineno)
        if first != lineno:
            raise UsageError(f"config line {lineno}: {key!r} given twice, first on line {first}")
        values[key] = _parse_value(_KINDS.get(key), raw)
    return values


def load_config(path):
    """Read a ``key = value`` config file into a validated TrainConfig."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading BOM is dropped
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    return TrainConfig.from_dict(parse_config_text(text))
