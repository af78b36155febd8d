"""Document-level sentiment classification with learned per-sentence
importance gates: a from-scratch autodiff engine, a parameter-shared
transformer sentence encoder, a gated GRU document encoder with
dot-product attention, and the training/analysis tooling around them.
"""

from . import autodiff
from .analysis import ScoreDiffHistogram, StddevReport, error_histogram, explain, stddev_report
from .autodiff import (
    OptimizerState,
    Tensor,
    adam_step,
    backward,
    bce_loss,
    grad_check,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig, load_config
from .document import (
    GateParams,
    GruCellParams,
    decode_document,
    encode_sequence,
    gate,
)
from .encoder import (
    ClassSimilarity,
    EncoderParams,
    class_similarity,
    transformer_encode,
)
from .errors import (
    CheckpointError,
    DataError,
    DimensionError,
    GatedocError,
    GradCheckError,
    TrainingError,
    UsageError,
)
from .heatmap import render_heatmap
from .model import ModelParams, Prediction, build_model, forward, predict
from .stats import welch_ttest
from .textpipe import (
    Limits,
    RawDocument,
    TokenizedDocument,
    Vocab,
    assemble_document,
    bucket_label,
    build_vocab,
    load_dataset,
    segment_sentences,
    tokenize,
)
from .training import ablation_run, evaluate, train

__version__ = "0.1.0"
