"""Command-line interface.

Subcommands: train, eval, predict, explain, ablate, analyze, gradcheck.
Each writes its results to --out: train as JSON lines of per-epoch
metrics, explain as an HTML heatmap (its JSON profile goes to --report),
every other command as JSON.  Exit codes: 0 success, 1 usage error,
2 data error, 3 internal fault.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict

import numpy as np

from . import autodiff as ad
from .analysis import error_histogram, explain, stddev_report
from .checkpoint import load_checkpoint, save_checkpoint, write_atomic
from .config import TrainConfig, load_config
from .errors import DataError, GatedocError, UsageError
from .heatmap import render_heatmap
from .model import build_model, forward, one_hot, predict_all
from .textpipe import (
    assemble_document,
    build_vocab,
    load_dataset,
    prepare_documents,
    read_raw_dataset,
    shuffle_split,
)
from .training import MAX_SEEDS, ablation_run, evaluate, require_labels, train

GRADCHECK_THRESHOLD = 1e-4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route through our codes
        raise UsageError(f"{message}\n{self.format_usage()}")


def _write_json(obj, path):
    _write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", path)


def _write_text(text, path):
    write_atomic([text.encode("utf-8")], path)


def _load_config(args):
    config = load_config(args.config)
    if args.seed is not None:
        config.seed = args.seed
    return config.validate()


def _prepare_splits(config):
    """Raw corpus -> (train, dev, test) tokenized docs + vocab built on train;
    a data key the run would ignore is refused before any file is read."""
    given = [k for k in ("data", "train_data", "dev_data", "test_data") if getattr(config, k)]
    if given not in (["data"], ["train_data", "dev_data", "test_data"]):
        raise UsageError(f"config needs data or train_data, dev_data and test_data, not {given}")
    read = [read_raw_dataset(getattr(config, k), config.scheme).documents for k in given]
    train_raw, dev_raw, test_raw = shuffle_split(read[0], config.seed) if config.data else read
    if not train_raw or not dev_raw or not test_raw:
        raise DataError("one of the train/dev/test splits is empty")
    vocab = build_vocab(train_raw, min_freq=config.min_freq, max_size=config.max_vocab)
    splits = [
        prepare_documents(
            raws, config.scheme, vocab, config.limits(), f"{name} split"
        ).documents
        for raws, name in ((train_raw, "train"), (dev_raw, "dev"), (test_raw, "test"))
    ]
    require_labels(doc for split in splits for doc in split)  # before any training
    return (*splits, vocab)


def cmd_train(args):
    config = _load_config(args)
    train_docs, dev_docs, test_docs, vocab = _prepare_splits(config)
    result = train(train_docs, dev_docs, config, vocab_size=len(vocab))
    if args.out:
        lines = (json.dumps(entry, sort_keys=True) + "\n" for entry in result.history)
        _write_text("".join(lines), args.out)
    if args.checkpoint:
        save_checkpoint(result.params, config, vocab, args.checkpoint)
    test = evaluate(result.params, test_docs)
    print(
        f"best dev accuracy {result.best_dev_accuracy:.4f} (epoch {result.best_epoch}); "
        f"test accuracy {test.accuracy:.4f}"
    )
    return 0


def cmd_eval(args):
    params, config, vocab = load_checkpoint(args.checkpoint)
    data = load_dataset(args.data, config.scheme, vocab, config.limits())
    result = evaluate(params, data.documents)
    payload = {
        "accuracy": result.accuracy,
        "correct": result.correct,
        "total": result.total,
        "skipped": data.skipped,
    }
    if args.out:
        _write_json(payload, args.out)
    print(f"accuracy {result.accuracy:.4f} ({result.correct}/{result.total})")
    return 0


def cmd_predict(args):
    params, config, vocab = load_checkpoint(args.checkpoint)
    if args.text is not None:
        preds = [explain(params, config, vocab, args.text)[0]]
    else:
        data = load_dataset(args.data, config.scheme, vocab, config.limits())
        preds = predict_all(data.documents, params)
    if args.out:
        _write_json({"predictions": [asdict(pred) for pred in preds]}, args.out)
    for pred in preds:
        print(f"{pred.id}: class {pred.predicted}")
    return 0


def cmd_explain(args):
    params, config, vocab = load_checkpoint(args.checkpoint)
    pred, sentences = explain(params, config, vocab, args.text)
    if args.out:
        _write_text(render_heatmap(pred, [text for text, _ in sentences]), args.out)
    if args.report:
        _write_json(
            {
                "prediction": asdict(pred),
                "sentences": [
                    {"text": text, "span": list(span), "gate_score": score}
                    for (text, span), score in zip(sentences, pred.gate_scores)
                ],
            },
            args.report,
        )
    print(f"predicted class {pred.predicted}; {len(pred.gate_scores)} sentences")
    return 0


def cmd_ablate(args):
    if not 1 <= args.seeds <= MAX_SEEDS:  # refused before any data is read
        raise UsageError(f"--seeds must be 1 to {MAX_SEEDS}, got {args.seeds}")
    config = _load_config(args)
    train_docs, dev_docs, test_docs, vocab = _prepare_splits(config)
    seeds = [config.seed + i for i in range(args.seeds)]
    rows = ablation_run(
        config, train_docs, dev_docs, test_docs, vocab_size=len(vocab), seeds=seeds
    )
    if args.out:
        _write_json({"rows": [asdict(r) for r in rows]}, args.out)
    width = max(len(r.label) for r in rows)
    for row in rows:
        extra = "" if row.p_value_vs_full is None else f"  p={row.p_value_vs_full:.5g}"
        print(
            f"{row.label:<{width}}  test {row.test_accuracy:.4f} "
            f"(dev {row.dev_accuracy:.4f}){extra}"
        )
    if args.seeds >= 2:
        print(
            f"p: exact paired sign-flip test over {args.seeds} seeds; "
            f"the smallest p it can give is 2/2^{args.seeds} = {2 / 2 ** args.seeds:g}"
        )
    return 0


def cmd_analyze(args):
    params, config, vocab = load_checkpoint(args.checkpoint)
    if not params.use_gate:
        raise UsageError("analyze requires a model trained with the gate enabled")
    data = load_dataset(args.data, config.scheme, vocab, config.limits())
    result = evaluate(params, data.documents)
    report = stddev_report(result.predictions)
    hist = error_histogram(result.predictions)
    payload = {
        "accuracy": result.accuracy,
        "stddev_report": asdict(report),
        # sort_keys sorts the int keys numerically: for distances <= 9, their string order
        "score_diff_histogram": asdict(hist),
    }
    if args.out:
        _write_json(payload, args.out)
    print(
        f"accuracy {result.accuracy:.4f}; "
        f"stddev > 0.2 in {report.fraction_over_0_2:.1%} of {report.n_documents} documents; "
        f"{hist.n_wrong} wrong predictions"
    )
    return 0


def cmd_gradcheck(args):
    """End-to-end check of a tiny 64-bit model on a 2-sentence document."""
    config = TrainConfig(
        scheme="three_way",
        d_tok=4, d_h=4, n_heads=1, n_layers=1,
        d_class=3, d_class_hidden=3, d_g=4, d_out_hidden=4,
        max_sentences=8, max_stream_len=32, dtype="float64",
        seed=args.seed if args.seed is not None else 0,
    ).validate()
    rng = np.random.default_rng(config.seed)
    vocab_size = 16
    params = build_model(config, vocab_size=vocab_size, rng=rng)
    # check away from init, whose zero biases leave dead ReLU units exactly
    # on the kink, where the two one-sided derivatives disagree
    for _, t in params.named_parameters():
        t.data = rng.uniform(-0.5, 0.5, size=t.data.shape)
    body = [int(t) for t in rng.integers(5, vocab_size, size=4)]
    doc = assemble_document(
        [body[:2], body[2:]], [(0, 1), (1, 2)], config.limits(),
        doc_id="gradcheck", label=2, n_classes=config.n_classes,
    )
    target = one_hot(doc.label, config.n_classes, np.float64)

    def f():
        return ad.bce_loss(forward(doc, params).probs, target)

    # h = 1e-3 is near the fourth-order stencil's optimal step, eps_mach^(1/5);
    # at 1e-4 roundoff on the smallest attention-weight gradients nears the threshold
    worst, (name, index, analytic, numeric) = ad.grad_check(
        f, [t for _, t in params.named_parameters()], eps=1e-3
    )
    payload = {
        "max_relative_error": worst,
        "threshold": GRADCHECK_THRESHOLD,
        "worst": {"parameter": name, "index": index, "analytic": analytic, "numeric": numeric},
    }
    if args.out:
        _write_json(payload, args.out)
    print(
        f"max relative error: {worst:.3e} at {name}[{index}] "
        f"(analytic {analytic:.6e}, numeric {numeric:.6e})"
    )
    if worst < GRADCHECK_THRESHOLD:
        return 0
    print("gradient check FAILED", file=sys.stderr)
    return 3


def build_parser():
    parser = _Parser(prog="gatedoc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, out="write results (JSON) here", seed=False, config=False,
               checkpoint=False, data=False, text=False):
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help=out)
        if config:
            p.add_argument("--config", required=True, help="key = value config file")
        if checkpoint:
            p.add_argument("--checkpoint", required=True, help="checkpoint path")
        # predict takes exactly one source; a group refuses required members
        source = p.add_mutually_exclusive_group(required=True) if data and text else p
        if data:
            source.add_argument("--data", required=source is p, help="JSON-lines dataset path")
        if text:
            source.add_argument("--text", required=source is p, help="raw document text")

    p = sub.add_parser("train", help="train a model from a config")
    common(p, out="write per-epoch metrics (JSON lines) here", seed=True, config=True)
    p.add_argument("--checkpoint", default=None, help="checkpoint path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="accuracy of a checkpoint on a dataset")
    common(p, checkpoint=True, data=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="classify raw text or a dataset")
    common(p, checkpoint=True, data=True, text=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("explain", help="render a sentence-importance heatmap")
    common(p, out="write the heatmap (HTML) here", checkpoint=True, text=True)
    p.add_argument("--report", default=None, help="also write the profile as JSON here")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("ablate", help="train the full model and its three ablations")
    common(p, seed=True, config=True)
    p.add_argument(
        "--seeds", type=int, default=1,
        help=f"seeds per variant, 1 to {MAX_SEEDS}; 2 or more add exact paired sign-flip "
        "p-values, and p < 0.05 needs at least 6",
    )
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("analyze", help="stddev report and error histogram on a dataset")
    common(p, checkpoint=True, data=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("gradcheck", help="end-to-end finite-difference gradient check")
    common(p, seed=True)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except GatedocError as exc:
        print(f"internal fault: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a fault in the program itself, not in its input
        sys.excepthook(type(exc), exc, exc.__traceback__)  # the traceback, for a bug report
        print(f"internal fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
