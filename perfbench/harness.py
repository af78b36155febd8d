"""Runs one workload end to end and computes its metrics.

A run: write the seeded corpus; set up (read_raw_dataset -> build_vocab
-> prepare_document) several times and keep the median; pass the float64
oracle gate; then repeat rounds until the time budget is spent.  A round
is what a user of the CLI does: `training.train`, `save_checkpoint`,
`load_checkpoint`, then `model.predict` on every held-out document.
Every round repeats the same seeded work, so its training history and
predictions must be bit-identical to the first round's.
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import resource
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gatedoc import checkpoint, model, textpipe, training
from gatedoc.errors import GatedocError

import oraclegate
from stagetrace import StageTrace
from workloads import write_corpus

SETUP_REPEATS = 3
GATE_DOCS = 3
# a document's latency is its median over at least this many rounds, so
# that a burst of machine noise does not land in the tail percentiles
MIN_ROUNDS = 3


@dataclass
class Splits:
    vocab: textpipe.Vocab
    train: list
    dev: list
    predict: list


@dataclass
class RoundResult:
    train_docs_per_s: float
    predict_docs_per_s: float
    latencies_s: list  # per predict document; nan where it failed
    history: list
    probs: list
    test_accuracy: float
    cpu_per_wall: float


@dataclass
class Accounting:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def load_splits(workload, config, corpus_path):
    """The real loading path; the vocabulary covers the whole corpus file."""
    raw = textpipe.read_raw_dataset(corpus_path, config.scheme).documents
    vocab = textpipe.build_vocab(raw, min_freq=config.min_freq, max_size=config.max_vocab)
    n_tr, n_dev, n_pr = workload.n_train, workload.n_dev, workload.n_predict
    docs = [
        textpipe.prepare_document(r, config.scheme, vocab, config.limits())
        for r in raw[: n_tr + n_dev + n_pr]
    ]
    return Splits(vocab, docs[:n_tr], docs[n_tr : n_tr + n_dev], docs[n_tr + n_dev :])


def run_round(workload, config, splits, ckpt_path, acct):
    """One train -> save -> load -> predict round; None if training failed."""
    n_steps = workload.n_train * workload.epochs
    acct.attempted += n_steps
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        result = training.train(splits.train, splits.dev, config, len(splits.vocab))
    except GatedocError as exc:
        acct.failed += n_steps
        acct.problems.append(f"train: {exc}")
        return None
    train_s = time.perf_counter() - wall0
    checkpoint.save_checkpoint(result.params, config, splits.vocab, ckpt_path)

    p0 = time.perf_counter()
    params, _, _ = checkpoint.load_checkpoint(ckpt_path)
    latencies, probs, hits = [], [], 0
    for doc in splits.predict:
        acct.attempted += 1
        latencies.append(math.nan)
        t0 = time.perf_counter()
        try:
            pred = model.predict(doc, params)
        except GatedocError as exc:
            acct.failed += 1
            acct.problems.append(f"predict {doc.id}: {exc}")
            continue
        latencies[-1] = time.perf_counter() - t0
        p = np.asarray(pred.probs)
        if not np.isfinite(p).all():
            acct.failed += 1
            acct.problems.append(f"predict {doc.id}: non-finite probability")
            continue
        probs.append(p)
        hits += int(np.argmax(p)) == doc.label
    predict_s = time.perf_counter() - p0
    cpu_per_wall = (time.process_time() - cpu0) / (time.perf_counter() - wall0)

    for (name, trained), (_, loaded) in zip(
        result.params.named_parameters(), params.named_parameters()
    ):
        if not np.array_equal(trained.data, loaded.data):
            acct.problems.append(f"checkpoint round trip changed {name}")
    return RoundResult(
        train_docs_per_s=n_steps / train_s,
        predict_docs_per_s=len(splits.predict) / predict_s,
        latencies_s=latencies,
        history=result.history,
        probs=probs,
        test_accuracy=hits / len(splits.predict),
        cpu_per_wall=cpu_per_wall,
    )


def check_outputs(rounds, acct):
    """Probabilities in [0, 1]; every round repeats the first bit for bit."""
    first = rounds[0]
    for p in first.probs:
        if not ((p >= 0.0) & (p <= 1.0)).all():
            acct.problems.append("probability outside [0, 1]")
            break
    for r in rounds[1:]:
        if r.history != first.history:
            acct.problems.append("training history differs between identical rounds")
        if len(r.probs) != len(first.probs) or any(
            not np.array_equal(a, b) for a, b in zip(r.probs, first.probs)
        ):
            acct.problems.append("predictions differ between identical rounds")


def environment(workload, vocab_size):
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": workload.threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "vocab_size": vocab_size,
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed, seconds, trace, root):
    """Run one workload; returns (details, result) as JSON-ready dicts."""
    config = workload.config(seed)
    tracer = StageTrace() if trace else None
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as work:
        corpus_path = Path(work) / "corpus.jsonl"
        ckpt_path = Path(work) / "model.gdoc"
        write_corpus(workload, seed, corpus_path)

        def set_up():
            t0 = time.perf_counter()
            with tracer if trace else contextlib.nullcontext():
                splits = load_splits(workload, config, corpus_path)
            setup_s.append(time.perf_counter() - t0)
            return splits

        # more set-ups follow each round, so that the median samples the
        # machine's speed over the whole run, as the other metrics do
        setup_s = []
        for _ in range(SETUP_REPEATS):
            splits = set_up()

        gate_error = oraclegate.check(
            config, len(splits.vocab), splits.predict[:GATE_DOCS], root
        )

        acct = Accounting()
        rounds, traced_rounds = [], []
        # a traced run alternates untraced and traced rounds, which gives
        # the tracing overhead; the untraced rounds give cpu_per_wall
        min_rounds = 2 if trace else MIN_ROUNDS
        start = time.perf_counter()
        while True:
            tracing = trace and len(rounds) > len(traced_rounds)
            with tracer if tracing else contextlib.nullcontext():
                r = run_round(workload, config, splits, ckpt_path, acct)
            if r is None:
                break
            (traced_rounds if tracing else rounds).append(r)
            set_up()
            done = len(rounds) + len(traced_rounds)
            elapsed = time.perf_counter() - start
            # start no round that would end past the time budget
            if done >= min_rounds and elapsed * (done + 1) / done > seconds:
                break

    all_rounds = rounds + traced_rounds
    if not rounds:
        raise RuntimeError("no round completed: " + "; ".join(acct.problems))
    check_outputs(all_rounds, acct)
    final_loss = rounds[0].history[-1]["train_loss"]
    details = {
        "workload": workload.name,
        "seed": seed,
        "rounds": len(all_rounds),
        "oracle_max_abs_error": gate_error,
        "final_train_loss": final_loss,
        "test_accuracy": rounds[0].test_accuracy,
        "problems": acct.problems,
        "environment": environment(workload, len(splits.vocab)),
    }
    if trace:
        metrics = tracer.metrics()
        untraced = statistics.median(r.train_docs_per_s for r in rounds)
        traced_rate = statistics.median(r.train_docs_per_s for r in traced_rounds)
        metrics["trace.overhead_pct"] = (100.0 * (untraced / traced_rate - 1.0), "%")
        metrics["process.cpu_per_wall"] = (
            statistics.median(r.cpu_per_wall for r in rounds), "ratio"
        )
    else:
        per_doc = np.array([r.latencies_s for r in rounds])
        ok = ~np.isnan(per_doc).all(axis=0)
        latencies_ms = 1e3 * np.nanmedian(per_doc[:, ok], axis=0)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "train_docs_per_s": (statistics.median(r.train_docs_per_s for r in rounds), "1/s"),
            "predict_docs_per_s": (
                statistics.median(r.predict_docs_per_s for r in rounds), "1/s"
            ),
            "predict_ms_p50": (float(np.percentile(latencies_ms, 50)), "ms"),
            "predict_ms_p90": (float(np.percentile(latencies_ms, 90)), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    result = {
        "correct": not acct.problems,
        "attempted": acct.attempted,
        "failed": acct.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return details, result
