"""Exit-code contract: 0 ok, 1 usage, 2 data, 3 internal."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gatedoc.cli
import gatedoc.model
import gatedoc.training
from gatedoc import autodiff as ad
from gatedoc import synthetic
from gatedoc.cli import main

from conftest import JSONL_LINES, skewed_backward


def _corpus(tmp_path, n_docs=40):
    path = tmp_path / "corpus.jsonl"
    synthetic.write_corpus(synthetic.generate_key_sentence_corpus(n_docs, seed=0), path)
    return path


def _config(tmp_path, data, **values):
    base = dict(
        data=data, d_tok=4, d_h=8, n_heads=2, n_layers=1, d_class=3,
        d_class_hidden=4, d_g=6, max_epochs=1, batch_size=4,
    )
    base.update(values)
    path = tmp_path / "run.cfg"
    lines = (f"{k} = {v}\n" for k, v in base.items() if v is not None)  # None: key left out
    path.write_text("".join(lines), encoding="utf-8")
    return path


def test_no_command_is_usage_error():
    assert main([]) == 1


def test_train_without_config_is_usage_error():
    assert main(["train"]) == 1


@pytest.mark.parametrize("command, source", [
    ("eval", "--data"), ("predict", "--data"), ("explain", "--text"), ("analyze", "--data"),
])
def test_seed_is_refused_where_nothing_is_drawn(tmp_path, command, source):
    # refused while parsing: the missing checkpoint would otherwise be a data error (2)
    missing = str(tmp_path / "missing.ckpt")
    assert main([command, "--checkpoint", missing, source, "x", "--seed", "1"]) == 1


@pytest.mark.parametrize("argv, missing", [
    (["train"], "--config"),
    (["ablate"], "--config"),
    (["eval", "--data", "x"], "--checkpoint"),
    (["eval", "--checkpoint", "x"], "--data"),
    (["predict", "--text", "x"], "--checkpoint"),
    (["explain", "--checkpoint", "x"], "--text"),
    (["analyze", "--checkpoint", "x"], "--data"),
])
def test_each_required_input_is_refused_while_parsing(capsys, argv, missing):
    assert main(argv) == 1
    assert f"the following arguments are required: {missing}" in capsys.readouterr().err


def test_unexpected_exception_is_internal_fault(monkeypatch, capsys):
    def broken(path):
        raise RuntimeError("broken loader")

    monkeypatch.setattr(gatedoc.cli, "load_checkpoint", broken)
    assert main(["eval", "--checkpoint", "any.ckpt", "--data", "any.jsonl"]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and err.endswith("internal fault: RuntimeError: broken loader\n")
    with pytest.raises(SystemExit) as exited:  # SystemExit is not an Exception
        main(["--help"])
    assert exited.value.code == 0


def test_eval_with_missing_checkpoint_is_data_error(tmp_path):
    data = _corpus(tmp_path, n_docs=4)
    missing = tmp_path / "missing.ckpt"
    assert main(["eval", "--checkpoint", str(missing), "--data", str(data)]) == 2


@pytest.mark.parametrize("command, empty", [
    ("eval", "--checkpoint"), ("eval", "--data"), ("predict", "--data"),
])
def test_empty_path_is_data_error_where_it_is_opened(trained, command, empty):
    ckpt, data, _ = trained
    argv = [command, "--checkpoint", str(ckpt), "--data", str(data)]
    argv[argv.index(empty) + 1] = ""
    assert main(argv) == 2


def test_train_with_missing_data_file_is_data_error(tmp_path):
    config = _config(tmp_path, tmp_path / "missing.jsonl")
    assert main(["train", "--config", str(config)]) == 2


@pytest.mark.parametrize("keys", [
    ("data", "dev_data"),
    ("data", "train_data", "dev_data", "test_data"),
    ("dev_data",),
    ("test_data",),
    ("dev_data", "test_data"),
    (),
], ids=lambda keys: "+".join(keys) or "none")
def test_data_keys_the_run_would_ignore_are_refused_before_any_read(tmp_path, capsys, keys):
    # every named file is missing, so reading any of them would exit 2
    values = {key: tmp_path / f"missing_{key}.jsonl" for key in keys}
    path = _config(tmp_path, **{"data": None, **values})
    assert main(["train", "--config", str(path)]) == 1
    assert f"test_data, not {list(values)}" in capsys.readouterr().err


def test_train_reads_three_split_files(tmp_path):
    splits = {}
    for seed, key in enumerate(("train_data", "dev_data", "test_data")):
        splits[key] = tmp_path / f"{key}.jsonl"
        corpus = synthetic.generate_key_sentence_corpus(16, seed=seed)
        synthetic.write_corpus(corpus, splits[key])
    assert main(["train", "--config", str(_config(tmp_path, None, **splits))]) == 0


def test_train_writes_one_json_line_per_epoch(tmp_path, monkeypatch):
    results = []

    def recording(*args, **kwargs):
        results.append(gatedoc.training.train(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(gatedoc.cli, "train", recording)
    config = _config(tmp_path, _corpus(tmp_path), max_epochs=2)
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    out = out_dir / "metrics.jsonl"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    (result,) = results
    lines = out.read_text(encoding="utf-8").splitlines()
    assert [entry["epoch"] for entry in result.history] == [0, 1]
    assert lines == [json.dumps(entry, sort_keys=True) for entry in result.history]
    assert [list(json.loads(line)) for line in lines] == [
        ["dev_accuracy", "epoch", "train_loss"]
    ] * 2
    assert [p.name for p in out_dir.iterdir()] == ["metrics.jsonl"]  # no .tmp left behind


def test_train_skips_a_line_nested_too_deep(tmp_path):
    corpus = _corpus(tmp_path)
    with corpus.open("a", encoding="utf-8") as fh:
        fh.write("[" * 100_000 + "]" * 100_000 + "\n")
    assert main(["train", "--config", str(_config(tmp_path, corpus))]) == 0


def test_negative_seed_is_usage_error(tmp_path):
    # refused by validation, before a numpy generator raises on it (an internal fault, 3)
    corpus = _corpus(tmp_path, n_docs=8)
    assert main(["train", "--config", str(_config(tmp_path, corpus, seed=-2))]) == 1
    assert main(["train", "--config", str(_config(tmp_path, corpus)), "--seed", "-1"]) == 1
    assert main(["gradcheck", "--seed", "-1"]) == 1


@pytest.mark.parametrize("d_h", ["1e300", str(2**62)])
def test_a_width_too_large_to_allocate_is_usage_error(tmp_path, capsys, d_h):
    # both sizes pass validation and are refused by numpy before it allocates
    config = _config(tmp_path, _corpus(tmp_path, n_docs=10), d_h=d_h)
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and "too large to allocate" in err


_DIVERGES = [  # the diverging run's overflows are expected, not faults
    pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning"),
    pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning"),
]


@pytest.mark.parametrize("field, value", [
    pytest.param("learning_rate", "1e30", marks=_DIVERGES), ("n_layers", "1000000"),
])
def test_a_config_that_validates_yet_cannot_train_is_usage_error(
    tmp_path, capsys, monkeypatch, field, value
):
    # a learning rate that diverges at once; a depth refused by validation,
    # before any parameter is made
    if field == "n_layers":
        monkeypatch.setattr(gatedoc.model, "build_model", None)
    config = _config(tmp_path, _corpus(tmp_path), **{field: value})
    assert main(["train", "--config", str(config)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err and field in err, err


# --- inference commands on a checkpoint trained for one epoch ---------------

TEXT = "The plot was thin. Yet the acting is superb!  Mr. Smith shines in 2.5 hours."
PREDICTION_KEYS = {"id", "predicted", "gold", "probs", "gate_scores", "gate_enabled"}


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(checkpoint, labelled data) for a gated model and (checkpoint) without the gate."""
    root = tmp_path_factory.mktemp("trained")
    data = _corpus(root)
    ckpts = {}
    for use_gate in ("true", "false"):
        ckpt = root / f"gate-{use_gate}.ckpt"
        config = _config(root, data, use_gate=use_gate)
        assert main(["train", "--config", str(config), "--checkpoint", str(ckpt)]) == 0
        ckpts[use_gate] = ckpt
    return ckpts["true"], data, ckpts["false"]


def _json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_eval_writes_accuracy_and_counts(trained, tmp_path):
    ckpt, data, _ = trained
    out = tmp_path / "eval.json"
    assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]) == 0
    payload = _json(out)
    assert set(payload) == {"accuracy", "correct", "total", "skipped"}
    assert (payload["total"], payload["skipped"]) == (40, 0)


def test_predict_data_writes_one_record_per_document(trained, tmp_path):
    ckpt, data, _ = trained
    out = tmp_path / "pred.json"
    argv = ["predict", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]
    assert main(argv) == 0
    records = _json(out)["predictions"]
    assert len(records) == 40
    assert all(set(rec) == PREDICTION_KEYS for rec in records)
    assert records[0]["id"] == "synth-00000" and records[0]["gold"] is not None


def test_predict_data_runs_packs(trained, tmp_path, monkeypatch):
    ckpt, data, _ = trained
    packs = []
    original = gatedoc.model.forward_pack

    def recording(docs, mp):
        packs.append([doc.id for doc in docs])
        return original(docs, mp)

    monkeypatch.setattr(gatedoc.model, "forward_pack", recording)
    out = tmp_path / "pred.json"
    argv = ["predict", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]
    assert main(argv) == 0
    ids = [rec["id"] for rec in _json(out)["predictions"]]
    assert [i for pack in packs for i in pack] == ids and len(ids) == 40
    assert len(packs) < len(ids)


def test_predict_text_is_one_unlabelled_record(trained, tmp_path):
    ckpt, _, _ = trained
    out = tmp_path / "pred.json"
    assert main(["predict", "--checkpoint", str(ckpt), "--text", TEXT, "--out", str(out)]) == 0
    (record,) = _json(out)["predictions"]
    assert set(record) == PREDICTION_KEYS
    assert (record["id"], record["gold"], len(record["gate_scores"])) == ("input", None, 3)


def _without_scores(data, path, keep):
    """`data` with the score of every line from `keep` on null or, in odd
    lines, missing."""
    rows = [json.loads(line) for line in data.read_text(encoding="utf-8").splitlines()]
    for i, row in enumerate(rows[keep:], start=keep):
        if i % 2:
            del row["score"]
        else:
            row["score"] = None
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    return path


def test_predict_data_on_unlabelled_documents_writes_null_gold(trained, tmp_path):
    ckpt, data, _ = trained
    unlabelled = _without_scores(data, tmp_path / "unlabelled.jsonl", keep=0)
    records = {}
    for name, path in (("labelled", data), ("unlabelled", unlabelled)):
        out = tmp_path / f"{name}.json"
        argv = ["predict", "--checkpoint", str(ckpt), "--data", str(path), "--out", str(out)]
        assert main(argv) == 0
        records[name] = _json(out)["predictions"]
    assert len(records["unlabelled"]) == 40
    assert all(rec["gold"] is None for rec in records["unlabelled"])
    for rec in records["labelled"]:
        rec["gold"] = None
    assert records["unlabelled"] == records["labelled"]


@pytest.mark.parametrize("command", ["train", "eval", "analyze"])
def test_commands_that_need_gold_labels_refuse_an_unlabelled_document(
    trained, tmp_path, capsys, command
):
    ckpt, data, _ = trained
    one_unlabelled = _without_scores(data, tmp_path / "mixed.jsonl", keep=39)
    out = tmp_path / "out.json"
    if command == "train":
        argv = ["train", "--config", str(_config(tmp_path, one_unlabelled)), "--out", str(out)]
    else:
        argv = [command, "--checkpoint", str(ckpt), "--data", str(one_unlabelled)]
        argv += ["--out", str(out)]
    assert main(argv) == 1
    assert "'synth-00039' has no gold label" in capsys.readouterr().err
    assert not out.exists()


def test_explain_writes_heatmap_and_report_aligned_to_the_text(trained, tmp_path):
    ckpt, _, _ = trained
    page, report = tmp_path / "heat.html", tmp_path / "report.json"
    argv = ["explain", "--checkpoint", str(ckpt), "--text", TEXT,
            "--out", str(page), "--report", str(report)]
    assert main(argv) == 0
    assert page.read_text(encoding="utf-8").startswith("<!DOCTYPE html>")
    payload = _json(report)
    assert set(payload) == {"prediction", "sentences"}
    assert set(payload["prediction"]) == PREDICTION_KEYS
    sentences = payload["sentences"]
    assert [set(s) for s in sentences] == [{"text", "span", "gate_score"}] * 3
    for sentence in sentences:
        start, end = sentence["span"]
        assert sentence["text"] == TEXT[start:end]
    assert [s["gate_score"] for s in sentences] == payload["prediction"]["gate_scores"]


def test_analyze_writes_both_reports(trained, tmp_path):
    ckpt, data, _ = trained
    out = tmp_path / "analyze.json"
    argv = ["analyze", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(out)]
    assert main(argv) == 0
    payload = _json(out)
    assert set(payload) == {"accuracy", "stddev_report", "score_diff_histogram"}
    assert set(payload["stddev_report"]) == {"stddevs", "fraction_over_0_2", "n_documents"}
    assert payload["stddev_report"]["n_documents"] == 40
    assert set(payload["score_diff_histogram"]) == {
        "counts", "n_wrong", "cumulative_at_1", "cumulative_at_2"
    }


def _count_predict_calls(monkeypatch):
    """Ids of the documents the model predicts, wherever it is called from:
    every prediction runs `model.forward_pack`."""
    calls = []
    original = gatedoc.model.forward_pack

    def counting(docs, mp):
        calls.extend(doc.id for doc in docs)
        return original(docs, mp)

    monkeypatch.setattr(gatedoc.model, "forward_pack", counting)
    return calls


def test_analyze_runs_the_model_once_per_document(trained, tmp_path, monkeypatch):
    ckpt, data, _ = trained
    calls = _count_predict_calls(monkeypatch)
    assert main(["analyze", "--checkpoint", str(ckpt), "--data", str(data)]) == 0
    assert len(calls) == 40 and len(set(calls)) == 40


def test_analyze_without_gate_is_usage_error(trained, monkeypatch):
    _, data, ckpt = trained
    calls = _count_predict_calls(monkeypatch)
    assert main(["analyze", "--checkpoint", str(ckpt), "--data", str(data)]) == 1
    assert calls == []  # refused before the model runs


def test_analyze_without_gate_refuses_before_reading_the_data(trained, tmp_path, capsys):
    _, _, ckpt = trained
    absent = tmp_path / "absent.jsonl"
    assert main(["analyze", "--checkpoint", str(ckpt), "--data", str(absent)]) == 1
    err = capsys.readouterr().err
    assert "gate enabled" in err and "Traceback" not in err


def test_ablate_writes_four_rows_with_p_values(tmp_path):
    config = _config(tmp_path, _corpus(tmp_path))
    out = tmp_path / "ablate.json"
    assert main(["ablate", "--config", str(config), "--seeds", "2", "--out", str(out)]) == 0
    rows = _json(out)["rows"]
    assert len(rows) == 4
    assert all(
        set(row) == {"label", "test_accuracy", "dev_accuracy", "test_accuracies",
                     "p_value_vs_full"}
        for row in rows
    )
    assert rows[0]["p_value_vs_full"] is None
    assert all(0.0 <= row["p_value_vs_full"] <= 1.0 for row in rows[1:])


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_ablate_without_seeds_is_usage_error(tmp_path, capsys, seeds):
    # refused before the data is read: the missing file would be a data error (2)
    config = _config(tmp_path, tmp_path / "missing.jsonl")
    assert main(["ablate", "--config", str(config), "--seeds", seeds]) == 1
    err = capsys.readouterr().err
    assert "--seeds" in err and "Traceback" not in err, err


def test_explain_blank_text_is_usage_error(trained):
    ckpt, _, _ = trained
    assert main(["explain", "--checkpoint", str(ckpt), "--text", "   "]) == 1


@pytest.mark.parametrize("command", ["explain", "predict"])
def test_text_that_is_not_utf8_is_usage_error(trained, tmp_path, command):
    ckpt, _, _ = trained
    out = tmp_path / "out"
    text = "Good film. Bad \udcff plot."  # how argv carries a byte that is not UTF-8
    assert main([command, "--checkpoint", str(ckpt), "--text", text, "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


def test_predict_without_text_or_data_is_usage_error(trained):
    ckpt, _, _ = trained
    assert main(["predict", "--checkpoint", str(ckpt)]) == 1


def test_predict_with_both_text_and_data_is_usage_error(trained, capsys):
    ckpt, data, _ = trained
    argv = ["predict", "--checkpoint", str(ckpt), "--text", TEXT, "--data", str(data)]
    assert main(argv) == 1
    assert "not allowed with argument" in capsys.readouterr().err


def test_gradcheck_passes_and_names_the_worst_entry(tmp_path):
    out = tmp_path / "gradcheck.json"
    assert main(["gradcheck", "--seed", "0", "--out", str(out)]) == 0
    payload = _json(out)
    assert payload["max_relative_error"] < payload["threshold"]
    worst = payload["worst"]
    assert set(worst) == {"parameter", "index", "analytic", "numeric"}
    assert worst["parameter"].split(".")[0] in {"encoder", "classsim", "gate", "docenc", "head"}


def test_gradcheck_catches_one_percent_tanh_error(monkeypatch):
    monkeypatch.setattr(ad, "tanh", skewed_backward(ad.tanh))
    assert main(["gradcheck", "--seed", "0"]) == 3


# --- fuzzed inputs: exit 0, 1 or 2, never a traceback -------------------------


def _run(argv):
    """`main(argv)` with a strict UTF-8 stdout, as on a UTF-8 terminal:
    (exit code, stderr)."""
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


@given(
    lines=JSONL_LINES,
    command=st.sampled_from(["eval", "predict", "analyze"]),
    gated=st.booleans(),
)
@settings(max_examples=100)
def test_any_data_file_exits_0_1_or_2_without_a_traceback(
    trained, fuzz_dir, lines, command, gated
):
    ckpt, _, ungated = trained
    data = fuzz_dir / "data.jsonl"
    data.write_bytes(b"\n".join(line for _, line, _ in lines))
    code, err = _run([
        command, "--checkpoint", str(ckpt if gated else ungated), "--data", str(data),
        "--out", str(fuzz_dir / "out.json"),
    ])
    assert code in (0, 1, 2) and "Traceback" not in err, err


# pieces of raw text: sentences, abbreviations, numbers, runs of
# punctuation and whitespace, control characters, a lone surrogate (how
# argv carries a byte that is not UTF-8), other scripts, and anything
_TEXT_PIECES = st.sampled_from([
    "Good film.", "The plot was thin", "Bad!", "Mr.", "e.g.", "2.5", "...", "?!", " ", "  ",
    "\n", "\t", "\r\n", "\x00", "\x1b", "\u200b", "\ufeff", "\udcff", "é", "日本語。", "😀",
]) | st.text(max_size=6)
_TEXTS = st.lists(_TEXT_PIECES, max_size=12).map("".join)


@given(text=_TEXTS, command=st.sampled_from(["predict", "explain"]), gated=st.booleans())
@settings(max_examples=100)
def test_any_text_exits_0_1_or_2_without_a_traceback(trained, fuzz_dir, text, command, gated):
    ckpt, _, ungated = trained
    argv = [
        command, "--checkpoint", str(ckpt if gated else ungated), "--text", text,
        "--out", str(fuzz_dir / "out"),
    ]
    if command == "explain":
        argv += ["--report", str(fuzz_dir / "report.json")]
    code, err = _run(argv)
    assert code in (0, 1, 2) and "Traceback" not in err, err


def test_an_id_utf8_cannot_encode_is_a_skipped_line(trained, tmp_path):
    # json.loads decodes the escape to a lone surrogate, which a UTF-8 stdout refuses
    ckpt, data, _ = trained
    good = data.read_text(encoding="utf-8").splitlines()[:2]
    path, out = tmp_path / "data.jsonl", tmp_path / "pred.json"
    bad = '{"id": "\\udcff", "text": "Fine.", "score": 3}'
    path.write_text("\n".join([good[0], bad, good[1]]), encoding="utf-8")
    code, err = _run(["predict", "--checkpoint", str(ckpt), "--data", str(path), "--out", str(out)])
    assert (code, "Traceback" in err, len(_json(out)["predictions"])) == (0, False, 2)


# widths a model can be built with cheaply, and sizes numpy refuses outright
_WIDTH = st.integers(1, 16) | st.sampled_from(["1e300", str(2**62)])


@st.composite
def _train_config_text(draw):
    """A config over the 10-document corpus whose every example builds at
    most a few MB: some fields at the defaults, others drawn."""
    drawn = {
        **{name: _WIDTH for name in (
            "d_tok", "d_h", "n_heads", "d_class", "d_class_hidden", "d_g", "d_out_hidden",
            "max_stream_len",
        )},
        "n_layers": st.integers(1, 3) | st.sampled_from(["1000000", "1e300"]),
        "batch_size": st.integers(-1, 8),
        "patience": st.integers(0, 2),
        "seed": st.integers(-1, 3),
        "max_sentences": st.integers(0, 8),
        "min_freq": st.integers(0, 3),
        "max_vocab": st.integers(0, 50),
        "learning_rate": st.sampled_from(["0.01", "0", "-1", "nan", "inf", "1e-300", "1e30"]),
        "scheme": st.sampled_from(["three_way", "ten_scale", "other"]),
        "gate_mode": st.sampled_from(["scalar", "vector", "other"]),
        "attention_scope": st.sampled_from(["sentence", "document", "other"]),
        "dtype": st.sampled_from(["float32", "float64", "float16"]),
        **{name: st.sampled_from(["true", "false", "1"]) for name in (
            "use_gate", "use_sentence_class_sim", "use_document_class_sim",
        )},
    }
    chosen = draw(st.sets(st.sampled_from(sorted(drawn))))
    values = {name: draw(drawn[name]) for name in sorted(chosen)}
    values["max_epochs"] = draw(st.integers(1, 2))
    return "".join(f"{name} = {value}\n" for name, value in values.items())


@given(text=_train_config_text())
@settings(max_examples=50)
def test_any_train_config_exits_0_1_or_2_without_a_traceback(fuzz_dir, text):
    corpus = fuzz_dir / "corpus.jsonl"
    if not corpus.exists():
        synthetic.write_corpus(synthetic.generate_key_sentence_corpus(10, seed=0), corpus)
    config = fuzz_dir / "run.cfg"
    config.write_text(f"data = {corpus}\n{text}", encoding="utf-8")
    code, err = _run(["train", "--config", str(config)])
    assert code in (0, 1, 2) and "Traceback" not in err, err
