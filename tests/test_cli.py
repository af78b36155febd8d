"""Exit-code contract: 0 ok, 1 usage, 2 data, 3 internal."""

import json

from gatedoc import synthetic
from gatedoc.cli import main


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
    path.write_text("".join(f"{k} = {v}\n" for k, v in base.items()), encoding="utf-8")
    return path


def test_no_command_is_usage_error():
    assert main([]) == 1


def test_train_without_config_is_usage_error():
    assert main(["train"]) == 1


def test_eval_with_missing_checkpoint_is_data_error(tmp_path):
    data = _corpus(tmp_path, n_docs=4)
    missing = tmp_path / "missing.ckpt"
    assert main(["eval", "--checkpoint", str(missing), "--data", str(data)]) == 2


def test_train_with_missing_data_file_is_data_error(tmp_path):
    config = _config(tmp_path, tmp_path / "missing.jsonl")
    assert main(["train", "--config", str(config)]) == 2


def test_train_writes_one_json_line_per_epoch(tmp_path):
    config = _config(tmp_path, _corpus(tmp_path))
    out = tmp_path / "metrics.jsonl"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1
    entry = json.loads(lines[0])
    assert entry["epoch"] == 0
    assert set(entry) == {"epoch", "train_loss", "dev_accuracy"}
