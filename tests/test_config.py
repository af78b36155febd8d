import json
import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedoc import synthetic
from gatedoc.cli import main
from gatedoc.config import _KINDS, MAX_LAYERS, TrainConfig, load_config, parse_config_text
from gatedoc.errors import UsageError


def _from_text(text):
    return TrainConfig.from_dict(parse_config_text(text))


def test_unknown_key_is_rejected():
    with pytest.raises(UsageError, match="unknown config keys"):
        _from_text("batch_sise = 8\n")


def test_line_without_equals_is_rejected():
    with pytest.raises(UsageError, match="line 2"):
        _from_text("# comment\nbatch_size 8\n")


def test_a_key_given_twice_is_rejected(tmp_path):
    with pytest.raises(UsageError, match=r"line 3: 'd_h' given twice, first on line 1"):
        parse_config_text("d_h = 64\n# wider\nd_h = 128\n")
    path = tmp_path / "run.cfg"
    path.write_text("data = corpus.jsonl\nd_h = 64\nd_h = 128\n", encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 1


def test_asdict_from_dict_round_trip():
    config = TrainConfig(
        scheme="ten_scale", data="corpus.jsonl", learning_rate=2e-5, batch_size=64,
        use_gate=False, gate_mode="vector", dtype="float64",
    )
    assert TrainConfig.from_dict(asdict(config)) == config
    # checkpoints store the config as JSON
    assert TrainConfig.from_dict(json.loads(json.dumps(asdict(config)))) == config


def test_int_widens_to_float_and_integral_float_narrows_to_int():
    config = _from_text("learning_rate = 1\nbatch_size = 8.0\n")
    assert config.learning_rate == 1.0 and isinstance(config.learning_rate, float)
    assert config.batch_size == 8 and isinstance(config.batch_size, int)


@pytest.mark.parametrize("raw", ["5", "true", "2e-5"])
def test_string_field_keeps_its_text(raw):
    # a number or a boolean word is still a file name in a string field
    assert _from_text(f"data = {raw}\n").data == raw


@pytest.mark.parametrize("value", [5, True, 2.5])
def test_from_dict_rejects_non_string_in_string_field(value):
    with pytest.raises(UsageError, match="data must be a string"):
        TrainConfig.from_dict({"data": value})


BAD_VALUES = [
    "batch_size = 2.5",  # non-integral number in an int field
    "max_epochs = yes",  # boolean in an int field
    "seed = false",
    "d_h = abc",
    "use_gate = 0",  # non-boolean in a bool field
    "use_sentence_class_sim = on",
    "learning_rate = yes",  # boolean in a float field
]


@pytest.mark.parametrize("line", BAD_VALUES)
def test_bad_value_type_is_rejected(line):
    with pytest.raises(UsageError, match=line.split(" =")[0]):
        _from_text(line + "\n")


@pytest.mark.parametrize("line", BAD_VALUES)
def test_cli_exits_1_on_bad_value_type(tmp_path, line):
    path = tmp_path / "run.cfg"
    path.write_text(f"data = corpus.jsonl\n{line}\n", encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 1


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_from_dict_rejects_non_finite_float(value):
    with pytest.raises(UsageError, match="learning_rate must be finite"):
        TrainConfig.from_dict({"learning_rate": value})


def test_n_layers_is_capped():
    assert TrainConfig(n_layers=MAX_LAYERS).validate().n_layers == MAX_LAYERS
    for value in (MAX_LAYERS + 1, 1e300):
        with pytest.raises(UsageError, match=f"n_layers must be at most {MAX_LAYERS}"):
            TrainConfig.from_dict({"n_layers": value})


def test_zero_layers_is_refused():
    # transformer_encode runs at least one layer; this check keeps it so
    with pytest.raises(UsageError, match="n_layers must be positive"):
        _from_text("n_layers = 0\n")


def test_cli_exits_1_on_nan_learning_rate(tmp_path):
    data = tmp_path / "corpus.jsonl"
    synthetic.write_corpus(synthetic.generate_key_sentence_corpus(40, seed=0), data)
    path = tmp_path / "run.cfg"
    path.write_text(f"data = {data}\nlearning_rate = nan\nmax_epochs = 1\n", encoding="utf-8")
    assert main(["train", "--config", str(path)]) == 1


def test_config_that_is_not_utf8_is_usage_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"d_tok = 8\n# caf\xe9\n")  # Latin-1
    with pytest.raises(UsageError, match="cannot read config"):
        load_config(path)
    assert main(["train", "--config", str(path)]) == 1


def test_a_config_with_a_byte_order_mark_loads(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes("\ufeffd_h = 16\nn_heads = 4\n".encode("utf-8"))
    config = load_config(path)
    assert (config.d_h, config.n_heads) == (16, 4)


_VALUE_WORDS = [
    "true", "no", "nan", "-inf", "1e999", "1e30", "2.5", "0", "-3", "1_000", "٣",
    "scalar", "vector", "sentence", "document", "float32", "float64", "three_way", "ten_scale",
]
_TYPICAL_VALUES = {
    "int": st.integers(1, 64) | st.sampled_from(["0", "-3", "2.5", "1e30", "nan"]),
    "float": st.floats(1e-6, 1.0) | st.sampled_from(["0", "nan", "inf", "-inf", "1e999"]),
    "bool": st.sampled_from(["true", "false", "yes", "no", "1"]),
}
# lines of the kind a config file holds, most with a value of the key's
# type, and whatever else a line can hold
_TYPICAL_LINE = st.sampled_from(sorted(_KINDS)).flatmap(
    lambda key: st.builds(
        f"{key} = {{}}".format,
        _TYPICAL_VALUES.get(_KINDS[key], st.sampled_from(_VALUE_WORDS)),
    )
)
_ANY_LINE = st.one_of(
    st.builds(
        "{} = {}".format,
        st.sampled_from(sorted(_KINDS)),
        st.sampled_from(_VALUE_WORDS) | st.integers().map(str) | st.floats().map(repr)
        | st.text(max_size=12),
    ),
    st.builds("{}={}".format, st.text(max_size=6), st.text(max_size=6)),
    st.text(max_size=20),
)
_CONFIG_TEXTS = (
    st.tuples(st.lists(_TYPICAL_LINE, max_size=6), st.lists(_ANY_LINE, max_size=2))
    .flatmap(lambda lines: st.permutations(lines[0] + lines[1]))
    .map("\n".join)
)


@given(_CONFIG_TEXTS)
@settings(max_examples=300)
def test_any_config_text_is_a_valid_config_or_a_usage_error(text):
    try:
        config = _from_text(text)
    except UsageError:
        return
    for name, kind in _KINDS.items():
        value = getattr(config, name)
        if kind == "str | None":
            assert value is None or isinstance(value, str), name
        else:
            assert type(value).__name__ == kind, name
        if kind == "float":
            assert math.isfinite(value), name
    if parse_config_text(text):  # the text twice sets each of its keys twice
        with pytest.raises(UsageError, match="given twice"):
            parse_config_text(f"{text}\n{text}")
