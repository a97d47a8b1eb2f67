"""Property tests: every parser input gives a result, ParseError or ConfigError.

The runs are derandomized, with small example counts and no example
database, so the suite stays deterministic and fast.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from muvit.data import (CONFIG_KEYS, ParseError, _parse_pnm,  # noqa: E402
                        config_doc_dumps, config_doc_loads, load_checkpoint,
                        model_config_from_doc, save_checkpoint)
from muvit.model import ModelConfig  # noqa: E402
from muvit.tensor import ConfigError  # noqa: E402

SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])


def parse_or_own_error(fn, *args):
    """fn(*args), or None when it raised the parser's own error type; any
    other exception propagates and fails the test."""
    try:
        return fn(*args)
    except (ParseError, ConfigError):
        return None


@SETTINGS
@given(st.binary(max_size=64))
@example(b"P5 " + b"9" * 5000 + b" 1 255\n")
def test_pnm_arbitrary_bytes(raw):
    parse_or_own_error(_parse_pnm, raw)


header_field = st.one_of(st.integers(0, 12).map(str), st.just("255"),
                         st.text("0123456789", min_size=1, max_size=30),
                         st.text(" \t\n#x-", max_size=3))


@SETTINGS
@given(st.lists(header_field, min_size=0, max_size=4),
       st.sampled_from([" ", "\n", "\t", "", "#c\n"]), st.binary(max_size=200))
def test_pnm_p5_header_then_random_bytes(fields, sep, payload):
    raw = ("P5" + sep + sep.join(fields) + "\n").encode() + payload
    got = parse_or_own_error(_parse_pnm, raw)
    if got is not None:
        magic, arr = got
        assert magic == "P5" and arr.dtype == np.uint8 and arr.shape[2] == 1


@SETTINGS
@given(st.text(max_size=300))
def test_config_doc_arbitrary_text(text):
    parse_or_own_error(config_doc_loads, text)


@SETTINGS
@given(st.sampled_from(CONFIG_KEYS), st.text(max_size=40))
def test_config_doc_one_value_replaced(key, value):
    lines = config_doc_dumps({}).splitlines()
    i = next(i for i, ln in enumerate(lines) if ln.startswith(key + " "))
    lines[i] = f"{key} = {value}"
    doc = parse_or_own_error(config_doc_loads, "\n".join(lines))
    if doc is not None:
        assert set(doc) == set(CONFIG_KEYS)


model_values = {key: st.one_of(values, st.text(max_size=12)) for key, values in {
    "variant": st.sampled_from(["base", "large", "tiny"]),
    "input_size": st.integers(-100, 600).map(str),
    "num_classes": st.integers(-2, 4).map(str),
    "skip_mode": st.sampled_from(["none", "horizontal", "skip1", "skip2", "skip3", "skip4"]),
    "downsample_mode": st.sampled_from(["maxpool", "conv", "avg"]),
    "kernels": st.lists(st.integers(-9, 9), max_size=4).map(lambda ks: ",".join(map(str, ks))),
    "literal_eq2": st.sampled_from(["true", "false", "yes"]),
}.items()}


def model_config_from_text(values):
    """ModelConfig of the default document with some values replaced."""
    lines = config_doc_dumps({}).splitlines()
    for i, line in enumerate(lines):
        key = line.split(" = ")[0]
        if key in values:
            lines[i] = f"{key} = {values[key]}"
    return model_config_from_doc(config_doc_loads("\n".join(lines)))


@SETTINGS
@given(st.fixed_dictionaries({}, optional=model_values))
@example({"input_size": "-32"})
@example({"input_size": "0"})
@example({"kernels": "3,3,-1"})
def test_model_config_from_doc(values):
    # the config is only constructed; no model is built, but an accepted
    # config must have the positive sizes that building relies on
    cfg = parse_or_own_error(model_config_from_text, values)
    if cfg is not None:
        assert isinstance(cfg, ModelConfig)
        assert cfg.input_size >= 32 and min(cfg.convutr_kernels) >= 1


def _valid_checkpoint(path):
    tensors = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
               "b": np.zeros((0, 4), dtype=np.float64)}
    save_checkpoint(str(path), {}, tensors, {"optim.step": np.array([3.0])})
    return path.read_bytes()


@SETTINGS
@given(st.data())
def test_checkpoint_bytes_inserted_or_cut(tmp_path, data):
    path = tmp_path / "c.ckpt"
    raw = _valid_checkpoint(path)
    at = data.draw(st.integers(0, len(raw)), label="at")
    if data.draw(st.booleans(), label="insert"):
        raw = raw[:at] + data.draw(st.binary(min_size=1, max_size=16), label="bytes") + raw[at:]
    else:
        raw = raw[:at] + raw[at + data.draw(st.integers(1, 16), label="cut"):]
    path.write_bytes(raw)
    parse_or_own_error(load_checkpoint, str(path))


def test_checkpoint_with_zero_size_tensor_round_trips(tmp_path):
    # the unmutated base case of the property above
    path = tmp_path / "c.ckpt"
    _valid_checkpoint(path)
    _, tensors, optim = load_checkpoint(str(path))
    assert tensors["b"].shape == (0, 4)
    assert optim["optim.step"].tolist() == [3.0]
