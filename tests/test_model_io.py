"""Model file round trips, embedding files, and config file parsing."""

import numpy as np
import pytest

from beamparse import network as N
from beamparse.decoder import PerceptronModel, phi_dimension
from beamparse.features import build_vocabularies
from beamparse.model_io import (
    MODEL_MAGIC,
    OLD_MAGIC,
    ModelFormatError,
    _write_array,
    load_config_file,
    load_embeddings,
    load_model,
    parse_config_text,
    save_model,
)
from beamparse.network import Dims
from beamparse.training import TrainConfig

from helpers import make_tree, toy_corpus


def _round_f32(arr):
    return arr.astype("<f4").astype(np.float64)


def fresh_model(dims=Dims(8, 4, 4, 12, 10), seed=3, with_perceptron=False):
    trees = toy_corpus(6, np.random.default_rng(1))
    vocabs = build_vocabularies(trees, word_min_count=1)
    params = N.init_params(vocabs, dims, np.random.default_rng(seed))
    perceptron = None
    if with_perceptron:
        comp = ("h1", "h2", "py") if dims.m2 is not None else ("py",)
        d = phi_dimension(params, comp)
        perceptron = PerceptronModel(comp, d, len(vocabs.decisions))
        rng = np.random.default_rng(11)
        perceptron.v = rng.normal(0.0, 1.0, perceptron.v.shape)
        perceptron.u = rng.normal(0.0, 1.0, perceptron.u.shape)
        perceptron.t = 7
    return params, vocabs, perceptron


def test_decimals_round_trip_is_exact(tmp_path):
    params, vocabs, _ = fresh_model()
    path = tmp_path / "model"
    save_model(path, params, vocabs)
    loaded = load_model(path)
    assert loaded.encoding == "decimals"
    assert loaded.params.equal(params)
    assert loaded.params.dims == params.dims
    assert loaded.vocabs.word.entries() == vocabs.word.entries()
    assert loaded.vocabs.tag.entries() == vocabs.tag.entries()
    assert loaded.vocabs.label.entries() == vocabs.label.entries()
    assert loaded.perceptron is None

    path2 = tmp_path / "model2"
    save_model(path2, loaded.params, loaded.vocabs)
    assert path.read_bytes() == path2.read_bytes()


def test_f32_round_trip_is_stable(tmp_path):
    params, vocabs, perceptron = fresh_model(with_perceptron=True)
    path = tmp_path / "model"
    save_model(path, params, vocabs, perceptron, encoding="f32")
    loaded = load_model(path)
    assert loaded.encoding == "f32"
    for name, arr in params.fields():
        assert np.array_equal(getattr(loaded.params, name), _round_f32(arr))
    assert np.array_equal(loaded.perceptron.v, _round_f32(perceptron.v))

    path2 = tmp_path / "model2"
    save_model(path2, loaded.params, loaded.vocabs, loaded.perceptron, encoding="f32")
    assert path.read_bytes() == path2.read_bytes()


def test_perceptron_section_round_trip(tmp_path):
    params, vocabs, perceptron = fresh_model(with_perceptron=True)
    path = tmp_path / "model"
    save_model(path, params, vocabs, perceptron)
    loaded = load_model(path)
    p = loaded.perceptron
    assert p is not None
    assert p.comp == perceptron.comp
    assert p.d == perceptron.d
    assert p.t == 7
    assert p.average is True
    assert np.array_equal(p.v, perceptron.v)
    assert np.array_equal(p.u, perceptron.u)
    assert np.allclose(p.averaged_weights(), perceptron.averaged_weights())

    path2 = tmp_path / "model2"
    save_model(path2, loaded.params, loaded.vocabs, p)
    assert path.read_bytes() == path2.read_bytes()


def test_average_flag_survives(tmp_path):
    params, vocabs, perceptron = fresh_model(with_perceptron=True)
    perceptron.average = False
    path = tmp_path / "model"
    save_model(path, params, vocabs, perceptron)
    assert load_model(path).perceptron.average is False


def test_single_layer_dims_round_trip(tmp_path):
    params, vocabs, _ = fresh_model(dims=Dims(8, 4, 4, 12, None))
    path = tmp_path / "model"
    save_model(path, params, vocabs)
    loaded = load_model(path)
    assert loaded.params.dims.m2 is None
    assert loaded.params.equal(params)
    with open(path, "rb") as f:
        lines = f.read().split(b"\n")
    assert lines[2] == b"dims 8 4 4 12 -"


def test_parses_identical_after_reload(tmp_path):
    params, vocabs, _ = fresh_model()
    trees = toy_corpus(5, np.random.default_rng(8))
    path = tmp_path / "model"
    save_model(path, params, vocabs)
    loaded = load_model(path)
    for tree in trees:
        before = N.greedy_parse(params, tree, vocabs)
        after = N.greedy_parse(loaded.params, tree, loaded.vocabs)
        assert before.heads == after.heads
        assert before.labels == after.labels


def test_bad_magic_and_encoding(tmp_path):
    path = tmp_path / "model"
    path.write_bytes(b"something else\n")
    with pytest.raises(ModelFormatError):
        load_model(path)
    path.write_bytes(MODEL_MAGIC.encode() + b"\nencoding utf9\n")
    with pytest.raises(ModelFormatError):
        load_model(path)
    params, vocabs, _ = fresh_model()
    with pytest.raises(ValueError):
        save_model(tmp_path / "m2", params, vocabs, encoding="f16")


def test_truncated_file(tmp_path):
    params, vocabs, _ = fresh_model()
    path = tmp_path / "model"
    save_model(path, params, vocabs)
    data = path.read_bytes()
    for cut in (len(data) // 3, len(data) - 5):
        broken = tmp_path / "broken"
        broken.write_bytes(data[:cut])
        with pytest.raises(ModelFormatError):
            load_model(broken)


def test_truncated_f32_blob(tmp_path):
    params, vocabs, _ = fresh_model()
    path = tmp_path / "model"
    save_model(path, params, vocabs, encoding="f32")
    data = path.read_bytes()
    broken = tmp_path / "broken"
    broken.write_bytes(data[: len(data) // 2])
    with pytest.raises(ModelFormatError):
        load_model(broken)


def test_oversized_f32_blob_is_rejected_before_reading(tmp_path):
    params, vocabs, _ = fresh_model()
    path = tmp_path / "model"
    save_model(path, params, vocabs, encoding="f32")
    lines = path.read_bytes().split(b"\n")
    at = next(i for i, line in enumerate(lines) if line.startswith(b"array e_word "))
    lines[at] = b"array e_word 2 100000 100000"  # 40 GB of float32
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_shape_mismatch_is_rejected(tmp_path):
    params, vocabs, _ = fresh_model()
    path = tmp_path / "model"
    save_model(path, params, vocabs)
    data = path.read_bytes()
    # lie about the first hidden layer width in the dims header
    tampered = data.replace(b"dims 8 4 4 12 10", b"dims 8 4 4 13 10", 1)
    assert tampered != data
    broken = tmp_path / "broken"
    broken.write_bytes(tampered)
    with pytest.raises(ModelFormatError):
        load_model(broken)


def test_trailing_garbage_is_rejected(tmp_path):
    params, vocabs, _ = fresh_model()
    path = tmp_path / "model"
    save_model(path, params, vocabs)
    data = path.read_bytes().replace(b"end model", b"odd model", 1)
    path.write_bytes(data)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_perceptron_decision_count_must_match(tmp_path):
    params, vocabs, _ = fresh_model()
    wrong = PerceptronModel(("py",), len(vocabs.decisions), len(vocabs.decisions) + 1)
    path = tmp_path / "model"
    save_model(path, params, vocabs, wrong)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_perceptron_dimension_must_match_network(tmp_path):
    params, vocabs, _ = fresh_model()
    wrong = PerceptronModel(("py",), 999, len(vocabs.decisions))
    path = tmp_path / "model"
    save_model(path, params, vocabs, wrong)
    with pytest.raises(ModelFormatError):
        load_model(path)


HEADER_KEYWORDS = ("encoding", "dims", "vocab", "network", "array", "perceptron")


@pytest.mark.parametrize("damage", ["cut", "word"])
@pytest.mark.parametrize("keyword", HEADER_KEYWORDS)
def test_damaged_header_line_is_a_format_error(tmp_path, keyword, damage):
    params, vocabs, perceptron = fresh_model(with_perceptron=True)
    path = tmp_path / "model"
    save_model(path, params, vocabs, perceptron)
    lines = path.read_bytes().split(b"\n")
    at = next(i for i, line in enumerate(lines) if line.startswith(keyword.encode() + b" "))
    fields = lines[at].split(b" ")
    # "cut" drops the last field (e.g. "dims 8 4 4 12"); "word" puts text
    # where a number belongs
    lines[at] = b" ".join(fields[:-1] if damage == "cut" else fields[:-1] + [b"many"])
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_bad_decimal_in_array_row_names_array_and_line(tmp_path):
    params, vocabs, _ = fresh_model()
    path = tmp_path / "model"
    save_model(path, params, vocabs)
    lines = path.read_bytes().split(b"\n")
    at = lines.index(next(line for line in lines if line.startswith(b"array b1 "))) + 1
    lines[at] = lines[at].replace(b" ", b" 0.2x ", 1)
    path.write_bytes(b"\n".join(lines))
    with pytest.raises(ModelFormatError, match=rf"array b1 at line {at + 1}\b"):
        load_model(path)


@pytest.mark.parametrize("encoding", ["decimals", "f32"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_in_array_names_the_array(tmp_path, encoding, value):
    params, vocabs, _ = fresh_model()
    params.b_y[1] = value
    path = tmp_path / "model"
    save_model(path, params, vocabs, encoding=encoding)
    with pytest.raises(ModelFormatError, match=r"array b_y holds a non-finite value"):
        load_model(path)


def test_saved_file_holds_no_derived_averages(tmp_path):
    params, vocabs, perceptron = fresh_model(with_perceptron=True)
    path = tmp_path / "model"
    save_model(path, params, vocabs, perceptron)
    data = path.read_bytes()
    assert data.startswith(MODEL_MAGIC.encode() + b"\n")
    assert b"array vbar" not in data


def _as_version_1(data, perceptron, encoding, vbar_shape=None):
    """Rewrite a current model file as version 1, which also stored vbar."""
    import io

    vbar = perceptron.averaged_weights()
    if vbar_shape is not None:
        vbar = np.zeros(vbar_shape)
    extra = io.BytesIO()
    _write_array(extra, "vbar", vbar, encoding)
    data = data.replace(MODEL_MAGIC.encode(), OLD_MAGIC.encode(), 1)
    return data.replace(b"end perceptron\n", extra.getvalue() + b"end perceptron\n", 1)


@pytest.mark.parametrize("encoding", ["decimals", "f32"])
def test_version_1_file_loads_into_the_same_model(tmp_path, encoding):
    params, vocabs, perceptron = fresh_model(with_perceptron=True)
    path = tmp_path / "model"
    save_model(path, params, vocabs, perceptron, encoding=encoding)
    old = tmp_path / "old"
    old.write_bytes(_as_version_1(path.read_bytes(), perceptron, encoding))
    current, loaded = load_model(path), load_model(old)
    assert loaded.encoding == encoding
    assert loaded.params.equal(current.params)
    assert loaded.vocabs.word.entries() == current.vocabs.word.entries()
    for name in ("comp", "d", "t", "average"):
        assert getattr(loaded.perceptron, name) == getattr(current.perceptron, name)
    assert np.array_equal(loaded.perceptron.v, current.perceptron.v)
    assert np.array_equal(loaded.perceptron.u, current.perceptron.u)

    # resaving writes the current version, byte for byte as saved directly
    resaved = tmp_path / "resaved"
    save_model(resaved, loaded.params, loaded.vocabs, loaded.perceptron, encoding=encoding)
    assert resaved.read_bytes() == path.read_bytes()

    bad = _as_version_1(path.read_bytes(), perceptron, encoding, vbar_shape=(2, 3))
    old.write_bytes(bad)
    with pytest.raises(ModelFormatError):
        load_model(old)


# ---------------------------------------------------------------------------
# embeddings files


def test_load_embeddings_with_header(tmp_path):
    path = tmp_path / "emb"
    path.write_text("2 3\nfoo 0.5 -1.0 2.0\nbar 1.0 1.5 -0.25\n")
    table = load_embeddings(path, 3)
    assert set(table) == {"foo", "bar"}
    assert np.array_equal(table["foo"], [0.5, -1.0, 2.0])


def test_load_embeddings_without_header(tmp_path):
    path = tmp_path / "emb"
    path.write_text("foo 0.5 -1.0 2.0\n\nbar 1.0 1.5 -0.25\n")
    table = load_embeddings(path, 3)
    assert set(table) == {"foo", "bar"}


def test_load_embeddings_errors(tmp_path):
    path = tmp_path / "emb"
    path.write_text("2 4\nfoo 0.5 -1.0 2.0 9.0\n")
    with pytest.raises(ValueError):
        load_embeddings(path, 3)
    path.write_text("foo 0.5 -1.0 2.0\nbar 1.0 1.5\n")
    with pytest.raises(ValueError) as err:
        load_embeddings(path, 3)
    assert "line 2" in str(err.value)
    path.write_text("")
    assert load_embeddings(path, 3) == {}


@pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
def test_load_embeddings_rejects_non_finite_values(tmp_path, value):
    path = tmp_path / "emb"
    path.write_text(f"2 3\nfoo 0.5 -1.0 2.0\nbar 1.0 {value} -0.25\n")
    with pytest.raises(ValueError, match=r"embeddings line 3 holds a non-finite value"):
        load_embeddings(path, 3)


# ---------------------------------------------------------------------------
# config files


def test_parse_config_all_keys():
    text = """
    # training preset
    eta0 = 0.07
    mu = 0.85
    gamma = 0.5   # decay interval fraction
    lambda = 0.0002
    batch = 64
    dims = 48,24,24,512,256
    seed = 42
    patience = 6
    """
    config = parse_config_text(text)
    assert config.eta0 == 0.07
    assert config.mu == 0.85
    assert config.gamma == 0.5
    assert config.lam == 0.0002
    assert config.batch == 64
    assert config.dims == Dims(48, 24, 24, 512, 256)
    assert config.seed == 42
    assert config.patience == 6


def test_parse_config_four_part_dims():
    config = parse_config_text("dims=16,8,8,100\n")
    assert config.dims == Dims(16, 8, 8, 100, None)


def test_parse_config_overlays_existing():
    base = TrainConfig(eta0=0.5, batch=4)
    out = parse_config_text("eta0 = 0.25\n", base)
    assert out is base
    assert out.eta0 == 0.25
    assert out.batch == 4


def test_parse_config_errors():
    with pytest.raises(ValueError) as err:
        parse_config_text("eta0 = 0.1\nlearning_rate = 0.2\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ValueError) as err:
        parse_config_text("batch = many\n")
    assert "line 1" in str(err.value)
    with pytest.raises(ValueError):
        parse_config_text("just some words\n")
    with pytest.raises(ValueError):
        parse_config_text("dims = 1,2,3\n")


def test_load_config_file(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text("eta0 = 0.01\nbatch = 8\n")
    config = load_config_file(path)
    assert config.eta0 == 0.01
    assert config.batch == 8
    # untouched keys keep their defaults
    assert config.mu == TrainConfig().mu
