"""Model file serialization, embedding files, and key=value config files.

The model file is a single versioned container: a short text header (format
version, number encoding, layer dimensions), the three vocabularies, every
network array, and optionally the perceptron section.  Numbers are stored
either as decimal text (repr round-trip, so float64 values survive exactly)
or as raw little-endian float32 blocks; saving a loaded model reproduces the
file byte for byte in both encodings.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from .decoder import PerceptronModel, phi_dimension
from .features import Vocabulary, Vocabs
from .network import Dims, NetworkParams
from .training import TrainConfig

MODEL_MAGIC = "beamparse model 2"
# version 1 also stored the averaged perceptron weights, derivable from v, u, t
OLD_MAGIC = "beamparse model 1"
ENCODINGS = ("decimals", "f32")


class ModelFormatError(ValueError):
    pass


def _write_line(f, text):
    f.write(text.encode("utf-8") + b"\n")


def _write_array(f, name, arr, encoding):
    shape = " ".join(str(s) for s in arr.shape)
    _write_line(f, f"array {name} {arr.ndim} {shape}")
    if encoding == "decimals":
        rows = arr.reshape(1, -1) if arr.ndim == 1 else arr
        for row in rows:
            _write_line(f, " ".join(repr(float(v)) for v in row))
    else:
        f.write(arr.astype("<f4").tobytes())
        f.write(b"\n")


class _Reader:
    def __init__(self, f):
        self.f = f
        self.lineno = 0

    def line(self):
        raw = self.f.readline()
        if not raw:
            raise ModelFormatError(f"unexpected end of model file at line {self.lineno}")
        self.lineno += 1
        return raw.decode("utf-8").rstrip("\n")

    def header(self, keyword, *kinds, rest=None, line=None):
        """Read a ``keyword field ...`` line and convert each field by its kind.

        ``rest`` converts any fields beyond ``kinds``; without it the count
        must match exactly.  ``line`` passes in a line already read.
        """
        line = self.line() if line is None else line
        parts = line.split()
        if parts[:1] != [keyword]:
            raise ModelFormatError(f"expected {keyword!r} at line {self.lineno}, found {line!r}")
        fields = parts[1:]
        if len(fields) < len(kinds) or (rest is None and len(fields) > len(kinds)):
            raise ModelFormatError(
                f"{keyword} line {self.lineno} has {len(fields)} fields, expected {len(kinds)}"
            )
        kinds += (rest,) * (len(fields) - len(kinds))
        try:
            return [kind(field) for kind, field in zip(kinds, fields)]
        except ValueError:
            raise ModelFormatError(f"bad number in {keyword} line {self.lineno}: {line!r}") from None

    def blob(self, nbytes):
        # checked before reading: read() allocates the requested size up front
        if nbytes > os.fstat(self.f.fileno()).st_size - self.f.tell():
            raise ModelFormatError("truncated binary block in model file")
        data = self.f.read(nbytes)
        if self.f.read(1) != b"\n":
            raise ModelFormatError("missing terminator after binary block")
        return data


def _count(text):
    value = int(text)
    if value < 0:
        raise ValueError(f"negative count: {value}")
    return value


def _count_or_dash(text):
    return None if text == "-" else _count(text)


def _read_array(reader, encoding):
    name, ndim, *shape = reader.header("array", str, _count, rest=_count)
    if len(shape) != ndim:
        raise ModelFormatError(f"array {name} declares {ndim} dimensions, lists {len(shape)}")
    shape = tuple(shape)
    count = math.prod(shape) if shape else 0
    if encoding == "decimals":
        n_lines = 1 if ndim == 1 else shape[0]
        values = []
        for _ in range(n_lines):
            line = reader.line()
            try:
                values.extend(float(tok) for tok in line.split())
            except ValueError:
                raise ModelFormatError(
                    f"bad number in array {name} at line {reader.lineno}: {line[:80]!r}"
                ) from None
        arr = np.array(values, dtype=np.float64)
    else:
        arr = np.frombuffer(reader.blob(count * 4), dtype="<f4")
    if arr.size != count:
        raise ModelFormatError(f"array {name} has {arr.size} values, expected {count}")
    if not np.isfinite(arr).all():
        raise ModelFormatError(f"array {name} holds a non-finite value")
    return name, np.asarray(arr, dtype=np.float64).reshape(shape)


def _write_vocab(f, vocab):
    entries = vocab.entries()
    _write_line(f, f"vocab {vocab.group} {len(entries)}")
    for entry in entries:
        _write_line(f, entry)


def _read_vocab(reader, group):
    found, count = reader.header("vocab", str, _count)
    if found != group:
        raise ModelFormatError(f"expected {group} vocabulary, found {found!r}")
    return Vocabulary(group, [reader.line() for _ in range(count)])


@dataclass
class LoadedModel:
    params: NetworkParams
    vocabs: Vocabs
    perceptron: PerceptronModel | None
    encoding: str


def save_model(path, params, vocabs, perceptron=None, encoding="decimals"):
    if encoding not in ENCODINGS:
        raise ValueError(f"unknown model encoding: {encoding!r}")
    dims = params.dims
    with open(path, "wb") as f:
        _write_line(f, MODEL_MAGIC)
        _write_line(f, f"encoding {encoding}")
        m2 = "-" if dims.m2 is None else str(dims.m2)
        _write_line(f, f"dims {dims.d_word} {dims.d_tag} {dims.d_label} {dims.m1} {m2}")
        _write_vocab(f, vocabs.word)
        _write_vocab(f, vocabs.tag)
        _write_vocab(f, vocabs.label)
        fields = params.fields()
        _write_line(f, f"network {len(fields)}")
        for name, arr in fields:
            _write_array(f, name, arr, encoding)
        _write_line(f, "end network")
        if perceptron is not None:
            comp = ",".join(perceptron.comp)
            flag = 1 if perceptron.average else 0
            _write_line(
                f,
                f"perceptron {comp} {perceptron.d} {perceptron.n_decisions} {perceptron.t} {flag}",
            )
            _write_array(f, "v", perceptron.v, encoding)
            _write_array(f, "u", perceptron.u, encoding)
            _write_line(f, "end perceptron")
        _write_line(f, "end model")


def load_model(path):
    with open(path, "rb") as f:
        reader = _Reader(f)
        magic = reader.line()
        if magic not in (MODEL_MAGIC, OLD_MAGIC):
            raise ModelFormatError("not a model file (bad magic line)")
        (encoding,) = reader.header("encoding", str)
        if encoding not in ENCODINGS:
            raise ModelFormatError(f"unknown model encoding: {encoding!r}")
        dims = Dims(*reader.header("dims", _count, _count, _count, _count, _count_or_dash))
        vocabs = Vocabs(
            _read_vocab(reader, "word"),
            _read_vocab(reader, "tag"),
            _read_vocab(reader, "label"),
        )
        (n_fields,) = reader.header("network", _count)
        arrays = dict(_read_array(reader, encoding) for _ in range(n_fields))
        if reader.line() != "end network":
            raise ModelFormatError("network section not terminated")
        sizes = (len(vocabs.word), len(vocabs.tag), len(vocabs.label), len(vocabs.decisions))
        params = NetworkParams(dims, sizes, arrays)
        _check_network_shapes(params)

        perceptron = None
        line = reader.line()
        if line.startswith("perceptron "):
            comp, d, ny, t, flag = reader.header(
                "perceptron", str, _count, _count, _count, _count, line=line
            )
            comp = tuple(comp.split(","))
            if ny != sizes[3]:
                raise ModelFormatError(
                    f"perceptron covers {ny} decisions, vocabularies induce {sizes[3]}"
                )
            try:
                want_d = phi_dimension(params, comp)
            except ValueError as exc:
                raise ModelFormatError(str(exc)) from None
            if d != want_d:
                raise ModelFormatError(
                    f"perceptron dimension {d} does not match the network ({want_d})"
                )
            perceptron = PerceptronModel(comp, d, ny, average=bool(flag))
            names = ("v", "u") if magic == MODEL_MAGIC else ("v", "u", "vbar")
            section = dict(_read_array(reader, encoding) for _ in names)
            for name in names:
                if name not in section or section[name].shape != (ny, d):
                    raise ModelFormatError(f"perceptron array {name} missing or misshaped")
            perceptron.v = section["v"]
            perceptron.u = section["u"]
            perceptron.t = t
            if reader.line() != "end perceptron":
                raise ModelFormatError("perceptron section not terminated")
            line = reader.line()
        if line != "end model":
            raise ModelFormatError(f"unexpected trailing content: {line!r}")
    return LoadedModel(params, vocabs, perceptron, encoding)


def _check_network_shapes(params):
    dims, (nw, nt, nl, ny) = params.dims, params.sizes
    m_last = dims.m2 if dims.m2 is not None else dims.m1
    expected = {
        "e_word": (nw, dims.d_word),
        "e_tag": (nt, dims.d_tag),
        "e_label": (nl, dims.d_label),
        "w1": (dims.m1, dims.embedded),
        "b1": (dims.m1,),
        "beta": (ny, m_last),
        "b_y": (ny,),
    }
    if dims.m2 is not None:
        expected["w2"] = (dims.m2, dims.m1)
        expected["b2"] = (dims.m2,)
    names = set(params.field_names())
    if names != set(expected):
        raise ModelFormatError(
            f"network arrays {sorted(names)} do not match dims (want {sorted(expected)})"
        )
    for name, shape in expected.items():
        actual = getattr(params, name).shape
        if actual != shape:
            raise ModelFormatError(f"array {name} has shape {actual}, expected {shape}")


def load_embeddings(path, d_word):
    """Read a text embeddings file: optional "count dim" header, then one
    "word v_1 ... v_D" line per word."""
    table = {}
    with open(path, "r", encoding="utf-8") as f:
        first = f.readline()
        if not first:
            return table
        parts = first.split()
        header = len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts)
        if header:
            if int(parts[1]) != d_word:
                raise ValueError(
                    f"embeddings file declares dimension {parts[1]}, expected {d_word}"
                )
        else:
            _add_embedding(table, parts, d_word, 1)
        for lineno, line in enumerate(f, 2):
            parts = line.split()
            if parts:
                _add_embedding(table, parts, d_word, lineno)
    return table


def _add_embedding(table, parts, d_word, lineno):
    if len(parts) != d_word + 1:
        raise ValueError(
            f"embeddings line {lineno} has {len(parts) - 1} values, expected {d_word}"
        )
    vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
    if not np.isfinite(vec).all():
        raise ValueError(f"embeddings line {lineno} holds a non-finite value")
    table[parts[0]] = vec


CONFIG_KEYS = ("eta0", "mu", "gamma", "lambda", "batch", "dims", "seed", "patience")


def parse_config_text(text, config=None):
    """Apply key=value lines to a TrainConfig; '#' comments and blanks skipped."""
    config = config if config is not None else TrainConfig()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ValueError(f"unknown config key {key!r} on line {lineno}")
        try:
            _apply_config_value(config, key, value)
        except ValueError as exc:
            raise ValueError(f"bad value for {key!r} on line {lineno}: {exc}") from None
    return config


def _apply_config_value(config, key, value):
    if key == "eta0":
        config.eta0 = float(value)
    elif key == "mu":
        config.mu = float(value)
    elif key == "gamma":
        config.gamma = float(value)
    elif key == "lambda":
        config.lam = float(value)
    elif key == "batch":
        config.batch = int(value)
    elif key == "seed":
        config.seed = int(value)
    elif key == "patience":
        config.patience = int(value)
    else:
        config.dims = Dims.parse(value)


def load_config_file(path, config=None):
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read(), config)
