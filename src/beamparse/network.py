"""Feed-forward scorer over discrete parser features.

The input layer gathers one embedding row per feature slot and concatenates
them (word block, then tag block, then label block, each in template order).
One or two fully connected rectified-linear layers follow, then a softmax
over the decisions that are legal in the current configuration; everything
illegal gets probability exactly zero.  Training minimizes the mean negative
log-likelihood of the oracle decisions plus an L2 penalty on the hidden
weight matrices only.
"""

from dataclasses import dataclass

import numpy as np

from . import features as F

INIT_STD = 1e-2  # Gaussian with variance 1e-4 for weights and embeddings
HIDDEN_BIAS_INIT = 0.2  # keeps most rectifier units active at the start


@dataclass
class Dims:
    d_word: int = 64
    d_tag: int = 32
    d_label: int = 32
    m1: int = 200
    m2: int = 200  # None for a single hidden layer

    @classmethod
    def parse(cls, text):
        """Read the ``d_word,d_tag,d_label,m1[,m2]`` form written by str()."""
        parts = text.split(",")
        if len(parts) not in (4, 5):
            raise ValueError("dims needs 4 or 5 comma-separated integers")
        try:
            values = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"dims must be integers: {text!r}") from None
        return cls(*values) if len(values) == 5 else cls(*values, m2=None)

    def __str__(self):
        sizes = (self.d_word, self.d_tag, self.d_label, self.m1, self.m2)
        return ",".join(str(v) for v in sizes if v is not None)

    @property
    def embedded(self):
        return (
            F.N_WORD_FEATURES * self.d_word
            + F.N_TAG_FEATURES * self.d_tag
            + F.N_LABEL_FEATURES * self.d_label
        )

    def validate(self):
        for name in ("d_word", "d_tag", "d_label", "m1"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.m2 is not None and self.m2 < 1:
            raise ValueError("m2 must be positive or None")


class NetworkParams:
    """All learned matrices, plus the vocabulary sizes they were built for."""

    def __init__(self, dims, sizes, arrays):
        self.dims = dims
        self.sizes = sizes  # (n_words, n_tags, n_labels, n_decisions)
        for name, arr in arrays.items():
            setattr(self, name, arr)
        self._names = list(arrays)

    def field_names(self):
        return list(self._names)

    def fields(self):
        return [(name, getattr(self, name)) for name in self._names]

    @property
    def two_layers(self):
        return self.dims.m2 is not None

    def copy(self):
        return NetworkParams(self.dims, self.sizes, {n: a.copy() for n, a in self.fields()})

    def zeros_like(self):
        return {n: np.zeros_like(a) for n, a in self.fields()}

    def equal(self, other):
        return self._names == other._names and all(
            np.array_equal(getattr(self, n), getattr(other, n)) for n in self._names
        )


def init_params(vocabs, dims, rng, embeddings=None):
    """Fresh parameters: Gaussian(0, 1e-4) weights, hidden biases at 0.2.

    ``embeddings`` maps word strings to vectors of length d_word; rows for
    covered vocabulary entries are copied in, everything else (including the
    special tokens) stays randomly initialized.
    """
    dims.validate()
    nw, nt, nl = len(vocabs.word), len(vocabs.tag), len(vocabs.label)
    ny = len(vocabs.decisions)
    e = dims.embedded
    m_last = dims.m2 if dims.m2 is not None else dims.m1
    arrays = {
        "e_word": rng.normal(0.0, INIT_STD, (nw, dims.d_word)),
        "e_tag": rng.normal(0.0, INIT_STD, (nt, dims.d_tag)),
        "e_label": rng.normal(0.0, INIT_STD, (nl, dims.d_label)),
        "w1": rng.normal(0.0, INIT_STD, (dims.m1, e)),
        "b1": np.full(dims.m1, HIDDEN_BIAS_INIT),
    }
    if dims.m2 is not None:
        arrays["w2"] = rng.normal(0.0, INIT_STD, (dims.m2, dims.m1))
        arrays["b2"] = np.full(dims.m2, HIDDEN_BIAS_INIT)
    arrays["beta"] = rng.normal(0.0, INIT_STD, (ny, m_last))
    arrays["b_y"] = np.zeros(ny)
    if embeddings:
        copied = 0
        for word, vec in embeddings.items():
            if len(vec) != dims.d_word:
                raise ValueError(
                    f"embedding for {word!r} has dimension {len(vec)}, expected {dims.d_word}"
                )
            if word in vocabs.word:
                arrays["e_word"][vocabs.word.id(word)] = vec
                copied += 1
    return NetworkParams(dims, (nw, nt, nl, ny), arrays)


@dataclass
class ForwardTrace:
    word_ids: np.ndarray
    tag_ids: np.ndarray
    label_ids: np.ndarray
    legal: np.ndarray  # (B, |Y|) bool
    h0: np.ndarray
    z1: np.ndarray
    h1: np.ndarray
    z2: np.ndarray  # None for one-layer networks
    h2: np.ndarray
    log_probs: np.ndarray  # -inf at illegal decisions
    probs: np.ndarray  # exactly 0.0 at illegal decisions

    @property
    def h_last(self):
        return self.h1 if self.h2 is None else self.h2


def _as_batch(ids, width):
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.shape[1] != width:
        raise ValueError(f"expected {width} feature ids per row, got {ids.shape[1]}")
    return ids


def stack_features(feature_list):
    """Stack per-configuration FeatureIds into batched id matrices."""
    w = np.stack([f.word_ids for f in feature_list])
    t = np.stack([f.tag_ids for f in feature_list])
    l = np.stack([f.label_ids for f in feature_list])
    return w, t, l


def forward(params, word_ids, tag_ids, label_ids, legal, precomp=None, work=None):
    """Run the network on a batch of feature rows with per-row legality masks.

    With a ``work`` Workspace the embedded rows are written into its h0 rows.
    """
    w = _as_batch(word_ids, F.N_WORD_FEATURES)
    t = _as_batch(tag_ids, F.N_TAG_FEATURES)
    l = _as_batch(label_ids, F.N_LABEL_FEATURES)
    legal = np.asarray(legal, dtype=bool)
    if legal.ndim == 1:
        legal = legal[None, :]
    b = w.shape[0]
    nw, nt, nl, ny = params.sizes
    if w.max() >= nw or t.max() >= nt or l.max() >= nl:
        raise ValueError("feature id outside the vocabulary the network was built for")
    if legal.shape != (b, ny):
        raise ValueError(f"legal mask shape {legal.shape} does not match ({b}, {ny})")
    if not legal.any(axis=1).all():
        raise ValueError("every example needs at least one legal decision")

    if precomp is not None:
        h0 = None  # inference shortcut; the gradient path never uses precomp
        z1 = precomp.hidden_preactivation(w, t, l)
    else:
        h0 = np.empty((b, params.dims.embedded)) if work is None else work.h0[:b]
        col = 0
        for table, ids in ((params.e_word, w), (params.e_tag, t), (params.e_label, l)):
            width = ids.shape[1] * table.shape[1]
            block = h0[:, col : col + width].reshape(b, ids.shape[1], table.shape[1])
            np.take(table, ids, axis=0, out=block)
            col += width
        z1 = h0 @ params.w1.T + params.b1
    h1 = np.maximum(z1, 0.0)
    if params.two_layers:
        z2 = h1 @ params.w2.T + params.b2
        h2 = np.maximum(z2, 0.0)
        h_last = h2
    else:
        z2 = h2 = None
        h_last = h1
    logits = h_last @ params.beta.T + params.b_y

    # Masking once suffices: every row has a legal decision, so peak and norm
    # are finite, -inf minus a finite value stays -inf and exp(-inf) is 0.
    masked = np.where(legal, logits, -np.inf)
    peak = masked.max(axis=1, keepdims=True)
    expd = np.exp(masked - peak)
    norm = expd.sum(axis=1, keepdims=True)
    log_probs = masked - peak - np.log(norm)
    probs = expd / norm
    return ForwardTrace(w, t, l, legal, h0, z1, h1, z2, h2, log_probs, probs)


def forward_config(params, config, sentence, precomp=None):
    """Single-configuration forward pass; returns the trace with batch size 1."""
    feats = F.extract_features(config, sentence)
    mask = sentence.decisions.legal_mask(config)
    return forward(params, feats.word_ids, feats.tag_ids, feats.label_ids, mask, precomp)


# Values per block of a blocked elementwise pass over a parameter: 128 KB of
# float64, so the few blocks one step touches stay in a core's L2 cache.
BLOCK = 1 << 14


class Workspace:
    """Arrays that training reuses for every update instead of allocating
    them: one gradient per parameter, the embedded rows h0 and their
    gradient dh0 for batches of up to ``rows`` rows, and one block of
    scratch."""

    def __init__(self, params, rows):
        self.grads = {n: np.empty_like(a) for n, a in params.fields()}
        self.h0 = np.empty((rows, params.dims.embedded))
        self.dh0 = np.empty_like(self.h0)
        self.scratch = np.empty(BLOCK)


def _weight_gradient(out, dz, h, scale, w, scratch):
    """out = dz.T @ h + scale * w, adding the L2 term one block at a time."""
    np.matmul(dz.T, h, out=out)
    out, w = out.reshape(-1), w.reshape(-1)
    for i in range(0, w.size, BLOCK):
        part = np.multiply(w[i : i + BLOCK], scale, out=scratch[: min(BLOCK, w.size - i)])
        out[i : i + BLOCK] += part


def loss_and_gradient(params, word_ids, tag_ids, label_ids, legal, gold, lam, work=None):
    """Mean NLL of the gold decisions plus lam * sum of squared hidden weights.

    The gradient covers every parameter; the L2 term touches only w1 (and w2).
    With a ``work`` Workspace sized for the batch, the gradients are written
    into ``work.grads`` (whatever it held) and that dict is returned, so no
    parameter-sized array is allocated; without one, fresh arrays are.
    """
    trace = forward(params, word_ids, tag_ids, label_ids, legal, work=work)
    b = trace.log_probs.shape[0]
    if work is None:
        work = Workspace(params, b)
    grads = work.grads
    gold = np.asarray(gold, dtype=np.int64)
    if not trace.legal[np.arange(b), gold].all():
        raise ValueError("gold decision is illegal in its configuration")
    nll = -trace.log_probs[np.arange(b), gold]
    # the squares go into the weight gradients' arrays, which the backward
    # pass overwrites
    loss = float(nll.mean()) + lam * float(np.square(params.w1, out=grads["w1"]).sum())
    if params.two_layers:
        loss += lam * float(np.square(params.w2, out=grads["w2"]).sum())

    dlogits = trace.probs
    dlogits[np.arange(b), gold] -= 1.0
    dlogits /= b

    np.matmul(dlogits.T, trace.h_last, out=grads["beta"])
    dlogits.sum(axis=0, out=grads["b_y"])
    dh = dlogits @ params.beta
    if params.two_layers:
        dz2 = dh * (trace.z2 > 0.0)
        _weight_gradient(grads["w2"], dz2, trace.h1, 2.0 * lam, params.w2, work.scratch)
        dz2.sum(axis=0, out=grads["b2"])
        dh = dz2 @ params.w2
    dz1 = dh * (trace.z1 > 0.0)
    _weight_gradient(grads["w1"], dz1, trace.h0, 2.0 * lam, params.w1, work.scratch)
    dz1.sum(axis=0, out=grads["b1"])
    dh0 = np.matmul(dz1, params.w1, out=work.dh0[:b])

    col = 0
    for name, ids in (("e_word", trace.word_ids), ("e_tag", trace.tag_ids), ("e_label", trace.label_ids)):
        grad = grads[name]
        d = grad.shape[1]
        grad.fill(0.0)
        np.add.at(grad, ids.ravel(), dh0[:, col : col + ids.shape[1] * d].reshape(-1, d))
        col += ids.shape[1] * d
    return loss, grads


def greedy_parse(params, tree, vocabs, precomp=None):
    """Parse by always taking the most probable legal decision: the beam
    decoder at width 1, so ties go to the lowest decision id."""
    from .decoder import beam_parse  # decoder imports this module

    return beam_parse(params, tree, vocabs, 1, precomp=precomp)


# A gathered block of slot rows for at most this many batch-row units
# (rows x m1) stays in cache; larger batches are summed in chunks of rows.
GATHER_ROWS_UNITS = 2048


class Precomputation:
    """Per-slot lookup tables for the first hidden layer's pre-activation.

    For every (slot, feature id) pair the contribution of that embedding row
    through its column block of w1 is cached, so the first layer becomes a
    sum of table rows plus the bias.  Each feature group is one flat table
    of its slots stacked (slot s of V ids owns rows s*V to s*V + V - 1); the
    word table holds b1 in an extra row 0.  At any batch size the result is
    bit-identical to ``b1 + row(w0) + ... + row(w19) + row(t0) + ... +
    row(l11)`` added left to right.
    """

    def __init__(self, params):
        dims = params.dims
        m1 = dims.m1

        def table(emb, count, d, offset, head=0):
            flat = np.empty((head + count * emb.shape[0], m1))
            slots = flat[head:].reshape(count, emb.shape[0], m1)
            for s in range(count):
                block = params.w1[:, offset + s * d : offset + (s + 1) * d]
                slots[s] = emb @ block.T
            return flat, slots

        wb = F.N_WORD_FEATURES * dims.d_word
        tb = wb + F.N_TAG_FEATURES * dims.d_tag
        # Three allocations, not one: freeing a single table of this size
        # left it in the heap, so peak RSS grew across repeated parse calls.
        word, self.word_tables = table(params.e_word, F.N_WORD_FEATURES, dims.d_word, 0, head=1)
        word[0] = params.b1
        tag, self.tag_tables = table(params.e_tag, F.N_TAG_FEATURES, dims.d_tag, wb)
        label, self.label_tables = table(params.e_label, F.N_LABEL_FEATURES, dims.d_label, tb)
        # Row offsets for the id matrix [0, words, 0, tags, 0, labels]; each
        # group's leading column is the row its sum starts from: b1 for the
        # words, then the running sum written over the gathered row.
        nw, nt, nl = params.sizes[:3]
        self.offsets = np.concatenate([
            [0], 1 + nw * np.arange(F.N_WORD_FEATURES),
            [0], nt * np.arange(F.N_TAG_FEATURES),
            [0], nl * np.arange(F.N_LABEL_FEATURES),
        ])
        tw = 1 + F.N_WORD_FEATURES
        tt = tw + 1 + F.N_TAG_FEATURES
        self._groups = ((word, slice(0, tw)), (tag, slice(tw, tt)), (label, slice(tt, None)))

    def hidden_preactivation(self, word_ids, tag_ids, label_ids):
        b, m1 = word_ids.shape[0], self.word_tables.shape[2]
        lead = np.zeros((b, 1), dtype=np.int64)
        rows = np.concatenate([lead, word_ids, lead, tag_ids, lead, label_ids], axis=1) + self.offsets
        chunk = max(1, GATHER_ROWS_UNITS // m1)
        if b <= chunk:
            return self._sum(rows)
        z = np.empty((b, m1))
        for i in range(0, b, chunk):
            z[i : i + chunk] = self._sum(rows[i : i + chunk])
        return z

    def _sum(self, rows):
        # sum(axis=1) adds a gathered block's slot rows in order; column 0 of
        # each block after the first holds the sum so far
        z = None
        for table, cols in self._groups:
            block = table[rows[:, cols]]
            if z is not None:
                block[:, 0] = z
            z = block.sum(axis=1)
        return z
