"""Mini-batched SGD with momentum, stepped learning-rate decay, and
parameter averaging, plus the greedy-oracle training loop.

Every update folds the gradient into a momentum buffer, moves the raw
parameters, and then blends them into a running average; decoding and the
returned model use the averaged copy, which is markedly more stable than
the final iterate.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import decoder
from . import network as N
from . import transitions as T
from .features import N_LABEL_FEATURES, N_TAG_FEATURES, N_WORD_FEATURES, extract_batch
from .features import extract_features  # noqa: F401  (unused; the benchmark's tracer wraps this name)
from .treebank import evaluate

DECAY_FACTOR = 0.96


class TrainingDiverged(RuntimeError):
    """Raised when a gradient or parameter block stops being finite."""


def averaging_weight(t):
    """Blend weight for the running parameter average at 1-based update t.

    Starts at exactly 0.1 (the first update moves the average most of the
    way to the current iterate) and climbs toward the 0.9999 cap like
    1 - 1/(0.9 t), so late iterates barely perturb the average.
    """
    return min(max(1.0 - 1.0 / (0.9 * (t - 1) + 10.0 / 9.0), 0.1), 0.9999)


@dataclass
class TrainConfig:
    eta0: float = 0.05
    mu: float = 0.9
    gamma: float = 0.2  # decay the learning rate every gamma-fraction of an epoch
    lam: float = 1e-4
    batch: int = 32
    epochs: int = 100
    patience: int = 10
    seed: int = 1
    dims: N.Dims = field(default_factory=N.Dims)
    word_min_count: int = 2
    max_seconds: float | None = None

    def validate(self):
        if self.eta0 <= 0:
            raise ValueError("eta0 must be positive")
        if not 0.0 <= self.mu < 1.0:
            raise ValueError("mu must lie in [0, 1)")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.lam < 0:
            raise ValueError("lambda must be non-negative")
        if self.batch < 1 or self.epochs < 1 or self.patience < 1:
            raise ValueError("batch, epochs, and patience must be positive")
        self.dims.validate()


class TrainerState:
    """Raw parameters, their momentum buffer, the running average, and the
    workspace every update reuses for batches of up to ``batch`` rows."""

    def __init__(self, params, eta0, mu, decay_every, batch):
        self.params = params
        self.velocity = params.zeros_like()
        self.average = params.copy()
        self.work = N.Workspace(params, batch)
        self.eta = eta0
        self.mu = mu
        self.decay_every = decay_every
        self.t = 0  # completed updates


def _finite(arr):
    arr = arr.reshape(-1)
    return all(np.isfinite(arr[i : i + N.BLOCK]).all() for i in range(0, arr.size, N.BLOCK))


def sgd_step(state, grads):
    """One update: momentum fold, parameter move, rate decay, averaging.

    Each parameter is walked in blocks of N.BLOCK values, and each block
    goes through the whole update while it is in cache.
    """
    t = state.t + 1
    params = state.params
    names = params.field_names()
    for name in names:  # every block is checked before any of them moves
        if not _finite(grads[name]):
            raise TrainingDiverged(
                f"non-finite gradient in {name} at update {t} (eta={state.eta:g})"
            )
    eta, mu, alpha = state.eta, state.mu, averaging_weight(t)
    scratch = state.work.scratch
    finite = True
    for name in names:
        p = getattr(params, name).reshape(-1)
        v = state.velocity[name].reshape(-1)
        g = grads[name].reshape(-1)
        avg = getattr(state.average, name).reshape(-1)
        for i in range(0, p.size, N.BLOCK):
            block = slice(i, i + N.BLOCK)
            tmp = scratch[: min(N.BLOCK, p.size - i)]
            vb, pb, ab = v[block], p[block], avg[block]
            vb *= mu
            vb -= g[block]
            pb += np.multiply(vb, eta, out=tmp)
            ab *= alpha
            ab += np.multiply(pb, 1.0 - alpha, out=tmp)
            finite = finite and np.isfinite(pb).all()
    if t % state.decay_every == 0:
        state.eta *= DECAY_FACTOR
    state.t = t
    if not finite:
        raise TrainingDiverged(f"non-finite parameters after update {t} (eta={state.eta:g})")


class OracleDataset:
    """Flattened (features, legal mask, gold decision) rows from oracle replay."""

    def __init__(self, word_ids, tag_ids, label_ids, legal, gold, n_sentences, skipped):
        self.word_ids = word_ids
        self.tag_ids = tag_ids
        self.label_ids = label_ids
        self.legal = legal
        self.gold = gold
        self.n_sentences = n_sentences
        self.skipped = skipped

    def __len__(self):
        return self.gold.shape[0]


def build_oracle_dataset(trees, vocabs):
    """Replay the oracle over every projective sentence and collect one
    training row per decision.  Sentences the oracle cannot derive (typically
    non-projective or multi-rooted) are skipped and counted."""
    decisions = vocabs.decisions
    derived = []
    skipped = 0
    for tree in trees:
        try:
            derived.append((tree, T.derive_oracle_sequence(tree)))
        except T.OracleError:
            skipped += 1
    n_rows = sum(len(seq) for _, seq in derived)
    if not n_rows:
        raise ValueError("no projective sentences to train on")
    # int32 ids: the dataset holds every row of the training set at once
    word = np.empty((n_rows, N_WORD_FEATURES), dtype=np.int32)
    tag = np.empty((n_rows, N_TAG_FEATURES), dtype=np.int32)
    label = np.empty((n_rows, N_LABEL_FEATURES), dtype=np.int32)
    legal = np.empty((n_rows, len(decisions)), dtype=bool)
    gold = np.empty(n_rows, dtype=np.int64)
    start = 0
    for tree, seq in derived:
        # the configurations each decision is taken in; the last one's
        # successor is never scored
        configs = [T.initial_configuration(len(tree))]
        for decision in seq[:-1]:
            configs.append(T.apply(configs[-1], decision))
        rows = slice(start, start + len(seq))
        word[rows], tag[rows], label[rows] = extract_batch(configs, vocabs.index_sentence(tree))
        legal[rows] = [decisions.legal_mask(c) for c in configs]
        gold[rows] = [decisions.id_of(d) for d in seq]
        start += len(seq)
    return OracleDataset(word, tag, label, legal, gold, len(derived), skipped)


@dataclass
class EpochRecord:
    epoch: int
    mean_loss: float
    dev_uas: float
    dev_las: float
    eta: float
    updates: int


@dataclass
class TrainStats:
    skipped_nonprojective: int
    n_sentences: int
    n_examples: int
    epochs_run: int
    best_epoch: int
    best_uas: float
    history: list


def _dev_scores(params, dev_trees, vocabs):
    precomp = N.Precomputation(params)
    predicted = [
        decoder.beam_parse(params, tree, vocabs, 1, precomp=precomp) for tree in dev_trees
    ]
    report = evaluate(dev_trees, predicted)
    return report.uas, report.las


def train_greedy(train_trees, dev_trees, vocabs, config, embeddings=None, log=None):
    """Train the network on oracle decisions; returns (averaged params, stats).

    Early stopping tracks held-out UAS under greedy decoding of the averaged
    parameters, keeping the best snapshot seen.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    data = build_oracle_dataset(train_trees, vocabs)
    params = N.init_params(vocabs, config.dims, rng, embeddings)
    updates_per_epoch = math.ceil(len(data) / config.batch)
    decay_every = max(1, round(config.gamma * updates_per_epoch))
    state = TrainerState(params, config.eta0, config.mu, decay_every, config.batch)

    best_uas = -1.0
    best_epoch = 0
    best_params = state.average.copy()
    stale = 0
    history = []
    started = time.monotonic()
    epochs_run = 0
    for epoch in range(1, config.epochs + 1):
        perm = rng.permutation(len(data))
        loss_sum = 0.0
        for start in range(0, len(data), config.batch):
            idx = perm[start : start + config.batch]
            loss, grads = N.loss_and_gradient(
                state.params,
                data.word_ids[idx],
                data.tag_ids[idx],
                data.label_ids[idx],
                data.legal[idx],
                data.gold[idx],
                config.lam,
                state.work,
            )
            sgd_step(state, grads)
            loss_sum += loss * len(idx)
        epochs_run = epoch
        uas, las = _dev_scores(state.average, dev_trees, vocabs) if dev_trees else (0.0, 0.0)
        record = EpochRecord(epoch, loss_sum / len(data), uas, las, state.eta, state.t)
        history.append(record)
        if log is not None:
            log(record)
        if uas > best_uas:
            best_uas = uas
            best_epoch = epoch
            best_params = state.average.copy()
            stale = 0
        else:
            stale += 1
            if dev_trees and stale >= config.patience:
                break
        if config.max_seconds is not None and time.monotonic() - started >= config.max_seconds:
            break
    if not dev_trees:
        best_params = state.average.copy()
        best_epoch = epochs_run
        best_uas = 0.0
    stats = TrainStats(
        skipped_nonprojective=data.skipped,
        n_sentences=data.n_sentences,
        n_examples=len(data),
        epochs_run=epochs_run,
        best_epoch=best_epoch,
        best_uas=best_uas,
        history=history,
    )
    return best_params, stats
