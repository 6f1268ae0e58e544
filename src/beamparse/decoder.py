"""Beam-search decoding and structured perceptron training.

The beam explores decision sequences in lockstep: at every step every legal
(item, decision) pair is ranked by cumulative score, and only the best B are
built into new configurations; ties go to the earlier item, then the lower
decision id.  Greedy decoding is the same search at width 1.  Scores come
either from the network's legal-masked log-probabilities or from
per-decision perceptron weight vectors dotted with a representation phi
built from the frozen network's activations.

Perceptron training follows the early-update recipe: decode with the gold
sequence flagged through the beam, and at the first step where the gold
prefix falls out, reward the gold prefix and penalize the best surviving
prefix.  Weight averaging runs over per-sentence time steps.
"""

from dataclasses import dataclass, field

import numpy as np

from . import network as N
from . import transitions as T
# decoder.extract_features is a name perfbench/tracing.py wraps
from .features import extract_batch, extract_features  # noqa: F401
from .treebank import evaluate

PHI_BLOCK_ORDER = ("h1", "h2", "py")
PHI_COMPOSITIONS = (("h2",), ("py",), ("h1", "h2"), ("h1", "h2", "py"))


def normalize_composition(comp):
    """Canonicalize a phi composition to block order; reject unknown combos."""
    blocks = tuple(b for b in PHI_BLOCK_ORDER if b in comp)
    unknown = set(comp) - set(PHI_BLOCK_ORDER)
    if unknown:
        raise ValueError(f"unknown phi blocks: {sorted(unknown)}")
    if blocks not in PHI_COMPOSITIONS:
        raise ValueError(f"unsupported phi composition: {comp}")
    return blocks


def phi_dimension(params, comp):
    comp = normalize_composition(comp)
    dims = params.dims
    total = 0
    for block in comp:
        if block == "h1":
            total += dims.m1
        elif block == "h2":
            if dims.m2 is None:
                raise ValueError("phi references h2 but the network has one hidden layer")
            total += dims.m2
        else:
            total += params.sizes[3]
    return total


def compute_phi(trace, comp):
    """Concatenate the requested blocks of a forward trace, one row per input.

    Blocks always appear in the order h1, h2, probabilities; the probability
    block is the full decision-space vector with zeros at illegal entries.
    """
    comp = normalize_composition(comp)
    parts = []
    for block in comp:
        if block == "h1":
            parts.append(trace.h1)
        elif block == "h2":
            if trace.h2 is None:
                raise ValueError("phi references h2 but the network has one hidden layer")
            parts.append(trace.h2)
        else:
            parts.append(trace.probs)
    return np.concatenate(parts, axis=1)


class PerceptronModel:
    """Per-decision weight vectors with running-average bookkeeping.

    ``t`` counts processed sentences; ``u`` accumulates t-weighted updates so
    the all-iterates average is ((t+1)v - u) / t without storing snapshots.
    """

    def __init__(self, comp, d, n_decisions, average=True):
        self.comp = normalize_composition(comp)
        self.d = d
        self.v = np.zeros((n_decisions, d))
        self.u = np.zeros((n_decisions, d))
        self.t = 0
        self.average = average

    @property
    def n_decisions(self):
        return self.v.shape[0]

    def averaged_weights(self):
        if self.t == 0:
            return self.v.copy()
        return ((self.t + 1) * self.v - self.u) / self.t

    def decode_weights(self):
        return self.averaged_weights() if self.average else self.v.copy()


class BeamItem:
    __slots__ = ("config", "score", "history", "gold_flag")

    def __init__(self, config, score, history, gold_flag):
        self.config = config
        self.score = score
        self.history = history
        self.gold_flag = gold_flag


def _forward_configs(params, sentence, configs, precomp):
    """Run the network on a list of configurations, one row each."""
    w, t, l = extract_batch(configs, sentence)
    masks = np.array([sentence.decisions.legal_mask(c) for c in configs])
    return N.forward(params, w, t, l, masks, precomp)


def _step_scores(params, sentence, items, comp_weights, precomp):
    """Score every decision for every beam item: (len(items), |Y|), -inf at illegal."""
    trace = _forward_configs(params, sentence, [it.config for it in items], precomp)
    if comp_weights is None:
        return trace.log_probs
    comp, weights = comp_weights
    phi = compute_phi(trace, comp)
    raw = phi @ weights.T
    return np.where(trace.legal, raw, -np.inf)


def beam_search(params, sentence, beam_size, comp_weights=None, precomp=None, gold_ids=None):
    """Run the full 2n-step beam search.

    Returns (beam, early_stop_depth): the final ranked beam and, when
    ``gold_ids`` is given and the gold prefix fell out at some depth, the
    truncated beam at that depth together with the depth itself (otherwise
    None).
    """
    if beam_size < 1:
        raise ValueError("beam width must be at least 1")
    tracking = gold_ids is not None
    beam = [BeamItem(T.initial_configuration(sentence.n), 0.0, (), tracking)]
    for step in range(2 * sentence.n):
        scores = _step_scores(params, sentence, beam, comp_weights, precomp)
        totals = (np.array([it.score for it in beam])[:, None] + scores).ravel()
        keep = min(beam_size, int(np.count_nonzero(scores > -np.inf)))
        survivors = []
        for flat in np.argsort(-totals, kind="stable")[:keep].tolist():
            i, did = divmod(flat, scores.shape[1])
            item = beam[i]
            flag = tracking and item.gold_flag and did == gold_ids[step]
            config = T.apply(item.config, sentence.decisions.decision(did))
            survivors.append(BeamItem(config, float(totals[flat]), item.history + (did,), flag))
        beam = survivors
        if tracking and not any(it.gold_flag for it in beam):
            return beam, step + 1
    return beam, None


def beam_parse(params, tree, vocabs, beam_size, scorer="softmax", model=None, precomp=None):
    """Parse one sentence with beam search; returns the predicted tree."""
    if scorer == "softmax":
        comp_weights = None
    elif scorer == "perceptron":
        if model is None:
            raise ValueError("perceptron scoring needs a PerceptronModel")
        comp_weights = (model.comp, model.decode_weights())
    else:
        raise ValueError(f"unknown scorer: {scorer!r}")
    sentence = vocabs.index_sentence(tree)
    beam, _ = beam_search(params, sentence, beam_size, comp_weights, precomp)
    return T.config_to_tree(beam[0].config, tree)


def phi_for_prefix(params, sentence, decision_ids, comp, precomp=None):
    """Replay a decision prefix and return phi for each configuration a
    decision was taken in; the configuration after the last is not built."""
    configs = [T.initial_configuration(sentence.n)]
    for did in decision_ids[:-1]:
        configs.append(T.apply(configs[-1], sentence.decisions.decision(did)))
    return compute_phi(_forward_configs(params, sentence, configs, precomp), comp)


@dataclass
class PerceptronConfig:
    beam: int = 8
    epochs: int = 10
    comp: tuple = ("h1", "h2", "py")
    seed: int = 1
    average: bool = True


@dataclass
class PerceptronEpoch:
    epoch: int
    early_updates: int
    full_updates: int
    sentences: int
    dev_uas: float


@dataclass
class PerceptronStats:
    skipped: int
    history: list = field(default_factory=list)


def _apply_update(model, t_now, gold_ids, gold_phi, pred_ids, pred_phi):
    for did, row in zip(gold_ids, gold_phi):
        model.v[did] += row
        model.u[did] += t_now * row
    for did, row in zip(pred_ids, pred_phi):
        model.v[did] -= row
        model.u[did] -= t_now * row


def train_perceptron(params, trees, vocabs, config, dev_trees=None, log=None):
    """Structured perceptron over the frozen network's representations.

    Per sentence: beam-decode with the gold sequence flagged; if the gold
    prefix drops out at depth j, update on the length-j prefixes (gold up,
    best surviving candidate down); if gold survives but is outranked,
    update on the full sequences; if gold wins, leave the weights alone.
    Returns the model (decoding uses the averaged weights) and statistics.
    """
    d = phi_dimension(params, config.comp)
    model = PerceptronModel(config.comp, d, len(vocabs.decisions), config.average)
    precomp = N.Precomputation(params)
    rng = np.random.default_rng(config.seed)

    prepared = []
    skipped = 0
    for i, tree in enumerate(trees):
        try:
            seq = T.derive_oracle_sequence(tree)
        except T.OracleError:
            skipped += 1
            continue
        sentence = vocabs.index_sentence(tree)
        try:
            gold_ids = [sentence.decisions.id_of(dec) for dec in seq]
        except KeyError as exc:
            raise ValueError(
                f"training sentence {i + 1}: {exc.args[0]}; the model has no such arc label"
            ) from None
        prepared.append((sentence, gold_ids))
    if not prepared:
        raise ValueError("no projective sentences to train on")

    stats = PerceptronStats(skipped=skipped)
    best_uas = -1.0
    best_state = (model.v.copy(), model.u.copy(), model.t)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(prepared))
        early = full = 0
        for idx in order:
            sentence, gold_ids = prepared[idx]
            t_now = model.t + 1
            beam, lost_at = beam_search(
                params,
                sentence,
                config.beam,
                (model.comp, model.v),
                precomp,
                gold_ids=gold_ids,
            )
            if lost_at is not None or not beam[0].gold_flag:
                # gold_ids[:None] is the whole sequence: a full update
                pred_ids = beam[0].history
                gold_prefix = gold_ids[:lost_at]
                gold_phi = phi_for_prefix(params, sentence, gold_prefix, model.comp, precomp)
                pred_phi = phi_for_prefix(params, sentence, pred_ids, model.comp, precomp)
                _apply_update(model, t_now, gold_prefix, gold_phi, pred_ids, pred_phi)
                if lost_at is not None:
                    early += 1
                else:
                    full += 1
            model.t = t_now
        uas = 0.0
        if dev_trees:
            predicted = [
                beam_parse(params, t_, vocabs, config.beam, "perceptron", model, precomp)
                for t_ in dev_trees
            ]
            uas = evaluate(dev_trees, predicted).uas
            if uas > best_uas:
                best_uas = uas
                best_state = (model.v.copy(), model.u.copy(), model.t)
        record = PerceptronEpoch(epoch, early, full, len(prepared), uas)
        stats.history.append(record)
        if log is not None:
            log(record)
    if dev_trees:
        model.v, model.u, model.t = best_state
    return model, stats
