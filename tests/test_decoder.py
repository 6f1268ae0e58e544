"""Beam search and structured perceptron tests.

The beam is checked against two independent references: greedy decoding
(width 1) and exhaustive enumeration of every legal decision sequence
(unbounded width on short sentences).  Perceptron updates are checked by
recomputing the expected weight deltas by hand from replayed prefixes.
"""

import numpy as np
import pytest

from beamparse import decoder as D
from beamparse import network as N
from beamparse import transitions as T
from beamparse.decoder import (
    PerceptronConfig,
    PerceptronModel,
    _apply_update,
    beam_parse,
    beam_search,
    compute_phi,
    normalize_composition,
    phi_dimension,
    phi_for_prefix,
    train_perceptron,
)
from beamparse.features import build_vocabularies, extract_features
from beamparse.network import Dims
from beamparse.treebank import evaluate

from helpers import make_tree, random_projective_tree, stepwise_argmax, tiny_vocabs, toy_corpus


def small_setup(labels=("la", "lb"), dims=Dims(8, 4, 4, 16, 12), seed=0):
    vocabs = tiny_vocabs(n_words=8, labels=labels)
    params = N.init_params(vocabs, dims, np.random.default_rng(seed))
    return vocabs, params


def enumerate_complete(params, sentence):
    """Score of every complete decision sequence, by naive recursion."""
    dset = sentence.decisions
    results = {}

    def rec(config, score, hist):
        if T.is_terminal(config):
            results[hist] = score
            return
        feats = extract_features(config, sentence)
        w, t, l = N.stack_features([feats])
        mask = dset.legal_mask(config)[None, :]
        trace = N.forward(params, w, t, l, mask)
        for did in np.flatnonzero(mask[0]):
            did = int(did)
            rec(
                T.apply(config, dset.decision(did)),
                score + float(trace.log_probs[0, did]),
                hist + (did,),
            )

    rec(T.initial_configuration(sentence.n), 0.0, ())
    return results


def lowest_id_path(sentence):
    """The path a stable tie-break must follow when every score is equal."""
    dset = sentence.decisions
    config = T.initial_configuration(sentence.n)
    hist = []
    while not T.is_terminal(config):
        did = int(dset.legal_ids(config)[0])
        hist.append(did)
        config = T.apply(config, dset.decision(did))
    return tuple(hist)


# ---------------------------------------------------------------------------
# phi compositions


def test_normalize_composition():
    assert normalize_composition(("py", "h1", "h2")) == ("h1", "h2", "py")
    assert normalize_composition(("h2",)) == ("h2",)
    with pytest.raises(ValueError):
        normalize_composition(("h3",))
    with pytest.raises(ValueError):
        normalize_composition(("h1",))
    with pytest.raises(ValueError):
        normalize_composition(("h1", "py"))


def test_phi_dimension_arithmetic():
    labels = tuple(f"l{i}" for i in range(37))  # 2 * 37 + 1 = 75 decisions
    vocabs, params = small_setup(labels=labels, dims=Dims(8, 4, 4, 200, 200))
    assert len(vocabs.decisions) == 75
    assert phi_dimension(params, ("py",)) == 75
    assert phi_dimension(params, ("h2",)) == 200
    assert phi_dimension(params, ("h1", "h2")) == 400
    assert phi_dimension(params, ("h1", "h2", "py")) == 475

    vocabs2, params2 = small_setup(labels=("la", "lb"))
    assert phi_dimension(params2, ("py",)) == 5

    _, single = small_setup(dims=Dims(8, 4, 4, 16, None))
    with pytest.raises(ValueError):
        phi_dimension(single, ("h2",))


def test_compute_phi_block_order_and_content():
    vocabs, params = small_setup()
    tree = make_tree([2, 0, 2])
    sentence = vocabs.index_sentence(tree)
    feats = [extract_features(T.initial_configuration(3), sentence)]
    w, t, l = N.stack_features(feats)
    mask = sentence.decisions.legal_mask(T.initial_configuration(3))[None, :]
    trace = N.forward(params, w, t, l, mask)

    full = compute_phi(trace, ("h1", "h2", "py"))
    expect = np.concatenate([trace.h1, trace.h2, trace.probs], axis=1)
    assert np.array_equal(full, expect)
    # order of the requested blocks does not matter
    assert np.array_equal(compute_phi(trace, ("py", "h2", "h1")), expect)
    assert np.array_equal(compute_phi(trace, ("py",)), trace.probs)

    _, single = small_setup(dims=Dims(8, 4, 4, 16, None))
    trace1 = N.forward(single, w, t, l, mask)
    with pytest.raises(ValueError):
        compute_phi(trace1, ("h1", "h2"))


def test_probability_block_is_zero_at_illegal():
    vocabs, params = small_setup()
    tree = make_tree([2, 0, 2])
    sentence = vocabs.index_sentence(tree)
    config = T.initial_configuration(3)  # only shift is legal
    feats = [extract_features(config, sentence)]
    w, t, l = N.stack_features(feats)
    mask = sentence.decisions.legal_mask(config)[None, :]
    trace = N.forward(params, w, t, l, mask)
    phi = compute_phi(trace, ("py",))
    assert phi[0, 0] == 1.0
    assert np.all(phi[0, 1:] == 0.0)


def test_beam_masks_are_writable_copies():
    vocabs, params = small_setup()
    sentence = vocabs.index_sentence(make_tree([2, 0, 2]))
    configs = [T.replay([T.Decision(T.SHIFT)] * k, 3) for k in (0, 1, 2)]
    trace = D._forward_configs(params, sentence, configs, None)
    assert trace.legal.flags.writeable and trace.legal.flags.owndata
    for row, config in zip(trace.legal, configs):
        assert row.tolist() == sentence.decisions.legal_mask(config).tolist()


# ---------------------------------------------------------------------------
# perceptron primitives


def test_averaging_closed_forms():
    d, ny = 3, 4
    model = PerceptronModel(("py",), d, ny)
    assert model.t == 0
    assert np.array_equal(model.averaged_weights(), np.zeros((ny, d)))

    # one update at t_now = 1: averaged weights equal the raw weights
    delta = np.arange(d, dtype=float)
    _apply_update(model, 1, [2], [delta], [0], [np.zeros(d)])
    model.t = 1
    assert np.array_equal(model.averaged_weights(), model.v)

    # second update at t_now = 2: average of the two iterates
    delta2 = np.ones(d)
    w1 = model.v.copy()
    _apply_update(model, 2, [1], [delta2], [0], [np.zeros(d)])
    model.t = 2
    w2 = model.v.copy()
    assert np.allclose(model.averaged_weights(), (w1 + w2) / 2.0)

    model.average = False
    assert np.array_equal(model.decode_weights(), model.v)
    model.average = True
    assert np.allclose(model.decode_weights(), (w1 + w2) / 2.0)


# ---------------------------------------------------------------------------
# beam search against independent references


def test_beam_width_one_matches_greedy():
    vocabs, params = small_setup()
    rng = np.random.default_rng(3)
    for _ in range(100):
        tree = random_projective_tree(rng, int(rng.integers(1, 11)))
        greedy = stepwise_argmax(params, tree, vocabs)
        beamed = beam_parse(params, tree, vocabs, beam_size=1)
        assert beamed.heads == greedy.heads
        assert beamed.labels == greedy.labels


def test_beam_builds_at_most_beam_size_configs_per_step(monkeypatch):
    vocabs, params = small_setup(labels=("la", "lb", "lc"))
    rng = np.random.default_rng(13)
    trees = [random_projective_tree(rng, int(rng.integers(2, 9))) for _ in range(5)]
    sentences = [vocabs.index_sentence(tree) for tree in trees]
    built = []
    real_step_scores, real_apply = D._step_scores, T.apply

    def step_scores(*args):
        built.append(0)
        return real_step_scores(*args)

    def apply(config, decision):
        built[-1] += 1
        return real_apply(config, decision)

    monkeypatch.setattr(D, "_step_scores", step_scores)
    monkeypatch.setattr(T, "apply", apply)
    for beam_size in (1, 3):
        for sentence in sentences:
            built.clear()
            beam_search(params, sentence, beam_size)
            assert len(built) == 2 * sentence.n
            assert max(built) <= beam_size, f"built {max(built)} configurations in one step"


def test_unbounded_beam_matches_exhaustive_enumeration():
    vocabs, params = small_setup()
    rng = np.random.default_rng(5)
    for n in (1, 2, 3):
        for _ in range(3):
            tree = random_projective_tree(rng, n)
            sentence = vocabs.index_sentence(tree)
            table = enumerate_complete(params, sentence)
            beam, lost = beam_search(params, sentence, beam_size=100000)
            assert lost is None
            assert {it.history for it in beam} == set(table)
            for it in beam:
                assert it.score == pytest.approx(table[it.history], abs=1e-9)
            assert beam[0].score == pytest.approx(max(table.values()), abs=1e-9)
            # ranked non-increasing
            scores = [it.score for it in beam]
            assert scores == sorted(scores, reverse=True)


def test_wider_beam_never_scores_lower():
    vocabs, params = small_setup()
    rng = np.random.default_rng(9)
    for _ in range(20):
        tree = random_projective_tree(rng, int(rng.integers(2, 9)))
        sentence = vocabs.index_sentence(tree)
        top1, _ = beam_search(params, sentence, beam_size=1)
        top8, _ = beam_search(params, sentence, beam_size=8)
        assert top8[0].score >= top1[0].score - 1e-12


def test_beam_size_validation_and_truncation():
    vocabs, params = small_setup()
    tree = make_tree([2, 0, 2])
    sentence = vocabs.index_sentence(tree)
    with pytest.raises(ValueError):
        beam_search(params, sentence, beam_size=0)
    beam, _ = beam_search(params, sentence, beam_size=4)
    assert len(beam) == 4
    full, _ = beam_search(params, sentence, beam_size=100000)
    assert len(full) == len(enumerate_complete(params, sentence))


def test_zero_weights_follow_lowest_id_path():
    vocabs, params = small_setup()
    model = PerceptronModel(("h1", "h2", "py"), phi_dimension(params, ("h1", "h2", "py")), len(vocabs.decisions))
    rng = np.random.default_rng(11)
    for _ in range(10):
        tree = random_projective_tree(rng, int(rng.integers(1, 7)))
        sentence = vocabs.index_sentence(tree)
        beam, _ = beam_search(params, sentence, 3, (model.comp, model.v))
        assert beam[0].score == 0.0
        assert beam[0].history == lowest_id_path(sentence)


def test_beam_parse_errors():
    vocabs, params = small_setup()
    tree = make_tree([2, 0, 2])
    with pytest.raises(ValueError):
        beam_parse(params, tree, vocabs, 4, scorer="perceptron")
    with pytest.raises(ValueError):
        beam_parse(params, tree, vocabs, 4, scorer="viterbi")


def test_phi_for_prefix_matches_stepwise_forward(monkeypatch):
    vocabs, params = small_setup()
    tree = make_tree([2, 0, 2])
    sentence = vocabs.index_sentence(tree)
    gold_ids = [sentence.decisions.id_of(d) for d in T.derive_oracle_sequence(tree)]
    comp = ("h1", "h2", "py")
    calls = []
    apply = T.apply

    def counting_apply(config, decision):
        calls.append(decision)
        return apply(config, decision)

    monkeypatch.setattr(T, "apply", counting_apply)
    for k in range(1, len(gold_ids)):
        calls.clear()
        prefix = phi_for_prefix(params, sentence, gold_ids[:k], comp)
        # k decisions are taken in k configurations; the one after the last
        # is never built
        assert len(calls) == k - 1
        assert prefix.shape == (k, phi_dimension(params, comp))
    monkeypatch.undo()
    phi = phi_for_prefix(params, sentence, gold_ids, comp)
    assert phi.shape == (len(gold_ids), phi_dimension(params, comp))

    config = T.initial_configuration(3)
    for i, did in enumerate(gold_ids):
        feats = [extract_features(config, sentence)]
        w, t, l = N.stack_features(feats)
        mask = sentence.decisions.legal_mask(config)[None, :]
        trace = N.forward(params, w, t, l, mask)
        assert np.allclose(phi[i], compute_phi(trace, comp)[0], atol=1e-12)
        config = T.apply(config, sentence.decisions.decision(did))
    # the representation is frozen: recomputing gives the identical array
    assert np.array_equal(phi, phi_for_prefix(params, sentence, gold_ids, comp))


# ---------------------------------------------------------------------------
# perceptron training mechanics


def one_sentence_setup():
    tree = make_tree([2, 0, 2], labels=["la", "root", "lb"])
    vocabs = build_vocabularies([tree], word_min_count=1)
    params = N.init_params(vocabs, Dims(8, 4, 4, 16, 12), np.random.default_rng(2))
    sentence = vocabs.index_sentence(tree)
    gold_ids = [sentence.decisions.id_of(d) for d in T.derive_oracle_sequence(tree)]
    return tree, vocabs, params, sentence, gold_ids


def test_early_update_exact_delta():
    tree, vocabs, params, sentence, gold_ids = one_sentence_setup()
    comp = ("h1", "h2", "py")
    cfg = PerceptronConfig(beam=1, epochs=1, comp=comp, seed=0)
    model, stats = train_perceptron(params, [tree], vocabs, cfg)

    assert stats.history[0].early_updates == 1
    assert stats.history[0].full_updates == 0
    assert model.t == 1

    # replay the decode the trainer saw (zero weights, width 1)
    probe = PerceptronModel(comp, phi_dimension(params, comp), len(vocabs.decisions))
    precomp = N.Precomputation(params)
    beam, lost_at = beam_search(params, sentence, 1, (comp, probe.v), precomp, gold_ids=gold_ids)
    assert lost_at is not None
    pred_ids = beam[0].history
    assert len(pred_ids) == lost_at
    gold_prefix = gold_ids[:lost_at]
    assert tuple(gold_prefix) != pred_ids

    gold_phi = phi_for_prefix(params, sentence, gold_prefix, comp, precomp)
    pred_phi = phi_for_prefix(params, sentence, pred_ids, comp, precomp)
    expected = np.zeros_like(model.v)
    for did, row in zip(gold_prefix, gold_phi):
        expected[did] += row
    for did, row in zip(pred_ids, pred_phi):
        expected[did] -= row

    assert np.array_equal(model.v, expected)
    assert np.array_equal(model.u, expected)  # single update at t_now = 1
    assert np.array_equal(model.averaged_weights(), model.v)
    # untouched decision rows stay exactly zero
    touched = set(gold_prefix) | set(pred_ids)
    for did in range(len(vocabs.decisions)):
        if did not in touched:
            assert np.all(model.v[did] == 0.0)
    # total mass moved equals the phi difference of the two prefixes
    assert np.allclose(model.v.sum(axis=0), gold_phi.sum(axis=0) - pred_phi.sum(axis=0), atol=1e-12)


def test_full_update_when_gold_survives_but_is_outranked():
    tree, vocabs, params, sentence, gold_ids = one_sentence_setup()
    comp = ("py",)
    cfg = PerceptronConfig(beam=100000, epochs=1, comp=comp, seed=0)
    model, stats = train_perceptron(params, [tree], vocabs, cfg)

    assert stats.history[0].early_updates == 0
    assert stats.history[0].full_updates == 1

    pred_ids = lowest_id_path(sentence)
    assert pred_ids != tuple(gold_ids)
    precomp = N.Precomputation(params)
    gold_phi = phi_for_prefix(params, sentence, gold_ids, comp, precomp)
    pred_phi = phi_for_prefix(params, sentence, pred_ids, comp, precomp)
    expected = np.zeros_like(model.v)
    for did, row in zip(gold_ids, gold_phi):
        expected[did] += row
    for did, row in zip(pred_ids, pred_phi):
        expected[did] -= row
    assert np.array_equal(model.v, expected)


def test_no_update_when_gold_ranks_first():
    tree = make_tree([0], labels=["root"])
    vocabs = build_vocabularies([tree], word_min_count=1)
    params = N.init_params(vocabs, Dims(8, 4, 4, 16, 12), np.random.default_rng(2))
    cfg = PerceptronConfig(beam=1, epochs=3, comp=("py",), seed=0)
    model, stats = train_perceptron(params, [tree], vocabs, cfg)
    assert all(r.early_updates == 0 and r.full_updates == 0 for r in stats.history)
    assert np.all(model.v == 0.0)
    assert model.t == 3


def test_nonprojective_sentences_are_skipped():
    trees = [make_tree([2, 0, 2]), make_tree([3, 4, 0, 3])]
    vocabs = build_vocabularies(trees, word_min_count=1)
    params = N.init_params(vocabs, Dims(8, 4, 4, 16, 12), np.random.default_rng(2))
    cfg = PerceptronConfig(beam=2, epochs=1, comp=("py",), seed=0)
    model, stats = train_perceptron(params, trees, vocabs, cfg)
    assert stats.skipped == 1
    assert stats.history[0].sentences == 1
    with pytest.raises(ValueError):
        train_perceptron(params, [make_tree([3, 4, 0, 3])], vocabs, cfg)


def test_zero_epochs_leave_weights_empty():
    tree, vocabs, params, _, _ = one_sentence_setup()
    cfg = PerceptronConfig(beam=1, epochs=0, comp=("py",), seed=0)
    model, stats = train_perceptron(params, [tree], vocabs, cfg)
    assert model.t == 0
    assert np.all(model.v == 0.0)
    assert stats.history == []
    assert np.array_equal(model.decode_weights(), model.v)


def wide_random_params(vocabs, dims, seed):
    """Random network with informative activations.

    The training-time initialization is deliberately near-zero, which makes
    an untrained network output almost the same activations everywhere; to
    serve as frozen features for the perceptron the weights must vary, so
    they are redrawn at a larger scale.
    """
    params = N.init_params(vocabs, dims, np.random.default_rng(seed))
    wide = np.random.default_rng(seed)
    for name, arr in params.fields():
        if name not in ("b1", "b2", "by"):
            arr[:] = wide.normal(0.0, 0.5, size=arr.shape)
    return params


def test_perceptron_fits_separable_corpus():
    rng = np.random.default_rng(17)
    trees = toy_corpus(12, rng)
    vocabs = build_vocabularies(trees, word_min_count=1)
    # the network stays untrained: the perceptron must do all the work on
    # top of frozen representations
    params = wide_random_params(vocabs, Dims(16, 8, 8, 32, 16), 4)
    cfg = PerceptronConfig(beam=4, epochs=50, comp=("h1", "h2", "py"), seed=3)
    model, stats = train_perceptron(params, trees, vocabs, cfg, dev_trees=trees)

    last = stats.history[-1]
    assert last.early_updates + last.full_updates == 0
    assert max(r.dev_uas for r in stats.history) == 1.0

    precomp = N.Precomputation(params)
    predicted = [beam_parse(params, t_, vocabs, 4, "perceptron", model, precomp) for t_ in trees]
    report = evaluate(trees, predicted)
    assert report.uas == 1.0


def test_perceptron_training_is_deterministic():
    rng = np.random.default_rng(23)
    trees = toy_corpus(8, rng)
    vocabs = build_vocabularies(trees, word_min_count=1)
    params = N.init_params(vocabs, Dims(16, 8, 8, 32, 16), np.random.default_rng(4))
    cfg = PerceptronConfig(beam=2, epochs=4, comp=("h1", "h2", "py"), seed=3)
    m1, s1 = train_perceptron(params, trees, vocabs, cfg, dev_trees=trees)
    m2, s2 = train_perceptron(params, trees, vocabs, cfg, dev_trees=trees)
    assert np.array_equal(m1.v, m2.v)
    assert np.array_equal(m1.u, m2.u)
    assert m1.t == m2.t
    assert [(r.early_updates, r.full_updates) for r in s1.history] == [
        (r.early_updates, r.full_updates) for r in s2.history
    ]
