import math

import numpy as np
import pytest

from beamparse import features as F
from beamparse import network as N
from beamparse import transitions as T
from beamparse.features import extract_features
from beamparse.network import Dims, Precomputation, forward, greedy_parse, init_params
from beamparse.treebank import is_projective

from helpers import fd_gradient_errors, make_tree, random_projective_tree, tiny_vocabs


def small_params(seed=0, dims=None, vocabs=None):
    vocabs = vocabs or tiny_vocabs()
    dims = dims or Dims(d_word=4, d_tag=3, d_label=3, m1=6, m2=5)
    rng = np.random.default_rng(seed)
    return init_params(vocabs, dims, rng), vocabs


def batch_for(vocabs, tree, configs):
    sent = vocabs.index_sentence(tree)
    feats = [extract_features(c, sent) for c in configs]
    w, t, l = N.stack_features(feats)
    legal = np.stack([vocabs.decisions.legal_mask(c) for c in configs])
    return w, t, l, legal


def test_dims_embedded_size():
    dims = Dims(64, 32, 32, 200, 200)
    assert dims.embedded == 20 * 64 + 20 * 32 + 12 * 32
    with pytest.raises(ValueError):
        Dims(0, 32, 32, 200).validate()
    with pytest.raises(ValueError):
        Dims(64, 32, 32, 200, 0).validate()
    Dims(64, 32, 32, 200, None).validate()  # single hidden layer is fine


def test_init_shapes_and_constants():
    params, vocabs = small_params()
    dims = params.dims
    assert params.e_word.shape == (len(vocabs.word), 4)
    assert params.w1.shape == (6, dims.embedded)
    assert params.w2.shape == (5, 6)
    assert params.beta.shape == (len(vocabs.decisions), 5)
    assert np.all(params.b1 == 0.2) and np.all(params.b2 == 0.2)
    assert np.all(params.b_y == 0.0)
    # Gaussian with variance 1e-4: sample std of w1 about 0.01
    assert abs(params.w1.std() - 0.01) < 0.005


def test_init_single_layer():
    vocabs = tiny_vocabs()
    params = init_params(vocabs, Dims(4, 3, 3, 6, None), np.random.default_rng(0))
    assert not params.two_layers
    assert params.field_names() == ["e_word", "e_tag", "e_label", "w1", "b1", "beta", "b_y"]
    assert params.beta.shape == (len(vocabs.decisions), 6)


def test_init_embedding_overlay():
    vocabs = tiny_vocabs(n_words=10)
    dims = Dims(4, 3, 3, 6, 5)
    table = {
        "w0": np.arange(4.0),
        "w3": np.full(4, 7.0),
        "w7": np.full(4, -1.0),
        "not-in-vocab": np.zeros(4),
    }
    with_rows = init_params(vocabs, dims, np.random.default_rng(1), table)
    without = init_params(vocabs, dims, np.random.default_rng(1), None)
    copied = [w for w in ("w0", "w3", "w7") if w in vocabs.word]
    assert len(copied) == 3
    for w in copied:
        assert np.array_equal(with_rows.e_word[vocabs.word.id(w)], table[w])
    # all other rows identical to the no-embeddings draw (same seed)
    untouched = [i for i in range(len(vocabs.word)) if i not in {vocabs.word.id(w) for w in copied}]
    assert np.array_equal(with_rows.e_word[untouched], without.e_word[untouched])
    bad = {"w0": np.zeros(3)}
    with pytest.raises(ValueError):
        init_params(vocabs, dims, np.random.default_rng(1), bad)


def test_forward_zero_beta_gives_uniform_over_legal():
    params, vocabs = small_params()
    params.beta[:] = 0.0
    params.b_y[:] = 0.0
    tree = random_projective_tree(np.random.default_rng(3), 4)
    c = T.replay([T.Decision(T.SHIFT), T.Decision(T.SHIFT)], 4)
    w, t, l, legal = batch_for(vocabs, tree, [c])
    trace = forward(params, w, t, l, legal)
    k = int(legal.sum())
    assert np.allclose(trace.probs[0][legal[0]], 1.0 / k)
    assert np.all(trace.probs[0][~legal[0]] == 0.0)


def test_forward_relu_clamps_negative_preactivations():
    params, vocabs = small_params()
    params.w1[:] = 0.0
    params.b1[:] = -1.0
    tree = make_tree([0], forms=["w0"], pos=["A"], labels=["la"])
    w, t, l, legal = batch_for(vocabs, tree, [T.initial_configuration(1)])
    trace = forward(params, w, t, l, legal)
    assert np.all(trace.h1 == 0.0)


def test_forward_normalization_and_exact_zero_for_illegal():
    params, vocabs = small_params(seed=5)
    rng = np.random.default_rng(9)
    for _ in range(50):
        tree = random_projective_tree(rng, int(rng.integers(1, 8)))
        c = T.initial_configuration(len(tree))
        while not T.is_terminal(c):
            w, t, l, legal = batch_for(vocabs, tree, [c])
            with np.errstate(all="raise"):  # the unmasked exp and log never warn
                trace = forward(params, w, t, l, legal)
            assert abs(trace.probs[0][legal[0]].sum() - 1.0) <= 1e-6
            assert np.all(trace.probs[0][~legal[0]] == 0.0)
            assert np.all(trace.log_probs[0][~legal[0]] == -np.inf)
            assert np.all(trace.h1 >= 0.0) and np.all(trace.h2 >= 0.0)
            ids = vocabs.decisions.legal_ids(c)
            c = T.apply(c, vocabs.decisions.decision(int(ids[rng.integers(len(ids))])))


def test_forward_errors():
    params, vocabs = small_params()
    tree = make_tree([0], forms=["w0"], pos=["A"], labels=["la"])
    w, t, l, legal = batch_for(vocabs, tree, [T.initial_configuration(1)])
    bad_w = w.copy()
    bad_w[0, 0] = len(vocabs.word) + 5
    with pytest.raises(ValueError):
        forward(params, bad_w, t, l, legal)
    with pytest.raises(ValueError):
        forward(params, w, t, l, np.zeros_like(legal))
    with pytest.raises(ValueError):
        forward(params, w[:, :-1], t, l, legal)


def test_loss_uniform_equals_log_k():
    params, vocabs = small_params()
    params.beta[:] = 0.0
    params.b_y[:] = 0.0
    tree = random_projective_tree(np.random.default_rng(2), 3)
    c = T.replay([T.Decision(T.SHIFT), T.Decision(T.SHIFT)], 3)
    w, t, l, legal = batch_for(vocabs, tree, [c])
    k = int(legal.sum())
    gold = np.array([int(np.flatnonzero(legal[0])[0])])
    loss, _ = N.loss_and_gradient(params, w, t, l, legal, gold, lam=0.0)
    assert loss == pytest.approx(math.log(k))


def test_loss_duplicated_batch_is_mean_invariant():
    params, vocabs = small_params(seed=3)
    tree = random_projective_tree(np.random.default_rng(4), 4)
    configs = [T.initial_configuration(4), T.replay([T.Decision(T.SHIFT)], 4)]
    w, t, l, legal = batch_for(vocabs, tree, configs)
    gold = np.array([0, 0])
    loss1, _ = N.loss_and_gradient(params, w, t, l, legal, gold, lam=1e-3)
    loss2, _ = N.loss_and_gradient(
        params,
        np.vstack([w, w]),
        np.vstack([t, t]),
        np.vstack([l, l]),
        np.vstack([legal, legal]),
        np.concatenate([gold, gold]),
        lam=1e-3,
    )
    assert loss1 == pytest.approx(loss2, rel=1e-12)


def test_loss_rejects_illegal_gold():
    params, vocabs = small_params()
    tree = make_tree([0], forms=["w0"], pos=["A"], labels=["la"])
    w, t, l, legal = batch_for(vocabs, tree, [T.initial_configuration(1)])
    illegal = int(np.flatnonzero(~legal[0])[0])
    with pytest.raises(ValueError):
        N.loss_and_gradient(params, w, t, l, legal, np.array([illegal]), lam=0.0)


def test_regularizer_only_touches_hidden_weights():
    params, vocabs = small_params(seed=6)
    tree = random_projective_tree(np.random.default_rng(5), 3)
    w, t, l, legal = batch_for(vocabs, tree, [T.initial_configuration(3)])
    gold = np.array([0])
    loss0, _ = N.loss_and_gradient(params, w, t, l, legal, gold, lam=0.0)
    loss1, _ = N.loss_and_gradient(params, w, t, l, legal, gold, lam=0.5)
    expected = 0.5 * ((params.w1 ** 2).sum() + (params.w2 ** 2).sum())
    assert loss1 - loss0 == pytest.approx(expected, rel=1e-12)
    # regularization monotonicity
    loss2, _ = N.loss_and_gradient(params, w, t, l, legal, gold, lam=1.0)
    assert loss2 >= loss1 >= loss0


def gradient_fixture(two_layers=True):
    vocabs = tiny_vocabs(n_words=17, n_tags=3, labels=("la", "lb"))
    m2 = 8 if two_layers else None
    dims = Dims(d_word=4, d_tag=4, d_label=4, m1=8, m2=m2)
    params = init_params(vocabs, dims, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    rows = []
    while len(rows) < 8:
        tree = random_projective_tree(rng, int(rng.integers(2, 7)))
        sent = vocabs.index_sentence(tree)
        c = T.initial_configuration(len(tree))
        for dec in T.derive_oracle_sequence(tree):
            rows.append((extract_features(c, sent), vocabs.decisions.legal_mask(c),
                         vocabs.decisions.id_of(dec)))
            c = T.apply(c, dec)
    rows = rows[:8]
    w, t, l = N.stack_features([r[0] for r in rows])
    legal = np.stack([r[1] for r in rows])
    gold = np.array([r[2] for r in rows])
    return params, (w, t, l, legal, gold)


def test_gradient_matches_finite_differences_two_layers():
    params, (w, t, l, legal, gold) = gradient_fixture(two_layers=True)
    errors = fd_gradient_errors(params, w, t, l, legal, gold, lam=1e-3)
    for name, err in errors.items():
        assert err < 1e-4, f"{name}: {err}"


def test_gradient_matches_finite_differences_single_layer():
    params, (w, t, l, legal, gold) = gradient_fixture(two_layers=False)
    errors = fd_gradient_errors(params, w, t, l, legal, gold, lam=0.0)
    for name, err in errors.items():
        assert err < 1e-4, f"{name}: {err}"


def test_gradient_covers_every_block():
    params, (w, t, l, legal, gold) = gradient_fixture()
    _, grads = N.loss_and_gradient(params, w, t, l, legal, gold, lam=1e-3)
    assert set(grads) == set(params.field_names())
    for name in params.field_names():
        assert np.any(grads[name] != 0.0), name


def test_precomputation_matches_naive_forward():
    params, vocabs = small_params(seed=8)
    precomp = Precomputation(params)
    rng = np.random.default_rng(21)
    for _ in range(20):
        tree = random_projective_tree(rng, int(rng.integers(1, 9)))
        c = T.initial_configuration(len(tree))
        while not T.is_terminal(c):
            w, t, l, legal = batch_for(vocabs, tree, [c])
            naive = forward(params, w, t, l, legal)
            fast = forward(params, w, t, l, legal, precomp)
            assert np.allclose(naive.z1, fast.z1, atol=1e-12)
            assert np.allclose(naive.probs, fast.probs, atol=1e-12)
            ids = vocabs.decisions.legal_ids(c)
            c = T.apply(c, vocabs.decisions.decision(int(ids[rng.integers(len(ids))])))


def sequential_preactivation(precomp, b1, w, t, l):
    """b1 plus every slot's table row, added one at a time in template order."""
    out = []
    for i in range(w.shape[0]):
        z = b1.copy()
        for tables, ids in ((precomp.word_tables, w), (precomp.tag_tables, t), (precomp.label_tables, l)):
            for s in range(ids.shape[1]):
                z = z + tables[s, ids[i, s]]
        out.append(z)
    return np.array(out)


@pytest.mark.parametrize("m2", [5, None])
def test_precomputation_adds_in_template_order(m2):
    vocabs = tiny_vocabs(n_words=7)
    dims = Dims(d_word=4, d_tag=3, d_label=3, m1=300, m2=m2)
    params = init_params(vocabs, dims, np.random.default_rng(2))
    rng = np.random.default_rng(3)
    for _, arr in params.fields():
        arr[...] = rng.normal(0.0, 1.0, arr.shape)
    precomp = Precomputation(params)
    nw, nt, nl, _ = params.sizes
    # the last batch is large enough to be gathered one row at a time
    for b in (1, 8, N.GATHER_ROWS_UNITS // dims.m1 + 1):
        w = rng.integers(0, nw, (b, F.N_WORD_FEATURES))
        t = rng.integers(0, nt, (b, F.N_TAG_FEATURES))
        l = rng.integers(0, nl, (b, F.N_LABEL_FEATURES))
        want = sequential_preactivation(precomp, params.b1, w, t, l)
        assert np.array_equal(precomp.hidden_preactivation(w, t, l), want)


def test_precomputation_tables_keep_their_shapes():
    params, vocabs = small_params(seed=4)
    precomp = Precomputation(params)
    nw, nt, nl, _ = params.sizes
    m1 = params.dims.m1
    assert precomp.word_tables.shape == (F.N_WORD_FEATURES, nw, m1)
    assert precomp.tag_tables.shape == (F.N_TAG_FEATURES, nt, m1)
    assert precomp.label_tables.shape == (F.N_LABEL_FEATURES, nl, m1)
    block = params.w1[:, params.dims.d_word : 2 * params.dims.d_word]
    assert np.array_equal(precomp.word_tables[1], params.e_word @ block.T)
    total = precomp.word_tables.nbytes + precomp.tag_tables.nbytes + precomp.label_tables.nbytes
    assert total == (20 * nw + 20 * nt + 12 * nl) * m1 * 8


def test_greedy_parse_terminates_and_is_valid():
    params, vocabs = small_params(seed=9)
    rng = np.random.default_rng(30)
    for n in [1, 2, 3, 5, 8, 13, 21, 40]:
        tree = random_projective_tree(rng, n)
        out = greedy_parse(params, tree, vocabs)
        assert len(out) == n
        assert out.is_single_rooted()
        assert is_projective(out)
        assert out.origin == "predicted"


def test_greedy_parse_deterministic_ties_take_lowest_id():
    params, vocabs = small_params()
    params.beta[:] = 0.0
    params.b_y[:] = 0.0
    # all probabilities tied everywhere: the parse must follow lowest ids,
    # which is SHIFT whenever legal, then LEFT_ARC with the first label
    tree = make_tree([2, 0], forms=["w0", "w1"], pos=["A", "B"], labels=["la", "lb"])
    out = greedy_parse(params, tree, vocabs)
    first_label = vocabs.label.entries()[0]
    assert out.heads == (2, 0)
    assert out.labels == (first_label, first_label)
