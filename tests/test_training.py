import math

import numpy as np
import pytest

from beamparse import network as N
from beamparse import training as TR
from beamparse import transitions as T
from beamparse.features import build_vocabularies, extract_features
from beamparse.network import Dims, init_params
from beamparse.training import (
    TrainConfig,
    TrainerState,
    TrainingDiverged,
    averaging_weight,
    build_oracle_dataset,
    sgd_step,
    train_greedy,
)

from helpers import make_tree, random_projective_tree, tiny_vocabs, toy_corpus


def make_state(eta0=1.0, mu=0.0, decay_every=1000, seed=0):
    vocabs = tiny_vocabs(n_words=4, n_tags=3)
    dims = Dims(2, 2, 2, 3, None)
    params = init_params(vocabs, dims, np.random.default_rng(seed))
    return TrainerState(params, eta0, mu, decay_every, batch=4)


def zero_grads(params):
    return {name: np.zeros_like(arr) for name, arr in params.fields()}


def test_plain_gradient_descent_sign():
    state = make_state(eta0=1.0, mu=0.0)
    before = state.params.b_y.copy()
    grads = zero_grads(state.params)
    grads["b_y"][0] = 2.0
    sgd_step(state, grads)
    assert state.params.b_y[0] == pytest.approx(before[0] - 2.0)
    assert state.t == 1


def test_momentum_decays_geometrically_with_zero_gradients():
    state = make_state(eta0=0.1, mu=0.9)
    grads = zero_grads(state.params)
    grads["b_y"][0] = 1.0
    sgd_step(state, grads)
    v0 = state.velocity["b_y"][0]
    assert v0 == pytest.approx(-1.0)
    for k in range(1, 6):
        sgd_step(state, zero_grads(state.params))
        assert state.velocity["b_y"][0] == pytest.approx(v0 * 0.9 ** k)


def test_momentum_recurrence_and_parameter_move():
    state = make_state(eta0=0.5, mu=0.9)
    before = state.params.b_y.copy()
    g1 = zero_grads(state.params)
    g1["b_y"][0] = 1.0
    sgd_step(state, g1)
    # v1 = -1; theta moves by eta * v1
    assert state.params.b_y[0] == pytest.approx(before[0] - 0.5)
    g2 = zero_grads(state.params)
    g2["b_y"][0] = 2.0
    sgd_step(state, g2)
    # v2 = 0.9 * (-1) - 2 = -2.9
    assert state.velocity["b_y"][0] == pytest.approx(-2.9)
    assert state.params.b_y[0] == pytest.approx(before[0] - 0.5 + 0.5 * (-2.9))


def test_learning_rate_decays_on_schedule():
    state = make_state(eta0=1.0, mu=0.0)
    state.decay_every = 3
    for step in range(1, 10):
        sgd_step(state, zero_grads(state.params))
        assert state.eta == pytest.approx(0.96 ** (step // 3))


def test_averaging_weight_schedule():
    assert averaging_weight(1) == pytest.approx(0.1)
    # strictly increasing toward the cap
    values = [averaging_weight(t) for t in range(1, 2000)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert all(0.1 <= v <= 0.9999 for v in values)
    assert averaging_weight(10 ** 9) == pytest.approx(0.9999)
    # follows 1 - 1/(0.9 t) asymptotically
    assert averaging_weight(1000) == pytest.approx(1 - 1 / (0.9 * 999 + 10 / 9))


def test_average_tracks_blend_of_iterates():
    state = make_state(eta0=1.0, mu=0.0)
    grads = zero_grads(state.params)
    grads["b_y"][0] = 1.0
    theta0 = 0.0
    avg = theta0
    theta = theta0
    for t in range(1, 5):
        sgd_step(state, grads)
        theta -= 1.0
        alpha = averaging_weight(t)
        avg = alpha * avg + (1 - alpha) * theta
        assert state.params.b_y[0] == pytest.approx(theta)
        assert state.average.b_y[0] == pytest.approx(avg)
    # after several nonzero steps the average trails the raw parameters
    assert state.average.b_y[0] != state.params.b_y[0]


def test_nonfinite_gradient_aborts_with_diagnostics():
    state = make_state()
    grads = zero_grads(state.params)
    grads["w1"][0, 0] = np.nan
    with pytest.raises(TrainingDiverged) as err:
        sgd_step(state, grads)
    assert "w1" in str(err.value)
    assert state.t == 0  # aborted before committing the step


def test_nonfinite_gradient_moves_no_block():
    # every gradient block is nonzero, so a block updated before the NaN
    # in w1 is found (the embedding tables come first) would show it
    state = make_state(eta0=0.5, mu=0.9)
    sgd_step(state, {name: np.ones_like(arr) for name, arr in state.params.fields()})
    before = (state.params.copy(), state.average.copy(), {n: v.copy() for n, v in state.velocity.items()})
    eta = state.eta
    grads = {name: np.ones_like(arr) for name, arr in state.params.fields()}
    grads["w1"][0, 0] = np.nan
    with pytest.raises(TrainingDiverged):
        sgd_step(state, grads)
    params, average, velocity = before
    assert state.params.equal(params)
    assert state.average.equal(average)
    assert all(np.array_equal(state.velocity[n], velocity[n]) for n in velocity)
    assert state.t == 1 and state.eta == eta


def test_build_oracle_dataset_counts_and_skips():
    trees = [
        make_tree([2, 0, 2]),
        make_tree([3, 4, 0, 3]),  # non-projective: skipped
        make_tree([0]),
    ]
    vocabs = build_vocabularies(trees, word_min_count=1)
    data = build_oracle_dataset(trees, vocabs)
    assert data.skipped == 1
    assert data.n_sentences == 2
    assert len(data) == 2 * 3 + 2 * 1
    assert data.word_ids.shape == (8, 20)
    assert data.legal.shape == (8, len(vocabs.decisions))
    # every gold decision is legal in its row
    assert all(data.legal[i, data.gold[i]] for i in range(len(data)))
    # a writable copy, not views of the decision set's shared read-only masks
    assert data.legal.flags.writeable and data.legal.flags.owndata
    with pytest.raises(ValueError):
        build_oracle_dataset([make_tree([0, 0, 2])], vocabs)


def test_train_config_validation():
    TrainConfig().validate()
    for bad in (
        TrainConfig(eta0=0.0),
        TrainConfig(mu=1.0),
        TrainConfig(gamma=0.0),
        TrainConfig(lam=-1e-4),
        TrainConfig(batch=0),
    ):
        with pytest.raises(ValueError):
            bad.validate()


def overfit_setup(n=50, seed=4):
    # A tiny corpus has few batches per epoch, so the step size is kept
    # high for longer than the defaults would (gamma measured in epochs).
    rng = np.random.default_rng(seed)
    train = toy_corpus(n, rng)
    vocabs = build_vocabularies(train, word_min_count=1)
    config = TrainConfig(
        epochs=60,
        patience=25,
        seed=7,
        batch=16,
        eta0=0.1,
        gamma=2.0,
        dims=Dims(16, 8, 8, 64, 64),
    )
    return train, vocabs, config


def test_train_greedy_overfits_small_corpus():
    train, vocabs, config = overfit_setup()
    params, stats = train_greedy(train, train, vocabs, config)
    assert stats.best_uas >= 0.99
    assert stats.epochs_run <= 60
    # loss goes down over the first few epochs
    assert stats.history[4].mean_loss < stats.history[0].mean_loss


def test_train_greedy_is_deterministic():
    train, vocabs, config = overfit_setup(n=20)
    config.epochs = 5
    config.patience = 5
    p1, s1 = train_greedy(train, train, vocabs, config)
    p2, s2 = train_greedy(train, train, vocabs, config)
    assert p1.equal(p2)
    assert [r.mean_loss for r in s1.history] == [r.mean_loss for r in s2.history]
    assert [r.dev_uas for r in s1.history] == [r.dev_uas for r in s2.history]


def test_train_greedy_rejects_all_nonprojective():
    trees = [make_tree([3, 4, 0, 3])]
    vocabs = build_vocabularies(trees, word_min_count=1)
    with pytest.raises(ValueError):
        train_greedy(trees, [], vocabs, TrainConfig(epochs=1))


def test_train_greedy_early_stops_on_patience():
    train, vocabs, config = overfit_setup(n=10)
    config.epochs = 100
    config.patience = 3
    params, stats = train_greedy(train, train, vocabs, config)
    if stats.epochs_run < 100:
        assert stats.epochs_run <= stats.best_epoch + 3


def test_returned_params_are_best_epoch_average():
    train, vocabs, config = overfit_setup(n=10)
    config.epochs = 6
    config.patience = 10
    params, stats = train_greedy(train, train, vocabs, config)
    assert all(np.isfinite(a).all() for _, a in params.fields())
    # rerunning for exactly best_epoch epochs must reproduce the snapshot
    import dataclasses

    rerun_cfg = dataclasses.replace(config, epochs=stats.best_epoch)
    rerun, rerun_stats = train_greedy(train, train, vocabs, rerun_cfg)
    assert rerun_stats.best_epoch == stats.best_epoch
    assert rerun.equal(params)


# ---------------------------------------------------------------------------
# The buffered training step against an in-test copy of the allocating one


def reference_loss_and_gradient(params, w, t, l, legal, gold, lam):
    """Loss and fresh gradient arrays, every intermediate allocated anew."""
    b = w.shape[0]
    h0 = np.concatenate(
        [params.e_word[w].reshape(b, -1), params.e_tag[t].reshape(b, -1), params.e_label[l].reshape(b, -1)],
        axis=1,
    )
    z1 = h0 @ params.w1.T + params.b1
    h1 = np.maximum(z1, 0.0)
    h_last = h1
    if params.two_layers:
        z2 = h1 @ params.w2.T + params.b2
        h_last = np.maximum(z2, 0.0)
    logits = h_last @ params.beta.T + params.b_y
    masked = np.where(legal, logits, -np.inf)
    peak = masked.max(axis=1, keepdims=True)
    expd = np.exp(masked - peak)
    norm = expd.sum(axis=1, keepdims=True)
    log_probs = masked - peak - np.log(norm)
    probs = expd / norm

    loss = float((-log_probs[np.arange(b), gold]).mean()) + lam * float((params.w1 ** 2).sum())
    if params.two_layers:
        loss += lam * float((params.w2 ** 2).sum())
    grads = {n: np.zeros_like(a) for n, a in params.fields()}
    dlogits = probs.copy()
    dlogits[np.arange(b), gold] -= 1.0
    dlogits /= b
    grads["beta"][:] = dlogits.T @ h_last
    grads["b_y"][:] = dlogits.sum(axis=0)
    dh = dlogits @ params.beta
    if params.two_layers:
        dz2 = dh * (z2 > 0.0)
        grads["w2"][:] = dz2.T @ h1 + 2.0 * lam * params.w2
        grads["b2"][:] = dz2.sum(axis=0)
        dh = dz2 @ params.w2
    dz1 = dh * (z1 > 0.0)
    grads["w1"][:] = dz1.T @ h0 + 2.0 * lam * params.w1
    grads["b1"][:] = dz1.sum(axis=0)
    dh0 = dz1 @ params.w1
    col = 0
    for name, ids in (("e_word", w), ("e_tag", t), ("e_label", l)):
        d = grads[name].shape[1]
        width = ids.shape[1] * d
        np.add.at(grads[name], ids.ravel(), dh0[:, col : col + width].reshape(-1, d))
        col += width
    return loss, grads


def reference_sgd_step(ref, grads, decay_every):
    """Whole-array momentum fold, move, decay and averaging on a dict state."""
    ref["t"] += 1
    for name, p in ref["params"].fields():
        v = ref["velocity"][name]
        v *= ref["mu"]
        v -= grads[name]
        p += ref["eta"] * v
    if ref["t"] % decay_every == 0:
        ref["eta"] *= 0.96
    alpha = averaging_weight(ref["t"])
    for name, p in ref["params"].fields():
        avg = getattr(ref["average"], name)
        avg *= alpha
        avg += (1.0 - alpha) * p


def step_fixture(dims, batch, seed=5):
    rng = np.random.default_rng(seed)
    trees = [random_projective_tree(rng, int(rng.integers(3, 9)), labels=("la", "lb", "lc")) for _ in range(12)]
    vocabs = build_vocabularies(trees, word_min_count=1)
    data = build_oracle_dataset(trees, vocabs)
    params = init_params(vocabs, dims, np.random.default_rng(seed + 1))
    return data, params


@pytest.mark.parametrize("dims", [Dims(8, 4, 4, 200, None), Dims(8, 4, 4, 150, 70)], ids=["one-layer", "two-layers"])
def test_buffered_step_matches_allocating_step_bit_for_bit(dims):
    batch, lam, decay_every = 16, 1e-3, 7
    data, params = step_fixture(dims, batch)
    # several blocks per weight matrix, the last one partial
    assert params.w1.size > 2 * N.BLOCK and params.w1.size % N.BLOCK
    assert len(data) % batch
    state = TrainerState(params, 0.05, 0.9, decay_every, batch)
    ref = {"params": params.copy(), "velocity": params.zeros_like(), "average": params.copy(),
           "eta": 0.05, "mu": 0.9, "t": 0}
    perm = np.random.default_rng(9).permutation(len(data))
    starts = list(range(0, len(data), batch))
    updates = 0
    while updates < 24:
        for start in starts:  # ends on the partial batch
            idx = perm[start : start + batch]
            args = (data.word_ids[idx], data.tag_ids[idx], data.label_ids[idx], data.legal[idx], data.gold[idx], lam)
            loss, grads = N.loss_and_gradient(state.params, *args, state.work)
            ref_loss, ref_grads = reference_loss_and_gradient(ref["params"], *args)
            assert loss == ref_loss
            assert all(np.array_equal(grads[n], ref_grads[n]) for n in ref_grads)
            sgd_step(state, grads)
            reference_sgd_step(ref, ref_grads, decay_every)
            updates += 1
    assert state.t == ref["t"] == updates and state.eta == ref["eta"] < 0.05
    assert state.params.equal(ref["params"])
    assert state.average.equal(ref["average"])
    assert all(np.array_equal(state.velocity[n], ref["velocity"][n]) for n in ref["velocity"])


@pytest.mark.parametrize("dims", [Dims(8, 4, 4, 20, None), Dims(8, 4, 4, 20, 10)], ids=["one-layer", "two-layers"])
def test_workspace_contents_do_not_leak_into_the_gradient(dims):
    data, params = step_fixture(dims, 8)
    args = (data.word_ids[:5], data.tag_ids[:5], data.label_ids[:5], data.legal[:5], data.gold[:5], 1e-3)
    work = N.Workspace(params, 8)
    for arr in (*work.grads.values(), work.h0, work.dh0, work.scratch):
        arr.fill(np.nan)
    loss, grads = N.loss_and_gradient(params, *args, work)
    fresh_loss, fresh = N.loss_and_gradient(params, *args)
    assert grads is work.grads and fresh is not grads
    assert loss == fresh_loss
    assert all(np.array_equal(grads[n], fresh[n]) for n in fresh)


def test_training_steps_allocate_nothing_parameter_sized():
    import tracemalloc

    batch = 8
    data, params = step_fixture(Dims(64, 32, 32, 64, None), batch)
    assert params.w1.nbytes >= 2 ** 20
    state = TrainerState(params, 0.05, 0.9, 3, batch)

    def update(start):
        idx = slice(start, start + batch)
        _, grads = N.loss_and_gradient(
            state.params, data.word_ids[idx], data.tag_ids[idx], data.label_ids[idx],
            data.legal[idx], data.gold[idx], 1e-4, state.work,
        )
        sgd_step(state, grads)

    update(0)
    tracemalloc.start()
    try:
        for k in range(1, 6):
            update(k * batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < params.w1.nbytes / 4, (peak, params.w1.nbytes)


def test_oracle_dataset_matches_per_configuration_replay():
    rng = np.random.default_rng(3)
    trees = [random_projective_tree(rng, int(rng.integers(1, 10)), labels=("la", "lb", "lc")) for _ in range(15)]
    trees.append(make_tree([3, 4, 0, 3]))  # non-projective: skipped
    vocabs = build_vocabularies(trees[:10], word_min_count=2)  # unknown words and labels in the rest
    data = build_oracle_dataset(trees, vocabs)
    rows_w, rows_t, rows_l, rows_m, gold = [], [], [], [], []
    for tree in trees[:-1]:
        sentence = vocabs.index_sentence(tree)
        config = T.initial_configuration(len(tree))
        for decision in T.derive_oracle_sequence(tree):
            feats = extract_features(config, sentence)
            rows_w.append(feats.word_ids)
            rows_t.append(feats.tag_ids)
            rows_l.append(feats.label_ids)
            rows_m.append(vocabs.decisions.legal_mask(config))
            gold.append(vocabs.decisions.id_of(decision))
            config = T.apply(config, decision)
    assert data.word_ids.dtype == data.tag_ids.dtype == data.label_ids.dtype == np.int32
    assert np.array_equal(data.word_ids, np.array(rows_w))
    assert np.array_equal(data.tag_ids, np.array(rows_t))
    assert np.array_equal(data.label_ids, np.array(rows_l))
    assert np.array_equal(data.legal, np.array(rows_m))
    assert np.array_equal(data.gold, np.array(gold)) and data.gold.dtype == np.int64
    assert data.skipped == 1 and data.n_sentences == 15
