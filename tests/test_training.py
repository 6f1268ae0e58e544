import math

import numpy as np
import pytest

from beamparse import network as N
from beamparse import training as TR
from beamparse.features import build_vocabularies
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

from helpers import make_tree, tiny_vocabs, toy_corpus


def make_state(eta0=1.0, mu=0.0, decay_every=1000, seed=0):
    vocabs = tiny_vocabs(n_words=4, n_tags=3)
    dims = Dims(2, 2, 2, 3, None)
    params = init_params(vocabs, dims, np.random.default_rng(seed))
    return TrainerState(params, eta0, mu, decay_every)


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
    assert params.all_finite()
    # rerunning for exactly best_epoch epochs must reproduce the snapshot
    import dataclasses

    rerun_cfg = dataclasses.replace(config, epochs=stats.best_epoch)
    rerun, rerun_stats = train_greedy(train, train, vocabs, rerun_cfg)
    assert rerun_stats.best_epoch == stats.best_epoch
    assert rerun.equal(params)
