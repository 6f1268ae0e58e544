"""Agreement filter, token budgets, length matching, and merge tests."""

import numpy as np
import pytest

from beamparse.treebank import DepTree
from beamparse.tritrain import (
    FilterStats,
    agreement_filter,
    length_matched_sample,
    merge_training_sets,
    take_token_budget,
)

from helpers import make_tree


def tree_of_len(n, label="la"):
    return make_tree([0] + [1] * (n - 1), labels=[label] * n)


def test_identical_outputs_are_all_kept():
    gold = [make_tree([2, 0, 2]), make_tree([0, 1]), make_tree([0])]
    a = [t.copy() for t in gold]
    b = [t.copy() for t in gold]
    kept, stats = agreement_filter(a, b)
    assert len(kept) == 3
    assert stats.agreement_rate == 1.0
    assert stats.kept_tokens == 6
    assert stats.mean_length == 2.0
    assert all(t.origin == "auto" for t in kept)
    # the kept trees are fresh objects over immutable tuple columns, so
    # neither retagging nor editing a kept tree can reach the inputs
    assert all(k is not x for k, x in zip(kept, a))
    assert all(
        type(col) is tuple for k in kept for col in (k.forms, k.pos_tags, k.heads, k.labels)
    )
    assert a[0].origin == "gold"
    with pytest.raises(AttributeError):
        kept[0].tokens[0].head = 99


def test_single_head_difference_drops_sentence():
    a = [make_tree([2, 0, 2]), make_tree([0, 1])]
    b = [make_tree([2, 0, 2]), make_tree([0, 1])]
    b[1] = make_tree([0, 0])
    kept, stats = agreement_filter(a, b)
    assert len(kept) == 1
    assert stats.kept_sentences == 1
    assert stats.total_sentences == 2
    assert stats.agreement_rate == 0.5


def test_label_difference_depends_on_mode():
    a = [make_tree([2, 0, 2], labels=["la", "root", "lb"])]
    b = [make_tree([2, 0, 2], labels=["lb", "root", "lb"])]
    kept_l, _ = agreement_filter(a, b, mode="labeled")
    assert kept_l == []
    kept_u, stats = agreement_filter(a, b, mode="unlabeled")
    assert len(kept_u) == 1
    assert stats.mode == "unlabeled"
    # unlabeled survivors carry parser A's labels
    assert kept_u[0].labels == ("la", "root", "lb")


def test_filter_input_validation():
    a = [make_tree([0]), make_tree([0, 1]), make_tree([0])]
    with pytest.raises(ValueError):
        agreement_filter(a, a[:2])
    with pytest.raises(ValueError):
        agreement_filter(a, a, mode="strict")
    b = [t.copy() for t in a]
    b[2] = DepTree.build(("other",), b[2].pos_tags, b[2].heads, b[2].labels)
    with pytest.raises(ValueError) as err:
        agreement_filter(a, b)
    assert "sentence 2" in str(err.value)


def test_token_budget_prefix():
    kept = [tree_of_len(4), tree_of_len(5), tree_of_len(6)]
    out = take_token_budget(kept, 10)
    assert [len(t) for t in out] == [4, 5]
    assert take_token_budget(kept, 0) == []
    assert take_token_budget(kept, 3) == []
    assert [len(t) for t in take_token_budget(kept, 100)] == [4, 5, 6]
    assert [len(t) for t in take_token_budget(kept, 15)] == [4, 5, 6]
    with pytest.raises(ValueError):
        take_token_budget(kept, -1)


def test_token_budget_is_tight():
    rng = np.random.default_rng(0)
    kept = [tree_of_len(int(rng.integers(1, 9))) for _ in range(40)]
    budget = 70
    out = take_token_budget(kept, budget)
    used = sum(len(t) for t in out)
    assert used <= budget
    # the first rejected sentence would not have fit
    if len(out) < len(kept):
        assert used + len(kept[len(out)]) > budget


def test_length_matching_prefers_reference_bins():
    # reference is all short sentences (bin 0); the budget only fits the
    # short candidates, so exactly those are drawn no matter the seed
    kept = [tree_of_len(3) for _ in range(5)] + [tree_of_len(8) for _ in range(5)]
    reference = [tree_of_len(3) for _ in range(10)]
    out = length_matched_sample(kept, reference, budget=15, seed=1)
    assert len(out) == 5
    assert all(len(t) == 3 for t in out)


def test_length_matching_improves_histogram():
    # candidate list is long-first, so a plain prefix cut is all long
    # sentences, while the reference is dominated by short ones
    kept = [tree_of_len(10) for _ in range(30)] + [tree_of_len(2) for _ in range(30)]
    reference = [tree_of_len(2) for _ in range(90)] + [tree_of_len(10) for _ in range(10)]
    budget = 60

    def bin_hist(trees):
        hist = np.zeros(2)
        for t in trees:
            hist[(len(t) - 1) // 5] += 1
        return hist / hist.sum()

    target = bin_hist(reference)
    matched = length_matched_sample(kept, reference, budget, seed=3)
    prefix = take_token_budget(kept, budget)
    assert sum(len(t) for t in matched) <= budget
    l1_matched = np.abs(bin_hist(matched) - target).sum()
    l1_prefix = np.abs(bin_hist(prefix) - target).sum()
    assert l1_matched < l1_prefix


def test_length_matching_is_deterministic():
    rng = np.random.default_rng(5)
    kept = [tree_of_len(int(rng.integers(1, 12))) for _ in range(50)]
    reference = [tree_of_len(int(rng.integers(1, 12))) for _ in range(50)]
    out1 = length_matched_sample(kept, reference, budget=100, seed=9)
    out2 = length_matched_sample(kept, reference, budget=100, seed=9)
    assert [t.forms for t in out1] == [t.forms for t in out2]
    assert sum(len(t) for t in out1) <= 100


def numpy_length_matched_sample(kept, reference, budget, seed):
    """The numpy-array form of length_matched_sample's draw loop, kept as a
    reference for the plain-Python one."""
    n_bins = max(max((len(t) - 1) // 5 for t in reference), max((len(t) - 1) // 5 for t in kept)) + 1
    target = np.zeros(n_bins)
    for t in reference:
        target[(len(t) - 1) // 5] += 1
    target /= target.sum()
    rng = np.random.default_rng(seed)
    pools = [[] for _ in range(n_bins)]
    for t in kept:
        pools[(len(t) - 1) // 5].append(t)
    for b, pool in enumerate(pools):
        idx = rng.permutation(len(pool))
        pools[b] = [pool[i] for i in idx]
    out = []
    counts = np.zeros(n_bins)
    total_tokens = 0
    while True:
        nonempty = [b for b in range(n_bins) if pools[b]]
        if not nonempty:
            break
        deficit = target * (counts.sum() + 1) - counts
        ideal = int(np.argmax(deficit))
        placed = False
        for b in sorted(nonempty, key=lambda b: (abs(b - ideal), b)):
            tree = pools[b][-1]
            if total_tokens + len(tree) <= budget:
                pools[b].pop()
                out.append(tree)
                counts[b] += 1
                total_tokens += len(tree)
                placed = True
                break
        if not placed:
            break
    return out


def test_length_matching_draws_as_the_numpy_loop():
    rng = np.random.default_rng(21)
    for _ in range(40):
        kept = [tree_of_len(int(rng.integers(1, 40))) for _ in range(int(rng.integers(1, 120)))]
        # reference bins with equal or near-equal shares exercise the first-maximum tie rule
        reference = [tree_of_len(int(rng.integers(1, 30))) for _ in range(int(rng.integers(1, 60)))]
        budget = int(rng.integers(0, sum(len(t) for t in kept) + 10))
        seed = int(rng.integers(0, 1000))
        got = length_matched_sample(kept, reference, budget, seed)
        want = numpy_length_matched_sample(kept, reference, budget, seed)
        assert len(got) == len(want)
        assert all(a is b for a, b in zip(got, want))


def test_length_matching_empty_reference_degrades(caplog):
    kept = [tree_of_len(4), tree_of_len(5), tree_of_len(6)]
    with caplog.at_level("WARNING"):
        out = length_matched_sample(kept, [], budget=10, seed=0)
    assert [len(t) for t in out] == [4, 5]
    assert any("empty reference" in r.message for r in caplog.records)
    assert length_matched_sample([], [tree_of_len(3)], budget=10, seed=0) == []


def test_merge_tags_and_shuffles():
    gold = [make_tree([0]), make_tree([0, 1])]
    auto = [make_tree([2, 0, 2]), make_tree([0])]
    for t in auto:
        t.origin = "auto"
    merged = merge_training_sets(gold, auto, seed=11)
    assert len(merged) == 4
    assert sum(1 for t in merged if t.origin == "gold") == 2
    assert sum(1 for t in merged if t.origin == "auto") == 2
    # reproducible order, and some seed produces a non-trivial shuffle
    again = merge_training_sets(gold, auto, seed=11)
    assert [t.forms for t in merged] == [t.forms for t in again]
    all_forms = sorted(tuple(t.forms) for t in merged)
    assert all_forms == sorted(tuple(t.forms) for t in gold + auto)
    # inputs keep their own origin tags and are not aliased
    assert not any(m is t for m in merged for t in gold + auto)
    with pytest.raises(AttributeError):
        merged[0].tokens[0].form = "mutated"
    assert all(t.origin == "gold" for t in gold)


def test_stats_report_lines():
    stats = FilterStats(mode="labeled", total_sentences=8, kept_sentences=2, kept_tokens=9)
    lines = stats.report()
    assert "mode=labeled" in lines
    assert "total_sentences=8" in lines
    assert "kept_sentences=2" in lines
    assert "kept_tokens=9" in lines
    assert "agreement_rate=0.2500" in lines
    assert "mean_length=4.50" in lines
    empty = FilterStats(mode="labeled", total_sentences=0, kept_sentences=0, kept_tokens=0)
    assert empty.agreement_rate == 0.0
    assert empty.mean_length == 0.0
