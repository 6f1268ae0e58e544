import numpy as np
import pytest

from beamparse import transitions as T
from beamparse.features import (
    NULL_ID,
    N_LABEL_FEATURES,
    N_TAG_FEATURES,
    N_WORD_FEATURES,
    ROOT_ID,
    SPECIALS,
    UNK_ID,
    Vocabulary,
    build_vocabularies,
    extract_batch,
    extract_features,
    template_positions,
)
from beamparse.transitions import Decision, LEFT_ARC, RIGHT_ARC, SHIFT
from beamparse.treebank import DepTree

from helpers import make_tree

S = Decision(SHIFT)


def test_special_ids():
    assert (ROOT_ID, NULL_ID, UNK_ID) == (0, 1, 2)
    assert SPECIALS == ("<ROOT>", "<NULL>", "<UNK>")


def test_vocabulary_lookup_and_unk():
    v = Vocabulary("word", ["b", "a"])
    assert len(v) == 5
    assert v.id("b") == 3
    assert v.id("a") == 4
    assert v.id("zzz") == UNK_ID
    assert "a" in v and "zzz" not in v
    assert v.entries() == ["b", "a"]
    with pytest.raises(ValueError):
        Vocabulary("word", ["a", "a"])


def test_build_vocabularies_frequency_order_and_cutoff():
    trees = [
        make_tree([0, 1], forms=["cat", "dog"], pos=["N", "N"], labels=["root", "x"]),
        make_tree([0, 1], forms=["cat", "eel"], pos=["N", "V"], labels=["root", "x"]),
        make_tree([0], forms=["cat"], pos=["N"], labels=["root"]),
    ]
    vocabs = build_vocabularies(trees, word_min_count=2)
    # only "cat" clears the cutoff; tags and labels are never cut
    assert vocabs.word.entries() == ["cat"]
    assert vocabs.word.id("dog") == UNK_ID
    assert vocabs.tag.entries() == ["N", "V"]
    assert vocabs.label.entries() == ["root", "x"]
    assert len(vocabs.decisions) == 1 + 2 * 2


def test_build_vocabularies_ties_break_lexicographically():
    trees = [make_tree([0, 1], forms=["b", "a"], pos=["B", "A"], labels=["r", "q"])]
    vocabs = build_vocabularies(trees, word_min_count=1)
    assert vocabs.word.entries() == ["a", "b"]
    assert vocabs.tag.entries() == ["A", "B"]
    assert vocabs.label.entries() == ["q", "r"]


def test_build_vocabularies_rejects_empty():
    with pytest.raises(ValueError):
        build_vocabularies([])


def make_sentence(vocabs, tree):
    return vocabs.index_sentence(tree)


def corpus_vocabs():
    trees = [
        make_tree(
            [2, 0, 2, 3],
            forms=["w1", "w2", "w3", "w4"],
            pos=["A", "B", "A", "C"],
            labels=["la", "root", "lb", "la"],
        )
    ]
    return build_vocabularies(trees, word_min_count=1), trees[0]


def test_feature_widths():
    vocabs, tree = corpus_vocabs()
    sent = make_sentence(vocabs, tree)
    feats = extract_features(T.initial_configuration(len(tree)), sent)
    assert feats.word_ids.shape == (N_WORD_FEATURES,)
    assert feats.tag_ids.shape == (N_TAG_FEATURES,)
    assert feats.label_ids.shape == (N_LABEL_FEATURES,)
    assert (N_WORD_FEATURES, N_TAG_FEATURES, N_LABEL_FEATURES) == (20, 20, 12)


def test_initial_configuration_features():
    vocabs, tree = corpus_vocabs()
    sent = make_sentence(vocabs, tree)
    feats = extract_features(T.initial_configuration(4), sent)
    # stack: only the artificial root; buffer: tokens 1..4
    assert feats.word_ids[0] == ROOT_ID
    assert all(feats.word_ids[i] == NULL_ID for i in (1, 2, 3))
    expected_buffer = [vocabs.word.id(f) for f in tree.forms]
    assert feats.word_ids[4:8].tolist() == expected_buffer
    # no arcs yet: all twelve child slots (and their labels) are NULL
    assert all(feats.word_ids[8:] == NULL_ID)
    assert all(feats.label_ids == NULL_ID)


def test_buffer_slots_truncate_at_sentence_end():
    vocabs, tree = corpus_vocabs()
    sent = make_sentence(vocabs, tree)
    c = T.replay([S, S, S], 4)  # front = 4, only one buffer token left
    feats = extract_features(c, sent)
    assert feats.word_ids[4] == vocabs.word.id("w4")
    assert all(feats.word_ids[i] == NULL_ID for i in (5, 6, 7))


def test_child_features_reflect_built_arcs():
    vocabs, tree = corpus_vocabs()
    sent = make_sentence(vocabs, tree)
    # attach token 1 under token 2 with label la, keep 2 on the stack
    c = T.replay([S, S, Decision(LEFT_ARC, "la"), S], 4)
    base, children = template_positions(c)
    assert base[0] == 3 and base[1] == 2  # s1 = token 3, s2 = token 2
    # s2's leftmost child is token 1; everything else is absent
    assert children[6] == 1
    feats = extract_features(c, sent)
    assert feats.word_ids[8 + 6] == vocabs.word.id("w1")
    assert feats.label_ids[6] == vocabs.label.id("la")


def test_unknown_words_fall_back_to_unk():
    vocabs, _ = corpus_vocabs()
    other = make_tree([0], forms=["unseen"], pos=["A"], labels=["root"])
    sent = make_sentence(vocabs, other)
    feats = extract_features(T.initial_configuration(1), sent)
    assert feats.word_ids[4] == UNK_ID
    assert feats.tag_ids[4] == vocabs.tag.id("A")


def test_features_depend_only_on_local_window():
    """Mutating a token outside every template slot leaves features unchanged."""
    long_tree = make_tree(
        [0] + [1] * 9,
        forms=[f"w{i}" for i in range(10)],
        pos=["A"] * 10,
        labels=["root"] + ["la"] * 9,
    )
    vocabs = build_vocabularies([long_tree], word_min_count=1)
    c = T.initial_configuration(10)  # buffer window covers tokens 1..4 only
    feats0 = extract_features(c, vocabs.index_sentence(long_tree))
    forms = list(long_tree.forms)
    forms[7] = "w3"  # token 8: outside stack, buffer window, children
    mutated = DepTree.build(forms, long_tree.pos_tags, long_tree.heads, long_tree.labels)
    feats1 = extract_features(c, vocabs.index_sentence(mutated))
    assert np.array_equal(feats0.word_ids, feats1.word_ids)
    assert np.array_equal(feats0.tag_ids, feats1.tag_ids)
    assert np.array_equal(feats0.label_ids, feats1.label_ids)


def test_second_level_child_slots():
    # chain 1 <- 2 <- 3: token 3 on top has left child 2, which has left child 1
    tree = make_tree([2, 3, 0], labels=["la", "la", "root"])
    vocabs = build_vocabularies([tree], word_min_count=1)
    la = Decision(LEFT_ARC, "la")
    c = T.replay([S, S, la, S, la], 3)
    base, children = template_positions(c)
    assert base[0] == 3
    assert children[0] == 2  # lc1(s1)
    assert children[4] == 1  # lc1(lc1(s1))
    # mirrored chain 1 -> 2 -> 3
    tree_r = make_tree([0, 1, 2], labels=["root", "ra", "ra"])
    ra = Decision(RIGHT_ARC, "ra")
    c = T.replay([S, S, S, ra, ra], 3)
    base, children = template_positions(c)
    assert base[0] == 1
    assert children[2] == 2  # rc1(s1)
    assert children[5] == 3  # rc1(rc1(s1))


def test_indexed_sentence_carries_root_prefix():
    vocabs, tree = corpus_vocabs()
    sent = vocabs.index_sentence(tree)
    assert sent.ids[0, 0] == ROOT_ID
    assert sent.ids[1, 0] == ROOT_ID
    assert sent.n == 4
    # root, four tokens, and the NULL column that position -1 reads
    assert sent.ids.shape == (2, 6)
    assert sent.ids[0, -1] == NULL_ID and sent.ids[1, -1] == NULL_ID


def test_batched_extraction_matches_per_configuration():
    """Every configuration of random legal walks, extracted as one batch per
    walk, equals the single-configuration rows stacked.  The walks attach
    with a label the vocabulary lacks as well as known ones, over a
    sentence with an unknown word, so rows carry ROOT, NULL and UNK ids."""
    tree = make_tree([2, 0, 2, 3, 4, 4], labels=["la", "root", "lb", "la", "lb", "la"])
    vocabs = build_vocabularies([tree], word_min_count=1)
    other = make_tree([0, 1, 1, 3, 3, 1, 6], forms=["w1", "w2", "zz", "w4", "w5", "w6", "w3"])
    rng = np.random.default_rng(4)
    decisions = T.DecisionSet(["la", "lb", "unseen"])
    seen = {"word": set(), "tag": set(), "label": set()}
    for walk in range(30):
        sent = vocabs.index_sentence(other)
        configs = [T.initial_configuration(sent.n)]
        while not T.is_terminal(configs[-1]):
            ids = decisions.legal_ids(configs[-1])
            configs.append(T.apply(configs[-1], decisions.decision(int(rng.choice(ids)))))
        word, tag, label = extract_batch(configs, sent)
        single = [extract_features(c, sent) for c in configs]
        for got, group in ((word, "word"), (tag, "tag"), (label, "label")):
            want = np.stack([getattr(f, f"{group}_ids") for f in single])
            assert got.dtype == np.int64 and np.array_equal(got, want)
            seen[group].update(got.ravel().tolist())
    assert {ROOT_ID, NULL_ID, UNK_ID} <= seen["word"]
    assert {ROOT_ID, NULL_ID} <= seen["tag"]
    assert {NULL_ID, UNK_ID, vocabs.label.id("la"), vocabs.label.id("lb")} <= seen["label"]

