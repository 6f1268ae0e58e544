"""Shared test utilities: independent oracles and synthetic corpus builders.

Everything here is deliberately written against first principles rather than
the library's own code paths, so tests compare two independent routes to the
same answer.
"""

from functools import lru_cache
from itertools import product

import numpy as np

from beamparse import network as N
from beamparse import transitions as T
from beamparse.treebank import DepTree


def make_tree(heads, labels=None, forms=None, pos=None):
    n = len(heads)
    if labels is None:
        labels = [("la", "lb")[i % 2] for i in range(n)]
    if forms is None:
        forms = [f"w{i}" for i in range(1, n + 1)]
    if pos is None:
        pos = [("A", "B", "C")[i % 3] for i in range(n)]
    return DepTree.build(forms, pos, heads, labels)


# ---------------------------------------------------------------------------
# Exhaustive enumeration of projective single-root head vectors.
#
# A projective subtree over a contiguous span [l, r] picks a root k; the
# tokens left of k split into consecutive complete subtrees whose roots all
# attach to k, and likewise on the right.  The decomposition is unique, so
# each tree is produced exactly once.


@lru_cache(maxsize=None)
def _span_trees(l, r):
    """All (root, heads-dict) for a complete subtree covering tokens l..r."""
    out = []
    for k in range(l, r + 1):
        for left in _attach_forests(l, k - 1, k):
            for right in _attach_forests(k + 1, r, k):
                out.append((k, {**left, **right}))
    return tuple(out)


@lru_cache(maxsize=None)
def _attach_forests(l, r, head):
    """All heads-dicts covering l..r as consecutive subtrees hanging off head."""
    if l > r:
        return ({},)
    out = []
    for m in range(l, r + 1):
        for root1, sub in _span_trees(l, m):
            first = dict(sub)
            first[root1] = head
            for rest in _attach_forests(m + 1, r, head):
                out.append({**first, **rest})
    return tuple(out)


def all_projective_heads(n):
    """Every projective single-root head vector for an n-token sentence."""
    for root, sub in _span_trees(1, n):
        heads = [0] * n
        for dep, head in sub.items():
            heads[dep - 1] = head
        yield tuple(heads)


# Independent projectivity definition: well-formed, and for every arc each
# token strictly between head and dependent descends from the head.  (The
# library uses pairwise span-crossing instead.)


def _well_formed(heads):
    n = len(heads)
    if sum(1 for h in heads if h == 0) != 1:
        return False
    for start in range(1, n + 1):
        k, seen = start, set()
        while k != 0:
            if k in seen or not 1 <= k <= n:
                return False
            seen.add(k)
            k = heads[k - 1]
    return True


def brute_force_projective(heads):
    if not _well_formed(heads):
        return False
    n = len(heads)

    def descends(tok, ancestor):
        while tok != 0:
            if tok == ancestor:
                return True
            tok = heads[tok - 1]
        return ancestor == 0

    for dep in range(1, n + 1):
        head = heads[dep - 1]
        lo, hi = min(dep, head), max(dep, head)
        for k in range(lo + 1, hi):
            if not descends(k, head):
                return False
    return True


def brute_force_head_vectors(n):
    """All head vectors over n tokens that are projective single-root trees.

    Pure filter over the full (n+1)^n space; only usable for small n.
    """
    for heads in product(range(n + 1), repeat=n):
        if brute_force_projective(heads):
            yield heads


def random_projective_tree(rng, n, labels=("la", "lb")):
    """Uniformly random legal derivation; yields some projective tree."""
    dset = T.DecisionSet(list(labels))
    config = T.initial_configuration(n)
    while not T.is_terminal(config):
        ids = dset.legal_ids(config)
        did = int(ids[rng.integers(len(ids))])
        config = T.apply(config, dset.decision(did))
    heads = [config.heads[i] for i in range(1, n + 1)]
    arc_labels = [config.labels[i] for i in range(1, n + 1)]
    forms = [f"w{int(rng.integers(30))}" for _ in range(n)]
    pos = [("A", "B", "C")[int(rng.integers(3))] for _ in range(n)]
    return DepTree.build(forms, pos, heads, arc_labels)


# ---------------------------------------------------------------------------
# Synthetic corpora


DETS = ["the", "a", "some", "this"]
NOUNS = [f"n{i}" for i in range(30)]
VERBS = [f"v{i}" for i in range(12)]


def toy_corpus(n_sentences, rng):
    """Deterministic determiner-noun-verb grammar; heads follow from POS alone.

    Half the sentences are D N V, half D N V D N; always projective and
    single-rooted with labels det/arg/root.
    """
    trees = []
    for _ in range(n_sentences):
        d1 = DETS[rng.integers(len(DETS))]
        n1 = NOUNS[rng.integers(len(NOUNS))]
        v = VERBS[rng.integers(len(VERBS))]
        if rng.random() < 0.5:
            forms = [d1, n1, v]
            pos = ["D", "N", "V"]
            heads = [2, 3, 0]
            labels = ["det", "arg", "root"]
        else:
            d2 = DETS[rng.integers(len(DETS))]
            n2 = NOUNS[rng.integers(len(NOUNS))]
            forms = [d1, n1, v, d2, n2]
            pos = ["D", "N", "V", "D", "N"]
            heads = [2, 3, 0, 5, 3]
            labels = ["det", "arg", "root", "det", "arg"]
        trees.append(DepTree.build(forms, pos, heads, labels))
    return trees


CONTENT_WORDS = [f"c{i}" for i in range(30)]
AMBIG_LABELS = ["att", "mod", "root"]


def ambiguous_corpus(n_sentences, rng, label_noise=0.0):
    """Sentences whose whole structure hinges on a sentence-final marker
    that sits outside the local feature window when the parser must commit.

    Layout: six content tokens and a marker.  With marker "ma" every
    content token heads to its right neighbour and the marker is the root
    (a left chain, built by alternating shifts and left arcs); with "mb"
    every token heads to its left neighbour and the first token is the root
    (a right chain, built by shifting everything and reducing from the
    right).  The two derivations already differ at the third decision,
    where only the first four buffer tokens are visible and the classes
    look identical, so a greedy parser commits blind and then cascades.  A
    beam keeps both analyses alive; once the marker enters the feature
    window every following decision (left arc versus shift) reveals the
    class, so a scorer over the beam can rank the correct analysis first.
    Arc labels follow the dependent's POS tag, so they are predictable from
    the feature window; ``label_noise`` flips one arc label per affected
    sentence to a random other label.
    """
    trees = []
    n = 7
    for _ in range(n_sentences):
        cls_a = rng.random() < 0.5
        forms = [CONTENT_WORDS[rng.integers(len(CONTENT_WORDS))] for _ in range(n - 1)]
        forms.append("ma" if cls_a else "mb")
        pos = [("A", "B", "C")[i % 3] for i in range(n - 1)] + ["M"]
        if cls_a:
            heads = [i + 2 for i in range(n - 1)] + [0]
        else:
            heads = [0] + [i + 1 for i in range(n - 1)]
        labels = [
            "root" if h == 0 else ("att" if p == "B" else "mod")
            for h, p in zip(heads, pos)
        ]
        if label_noise and rng.random() < label_noise:
            i = int(rng.integers(len(labels)))
            alternatives = [l for l in AMBIG_LABELS if l != labels[i]]
            labels[i] = alternatives[int(rng.integers(len(alternatives)))]
        trees.append(DepTree.build(forms, pos, heads, labels))
    return trees


def corrupt_label(tree, new_label):
    """A copy with the first token's arc label replaced; heads untouched."""
    labels = (new_label,) + tree.labels[1:]
    return DepTree.build(tree.forms, tree.pos_tags, tree.heads, labels, tree.origin)


def noisy_parser_pair(gold_trees, rng, p_correct=0.5):
    """Two synthetic parser outputs, each independently correct with
    probability p_correct and otherwise corrupted in a parser-specific way.
    The corruptions never coincide, so the outputs agree on a sentence
    exactly when both are correct (probability p_correct squared)."""
    a_out, b_out = [], []
    for tree in gold_trees:
        a_out.append(tree.copy() if rng.random() < p_correct else corrupt_label(tree, "xa"))
        b_out.append(tree.copy() if rng.random() < p_correct else corrupt_label(tree, "xb"))
    return a_out, b_out


# ---------------------------------------------------------------------------
# Finite-difference gradient oracle


def fd_gradient_errors(params, word_ids, tag_ids, label_ids, legal, gold, lam, eps=1e-4):
    """Max relative error between analytic and central-difference gradients,
    per parameter block, checking every coordinate."""
    _, grads = N.loss_and_gradient(params, word_ids, tag_ids, label_ids, legal, gold, lam)

    def loss_at():
        value, _ = N.loss_and_gradient(params, word_ids, tag_ids, label_ids, legal, gold, lam)
        return value

    errors = {}
    for name, arr in params.fields():
        analytic = grads[name]
        worst = 0.0
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + eps
            up = loss_at()
            arr[idx] = orig - eps
            down = loss_at()
            arr[idx] = orig
            fd = (up - down) / (2 * eps)
            a = analytic[idx]
            rel = abs(fd - a) / max(abs(fd), abs(a), 1e-6)
            worst = max(worst, rel)
        errors[name] = worst
    return errors


def stepwise_argmax(params, tree, vocabs, precomp=None):
    """Greedy decoding written without the beam: take the most probable
    legal decision at every step, ties to the lowest id."""
    sentence = vocabs.index_sentence(tree)
    config = T.initial_configuration(sentence.n)
    while not T.is_terminal(config):
        trace = N.forward_config(params, config, sentence, precomp)
        did = int(np.argmax(trace.log_probs[0]))
        config = T.apply(config, sentence.decisions.decision(did))
    return T.config_to_tree(config, tree)


def tiny_vocabs(n_words=5, n_tags=3, labels=("la", "lb")):
    from beamparse.features import Vocabulary, Vocabs

    return Vocabs(
        Vocabulary("word", [f"w{i}" for i in range(n_words)]),
        Vocabulary("tag", ["A", "B", "C"][:n_tags]),
        Vocabulary("label", list(labels)),
    )
