"""Discrete feature extraction: 20 word + 20 tag + 12 label ids per configuration.

The template is fixed. Word and tag features are taken from the top four
stack items (s1 = top) and the first four buffer tokens, plus six child
positions for each of s1 and s2: the two outermost left children, the two
outermost right children, the leftmost child of the leftmost child and the
rightmost child of the rightmost child.  Label features cover exactly those
twelve child positions, read from the arcs built so far.  Absent positions
yield NULL, the artificial root yields ROOT, unknown words yield UNK.
"""

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .transitions import DecisionSet

ROOT_ID = 0
NULL_ID = 1
UNK_ID = 2
SPECIALS = ("<ROOT>", "<NULL>", "<UNK>")

N_WORD_FEATURES = 20
N_TAG_FEATURES = 20
N_LABEL_FEATURES = 12


class Vocabulary:
    """Dense string-to-id map for one feature group, with ROOT/NULL/UNK at 0/1/2."""

    def __init__(self, group, items):
        self.group = group
        self.items = list(SPECIALS) + list(items)
        self._index = {s: i + len(SPECIALS) for i, s in enumerate(items)}
        if len(self._index) != len(self.items) - len(SPECIALS):
            raise ValueError(f"duplicate entries in {group} vocabulary")

    def __len__(self):
        return len(self.items)

    def id(self, s):
        return self._index.get(s, UNK_ID)

    def __contains__(self, s):
        return s in self._index

    def entries(self):
        """Non-special entries in id order."""
        return self.items[len(SPECIALS):]


def _ordered(counter, min_count=1):
    return [s for s, c in sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])) if c >= min_count]


def build_vocabularies(trees, word_min_count=2):
    """Frequency-ordered vocabularies for words, tags and labels.

    Words below ``word_min_count`` fall back to UNK; tags and labels are
    never cut.  Ordering is frequency descending with lexicographic
    tie-breaking, so two builds over the same corpus agree exactly.
    """
    words, tags, labels = Counter(), Counter(), Counter()
    n = 0
    for tree in trees:
        n += 1
        words.update(tree.forms)
        tags.update(tree.pos_tags)
        labels.update(tree.labels)
    if n == 0:
        raise ValueError("cannot build vocabularies from an empty treebank")
    return Vocabs(
        Vocabulary("word", _ordered(words, word_min_count)),
        Vocabulary("tag", _ordered(tags)),
        Vocabulary("label", _ordered(labels)),
    )


class Vocabs:
    """The word/tag/label vocabulary triple plus the decision space they induce."""

    def __init__(self, word, tag, label):
        self.word = word
        self.tag = tag
        self.label = label
        self.decisions = DecisionSet(label.entries())

    def index_sentence(self, tree):
        return IndexedSentence(self, tree)


class IndexedSentence:
    """A sentence with forms and tags pre-mapped to vocabulary ids.

    Position 0 stands for the artificial root and carries the ROOT id in
    both the word and tag arrays.  ``ids`` holds the word row and the tag
    row with one more column, NULL, so that the missing position -1 maps to
    NULL by plain indexing.
    """

    __slots__ = ("tree", "n", "ids", "label_vocab", "decisions")

    def __init__(self, vocabs, tree):
        self.tree = tree
        self.n = len(tree)
        words = [vocabs.word.id(f) for f in tree.forms]
        tags = [vocabs.tag.id(p) for p in tree.pos_tags]
        self.ids = np.array([[ROOT_ID, *words, NULL_ID], [ROOT_ID, *tags, NULL_ID]], dtype=np.int64)
        self.label_vocab = vocabs.label
        self.decisions = vocabs.decisions


@dataclass
class FeatureIds:
    word_ids: np.ndarray  # (20,)
    tag_ids: np.ndarray  # (20,)
    label_ids: np.ndarray  # (12,)


_MISSING = -1


def _child_slots(config, tok):
    """lc1, lc2, rc1, rc2, lc1(lc1), rc1(rc1) of a token index (or _MISSING)."""
    if tok == _MISSING:
        return (_MISSING,) * 6
    lefts = config.lefts[tok]
    rights = config.rights[tok]
    lc1 = lefts[0] if lefts else _MISSING
    lc2 = lefts[1] if len(lefts) > 1 else _MISSING
    rc1 = rights[-1] if rights else _MISSING
    rc2 = rights[-2] if len(rights) > 1 else _MISSING
    if lc1 != _MISSING and config.lefts[lc1]:
        lc1lc1 = config.lefts[lc1][0]
    else:
        lc1lc1 = _MISSING
    if rc1 != _MISSING and config.rights[rc1]:
        rc1rc1 = config.rights[rc1][-1]
    else:
        rc1rc1 = _MISSING
    return lc1, lc2, rc1, rc2, lc1lc1, rc1rc1


def template_positions(config):
    """Token indices (or -1) for the 8 stack/buffer slots and 12 child slots."""
    stack, n, front = config.stack, config.n, config.front
    depth = len(stack)
    base = [
        stack[-1] if depth >= 1 else _MISSING,
        stack[-2] if depth >= 2 else _MISSING,
        stack[-3] if depth >= 3 else _MISSING,
        stack[-4] if depth >= 4 else _MISSING,
        front if front <= n else _MISSING,
        front + 1 if front + 1 <= n else _MISSING,
        front + 2 if front + 2 <= n else _MISSING,
        front + 3 if front + 3 <= n else _MISSING,
    ]
    children = list(_child_slots(config, base[0])) + list(_child_slots(config, base[1]))
    return base, children


def extract_batch(configs, sentence):
    """Map configurations over one IndexedSentence to (B,20), (B,20) and
    (B,12) int64 id matrices: the template is walked per configuration, then
    words and tags are looked up for all rows at once."""
    positions = []
    labels = []
    label_id = sentence.label_vocab.id
    for config in configs:
        base, children = template_positions(config)
        positions += base
        positions += children
        arc_labels = config.labels
        labels.append([NULL_ID if p == _MISSING else label_id(arc_labels[p]) for p in children])
    ids = sentence.ids[:, positions].reshape(2, len(configs), N_WORD_FEATURES)
    return ids[0], ids[1], np.array(labels, dtype=np.int64).reshape(len(configs), N_LABEL_FEATURES)


def extract_features(config, sentence):
    """Map a configuration over an IndexedSentence to its FeatureIds."""
    word, tag, label = extract_batch([config], sentence)
    return FeatureIds(word[0], tag[0], label[0])
