"""Seeded synthetic treebanks and agreement pairs.

Sentences follow a small phrase grammar over POS tags,

    S -> NP [R] V [NP] PP*        NP -> D A* N        PP -> P NP

where each class has a few subtype tags (N0..N3, V0..V2, ...).  Heads follow
from the tags alone: D and A attach to their noun, the subject and object
nouns and adverbs to the verb, a PP's noun to its preposition, and the
preposition to the verb or to the nearest noun before it, as its subtype
says.  The arc label is a fixed function of (head tag, dependent tag, side),
so a workload's label count is set by that table.  Words are drawn per tag
from a Zipfian lexicon, and pretrained vectors for the lexicon are clustered
by tag.  A greedy parser can learn this from a few hundred
updates, which a run can afford, while a chain of neighbour attachments
stays far behind.

The grammar's tables depend only on the workload's shape; ``--seed`` picks
the sentences.  Every tree is single-rooted and projective by construction.
"""

import random
from dataclasses import dataclass

LEFT, RIGHT = 0, 1
# Tag classes and their subtype counts.
CLASSES = {"D": 2, "A": 2, "N": 4, "V": 3, "R": 2, "P": 3}
# Preposition subtypes that attach to the verb; the others take the noun before them.
VERB_PREPOSITIONS = {"P0"}


@dataclass(frozen=True)
class CorpusShape:
    n_labels: int
    n_words: int  # word types in the lexicon, split evenly across tags
    zipf: float  # Zipf exponent of the per-tag word distributions
    min_len: int
    max_len: int


@dataclass(frozen=True)
class Sentence:
    forms: tuple
    tags: tuple
    heads: tuple
    labels: tuple

    def __len__(self):
        return len(self.forms)


class Grammar:
    """Fixed per shape: the label table and the lexicon."""

    def __init__(self, shape, grammar_seed=20150619):
        rng = random.Random(f"{grammar_seed}:{shape}")
        self.shape = shape
        self.tags = {c: [f"{c}{i}" for i in range(k)] for c, k in CLASSES.items()}
        labels = [f"l{i:02d}" for i in range(shape.n_labels)]
        arcs = [("N", "D", LEFT), ("N", "A", LEFT), ("V", "N", LEFT), ("V", "R", LEFT),
                ("V", "N", RIGHT), ("V", "P", RIGHT), ("N", "P", RIGHT), ("P", "N", RIGHT)]
        combos = [(h, d, side) for hc, dc, side in arcs for h in self.tags[hc] for d in self.tags[dc]]
        rng.shuffle(combos)
        self.label_of = {c: labels[i % len(labels)] for i, c in enumerate(combos)}
        every = [t for ts in self.tags.values() for t in ts]
        per_tag = max(1, shape.n_words // len(every))
        self.words = {t: [f"{t.lower()}_{k}" for k in range(per_tag)] for t in every}
        self.word_weights = [1.0 / (k + 1) ** shape.zipf for k in range(per_tag)]

    def _noun_phrase(self, rng, toks, adjectives):
        """Append D A* N; return the noun's index."""
        start = len(toks)
        toks.append([rng.choice(self.tags["D"]), None])
        for _ in range(adjectives):
            toks.append([rng.choice(self.tags["A"]), None])
        noun = len(toks)
        toks.append([rng.choice(self.tags["N"]), None])
        for i in range(start, noun):
            toks[i][1] = noun
        return noun

    def _attempt(self, rng, target):
        toks = []  # [tag, head index or None for the root]
        adjectives = lambda: rng.choice((0, 0, 1, 2))  # noqa: E731
        subject = self._noun_phrase(rng, toks, adjectives())
        adverb = None
        if target - len(toks) > 2 and rng.random() < 0.4:
            adverb = len(toks)
            toks.append([rng.choice(self.tags["R"]), None])
        verb = len(toks)
        toks.append([rng.choice(self.tags["V"]), None])
        toks[subject][1] = verb
        if adverb is not None:
            toks[adverb][1] = verb
        last_noun = None
        if target - len(toks) >= 2:
            last_noun = self._noun_phrase(rng, toks, adjectives())
            toks[last_noun][1] = verb
        while target - len(toks) >= 3:
            prep = len(toks)
            tag = rng.choice(self.tags["P"])
            toks.append([tag, verb if tag in VERB_PREPOSITIONS or last_noun is None else last_noun])
            noun = self._noun_phrase(rng, toks, min(adjectives(), target - len(toks) - 2))
            toks[noun][1] = prep
            last_noun = noun
        return toks

    def sentence(self, rng, length):
        while True:
            toks = self._attempt(rng, length)
            if len(toks) == length:
                break
        tags = tuple(t for t, _ in toks)
        heads = tuple(0 if h is None else h + 1 for _, h in toks)
        labels = tuple(
            "root" if h is None else self.label_of[toks[h][0], t, LEFT if i < h else RIGHT]
            for i, (t, h) in enumerate(toks)
        )
        forms = tuple(rng.choices(self.words[t], self.word_weights)[0] for t in tags)
        return Sentence(forms, tags, heads, labels)


def sentences(grammar, rng, count):
    """``count`` sentences whose lengths spread evenly over the shape's range.

    Only the content and the order depend on the seed; the multiset of
    lengths, and so the number of tokens and of oracle decisions, does not.
    """
    lo, hi = grammar.shape.min_len, grammar.shape.max_len
    lengths = [lo + (k * (hi - lo + 1)) // count for k in range(count)]
    rng.shuffle(lengths)
    return [grammar.sentence(rng, n) for n in lengths]


def write_embeddings(path, grammar, dim, scale=0.3):
    """Pretrained vectors for the whole lexicon, clustered by tag: a word's
    vector is its tag's centre plus smaller noise, as embeddings trained on
    raw text group words by syntactic class.  Fixed per grammar."""
    rng = random.Random(f"embeddings:{grammar.shape}:{dim}")
    with open(path, "w", encoding="utf-8") as f:
        words = [(t, w) for t, ws in grammar.words.items() for w in ws]
        f.write(f"{len(words)} {dim}\n")
        centres = {t: [rng.gauss(0.0, scale) for _ in range(dim)] for t in grammar.words}
        for tag, word in words:
            vec = " ".join(f"{c + rng.gauss(0.0, 0.3 * scale):.4f}" for c in centres[tag])
            f.write(f"{word} {vec}\n")


def write_conll(path, sents, heads=None, labels=None):
    """Write sentences as 10-column CoNLL; heads/labels override per sentence."""
    with open(path, "w", encoding="utf-8") as f:
        for k, s in enumerate(sents):
            hs = s.heads if heads is None else heads[k]
            ls = s.labels if labels is None else labels[k]
            for i in range(len(s)):
                f.write(f"{i + 1}\t{s.forms[i]}\t_\t{s.tags[i]}\t{s.tags[i]}\t_\t{hs[i]}\t{ls[i]}\t_\t_\n")
            f.write("\n")


def disagreeing_copy(rng, sents, share, label_pool):
    """Parser-B view of parser-A's trees: a seeded ``share`` of the sentences
    (rounded to a whole count) get one changed head or label.  Returns
    (heads, labels, agree flags)."""
    changed = set(rng.sample(range(len(sents)), round(share * len(sents))))
    heads, labels, agree = [], [], []
    for k, s in enumerate(sents):
        hs, ls = list(s.heads), list(s.labels)
        if k in changed:
            i = rng.randrange(len(s))
            others = [h for h in range(len(s) + 1) if h not in (i + 1, hs[i])]
            if others and rng.random() < 0.5:
                hs[i] = rng.choice(others)
            else:
                ls[i] = rng.choice([l for l in label_pool if l != ls[i]])
        heads.append(tuple(hs))
        labels.append(tuple(ls))
        agree.append(k not in changed)
    return heads, labels, agree
