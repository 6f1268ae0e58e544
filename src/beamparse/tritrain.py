"""Agreement-based selection of automatically parsed sentences.

Two independent parsers read the same raw text; a sentence survives only if
both produced the same tree.  The survivors, optionally cut to a token
budget or resampled to match a reference length distribution, become extra
training data tagged with their provenance.
"""

import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

LENGTH_BIN_WIDTH = 5


@dataclass
class FilterStats:
    mode: str
    total_sentences: int
    kept_sentences: int
    kept_tokens: int

    @property
    def agreement_rate(self):
        return self.kept_sentences / self.total_sentences if self.total_sentences else 0.0

    @property
    def mean_length(self):
        return self.kept_tokens / self.kept_sentences if self.kept_sentences else 0.0

    def report(self):
        return [
            f"mode={self.mode}",
            f"total_sentences={self.total_sentences}",
            f"kept_sentences={self.kept_sentences}",
            f"kept_tokens={self.kept_tokens}",
            f"agreement_rate={self.agreement_rate:.4f}",
            f"mean_length={self.mean_length:.2f}",
        ]


def _same_parse(a, b, mode):
    if a.heads != b.heads:
        return False
    if mode == "labeled" and a.labels != b.labels:
        return False
    return True


def agreement_filter(parses_a, parses_b, mode="labeled"):
    """Keep sentence i iff both parsers produced the same tree for it.

    In labeled mode (the default, the stricter reading) labels must match
    too.  The kept trees are copies of parser A's output tagged as auto
    data.  Raises on any form mismatch: that means the two inputs are not
    parses of the same text.
    """
    if mode not in ("labeled", "unlabeled"):
        raise ValueError(f"unknown agreement mode: {mode!r}")
    parses_a = list(parses_a)
    parses_b = list(parses_b)
    if len(parses_a) != len(parses_b):
        raise ValueError(
            f"parser outputs differ in sentence count: {len(parses_a)} vs {len(parses_b)}"
        )
    kept = []
    tokens = 0
    for i, (a, b) in enumerate(zip(parses_a, parses_b)):
        if a.forms != b.forms:
            raise ValueError(f"form mismatch between parser outputs at sentence {i}")
        if _same_parse(a, b, mode):
            tree = a.copy()
            tree.origin = "auto"
            kept.append(tree)
            tokens += len(tree)
    stats = FilterStats(mode, len(parses_a), len(kept), tokens)
    return kept, stats


def take_token_budget(kept, budget):
    """Longest prefix whose total token count stays within the budget.

    Sentences are never split, so the result can undershoot.
    """
    if budget < 0:
        raise ValueError("token budget must be non-negative")
    out = []
    total = 0
    for tree in kept:
        if total + len(tree) > budget:
            break
        out.append(tree)
        total += len(tree)
    return out


def _length_bin(tree):
    return (len(tree) - 1) // LENGTH_BIN_WIDTH


def length_matched_sample(kept, reference, budget, seed):
    """Sample from kept so the length histogram tracks the reference treebank.

    Sentences are stratified into length bins of width 5.  Draws follow the
    reference bin proportions greedily; when the wanted bin is exhausted the
    nearest non-empty bin stands in.  Deterministic under the seed.  With an
    empty reference this degrades to a plain budget cut.
    """
    if budget < 0:
        raise ValueError("token budget must be non-negative")
    kept = list(kept)
    reference = list(reference)
    if not reference:
        log.warning("length matching requested with empty reference; taking budget prefix")
        return take_token_budget(kept, budget)
    if not kept:
        return []

    n_bins = max(max(_length_bin(t) for t in reference), max(_length_bin(t) for t in kept)) + 1
    target = [0] * n_bins
    for t in reference:
        target[_length_bin(t)] += 1
    target = [c / len(reference) for c in target]

    rng = np.random.default_rng(seed)
    pools = [[] for _ in range(n_bins)]
    for t in kept:
        pools[_length_bin(t)].append(t)
    for b, pool in enumerate(pools):
        idx = rng.permutation(len(pool))
        pools[b] = [pool[i] for i in idx]  # pop() then draws uniformly without replacement

    out = []
    counts = [0] * n_bins
    total_tokens = 0
    while True:
        nonempty = [b for b in range(n_bins) if pools[b]]
        if not nonempty:
            break
        # plain floats and ints: the same float64 arithmetic as numpy, and
        # index(max()) takes the first maximum as argmax does
        deficit = [w * (len(out) + 1) - c for w, c in zip(target, counts)]
        ideal = deficit.index(max(deficit))
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


def merge_training_sets(gold, auto, seed):
    """Concatenate gold and auto sentences and shuffle them reproducibly.

    Every tree keeps a provenance tag; inputs are not mutated.
    """
    merged = []
    for tree in gold:
        t = tree.copy()
        t.origin = "gold"
        merged.append(t)
    for tree in auto:
        t = tree.copy()
        t.origin = "auto"
        merged.append(t)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(merged))
    return [merged[i] for i in order]
