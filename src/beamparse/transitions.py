"""Arc-standard transition system: configurations, legality, the static oracle.

A configuration holds a stack of token indices (0 is the artificial root and
always sits at the bottom), a buffer front pointer, and the arcs built so far.
SHIFT moves the buffer front onto the stack; LEFT_ARC attaches the second
stack item to the top and pops it; RIGHT_ARC attaches the top to the second
item and pops the top.  Every complete derivation for an n-token sentence has
exactly 2n decisions.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .treebank import DepTree

SHIFT = "SHIFT"
LEFT_ARC = "LEFT_ARC"
RIGHT_ARC = "RIGHT_ARC"


class IllegalDecision(ValueError):
    pass


class OracleError(ValueError):
    """The gold tree cannot be derived (non-projective or not single-rooted)."""


@dataclass(frozen=True)
class Decision:
    kind: str
    label: str = None

    def __repr__(self):
        return self.kind if self.kind == SHIFT else f"{self.kind}({self.label})"


class DecisionSet:
    """Dense, stable numbering of the 2L+1 decisions for L arc labels.

    Id 0 is SHIFT, ids 1..L are LEFT_ARC per label, ids L+1..2L RIGHT_ARC,
    with labels in the order they were given (the label vocabulary's order).
    """

    def __init__(self, labels):
        labels = list(labels)
        if not labels:
            raise ValueError("decision set needs at least one arc label")
        self.decisions = [Decision(SHIFT)]
        self.decisions += [Decision(LEFT_ARC, l) for l in labels]
        self.decisions += [Decision(RIGHT_ARC, l) for l in labels]
        self._ids = {d: i for i, d in enumerate(self.decisions)}
        # A mask depends only on the legal_kinds() triple: one shared,
        # read-only mask per triple.
        n = len(labels)
        self._masks = {}
        for kinds in itertools.product((False, True), repeat=3):
            mask = np.repeat(kinds, (1, n, n))
            mask.flags.writeable = False
            self._masks[kinds] = mask

    def __len__(self):
        return len(self.decisions)

    def decision(self, did):
        return self.decisions[did]

    def id_of(self, decision):
        try:
            return self._ids[decision]
        except KeyError:
            raise KeyError(f"unknown decision {decision!r}") from None

    def legal_mask(self, config):
        """The (|Y|,) bool legality row of a configuration; shared and read-only."""
        return self._masks[legal_kinds(config)]

    def legal_ids(self, config):
        return np.flatnonzero(self.legal_mask(config))


class Config:
    """Immutable parser state; apply() returns a new configuration."""

    __slots__ = ("n", "stack", "front", "heads", "labels", "lefts", "rights")

    def __init__(self, n, stack, front, heads, labels, lefts, rights):
        self.n = n
        self.stack = stack
        self.front = front
        self.heads = heads  # -1 while unattached; index 0 is the root, never attached
        self.labels = labels
        self.lefts = lefts  # per token, attached left children, ascending
        self.rights = rights  # per token, attached right children, ascending


def initial_configuration(n):
    if n < 1:
        raise ValueError(f"cannot parse a {n}-token sentence")
    empty = ((),) * (n + 1)
    return Config(n, (0,), 1, (-1,) * (n + 1), ("",) * (n + 1), empty, empty)


def legal_kinds(config):
    """(shift_ok, left_ok, right_ok) for the current configuration.

    LEFT_ARC needs a non-root second stack item.  RIGHT_ARC onto the root is
    only allowed once the buffer is drained, so exactly one token ever
    attaches to it.
    """
    depth = len(config.stack)
    shift_ok = config.front <= config.n
    left_ok = depth >= 3
    right_ok = depth >= 3 or (depth == 2 and not shift_ok)
    return shift_ok, left_ok, right_ok


def is_terminal(config):
    return config.front > config.n and len(config.stack) == 1


def apply(config, decision):
    shift_ok, left_ok, right_ok = legal_kinds(config)
    if decision.kind == SHIFT:
        if not shift_ok:
            raise IllegalDecision("SHIFT with an empty buffer")
        return Config(
            config.n,
            config.stack + (config.front,),
            config.front + 1,
            config.heads,
            config.labels,
            config.lefts,
            config.rights,
        )
    if decision.kind == LEFT_ARC:
        if not left_ok:
            raise IllegalDecision(f"{decision!r} with stack {config.stack}")
        dep, head = config.stack[-2], config.stack[-1]
        stack = config.stack[:-2] + (head,)
    elif decision.kind == RIGHT_ARC:
        if not right_ok:
            raise IllegalDecision(f"{decision!r} with stack {config.stack}, buffer open")
        dep, head = config.stack[-1], config.stack[-2]
        stack = config.stack[:-1]
    else:
        raise IllegalDecision(f"unknown decision kind {decision.kind!r}")
    heads = list(config.heads)
    labels = list(config.labels)
    heads[dep] = head
    labels[dep] = decision.label
    if dep < head:
        lefts = list(config.lefts)
        lefts[head] = (dep,) + lefts[head]  # successive left children arrive inner-first
        rights = config.rights
        lefts = tuple(lefts)
    else:
        rights = list(config.rights)
        rights[head] = rights[head] + (dep,)  # right children arrive in surface order
        lefts = config.lefts
        rights = tuple(rights)
    return Config(config.n, stack, config.front, tuple(heads), tuple(labels), lefts, rights)


def derive_oracle_sequence(tree):
    """The unique decision sequence deriving a projective single-rooted tree.

    Rule, with s0 the stack top and s1 below it: LEFT_ARC when s1's gold head
    is s0; else RIGHT_ARC when s0's gold head is s1 and s0 already has all of
    its gold dependents; else SHIFT.  Raises OracleError when the tree cannot
    be derived this way.
    """
    n = len(tree)
    if n == 0:
        raise OracleError("empty sentence")
    heads = tree.heads
    roots = [i for i, h in enumerate(heads, start=1) if h == 0]
    if len(roots) != 1:
        raise OracleError(f"expected exactly one root attachment, found {len(roots)}")
    n_deps = [0] * (n + 1)
    for h in heads:
        n_deps[h] += 1
    attached = [0] * (n + 1)

    config = initial_configuration(n)
    seq = []
    for _ in range(2 * n):
        s = config.stack
        shift_ok, left_ok, right_ok = legal_kinds(config)
        if left_ok and heads[s[-2] - 1] == s[-1]:
            d = Decision(LEFT_ARC, tree.labels[s[-2] - 1])
            attached[s[-1]] += 1
        elif (
            right_ok
            and len(s) >= 2
            and heads[s[-1] - 1] == s[-2]
            and attached[s[-1]] == n_deps[s[-1]]
        ):
            d = Decision(RIGHT_ARC, tree.labels[s[-1] - 1])
            attached[s[-2]] += 1
        elif shift_ok:
            d = Decision(SHIFT)
        else:
            raise OracleError("stuck configuration: tree is not projective")
        config = apply(config, d)
        seq.append(d)
    if not is_terminal(config):
        raise OracleError("derivation did not reach the terminal configuration")
    return seq


def replay(decisions_seq, n):
    """Apply a decision sequence from the initial configuration."""
    config = initial_configuration(n)
    for d in decisions_seq:
        config = apply(config, d)
    return config


def config_to_tree(config, sentence):
    """A DepTree carrying the configuration's arcs over the sentence's tokens."""
    return DepTree(sentence.forms, sentence.pos_tags, config.heads[1:], config.labels[1:], "predicted")
