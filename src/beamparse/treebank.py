"""CoNLL treebank IO, dependency tree containers, projectivity, UAS/LAS scoring."""

from dataclasses import dataclass
from itertools import count
from typing import NamedTuple


# Gold POS tags treated as punctuation when scoring with punctuation excluded.
PUNCT_TAGS = frozenset({"``", "''", ":", ",", "."})


class ConllError(ValueError):
    """Malformed CoNLL input. Carries the 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class AlignmentError(ValueError):
    """Two sentence sequences that should run in parallel do not."""


class Token(NamedTuple):
    """One row of a tree, as read back from its columns."""

    form: str
    pos: str
    head: int
    label: str


@dataclass(init=False, slots=True)
class DepTree:
    """A sentence with one head index and one arc label per token.

    Head indices are 1-based into the sentence; 0 is the artificial root.
    Heads may be gold or predicted depending on where the tree came from.
    The four columns are tuples, so a tree's words and arcs cannot change
    after it is built and copies share them.  Only ``origin`` is settable.
    """

    forms: tuple
    pos_tags: tuple
    heads: tuple
    labels: tuple
    origin: str

    def __init__(self, forms, pos_tags, heads, labels, origin="gold"):
        self.forms = tuple(forms)
        self.pos_tags = tuple(pos_tags)
        self.heads = tuple(heads)
        self.labels = tuple(labels)
        self.origin = origin
        n = len(self.forms)
        if not len(self.pos_tags) == len(self.heads) == len(self.labels) == n:
            raise ValueError(
                f"columns differ in length: {n} forms, {len(self.pos_tags)} tags, "
                f"{len(self.heads)} heads, {len(self.labels)} labels"
            )

    @classmethod
    def build(cls, forms, pos, heads, labels, origin="gold"):
        return cls(forms, pos, heads, labels, origin)

    def __len__(self):
        return len(self.forms)

    @property
    def tokens(self):
        """The rows as read-only Tokens; a fresh list on every access."""
        return list(map(Token._make, zip(self.forms, self.pos_tags, self.heads, self.labels)))

    def copy(self):
        return DepTree(self.forms, self.pos_tags, self.heads, self.labels, self.origin)

    def root_count(self):
        return self.heads.count(0)

    def is_single_rooted(self):
        """True iff exactly one token attaches to 0 and every head chain reaches 0."""
        if self.root_count() != 1:
            return False
        heads = self.heads
        n = len(heads)
        for start in range(1, n + 1):
            seen = set()
            k = start
            while k != 0:
                if k in seen or not (1 <= k <= n):
                    return False
                seen.add(k)
                k = heads[k - 1]
        return True


@dataclass
class EvalReport:
    uas: float
    las: float
    scored_tokens: int
    total_tokens: int


def read_conll(stream, allow_underscore_heads=False):
    """Yield one DepTree per sentence block of tab-separated 10-column rows.

    Column 2 is the form, column 5 the POS tag (column 4 as fallback when 5
    is "_"), column 7 the head and column 8 the arc label.  Comment lines and
    CoNLL-U multiword/empty-node ids are skipped.  With
    ``allow_underscore_heads`` a "_" head is read as 0 (parser input whose
    heads are not filled in yet).
    """
    rows, lines = [], []

    def flush():
        _, forms, _, _, pos, _, heads, labels, _, _ = zip(*rows)
        n = len(forms)
        for i, h in enumerate(heads):
            if not (0 <= h <= n):
                raise ConllError(f"head {h} out of range for a {n}-token sentence", lines[i])
            if h == i + 1:
                raise ConllError(f"token {i + 1} is its own head", lines[i])
        rows.clear()
        lines.clear()
        return DepTree(forms, pos, heads, labels)

    for lineno, line in enumerate(stream, start=1):
        if not line or line.isspace():
            if rows:
                yield flush()
            continue
        if line.startswith("#"):
            continue
        # The line end, if any, stays on the tenth column, which is never read.
        cols = line.split("\t")
        if len(cols) != 10:
            raise ConllError(f"expected 10 tab-separated columns, got {len(cols)}", lineno)
        if "-" in cols[0] or "." in cols[0]:
            continue  # multiword ranges / empty nodes carry no parse arcs
        try:
            idx = int(cols[0])
        except ValueError:
            raise ConllError(f"non-integer token index {cols[0]!r}", lineno) from None
        if idx != len(rows) + 1:
            raise ConllError(f"token index {idx} out of order (expected {len(rows) + 1})", lineno)
        if not cols[1]:
            raise ConllError("empty form", lineno)
        if cols[4] == "_":
            cols[4] = cols[3]
        if cols[6] == "_" and allow_underscore_heads:
            cols[6] = 0
        else:
            try:
                cols[6] = int(cols[6])
            except ValueError:
                raise ConllError(f"non-integer head {cols[6]!r}", lineno) from None
        rows.append(cols)  # columns 5 and 7 now hold the tag and the integer head
        lines.append(lineno)
    if rows:
        yield flush()


def write_conll(trees, stream):
    """Write trees as CoNLL-X rows; columns we do not track are emitted as "_"."""
    for tree in trees:
        for i, f, p, h, l in zip(count(1), tree.forms, tree.pos_tags, tree.heads, tree.labels):
            stream.write(f"{i}\t{f}\t_\t{p}\t{p}\t_\t{h}\t{l}\t_\t_\n")
        stream.write("\n")


def _arcs_cross(l1, r1, l2, r2):
    return l1 < l2 < r1 < r2 or l2 < l1 < r2 < r1


def is_projective(tree):
    """True iff the tree is well formed (single root, acyclic) and no two arcs cross.

    Arcs from the artificial root take part in the crossing check with
    position 0, so a token reaching over the root attachment counts as a
    crossing.
    """
    if not tree.is_single_rooted():
        return False
    spans = [(min(i, h), max(i, h)) for i, h in enumerate(tree.heads, start=1)]
    for a in range(len(spans)):
        for b in range(a + 1, len(spans)):
            if _arcs_cross(*spans[a], *spans[b]):
                return False
    return True


def evaluate(gold, predicted, exclude_punct=True):
    """Score predicted heads/labels against gold, by exact match.

    Tokens whose gold POS tag is punctuation are skipped when
    ``exclude_punct`` is set.  A run with zero scored tokens counts as
    error-free (1.0/1.0).
    """
    gold = list(gold)
    predicted = list(predicted)
    if len(gold) != len(predicted):
        raise AlignmentError(f"{len(gold)} gold sentences vs {len(predicted)} predicted")
    scored = total = head_ok = both_ok = 0
    for si, (g, p) in enumerate(zip(gold, predicted)):
        if len(g) != len(p):
            raise AlignmentError(f"sentence {si}: {len(g)} gold tokens vs {len(p)} predicted")
        for tag, gh, gl, ph, pl in zip(g.pos_tags, g.heads, g.labels, p.heads, p.labels):
            total += 1
            if exclude_punct and tag in PUNCT_TAGS:
                continue
            scored += 1
            if ph == gh:
                head_ok += 1
                if pl == gl:
                    both_ok += 1
    if scored == 0:
        return EvalReport(1.0, 1.0, 0, total)
    return EvalReport(head_ok / scored, both_ok / scored, scored, total)
