"""Output checks written apart from the package: each raises CheckFailed.

Trees are compared as plain (forms, tags, heads, labels) tuples so no check
relies on the package's own tree code.
"""


class CheckFailed(AssertionError):
    pass


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


def as_tuple(tree):
    """(forms, tags, heads, labels) of a DepTree, a corpus.Sentence or such a tuple."""
    if isinstance(tree, tuple):
        return tree
    if hasattr(tree, "tokens"):
        toks = tree.tokens
        return (
            tuple(t.form for t in toks),
            tuple(t.pos for t in toks),
            tuple(t.head for t in toks),
            tuple(t.label for t in toks),
        )
    return (tree.forms, tree.tags, tree.heads, tree.labels)


def check_tree(heads, where):
    """Exactly one root, every head in range, acyclic and projective."""
    n = len(heads)
    roots = [i for i, h in enumerate(heads, 1) if h == 0]
    require(len(roots) == 1, f"{where}: {len(roots)} root attachments")
    for i, h in enumerate(heads, 1):
        require(0 <= h <= n and h != i, f"{where}: token {i} has head {h}")
    for i in range(1, n + 1):
        seen, k = set(), i
        while k != 0:
            require(k not in seen, f"{where}: cycle through token {k}")
            seen.add(k)
            k = heads[k - 1]
    # Projective: every token strictly between a head and its dependent
    # descends from that head (the root arc spans from position 0).
    for d, h in enumerate(heads, 1):
        lo, hi = min(d, h), max(d, h)
        for k in range(lo + 1, hi):
            a = k
            while a not in (0, h):
                a = heads[a - 1]
            require(a == h, f"{where}: arc {h}->{d} crosses token {k}")


def check_parses(inputs, outputs, mode):
    """Parsed trees keep their input forms and tags and are well formed."""
    require(len(inputs) == len(outputs), f"{mode}: {len(outputs)} parses for {len(inputs)} inputs")
    for k, (src, out) in enumerate(zip(inputs, outputs)):
        forms, tags, heads, _ = as_tuple(out)
        require((forms, tags) == as_tuple(src)[:2], f"{mode}: sentence {k} changed forms or tags")
        check_tree(heads, f"{mode} sentence {k}")


def uas(gold, predicted):
    """Share of tokens, in percent, whose predicted head is the gold head."""
    good = total = 0
    for g, p in zip(gold, predicted):
        gh, ph = as_tuple(g)[2], as_tuple(p)[2]
        good += sum(a == b for a, b in zip(gh, ph))
        total += len(gh)
    return 100.0 * good / total


def chain_baseline_uas(gold):
    """UAS of the better of the two chains: every token headed by its left or
    by its right neighbour, with the free end attached to the root."""
    left = [tuple(range(len(g))) for g in gold]
    right = [tuple(list(range(2, len(g) + 1)) + [0]) for g in gold]

    def score(heads):
        good = sum(sum(a == b for a, b in zip(as_tuple(g)[2], h)) for g, h in zip(gold, heads))
        return 100.0 * good / sum(len(g) for g in gold)

    return max(score(left), score(right))


def check_same_parses(a, b, what):
    require(len(a) == len(b), f"{what}: {len(a)} vs {len(b)} sentences")
    for k, (x, y) in enumerate(zip(a, b)):
        require(as_tuple(x)[2:] == as_tuple(y)[2:], f"{what}: sentence {k} differs")


def check_agreement(kept, pairs_a, agree, output, budget):
    """The filter kept exactly the agreeing sentences, and the length-matched
    output is a sub-multiset of them whose token count fits the budget."""
    expected = [as_tuple(s) for s, ok in zip(pairs_a, agree) if ok]
    got = [as_tuple(t) for t in kept]
    require(got == expected, f"filter kept {len(got)} sentences, {len(expected)} agree or order differs")
    pool = {}
    for t in expected:
        pool[t] = pool.get(t, 0) + 1
    tokens = 0
    for k, t in enumerate(as_tuple(x) for x in output):
        require(pool.get(t, 0) > 0, f"length-matched output sentence {k} is not an agreeing sentence")
        pool[t] -= 1
        tokens += len(t[0])
    require(tokens <= budget, f"length-matched output has {tokens} tokens, budget {budget}")
    require(len(output) > 0, "length-matched output is empty")


def check_model_bytes(path_a, path_b):
    with open(path_a, "rb") as f:
        a = f.read()
    with open(path_b, "rb") as f:
        b = f.read()
    require(a == b, f"resaved model differs from the saved one ({len(a)} vs {len(b)} bytes)")
