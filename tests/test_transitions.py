import numpy as np
import pytest

from beamparse import transitions as T
from beamparse.transitions import (
    Decision,
    DecisionSet,
    IllegalDecision,
    LEFT_ARC,
    OracleError,
    RIGHT_ARC,
    SHIFT,
    apply,
    config_to_tree,
    derive_oracle_sequence,
    initial_configuration,
    is_terminal,
    legal_kinds,
    replay,
)

from helpers import all_projective_heads, make_tree, random_projective_tree

S = Decision(SHIFT)


def L(label):
    return Decision(LEFT_ARC, label)


def R(label):
    return Decision(RIGHT_ARC, label)


def arcs(c):
    """The (head, label, dependent) arcs a configuration has built."""
    return {(c.heads[d], c.labels[d], d) for d in range(1, c.n + 1) if c.heads[d] >= 0}


def buffer_size(c):
    return c.n - c.front + 1


def test_initial_configuration():
    c = initial_configuration(3)
    assert c.stack == (0,)
    assert c.front == 1
    assert buffer_size(c) == 3
    assert arcs(c) == set()
    assert not is_terminal(c)
    with pytest.raises(ValueError):
        initial_configuration(0)


def test_shift_moves_buffer_front_onto_stack():
    c = apply(initial_configuration(2), S)
    assert c.stack == (0, 1)
    assert c.front == 2


def test_left_arc_attaches_second_to_top():
    c = replay([S, S], 2)
    c = apply(c, L("x"))
    assert c.stack == (0, 2)
    assert c.heads[1] == 2
    assert c.labels[1] == "x"
    assert c.lefts[2] == (1,)


def test_right_arc_attaches_top_to_second():
    c = replay([S, S], 2)
    c = apply(c, R("y"))
    assert c.stack == (0, 1)
    assert c.heads[2] == 1
    assert c.rights[1] == (2,)


def test_legality_rules():
    c = initial_configuration(1)
    assert legal_kinds(c) == (True, False, False)
    c = apply(c, S)  # stack (0, 1), buffer empty
    assert legal_kinds(c) == (False, False, True)

    c = initial_configuration(2)
    c = apply(c, S)  # (0, 1), buffer has 2
    assert legal_kinds(c) == (True, False, False)
    c = apply(c, S)  # (0, 1, 2), buffer empty
    assert legal_kinds(c) == (False, True, True)


def test_root_attachment_blocked_while_buffer_open():
    # stack (0, 1) but token 2 still in the buffer: no decision may touch root
    c = apply(initial_configuration(2), S)
    with pytest.raises(IllegalDecision):
        apply(c, R("r"))
    with pytest.raises(IllegalDecision):
        apply(c, L("r"))
    c2 = apply(apply(c, S), R("x"))  # now (0, 1), buffer empty
    assert legal_kinds(c2) == (False, False, True)


def test_illegal_shift_raises():
    c = replay([S], 1)
    with pytest.raises(IllegalDecision):
        apply(c, S)


def test_unknown_decision_kind_raises():
    with pytest.raises(IllegalDecision):
        apply(initial_configuration(1), Decision("SWAP"))


def test_full_derivation_hand_example():
    # "the cat sleeps": 1->2 (det), 2->3 (subj), 3->0 (root)
    seq = [S, S, L("det"), S, L("subj"), R("root")]
    c = replay(seq, 3)
    assert is_terminal(c)
    assert arcs(c) == {(2, "det", 1), (3, "subj", 2), (0, "root", 3)}


def test_decision_set_numbering():
    d = DecisionSet(["a", "b"])
    assert len(d) == 5
    assert d.decision(0) == S
    assert d.decision(1) == L("a")
    assert d.decision(2) == L("b")
    assert d.decision(3) == R("a")
    assert d.decision(4) == R("b")
    for i in range(5):
        assert d.id_of(d.decision(i)) == i
    with pytest.raises(KeyError):
        d.id_of(L("zzz"))
    with pytest.raises(ValueError):
        DecisionSet([])


def test_legal_mask_matches_legal_decisions():
    d = DecisionSet(["a", "b"])
    c = replay([S, S], 3)  # stack (0,1,2), buffer has 3
    mask = d.legal_mask(c)
    assert mask.tolist() == [True, True, True, True, True]
    assert [d.decision(i) for i in d.legal_ids(c)] == [S, L("a"), L("b"), R("a"), R("b")]

    c0 = initial_configuration(3)
    assert d.legal_mask(c0).tolist() == [True, False, False, False, False]
    assert [d.decision(i) for i in d.legal_ids(c0)] == [S]


def test_legal_mask_table_matches_masks_built_from_scratch():
    """Every legal_kinds triple maps to the mask built kind by kind, and the
    shared table rows cannot be written through."""
    d = DecisionSet(["a", "b", "c"])
    seen = set()
    for depth in range(1, 5):
        for front in (depth, depth + 1):  # buffer open, then drained
            n = depth
            empty = ((),) * (n + 1)
            c = T.Config(n, tuple(range(depth)), front, (-1,) * (n + 1), ("",) * (n + 1), empty, empty)
            kinds = legal_kinds(c)
            seen.add(kinds)
            expected = [kinds[(SHIFT, LEFT_ARC, RIGHT_ARC).index(dec.kind)] for dec in d.decisions]
            mask = d.legal_mask(c)
            assert mask.dtype == bool and mask.tolist() == expected
            assert not mask.flags.writeable
            with pytest.raises(ValueError):
                mask[0] = not mask[0]
    # the five triples a configuration can have
    assert seen == {
        (False, False, False),
        (True, False, False),
        (False, False, True),
        (True, True, True),
        (False, True, True),
    }


def test_left_children_ascend_right_children_ascend():
    # 5 tokens all headed by token 5 on the left side: attach inner-first
    heads = [5, 5, 5, 5, 0]
    tree = make_tree(heads)
    seq = derive_oracle_sequence(tree)
    c = replay(seq, 5)
    assert c.lefts[5] == (1, 2, 3, 4)
    # mirrored: token 1 heads everything to its right
    heads = [0, 1, 1, 1, 1]
    c = replay(derive_oracle_sequence(make_tree(heads)), 5)
    assert c.rights[1] == (2, 3, 4, 5)


def test_oracle_hand_example_left_before_shift():
    tree = make_tree([2, 0, 2], labels=["det", "root", "obj"])
    seq = derive_oracle_sequence(tree)
    assert seq == [S, S, L("det"), S, R("obj"), R("root")]


def test_oracle_rejects_multi_root_and_nonprojective():
    with pytest.raises(OracleError):
        derive_oracle_sequence(make_tree([0, 0, 2]))
    with pytest.raises(OracleError):
        derive_oracle_sequence(make_tree([3, 4, 0, 3]))  # crossing arcs
    with pytest.raises(OracleError):
        derive_oracle_sequence(make_tree([2, 1, 0]))  # cycle plus root elsewhere


def test_oracle_roundtrip_exhaustive_small():
    for n in range(1, 6):
        for heads in all_projective_heads(n):
            tree = make_tree(list(heads))
            seq = derive_oracle_sequence(tree)
            assert len(seq) == 2 * n
            final = replay(seq, n)
            assert is_terminal(final)
            result = config_to_tree(final, tree)
            assert result.heads == tree.heads
            assert result.labels == tree.labels


def test_oracle_right_arc_waits_for_dependents():
    # 1 <- 2 <- 3: must not attach 2 to 3 before 1 is attached to 2
    tree = make_tree([2, 3, 0])
    seq = derive_oracle_sequence(tree)
    assert seq[:3] == [S, S, L(tree.tokens[0].label)]


def test_arc_conservation_and_progress():
    rng = np.random.default_rng(7)
    d = DecisionSet(["la", "lb"])
    for _ in range(50):
        n = int(rng.integers(1, 15))
        c = initial_configuration(n)
        steps = 0
        while not is_terminal(c):
            ids = d.legal_ids(c)
            assert len(ids) > 0  # progress is always possible
            arcs_before = len(arcs(c))
            items_before = len(c.stack) + buffer_size(c)
            c = apply(c, d.decision(int(ids[rng.integers(len(ids))])))
            items_now = len(c.stack) + buffer_size(c)
            if len(arcs(c)) == arcs_before + 1:
                assert items_now == items_before - 1  # an arc pops one token
            else:
                assert items_now == items_before  # a shift just moves one
            steps += 1
        assert steps == 2 * n
        assert len(arcs(c)) == n
        assert c.stack == (0,)


def test_random_derivations_yield_projective_trees():
    from beamparse.treebank import is_projective

    rng = np.random.default_rng(11)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        tree = random_projective_tree(rng, n)
        assert is_projective(tree)
        # and the oracle can re-derive what a random derivation produced
        seq = derive_oracle_sequence(tree)
        final = replay(seq, n)
        assert config_to_tree(final, tree).heads == tree.heads


def test_apply_does_not_mutate_input_config():
    c0 = replay([S, S], 2)
    stack0, heads0 = c0.stack, c0.heads
    apply(c0, L("x"))
    assert c0.stack == stack0 and c0.heads == heads0


def test_decision_repr():
    assert repr(S) == "SHIFT"
    assert repr(L("nsubj")) == "LEFT_ARC(nsubj)"
    assert repr(R("obj")) == "RIGHT_ARC(obj)"
