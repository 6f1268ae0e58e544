import gc
import io

import pytest

from beamparse.treebank import (
    AlignmentError,
    ConllError,
    DepTree,
    PUNCT_TAGS,
    Token,
    evaluate,
    is_projective,
    read_conll,
    write_conll,
)

from helpers import all_projective_heads, brute_force_projective, make_tree


def conll_text(rows):
    return "".join("\t".join(r) + "\n" for r in rows)


def row(i, form, pos, head, label):
    return [str(i), form, "_", pos, pos, "_", str(head), label, "_", "_"]


def test_read_simple_sentence():
    text = conll_text([row(1, "the", "D", 2, "det"), row(2, "cat", "N", 0, "root")]) + "\n"
    trees = list(read_conll(io.StringIO(text)))
    assert len(trees) == 1
    t = trees[0]
    assert t.forms == ("the", "cat")
    assert t.pos_tags == ("D", "N")
    assert t.heads == (2, 0)
    assert t.labels == ("det", "root")


def test_read_multiple_sentences_and_comments():
    text = (
        "# a comment\n"
        + conll_text([row(1, "a", "D", 0, "root")])
        + "\n"
        + conll_text([row(1, "b", "N", 0, "root")])
    )
    trees = list(read_conll(io.StringIO(text)))
    assert [t.forms for t in trees] == [("a",), ("b",)]


def test_read_skips_multiword_and_empty_node_ids():
    rows = [
        ["1-2", "ab", "_", "_", "_", "_", "_", "_", "_", "_"],
        row(1, "a", "D", 2, "det"),
        ["1.1", "ghost", "_", "_", "_", "_", "_", "_", "_", "_"],
        row(2, "b", "N", 0, "root"),
    ]
    trees = list(read_conll(io.StringIO(conll_text(rows))))
    assert trees[0].forms == ("a", "b")


def test_read_pos_falls_back_to_coarse_column():
    r = row(1, "a", "X", 0, "root")
    r[4] = "_"
    r[3] = "COARSE"
    trees = list(read_conll(io.StringIO(conll_text([r]))))
    assert trees[0].pos_tags == ("COARSE",)


def test_read_rejects_wrong_column_count():
    with pytest.raises(ConllError) as err:
        list(read_conll(io.StringIO("1\ta\tb\n")))
    assert "10" in str(err.value)


def test_read_rejects_out_of_order_indices():
    rows = [row(1, "a", "D", 0, "root"), row(3, "b", "N", 1, "x")]
    with pytest.raises(ConllError) as err:
        list(read_conll(io.StringIO(conll_text(rows))))
    assert err.value.line == 2


def test_read_rejects_head_out_of_range():
    rows = [row(1, "a", "D", 5, "root")]
    with pytest.raises(ConllError) as err:
        list(read_conll(io.StringIO(conll_text(rows))))
    assert "head 5" in str(err.value)


def test_read_rejects_self_head_with_line_number():
    rows = [row(1, "a", "D", 0, "root"), row(2, "b", "N", 2, "x")]
    with pytest.raises(ConllError) as err:
        list(read_conll(io.StringIO(conll_text(rows))))
    assert err.value.line == 2


def test_self_head_line_number_survives_interleaved_comments():
    text = (
        conll_text([row(1, "a", "D", 0, "root")])
        + "# note\n"
        + conll_text([row(2, "b", "N", 2, "x")])
    )
    with pytest.raises(ConllError) as err:
        list(read_conll(io.StringIO(text)))
    assert err.value.line == 3


def test_read_underscore_heads_only_when_allowed():
    r = row(1, "a", "D", 0, "root")
    r[6] = "_"
    text = conll_text([r])
    with pytest.raises(ConllError):
        list(read_conll(io.StringIO(text)))
    trees = list(read_conll(io.StringIO(text), allow_underscore_heads=True))
    assert trees[0].heads == (0,)


def test_write_read_roundtrip():
    trees = [
        make_tree([2, 0, 2], labels=["a", "b", "c"]),
        make_tree([0], labels=["root"], forms=["only"], pos=["N"]),
    ]
    buf = io.StringIO()
    write_conll(trees, buf)
    back = list(read_conll(io.StringIO(buf.getvalue())))
    assert len(back) == len(trees)
    for orig, rt in zip(trees, back):
        assert rt.forms == orig.forms
        assert rt.pos_tags == orig.pos_tags
        assert rt.heads == orig.heads
        assert rt.labels == orig.labels


def test_read_write_read_write_is_byte_stable():
    multiword = ["1-2", "ab", "_", "_", "_", "_", "_", "_", "_", "_"]
    empty_node = ["2.1", "ghost", "_", "_", "_", "_", "_", "_", "_", "_"]
    no_head = row(3, "c", "V", 0, "x")
    no_head[6] = "_"
    coarse_only = row(1, "d", "_", 0, "root")
    coarse_only[3] = "COARSE"
    text = (
        "# first\n"
        + conll_text([multiword, row(1, "a", "D", 2, "det"), row(2, "b", "N", 0, "root")])
        + conll_text([empty_node, no_head])
        + "\n# second\n"
        + conll_text([coarse_only])
    )

    def rewrite(text):
        buf = io.StringIO()
        write_conll(read_conll(io.StringIO(text), allow_underscore_heads=True), buf)
        return buf.getvalue()

    first = rewrite(text)
    assert first.count("\n\n") == 2 and "#" not in first and "ghost" not in first
    assert rewrite(first) == first


def test_read_sentences_leave_about_one_tracked_object_each():
    # Tuples of strings and ints drop out of the cyclic collector, so a
    # read tree costs the collector one object, not one per token.
    n = 400
    sentence = conll_text([row(i, f"w{i}", "N", 0 if i == 1 else 1, "x") for i in range(1, 11)])
    text = (sentence + "\n") * n
    gc.collect()
    before = len(gc.get_objects())
    trees = list(read_conll(io.StringIO(text)))
    gc.collect()
    added = len(gc.get_objects()) - before
    assert len(trees) == n
    assert added <= 2 * n


def test_tree_columns_are_tuples_with_a_read_only_token_view():
    tree = DepTree.build(["a", "b"], ["D", "N"], [2, 0], ["det", "root"])
    assert tree.heads == (2, 0) and type(tree.forms) is tuple
    assert tree.tokens == [Token("a", "D", 2, "det"), Token("b", "N", 0, "root")]
    with pytest.raises(AttributeError):
        tree.tokens[0].head = 0
    copy = tree.copy()
    assert copy == tree and copy is not tree and copy.heads is tree.heads
    with pytest.raises(ValueError):
        DepTree.build(["a", "b"], ["D"], [2, 0], ["det", "root"])


def test_write_emits_underscore_for_untracked_columns():
    buf = io.StringIO()
    write_conll([make_tree([0], forms=["x"], pos=["N"], labels=["root"])], buf)
    cols = buf.getvalue().splitlines()[0].split("\t")
    assert len(cols) == 10
    assert cols[2] == "_" and cols[5] == "_" and cols[8] == "_" and cols[9] == "_"


def test_single_rooted_detects_cycles_and_multiple_roots():
    assert make_tree([2, 0, 2]).is_single_rooted()
    assert not make_tree([0, 0, 2]).is_single_rooted()  # two roots
    assert not make_tree([2, 1, 0]).is_single_rooted()  # 1-2 cycle
    assert not make_tree([2, 3, 2]).is_single_rooted()  # no root at all


def test_projectivity_matches_brute_force_up_to_n5():
    from itertools import product

    for n in range(1, 6):
        enumerated = set(all_projective_heads(n))
        checked = set()
        for heads in product(range(n + 1), repeat=n):
            expected = brute_force_projective(heads)
            assert is_projective(make_tree(list(heads))) == expected
            if expected:
                checked.add(heads)
        assert enumerated == checked


def test_classic_nonprojective_case():
    # arc 1->3 crosses arc 2->4 (heads: 2 heads 4's dependent region)
    tree = make_tree([3, 4, 0, 3])
    assert tree.is_single_rooted()
    assert not is_projective(tree)


def test_evaluate_exact_match_is_perfect():
    trees = [make_tree([2, 0, 2])]
    report = evaluate(trees, [t.copy() for t in trees])
    assert report.uas == 1.0 and report.las == 1.0
    assert report.scored_tokens == 3


def test_evaluate_counts_head_and_label_errors():
    gold = [make_tree([2, 0, 2, 3], labels=["a", "b", "c", "d"])]
    pred = [make_tree([2, 0, 2, 2], labels=["a", "b", "x", "d"])]
    report = evaluate(gold, pred)
    assert report.uas == pytest.approx(0.75)
    assert report.las == pytest.approx(0.5)


def test_evaluate_excludes_punctuation_by_gold_pos():
    gold = [make_tree([2, 0, 2], pos=["N", "V", ","])]
    pred = [make_tree([2, 0, 1], pos=["N", "V", ","])]  # only the comma is wrong
    assert evaluate(gold, pred).uas == 1.0
    assert evaluate(gold, pred, exclude_punct=False).uas == pytest.approx(2 / 3)


def test_evaluate_all_punctuation_scores_perfect():
    pos = [",", "."]
    gold = [make_tree([2, 0], pos=pos)]
    pred = [make_tree([0, 1], pos=pos)]
    report = evaluate(gold, pred)
    assert report.uas == 1.0 and report.las == 1.0
    assert report.scored_tokens == 0


def test_evaluate_alignment_errors():
    with pytest.raises(AlignmentError):
        evaluate([make_tree([0])], [])
    with pytest.raises(AlignmentError):
        evaluate([make_tree([0])], [make_tree([2, 0])])


def test_punct_tag_set():
    assert PUNCT_TAGS == {"``", "''", ":", ",", "."}
