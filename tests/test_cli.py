"""End-to-end command-line tests: every subcommand, exit codes, determinism."""

import numpy as np
import pytest

from beamparse import network as N
from beamparse.cli import THREADS_ENV, main
from beamparse.model_io import load_model
from beamparse.treebank import DepTree, read_conll, write_conll

from helpers import make_tree, stepwise_argmax, toy_corpus


def write_trees(path, trees):
    with open(path, "w", encoding="utf-8") as f:
        write_conll(trees, f)


def read_trees(path):
    with open(path, "r", encoding="utf-8") as f:
        return list(read_conll(f))


@pytest.fixture
def corpus(tmp_path):
    rng = np.random.default_rng(6)
    train = toy_corpus(20, rng)
    dev = toy_corpus(8, rng)
    train_path = tmp_path / "train.conll"
    dev_path = tmp_path / "dev.conll"
    write_trees(train_path, train)
    write_trees(dev_path, dev)
    return train_path, dev_path


TRAIN_FLAGS = [
    "--dims", "8,4,4,16,12", "--epochs", "8", "--batch", "8",
    "--eta0", "0.1", "--gamma", "2.0", "--seed", "3",
]


def run_train(tmp_path, corpus, model_name="model", extra=()):
    train_path, dev_path = corpus
    model = tmp_path / model_name
    code = main([
        "train", "--train", str(train_path), "--dev", str(dev_path),
        "--model", str(model), *TRAIN_FLAGS, *extra,
    ])
    assert code == 0
    return model


def test_full_pipeline(tmp_path, corpus, capsys):
    train_path, dev_path = corpus
    model = run_train(tmp_path, corpus)
    out = capsys.readouterr().out
    assert "config eta0=0.1" in out
    assert "epoch=1 loss=" in out
    assert "dev_uas=" in out and "dev_las=" in out
    assert "best_epoch=" in out
    assert f"model={model}" in out
    assert load_model(model).perceptron is None

    model2 = tmp_path / "model2"
    code = main([
        "train-perceptron", "--model", str(model), "--train", str(train_path),
        "--dev", str(dev_path), "--beam", "4", "--epochs", "3", "--out", str(model2),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "config beam=4 phi=h1,h2,py" in out
    assert "early_updates=" in out and "dev_uas=" in out
    loaded = load_model(model2)
    assert loaded.perceptron is not None
    assert loaded.perceptron.comp == ("h1", "h2", "py")

    parsed = tmp_path / "out.conll"
    code = main([
        "parse", "--model", str(model2), "--input", str(dev_path),
        "--output", str(parsed), "--scorer", "perceptron", "--beam", "4",
    ])
    assert code == 0
    err = capsys.readouterr().err
    assert "sentences=8" in err and "sents_per_sec=" in err
    gold = read_trees(dev_path)
    pred = read_trees(parsed)
    assert len(pred) == len(gold)
    assert [t.forms for t in pred] == [t.forms for t in gold]

    code = main(["eval", "--gold", str(dev_path), "--pred", str(parsed)])
    assert code == 0
    line = capsys.readouterr().out.strip()
    assert line.startswith("UAS ") and " LAS " in line and " scored " in line


def test_usage_errors_exit_2(corpus, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--train", "x.conll"])  # missing required flags
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["parse", "--model", "m", "--input", "i", "--output", "o", "--beam", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_data_errors_exit_1(tmp_path, corpus, capsys):
    train_path, dev_path = corpus
    assert main(["eval", "--gold", str(dev_path), "--pred", str(tmp_path / "missing")]) == 1
    assert "error:" in capsys.readouterr().err

    # misaligned gold/pred
    short = tmp_path / "short.conll"
    write_trees(short, read_trees(dev_path)[:3])
    assert main(["eval", "--gold", str(dev_path), "--pred", str(short)]) == 1

    # malformed treebank
    bad = tmp_path / "bad.conll"
    bad.write_text("1\tonly\tthree\n\n")
    assert main(["eval", "--gold", str(bad), "--pred", str(bad)]) == 1


def test_damaged_model_header_exits_1(tmp_path, corpus, capsys):
    train_path, dev_path = corpus
    model = run_train(tmp_path, corpus)
    lines = model.read_bytes().split(b"\n")
    assert lines[2].startswith(b"dims ")
    lines[2] = b"dims 8 4"
    model.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main([
        "parse", "--model", str(model), "--input", str(dev_path),
        "--output", str(tmp_path / "out.conll"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_bad_decimal_in_model_exits_1(tmp_path, corpus, capsys):
    train_path, dev_path = corpus
    model = run_train(tmp_path, corpus)
    lines = model.read_bytes().split(b"\n")
    at = lines.index(next(line for line in lines if line.startswith(b"array b1 "))) + 1
    lines[at] = b"0.2x " + lines[at]
    model.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main([
        "parse", "--model", str(model), "--input", str(dev_path),
        "--output", str(tmp_path / "out.conll"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "b1" in err and "Traceback" not in err


def test_non_finite_value_in_model_exits_1(tmp_path, corpus, capsys):
    train_path, dev_path = corpus
    model = run_train(tmp_path, corpus)
    lines = model.read_bytes().split(b"\n")
    at = lines.index(next(line for line in lines if line.startswith(b"array b_y "))) + 1
    lines[at] = b"nan " + lines[at].split(b" ", 1)[1]
    model.write_bytes(b"\n".join(lines))
    capsys.readouterr()
    assert main([
        "parse", "--model", str(model), "--input", str(dev_path),
        "--output", str(tmp_path / "out.conll"),
    ]) == 1
    err = capsys.readouterr().err
    assert err == "error: array b_y holds a non-finite value\n"


def test_non_finite_embedding_exits_1(tmp_path, corpus, capsys):
    emb = tmp_path / "emb.txt"
    emb.write_text("the " + " ".join(["0.1"] * 7 + ["inf"]) + "\n")
    capsys.readouterr()
    train_path, dev_path = corpus
    assert main([
        "train", "--train", str(train_path), "--dev", str(dev_path),
        "--model", str(tmp_path / "model"), "--embeddings", str(emb), *TRAIN_FLAGS,
    ]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: embeddings line 1 holds a non-finite value\n"
    assert not (tmp_path / "model").exists()


def test_parse_beam1_softmax_matches_greedy(tmp_path, corpus):
    train_path, dev_path = corpus
    model = run_train(tmp_path, corpus)
    parsed = tmp_path / "out.conll"
    assert main([
        "parse", "--model", str(model), "--input", str(dev_path),
        "--output", str(parsed), "--beam", "1",
    ]) == 0

    # an independent stepwise argmax, with the parse command's precomputed
    # first layer
    loaded = load_model(model)
    precomp = N.Precomputation(loaded.params)
    expected = tmp_path / "expected.conll"
    write_trees(
        expected,
        [stepwise_argmax(loaded.params, t, loaded.vocabs, precomp) for t in read_trees(dev_path)],
    )
    assert parsed.read_bytes() == expected.read_bytes()


def test_parse_threads_do_not_change_output(tmp_path, corpus, monkeypatch):
    train_path, dev_path = corpus
    model = run_train(tmp_path, corpus)
    outs = []
    for threads in ("1", "4"):
        out = tmp_path / f"out{threads}.conll"
        assert main([
            "parse", "--model", str(model), "--input", str(dev_path),
            "--output", str(out), "--threads", threads,
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    # the environment default is honored and validated
    monkeypatch.setenv(THREADS_ENV, "2")
    env_out = tmp_path / "outenv.conll"
    assert main([
        "parse", "--model", str(model), "--input", str(dev_path), "--output", str(env_out),
    ]) == 0
    assert env_out.read_bytes() == outs[0]

    monkeypatch.setenv(THREADS_ENV, "zero")
    assert main([
        "parse", "--model", str(model), "--input", str(dev_path), "--output", str(env_out),
    ]) == 1


def test_parse_accepts_underscore_heads(tmp_path, corpus):
    model = run_train(tmp_path, corpus)
    raw = tmp_path / "raw.conll"
    raw.write_text(
        "1\tthe\t_\tD\tD\t_\t_\t_\t_\t_\n"
        "2\tn3\t_\tN\tN\t_\t_\t_\t_\t_\n"
        "3\tv1\t_\tV\tV\t_\t_\t_\t_\t_\n\n"
    )
    out = tmp_path / "rawout.conll"
    assert main(["parse", "--model", str(model), "--input", str(raw), "--output", str(out)]) == 0
    trees = read_trees(out)
    assert len(trees) == 1
    assert trees[0].root_count() == 1


def test_train_is_seed_deterministic(tmp_path, corpus, capsys):
    m1 = run_train(tmp_path, corpus, "m1")
    out1 = capsys.readouterr().out
    m2 = run_train(tmp_path, corpus, "m2")
    out2 = capsys.readouterr().out
    epoch_lines = lambda s: [l for l in s.splitlines() if l.startswith("epoch=")]
    assert epoch_lines(out1) == epoch_lines(out2)
    assert m1.read_bytes() == m2.read_bytes()

    m3 = run_train(tmp_path, corpus, "m3", extra=("--seed", "4"))
    capsys.readouterr()
    assert m3.read_bytes() != m1.read_bytes()


def test_eval_output_numbers(tmp_path, capsys):
    gold = [make_tree([2, 0, 2, 2], labels=["la", "root", "lb", "lb"])]
    pred = [make_tree([2, 0, 2, 3], labels=["la", "root", "la", "lb"])]
    gold_path, pred_path = tmp_path / "g.conll", tmp_path / "p.conll"
    write_trees(gold_path, gold)
    write_trees(pred_path, pred)
    assert main(["eval", "--gold", str(gold_path), "--pred", str(pred_path)]) == 0
    assert capsys.readouterr().out.strip() == "UAS 75.00 LAS 50.00 scored 4/4"


def test_eval_punctuation_toggle(tmp_path, capsys):
    gold = [make_tree([2, 0, 2], labels=["la", "root", "p"], pos=["A", "B", ","])]
    pred = [make_tree([2, 0, 1], labels=["la", "root", "p"], pos=["A", "B", ","])]
    gold_path, pred_path = tmp_path / "g.conll", tmp_path / "p.conll"
    write_trees(gold_path, gold)
    write_trees(pred_path, pred)
    assert main(["eval", "--gold", str(gold_path), "--pred", str(pred_path)]) == 0
    assert capsys.readouterr().out.strip() == "UAS 100.00 LAS 100.00 scored 2/3"
    assert main([
        "eval", "--gold", str(gold_path), "--pred", str(pred_path), "--include-punct",
    ]) == 0
    assert "scored 3/3" in capsys.readouterr().out


def test_parse_perceptron_requires_section(tmp_path, corpus, capsys):
    train_path, dev_path = corpus
    model = run_train(tmp_path, corpus)
    out = tmp_path / "out.conll"
    assert main([
        "parse", "--model", str(model), "--input", str(dev_path),
        "--output", str(out), "--scorer", "perceptron",
    ]) == 1
    assert "no perceptron section" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, corpus, capsys):
    train_path, dev_path = corpus
    cfg = tmp_path / "train.cfg"
    cfg.write_text("eta0 = 0.9\nbatch = 8\ndims = 8,4,4,16,12\ngamma = 2.0\n")
    model = tmp_path / "model"
    assert main([
        "train", "--train", str(train_path), "--dev", str(dev_path),
        "--model", str(model), "--config", str(cfg),
        "--eta0", "0.1", "--epochs", "2", "--seed", "3",
    ]) == 0
    out = capsys.readouterr().out
    assert "eta0=0.1" in out  # flag beats config file
    assert "batch=8" in out

    cfg.write_text("swagger = 9\n")
    assert main([
        "train", "--train", str(train_path), "--dev", str(dev_path),
        "--model", str(model), "--config", str(cfg), "--epochs", "1",
    ]) == 1
    assert "swagger" in capsys.readouterr().err


def test_train_perceptron_defaults_to_model_path(tmp_path, corpus):
    train_path, dev_path = corpus
    model = run_train(tmp_path, corpus)
    assert load_model(model).perceptron is None
    assert main([
        "train-perceptron", "--model", str(model), "--train", str(train_path),
        "--beam", "2", "--epochs", "1",
    ]) == 0
    assert load_model(model).perceptron is not None


def test_train_perceptron_unknown_label_exits_1(tmp_path, corpus, capsys):
    train_path, dev_path = corpus
    model = run_train(tmp_path, corpus)
    capsys.readouterr()
    trees = read_trees(dev_path)
    t = trees[1]
    labels = ["NEWLABEL" if label == "det" else label for label in t.labels]
    trees[1] = DepTree.build(t.forms, t.pos_tags, t.heads, labels)
    relabeled = tmp_path / "relabeled.conll"
    write_trees(relabeled, trees)
    assert main([
        "train-perceptron", "--model", str(model), "--train", str(relabeled),
        "--beam", "2", "--epochs", "1",
    ]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert "sentence 2" in err[0] and "LEFT_ARC(NEWLABEL)" in err[0]


def test_parse_does_not_mutate_input(tmp_path, corpus):
    train_path, dev_path = corpus
    model = run_train(tmp_path, corpus)
    before = dev_path.read_bytes()
    out = tmp_path / "out.conll"
    assert main([
        "parse", "--model", str(model), "--input", str(dev_path), "--output", str(out),
    ]) == 0
    assert dev_path.read_bytes() == before


def test_filter_agree_cli(tmp_path, capsys):
    rng = np.random.default_rng(2)
    base = toy_corpus(10, rng)
    a = [t.copy() for t in base]
    b = [t.copy() for t in base]
    for i in (1, 4, 7):  # disagree on three sentences
        heads = list(b[i].heads)
        heads[0] = 0 if heads[0] != 0 else 1
        b[i] = DepTree.build(b[i].forms, b[i].pos_tags, heads, b[i].labels)
    a_path, b_path, out_path = tmp_path / "a.conll", tmp_path / "b.conll", tmp_path / "kept.conll"
    write_trees(a_path, a)
    write_trees(b_path, b)

    assert main([
        "filter-agree", "--a", str(a_path), "--b", str(b_path), "--out", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "mode=labeled" in out
    assert "total_sentences=10" in out
    assert "kept_sentences=7" in out
    assert "agreement_rate=0.7000" in out
    kept = read_trees(out_path)
    assert len(kept) == 7

    # token budget cut
    assert main([
        "filter-agree", "--a", str(a_path), "--b", str(b_path), "--out", str(out_path),
        "--budget", "9",
    ]) == 0
    out = capsys.readouterr().out
    budgeted = read_trees(out_path)
    assert sum(len(t) for t in budgeted) <= 9
    assert f"output_sentences={len(budgeted)}" in out

    # length matching needs a reference
    with pytest.raises(SystemExit) as exc:
        main([
            "filter-agree", "--a", str(a_path), "--b", str(b_path), "--out", str(out_path),
            "--match-lengths",
        ])
    assert exc.value.code == 2
    ref_path = tmp_path / "ref.conll"
    write_trees(ref_path, toy_corpus(6, rng))
    assert main([
        "filter-agree", "--a", str(a_path), "--b", str(b_path), "--out", str(out_path),
        "--match-lengths", "--reference", str(ref_path), "--budget", "12",
    ]) == 0
    capsys.readouterr()
    assert sum(len(t) for t in read_trees(out_path)) <= 12


@pytest.mark.parametrize("mode", [[], ["--match-lengths"]], ids=["prefix", "match-lengths"])
def test_filter_agree_negative_budget_exits_1(tmp_path, capsys, mode):
    trees = toy_corpus(4, np.random.default_rng(2))
    a_path, out_path = tmp_path / "a.conll", tmp_path / "kept.conll"
    write_trees(a_path, trees)
    assert main([
        "filter-agree", "--a", str(a_path), "--b", str(a_path), "--out", str(out_path),
        "--reference", str(a_path), "--budget", "-5", *mode,
    ]) == 1
    assert capsys.readouterr().err == "error: token budget must be non-negative\n"
    assert not out_path.exists()


def test_filter_agree_mismatched_inputs(tmp_path, capsys):
    rng = np.random.default_rng(2)
    a = toy_corpus(4, rng)
    b = [t.copy() for t in a]
    b[2] = DepTree.build(("changed",) + a[2].forms[1:], a[2].pos_tags, a[2].heads, a[2].labels)
    a_path, b_path = tmp_path / "a.conll", tmp_path / "b.conll"
    write_trees(a_path, a)
    write_trees(b_path, b)
    assert main([
        "filter-agree", "--a", str(a_path), "--b", str(b_path),
        "--out", str(tmp_path / "o.conll"),
    ]) == 1
    assert "sentence 2" in capsys.readouterr().err
