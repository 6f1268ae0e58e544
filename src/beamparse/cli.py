"""Command-line entry points: train, train-perceptron, parse, eval, filter-agree.

Logs are line-oriented key=value records on stdout; timing goes to stderr so
output files and piped stdout stay clean.  Exit codes: 0 success, 1 data or
runtime error, 2 usage error.
"""

import argparse
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from . import decoder, model_io, network, training, treebank, tritrain
from .features import build_vocabularies

THREADS_ENV = "BEAMPARSE_THREADS"


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _phi_composition(text):
    blocks = tuple(part.strip() for part in text.split(",") if part.strip())
    try:
        return decoder.normalize_composition(blocks)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _dims(text):
    try:
        return network.Dims.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _read_treebank(path, allow_underscore_heads=False):
    with open(path, "r", encoding="utf-8") as f:
        return list(treebank.read_conll(f, allow_underscore_heads=allow_underscore_heads))


def _write_treebank(path, trees):
    with open(path, "w", encoding="utf-8") as f:
        treebank.write_conll(trees, f)


def _default_threads():
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 1
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV} is not an integer: {raw!r}")
    if value < 1:
        raise ValueError(f"{THREADS_ENV} must be at least 1")
    return value


def cmd_train(args):
    config = training.TrainConfig()
    if args.config:
        config = model_io.load_config_file(args.config, config)
    for key in ("eta0", "mu", "gamma", "lam", "batch", "seed", "patience", "dims"):
        value = getattr(args, key)
        if value is not None:
            setattr(config, key, value)
    config.epochs = args.epochs
    if args.min_count is not None:
        config.word_min_count = args.min_count
    if args.max_seconds is not None:
        config.max_seconds = args.max_seconds

    train_trees = _read_treebank(args.train)
    dev_trees = _read_treebank(args.dev)
    vocabs = build_vocabularies(train_trees, config.word_min_count)
    embeddings = None
    if args.embeddings:
        embeddings = model_io.load_embeddings(args.embeddings, config.dims.d_word)

    print(
        "config"
        f" eta0={config.eta0:g} mu={config.mu:g} gamma={config.gamma:g}"
        f" lambda={config.lam:g} batch={config.batch} dims={config.dims}"
        f" seed={config.seed} patience={config.patience} epochs={config.epochs}"
    )

    def log(record):
        print(
            f"epoch={record.epoch} loss={record.mean_loss:.6f}"
            f" dev_uas={100 * record.dev_uas:.2f} dev_las={100 * record.dev_las:.2f}"
            f" eta={record.eta:.6g} updates={record.updates}"
        )

    params, stats = training.train_greedy(
        train_trees, dev_trees, vocabs, config, embeddings, log
    )
    print(f"skipped_nonprojective={stats.skipped_nonprojective}")
    print(f"best_epoch={stats.best_epoch} best_uas={100 * stats.best_uas:.2f}")
    model_io.save_model(args.model, params, vocabs, encoding=args.encoding)
    print(f"model={args.model}")
    return 0


def cmd_train_perceptron(args):
    loaded = model_io.load_model(args.model)
    train_trees = _read_treebank(args.train)
    dev_trees = _read_treebank(args.dev) if args.dev else None
    config = decoder.PerceptronConfig(
        beam=args.beam,
        epochs=args.epochs,
        comp=args.phi,
        seed=args.seed,
        average=not args.no_average,
    )
    print(
        f"config beam={config.beam} phi={','.join(config.comp)}"
        f" epochs={config.epochs} seed={config.seed} average={int(config.average)}"
    )

    def log(record):
        line = (
            f"epoch={record.epoch} early_updates={record.early_updates}"
            f" full_updates={record.full_updates} sentences={record.sentences}"
        )
        if dev_trees:
            line += f" dev_uas={100 * record.dev_uas:.2f}"
        print(line)

    model, stats = decoder.train_perceptron(
        loaded.params, train_trees, loaded.vocabs, config, dev_trees, log
    )
    print(f"skipped_nonprojective={stats.skipped}")
    out = args.out or args.model
    model_io.save_model(out, loaded.params, loaded.vocabs, model, encoding=loaded.encoding)
    print(f"model={out}")
    return 0


def cmd_parse(args):
    loaded = model_io.load_model(args.model)
    if args.scorer == "perceptron" and loaded.perceptron is None:
        raise ValueError("model file has no perceptron section; train one or use --scorer softmax")
    trees = _read_treebank(args.input, allow_underscore_heads=True)
    threads = args.threads if args.threads is not None else _default_threads()
    precomp = network.Precomputation(loaded.params)

    def parse_one(tree):
        return decoder.beam_parse(
            loaded.params, tree, loaded.vocabs, args.beam, args.scorer, loaded.perceptron, precomp
        )

    started = time.monotonic()
    with ThreadPoolExecutor(max_workers=threads) as pool:
        predicted = list(pool.map(parse_one, trees))
    elapsed = time.monotonic() - started
    _write_treebank(args.output, predicted)
    rate = len(trees) / elapsed if elapsed > 0 else float("inf")
    print(f"sentences={len(trees)} seconds={elapsed:.2f} sents_per_sec={rate:.1f}", file=sys.stderr)
    return 0


def cmd_eval(args):
    gold = _read_treebank(args.gold)
    pred = _read_treebank(args.pred)
    report = treebank.evaluate(gold, pred, exclude_punct=not args.include_punct)
    print(
        f"UAS {100 * report.uas:.2f} LAS {100 * report.las:.2f}"
        f" scored {report.scored_tokens}/{report.total_tokens}"
    )
    return 0


def cmd_filter_agree(args):
    parses_a = _read_treebank(args.a)
    parses_b = _read_treebank(args.b)
    kept, stats = tritrain.agreement_filter(parses_a, parses_b, args.mode)
    if args.match_lengths:
        reference = _read_treebank(args.reference)
        budget = args.budget if args.budget is not None else stats.kept_tokens
        out = tritrain.length_matched_sample(kept, reference, budget, args.seed)
    elif args.budget is not None:
        out = tritrain.take_token_budget(kept, args.budget)
    else:
        out = kept
    _write_treebank(args.out, out)
    for line in stats.report():
        print(line)
    print(f"output_sentences={len(out)}")
    print(f"output_tokens={sum(len(t) for t in out)}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="beamparse",
        description="Transition-based neural dependency parser with beam-search perceptron training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the neural scorer on oracle decisions")
    p.add_argument("--train", required=True, help="training treebank (CoNLL)")
    p.add_argument("--dev", required=True, help="held-out treebank for early stopping")
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--embeddings", help="optional pretrained word embeddings")
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--eta0", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--batch", type=_positive_int, default=None)
    p.add_argument("--dims", type=_dims, default=None, help="d_word,d_tag,d_label,m1[,m2]")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--patience", type=_positive_int, default=None)
    p.add_argument("--epochs", type=_positive_int, default=100)
    p.add_argument("--min-count", type=_positive_int, default=None, help="word frequency cutoff")
    p.add_argument("--max-seconds", type=float, default=None)
    p.add_argument("--encoding", choices=model_io.ENCODINGS, default="decimals")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("train-perceptron", help="train the beam-search perceptron layer")
    p.add_argument("--model", required=True, help="pretrained network model")
    p.add_argument("--train", required=True)
    p.add_argument("--dev", help="held-out treebank for model selection")
    p.add_argument("--beam", type=_positive_int, default=8)
    p.add_argument("--phi", type=_phi_composition, default=("h1", "h2", "py"))
    p.add_argument("--epochs", type=_positive_int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-average", action="store_true", help="decode with raw weights")
    p.add_argument("--out", help="output model path (defaults to --model)")
    p.set_defaults(func=cmd_train_perceptron)

    p = sub.add_parser("parse", help="parse a CoNLL file with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--beam", type=_positive_int, default=8)
    p.add_argument("--scorer", choices=("softmax", "perceptron"), default="softmax")
    p.add_argument("--threads", type=_positive_int, default=None,
                   help=f"worker threads (default: ${THREADS_ENV} or 1)")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="score a parsed file against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--include-punct", action="store_true")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("filter-agree", help="keep sentences two parsers agree on")
    p.add_argument("--a", required=True, help="parser A output (labels copied from here)")
    p.add_argument("--b", required=True, help="parser B output")
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("labeled", "unlabeled"), default="labeled")
    p.add_argument("--budget", type=int, default=None, help="token budget")
    p.add_argument("--match-lengths", action="store_true")
    p.add_argument("--reference", help="treebank whose length histogram to match")
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_filter_agree)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "filter-agree" and args.match_lengths and not args.reference:
        parser.error("--match-lengths requires --reference")
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
