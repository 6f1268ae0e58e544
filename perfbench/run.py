"""End-to-end benchmark of the beamparse pipeline on a seeded synthetic treebank.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload many-labels --seed 1 --seconds 25 --trace 0

Every run generates its corpora (the training files fixed per workload, the
test set and the agreement pairs from ``--seed``), then drives
train -> train-perceptron -> save -> parse (greedy, beam-8 softmax, beam-8
perceptron) -> filter-agree through the package's public functions, the way
the command-line tool calls them, in one process with one BLAS thread.  Each
step repeats whole calls while another fits in its share of ``--seconds`` of
CPU time.  The run checks the outputs and prints one JSON object as its last
line of stdout: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  See perfbench/README.md.
"""

import os

# One BLAS thread: with OpenBLAS's default of one thread per core, a 1024-unit
# training epoch spread 17% over five repeats on a shared two-core machine,
# with one thread 1.5% (see README.md).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import random
import resource
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import corpus  # noqa: E402
from corpus import CorpusShape  # noqa: E402


@dataclass(frozen=True)
class Workload:
    shape: CorpusShape
    dims: tuple
    encoding: str
    phi: tuple
    min_count: int
    n_train: int
    n_dev: int
    n_test: int
    n_perceptron: int  # gold sentences for train-perceptron, drawn apart from train
    epochs: int
    perceptron_epochs: int
    n_pairs: int  # sentence pairs in the agreement phase
    # Share of --seconds each phase may spend on whole repeats.
    shares: dict = field(default_factory=dict)
    baseline_margin: float = 10.0  # UAS points greedy must beat the chain baseline by


WORKLOADS = {
    "many-labels": Workload(
        shape=CorpusShape(n_labels=39, n_words=300, zipf=1.0, min_len=15, max_len=40),
        dims=(64, 32, 32, 200, 200),
        encoding="decimals",
        phi=("h1", "h2", "py"),
        min_count=2,
        n_train=100,
        n_dev=6,
        n_test=20,
        n_perceptron=32,
        epochs=3,
        perceptron_epochs=2,
        n_pairs=600,
        shares={"train": 0.2, "perceptron": 0.08, "parse.greedy": 0.1,
                "parse.beam_softmax": 0.25, "parse.beam_perceptron": 0.25, "agree": 0.08}),
    "wide-net": Workload(
        shape=CorpusShape(n_labels=11, n_words=6000, zipf=1.1, min_len=8, max_len=25),
        dims=(64, 32, 32, 1024, 256),
        encoding="f32",
        phi=("h1", "h2", "py"),
        min_count=1,
        n_train=100,
        n_dev=6,
        n_test=40,
        n_perceptron=32,
        epochs=2,
        perceptron_epochs=2,
        n_pairs=600,
        shares={"train": 0.4, "perceptron": 0.06, "parse.greedy": 0.1,
                "parse.beam_softmax": 0.14, "parse.beam_perceptron": 0.14, "agree": 0.06}),
    "auto-corpus": Workload(
        shape=CorpusShape(n_labels=5, n_words=500, zipf=1.0, min_len=3, max_len=12),
        dims=(64, 32, 32, 200, None),
        encoding="decimals",
        phi=("py",),
        min_count=2,
        n_train=200,
        n_dev=10,
        n_test=150,
        n_perceptron=80,
        epochs=3,
        perceptron_epochs=2,
        n_pairs=30000,
        shares={"train": 0.1, "perceptron": 0.05, "parse.greedy": 0.1,
                "parse.beam_softmax": 0.1, "parse.beam_perceptron": 0.1, "agree": 0.5}),
}

BEAM = 8
PARSE_MODES = {
    "parse.greedy": (1, "softmax"),
    "parse.beam_softmax": (BEAM, "softmax"),
    "parse.beam_perceptron": (BEAM, "perceptron"),
}
DISAGREE = 0.3  # share of agreement pairs given one differing head or label
TRAIN_SEED = 1
BATCH = 32
# A learning rate held for two epochs: the averaged parameters then reach a
# useful parser within the few hundred updates a run can afford.
ETA0 = 0.1
GAMMA = 2.0


def import_package():
    """Import beamparse from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "beamparse" / "__init__.py").is_file():
        raise SystemExit(f"error: no beamparse sources under {src}")
    sys.path.insert(0, str(src))
    import beamparse

    if Path(beamparse.__file__).resolve().parent != (src / "beamparse").resolve():
        raise SystemExit(f"error: imported beamparse from {beamparse.__file__}, not {src}")


def clock():
    """CPU seconds of this process and its waited-for children.

    The pipeline runs on one thread, so this is its wall time less the time
    the host gives the virtual CPU to other guests (steal), which took up to
    a third of the wall time of short windows on a shared machine."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


class Run:
    """One benchmark run: files, phase timings and results."""

    def __init__(self, workload, seed, seconds, tracer, work):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.work = work
        self.attempted = 0
        self.times = {}  # phase -> list of per-repeat {part: seconds}

    def path(self, name):
        return str(self.work / name)

    # -- inputs -----------------------------------------------------------

    def generate(self):
        w = self.w
        grammar = corpus.Grammar(w.shape)
        # The training files are the same for every seed and --seed draws
        # what the trained models process.  The perceptron's work per sentence
        # depends on the network it starts from: networks trained on per-seed
        # files moved perceptron.sents_per_s by 10-27% (quartile distance
        # over median, five seeds), one network by ~3%.
        fixed = random.Random(f"train:{w.shape}")
        self.train = corpus.sentences(grammar, fixed, w.n_train)
        self.dev = corpus.sentences(grammar, fixed, w.n_dev)
        perceptron = corpus.sentences(grammar, fixed, w.n_perceptron)
        rng = random.Random(self.seed)
        self.test = corpus.sentences(grammar, rng, w.n_test)
        self.pairs = corpus.sentences(grammar, rng, w.n_pairs)
        labels = sorted({l for s in self.train for l in s.labels})
        heads_b, labels_b, self.agree = corpus.disagreeing_copy(rng, self.pairs, DISAGREE, labels)
        corpus.write_embeddings(self.path("embeddings.txt"), grammar, w.dims[0])
        corpus.write_conll(self.path("train.conll"), self.train)
        corpus.write_conll(self.path("perceptron.conll"), perceptron)
        corpus.write_conll(self.path("dev.conll"), self.dev)
        corpus.write_conll(self.path("test.conll"), self.test)
        corpus.write_conll(self.path("auto_a.conll"), self.pairs)
        corpus.write_conll(self.path("auto_b.conll"), self.pairs, heads_b, labels_b)

    # -- phases -----------------------------------------------------------

    def repeat(self, phase, unit):
        """Run whole calls of ``unit`` while another one fits in the phase's
        share of the run (at least one).  ``unit`` returns ({part: seconds},
        a digest of its output, its result).  Checks that every repeat gives
        the same digest and returns the last result.  Each repeat starts
        from a collected heap with the previous repeat's objects released."""
        if self.tracer is not None:
            self.tracer.phase = phase
        budget = self.w.shares[phase] * self.seconds
        spent = 0.0
        parts = []
        first = result = None
        while not parts or spent * (len(parts) + 1) / len(parts) <= budget:
            result = None
            gc.collect()
            start = clock()
            timing, output, result = unit()
            spent += clock() - start
            parts.append(timing)
            if first is None:
                first = output
            else:
                checks.require(output == first, f"{phase}: repeat {len(parts)} differs from the first")
        self.times[phase] = parts
        return result

    def read(self, path, allow_underscore_heads=False):
        with open(path, "r", encoding="utf-8") as f:
            return list(self.bp.treebank.read_conll(f, allow_underscore_heads=allow_underscore_heads))

    def write(self, path, trees):
        with open(path, "w", encoding="utf-8") as f:
            self.bp.treebank.write_conll(trees, f)

    def phase_train(self):
        bp, w = self.bp, self.w

        def unit():
            start = clock()
            train = self.read(self.path("train.conll"))
            dev = self.read(self.path("dev.conll"))
            vocabs = bp.features.build_vocabularies(train, w.min_count)
            embeddings = bp.model_io.load_embeddings(self.path("embeddings.txt"), w.dims[0])
            config = bp.training.TrainConfig(
                dims=bp.network.Dims(*w.dims),
                eta0=ETA0,
                gamma=GAMMA,
                epochs=w.epochs,
                patience=w.epochs,
                seed=TRAIN_SEED,
                batch=BATCH,
                word_min_count=w.min_count,
            )
            params, stats = bp.training.train_greedy(train, dev, vocabs, config, embeddings)
            elapsed = clock() - start
            self.attempted += len(train) * w.epochs
            return {"train": elapsed}, digest(a for _, a in params.fields()), (params, vocabs, stats)

        self.trained = self.repeat("train", unit)
        params, vocabs, stats = self.trained
        self.bp.model_io.save_model(self.path("model.bp"), params, vocabs, encoding=w.encoding)

    def phase_perceptron(self):
        bp, w = self.bp, self.w

        def unit():
            start = clock()
            loaded = bp.model_io.load_model(self.path("model.bp"))
            train = self.read(self.path("perceptron.conll"))
            dev = self.read(self.path("dev.conll"))
            config = bp.decoder.PerceptronConfig(
                beam=BEAM, epochs=w.perceptron_epochs, comp=w.phi, seed=TRAIN_SEED
            )
            model, stats = bp.decoder.train_perceptron(loaded.params, train, loaded.vocabs, config, dev)
            elapsed = clock() - start
            self.attempted += len(train) * w.perceptron_epochs
            return {"perceptron": elapsed}, (digest([model.v, model.u]), model.t), (loaded, model)

        self.perceptron = self.repeat("perceptron", unit)
        loaded, model = self.perceptron
        if self.tracer is not None:
            self.tracer.phase = "save"
        bp.model_io.save_model(self.path("model.beam.bp"), loaded.params, loaded.vocabs, model,
                               encoding=loaded.encoding)

    def phase_parse(self, phase):
        bp = self.bp
        beam, scorer = PARSE_MODES[phase]

        def unit():
            start = clock()
            loaded = bp.model_io.load_model(self.path("model.beam.bp"))
            precomp = bp.network.Precomputation(loaded.params)
            ready = clock()
            trees = self.read(self.path("test.conll"), allow_underscore_heads=True)
            begin = clock()
            out = [
                bp.decoder.beam_parse(loaded.params, t, loaded.vocabs, beam, scorer, loaded.perceptron, precomp)
                for t in trees
            ]
            done = clock()
            self.write(self.path(f"{phase}.conll"), out)
            self.attempted += len(trees)
            parsed = [checks.as_tuple(t) for t in out]
            return {"setup": ready - start, "parse": done - begin}, parsed, parsed

        return self.repeat(phase, unit)

    def phase_agree(self):
        bp = self.bp

        def unit():
            start = clock()
            a = self.read(self.path("auto_a.conll"))
            b = self.read(self.path("auto_b.conll"))
            kept, stats = bp.tritrain.agreement_filter(a, b, "labeled")
            reference = self.read(self.path("train.conll"))
            out = bp.tritrain.length_matched_sample(kept, reference, stats.kept_tokens, 1)
            self.write(self.path("agreed.conll"), out)
            elapsed = clock() - start
            self.attempted += len(a)
            return {"agree": elapsed}, [checks.as_tuple(t) for t in out], (kept, out, stats.kept_tokens)

        self.agreed = self.repeat("agree", unit)

    # -- the whole run ----------------------------------------------------

    def execute(self):
        import beamparse as bp

        self.bp = bp
        self.generate()
        # The benchmark's own corpora stay alive all run; keep them out of
        # the collector's way so they do not slow the program's collections.
        gc.collect()
        gc.freeze()
        if self.tracer is not None:
            import tracing

            tracing.install(self.tracer)
        try:
            self.phase_train()
            self.phase_perceptron()
            self.parses = {phase: self.phase_parse(phase) for phase in PARSE_MODES}
            self.phase_agree()
        finally:
            if self.tracer is not None:
                self.tracer.restore()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.check()

    def check(self):
        bp, w = self.bp, self.w
        stats = self.trained[2]
        rows = sum(2 * len(s) for s in self.train)
        checks.require(stats.n_sentences == len(self.train) and stats.skipped_nonprojective == 0,
                       f"train used {stats.n_sentences} of {len(self.train)} sentences")
        checks.require(stats.n_examples == rows, f"train built {stats.n_examples} rows, expected {rows}")
        checks.require(stats.epochs_run == w.epochs, f"train ran {stats.epochs_run} of {w.epochs} epochs")
        steps = -(-rows // BATCH) * w.epochs
        checks.require(stats.history[-1].updates == steps,
                       f"train made {stats.history[-1].updates} updates, expected {steps}")
        self.rows_per_epoch = rows

        # Save -> load -> save reproduces the model file byte for byte.
        loaded = bp.model_io.load_model(self.path("model.beam.bp"))
        bp.model_io.save_model(self.path("resaved.bp"), loaded.params, loaded.vocabs, loaded.perceptron,
                               encoding=loaded.encoding)
        checks.check_model_bytes(self.path("model.beam.bp"), self.path("resaved.bp"))

        # Parses from the model file equal parses from the in-memory model,
        # rounded to the file's precision by this benchmark.
        memory_params, memory_model = in_memory(bp, self.perceptron[0].params, self.perceptron[1], w.encoding)
        precomp = bp.network.Precomputation(memory_params)
        test_trees = self.read(self.path("test.conll"), allow_underscore_heads=True)
        for phase, out in self.parses.items():
            checks.check_parses(self.test, out, phase)
        greedy = [bp.network.greedy_parse(memory_params, t, loaded.vocabs, precomp) for t in test_trees]
        checks.check_same_parses(self.parses["parse.greedy"], greedy, "beam 1 vs network.greedy_parse")
        k = min(len(test_trees), 3)
        for phase in ("parse.beam_softmax", "parse.beam_perceptron"):
            beam, scorer = PARSE_MODES[phase]
            again = [bp.decoder.beam_parse(memory_params, t, loaded.vocabs, beam, scorer, memory_model, precomp)
                     for t in test_trees[:k]]
            checks.check_same_parses(self.parses[phase][:k], again, f"{phase} file vs in-memory model")

        # UAS from heads, against the package's own scorer and a chain baseline.
        gold = [bp.treebank.DepTree.build(s.forms, s.tags, s.heads, s.labels) for s in self.test]
        self.uas = {}
        for phase in ("parse.greedy", "parse.beam_perceptron"):
            pred = [bp.treebank.DepTree.build(*t) for t in self.parses[phase]]
            mine = checks.uas(self.test, self.parses[phase])
            theirs = 100.0 * bp.treebank.evaluate(gold, pred).uas
            checks.require(abs(mine - theirs) < 1e-9, f"{phase}: UAS {mine} vs treebank.evaluate {theirs}")
            self.uas[phase] = mine
        baseline = checks.chain_baseline_uas(self.test)
        checks.require(self.uas["parse.greedy"] >= baseline + w.baseline_margin,
                       f"greedy UAS {self.uas['parse.greedy']:.2f} does not clearly beat the chain baseline {baseline:.2f}")

        kept, out, budget = self.agreed
        checks.check_agreement(kept, self.pairs, self.agree, out, budget)

    def metrics(self):
        t = self.times
        setups = [r["setup"] for phase in PARSE_MODES for r in t[phase]]
        train_rows = self.rows_per_epoch * self.w.epochs
        tokens_test = sum(len(s) for s in self.test)
        tokens_pairs = sum(len(s) for s in self.pairs)
        perceptron_sents = self.w.n_perceptron * self.w.perceptron_epochs

        def rate(work, phase, part):
            return work / median([r[part] for r in t[phase]])

        m = {
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "train.rows_per_s": (rate(train_rows, "train", "train"), "1/s"),
            "perceptron.sents_per_s": (rate(perceptron_sents, "perceptron", "perceptron"), "1/s"),
            "parse.greedy.tok_per_s": (rate(tokens_test, "parse.greedy", "parse"), "1/s"),
            "parse.beam_softmax.tok_per_s": (rate(tokens_test, "parse.beam_softmax", "parse"), "1/s"),
            "parse.beam_perceptron.tok_per_s": (rate(tokens_test, "parse.beam_perceptron", "parse"), "1/s"),
            "agree.tok_per_s": (rate(tokens_pairs, "agree", "agree"), "1/s"),
            "uas.greedy": (self.uas["parse.greedy"], "%"),
            "uas.beam_perceptron": (self.uas["parse.beam_perceptron"], "%"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def in_memory(bp, params, model, encoding):
    """The trained model as the file stores it: float32-rounded for ``f32``."""
    if encoding == "decimals":
        return params, model
    import numpy as np

    def r(a):
        return a.astype("<f4").astype(np.float64)

    rounded = bp.network.NetworkParams(params.dims, params.sizes, {n: r(a) for n, a in params.fields()})
    copy = bp.decoder.PerceptronModel(model.comp, model.d, model.n_decisions, model.average)
    copy.v, copy.u, copy.t = r(model.v), r(model.u), model.t
    return rounded, copy


def layer_metrics(tr, run):
    """Per-layer metrics from a traced run's aggregates (see README)."""
    reps = {phase: len(parts) for phase, parts in run.times.items()}
    parse = list(PARSE_MODES)
    beam = ["parse.beam_softmax", "parse.beam_perceptron", "perceptron"]
    tokens = sum(len(s) for s in run.test)

    def ratio(a, b):
        return a / b if b else 0.0

    def self_per_call(name, scale, phases=None):
        return scale * ratio(tr.self_time(name, phases), tr.calls(name, phases))

    def total_per_call(name):
        return ratio(tr.total(name), tr.calls(name))

    def per_round(count, phases=reps):
        """A count over one whole call of each phase, however often it repeated."""
        return sum(count([p]) / reps[p] for p in phases)

    def calls_per_tok(name):
        """Calls per parsed token, over one parse of the test set in each mode."""
        return per_round(lambda ph: tr.calls(name, ph), parse) / (len(parse) * tokens)

    m = {
        "treebank.read_conll.tok_per_s": (ratio(tr.counted("read_conll.tokens"), tr.self_time("treebank.read_conll")), "1/s"),
        "treebank.write_conll.tok_per_s": (ratio(tr.counted("write_conll.tokens"), tr.self_time("treebank.write_conll")), "1/s"),
        "transitions.apply.calls_per_tok": (calls_per_tok("transitions.apply"), "count"),
        "transitions.apply.self_us": (self_per_call("transitions.apply", 1e6), "us"),
        "transitions.legal_mask.self_us": (self_per_call("transitions.legal_mask", 1e6), "us"),
        "features.extract_features.self_us": (self_per_call("features.extract_features", 1e6), "us"),
        "features.extract_features.calls_per_tok": (calls_per_tok("features.extract_features"), "count"),
        "network.forward.self_us": (self_per_call("network.forward", 1e6), "us"),
        "network.forward.rows_per_call": (ratio(tr.counted("forward.rows"), tr.calls("network.forward")), "count"),
        "network.hidden_preactivation.self_us": (self_per_call("network.hidden_preactivation", 1e6), "us"),
        "network.precompute.builds": (per_round(lambda ph: tr.calls("network.precompute", ph)), "count"),
        "network.precompute.build_s": (total_per_call("network.precompute"), "s"),
        "network.precompute.mb": (tr.counts["all", "precompute.mb"], "MB"),
        "network.loss_and_gradient.self_ms": (self_per_call("network.loss_and_gradient", 1e3), "ms"),
        "training.sgd_step.self_ms": (self_per_call("training.sgd_step", 1e3), "ms"),
        "training.oracle_dataset_s": (total_per_call("training.build_oracle_dataset"), "s"),
        "training.dev_eval_s": (total_per_call("training.dev_eval"), "s"),
        "decoder.beam_search.self_ms_per_sent": (self_per_call("decoder.beam_search", 1e3, beam), "ms"),
        "decoder.candidates_per_step": (ratio(tr.counted("beam.candidates"), tr.counted("beam.steps")), "count"),
        "decoder.survivor_ratio": (ratio(tr.counted("beam.survivors"), tr.counted("beam.candidates")), "ratio"),
        "decoder.phi_for_prefix.rows": (per_round(lambda ph: tr.counted("phi.rows", ph)), "count"),
        "decoder.phi_for_prefix.self_ms": (self_per_call("decoder.phi_for_prefix", 1e3), "ms"),
        "decoder.apply_update.self_ms": (self_per_call("decoder.apply_update", 1e3), "ms"),
        "decoder.early_update_depth": (ratio(tr.counted("early_depth_sum"), tr.counted("early_updates")), "share"),
        "decoder.early_updates": (per_round(lambda ph: tr.counted("early_updates", ph)), "count"),
        "decoder.full_updates": (per_round(lambda ph: tr.counted("full_updates", ph)), "count"),
        "tritrain.agreement_filter.tok_per_s": (ratio(tr.counted("agree.tokens"), tr.self_time("tritrain.agreement_filter")), "1/s"),
        "tritrain.length_matched_sample.self_s": (self_per_call("tritrain.length_matched_sample", 1.0), "s"),
        "tritrain.kept_ratio": (ratio(tr.counted("agree.kept"), tr.counted("agree.pairs")), "ratio"),
        "tritrain.pairs": (per_round(lambda ph: tr.counted("agree.pairs", ph)), "count"),
        "model_io.load_model_s": (total_per_call("model_io.load_model"), "s"),
        "model_io.file_mb": (tr.counts["all", "model.mb"], "MB"),
        "model_io.save_model_s": (total_per_call("model_io.save_model"), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def overhead(traced, untraced_path):
    """Traced over untraced value of each end-to-end metric, minus one."""
    if not untraced_path.is_file():
        return None
    base = json.loads(untraced_path.read_text())["metrics"]
    return {k: traced[k]["value"] / base[k]["value"] - 1.0 for k in traced if k in base and base[k]["value"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    import_package()

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    run = Run(WORKLOADS[args.workload], args.seed, args.seconds, tracer, work)
    try:
        run.execute()
        error = None
    except checks.CheckFailed as exc:
        error = str(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}"
    result = {"correct": error is None, "attempted": run.attempted, "failed": 0, "metrics": {}}
    if error is not None:
        print(f"check failed: {error}", file=sys.stderr)
    elif tracer is None:
        result["metrics"] = run.metrics()
        (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    else:
        end_to_end = run.metrics()
        result["metrics"] = layer_metrics(tracer, run)
        cost = overhead(end_to_end, OUT / f"{stem}.json")
        for name, value in (cost or {}).items():
            print(f"trace_overhead {name} {100 * value:+.1f}%")
        if cost is None:
            print(f"trace_overhead unknown: no untraced result {stem}.json in {OUT.name}/")
        dump = {"result": result, "end_to_end_traced": end_to_end, "overhead": cost, "trace": tracer.dump()}
        (OUT / f"{stem}-trace.json").write_text(json.dumps(dump) + "\n")
    for phase, parts in run.times.items():
        summary = " ".join(f"{k}={median([p[k] for p in parts]):.3f}" for k in parts[0])
        print(f"phase {phase} repeats={len(parts)} median {summary}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if error is None else 1


if __name__ == "__main__":
    sys.exit(main())
