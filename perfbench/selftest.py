"""Fast self-test of the benchmark: tiny runs and broken inputs.

    python3 perfbench/selftest.py

Runs every workload, traced, at a tiny size to its end (every check except
the chain-baseline margin, which a one-epoch model need not clear), checks
that the result carries every metric BENCHMARK.json names, and feeds each
output checker a deliberately broken input that it must reject.
"""

import dataclasses
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads

import numpy as np

import checks
import corpus
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(workload):
    return dataclasses.replace(
        workload, n_train=30, n_dev=3, n_test=4, n_perceptron=3, epochs=1, perceptron_epochs=1,
        n_pairs=300, baseline_margin=-100.0,
    )


def rejects(fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed:
        return True
    return False


def test_tiny_runs(work):
    for name, workload in run.WORKLOADS.items():
        tracer = tracing.Tracer()
        r = run.Run(tiny(workload), seed=7, seconds=0.01, tracer=tracer, work=work / name)
        (work / name).mkdir()
        r.execute()
        e2e = r.metrics()
        layers = run.layer_metrics(tracer, r)
        missing = {m["name"] for m in SPEC["end_to_end"]} - set(e2e)
        missing |= {m["name"] for m in SPEC["per_layer"]} - set(layers)
        assert not missing, f"{name}: metrics missing: {sorted(missing)}"
        assert all(v["value"] > 0 for v in e2e.values()), f"{name}: an end-to-end metric is 0"
        print(f"ok  tiny {name}: {r.attempted} operations, all checks passed")


def test_tree_checker():
    checks.check_tree((2, 0, 2), "valid")
    assert rejects(checks.check_tree, (3, 0, 2, 2), "crossing"), "crossing arc accepted"
    assert rejects(checks.check_tree, (0, 0, 2), "two roots"), "second root accepted"
    assert rejects(checks.check_tree, (2, 3, 0, 3, 0), "two roots"), "second root accepted"
    assert rejects(checks.check_tree, (2, 1, 0), "cycle"), "cycle accepted"
    src = corpus.Sentence(("a", "b", "c"), ("D0", "N0", "V0"), (2, 3, 0), ("l", "l", "root"))
    changed = (("a", "x", "c"), src.tags, src.heads, src.labels)
    assert rejects(checks.check_parses, [src], [changed], "parse"), "changed form accepted"
    print("ok  tree checker rejects a crossing arc, a second root, a cycle and a changed form")


def test_agreement_checker():
    grammar = corpus.Grammar(run.WORKLOADS["auto-corpus"].shape)
    rng = random.Random(3)
    pairs = corpus.sentences(grammar, rng, 50)
    _, _, agree = corpus.disagreeing_copy(rng, pairs, 0.3, ["l00", "l01"])
    kept = [checks.as_tuple(s) for s, ok in zip(pairs, agree) if ok]
    budget = sum(len(t[0]) for t in kept)
    checks.check_agreement(kept, pairs, agree, kept[:5], budget)
    assert rejects(checks.check_agreement, kept[1:], pairs, agree, kept[1:5], budget), \
        "dropped agreeing sentence accepted"
    disagreeing = next(checks.as_tuple(s) for s, ok in zip(pairs, agree) if not ok)
    assert rejects(checks.check_agreement, kept, pairs, agree, kept[:4] + [disagreeing], budget), \
        "disagreeing sentence in the output accepted"
    assert rejects(checks.check_agreement, kept, pairs, agree, kept[:5], 1), "budget overrun accepted"
    print("ok  agreement checker rejects a dropped agreeing sentence, a stray sentence and a budget overrun")


def test_model_checker(work):
    run.import_package()
    from beamparse import features, model_io, network, treebank

    grammar = corpus.Grammar(run.WORKLOADS["many-labels"].shape)
    trees = [treebank.DepTree.build(s.forms, s.tags, s.heads, s.labels)
             for s in corpus.sentences(grammar, random.Random(5), 5)]
    vocabs = features.build_vocabularies(trees, 1)
    params = network.init_params(vocabs, network.Dims(8, 4, 4, 16, 8), np.random.default_rng(0))
    a, b = work / "a.bp", work / "b.bp"
    model_io.save_model(a, params, vocabs)
    loaded = model_io.load_model(a)
    model_io.save_model(b, loaded.params, loaded.vocabs, encoding=loaded.encoding)
    checks.check_model_bytes(a, b)
    data = bytearray(b.read_bytes())
    data[len(data) // 2] ^= 1
    b.write_bytes(bytes(data))
    assert rejects(checks.check_model_bytes, a, b), "changed model byte accepted"
    print("ok  model checker accepts save -> load -> save and rejects a changed byte")


def main():
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        test_tree_checker()
        test_agreement_checker()
        test_model_checker(work)
        test_tiny_runs(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
