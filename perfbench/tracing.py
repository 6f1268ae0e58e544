"""Spans around the calls into each package module, recorded from outside.

``Tracer.install`` replaces module and class attributes with timing
wrappers, under the name each caller looks up (``decoder.extract_features``
and ``training.extract_features`` are the names bound by
``from .features import``).  Hot leaf calls are aggregated per (phase, name)
as calls, total time and self time, where self time is the span's duration
minus the time its child spans cover.  Spans of the coarse calls are kept
whole and written out with the trace.
"""

import os
import time
from collections import defaultdict

# Called too often to keep every span; they are aggregated only.
HOT = {
    "transitions.apply",
    "transitions.legal_mask",
    "features.extract_features",
    "network.forward",
    "network.hidden_preactivation",
    "decoder.step_scores",
}


class Tracer:
    def __init__(self):
        self.phase = "setup"
        self.stack = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # (phase, name) -> calls, total, self
        self.counts = defaultdict(float)  # (phase, counter) -> value
        self.spans = []
        self.step_candidates = []
        self.t0 = time.perf_counter()
        self._undo = []

    def count(self, key, value=1):
        self.counts[self.phase, key] += value

    def wrap(self, fn, name, after=None, eager=False):
        stack, stats, spans, perf = self.stack, self.stats, self.spans, time.perf_counter
        keep = name not in HOT
        tracer = self

        def traced(*args, **kwargs):
            frame = [0.0]
            parent = len(stack)
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
                if eager:
                    result = list(result)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                st = stats[tracer.phase, name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep:
                    spans.append((name, tracer.phase, parent, start - tracer.t0, dur))
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, after=None, eager=False):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, after, eager))

    def restore(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- aggregates -------------------------------------------------------

    def calls(self, name, phases=None):
        return sum(v[0] for (p, n), v in self.stats.items() if n == name and _in(p, phases))

    def total(self, name, phases=None):
        return sum(v[1] for (p, n), v in self.stats.items() if n == name and _in(p, phases))

    def self_time(self, name, phases=None):
        return sum(v[2] for (p, n), v in self.stats.items() if n == name and _in(p, phases))

    def counted(self, key, phases=None):
        return sum(v for (p, k), v in self.counts.items() if k == key and _in(p, phases))

    def dump(self):
        return {
            "stats": [
                {"phase": p, "name": n, "calls": v[0], "total_s": v[1], "self_s": v[2]}
                for (p, n), v in sorted(self.stats.items())
            ],
            "counts": [{"phase": p, "key": k, "value": v} for (p, k), v in sorted(self.counts.items())],
            "spans": [
                {"name": n, "phase": p, "depth": d, "start_s": s, "dur_s": dur}
                for n, p, d, s, dur in self.spans
            ],
        }


def _in(phase, phases):
    return phases is None or phase in phases


def install(tracer):
    """Wrap every public entry point of the package's modules."""
    from beamparse import decoder, features, model_io, network, training, transitions, treebank, tritrain

    def tokens_out(tr, args, kwargs, result):
        tr.count("read_conll.tokens", sum(len(t) for t in result))

    def tokens_in(tr, args, kwargs, result):
        tr.count("write_conll.tokens", sum(len(t) for t in args[0]))

    def forward_rows(tr, args, kwargs, result):
        tr.count("forward.rows", result.log_probs.shape[0])

    def precompute_size(tr, args, kwargs, result):
        pre = args[0]
        mb = (pre.word_tables.nbytes + pre.tag_tables.nbytes + pre.label_tables.nbytes) / 2**20
        tr.counts["all", "precompute.mb"] = max(tr.counts["all", "precompute.mb"], mb)

    def step_scores(tr, args, kwargs, result):
        # One candidate per legal (item, decision) pair of this step.
        tr.step_candidates.append(int((result > float("-inf")).sum()))

    def beam_search(tr, args, kwargs, result):
        sentence, beam_size = args[1], args[2]
        gold = kwargs.get("gold_ids", args[5] if len(args) > 5 else None)
        beam, lost_at = result
        steps, tr.step_candidates = tr.step_candidates, []
        if beam_size > 1:
            tr.count("beam.steps", len(steps))
            tr.count("beam.candidates", sum(steps))
            tr.count("beam.survivors", sum(min(beam_size, c) for c in steps))
            tr.count("beam.sentences")
        if gold is not None:
            if lost_at is not None:
                tr.count("early_updates")
                tr.count("early_depth_sum", lost_at / (2 * sentence.n))
            elif not beam[0].gold_flag:
                tr.count("full_updates")

    def phi_rows(tr, args, kwargs, result):
        tr.count("phi.rows", result.shape[0])

    def agreement(tr, args, kwargs, result):
        kept, stats = result
        tr.count("agree.tokens", sum(len(t) for t in args[0]))
        tr.count("agree.pairs", stats.total_sentences)
        tr.count("agree.kept", stats.kept_sentences)

    def model_size(tr, args, kwargs, result):
        tr.counts["all", "model.mb"] = max(tr.counts["all", "model.mb"], os.path.getsize(args[0]) / 2**20)

    p = tracer.patch
    p(treebank, "read_conll", "treebank.read_conll", tokens_out, eager=True)
    p(treebank, "write_conll", "treebank.write_conll", tokens_in)
    p(transitions, "apply", "transitions.apply")
    p(transitions, "derive_oracle_sequence", "transitions.derive_oracle_sequence")
    p(transitions.DecisionSet, "legal_mask", "transitions.legal_mask")
    for module in (features, decoder, training):
        p(module, "extract_features", "features.extract_features")
    p(features, "build_vocabularies", "features.build_vocabularies")
    p(network, "forward", "network.forward", forward_rows)
    p(network.Precomputation, "hidden_preactivation", "network.hidden_preactivation")
    p(network.Precomputation, "__init__", "network.precompute", precompute_size)
    p(network, "loss_and_gradient", "network.loss_and_gradient")
    p(network, "greedy_parse", "network.greedy_parse")
    p(training, "sgd_step", "training.sgd_step")
    p(training, "build_oracle_dataset", "training.build_oracle_dataset")
    p(training, "_dev_scores", "training.dev_eval")
    p(training, "train_greedy", "training.train_greedy")
    p(decoder, "_step_scores", "decoder.step_scores", step_scores)
    p(decoder, "beam_search", "decoder.beam_search", beam_search)
    p(decoder, "phi_for_prefix", "decoder.phi_for_prefix", phi_rows)
    p(decoder, "_apply_update", "decoder.apply_update")
    p(decoder, "beam_parse", "decoder.beam_parse")
    p(decoder, "train_perceptron", "decoder.train_perceptron")
    p(tritrain, "agreement_filter", "tritrain.agreement_filter", agreement)
    p(tritrain, "length_matched_sample", "tritrain.length_matched_sample")
    p(model_io, "load_model", "model_io.load_model", model_size)
    p(model_io, "save_model", "model_io.save_model")
