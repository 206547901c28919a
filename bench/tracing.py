"""Spans around calls into tarjama's layers, recorded from outside.

``Tracer.install`` replaces public functions at the attributes their
callers look them up through (``pipeline.train_nmt``,
``decoding.decode_step``, ``autodiff.Var.backward``, ...) with wrappers
that record a span (name, start, end, parent) in memory; ``uninstall``
puts the originals back.  ``layer_metrics`` turns the spans of one job
repeat into the per-layer metrics listed in README.md.  Nothing inside
``src/`` is changed, and with the tracer uninstalled nothing is wrapped.
"""

import inspect

from tarjama import bpe, cli, nmt, pipeline
from tarjama.nmt import autodiff, decoding, training

NAME, START, END, PARENT = range(4)

# (owner, attribute, span name).  Each layer is wrapped at every
# attribute through which the benchmark's workloads reach it.
_WRAPPED = [
    (cli, "run_experiment", "pipeline.experiment"),
    (pipeline, "run_preprocess", "pipeline.run_preprocess"),
    (pipeline, "build_vocab", "pipeline.build_vocab"),
    (pipeline, "init_model", "pipeline.init_model"),
    (pipeline, "run_postprocess", "pipeline.run_postprocess"),
    (pipeline, "prepare_references", "pipeline.prepare_references"),
    (pipeline, "train_nmt", "nmt.training.train_nmt"),
    (training, "adadelta_step", "nmt.optimizer.adadelta"),
    (autodiff.Var, "backward", "nmt.autodiff.backward"),
    (nmt, "load_model", "nmt.model.load"),
    (pipeline, "beam_decode", "nmt.decoding.beam_decode"),
    (nmt, "beam_decode", "nmt.decoding.beam_decode"),
    (decoding, "encode", "nmt.model.encode"),
    (decoding, "decode_step", "nmt.model.decode_step"),
    (cli, "learn_bpe", "bpe.learn"),
    (pipeline, "learn_bpe", "bpe.learn"),
    (cli, "apply_bpe", "bpe.apply"),
    (pipeline, "apply_bpe", "bpe.apply"),
    (cli, "lm_train", "ngram.train"),
    (cli, "lm_write_arpa", "ngram.arpa_write"),
    (cli, "lm_read_arpa", "ngram.arpa_read"),
    (cli, "lm_score_set", "ngram.score"),
    (cli, "lm_score_sentence", "ngram.score"),
    (cli, "bleu", "bleu.score"),
    (pipeline, "bleu", "bleu.score"),
    (cli, "normalize_arabic", "normalize.normalize"),
    (pipeline, "normalize_arabic", "normalize.normalize"),
    (cli, "segment_corpus", "segment.segment"),
    (pipeline, "segment_corpus", "segment.segment"),
    (pipeline, "atb_segment", "segment.segment"),
    (cli, "detokenize", "segment.detokenize"),
    (pipeline, "detokenize", "segment.detokenize"),
    (cli, "read_lines", "corpus.read"),
    (pipeline, "read_lines", "corpus.read"),
]

# Experiment stages in run order, each starting at the first call of
# its marker function inside the experiment span (pipeline.py has no
# stage hooks of its own).  "load" starts with the experiment itself.
_STAGES = [
    ("load", None),
    ("preprocess", "pipeline.run_preprocess"),
    ("vocab", "pipeline.build_vocab"),
    ("train", "pipeline.init_model"),
    ("decode", "nmt.decoding.beam_decode"),
    ("postprocess", "pipeline.run_postprocess"),
    ("evaluate", "pipeline.prepare_references"),
]

# Per-layer metric names and units, in report order.
PER_LAYER = [("pipeline.%s_s" % stage, "s") for stage, _ in _STAGES] + [
    ("nmt.autodiff.backward_s", "s"),
    ("nmt.optimizer.adadelta_s", "s"),
    ("nmt.optimizer.steps", "count"),
    ("nmt.training.forward_s", "s"),
    ("nmt.training.target_tokens", "count"),
    ("nmt.training.tokens_per_s", "1/s"),
    ("nmt.model.load_s", "s"),
    ("nmt.model.encode_s", "s"),
    ("nmt.model.encode_calls", "count"),
    ("nmt.model.decode_step_s", "s"),
    ("nmt.model.decode_step_calls", "count"),
    ("nmt.decoding.search_s", "s"),
    ("nmt.decoding.out_tokens", "count"),
    ("nmt.decoding.maxlen_cutoffs", "count"),
    ("bpe.learn_s", "s"),
    ("bpe.merges", "count"),
    ("bpe.ms_per_merge", "ms"),
    ("bpe.apply_s", "s"),
    ("bpe.apply_distinct_ratio", "ratio"),
    ("ngram.train_s", "s"),
    ("ngram.stored_ngrams", "count"),
    ("ngram.arpa_write_s", "s"),
    ("ngram.arpa_read_s", "s"),
    ("ngram.score_s", "s"),
    ("bleu.score_s", "s"),
    ("normalize.normalize_s", "s"),
    ("segment.segment_s", "s"),
    ("segment.detokenize_s", "s"),
    ("corpus.read_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
]

# Exact work counts; the same seed must give the same values.
COUNTERS = [name for name, unit in PER_LAYER if unit == "count"]


class Tracer:
    """In-memory span log plus the work counters the wrappers collect."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self._originals = []
        self.counts = {}
        self._bpe_seen = {}  # id(model) -> (model, set of words applied)

    def _count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, owner, attr, name):
        original = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, self.clock
        after = self._after.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][END] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def install(self):
        self._after = {
            "nmt.training.train_nmt": self._after_train,
            "nmt.optimizer.adadelta": lambda a, k, r: self._count("nmt.optimizer.steps"),
            "nmt.decoding.beam_decode": self._after_beam,
            "nmt.model.encode": lambda a, k, r: self._count("nmt.model.encode_calls"),
            "nmt.model.decode_step": lambda a, k, r: self._count("nmt.model.decode_step_calls"),
            "bpe.learn": lambda a, k, r: self._count("bpe.merges", len(r.merges)),
            "bpe.apply": self._after_apply,
            "ngram.train": lambda a, k, r: self._count("ngram.stored_ngrams", len(r.probs)),
        }
        for owner, attr, name in _WRAPPED:
            self._wrap(owner, attr, name)

    def uninstall(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _after_train(self, args, kwargs, result):
        # Each epoch predicts every target token plus the sentence end.
        train_pairs = _arguments(training.train_nmt, args, kwargs)["train_pairs"]
        _, record = result
        per_epoch = sum(len(tgt) + 1 for _, tgt in train_pairs)
        self._count("nmt.training.target_tokens", per_epoch * len(record.train_nll))

    def _after_beam(self, args, kwargs, result):
        # Only a hypothesis still live at max_len has exactly max_len
        # tokens; a finished one has at most max_len - 1.
        max_len = _arguments(decoding.beam_decode, args, kwargs)["max_len"]
        self._count("nmt.decoding.out_tokens", len(result))
        self._count("nmt.decoding.maxlen_cutoffs", int(len(result) == max_len))

    def _after_apply(self, args, kwargs, result):
        call = _arguments(bpe.apply_bpe, args, kwargs)
        sentence, model = call["sentence"], call["model"]
        self._count("bpe.words", len(sentence))
        _, seen = self._bpe_seen.setdefault(id(model), (model, set()))
        before = len(seen)
        seen.update(sentence)
        self._count("bpe.distinct_words", len(seen) - before)

    def reset_counts(self):
        self.counts = {}
        self._bpe_seen = {}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\n" % (i, name, start, end, parent))


def _arguments(func, args, kwargs):
    """Every parameter of a call to func by name, defaults included."""
    bound = inspect.signature(func).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def layer_metrics(tracer, first):
    """Per-layer values for the spans from index ``first`` on (one job
    repeat) and the counters collected since the last reset."""
    spans, counts = tracer.spans[first:], tracer.counts
    total, child = {}, [0.0] * len(spans)
    for span in spans:
        duration = span[END] - span[START]
        total[span[NAME]] = total.get(span[NAME], 0.0) + duration
        if span[PARENT] >= first:
            child[span[PARENT] - first] += duration
    self_time = {}
    for i, span in enumerate(spans):
        own = span[END] - span[START] - child[i]
        self_time[span[NAME]] = self_time.get(span[NAME], 0.0) + own

    out = {name: 0.0 for name, _ in PER_LAYER}
    out.update(_stage_times(spans))
    get = total.get
    out["nmt.autodiff.backward_s"] = get("nmt.autodiff.backward", 0.0)
    out["nmt.optimizer.adadelta_s"] = get("nmt.optimizer.adadelta", 0.0)
    out["nmt.training.forward_s"] = self_time.get("nmt.training.train_nmt", 0.0)
    out["nmt.model.load_s"] = get("nmt.model.load", 0.0)
    out["nmt.model.encode_s"] = get("nmt.model.encode", 0.0)
    out["nmt.model.decode_step_s"] = get("nmt.model.decode_step", 0.0)
    out["nmt.decoding.search_s"] = self_time.get("nmt.decoding.beam_decode", 0.0)
    for layer in ("bpe.learn", "bpe.apply", "ngram.train", "ngram.arpa_write",
                  "ngram.arpa_read", "ngram.score", "bleu.score",
                  "normalize.normalize", "segment.segment", "segment.detokenize",
                  "corpus.read"):
        out[layer + "_s"] = get(layer, 0.0)
    for name in COUNTERS:
        out[name] = counts.get(name, 0)
    train_s = get("nmt.training.train_nmt", 0.0)
    if train_s > 0:
        out["nmt.training.tokens_per_s"] = out["nmt.training.target_tokens"] / train_s
    if out["bpe.merges"]:
        out["bpe.ms_per_merge"] = 1000.0 * out["bpe.learn_s"] / out["bpe.merges"]
    if counts.get("bpe.words"):
        out["bpe.apply_distinct_ratio"] = counts["bpe.distinct_words"] / counts["bpe.words"]
    return out


def _stage_times(spans):
    out = {}
    for experiment in (s for s in spans if s[NAME] == "pipeline.experiment"):
        inside = [s for s in spans
                  if s[START] >= experiment[START] and s[END] <= experiment[END]]
        starts = [experiment[START]]
        starts += [min((s[START] for s in inside if s[NAME] == marker), default=None)
                   for _, marker in _STAGES[1:]]
        starts.append(experiment[END])
        # A stage that never ran (no test sentence to decode) is empty:
        # it starts where the next stage does.
        for k in range(len(starts) - 2, 0, -1):
            if starts[k] is None:
                starts[k] = starts[k + 1]
        for k, (stage, _) in enumerate(_STAGES):
            key = "pipeline.%s_s" % stage
            out[key] = out.get(key, 0.0) + starts[k + 1] - starts[k]
    return out
