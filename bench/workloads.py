"""The three benchmark workloads: set-up, one job repeat, output checks.

Each workload drives tarjama only through ``tarjama.cli.main`` (in
process) and, for ``translate`` and the held-out scoring, the public
``tarjama.nmt`` API.  ``setup`` writes the generated inputs into a fresh
directory; ``job`` is the unit that is timed and repeated, and returns the
time of each of its steps as read from ``clock``; ``heldout_nll`` scores
quality after the timed region.  Sizes are fixed here, so every
seed gives the same amount of work up to sampling.
"""

import contextlib
import io
import json
import logging
import math
import os
import shutil
import traceback

from tarjama import cli, nmt
from tarjama.corpus import BOS_ID, EOS_ID, Vocab, read_lines
from tarjama.pipeline import PipelineArtifacts, PipelineConfig, apply_preprocess

import synth


class Ops:
    """Counts attempted and failed operations and keeps what went wrong.

    An operation is one CLI call or one public-API call together with the
    check on its output.  A CLI call fails if it raises, exits non-zero,
    or logs a warning or error; tarjama.cli catches the exceptions it
    expects and logs them, so anything that escapes is a traceback.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._records = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = self._records.append
        # With a root handler in place, cli.main's logging.basicConfig is
        # a no-op, so its log records come here instead of stderr.
        logging.getLogger().addHandler(handler)

    def run(self, label, fn, check=None):
        self.attempted += 1
        result = None
        try:
            result = fn()
            problem = check(result) if check is not None else None
        except Exception:
            problem = traceback.format_exc(limit=-3)
        if problem:
            self.failed += 1
            self.problems.append("%s: %s" % (label, problem))
        return result

    def cli(self, argv, check=None):
        """Run one subcommand; ``check()`` then inspects its output files."""

        def call():
            del self._records[:]
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        def verdict(code):
            if code != 0:
                return "exit code %s: %s" % (code, "; ".join(
                    r.getMessage() for r in self._records))
            if self._records:
                return "logged: %s" % "; ".join(r.getMessage() for r in self._records)
            return check() if check is not None else None

        return self.run(argv[0], call, verdict)


def _same_lines(path, expected):
    lines = read_lines(path)
    if lines == expected:
        return None
    bad = next((i for i, (a, b) in enumerate(zip(lines, expected)) if a != b),
               min(len(lines), len(expected)))
    return "%s differs from the expected text at line %d" % (
        os.path.basename(path), bad + 1)


def _mean_nll(model, src_vocab, tgt_vocab, pairs, score_end=True):
    """Teacher-forced NLL in nats per target token of token-list pairs,
    through the public encode / decoder_init / decode_step API.  The
    sentence end counts as a token unless score_end is false."""
    total, count = 0.0, 0
    for src, tgt in pairs:
        if not src:
            continue
        enc = nmt.encode(model, src_vocab.encode(src))
        state = nmt.decoder_init(model, enc)
        prev = BOS_ID
        targets = tgt_vocab.encode(tgt) + ([EOS_ID] if score_end else [])
        for y in targets:
            state, logp = nmt.decode_step(model, state, prev, enc)
            total -= float(logp[y])
            prev = y
        count += len(targets)
    return total / count


class Pipeline:
    """``tarjama experiment`` ar2en with every preprocessing step on."""

    N_STEMS = 120
    N_TRAIN, N_DEV, N_TEST = 60, 40, 10
    CONFIG = {
        "direction": "ar2en",
        "arabic_tok": "true", "arabic_norm": "true", "arabic_atb": "true",
        "english_tok": "true", "english_true": "true",
        "bpe_size": 160,
        # Below the 133 to 180 token types the seeds give, so the model,
        # and the training work, has the same size for every seed.
        "src_vocab_max": 120, "tgt_vocab_max": 120,
        "embed_dim": 16, "enc_hidden": 24, "enc_layers": 1, "dec_hidden": 24,
        "attn_hidden": 16, "dropout_rate": 0.0, "batch_size": 8,
        "epochs": 2, "patience": 2,  # patience = epochs: every epoch runs
        # How soon a 2-epoch model ends its hypotheses depends on the seed;
        # a short test set and max_decode_len keep that a small share.
        "beam_width": 4, "max_decode_len": 12,
    }

    def setup(self, seed, work, ops):
        rng = synth.rng_for(seed, "pipeline")
        lex = synth.make_lexicon(rng, self.N_STEMS)
        self.config = os.path.join(work, "experiment.cfg")
        self.out_dir = os.path.join(work, "out")
        values = dict(self.CONFIG, seed=seed, out_dir=self.out_dir)
        for split, n in (("train", self.N_TRAIN), ("dev", self.N_DEV), ("test", self.N_TEST)):
            pairs = synth.make_pairs(rng, lex, n, 3, 10)
            # Raw text as a user would have it: noisy Arabic spelling,
            # sentence-initial capitals and attached final periods.
            src = [p.noisy + "." for p in pairs]
            tgt = [p.english[:1].upper() + p.english[1:] + "." for p in pairs]
            for side, lines in (("src", src), ("tgt", tgt)):
                path = os.path.join(work, "%s.%s" % (split, side))
                synth.write_lines(path, lines)
                values["%s_%s" % (split, side)] = path
        synth.write_lines(self.config, ["%s=%s" % kv for kv in sorted(values.items())])
        self.manifest = None

    def prepare(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def job(self, ops, clock):
        start = clock()
        ops.cli(["experiment", "--config", self.config], check=self._check)
        return {"experiment": clock() - start}

    def _check(self):
        with open(os.path.join(self.out_dir, "manifest.json"), "rb") as fh:
            manifest = fh.read()
        if self.manifest is None:
            self.manifest = manifest
        elif manifest != self.manifest:
            return "manifest differs from the first repeat's"
        return None

    def heldout_nll(self):
        config = PipelineConfig.from_file(self.config)
        arts = PipelineArtifacts.load(self.out_dir, config)
        dev = apply_preprocess(config, read_lines(config.dev_src),
                               read_lines(config.dev_tgt), arts)
        model = nmt.load_model(os.path.join(self.out_dir, "model.ckpt"))
        return _mean_nll(model, Vocab.load(os.path.join(self.out_dir, "vocab.src.tsv")),
                         Vocab.load(os.path.join(self.out_dir, "vocab.tgt.tsv")), dev)


class Translate:
    """``load_model`` once, then ``beam_decode`` at beam 12 per sentence."""

    N_STEMS = 120
    N_VOCAB_TEXT = 200  # sentences the vocabularies are built from
    VOCAB_SIZE = 100
    N_SENTENCES = 100  # p90 needs at least 100 samples
    BEAM, MAX_LEN = 12, 12

    def setup(self, seed, work, ops):
        rng = synth.rng_for(seed, "translate")
        lex = synth.make_lexicon(rng, self.N_STEMS)
        text = synth.make_pairs(rng, lex, self.N_VOCAB_TEXT, 3, 30)
        vocab = {}
        for side, lines in (("src", [p.clean for p in text]),
                            ("tgt", [p.english for p in text])):
            corpus = os.path.join(work, "vocab-text." + side)
            synth.write_lines(corpus, lines)
            vocab[side] = os.path.join(work, "vocab.%s.tsv" % side)
            ops.cli(["vocab", corpus, "--max-size", str(self.VOCAB_SIZE),
                     "-o", vocab[side]])
        self.src_vocab = Vocab.load(vocab["src"])
        self.tgt_vocab = Vocab.load(vocab["tgt"])
        # Seeded initial weights, as a training run starts from, except
        # that the sentence end can never win: every sentence then runs
        # MAX_LEN steps at full beam, so the decoding work is the same for
        # every seed.  (With plain initial weights, 1% to 100% of the
        # outputs reach MAX_LEN, depending on the seed.)
        config = nmt.NmtConfig(
            src_vocab_size=len(self.src_vocab), tgt_vocab_size=len(self.tgt_vocab),
            embed_dim=16, enc_hidden=24, enc_layers=1, dec_hidden=24,
            attn_hidden=16, seed=seed)
        model = nmt.init_model(config)
        model.params["out_b"][EOS_ID] = -1000.0
        self.ckpt = os.path.join(work, "model.ckpt")
        nmt.save_model(model, self.ckpt,
                       vocab_files={"src": "vocab.src.tsv", "tgt": "vocab.tgt.tsv"})
        self.inputs = synth.make_pairs(rng, lex, self.N_SENTENCES, 3, 30)
        self.src_ids = [self.src_vocab.encode(p.clean.split()) for p in self.inputs]
        self.outputs = None

    def prepare(self):
        pass

    def job(self, ops, clock):
        start = clock()
        model = ops.run("load_model", lambda: nmt.load_model(self.ckpt))
        times = {"load_model": clock() - start}
        first = self.outputs is None
        if first:
            self.outputs = []
        for k, ids in enumerate(self.src_ids):
            start = clock()
            out = ops.run("beam_decode", lambda: nmt.beam_decode(
                model, ids, beam_width=self.BEAM, max_len=self.MAX_LEN),
                check=None if first else (
                    lambda out, k=k: None if out == self.outputs[k]
                    else "sentence %d decodes differently from the first repeat" % k))
            times["sentence-%03d" % k] = clock() - start
            if first:
                self.outputs.append(out)
        return times

    def heldout_nll(self):
        model = nmt.load_model(self.ckpt)
        pairs = [(p.clean.split(), p.english.split()) for p in self.inputs]
        # The checkpoint rules out the sentence end, so it is not scored.
        return _mean_nll(model, self.src_vocab, self.tgt_vocab, pairs, score_end=False)


class TextTools:
    """The CLI text chain: normalize, segment, detokenize, BPE, LM, BLEU."""

    N_STEMS = 40000
    N_SENTENCES, N_HELDOUT = 3000, 200
    HELDOUT_STEMS = 200
    BPE_VOCAB = 120  # symbol vocabulary: the characters plus about 90 merges
    LM_ORDER = 4

    def setup(self, seed, work, ops):
        rng = synth.rng_for(seed, "text_tools")
        lex = synth.make_lexicon(rng, self.N_STEMS)
        pairs = synth.make_pairs(rng, lex, self.N_SENTENCES, 3, 15)
        # Held-out text from the most frequent stems only, which all occur
        # in training: an unseen word scores the LM's floor of -99 (log10),
        # which would swamp the score of every seen word.
        heldout = synth.make_pairs(rng, lex.top(self.HELDOUT_STEMS), self.N_HELDOUT, 3, 15)
        self.path = {name: os.path.join(work, name) for name in (
            "ar.noisy", "ar.norm", "ar.seg", "detok.tsv", "ar.detok", "bpe.model",
            "ar.bpe", "ar.unbpe", "en.ref1", "en.ref2", "en.heldout", "lm.arpa",
            "lm.score", "bleu.json")}
        self.clean = [p.clean for p in pairs]
        synth.write_lines(self.path["ar.noisy"], [p.noisy for p in pairs])
        synth.write_lines(self.path["en.ref1"], [p.english for p in pairs])
        synth.write_lines(self.path["en.ref2"], [synth.perturb(rng, p.english) for p in pairs])
        synth.write_lines(self.path["en.heldout"], [p.english for p in heldout])
        self.lm_score = None

    def prepare(self):
        pass

    def job(self, ops, clock):
        p = self.path
        steps = [
            (["normalize", p["ar.noisy"], "-o", p["ar.norm"]],
             lambda: _same_lines(p["ar.norm"], self.clean)),
            (["segment", p["ar.norm"], "--table-out", p["detok.tsv"], "-o", p["ar.seg"]],
             None),
            (["detokenize", p["ar.seg"], "--table", p["detok.tsv"], "-o", p["ar.detok"]],
             lambda: _same_lines(p["ar.detok"], self.clean)),
            (["bpe-learn", p["ar.seg"], "--vocab-size", str(self.BPE_VOCAB),
              "-o", p["bpe.model"]], None),
            (["bpe-apply", p["ar.seg"], "--model", p["bpe.model"], "-o", p["ar.bpe"]],
             None),
            (["bpe-undo", p["ar.bpe"], "-o", p["ar.unbpe"]],
             lambda: _same_lines(p["ar.unbpe"], read_lines(p["ar.seg"]))),
            (["lm-train", p["en.ref1"], "--order", str(self.LM_ORDER), "-o", p["lm.arpa"]],
             None),
            (["lm-score", "--model", p["lm.arpa"], "--set", p["en.heldout"],
              "-o", p["lm.score"]], self._check_lm),
            (["bleu", p["en.ref1"], "--ref", p["en.ref1"], "--ref", p["en.ref2"],
              "--json", "-o", p["bleu.json"]], self._check_bleu),
        ]
        times = {}
        for argv, check in steps:
            start = clock()
            ops.cli(argv, check)
            times[argv[0]] = clock() - start
        return times

    def _check_lm(self):
        score = float(read_lines(self.path["lm.score"])[0])
        if not math.isfinite(score):
            return "lm-score is not finite: %r" % score
        if self.lm_score is None:
            self.lm_score = score
        elif score != self.lm_score:
            return "lm-score %r differs from the first repeat's %r" % (score, self.lm_score)
        return None

    def _check_bleu(self):
        with open(self.path["bleu.json"], encoding="utf-8") as fh:
            score = json.load(fh)["bleu"]
        return None if score == 1.0 else "self-BLEU is %r, not 1.0" % score

    def heldout_nll(self):
        # lm-score prints the mean per-sentence log10 probability; each
        # sentence also predicts its end.
        lines = read_lines(self.path["en.heldout"])
        tokens = sum(len(line.split()) + 1 for line in lines)
        return -self.lm_score * len(lines) * math.log(10.0) / tokens


WORKLOADS = {"pipeline": Pipeline, "translate": Translate, "text_tools": TextTools}
