"""Preprocessing pipeline configuration and end-to-end experiments.

A pipeline run fixes a direction and a set of per-language steps, applies
them in the order normalize, tokenize, clitic-segment, BPE, trains the
translation model, decodes, inverts the pipeline on the decoded output,
and scores. Every side artifact needed for the inversion is persisted.
"""

import hashlib
import json
import logging
import os
from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain

from . import corpus as corpus_io
from .bleu import bleu
from .bpe import apply_bpe, learn_bpe, undo_bpe, BpeModel
from .corpus import MIN_VOCAB_SIZE, build_vocab, read_lines, write_lines
from .nmt import NmtConfig, beam_decode, init_model, save_model, train_nmt
from .normalize import (
    TruecaseModel,
    lowercase,
    normalize_arabic,
    truecase_apply,
    truecase_train,
)
from .segment import (
    DetokTable,
    atb_segment,  # not called here; bench/tracing.py wraps pipeline.atb_segment
    detokenize,
    segment_corpus,
    simple_tokenize,
)

log = logging.getLogger(__name__)

DIRECTIONS = ("ar2en", "en2ar")


class PipelineError(Exception):
    """Invalid configuration or missing artifact."""


class ConfigFileError(PipelineError):
    """A config file line or value that does not parse; the message begins
    with the file's name."""


class StageError(Exception):
    """A pipeline stage failed; carries the stage name and the cause."""

    def __init__(self, stage, cause):
        super().__init__("stage %s failed: %s" % (stage, cause))
        self.stage = stage
        self.cause = cause


_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


@dataclass(frozen=True)
class PipelineConfig:
    """One experiment's settings, checked when the config is built."""

    direction: str = "ar2en"
    arabic_tok: bool = False
    arabic_norm: bool = False
    arabic_atb: bool = False
    english_tok: bool = False
    english_lower: bool = False
    english_true: bool = False
    bpe_size: int = 0
    train_src: str = ""
    train_tgt: str = ""
    dev_src: str = ""
    dev_tgt: str = ""
    test_src: str = ""
    test_tgt: str = ""
    out_dir: str = "experiment-out"
    max_train_len: int = 100
    src_vocab_max: int = 20000
    tgt_vocab_max: int = 20000
    embed_dim: int = 32
    enc_hidden: int = 32
    enc_layers: int = 1
    dec_hidden: int = 32
    attn_hidden: int = 16
    dropout_rate: float = 0.0
    l2_coeff: float = 1e-4
    seed: int = 1
    epochs: int = 30
    batch_size: int = 8
    patience: int = 3
    beam_width: int = 12
    max_decode_len: int = 60

    def __post_init__(self):
        """Raise PipelineError, or NmtConfig's ValueError, for a bad setting."""
        if self.direction not in DIRECTIONS:
            raise PipelineError(
                "direction must be one of %s" % (DIRECTIONS,)
            )
        # Each Arabic step presupposes the previous one.
        if self.arabic_atb and not self.arabic_norm:
            raise PipelineError("arabic_atb requires arabic_norm")
        if self.arabic_norm and not self.arabic_tok:
            raise PipelineError("arabic_norm requires arabic_tok")
        if self.english_lower and self.english_true:
            raise PipelineError(
                "english_lower and english_true are mutually exclusive"
            )
        for name, low in (("bpe_size", 0), ("max_train_len", 1), ("epochs", 0),
                          ("batch_size", 1), ("patience", 1), ("beam_width", 1),
                          ("max_decode_len", 1), ("src_vocab_max", MIN_VOCAB_SIZE),
                          ("tgt_vocab_max", MIN_VOCAB_SIZE)):
            if getattr(self, name) < low:
                raise PipelineError("%s must be at least %d" % (name, low))
        self.nmt_config(4, 4)  # NmtConfig checks the model's own fields

    @classmethod
    def from_file(cls, path, **overrides):
        """The config of a key=value file, with overrides in place of the
        file's values for those keys."""
        values = {}
        for i, line in enumerate(read_lines(path)):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigFileError(
                    "%s line %d: expected key=value, got %r" % (path, i + 1, line)
                )
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
        return cls.from_mapping({**values, **overrides}, source=path)

    @classmethod
    def from_mapping(cls, values, source="config"):
        kwargs = {}
        kinds = {f.name: f.type for f in fields(cls)}
        for key, value in values.items():
            if key not in kinds:
                raise ConfigFileError("%s: unknown option %r" % (source, key))
            kind = kinds[key]
            try:
                if kind is bool:
                    kwargs[key] = _BOOL_WORDS[str(value).strip().lower()]
                else:
                    kwargs[key] = kind(value)
            except (KeyError, ValueError):
                raise ConfigFileError(
                    "%s: bad value %r for option %r" % (source, value, key)
                )
        return cls(**kwargs)

    def as_dict(self):
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def arabic_side(self):
        return "src" if self.direction == "ar2en" else "tgt"

    def nmt_config(self, src_vocab_size, tgt_vocab_size):
        """The NmtConfig of these vocabulary sizes and this config's other fields."""
        sizes = {"src_vocab_size": src_vocab_size, "tgt_vocab_size": tgt_vocab_size}
        return NmtConfig(**sizes, **{f.name: getattr(self, f.name)
                                     for f in fields(NmtConfig) if f.name not in sizes})


@dataclass
class PipelineArtifacts:
    detok_table: DetokTable = None
    truecase: TruecaseModel = None
    bpe_src: BpeModel = None
    bpe_tgt: BpeModel = None

    # attribute -> (file name, loader)
    _FILES = {
        "detok_table": ("detok.tsv", DetokTable.load),
        "truecase": ("truecase.tsv", TruecaseModel.load),
        "bpe_src": ("bpe.src", BpeModel.load),
        "bpe_tgt": ("bpe.tgt", BpeModel.load),
    }

    def save(self, out_dir):
        written = []
        for attr, (name, _) in self._FILES.items():
            model = getattr(self, attr)
            if model is None:
                continue
            path = os.path.join(out_dir, name)
            model.save(path)
            written.append(path)
        return written

    @classmethod
    def load(cls, out_dir, config):
        arts = cls()
        for attr, (name, loader) in cls._FILES.items():
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                setattr(arts, attr, loader(path))
        return arts


def _tokenize(config, side, lines):
    """First step: normalize Arabic, tokenize, and lowercase English when
    so configured."""
    arabic = side == config.arabic_side()
    if arabic and config.arabic_norm:
        lines = [normalize_arabic(line) for line in lines]
    on = config.arabic_tok if arabic else config.english_tok
    split = simple_tokenize if on else str.split
    sents = [split(line) for line in lines]
    if config.english_lower and not arabic:
        sents = [[lowercase(t) for t in sent] for sent in sents]
    return sents


def _preprocess(config, src_lines, tgt_lines, arts, learn):
    """Apply the configured steps to both sides; with learn, learn each
    side artifact into arts just before the step that uses it."""
    sides = []
    for side, lines in (("src", src_lines), ("tgt", tgt_lines)):
        sents = _tokenize(config, side, lines)
        # Second step: clitic-segment Arabic, truecase English.
        if side == config.arabic_side():
            if config.arabic_atb:
                sents, table = segment_corpus(sents)
                if learn:
                    arts.detok_table = table
        elif config.english_true:
            if learn:
                arts.truecase = truecase_train(sents)
            if arts.truecase is not None:
                sents = [truecase_apply(sent, arts.truecase) for sent in sents]
        # Last step: BPE.
        if learn and config.bpe_size > 0:
            try:
                model = learn_bpe(Counter(chain.from_iterable(sents)), config.bpe_size)
            except ValueError as exc:  # too small for this side's characters
                raise PipelineError("bpe_size is too small for the %s side: %s"
                                    % ("source" if side == "src" else "target", exc)) from None
            setattr(arts, "bpe_" + side, model)
        model = getattr(arts, "bpe_" + side)
        if model is not None:
            sents = [apply_bpe(sent, model) for sent in sents]
        sides.append(sents)
    return list(zip(*sides))


def run_preprocess(config, src_lines, tgt_lines):
    """Apply the configured steps to a training corpus, learning every
    side artifact (detokenization table, truecase model, BPE models) just
    before the step that uses it.

    Returns (pairs, artifacts) where pairs are token-list tuples.
    """
    arts = PipelineArtifacts()
    return _preprocess(config, src_lines, tgt_lines, arts, learn=True), arts


def apply_preprocess(config, src_lines, tgt_lines, arts):
    """Apply already-learned artifacts to held-out corpora."""
    return _preprocess(config, src_lines, tgt_lines, arts, learn=False)


def run_postprocess(config, decoded, arts):
    """Invert the target-side pipeline on decoded token sequences.

    Steps run in reverse order: undo BPE, detokenize clitics, restore
    casing, join with spaces.  Returns surface strings.
    """
    target_is_arabic = config.arabic_side() == "tgt"
    out = []
    for tokens in decoded:
        tokens = list(tokens)
        if config.bpe_size > 0:
            tokens = undo_bpe(tokens)
        if target_is_arabic and config.arabic_atb:
            if arts.detok_table is None:
                raise PipelineError("artifact missing: detokenization table")
            tokens = detokenize(tokens, arts.detok_table)
        if not target_is_arabic and config.english_true:
            if arts.truecase is None:
                raise PipelineError("artifact missing: truecase model")
            tokens = truecase_apply(tokens, arts.truecase)
        out.append(" ".join(tokens))
    return out


def prepare_references(config, lines):
    """Tokenize reference lines the way the evaluation space requires.

    The lossy target-side steps (normalization, lowercasing) are applied
    so hypotheses and references live in the same space; truecasing is
    not, since postprocessing restores surface casing.
    """
    return _tokenize(config, "tgt", lines)


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def train_model(config, train_pairs, dev_pairs, ckpt_path, src_vocab_path,
                tgt_vocab_path):
    """Build both vocabularies from the training token pairs, train on
    the train and dev pairs whose source is not empty, and save the
    checkpoint, which names the two vocabulary files beside it.

    Returns (model, src_vocab, tgt_vocab, TrainLog).
    """
    src_vocab = build_vocab([s for s, _ in train_pairs], config.src_vocab_max)
    tgt_vocab = build_vocab([t for _, t in train_pairs], config.tgt_vocab_max)
    src_vocab.save(src_vocab_path)
    tgt_vocab.save(tgt_vocab_path)
    ids = {}
    for name, pairs in (("train", train_pairs), ("dev", dev_pairs)):
        ids[name] = [
            (src_vocab.encode(s), tgt_vocab.encode(t)) for s, t in pairs if s
        ]
        if not ids[name]:
            raise corpus_io.CorpusError(
                "%s: every source line is empty" % getattr(config, name + "_src")
            )
    model = init_model(config.nmt_config(len(src_vocab), len(tgt_vocab)))
    model, record = train_nmt(
        model, ids["train"], ids["dev"], epochs=config.epochs,
        batch_size=config.batch_size, patience=config.patience,
    )
    save_model(model, ckpt_path, vocab_files={
        "src": os.path.basename(src_vocab_path),
        "tgt": os.path.basename(tgt_vocab_path),
    })
    return model, src_vocab, tgt_vocab, record


def translate_sentences(model, src_vocab, tgt_vocab, sentences, beam_width,
                        max_len):
    """Beam-decode source token lists into target token lists; an empty
    sentence translates to an empty list."""
    return [
        tgt_vocab.decode(beam_decode(
            model, src_vocab.encode(tokens), beam_width=beam_width,
            max_len=max_len,
        )) if tokens else []
        for tokens in sentences
    ]


def run_experiment(config):
    """Full run: preprocess, train, decode the test set, postprocess,
    score.  Writes artifacts, hypotheses, report, and a manifest with
    checksums into config.out_dir; a rerun with the same config and seed
    reproduces every output byte for byte.
    """
    for name in ("train_src", "train_tgt", "dev_src", "dev_tgt",
                 "test_src", "test_tgt"):
        if not getattr(config, name):
            raise PipelineError("config is missing corpus path %r" % name)
    written = []

    stage = "load"
    try:
        raw = {
            name: read_lines(getattr(config, name))
            for name in ("train_src", "train_tgt", "dev_src", "dev_tgt",
                         "test_src", "test_tgt")
        }
        for split in ("train", "dev", "test"):
            corpus_io.check_aligned(getattr(config, split + "_src"), raw[split + "_src"],
                                    getattr(config, split + "_tgt"), raw[split + "_tgt"])

        stage = "preprocess"
        train_pairs, arts = run_preprocess(
            config, raw["train_src"], raw["train_tgt"]
        )
        train_pairs = [
            (s, t) for s, t in train_pairs
            if 0 < len(s) <= config.max_train_len and len(t) <= config.max_train_len
        ]
        if not train_pairs:
            raise corpus_io.CorpusError("no training pairs left after filtering")
        dev_pairs = apply_preprocess(config, raw["dev_src"], raw["dev_tgt"], arts)
        test_pairs = apply_preprocess(config, raw["test_src"], raw["test_tgt"], arts)
        # Made only now, so that a bpe_size that learn_bpe rejects for this
        # corpus leaves no directory behind.
        os.makedirs(config.out_dir, exist_ok=True)
        written += arts.save(config.out_dir)

        stage = "train"
        paths = [os.path.join(config.out_dir, name)
                 for name in ("model.ckpt", "vocab.src.tsv", "vocab.tgt.tsv")]
        model, src_vocab, tgt_vocab, train_record = train_model(
            config, train_pairs, dev_pairs, *paths
        )
        written += paths

        stage = "decode"
        decoded = translate_sentences(
            model, src_vocab, tgt_vocab, [s for s, _ in test_pairs],
            config.beam_width, config.max_decode_len,
        )

        stage = "postprocess"
        hypotheses = run_postprocess(config, decoded, arts)
        hyp_path = os.path.join(config.out_dir, "hypotheses.txt")
        write_lines(hyp_path, hypotheses)
        written.append(hyp_path)

        stage = "evaluate"
        refs = prepare_references(config, raw["test_tgt"])
        # The target steps of _tokenize leave postprocessed hypotheses, built
        # from target tokens that already went through them, as they are.
        report = bleu(_tokenize(config, "tgt", hypotheses), [[r] for r in refs])
        report_path = os.path.join(config.out_dir, "report.json")
        write_lines(report_path, [report.to_json()])
        written.append(report_path)

        stage = "manifest"
        canonical = json.dumps(config.as_dict(), sort_keys=True)
        manifest = {
            "config": config.as_dict(),
            "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
            "seed": config.seed,
            "best_epoch": train_record.best_epoch,
            "checksums": {
                os.path.basename(p): _sha256(p) for p in sorted(written)
            },
        }
        write_lines(os.path.join(config.out_dir, "manifest.json"),
                    [json.dumps(manifest, sort_keys=True, indent=2)])
    except Exception as exc:
        raise StageError(stage, exc) from exc
    return report
