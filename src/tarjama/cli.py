"""Command-line interface to the translation pipeline.

Every subcommand reads UTF-8 text from a file argument or stdin and
writes to --output or stdout.  Exit codes: 0 success, 1 validation
problem (or an internal error, logged in one line), 2 data problem,
3 training divergence.
"""

import argparse
import dataclasses
import functools
import logging
import os
import sys
from collections import Counter
from itertools import chain

from .bleu import bleu
from .bpe import BpeModel, apply_bpe, learn_bpe, undo_bpe_lines
from .corpus import (
    CorpusError,
    FormatError,
    Vocab,
    build_vocab,
    check_aligned,
    find_duplicates,
    load_parallel,
    read_lines,
    write_lines,
)
from .ngram import (
    lm_read_arpa,
    lm_score_sentence,
    lm_score_set,
    lm_train,
    lm_write_arpa,
)
from .nmt import load_model
from .nmt.model import read_header
from .normalize import (
    NormRules,
    TruecaseModel,
    default_arabic_rules,
    lowercase,
    normalize_arabic,
    truecase_apply,
    truecase_train,
)
from .pipeline import (
    ConfigFileError,
    PipelineConfig,
    PipelineError,
    StageError,
    run_experiment,
    train_model,
    translate_sentences,
)
from .segment import (
    CliticInventory,
    DEFAULT_INVENTORY,
    DetokTable,
    detokenize,
    segment_corpus,
    simple_tokenize,
)

log = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; 2 is reserved for data errors
    # here, so usage problems are remapped to the validation code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _inventory(args):
    # --min-stem is checked before either file is read, as every command
    # checks its settings before it reads data.
    inv = DEFAULT_INVENTORY
    if args.min_stem is not None:
        inv = dataclasses.replace(inv, min_stem_len=args.min_stem)
    lexicon = {line for line in read_lines(args.lexicon) if line} if args.lexicon else None
    if args.clitics:
        return CliticInventory.from_file(args.clitics, min_stem_len=inv.min_stem_len,
                                         stem_lexicon=lexicon)
    return dataclasses.replace(inv, stem_lexicon=lexicon)


def _map_lines(args, convert):
    """Write convert(line) for every input line."""
    write_lines(args.output, [convert(line) for line in read_lines(args.input)])
    return 0


def _cmd_normalize(args):
    if args.lower:
        return _map_lines(args, lowercase)
    if args.rules:
        rules = NormRules.load(args.rules)
    else:
        rules = default_arabic_rules(args.lrb, args.rrb)
    return _map_lines(args, lambda line: normalize_arabic(line, rules))


def _cmd_tokenize(args):
    return _map_lines(args, lambda line: " ".join(simple_tokenize(line)))


def _cmd_segment(args):
    inv = _inventory(args)
    segmented, table = segment_corpus(map(str.split, read_lines(args.input)), inv)
    if args.table_out:
        table.save(args.table_out)
    write_lines(args.output, map(" ".join, segmented))
    return 0


def _cmd_detokenize(args):
    # The inventory is checked with or without a table, as segment checks it.
    inv = _inventory(args)
    table = DetokTable.load(args.table, inv) if args.table else None
    return _map_lines(args, lambda line: " ".join(detokenize(line.split(), table)))


def _cmd_bpe_learn(args):
    freqs = Counter(chain.from_iterable(map(str.split, read_lines(args.input))))
    if not freqs:
        raise CorpusError("no tokens in input")
    learn_bpe(freqs, args.vocab_size).save(args.output)
    return 0


def _cmd_bpe_apply(args):
    model = BpeModel.load(args.model)
    return _map_lines(args, lambda line: " ".join(apply_bpe(line.split(), model)))


def _cmd_bpe_undo(args):
    write_lines(args.output, undo_bpe_lines(map(str.split, read_lines(args.input))))
    return 0


def _cmd_truecase_train(args):
    corpus = [line.split() for line in read_lines(args.input)]
    truecase_train(corpus).save(args.output)
    return 0


def _cmd_truecase(args):
    model = TruecaseModel.load(args.model)
    return _map_lines(
        args, lambda line: " ".join(truecase_apply(line.split(), model))
    )


def _cmd_lm_train(args):
    # lm_train reads the sentences once: none is split before it is needed.
    model = lm_train((line.split() for line in read_lines(args.input)), args.order,
                     args.discount)
    lm_write_arpa(model, args.output)
    return 0


def _cmd_lm_score(args):
    model = lm_read_arpa(args.model)
    sentences = [line.split() for line in read_lines(args.set)]
    if args.per_sentence:
        out = ["%.4f" % lm_score_sentence(model, s) for s in sentences]
        write_lines(args.output, out)
    else:
        if not sentences:
            raise CorpusError("no sentences to score")
        write_lines(args.output, ["%.4f" % lm_score_set(model, sentences)])
    return 0


def _cmd_vocab(args):
    corpus = [line.split() for line in read_lines(args.input)]
    build_vocab(corpus, args.max_size).save(args.output)
    return 0


def _cmd_dedup(args):
    train = [line.split() for line in read_lines(args.train)]
    eval_lines = read_lines(args.input)
    dup = set(find_duplicates(train, [line.split() for line in eval_lines]))
    if args.list:
        write_lines(args.output, [str(i) for i in sorted(dup)])
    else:
        write_lines(
            args.output,
            [line for i, line in enumerate(eval_lines) if i not in dup],
        )
    return 0


# `train` and `translate` options and the PipelineConfig fields they set;
# each default is the field's default.  --max-vocab caps both vocabularies.
_TRAIN_OPTIONS = (
    ("--max-vocab", "src_vocab_max"),
    ("--embed-dim", "embed_dim"),
    ("--enc-hidden", "enc_hidden"),
    ("--enc-layers", "enc_layers"),
    ("--dec-hidden", "dec_hidden"),
    ("--attn-hidden", "attn_hidden"),
    ("--dropout", "dropout_rate"),
    ("--l2", "l2_coeff"),
    ("--epochs", "epochs"),
    ("--batch-size", "batch_size"),
    ("--patience", "patience"),
)
_TRANSLATE_OPTIONS = (("--beam", "beam_width"), ("--max-len", "max_decode_len"))


def _config(args, options, build=PipelineConfig, **values):
    """build(**values) plus the fields of the flags in options (flag, field
    pairs) that are set.  A config error begins with the name of its field;
    for a field a flag set, it names the flag instead.  An error in a config
    file begins with the file's name and keeps it."""
    flags = {name: flag for flag, name in options if getattr(args, name) is not None}
    try:
        return build(**values, **{name: getattr(args, name) for name in flags})
    except ConfigFileError:
        raise
    except (PipelineError, ValueError) as exc:
        name, _, rest = str(exc).partition(" ")
        if name not in flags:
            raise
        raise type(exc)("%s %s" % (flags[name], rest)) from None


def _cmd_train(args):
    config = _config(
        args, _TRAIN_OPTIONS + (("--seed", "seed"),),
        train_src=args.train_src, train_tgt=args.train_tgt,
        dev_src=args.dev_src, dev_tgt=args.dev_tgt,
        tgt_vocab_max=args.src_vocab_max,
    )
    _, _, _, record = train_model(
        config,
        load_parallel(args.train_src, args.train_tgt),
        load_parallel(args.dev_src, args.dev_tgt),
        args.output,
        args.output + ".src-vocab.tsv",
        args.output + ".tgt-vocab.tsv",
    )
    if record.best_epoch:
        print(
            "best epoch %d, dev nll %.4f"
            % (record.best_epoch, record.dev_nll[record.best_epoch - 1])
        )
    else:
        print("no epoch ran; saved the initial model")
    return 0


def _load_translate_vocabs(args, config):
    """The source and target vocabularies of a translate run: those given,
    else the files the checkpoint names.  Each must hold ids 0..n-1 for the
    checkpoint's vocabulary size n on its side."""
    names = read_header(args.model).get("vocab_files") or {}
    if not isinstance(names, dict):
        raise FormatError("%s: vocab_files is not a table" % args.model)
    base = os.path.dirname(os.path.abspath(args.model))
    paths = [
        given or (os.path.join(base, names[side])
                  if isinstance(names.get(side), str) else None)
        for side, given in (("src", args.src_vocab), ("tgt", args.tgt_vocab))
    ]
    if None in paths:
        raise PipelineError(
            "checkpoint names no vocabulary files; pass --src-vocab/--tgt-vocab"
        )
    vocabs = [Vocab.load(path) for path in paths]
    for path, vocab, side, size in zip(paths, vocabs, ("source", "target"),
                                       (config.src_vocab_size, config.tgt_vocab_size)):
        if set(vocab.id_to_token) != set(range(size)):
            raise FormatError("%s: vocabulary has %d entries with ids up to %d; the "
                              "checkpoint's %s vocabulary has ids 0..%d"
                              % (path, len(vocab), max(vocab.id_to_token), side, size - 1))
    return vocabs


def _cmd_translate(args):
    config = _config(args, _TRANSLATE_OPTIONS)
    model = load_model(args.model)
    src_vocab, tgt_vocab = _load_translate_vocabs(args, model.config)
    sentences = [line.split() for line in read_lines(args.input)]
    decoded = translate_sentences(model, src_vocab, tgt_vocab, sentences,
                                  config.beam_width, config.max_decode_len)
    write_lines(args.output, [" ".join(tokens) for tokens in decoded])
    return 0


def _cmd_bleu(args):
    hyp_lines = read_lines(args.input)
    if not hyp_lines:
        raise CorpusError("hypothesis corpus is empty")
    hyp_path = "stdin" if args.input in (None, "-") else args.input
    ref_sets = []
    for path in args.ref:
        ref_sets.append(read_lines(path))
        check_aligned(hyp_path, hyp_lines, path, ref_sets[-1])
    # bleu() counts in blocks of sentences, so only a block is split at once.
    report = bleu((line.split() for line in hyp_lines),
                  ([line.split() for line in lines] for lines in zip(*ref_sets)),
                  fold_case=args.lowercase)
    if args.json:
        write_lines(args.output, [report.to_json()])
    else:
        write_lines(args.output, [report.summary()])
    return 0


def _cmd_experiment(args):
    if not args.config:
        raise PipelineError("experiment needs --config with a pipeline config file")
    config = _config(args, (("--seed", "seed"),),
                     functools.partial(PipelineConfig.from_file, args.config),
                     **({"out_dir": args.out_dir} if args.out_dir else {}))
    report = run_experiment(config)
    print(report.summary())
    return 0


def _add_io(sub, input_help="input file (default stdin)", output_required=False):
    sub.add_argument("input", nargs="?", default=None, help=input_help)
    if output_required:
        sub.add_argument("--output", "-o", required=True, help="output file")
    else:
        sub.add_argument("--output", "-o", default=None,
                         help="output file (default stdout)")


def build_parser():
    parser = _Parser(prog="tarjama", description=__doc__)
    parser.add_argument("--seed", type=int, default=None,
                        help="override random seed, read only by `train` and `experiment`")
    parser.add_argument("--config", default=None,
                        help="pipeline config file, read only by `experiment`")
    loudness = parser.add_mutually_exclusive_group()
    loudness.add_argument("-v", "--verbose", action="store_true",
                          help="also report progress, such as each epoch's losses")
    loudness.add_argument("--quiet", action="store_true", help="only report errors")
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")
    inventory = argparse.ArgumentParser(add_help=False)  # segment's and detokenize's
    inventory.add_argument("--clitics", default=None, help="clitic inventory file")
    inventory.add_argument("--min-stem", type=int, default=None, help="minimum stem length")
    inventory.add_argument("--lexicon", default=None, help="stem lexicon, one stem per line")

    sub = commands.add_parser("normalize", help="Arabic orthographic normalization")
    _add_io(sub)
    sub.add_argument("--rules", default=None, help="normalization rules TSV")
    sub.add_argument("--lower", action="store_true", help="lowercase instead")
    sub.add_argument("--lrb", default="-LRB-", help="left parenthesis spelling")
    sub.add_argument("--rrb", default="-RRB-", help="right parenthesis spelling")
    sub.set_defaults(func=_cmd_normalize)

    sub = commands.add_parser("tokenize", help="simple punctuation tokenization")
    _add_io(sub)
    sub.set_defaults(func=_cmd_tokenize)

    sub = commands.add_parser("segment", help="clitic segmentation of tokenized Arabic",
                              parents=[inventory])
    _add_io(sub)
    sub.add_argument("--table-out", default=None, help="write detokenization table here")
    sub.set_defaults(func=_cmd_segment)

    sub = commands.add_parser("detokenize", help="invert clitic segmentation",
                              parents=[inventory])
    _add_io(sub)
    sub.add_argument("--table", default=None, help="detokenization table TSV")
    sub.set_defaults(func=_cmd_detokenize)

    sub = commands.add_parser("bpe-learn", help="learn byte-pair merges")
    _add_io(sub, "tokenized training text (default stdin)", output_required=True)
    sub.add_argument("--vocab-size", type=int, required=True)
    sub.set_defaults(func=_cmd_bpe_learn)

    sub = commands.add_parser("bpe-apply", help="apply learned merges")
    _add_io(sub)
    sub.add_argument("--model", required=True, help="BPE model file")
    sub.set_defaults(func=_cmd_bpe_apply)

    sub = commands.add_parser("bpe-undo", help="join subword pieces")
    _add_io(sub)
    sub.set_defaults(func=_cmd_bpe_undo)

    sub = commands.add_parser("truecase-train", help="learn per-word casing")
    _add_io(sub, "tokenized training text (default stdin)", output_required=True)
    sub.set_defaults(func=_cmd_truecase_train)

    sub = commands.add_parser("truecase", help="apply a truecase model")
    _add_io(sub)
    sub.add_argument("--model", required=True)
    sub.set_defaults(func=_cmd_truecase)

    sub = commands.add_parser("lm-train", help="train a Kneser-Ney n-gram model")
    _add_io(sub, "tokenized training text (default stdin)", output_required=True)
    sub.add_argument("--order", type=int, default=5)
    sub.add_argument("--discount", type=float, default=0.75)
    sub.set_defaults(func=_cmd_lm_train)

    sub = commands.add_parser("lm-score", help="average log10 probability of a set")
    sub.add_argument("--model", required=True, help="ARPA model file")
    sub.add_argument("--set", dest="set", default=None,
                     help="sentences to score (default stdin)")
    sub.add_argument("--per-sentence", action="store_true")
    sub.add_argument("--output", "-o", default=None)
    sub.set_defaults(func=_cmd_lm_score)

    sub = commands.add_parser("vocab", help="build a frequency vocabulary")
    _add_io(sub, "tokenized text (default stdin)", output_required=True)
    sub.add_argument("--max-size", type=int, default=20000)
    sub.set_defaults(func=_cmd_vocab)

    sub = commands.add_parser("dedup", help="drop eval sentences found in training")
    _add_io(sub, "evaluation sentences (default stdin)")
    sub.add_argument("--train", required=True, help="training sentences")
    sub.add_argument("--list", action="store_true",
                     help="print duplicate indices instead of filtering")
    sub.set_defaults(func=_cmd_dedup)

    # A subcommand's --seed or --config must not overwrite one given
    # before the subcommand, so these copies have no default.
    sub = commands.add_parser("train", help="train the translation model")
    sub.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                     help="override random seed")
    sub.add_argument("--train-src", required=True)
    sub.add_argument("--train-tgt", required=True)
    sub.add_argument("--dev-src", required=True)
    sub.add_argument("--dev-tgt", required=True)
    sub.add_argument("--output", "-o", required=True, help="checkpoint file")
    sub.set_defaults(func=_cmd_train)

    sub = commands.add_parser("translate", help="decode with a trained model")
    _add_io(sub, "preprocessed source text (default stdin)")
    sub.add_argument("--model", required=True, help="checkpoint file")
    sub.add_argument("--src-vocab", default=None)
    sub.add_argument("--tgt-vocab", default=None)
    sub.set_defaults(func=_cmd_translate)

    sub = commands.add_parser("bleu", help="corpus BLEU against references")
    _add_io(sub, "tokenized hypotheses (default stdin)")
    sub.add_argument("--ref", action="append", required=True,
                     help="reference file; repeat for multiple references")
    sub.add_argument("--lowercase", action="store_true", help="fold case")
    sub.add_argument("--json", action="store_true", help="print the full report")
    sub.set_defaults(func=_cmd_bleu)

    sub = commands.add_parser("experiment", help="run one pipeline configuration")
    sub.add_argument("--config", default=argparse.SUPPRESS,
                     help="pipeline config file")
    sub.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                     help="override random seed")
    sub.add_argument("--out-dir", default=None, help="override config out_dir")
    sub.set_defaults(func=_cmd_experiment)

    # Last, so that each command's help lists these after its other options.
    defaults = PipelineConfig()
    for command, options in (("train", _TRAIN_OPTIONS), ("translate", _TRANSLATE_OPTIONS)):
        for flag, name in options:
            default = getattr(defaults, name)
            commands.choices[command].add_argument(
                flag, dest=name, type=type(default), default=default,
                metavar=flag[2:].upper().replace("-", "_"))
    return parser


def _exit_code(exc):
    if isinstance(exc, (CorpusError, OSError, UnicodeDecodeError)):
        return 2
    if isinstance(exc, RuntimeError):
        return 3
    return 1


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None and args.command != "experiment":
        parser.error("--config is read only by `experiment`")
    if args.seed is not None and args.command not in ("train", "experiment"):
        parser.error("--seed is read only by `train` and `experiment`")
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("tarjama").setLevel(
        logging.ERROR if args.quiet else logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except (StageError, PipelineError, CorpusError, OSError, ValueError,
            RuntimeError) as exc:
        log.error("%s", exc)
        return _exit_code(exc.cause if isinstance(exc, StageError) else exc)
    except Exception as exc:
        # A defect in tarjama itself: one line for the user, the traceback
        # for whoever runs with DEBUG logging.
        log.error("internal error: %s: %s", type(exc).__name__, exc)
        log.debug("traceback of the internal error", exc_info=True)
        return 1


if __name__ == "__main__":
    sys.exit(main())
