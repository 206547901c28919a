import io
import json
import os
import re
import struct
import time
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from tarjama import cli
from tarjama.cli import _exit_code, main
from tarjama.corpus import CorpusError, FormatError, Vocab
from tarjama.ngram import ArpaError, lm_read_arpa, lm_score_set, lm_train, lm_write_arpa
from tarjama.nmt import NmtConfig, init_model, load_model, save_model
from tarjama.pipeline import PipelineError


def write(path, lines):
    path.write_text("".join(l + "\n" for l in lines), encoding="utf-8")


def read(path):
    return path.read_text(encoding="utf-8").splitlines()


# ------------------------------------------------------------- exit codes

def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as info:
        main(["normalize", "--no-such-flag"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["bpe-learn"])  # --vocab-size and --output are required
    assert info.value.code == 1


def test_exit_code_mapping():
    assert _exit_code(CorpusError("x")) == 2
    assert _exit_code(ArpaError("x")) == 2
    assert _exit_code(FileNotFoundError("x")) == 2
    assert _exit_code(UnicodeDecodeError("utf-8", b"", 0, 1, "bad")) == 2
    assert _exit_code(RuntimeError("diverged")) == 3
    assert _exit_code(ValueError("x")) == 1
    assert _exit_code(PipelineError("x")) == 1


def test_internal_error_exits_one_in_one_line(tmp_path, monkeypatch, caplog, capsys):
    def broken(args):
        raise KeyError("no such table")

    monkeypatch.setattr(cli, "_cmd_tokenize", broken)
    text = tmp_path / "in.txt"
    write(text, ["a b"])
    assert main(["tokenize", str(text)]) == 1
    assert [r.getMessage() for r in caplog.records] == [
        "internal error: KeyError: 'no such table'"]
    assert "Traceback" not in capsys.readouterr().err
    caplog.clear()
    with caplog.at_level("DEBUG", logger="tarjama.cli"):
        assert main(["tokenize", str(text)]) == 1
    assert "Traceback" in caplog.text

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_tokenize", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["tokenize", str(text)])


def test_missing_input_file_exits_two(tmp_path):
    assert main(["tokenize", str(tmp_path / "absent.txt")]) == 2


def test_invalid_utf8_exits_two(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"fine\n\xff\xfe broken\n")
    assert main(["tokenize", str(bad)]) == 2


def test_undecodable_model_file_exits_two(tmp_path):
    text = tmp_path / "in.txt"
    write(text, ["a b"])
    model = tmp_path / "bpe.model"
    model.write_bytes(b"\xff\xfe\n")
    assert main(["bpe-apply", str(text), "--model", str(model)]) == 2


# Each case: a corrupt model file's lines, the command that reads it, and
# where the error must point ({model} is the file, and the line when one
# line is at fault).
MALFORMED_MODEL_FILES = {
    "rules-overflow": (["0627\tx", "FFFFFFFFFFFFFFFFFFFF\tx"],
                       ["normalize", "{text}", "--rules", "{model}"],
                       "{model}: malformed rule line 2"),
    "truecase-count": (["the\tThe\t3", "a\tA\tz"],
                       ["truecase", "{text}", "--model", "{model}"],
                       "{model}: malformed truecase line 2"),
    "bpe-header": (["#bpe v1 vocab=x", "a b"],
                   ["bpe-apply", "{text}", "--model", "{model}"],
                   "{model}: malformed bpe header line 1"),
    "bpe-merge": (["#bpe v1 vocab=5", "a b", "", "a b c"],
                  ["bpe-apply", "{text}", "--model", "{model}"],
                  "{model}: malformed bpe line 4"),
    "detok-count": (["k\tgood\t2", "k\tbad\tz"],
                    ["detokenize", "{text}", "--table", "{model}"],
                    "{model}: malformed table line 2"),
    "vocab-id": (["<pad>\t0", "<unk>\t1", "<s>\t2", "</s>\t3", "a\tz"],
                 ["translate", "{text}", "--model", "{ckpt}",
                  "--src-vocab", "{model}", "--tgt-vocab", "{model}"],
                 "{model}: malformed vocab line 5"),
    "arpa-section-order": (["\\data\\", "ngram 1=1", "", "\\x-grams:", "-0.5\ta", "",
                            "\\end\\"],
                           ["lm-score", "--model", "{model}", "--set", "{text}"],
                           "{model}:4: expected section header"),
    # Files whose every line parses but which, taken whole, are no model.
    "vocab-bijection": (["<pad>\t0", "<unk>\t1", "<s>\t2", "</s>\t3", "a\t3"],
                        ["translate", "{text}", "--model", "{ckpt}",
                         "--src-vocab", "{model}", "--tgt-vocab", "{model}"],
                        "{model}: token_to_id is not a bijection"),
    "vocab-reserved-id": (["<pad>\t1", "<unk>\t0", "<s>\t2", "</s>\t3", "a\t4"],
                          ["translate", "{text}", "--model", "{ckpt}",
                           "--src-vocab", "{model}", "--tgt-vocab", "{model}"],
                          "{model}: reserved token '<pad>' must have id 0"),
    "vocab-repeated-token": (["<pad>\t0", "<unk>\t1", "<s>\t2", "</s>\t3", "a\t4", "",
                              "a\t5"],
                             ["translate", "{text}", "--model", "{ckpt}",
                              "--src-vocab", "{model}", "--tgt-vocab", "{model}"],
                             "{model}:7: token 'a' is listed twice"),
    # The checkpoint has 5 ids on each side.
    "vocab-size": (["<pad>\t0", "<unk>\t1", "<s>\t2", "</s>\t3", "a\t4", "b\t5"],
                   ["translate", "{text}", "--model", "{ckpt}",
                    "--src-vocab", "{model}", "--tgt-vocab", "{model}"],
                   "{model}: vocabulary has 6 entries with ids up to 5; the checkpoint's "
                   "source vocabulary has ids 0..4"),
    "vocab-id-gap": (["<pad>\t0", "<unk>\t1", "<s>\t2", "</s>\t3", "a\t9"],
                     ["translate", "{text}", "--model", "{ckpt}",
                      "--src-vocab", "{model}", "--tgt-vocab", "{model}"],
                     "{model}: vocabulary has 5 entries with ids up to 9"),
    "arpa-duplicate-ngram": (["\\data\\", "ngram 1=3", "", "\\1-grams:", "-0.5\ta",
                              "-0.4\tb", "-0.3\ta", "", "\\end\\"],
                             ["lm-score", "--model", "{model}", "--set", "{text}"],
                             "{model}:7: ngram 'a' is listed twice"),
    "rules-not-idempotent": (["0627\tأ", "0623\tx"],
                             ["normalize", "{text}", "--rules", "{model}"],
                             "{model}: rule 'ا' -> 'أ' is not idempotent"),
    "bpe-duplicate-merge": (["#bpe v1 vocab=5", "a b", "c d", "a b"],
                            ["bpe-apply", "{text}", "--model", "{model}"],
                            "{model}: merge list contains duplicate pairs"),
    "clitic-line": (["و+", "+ه", "bare"],
                    ["segment", "{text}", "--clitics", "{model}"],
                    "{model}:3: expected X+ or +X"),
    "clitic-inner-marker": (["و+", "a+b+"],
                            ["segment", "{text}", "--clitics", "{model}"],
                            "{model}:2: expected X+ or +X"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MODEL_FILES))
def test_malformed_model_file_exits_two_naming_file_and_line(tmp_path, caplog, capsys,
                                                               case):
    lines, argv, where = MALFORMED_MODEL_FILES[case]
    paths = {"model": str(tmp_path / "model.txt"), "text": str(tmp_path / "in.txt"),
             "ckpt": str(tmp_path / "model.ckpt")}
    write(tmp_path / "model.txt", lines)
    write(tmp_path / "in.txt", ["a"])
    save_model(init_model(NmtConfig(src_vocab_size=5, tgt_vocab_size=5, embed_dim=3,
                                    enc_hidden=3, enc_layers=1, dec_hidden=3,
                                    attn_hidden=2)), paths["ckpt"])
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert where.format(**paths) in caplog.text
    assert "Traceback" not in capsys.readouterr().err + caplog.text


# Each model file a command reads, as the command that reads it ({model}
# is the fuzzed file; the checkpoint and vocabularies are valid otherwise).
MODEL_FILE_COMMANDS = {
    "src-vocab": ["translate", "{text}", "--model", "{ckpt}", "--src-vocab", "{model}",
                  "--tgt-vocab", "{vocab}"],
    "checkpoint": ["translate", "{text}", "--model", "{model}", "--src-vocab", "{vocab}",
                   "--tgt-vocab", "{vocab}"],
    "bpe": ["bpe-apply", "{text}", "--model", "{model}"],
    "detok-table": ["detokenize", "{text}", "--table", "{model}"],
    "rules": ["normalize", "{text}", "--rules", "{model}"],
    "truecase": ["truecase", "{text}", "--model", "{model}"],
    "clitics": ["segment", "{text}", "--clitics", "{model}"],
}
# Arbitrary bytes, and text over the characters these formats give meaning to.
MODEL_BYTES = st.one_of(
    st.binary(max_size=200),
    st.text("\t\n\r 0123456789+#=\\.-اأبتجدلمنهوي", max_size=200).map(str.encode))


@pytest.fixture(scope="module")
def model_file_inputs(tmp_path_factory):
    """A text file, a vocabulary of 5 ids and a checkpoint with 5 ids a side."""
    directory = tmp_path_factory.mktemp("models")
    paths = {"text": str(directory / "in.txt"), "vocab": str(directory / "vocab.tsv"),
             "ckpt": str(directory / "model.ckpt")}
    write(directory / "in.txt", ["a ال+ب", "The +و a"])
    write(directory / "vocab.tsv", ["<pad>\t0", "<unk>\t1", "<s>\t2", "</s>\t3", "a\t4"])
    save_model(init_model(NmtConfig(src_vocab_size=5, tgt_vocab_size=5, embed_dim=3,
                                    enc_hidden=3, enc_layers=1, dec_hidden=3,
                                    attn_hidden=2)), paths["ckpt"])
    return paths


@pytest.mark.parametrize("kind", sorted(MODEL_FILE_COMMANDS))
@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=MODEL_BYTES)
def test_any_model_file_exits_zero_or_two_in_one_line(tmp_path, caplog, capsys,
                                                      model_file_inputs, kind, data):
    model = tmp_path / "model.bin"
    model.write_bytes(data)
    argv = [arg.format(model=str(model), **model_file_inputs)
            for arg in MODEL_FILE_COMMANDS[kind]]
    caplog.clear()
    code = main(argv + ["-o", str(tmp_path / "out.txt")])
    assert code in (0, 2)
    assert "Traceback" not in capsys.readouterr().err + caplog.text
    if code:
        [record] = caplog.records
        message = record.getMessage()
        assert message.startswith(str(model)) and "\n" not in message


def test_validation_problems_exit_one(tmp_path):
    src = tmp_path / "in.txt"
    write(src, ["a b c"])
    out = tmp_path / "v.tsv"
    # Vocabulary ceiling too small to hold the reserved entries.
    assert main(["vocab", str(src), "-o", str(out), "--max-size", "3"]) == 1
    assert main(["experiment"]) == 1


# ----------------------------------------------------------- text stages

def test_normalize_file_round_trip(tmp_path):
    src = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    write(src, ["ذَهَبَ إلى المدرسة", "قال ( نعم )"])
    assert main(["normalize", str(src), "-o", str(out)]) == 0
    assert read(out) == ["ذهب الي المدرسة", "قال -LRB- نعم -RRB-"]


def test_normalize_custom_brackets_and_lower(tmp_path):
    src = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    write(src, ["( نعم )"])
    assert main(["normalize", str(src), "-o", str(out),
                 "--lrb", "<l>", "--rrb", "<r>"]) == 0
    assert read(out) == ["<l> نعم <r>"]
    write(src, ["The BIG House"])
    assert main(["normalize", str(src), "-o", str(out), "--lower"]) == 0
    assert read(out) == ["the big house"]


def test_normalize_reads_stdin_writes_stdout(monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", types.SimpleNamespace(buffer=io.BytesIO("إلى\n".encode()))
    )
    captured = io.BytesIO()
    monkeypatch.setattr("sys.stdout", types.SimpleNamespace(
        buffer=captured, flush=lambda: None
    ))
    assert main(["normalize"]) == 0
    assert captured.getvalue().decode("utf-8") == "الي\n"


def test_tokenize(tmp_path):
    src = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    write(src, ["He said: wait, 3.14 is enough."])
    assert main(["tokenize", str(src), "-o", str(out)]) == 0
    assert read(out) == ["He said : wait , 3.14 is enough ."]


def test_segment_detokenize_round_trip(tmp_path):
    src = tmp_path / "in.txt"
    seg = tmp_path / "seg.txt"
    back = tmp_path / "back.txt"
    table = tmp_path / "table.tsv"
    write(src, ["ولمركبته اتجاه", "الكتاب هنا"])
    assert main(["segment", str(src), "-o", str(seg),
                 "--table-out", str(table)]) == 0
    # The trailing ه of اتجاه looks like a pronoun, so the greedy rules
    # split it; the table still restores the original surface below.
    assert read(seg)[0].split() == ["و+", "ل+", "مركبة", "+ه", "اتجا", "+ه"]
    assert main(["detokenize", str(seg), "-o", str(back),
                 "--table", str(table)]) == 0
    assert read(back) == read(src)


def test_segment_min_stem_option(tmp_path):
    src = tmp_path / "in.txt"
    out = tmp_path / "out.txt"
    write(src, ["وكتب"])
    assert main(["segment", str(src), "-o", str(out)]) == 0
    assert read(out) == ["و+ كتب"]
    assert main(["segment", str(src), "-o", str(out), "--min-stem", "4"]) == 0
    assert read(out) == ["وكتب"]


def test_bpe_learn_apply_undo(tmp_path):
    src = tmp_path / "corpus.txt"
    model = tmp_path / "bpe.model"
    pieces = tmp_path / "pieces.txt"
    restored = tmp_path / "restored.txt"
    write(src, ["low lower lowest", "low low slow"])
    assert main(["bpe-learn", str(src), "-o", str(model),
                 "--vocab-size", "12"]) == 0
    assert main(["bpe-apply", str(src), "-o", str(pieces),
                 "--model", str(model)]) == 0
    for line in read(pieces):
        assert line
    assert main(["bpe-undo", str(pieces), "-o", str(restored)]) == 0
    assert read(restored) == read(src)


def test_truecase_train_and_apply(tmp_path):
    src = tmp_path / "corpus.txt"
    model = tmp_path / "tc.tsv"
    out = tmp_path / "out.txt"
    write(src, ["We saw NASA today", "the NASA launch", "We left"])
    assert main(["truecase-train", str(src), "-o", str(model)]) == 0
    write(src, ["nasa and we"])
    assert main(["truecase", str(src), "-o", str(out),
                 "--model", str(model)]) == 0
    assert read(out) == ["NASA and We"]


# ----------------------------------------------------------- lm and vocab

def test_lm_train_and_score(tmp_path):
    corpus = tmp_path / "train.txt"
    arpa = tmp_path / "model.arpa"
    scores = tmp_path / "scores.txt"
    write(corpus, ["the cat sat", "the cat ran", "a dog sat"])
    assert main(["lm-train", str(corpus), "-o", str(arpa),
                 "--order", "2", "--discount", "0.75"]) == 0
    text = arpa.read_text(encoding="utf-8")
    assert "\\2-grams:" in text

    test_set = tmp_path / "test.txt"
    write(test_set, ["the cat sat", "a dog ran"])
    assert main(["lm-score", "--model", str(arpa), "--set", str(test_set),
                 "-o", str(scores)]) == 0
    model = lm_read_arpa(str(arpa))
    want = lm_score_set(model, [["the", "cat", "sat"], ["a", "dog", "ran"]])
    assert read(scores) == ["%.4f" % want]

    assert main(["lm-score", "--model", str(arpa), "--set", str(test_set),
                 "--per-sentence", "-o", str(scores)]) == 0
    assert len(read(scores)) == 2


def test_lm_score_rejects_malformed_arpa(tmp_path):
    arpa = tmp_path / "broken.arpa"
    arpa.write_text("not an arpa file\n", encoding="utf-8")
    sents = tmp_path / "s.txt"
    write(sents, ["a"])
    assert main(["lm-score", "--model", str(arpa), "--set", str(sents)]) == 2


# Damage done to a valid ARPA file: bytes xor-ed at some positions, a cut
# after some byte, or random bytes in its place.
ARPA_DAMAGE = st.one_of(
    st.tuples(st.just("flip"), st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(1, 255)),
                                        min_size=1, max_size=4)),
    st.tuples(st.just("cut"), st.integers(0, 10 ** 6)),
    st.tuples(st.just("random"), st.binary(max_size=300)))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damage=ARPA_DAMAGE)
def test_lm_score_on_damaged_arpa_exits_zero_or_two_in_one_line(tmp_path, caplog, damage):
    arpa = tmp_path / "fuzz.arpa"
    lm_write_arpa(lm_train([["the", "cat", "sat"], ["a", "dog", "sat"], ["the", "dog"]], 3),
                  arpa)
    data = bytearray(arpa.read_bytes())
    kind, how = damage
    if kind == "flip":
        for at, mask in how:
            data[at % len(data)] ^= mask
    elif kind == "cut":
        del data[how % len(data):]
    else:
        data = how
    arpa.write_bytes(bytes(data))
    sents = tmp_path / "s.txt"
    write(sents, ["the cat", "a dog sat"])
    caplog.clear()
    code = main(["lm-score", "--model", str(arpa), "--set", str(sents),
                 "-o", str(tmp_path / "score.txt")])
    assert code in (0, 2)
    assert "Traceback" not in caplog.text
    if code:
        [record] = caplog.records
        message = record.getMessage()
        assert message.startswith(str(arpa) + ":") and "\n" not in message


def test_vocab_build(tmp_path):
    src = tmp_path / "corpus.txt"
    out = tmp_path / "vocab.tsv"
    write(src, ["b a a", "c b a"])
    assert main(["vocab", str(src), "-o", str(out), "--max-size", "6"]) == 0
    vocab = Vocab.load(str(out))
    assert vocab.id("a") == 4
    assert vocab.id("b") == 5
    assert len(vocab) == 6


def test_dedup_filters_and_lists(tmp_path):
    train = tmp_path / "train.txt"
    eval_set = tmp_path / "eval.txt"
    out = tmp_path / "out.txt"
    write(train, ["a b", "c d"])
    write(eval_set, ["a b", "x y", "c d"])
    assert main(["dedup", str(eval_set), "--train", str(train),
                 "-o", str(out)]) == 0
    assert read(out) == ["x y"]
    assert main(["dedup", str(eval_set), "--train", str(train), "--list",
                 "-o", str(out)]) == 0
    assert read(out) == ["0", "2"]


# ------------------------------------------------------ model subcommands

def tiny_parallel(tmp_path):
    lines = ["aa bb cc", "bb cc", "cc aa", "aa bb", "bb aa cc", "cc bb"]
    src = tmp_path / "train.src"
    tgt = tmp_path / "train.tgt"
    write(src, lines * 3)
    write(tgt, lines * 3)
    dev_src = tmp_path / "dev.src"
    dev_tgt = tmp_path / "dev.tgt"
    write(dev_src, lines[:2])
    write(dev_tgt, lines[:2])
    return src, tgt, dev_src, dev_tgt


TRAIN_DIMS = ["--embed-dim", "8", "--enc-hidden", "6", "--dec-hidden", "8",
              "--attn-hidden", "4", "--epochs", "2", "--batch-size", "4",
              "--l2", "0"]


def test_train_then_translate(tmp_path, capsys):
    src, tgt, dev_src, dev_tgt = tiny_parallel(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    code = main(["train", "--train-src", str(src), "--train-tgt", str(tgt),
                 "--dev-src", str(dev_src), "--dev-tgt", str(dev_tgt),
                 "-o", str(ckpt), "--seed", "4"] + TRAIN_DIMS)
    assert code == 0
    assert "best epoch" in capsys.readouterr().out
    assert ckpt.exists()
    assert (tmp_path / "model.ckpt.src-vocab.tsv").exists()

    test_in = tmp_path / "test.src"
    out = tmp_path / "hyp.txt"
    write(test_in, ["aa bb", "cc", ""])
    code = main(["translate", str(test_in), "-o", str(out),
                 "--model", str(ckpt), "--beam", "2", "--max-len", "6"])
    assert code == 0
    lines = read(out)
    assert len(lines) == 3
    assert lines[2] == ""


def test_train_same_seed_reproduces_checkpoint(tmp_path, capsys):
    src, tgt, dev_src, dev_tgt = tiny_parallel(tmp_path)
    blobs = []
    # Same checkpoint name in two directories: the header records vocab
    # file basenames, so the name must match for bytes to match.
    for sub in ("one", "two"):
        ckpt = tmp_path / sub / "model.ckpt"
        ckpt.parent.mkdir()
        assert main(["train", "--train-src", str(src), "--train-tgt", str(tgt),
                     "--dev-src", str(dev_src), "--dev-tgt", str(dev_tgt),
                     "-o", str(ckpt), "--seed", "7"] + TRAIN_DIMS) == 0
        blobs.append(ckpt.read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]


def test_translate_without_vocab_hints_exits_one(tmp_path):
    src, tgt, dev_src, dev_tgt = tiny_parallel(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--train-src", str(src), "--train-tgt", str(tgt),
                 "--dev-src", str(dev_src), "--dev-tgt", str(dev_tgt),
                 "-o", str(ckpt), "--seed", "4"] + TRAIN_DIMS) == 0
    os.remove(str(tmp_path / "model.ckpt.src-vocab.tsv"))
    test_in = tmp_path / "t.src"
    write(test_in, ["aa"])
    # The named vocabulary file is gone: a data problem.
    assert main(["translate", str(test_in), "--model", str(ckpt)]) == 2


def test_train_zero_epochs_saves_initial_model(tmp_path, capsys):
    src, tgt, dev_src, dev_tgt = tiny_parallel(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    dims = TRAIN_DIMS[:TRAIN_DIMS.index("--epochs")] + ["--epochs", "0"]
    assert main(["train", "--train-src", str(src), "--train-tgt", str(tgt),
                 "--dev-src", str(dev_src), "--dev-tgt", str(dev_tgt),
                 "-o", str(ckpt), "--seed", "4"] + dims) == 0
    assert "no epoch ran" in capsys.readouterr().out
    model = load_model(str(ckpt))
    want = init_model(model.config)
    for name, arr in want.params.items():
        assert np.array_equal(model.params[name], arr)


def test_seed_before_train_matches_seed_after(tmp_path, capsys):
    src, tgt, dev_src, dev_tgt = tiny_parallel(tmp_path)
    train = ["train", "--train-src", str(src), "--train-tgt", str(tgt),
             "--dev-src", str(dev_src), "--dev-tgt", str(dev_tgt)] + TRAIN_DIMS
    blobs = []
    for sub, argv in (("after", train + ["--seed", "4"]),
                      ("before", ["--seed", "4"] + train)):
        ckpt = tmp_path / sub / "model.ckpt"
        ckpt.parent.mkdir()
        assert main(argv + ["-o", str(ckpt)]) == 0
        blobs.append(ckpt.read_bytes())
    capsys.readouterr()
    assert blobs[0] == blobs[1]


HEADER_DEFECTS = {
    "no-config": (lambda h: h.pop("config"), "no config table"),
    "unknown-config-key": (lambda h: h["config"].update(colour=1),
                           "unexpected keyword argument 'colour'"),
    "config-is-list": (lambda h: h.update(config=list(h["config"].values())),
                       "no config table"),
    "string-dimension": (lambda h: h["config"].update(embed_dim="4"),
                         "config embed_dim is '4'"),
    "negative-seed": (lambda h: h["config"].update(seed=-1), "seed must be nonnegative"),
    "no-tensors": (lambda h: h.pop("tensors"), "no tensor list"),
    "nameless-tensor": (lambda h: h["tensors"][0].pop("name"),
                        'tensor entry 0 is {"offset": 0, "shape": [5, 3]}, the config '
                        'requires {"name": "src_emb", "offset": 0, "shape": [5, 3]}'),
    "scalar-shape": (lambda h: h["tensors"][0].update(shape=5),
                     'tensor entry 0 is {"name": "src_emb", "offset": 0, "shape": 5}'),
    "vocab-files-string": (lambda h: h.update(vocab_files="src"),
                           "vocab_files is not a table"),
}


@pytest.mark.parametrize("defect", sorted(HEADER_DEFECTS))
def test_translate_rejects_malformed_checkpoint_header(tmp_path, caplog, defect):
    mutate, message = HEADER_DEFECTS[defect]
    config = NmtConfig(src_vocab_size=5, tgt_vocab_size=5, embed_dim=3,
                       enc_hidden=3, enc_layers=1, dec_hidden=3, attn_hidden=2)
    ckpt = tmp_path / "model.ckpt"
    save_model(init_model(config), str(ckpt))
    blob = ckpt.read_bytes()
    (length,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8:8 + length])
    mutate(header)
    payload = json.dumps(header).encode("utf-8")
    ckpt.write_bytes(struct.pack("<Q", len(payload)) + payload + blob[8 + length:])
    vocab = tmp_path / "vocab.tsv"
    write(vocab, ["<pad>\t0", "<unk>\t1", "<s>\t2", "</s>\t3", "a\t4"])
    text = tmp_path / "in.txt"
    write(text, ["a"])
    assert main(["translate", str(text), "--model", str(ckpt),
                 "--src-vocab", str(vocab), "--tgt-vocab", str(vocab)]) == 2
    assert "%s: " % ckpt in caplog.text
    assert message in caplog.text


def test_translate_rejects_huge_config_before_building_its_table(tmp_path, caplog):
    # The header claims 10^8 encoder layers over 16 bytes of data; building
    # that tensor table first would take minutes and gigabytes.
    config = NmtConfig(src_vocab_size=5, tgt_vocab_size=5, embed_dim=3,
                       enc_hidden=3, enc_layers=1, dec_hidden=3, attn_hidden=2)
    header = {"format": "nmt-checkpoint", "vocab_files": None, "tensors": [],
              "config": dict(vars(config), enc_layers=100000000)}
    payload = json.dumps(header).encode("utf-8")
    ckpt = tmp_path / "model.ckpt"
    ckpt.write_bytes(struct.pack("<Q", len(payload)) + payload + b"\0" * 16)
    vocab = tmp_path / "vocab.tsv"
    write(vocab, ["<pad>\t0", "<unk>\t1", "<s>\t2", "</s>\t3", "a\t4"])
    text = tmp_path / "in.txt"
    write(text, ["a"])
    start = time.perf_counter()
    with pytest.raises(FormatError, match="^%s: tensor data is 16 bytes, the config "
                                          "requires " % re.escape(str(ckpt))):
        load_model(str(ckpt))
    assert main(["translate", str(text), "--model", str(ckpt),
                 "--src-vocab", str(vocab), "--tgt-vocab", str(vocab)]) == 2
    assert time.perf_counter() - start < 0.5
    assert "%s: tensor data is 16 bytes" % ckpt in caplog.text


def test_translate_rejects_target_vocabulary_smaller_than_checkpoint(tmp_path, caplog, capsys):
    # Without the size check, decoding emits id 7, which the vocabulary lacks.
    model = init_model(NmtConfig(src_vocab_size=5, tgt_vocab_size=9, embed_dim=3,
                                 enc_hidden=3, enc_layers=1, dec_hidden=3, attn_hidden=2))
    model.params["out_b"][7] = 50.0
    ckpt = tmp_path / "model.ckpt"
    save_model(model, str(ckpt))
    src_vocab, tgt_vocab = tmp_path / "src.tsv", tmp_path / "tgt.tsv"
    reserved = ["<pad>\t0", "<unk>\t1", "<s>\t2", "</s>\t3"]
    write(src_vocab, reserved + ["a\t4"])
    write(tgt_vocab, reserved + ["x\t4", "y\t5"])
    text = tmp_path / "in.txt"
    write(text, ["a"])
    assert main(["translate", str(text), "--model", str(ckpt),
                 "--src-vocab", str(src_vocab), "--tgt-vocab", str(tgt_vocab)]) == 2
    assert ("%s: vocabulary has 6 entries with ids up to 5; the checkpoint's target "
            "vocabulary has ids 0..8" % tgt_vocab) in caplog.text
    assert "Traceback" not in capsys.readouterr().err + caplog.text


@pytest.mark.parametrize("model_lines", [
    ["plain text, not a checkpoint"],
    ["", "\\data\\", "ngram 1=3", "", "\\1-grams:", "-0.5\t<s>\t-0.3",
     "-0.4\t</s>", "-0.6\ta", "", "\\end\\"],
], ids=["text", "arpa"])
def test_translate_rejects_oversized_checkpoint_header_length(tmp_path, caplog, model_lines):
    # The first 8 bytes of a text file read as a huge header length.
    model = tmp_path / "model.txt"
    write(model, model_lines)
    vocab = tmp_path / "vocab.tsv"
    write(vocab, ["<pad>\t0", "<unk>\t1", "<s>\t2", "</s>\t3", "a\t4"])
    text = tmp_path / "in.txt"
    write(text, ["a"])
    assert main(["translate", str(text), "--model", str(model),
                 "--src-vocab", str(vocab), "--tgt-vocab", str(vocab)]) == 2
    size = model.stat().st_size
    assert "%s: checkpoint header length " % model in caplog.text
    assert "exceeds file size %d" % size in caplog.text


def test_train_with_only_empty_sources_exits_two(tmp_path):
    src, tgt, dev_src, dev_tgt = tiny_parallel(tmp_path)
    write(src, [""] * 18)
    assert main(["train", "--train-src", str(src), "--train-tgt", str(tgt),
                 "--dev-src", str(dev_src), "--dev-tgt", str(dev_tgt),
                 "-o", str(tmp_path / "model.ckpt")] + TRAIN_DIMS) == 2


@pytest.mark.parametrize("command, setting, message", [
    ("train", ["--l2", "nan"], "l2_coeff must be finite and nonnegative"),
    ("train", ["--l2", "inf"], "l2_coeff must be finite and nonnegative"),
    ("train", ["--embed-dim", "0"], "embed_dim must be at least 1"),
    ("train", ["--patience", "0"], "patience must be at least 1"),
    ("train", ["--seed", "-1"], "seed must be nonnegative"),
    ("train", ["--max-vocab", "4"], "src_vocab_max must be at least 5"),
    ("experiment", ["l2_coeff=nan"], "l2_coeff must be finite and nonnegative"),
    ("experiment", ["beam_width=0"], "beam_width must be at least 1"),
    ("experiment", ["max_decode_len=0"], "max_decode_len must be at least 1"),
    ("experiment", ["max_train_len=-1"], "max_train_len must be at least 1"),
    ("experiment", ["seed=-1"], "seed must be nonnegative"),
    # The Arabic steps write detok.tsv into the out-dir before training.
    ("experiment", ["arabic_tok=yes", "arabic_norm=yes", "arabic_atb=yes",
                    "src_vocab_max=3"], "src_vocab_max must be at least 5"),
], ids=["train-l2-nan", "train-l2-inf", "train-embed-dim-0", "train-patience-0",
        "train-seed-minus-1", "train-max-vocab-4",
        "experiment-l2-nan", "experiment-beam-0", "experiment-max-decode-len-0",
        "experiment-max-train-len-minus-1", "experiment-seed-minus-1",
        "experiment-src-vocab-max-3"])
def test_bad_setting_exits_one_before_writing_a_file(tmp_path, caplog, command, setting,
                                                     message):
    if command == "train":
        src, tgt, dev_src, dev_tgt = tiny_parallel(tmp_path)
        out = tmp_path / "model.ckpt"
        # The setting comes last, so it overrides TRAIN_DIMS' own value.
        argv = ["train", "--train-src", str(src), "--train-tgt", str(tgt),
                "--dev-src", str(dev_src), "--dev-tgt", str(dev_tgt),
                "-o", str(out)] + TRAIN_DIMS + setting
        outputs = [out, tmp_path / "model.ckpt.src-vocab.tsv",
                   tmp_path / "model.ckpt.tgt-vocab.tsv"]
    else:
        config, _ = small_experiment(tmp_path, setting)
        out = tmp_path / "run"
        argv = ["experiment", "--config", config, "--out-dir", str(out)]
        outputs = [out]
    assert main(argv) == 1
    assert [path for path in outputs if path.exists()] == []
    assert message in caplog.text


# ------------------------------------------------------------------- bleu

def test_bleu_summary_and_json(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    out = tmp_path / "out.txt"
    write(hyp, ["the cat sat on the mat"])
    write(ref, ["the cat sat on the mat"])
    assert main(["bleu", str(hyp), "--ref", str(ref), "-o", str(out)]) == 0
    assert read(out) == ["BLEU = 100.00, P = 100.0/100.0/100.0/100.0, BP = 1.000"]
    assert main(["bleu", str(hyp), "--ref", str(ref), "--json",
                 "-o", str(out)]) == 0
    report = json.loads(read(out)[0])
    assert report["bleu"] == 1.0
    assert report["brevity_penalty"] == 1.0


def test_bleu_multiple_references_and_case(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref1 = tmp_path / "ref1.txt"
    ref2 = tmp_path / "ref2.txt"
    out = tmp_path / "out.txt"
    write(hyp, ["The Cat Sat On The Mat"])
    write(ref1, ["a dog ran far away yes"])
    write(ref2, ["the cat sat on the mat"])
    assert main(["bleu", str(hyp), "--ref", str(ref1), "--ref", str(ref2),
                 "--lowercase", "-o", str(out)]) == 0
    assert read(out)[0].startswith("BLEU = 100.00")


def test_bleu_length_mismatch_exits_two(tmp_path):
    hyp = tmp_path / "hyp.txt"
    ref = tmp_path / "ref.txt"
    write(hyp, ["a b", "c d"])
    write(ref, ["a b"])
    assert main(["bleu", str(hyp), "--ref", str(ref)]) == 2


# ------------------------------------------------------------- experiment

AR_LINES = [
    "والكتاب على الطاولة .",
    "كتب الولد درسه .",
    "ذهب الى البيت .",
    "وقال نعم .",
]
EN_LINES = [
    "and the book is on the table .",
    "the boy wrote his lesson .",
    "he went to the house .",
    "and he said yes .",
]


def experiment_files(tmp_path):
    paths = {}
    for name, (ar, en) in {
        "train": (AR_LINES * 4, EN_LINES * 4),
        "dev": (AR_LINES[:2], EN_LINES[:2]),
        "test": (AR_LINES[:2], EN_LINES[:2]),
    }.items():
        ar_path = tmp_path / ("%s.ar" % name)
        en_path = tmp_path / ("%s.en" % name)
        write(ar_path, ar)
        write(en_path, en)
        paths["%s_src" % name] = str(ar_path)
        paths["%s_tgt" % name] = str(en_path)
    return paths


def test_experiment_runs_from_config_file(tmp_path, capsys):
    paths = experiment_files(tmp_path)
    config = tmp_path / "exp.cfg"
    lines = ["%s=%s" % (k, v) for k, v in paths.items()]
    lines += [
        "direction=ar2en", "arabic_tok=yes", "arabic_norm=yes",
        "arabic_atb=yes", "english_tok=yes", "english_lower=yes",
        "embed_dim=10", "enc_hidden=8", "dec_hidden=10", "attn_hidden=6",
        "l2_coeff=0", "epochs=1", "batch_size=4", "beam_width=2",
        "max_decode_len=10",
    ]
    write(config, lines)
    out_dir = tmp_path / "run"
    code = main(["experiment", "--config", str(config),
                 "--out-dir", str(out_dir), "--seed", "3"])
    assert code == 0
    assert "BLEU =" in capsys.readouterr().out
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["seed"] == 3
    assert (out_dir / "hypotheses.txt").exists()


def small_experiment(tmp_path, extra=()):
    """A small experiment config over experiment_files(); returns the
    config path and the corpus paths."""
    paths = experiment_files(tmp_path)
    config = tmp_path / "exp.cfg"
    write(config, ["%s=%s" % kv for kv in paths.items()] + [
        "embed_dim=8", "enc_hidden=6", "dec_hidden=8", "attn_hidden=4",
        "l2_coeff=0", "epochs=1", "batch_size=4", "beam_width=1",
        "max_decode_len=8",
    ] + list(extra))
    return str(config), paths


def test_seed_before_experiment_reaches_manifest(tmp_path, capsys):
    config, _ = small_experiment(tmp_path)
    out_dir = tmp_path / "run"
    assert main(["--seed", "3", "experiment", "--config", config,
                 "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    with open(out_dir / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh)["seed"] == 3


def test_train_matches_experiment_with_every_step_off(tmp_path, capsys):
    # Same corpus, vocabulary cap, dimensions and seed: `train` and the
    # experiment's train stage must give the same model and vocabularies.
    config, paths = small_experiment(tmp_path, [
        "src_vocab_max=12", "tgt_vocab_max=12", "epochs=2", "seed=5",
    ])
    out_dir = tmp_path / "run"
    assert main(["experiment", "--config", config, "--out-dir", str(out_dir)]) == 0
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--train-src", paths["train_src"],
                 "--train-tgt", paths["train_tgt"],
                 "--dev-src", paths["dev_src"], "--dev-tgt", paths["dev_tgt"],
                 "-o", str(ckpt), "--max-vocab", "12", "--seed", "5"]
                + TRAIN_DIMS) == 0
    capsys.readouterr()
    for side in ("src", "tgt"):
        assert ((tmp_path / ("model.ckpt.%s-vocab.tsv" % side)).read_bytes()
                == (out_dir / ("vocab.%s.tsv" % side)).read_bytes())
    mine, theirs = load_model(str(ckpt)), load_model(str(out_dir / "model.ckpt"))
    assert mine.config == theirs.config
    for name, arr in theirs.params.items():
        assert np.array_equal(mine.params[name], arr), name


def test_experiment_with_empty_dev_sources_exits_two(tmp_path, caplog):
    config, paths = small_experiment(tmp_path)
    write(tmp_path / "dev.ar", ["", ""])
    assert main(["experiment", "--config", config,
                 "--out-dir", str(tmp_path / "run")]) == 2
    assert "%s: every source line is empty" % paths["dev_src"] in caplog.text


def test_experiment_accepts_config_before_subcommand(tmp_path, capsys):
    paths = experiment_files(tmp_path)
    config = tmp_path / "exp.cfg"
    lines = ["%s=%s" % (k, v) for k, v in paths.items()]
    lines += ["embed_dim=8", "enc_hidden=6", "dec_hidden=8", "attn_hidden=4",
              "l2_coeff=0", "epochs=1", "batch_size=4", "beam_width=1",
              "max_decode_len=8"]
    write(config, lines)
    out_dir = tmp_path / "run2"
    assert main(["--config", str(config), "experiment",
                 "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert (out_dir / "manifest.json").exists()


def test_verbose_experiment_logs_each_epoch_and_writes_the_same_files(tmp_path, caplog, capsys):
    config, _ = small_experiment(tmp_path, ["epochs=3", "patience=3"])
    out_dir = tmp_path / "run"
    assert main(["experiment", "--config", config, "--out-dir", str(out_dir)]) == 0
    assert not [r for r in caplog.records if r.getMessage().startswith("epoch ")]
    snapshot = {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)}
    caplog.clear()
    assert main(["-v", "experiment", "--config", config, "--out-dir", str(out_dir)]) == 0
    epochs = [r.getMessage() for r in caplog.records if r.getMessage().startswith("epoch ")]
    assert [line.split(":")[0] for line in epochs] == ["epoch 1", "epoch 2", "epoch 3"]
    assert all(re.fullmatch(r"epoch \d: train nll \d+\.\d{4}, dev nll \d+\.\d{4}", line)
               for line in epochs)
    capsys.readouterr()
    assert {name: (out_dir / name).read_bytes() for name in os.listdir(out_dir)} == snapshot


def test_verbose_and_quiet_together_are_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["-v", "--quiet", "tokenize"])
    assert info.value.code == 1
    assert "not allowed with" in capsys.readouterr().err


def test_experiment_missing_data_exits_two(tmp_path):
    config = tmp_path / "exp.cfg"
    write(config, [
        "train_src=%s" % (tmp_path / "nope.ar"),
        "train_tgt=%s" % (tmp_path / "nope.en"),
        "dev_src=%s" % (tmp_path / "nope.ar"),
        "dev_tgt=%s" % (tmp_path / "nope.en"),
        "test_src=%s" % (tmp_path / "nope.ar"),
        "test_tgt=%s" % (tmp_path / "nope.en"),
    ])
    assert main(["experiment", "--config", str(config)]) == 2


def test_config_with_other_subcommand_is_usage_error(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    write(corpus, ["the cat sat", "a dog ran"])
    config = tmp_path / "defaults.cfg"
    write(config, ["order=3"])
    with pytest.raises(SystemExit) as info:
        main(["--config", str(config), "lm-train", str(corpus),
              "-o", str(tmp_path / "m.arpa")])
    assert info.value.code == 1
    assert "--config" in capsys.readouterr().err
    assert not (tmp_path / "m.arpa").exists()


def test_config_file_missing_exits_two(tmp_path):
    assert main(["--config", str(tmp_path / "nope.cfg"), "experiment"]) == 2
