import io
import types
from collections import Counter

import pytest

from tarjama.bpe import BpeModel, learn_bpe
from tarjama.corpus import (
    BOS_ID,
    CorpusError,
    EOS_ID,
    FormatError,
    PAD_ID,
    RESERVED,
    UNK_ID,
    Vocab,
    build_vocab,
    find_duplicates,
    load_parallel,
    read_lines,
    read_table,
    write_lines,
)
from tarjama.normalize import NormRules, TruecaseModel, default_arabic_rules, truecase_train
from tarjama.segment import DetokTable, segment_corpus


def write(path, data):
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    return str(path)


def test_reserved_ids_are_fixed():
    assert (PAD_ID, UNK_ID, BOS_ID, EOS_ID) == (0, 1, 2, 3)
    assert RESERVED == ("<pad>", "<unk>", "<s>", "</s>")


def test_read_lines_trailing_newline(tmp_path):
    assert read_lines(write(tmp_path / "a", "x\ny\n")) == ["x", "y"]
    assert read_lines(write(tmp_path / "b", "x\ny")) == ["x", "y"]
    assert read_lines(write(tmp_path / "c", "")) == []


def test_read_lines_keeps_interior_empties_and_strips_cr(tmp_path):
    assert read_lines(write(tmp_path / "a", "x\n\ny\r\n")) == ["x", "", "y"]


def test_read_lines_reports_bad_utf8_line(tmp_path):
    path = write(tmp_path / "bad", b"ok\n\xff\xfe\n")
    with pytest.raises(CorpusError, match="line 2"):
        read_lines(path)


def test_read_lines_from_stdin(monkeypatch):
    def stdin(data):
        monkeypatch.setattr("sys.stdin", types.SimpleNamespace(buffer=io.BytesIO(data)))

    stdin(b"x\r\n\ny\n")
    assert read_lines("-") == ["x", "", "y"]
    stdin(b"ok\n\xff\xfe\n")
    with pytest.raises(CorpusError, match="^stdin: invalid UTF-8 on line 2"):
        read_lines(None)


def test_write_lines_writes_a_generator_of_many_blocks(tmp_path, monkeypatch):
    lines = ["%d ي" % i for i in range(2500)] + [""]
    want = "".join(line + "\n" for line in lines).encode("utf-8")
    path = tmp_path / "out.txt"
    write_lines(str(path), iter(lines))
    assert path.read_bytes() == want
    stdout = io.BytesIO()
    monkeypatch.setattr("sys.stdout", types.SimpleNamespace(buffer=stdout))
    write_lines("-", iter(lines))
    assert stdout.getvalue() == want


def test_load_parallel_splits_and_aligns(tmp_path):
    src = write(tmp_path / "s", "a b\n\nc\n")
    tgt = write(tmp_path / "t", "x\ny z\nw\n")
    assert load_parallel(src, tgt) == [(["a", "b"], ["x"]), ([], ["y", "z"]), (["c"], ["w"])]


def test_load_parallel_mismatch_names_both_counts(tmp_path):
    src = write(tmp_path / "s", "a\nb\n")
    tgt = write(tmp_path / "t", "x\n")
    with pytest.raises(CorpusError, match="2.*1"):
        load_parallel(src, tgt)


def test_find_duplicates_is_exact_and_ascending():
    train = [["a", "b"], ["c"]]
    evals = [["c"], ["a"], ["a", "b"], ["c"]]
    assert find_duplicates(train, evals) == [0, 2, 3]


def test_build_vocab_ranks_by_count_then_token():
    sents = [["b", "a", "b"], ["a", "c", "b"]]
    vocab = build_vocab(sents, max_size=7)
    # b:3 a:2 c:1 -> ids 4, 5, 6
    assert vocab.id("b") == 4
    assert vocab.id("a") == 5
    assert vocab.id("c") == 6


def test_build_vocab_truncates_and_ties_lexicographic():
    sents = [["z", "a"]]
    vocab = build_vocab(sents, max_size=5)
    assert vocab.id("a") == 4
    assert vocab.id("z") == UNK_ID
    with pytest.raises(ValueError):
        build_vocab(sents, max_size=4)


def test_build_vocab_skips_reserved_spellings():
    vocab = build_vocab([["<unk>", "w"]], max_size=8)
    assert vocab.id("<unk>") == UNK_ID
    assert vocab.id("w") == 4


def test_vocab_encode_decode():
    vocab = build_vocab([["a", "b"]], max_size=8)
    ids = vocab.encode(["a", "zzz", "b"])
    assert ids == [4, UNK_ID, 5]
    # Reserved tokens, the unknown one included, are left out.
    assert vocab.decode([BOS_ID] + ids + [EOS_ID, PAD_ID]) == ["a", "b"]


def test_vocab_rejects_broken_tables():
    with pytest.raises(ValueError, match="bijection"):
        Vocab({"<pad>": 0, "<unk>": 1, "<s>": 2, "</s>": 3, "a": 3})
    with pytest.raises(ValueError, match="reserved"):
        Vocab({"<pad>": 1, "<unk>": 0, "<s>": 2, "</s>": 3})


def test_vocab_save_load_round_trip(tmp_path):
    vocab = build_vocab([["a", "b", "a"]], max_size=8)
    path = tmp_path / "vocab.tsv"
    vocab.save(path)
    again = Vocab.load(str(path))
    assert again.token_to_id == vocab.token_to_id


_ARABIC = [line.split() for line in ("وكتابه على الطاولة", "فقالها لهم وكتابه", "كتب")]
_ENGLISH = [line.split() for line in ("The cat saw the Cat", "a cat and The dog")]
# Each line-table kind: a model learned from text, and its loader.
LINE_TABLES = {
    "vocab": (lambda: build_vocab(_ENGLISH, 8), Vocab.load),
    "truecase": (lambda: truecase_train(_ENGLISH), TruecaseModel.load),
    "rules": (default_arabic_rules, NormRules.load),
    "detok": (lambda: segment_corpus(_ARABIC)[1], DetokTable.load),
    "bpe": (lambda: learn_bpe(Counter(tok for sent in _ARABIC for tok in sent), 30),
            BpeModel.load),
}


@pytest.mark.parametrize("kind", sorted(LINE_TABLES))
def test_line_table_rewritten_from_its_load_is_byte_identical(tmp_path, kind):
    learn, load = LINE_TABLES[kind]
    first, second = tmp_path / "first", tmp_path / "second"
    learn().save(str(first))
    load(str(first)).save(str(second))
    assert len(first.read_bytes().splitlines()) > 3
    assert second.read_bytes() == first.read_bytes()


def _version(line):
    return int(line.partition("=")[2])


def test_read_table_converts_columns_and_skips_empty_lines(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("#v=7\na\t1\n\nb\t-2\n", encoding="utf-8")
    assert read_table(str(path), "t", str, int, header=_version) == (7, [("a", "b"), [1, -2]])
    path.write_text("\n", encoding="utf-8")
    assert read_table(str(path), "t", str, int) == [(), []]
    # A blank line is no row, even of a one-column table or of empty fields.
    path.write_text("1\n\n2\n\n", encoding="utf-8")
    assert read_table(str(path), "t", int) == [[1, 2]]
    path.write_text("\t1\n\n\t\n", encoding="utf-8")
    assert read_table(str(path), "t", str, str, keys=2) == [("", ""), ("1", "")]


def test_read_table_names_a_repeated_key_at_its_line(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("#v=7\na\t1\n\nb\t1\na\t2\n", encoding="utf-8")
    with pytest.raises(FormatError) as info:
        read_table(str(path), "t", str, int, header=_version)
    assert str(info.value) == "%s:5: t key 'a' is listed twice" % path
    # With both columns as the key, only a repeated pair is a repeat.
    assert (read_table(str(path), "t", str, int, header=_version, keys=2)
            == (7, [("a", "b", "a"), [1, 1, 2]]))


@pytest.mark.parametrize("text, where", [
    ("#v=7\na\t1\nb\t2\tc\n", "line 3: 'b\\t2\\tc'"),
    ("#v=7\na\tz\n", "line 2: 'a\\tz'"),
    ("#v=x\na\t1\n", "header line 1: '#v=x'"),
    ("", "header line 1: ''"),
    ("#v=7\nb\t1\na\tz\nc\n", "line 3: 'a\\tz'"),
    ("#v=7\na\t1\n\n\nb\n", "line 5: 'b'"),
], ids=["field-count", "converter", "header", "empty", "first-of-two", "after-blank-lines"])
def test_read_table_error_names_file_line_and_text(tmp_path, text, where):
    path = tmp_path / "t.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FormatError) as info:
        read_table(str(path), "t", str, int, header=_version)
    assert str(info.value).startswith("%s: malformed t %s" % (path, where))
    assert isinstance(info.value, CorpusError) and isinstance(info.value, ValueError)
