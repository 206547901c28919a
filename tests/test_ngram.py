import gc
import hashlib
import math
import re
import tracemalloc
from collections.abc import Mapping
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    dict_conditional,
    dict_kn_train,
    dict_read_arpa,
    dict_sentence_score,
    dict_write_arpa,
    naive_kn_backoff,
    naive_kn_prob,
    naive_kn_sentence,
)
from tarjama import ngram
from tarjama.cli import main
from tarjama.corpus import CorpusError
from tarjama.ngram import (
    ArpaError,
    lm_read_arpa,
    lm_score_sentence,
    lm_score_set,
    lm_train,
    lm_write_arpa,
)

WORDS = ["red", "green", "blue", "dog", "cat", "ran", "sat", "saw"]


def random_corpus(rng, sentences=30, vocab=6, max_len=8):
    lex = WORDS[:vocab]
    out = []
    for _ in range(sentences):
        n = int(rng.integers(1, max_len))
        out.append([lex[i] for i in rng.integers(0, vocab, size=n)])
    return out


def all_contexts(model):
    tokens = model.events() + ["<s>"]
    contexts = [()]
    for length in range(1, model.order):
        grown = []
        for ctx in contexts:
            if len(ctx) == length - 1:
                grown.extend(ctx + (t,) for t in tokens)
        contexts.extend(grown)
    return contexts


def test_bigram_worked_example():
    model = lm_train([["a", "b"]], order=2, discount=0.75)
    # p(b|a) = (1 - 0.75)/1 + 0.75 * cont(b)/2 = 0.25 + 0.75 * 0.5
    assert math.isclose(10 ** model.conditional(("a",), "b"), 0.625, rel_tol=1e-12)
    # Continuation ratio: b is extended only by a, never by the start marker.
    assert math.isclose(10 ** model.conditional((), "b"), 0.5, rel_tol=1e-12)


def test_unigram_model_is_relative_frequency_with_eos():
    model = lm_train([["a", "a", "b"]], order=1)
    # Events: a, a, b, </s>.
    assert math.isclose(10 ** model.conditional((), "a"), 0.5, rel_tol=1e-12)
    assert math.isclose(10 ** model.conditional((), "b"), 0.25, rel_tol=1e-12)
    assert math.isclose(10 ** model.conditional((), "</s>"), 0.25, rel_tol=1e-12)


def test_unseen_unk_is_floored():
    model = lm_train([["a", "b"]], order=2)
    assert model.conditional((), "<unk>") == -99.0
    assert not model.known("zzz")
    assert model.known("a")


def test_matches_recursive_oracle_on_random_corpora():
    rng = np.random.default_rng(5)
    for order in (1, 2, 3):
        corpus = random_corpus(rng, sentences=12, vocab=4)
        model = lm_train(corpus, order=order, discount=0.75)
        for ctx in all_contexts(model):
            for w in model.events():
                got = 10 ** model.conditional(ctx, w)
                want = naive_kn_prob(corpus, order, 0.75, ctx, w)
                assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (
                    order, ctx, w, got, want)


def test_stored_values_equal_oracle_log10_exactly():
    # Every stored log-probability and backoff is the log10 of the oracle's
    # value to the last bit, at the orders the benchmark and the paper use.
    # Words seen only sentence-initially have no continuation count, so
    # contexts ending in them take the raw-count fallback.
    rng = np.random.default_rng(11)
    for order in (2, 3, 4):
        for _ in range(3):
            corpus = random_corpus(rng, sentences=10, vocab=4, max_len=6)
            corpus += [["first"] + corpus[0], ["opens", "red"], ["opens"]]
            model = lm_train(corpus, order=order)
            for gram, logp in model.probs.items():
                p = naive_kn_prob(corpus, order, 0.75, gram[:-1], gram[-1])
                want = math.log10(p) if p > 0.0 and gram != ("<s>",) else -99.0
                assert logp == want, (order, gram, logp, want)
            contexts = {g[:-1] for g in model.probs if len(g) > 1}
            weights = {c: naive_kn_backoff(corpus, order, 0.75, c) for c in contexts}
            assert model.backoffs == {
                c: math.log10(w) for c, w in weights.items() if w is not None}


# Sentences over a few words and the literal reserved tokens, empty ones
# included: the start marker can then head grams mid-sentence, and the
# padding token is counted without ever being an event.
small_corpora = st.lists(
    st.lists(st.sampled_from(["a", "b", "c", "<s>", "</s>", "<unk>", "<pad>"]), max_size=7),
    min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(corpus=small_corpora, order=st.integers(1, 5))
def test_table_estimator_equals_dict_oracle_exactly(tmp_path_factory, corpus, order):
    model = lm_train(corpus, order)
    probs, backoffs = dict_kn_train(corpus, order)
    assert dict(model.probs) == probs
    assert dict(model.backoffs) == backoffs
    assert (len(model.probs), len(model.backoffs)) == (len(probs), len(backoffs))
    directory = tmp_path_factory.mktemp("arpa")
    lm_write_arpa(model, directory / "got.arpa")
    dict_write_arpa(order, probs, backoffs, directory / "want.arpa")
    assert (directory / "got.arpa").read_bytes() == (directory / "want.arpa").read_bytes()


def test_values_are_python_floats(tmp_path):
    # The columns are float64 arrays; what leaves the model is a plain float.
    model = lm_train([["a", "b"], ["b"]], order=2)
    lm_write_arpa(model, tmp_path / "m.arpa")
    for model in (model, lm_read_arpa(str(tmp_path / "m.arpa"))):
        values = [*model.probs.values(), *model.backoffs.values(),
                  model.conditional(("a",), "b"), model.conditional(("zzz",), "<unk>"),
                  lm_score_sentence(model, ["a", "c"]), lm_score_set(model, [["b"]])]
        assert {type(value) for value in values} == {float}


def test_gram_views_are_read_only_tuple_mappings():
    model = lm_train([["a", "b"], ["b"]], order=2)
    assert isinstance(model.probs, Mapping)
    assert ("a", "b") in model.probs and ("a",) in model.backoffs
    # Keys are tuples of the right length; the highest order has no backoffs.
    for absent in ("a", ["a"], ("a b",), ("a", "b", "c"), ()):
        assert absent not in model.probs
    assert ("a", "b") not in model.backoffs
    with pytest.raises(KeyError):
        model.backoffs[("a", "b")]
    with pytest.raises(TypeError):
        model.probs[("a",)] = 0.0


# Lines edited into valid ARPA files.  None of the edits can list an
# n-gram twice; test_reader_rejects_ngram_listed_twice covers that.
NOT_NUMBERS = ["x", "", " ", "1.2.3", "--1", "0x1F", "1e", "a1"]
INSERTED_LINES = ["", " ", "\t", " \t ", "\\x", "\\2-grams:", "\\end\\", "junk",
                  "ngram 1=1"]
EDITS = st.lists(st.tuples(
    st.sampled_from(["delete", "tab", "space", "number", "count", "blank", "insert",
                     "rotate", "prefix"]),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6)), max_size=4)


def _edit(lines, step, op, k, pick):
    k %= len(lines)
    line = lines[k]
    if op == "delete":
        del lines[k]
    elif op in ("tab", "space"):
        at = pick % (len(line) + 1)
        lines[k] = line[:at] + ("\t" if op == "tab" else " ") + line[at:]
    elif op == "number":
        fields = line.split("\t")
        fields[2 * (pick % ((len(fields) + 1) // 2))] = NOT_NUMBERS[pick % len(NOT_NUMBERS)]
        lines[k] = "\t".join(fields)
    elif op == "count":
        counts = [j for j, text in enumerate(lines) if re.fullmatch(r"ngram \d+=-?\d+", text)]
        if counts:
            j = counts[k % len(counts)]
            head, c = lines[j].split("=")
            lines[j] = "%s=%d" % (head, int(c) + pick % 5 - 2)
    elif op == "blank":
        lines[k] = line + [" ", "\t", "  "][pick % 3]
    elif op == "insert":
        lines.insert(k, INSERTED_LINES[pick % len(INSERTED_LINES)])
    elif op == "rotate":
        # Unsort one section: rotate the lines up to the next empty one.
        end = lines.index("", k) if "" in lines[k:] else len(lines)
        body = lines[k:end]
        if body:
            at = pick % len(body)
            lines[k:end] = body[at:] + body[:at]
    elif op == "prefix":
        # Give an n-gram a first word no other line has: its prefix is
        # then not listed.
        fields = line.split("\t")
        if len(fields) > 1 and " " in fields[1]:
            fields[1] = "new%d%s" % (step, fields[1][fields[1].index(" "):])
            lines[k] = "\t".join(fields)


@settings(max_examples=300, deadline=None)
@given(corpus=small_corpora, order=st.integers(1, 4), edits=EDITS,
       reverse=st.booleans(), newline=st.sampled_from(["\n", "\r\n", "\r"]),
       trailing=st.sampled_from(["", "\n", "\n \n\t\n"]))
def test_column_reader_equals_dict_reader(tmp_path_factory, corpus, order, edits,
                                          reverse, newline, trailing):
    path = tmp_path_factory.mktemp("arpa") / "model.arpa"
    lm_write_arpa(lm_train(corpus, order), path)
    blocks = path.read_text(encoding="utf-8").split("\n\n")
    if reverse:
        # Sections out of order: both readers reject the file alike.
        blocks[1:-1] = blocks[-2:0:-1]
    lines = "\n\n".join(blocks).split("\n")
    for step, (op, k, pick) in enumerate(edits):
        _edit(lines, step, op, k, pick)
    path.write_bytes((newline.join(lines) + trailing).encode("utf-8"))
    try:
        want = dict_read_arpa(str(path))
    except ArpaError as exc:
        with pytest.raises(ArpaError) as info:
            lm_read_arpa(str(path))
        assert str(info.value) == str(exc)
        return
    model = lm_read_arpa(str(path))
    assert (model.order, dict(model.probs), dict(model.backoffs)) == want


@settings(max_examples=200, deadline=None)
@given(corpus=small_corpora, order=st.integers(1, 4), edits=EDITS, chunk=st.integers(1, 5),
       newline=st.sampled_from(["\n", "\r\n", "\r"]),
       trailing=st.sampled_from(["", "\n", "\n \n\t\n"]))
def test_arpa_io_in_small_chunks_equals_dict_oracles(tmp_path_factory, corpus, order, edits,
                                                     chunk, newline, trailing):
    # Chunks of 1-5 rows or lines put a chunk boundary at every place a
    # section, a run of n-gram lines or a defect can start or end.
    directory = tmp_path_factory.mktemp("arpa")
    path, want_path = directory / "model.arpa", directory / "want.arpa"
    with mock.patch.object(ngram, "_CHUNK", chunk):
        lm_write_arpa(lm_train(corpus, order), path)
        dict_write_arpa(order, *dict_kn_train(corpus, order), want_path)
        assert path.read_bytes() == want_path.read_bytes()
        lines = path.read_text(encoding="utf-8").split("\n")
        for step, (op, k, pick) in enumerate(edits):
            _edit(lines, step, op, k, pick)
        path.write_bytes((newline.join(lines) + trailing).encode("utf-8"))
        try:
            want = dict_read_arpa(str(path))
        except ArpaError as exc:
            with pytest.raises(ArpaError) as info:
                lm_read_arpa(str(path))
            assert str(info.value) == str(exc)
            return
        model = lm_read_arpa(str(path))
    assert (model.order, dict(model.probs), dict(model.backoffs)) == want


@pytest.mark.parametrize("chunk", [1, 2, 3, 4, 5, 8192])
def test_reader_ranks_defects_alike_at_every_chunk_size(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(ngram, "_CHUNK", chunk)
    path = tmp_path / "bad.arpa"
    head = "\\data\\\nngram 1=3\n\n\\1-grams:\n-0.1\ta\n-0.2\tb\n-0.3\ta\n"
    # A defect later in the section outranks an n-gram listed twice ...
    path.write_text(head.replace("1=3", "1=4") + "-0.4\tc\tx\n\n\\end\\\n",
                    encoding="utf-8")
    with pytest.raises(ArpaError, match=re.escape("bad.arpa:8: non-numeric field")):
        lm_read_arpa(str(path))
    # ... and the duplicate is named once its section ends cleanly, even
    # at a line holding only blanks or at the end of the file.
    for end in ("\n\\end\\\n", " \n\\end\\\n", ""):
        path.write_text(head + end, encoding="utf-8")
        with pytest.raises(ArpaError, match=re.escape("bad.arpa:7: ngram 'a' is listed twice")):
            lm_read_arpa(str(path))
    # Invalid UTF-8 anywhere outranks every defect.
    path.write_bytes(b"junk\n" * 9 + b"\xff\n")
    with pytest.raises(CorpusError, match=re.escape("bad.arpa: invalid UTF-8 on line 10 at byte 1")):
        lm_read_arpa(str(path))


def _traced(call, *args):
    """call(*args), the traced memory it left allocated, and its traced peak."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call(*args)
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, left, peak


@pytest.fixture(scope="module")
def large_model():
    # Uniform words over 2,000 types: the 4-gram model stores about 80k n-grams.
    rng = np.random.default_rng(14)
    words = ["w%d" % i for i in range(2000)]
    corpus = [[words[i] for i in rng.integers(0, len(words), int(rng.integers(3, 16)))]
              for _ in range(3000)]
    model = lm_train(corpus, 4)
    assert len(model.probs) >= 50_000
    return model


def test_arpa_writer_holds_one_chunk_beyond_the_model(tmp_path, large_model):
    _, left, peak = _traced(lm_write_arpa, large_model, tmp_path / "large.arpa")
    assert peak <= 2_000_000, peak


def test_arpa_reader_peaks_near_the_model_it_returns(tmp_path, large_model):
    path = tmp_path / "large.arpa"
    lm_write_arpa(large_model, path)
    model, size, peak = _traced(lm_read_arpa, str(path))
    assert len(model.probs) == len(large_model.probs)
    assert peak <= 1.3 * size, (peak, size)


def test_reader_rejects_ngram_listed_twice(tmp_path, monkeypatch):
    monkeypatch.setattr(ngram, "_CHUNK", 2)
    path = tmp_path / "twice.arpa"
    path.write_text("\\data\\\nngram 1=2\nngram 2=3\n\n"
                    "\\1-grams:\n-0.5\ta\t-0.2\n-0.4\tb\n\n"
                    "\\2-grams:\n-0.1\ta b\n-0.2\tb a\n-0.3\ta b\n\n\\end\\\n",
                    encoding="utf-8")
    # The second listing is named, also when it lies in a later chunk.
    with pytest.raises(ArpaError, match=re.escape("twice.arpa:12: ngram 'a b' is listed twice")):
        lm_read_arpa(str(path))


def test_reader_rejects_nan_fields_and_orders_below_one(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_text("\\data\\\nngram 1=2\n\n\\1-grams:\n-0.5\ta\tnan\n-0.4\tb\n\n\\end\\\n",
                    encoding="utf-8")
    with pytest.raises(ArpaError, match=re.escape(":5: non-numeric field in '-0.5\\ta\\tnan'")):
        lm_read_arpa(str(path))
    path.write_text("\\data\\\nngram 0=0\n\n\\end\\\n", encoding="utf-8")
    with pytest.raises(ArpaError, match=":2: malformed count line 'ngram 0=0'"):
        lm_read_arpa(str(path))


@pytest.mark.parametrize("counts, line", [
    (["ngram 1=0", "ngram 100000=0"], 3),  # an order far above the ones listed
    (["ngram 1=1", "ngram 3=0"], 3),       # a gap
    (["ngram 1=1", "ngram 1=1"], 3),       # a repeated order
    (["ngram 1=-1"], 2),                   # a negative count
], ids=["huge-order", "gap", "repeat", "negative"])
def test_count_lines_declare_orders_one_to_n_in_turn(tmp_path, counts, line):
    path = tmp_path / "counts.arpa"
    path.write_text("\n".join(["\\data\\", *counts, "", "\\end\\", ""]), encoding="utf-8")
    want = re.escape("counts.arpa:%d: malformed count line %r" % (line, counts[line - 2]))
    with pytest.raises(ArpaError, match=want):
        dict_read_arpa(str(path))

    def rejected():
        with pytest.raises(ArpaError, match=want):
            lm_read_arpa(str(path))

    peak = _traced(rejected)[2]
    assert peak < 1_000_000, peak


def test_reader_decodes_what_follows_the_end_marker(tmp_path, monkeypatch):
    monkeypatch.setattr(ngram, "_CHUNK", 1)
    path = tmp_path / "tail.arpa"
    path.write_bytes(b"\\data\\\nngram 1=1\n\n\\1-grams:\n-0.3\ta\n\n\\end\\\n\xff\n")
    for read in (lm_read_arpa, dict_read_arpa):
        with pytest.raises(CorpusError, match=re.escape("tail.arpa: invalid UTF-8 on line 8")):
            read(str(path))


def test_read_model_keeps_file_order(tmp_path):
    text = ("\\data\\\nngram 1=3\nngram 2=2\n\n"
            "\\1-grams:\n-0.4\tb\t-0.3\n-0.5\ta\t-0.2\n-0.6\t</s>\n\n"
            "\\2-grams:\n-0.1\tb a\n-0.7\ta </s>\n\n\\end\\\n")
    path = tmp_path / "unsorted.arpa"
    path.write_text(text, encoding="utf-8")
    again = tmp_path / "again.arpa"
    lm_write_arpa(lm_read_arpa(str(path)), again)
    assert again.read_text(encoding="utf-8") == text


def test_sentence_scores_match_oracle():
    rng = np.random.default_rng(6)
    corpus = random_corpus(rng, sentences=15, vocab=5)
    model = lm_train(corpus, order=3)
    for sent in (["red", "green"], ["dog"], ["blue", "red", "green", "dog"], []):
        got = lm_score_sentence(model, sent)
        want = naive_kn_sentence(corpus, 3, 0.75, sent)
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def test_oov_score_is_backoff_chain_to_floor():
    corpus = [["red", "green"], ["red", "blue"], ["green", "blue"]]
    model = lm_train(corpus, order=3)
    # zzz maps to the unknown event, which was never seen: the score walks
    # the backoff chain and lands on the -99 sentinel.
    got = model.conditional(("<s>", "red"), "<unk>")
    want = (model.backoffs[("<s>", "red")]
            + model.backoffs[("red",)]
            + model.conditional((), "<unk>"))
    assert math.isclose(got, want, rel_tol=1e-12)
    assert model.conditional((), "<unk>") == -99.0
    assert lm_score_sentence(model, ["zzz"]) < -99.0


def test_uniform_unigram_sentence_score():
    # Four equally frequent events: each step costs log10(1/4).
    model = lm_train([["a", "b", "c"]], order=1)
    score = lm_score_sentence(model, ["a", "b", "c"])
    assert math.isclose(score, 4 * math.log10(0.25), rel_tol=1e-12)


def test_empty_sentence_scores_eos_only():
    model = lm_train([["a", "b"], ["b"]], order=2)
    score = lm_score_sentence(model, [])
    assert math.isclose(score, model.conditional(("<s>",), "</s>"), rel_tol=1e-12)


def test_distributions_normalize_exhaustively():
    rng = np.random.default_rng(7)
    for order in (1, 2, 3):
        corpus = random_corpus(rng, sentences=25, vocab=6)
        model = lm_train(corpus, order=order)
        for ctx in all_contexts(model):
            total = sum(10 ** model.conditional(ctx, w) for w in model.events())
            assert abs(total - 1.0) <= 1e-9, (order, ctx, total)


def test_history_longer_than_order_is_truncated():
    corpus = [["a", "b", "a"], ["b", "a"]]
    model = lm_train(corpus, order=2)
    long_ctx = ("b", "b", "a")
    assert model.conditional(long_ctx, "b") == model.conditional(("a",), "b")


def test_sentence_score_equals_sum_over_full_histories():
    # lm_score_sentence passes only the last order - 1 tokens; summing
    # conditional over whole histories must give the same bits.
    rng = np.random.default_rng(12)
    corpus = random_corpus(rng, sentences=40, vocab=7)
    for order in (1, 2, 3, 4):
        model = lm_train(corpus, order=order)
        for n in (0, 1, 2, 3, 5, 40, 300):
            sent = [WORDS[i] for i in rng.integers(0, len(WORDS), size=n)]
            mapped = [w if model.known(w) else "<unk>" for w in sent] + ["</s>"]
            want = 0.0
            for k, tok in enumerate(mapped):
                want += model.conditional(["<s>"] + mapped[:k], tok)
            assert lm_score_sentence(model, sent) == want, (order, n)


def test_score_set_is_mean_and_orders_domains():
    rng = np.random.default_rng(8)
    in_domain = random_corpus(rng, sentences=40, vocab=4)
    model = lm_train(in_domain, order=3)
    in_scores = [lm_score_sentence(model, s) for s in in_domain[:10]]
    assert math.isclose(
        lm_score_set(model, in_domain[:10]), sum(in_scores) / 10, rel_tol=1e-12
    )
    out_domain = [["dog", "cat", "sat"], ["cat", "saw", "dog"], ["sat", "saw"]]
    assert lm_score_set(model, in_domain[:10]) > lm_score_set(model, out_domain)
    with pytest.raises(ValueError):
        lm_score_set(model, [])


def test_arpa_round_trip_is_stable_at_seven_digits(tmp_path):
    rng = np.random.default_rng(9)
    corpus = random_corpus(rng, sentences=20, vocab=5)
    model = lm_train(corpus, order=3)
    first = tmp_path / "a.arpa"
    second = tmp_path / "b.arpa"
    lm_write_arpa(model, first)
    loaded = lm_read_arpa(str(first))
    lm_write_arpa(loaded, second)
    assert first.read_bytes() == second.read_bytes()
    assert loaded.order == model.order
    # Values survive the 7-significant-digit boundary.
    for gram, p in model.probs.items():
        assert math.isclose(loaded.probs[gram], p, rel_tol=1e-6, abs_tol=1e-6)
    # Rescoring with the reloaded model is bit-identical to reloading again.
    reloaded = lm_read_arpa(str(second))
    for sent in corpus[:5]:
        assert lm_score_sentence(loaded, sent) == lm_score_sentence(reloaded, sent)


def test_arpa_parser_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_text("no header\n", encoding="utf-8")
    with pytest.raises(ArpaError, match="data"):
        lm_read_arpa(str(path))
    path.write_text("\\data\\\nngram 1=2\n\n\\1-grams:\n-0.3\ta\n\n\\end\\\n",
                    encoding="utf-8")
    with pytest.raises(ArpaError, match="declares 2"):
        lm_read_arpa(str(path))
    path.write_text("\\data\\\nngram 1=1\n\n\\1-grams:\n-0.3\ta\n",
                    encoding="utf-8")
    with pytest.raises(ArpaError, match="end"):
        lm_read_arpa(str(path))
    for text in ("\\data\\\n\n\\1-grams:\n", "\\data\\\n"):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ArpaError, match=re.escape(str(path)) + ":1: no ngram counts declared"):
            lm_read_arpa(str(path))


def test_read_arpa_names_file_with_undecodable_bytes(tmp_path):
    path = tmp_path / "bad.arpa"
    path.write_bytes(b"\\data\\\nngram 1=1\n\n\\1-grams:\n-0.3\t\xff\xfe\n")
    with pytest.raises(CorpusError, match=re.escape(str(path)) + ": invalid UTF-8 on line 5"):
        lm_read_arpa(str(path))


def test_train_validation():
    with pytest.raises(ValueError, match="token 'a b' holds whitespace"):
        lm_train([["a b", "c"]], order=2)
    with pytest.raises(ValueError):
        lm_train([], order=2)
    with pytest.raises(ValueError):
        lm_train([["a"]], order=0)
    with pytest.raises(ValueError):
        lm_train([["a"]], order=2, discount=1.5)


def _large_corpus():
    """The corpus of the large_model fixture."""
    rng = np.random.default_rng(14)
    words = ["w%d" % i for i in range(2000)]
    return [[words[i] for i in rng.integers(0, len(words), int(rng.integers(3, 16)))]
            for _ in range(3000)]


def _with_lookup(build, *args):
    """build(*args) after its first query, so any lookup built on demand
    is built."""
    model = build(*args)
    model.conditional(("w1", "w2", "w3"), "w4")
    return model


def test_models_hold_at_most_64_bytes_per_ngram(tmp_path, large_model):
    # Ids, the two float columns, the sorter of a read model and the
    # token table: no string and no dict entry per n-gram.
    trained, size, _ = _traced(_with_lookup, lm_train, _large_corpus(), 4)
    assert size <= 64 * len(trained.probs), size / len(trained.probs)
    path = tmp_path / "large.arpa"
    lm_write_arpa(large_model, path)
    read, size, _ = _traced(_with_lookup, lm_read_arpa, str(path))
    assert size <= 64 * len(read.probs), size / len(read.probs)


# SHA-256 of `lm-train --order N` on golden_corpus's training text, and of
# `lm-score` and `lm-score --per-sentence` of its held-out text with that
# model, as the string-keyed model before the id columns wrote them.
GOLDEN = {
    1: ("afaab6ad121883bf675b22d708e442a7194de2fd30eaf7c1932f805f7d9dff9a",
        "4a48dfffff67d6174d99d7b26b1878f5e68cb5047daf21b2516a5950087b1c7f",
        "8d53b2d0a0b8fd683020110bace5950d18ad9eddaf463f589881a8df38c5a148"),
    3: ("a2e816a3a56299fe9683180202363863fa249d57b29d1f2feacb2b4d47afe3f2",
        "4791b08411ab963bc84283b57c812b6801c0890470a6639350c516e206832c7e",
        "5dbf4f57988da119047e3bedbd2b03619f5f93cb644801121eaf27a209be2173"),
    4: ("a83058efefa38cedc7b9a2f3830fff7b7c4700329722ca9b284bffb16ca229c8",
        "a66fe432c981247d985d2253bf8d86bdc6ff27a8fef3315e19edc27b7cb69939",
        "4151fce6c27591e2234b50ee8444052fa5c1f27408f5a4242fc9bc116b0b71d9"),
    5: ("8fbcebe21122830bcb915e565252b755e40a6b61e7326801b1b19864125504ea",
        "9df0c446fdf14120418d2d6b8d0ce5af6fd2da8366463ef96663e4c5d91a36f3",
        "abd31754fa1fad2988415bae10d1b3911bbda95a140c3c68d71a28ddd3f9179c"),
}


def golden_corpus():
    """500 training sentences and 63 held-out ones over a Zipf-like
    vocabulary of 705 tokens (more than 256, so ids take two bytes):
    Arabic and accented words, literal reserved tokens, empty sentences
    and, held out, unseen words."""
    rng = np.random.default_rng(2016)
    words = ["w%d" % i for i in range(700)] + ["كتاب", "مدرسة", "Ünïcode", "<unk>", "</s>"]
    weights = 1.0 / np.arange(1, len(words) + 1)
    weights /= weights.sum()

    def sentences(n):
        return [" ".join(words[i] for i in rng.choice(len(words), int(rng.integers(0, 18)),
                                                      p=weights))
                for _ in range(n)]

    train = sentences(500)
    return train, sentences(60) + ["zzz w0 oov", "", "<s> w1 <pad>"]


@pytest.mark.parametrize("order", sorted(GOLDEN))
def test_lm_outputs_match_the_string_model_byte_for_byte(tmp_path, order):
    train, heldout = golden_corpus()
    paths = {name: tmp_path / name for name in ("train", "heldout", "arpa", "set", "each")}
    paths["train"].write_text("".join(line + "\n" for line in train), encoding="utf-8")
    paths["heldout"].write_text("".join(line + "\n" for line in heldout), encoding="utf-8")
    assert main(["lm-train", str(paths["train"]), "--order", str(order),
                 "-o", str(paths["arpa"])]) == 0
    score = ["lm-score", "--model", str(paths["arpa"]), "--set", str(paths["heldout"])]
    assert main(score + ["-o", str(paths["set"])]) == 0
    assert main(score + ["--per-sentence", "-o", str(paths["each"])]) == 0
    digests = tuple(hashlib.sha256(paths[name].read_bytes()).hexdigest()
                    for name in ("arpa", "set", "each"))
    assert digests == GOLDEN[order]


def _read_with_oracle(path, text):
    path.write_text(text, encoding="utf-8")
    return lm_read_arpa(str(path)), dict_read_arpa(str(path))


def test_gram_found_when_its_prefix_is_not_listed(tmp_path):
    # "a b c" is listed, "a b" is not: the 3-gram is found all the same,
    # and the chain never backs off through "a b".
    model, (order, probs, backoffs) = _read_with_oracle(tmp_path / "m.arpa", (
        "\\data\\\nngram 1=5\nngram 2=2\nngram 3=1\n\n"
        "\\1-grams:\n-0.6\t</s>\n-99\t<s>\t-0.2\n-0.7\ta\t-0.3\n-0.8\tb\t-0.4\n-0.9\tc\n\n"
        "\\2-grams:\n-0.5\t<s> a\t-0.1\n-0.45\tb c\n\n"
        "\\3-grams:\n-0.25\ta b c\n\n\\end\\\n"))
    assert model.conditional(("a", "b"), "c") == -0.25
    for context, word in [(("a", "b"), "c"), (("x", "a", "b"), "c"), (("a", "b"), "b"),
                          (("<s>", "a"), "b"), (("b",), "c"), ((), "a"), (("c", "a"), "zzz")]:
        assert model.conditional(context, word) == dict_conditional(
            order, probs, backoffs, context, word), (context, word)
    for sentence in (["a", "b", "c"], ["b", "c", "a"], ["a", "zzz", "c"], []):
        assert lm_score_sentence(model, sentence) == dict_sentence_score(
            order, probs, backoffs, sentence), sentence


def test_token_only_in_a_higher_section_is_unknown(tmp_path):
    # "x" has no unigram: it is not known, a sentence scores it as <unk>,
    # and only conditional, which maps nothing, finds the 2-gram "a x".
    model, (order, probs, backoffs) = _read_with_oracle(tmp_path / "m.arpa", (
        "\\data\\\nngram 1=5\nngram 2=3\n\n"
        "\\1-grams:\n-0.6\t</s>\n-99\t<s>\t-0.2\n-0.7\ta\t-0.3\n-1.5\t<unk>\n-0.9\tb\n\n"
        "\\2-grams:\n-0.5\t<s> a\n-0.15\ta x\n-0.35\ta <unk>\n\n\\end\\\n"))
    assert not model.known("x") and model.known("a") and not model.known("<s>")
    assert "x" not in model.events()
    assert model.conditional(("a",), "x") == -0.15
    assert lm_score_sentence(model, ["a", "x"]) == lm_score_sentence(model, ["a", "<unk>"])
    for sentence in (["a", "x"], ["x"], ["x", "a", "b"]):
        assert lm_score_sentence(model, sentence) == dict_sentence_score(
            order, probs, backoffs, sentence), sentence


@settings(max_examples=100, deadline=None)
@given(corpus=small_corpora, order=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       chunk=st.sampled_from([1, 3, 8192]))
def test_unsorted_file_is_written_back_and_scored_as_read(tmp_path_factory, corpus, order,
                                                          seed, chunk):
    # Each section's lines shuffled, or left in place: the model writes
    # them back in file order, and scores as the dict oracle does.
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("arpa") / "model.arpa"
    lm_write_arpa(lm_train(corpus, order), path)
    blocks = path.read_text(encoding="utf-8").split("\n\n")
    for k in range(1, len(blocks) - 1):
        head, *body = blocks[k].split("\n")
        if rng.random() < 0.7:
            body = [body[j] for j in rng.permutation(len(body))]
        blocks[k] = "\n".join([head] + body)
    text = "\n\n".join(blocks)
    path.write_text(text, encoding="utf-8")
    again = path.parent / "again.arpa"
    with mock.patch.object(ngram, "_CHUNK", chunk):
        model = lm_read_arpa(str(path))
        lm_write_arpa(model, again)
    assert again.read_text(encoding="utf-8") == text
    order, probs, backoffs = dict_read_arpa(str(path))
    assert (dict(model.probs), dict(model.backoffs)) == (probs, backoffs)
    for sentence in corpus + [["zzz"], ["a", "zzz", "b"]]:
        assert lm_score_sentence(model, sentence) == dict_sentence_score(
            order, probs, backoffs, sentence)
