import logging
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from oracles import loop_undo_bpe, naive_bpe_learn, replay_segment_word
from tarjama.bpe import (
    BpeModel,
    apply_bpe,
    learn_bpe,
    merge_word,
    segment_word,
    undo_bpe,
    undo_bpe_lines,
)
from tarjama.corpus import CorpusError


def test_merge_word_non_overlapping_left_to_right():
    assert merge_word(("a", "a", "a", "a"), ("a", "a")) == ("aa", "aa")
    assert merge_word(("a", "a", "a"), ("a", "a")) == ("aa", "a")
    assert merge_word(("x", "y"), ("a", "b")) == ("x", "y")


def test_learn_low_lower_merge_sequence():
    model = learn_bpe({"low": 5, "lower": 2}, target_vocab_size=10)
    assert model.merges == [("l", "o"), ("lo", "w"), ("e", "r"), ("low", "er")]


def test_learn_first_merge_tie_is_lexicographic():
    # (l,o) and (o,w) both occur 7 times; the smaller pair wins.
    model = learn_bpe({"low": 5, "lower": 2}, target_vocab_size=7)
    assert model.merges[0] == ("l", "o")


def test_learn_counts_every_adjacency():
    # "aaaa" holds three adjacent (a,a) occurrences, enough to merge once;
    # the resulting (aa,aa) occurs once and is below the threshold.
    model = learn_bpe({"aaaa": 1}, target_vocab_size=10)
    assert model.merges == [("a", "a")]
    assert segment_word("aaaa", model) == ("aa", "aa")


def test_learn_stops_below_pair_threshold():
    model = learn_bpe({"ab": 1}, target_vocab_size=10)
    assert model.merges == []


def test_learn_rejects_small_target():
    with pytest.raises(ValueError, match="minimum is 6"):
        learn_bpe({"low": 5, "wide": 1}, target_vocab_size=4)
    with pytest.raises(ValueError):
        learn_bpe({"low": 0}, target_vocab_size=10)


def test_apply_marks_non_final_subwords():
    model = learn_bpe({"low": 5, "lower": 2}, target_vocab_size=10)
    assert apply_bpe(["lowest"], model) == ["low@@", "e@@", "s@@", "t"]
    assert apply_bpe(["low", "lower"], model) == ["low", "lower"]
    assert apply_bpe(["cat"], model) == ["c@@", "a@@", "t"]


def test_apply_yields_nothing_for_an_empty_token():
    model = learn_bpe({"low": 5, "lower": 2}, target_vocab_size=10)
    assert apply_bpe([""], model) == []
    assert apply_bpe(["", "low", "", "lowest", ""], model) == ["low", "low@@", "e@@", "s@@", "t"]
    assert apply_bpe([""], model) == []  # and again, from the per-word cache


def test_undo_concatenates_markers():
    assert undo_bpe(["low@@", "e@@", "s@@", "t", "low"]) == ["lowest", "low"]
    assert undo_bpe([]) == []


def test_undo_dangling_marker_is_kept():
    assert undo_bpe(["lo@@"]) == ["lo"]


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(["a", "b", "", "a@@", "@@", "@@@@", "x@@@", "a@", "a@@b"]),
                max_size=8))
@example(["a@", "@@"])  # a marker-only last token: no warning, nothing stripped
@example(["@@"])
@example([])
def test_undo_equals_the_token_loop(caplog, tokens):
    want, dangling = loop_undo_bpe(tokens)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="tarjama.bpe"):
        assert undo_bpe(tokens) == want
    assert [r.getMessage() for r in caplog.records] == (
        ["undo_bpe: dangling continuation marker at sentence end"] if dangling else [])


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.lists(st.sampled_from(["a", "b", "", "a@@", "@@", "@@@@", "x@@@", "a@",
                                          "a@@b"]), max_size=6), max_size=6))
@example([["a@", "@@"], ["lo@@"], [], ["@@"], [""], ["a@@", "b"]])
def test_undo_lines_equal_the_token_loop_per_line(caplog, sentences):
    want = [loop_undo_bpe(sentence) for sentence in sentences]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="tarjama.bpe"):
        assert undo_bpe_lines(iter(sentences)) == [" ".join(words) for words, _ in want]
    assert [r.getMessage() for r in caplog.records] == (
        ["undo_bpe: dangling continuation marker at sentence end"]
        * sum(dangling for _, dangling in want))


def test_model_save_load_round_trip(tmp_path):
    model = learn_bpe({"low": 5, "lower": 2}, target_vocab_size=10)
    path = tmp_path / "codes.bpe"
    model.save(path)
    again = BpeModel.load(str(path))
    assert again.merges == model.merges
    assert again.target_vocab_size == model.target_vocab_size
    (tmp_path / "bad.bpe").write_text("not a model\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        BpeModel.load(str(tmp_path / "bad.bpe"))


def test_model_rejects_duplicate_merges():
    with pytest.raises(ValueError, match="duplicate"):
        BpeModel([("a", "b"), ("a", "b")], 10)


def random_words(rng, count, alphabet="abcdefg", max_len=8):
    words = {}
    for _ in range(count):
        n = int(rng.integers(1, max_len))
        word = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=n))
        words[word] = words.get(word, 0) + int(rng.integers(1, 9))
    return words


def test_incremental_learner_matches_recount_oracle():
    rng = np.random.default_rng(1234)
    for _ in range(6):
        freqs = random_words(rng, int(rng.integers(20, 120)))
        target = int(rng.integers(0, 30))
        chars = {c for w in freqs for c in w}
        model = learn_bpe(freqs, len(chars) + target)
        assert model.merges == naive_bpe_learn(freqs, len(chars) + target)


# Word tables over two to four letters with counts of 1 to 3: most rounds
# have several pairs tied for the highest count.
tied_tables = st.sampled_from(["ab", "abc", "abcd"]).flatmap(
    lambda letters: st.dictionaries(st.text(letters, min_size=2, max_size=16),
                                    st.integers(1, 3), min_size=40, max_size=160))


@settings(max_examples=60, deadline=None)
@given(freqs=tied_tables, extra=st.integers(0, 300))
def test_heap_learner_matches_recount_oracle_on_tied_counts(freqs, extra):
    target = len({c for w in freqs for c in w}) + extra
    assert learn_bpe(freqs, target).merges == naive_bpe_learn(freqs, target)


def test_learner_skips_heap_entry_left_by_a_count_that_returned():
    # Merging (a, b) rewrites "abcd", so (c, d) loses 3 and gains 3 back
    # before the next pick: 4 before and after.  (c, d) then wins over
    # (ab, c) at 3, and the entry it left with count 4 must not surface
    # as a second merge.
    freqs = {"abcd": 3, "cd": 1, "ab": 2}
    want = [("a", "b"), ("c", "d"), ("ab", "cd")]
    assert naive_bpe_learn(freqs, 10) == want
    assert learn_bpe(freqs, 10).merges == want


def test_round_trip_lossless():
    rng = np.random.default_rng(77)
    freqs = random_words(rng, 300)
    model = learn_bpe(freqs, 40)
    lexicon = list(freqs) + ["uncommon", "zzz", "قلم"]
    for _ in range(500):
        n = int(rng.integers(1, 12))
        sent = [lexicon[i] for i in rng.integers(0, len(lexicon), size=n)]
        assert undo_bpe(apply_bpe(sent, model)) == sent


def test_segment_word_matches_replay_oracle():
    # Small alphabets make merges build on one another, so most words take
    # several merges in a row, some of them on symbols earlier merges made.
    rng = np.random.default_rng(4321)
    for _ in range(40):
        alphabet = "abcd"[: int(rng.integers(2, 5))]
        freqs = random_words(rng, int(rng.integers(5, 60)), alphabet)
        model = learn_bpe(freqs, len(set("".join(freqs))) + int(rng.integers(1, 25)))
        unseen = random_words(rng, 30, alphabet, max_len=12)
        for word in list(freqs) + list(unseen):
            assert segment_word(word, model) == replay_segment_word(word, model.merges), (
                word, model.merges)


def test_segment_word_merges_only_ranks_above_the_last(tmp_path):
    # Replay skips the first three merges, which find nothing, then joins
    # (b, c).  That creates (a, bc), which ranks lower than (b, c), so
    # replay never applies it; "merge the lowest present rank" would, and
    # would go on to (abc, d).
    path = tmp_path / "hand.bpe"
    path.write_text("#bpe v1 vocab=8\nab c\nabc d\na bc\nb c\n", encoding="utf-8")
    model = BpeModel.load(str(path))
    assert replay_segment_word("abcd", model.merges) == ("a", "bc", "d")
    assert segment_word("abcd", model) == ("a", "bc", "d")


def test_model_load_names_file_with_undecodable_bytes(tmp_path):
    path = tmp_path / "bad.bpe"
    path.write_bytes(b"#bpe v1 vocab=10\n\xff\xfe\n")
    with pytest.raises(CorpusError, match=re.escape(str(path)) + ": invalid UTF-8 on line 2"):
        BpeModel.load(str(path))
