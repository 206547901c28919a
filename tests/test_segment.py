import logging
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from oracles import loop_atb_segment
from tarjama.corpus import CorpusError
from tarjama.segment import (
    CliticInventory,
    DEFAULT_INVENTORY,
    DetokTable,
    _is_arabic_word,
    atb_segment,
    detokenize,
    segment_corpus,
    segment_words,
    simple_tokenize,
)

ARABIC_LETTERS = [chr(c) for c in range(0x0621, 0x064B)]


# Letters, the characters just outside their range, diacritics, Latin,
# digits, the clitic marker and a space.
@given(st.text(st.sampled_from(ARABIC_LETTERS + ["\u0620", "\u064b", "\u0650", "\u0652",
                                                 "a", "Z", "0", "9", "+", " "]), max_size=8))
def test_arabic_word_check_matches_per_character_check(token):
    letters = set(ARABIC_LETTERS)
    assert _is_arabic_word(token) == (bool(token) and all(ch in letters for ch in token))


def test_tokenize_separates_punctuation():
    assert simple_tokenize("قال: نعم.") == ["قال", ":", "نعم", "."]
    assert simple_tokenize("a,b") == ["a", ",", "b"]


def test_tokenize_keeps_numbers_and_acronyms():
    assert simple_tokenize("pi is 3.14, ok") == ["pi", "is", "3.14", ",", "ok"]
    assert simple_tokenize("1,000 at 12:30") == ["1,000", "at", "12:30"]
    assert simple_tokenize("the U.S. flag") == ["the", "U.S.", "flag"]


def test_tokenize_drops_nothing_but_whitespace():
    text = "ابن «قال» 50%"
    assert "".join(simple_tokenize(text)) == text.replace(" ", "")


def test_segment_worked_example():
    assert atb_segment("ولمركبته") == ["و+", "ل+", "مركبة", "+ه"]


def test_segment_short_words_stay_whole():
    assert atb_segment("كتب") == ["كتب"]
    assert atb_segment("و") == ["و"]


def test_segment_never_splits_definite_article():
    assert atb_segment("الكتاب") == ["الكتاب"]
    assert atb_segment("والكتاب") == ["و+", "الكتاب"]


def test_segment_single_conjunction_then_particle():
    assert atb_segment("وبالقلم") == ["و+", "ب+", "القلم"]
    # A second conjunction is part of the stem.
    assert atb_segment("ووجدوا") == ["و+", "وجدوا"]


def test_segment_ta_marbuta_restored():
    assert atb_segment("مدرستها") == ["مدرسة", "+ها"]


def test_segment_non_arabic_pass_through():
    assert atb_segment("Reuters") == ["Reuters"]
    assert atb_segment("123") == ["123"]
    assert atb_segment("C+X") == ["C\\+X"]
    assert atb_segment("") == [""]


def test_segment_lexicon_all_or_nothing():
    inv = CliticInventory(stem_lexicon=frozenset(["مركبة"]))
    assert atb_segment("ولمركبته", inv) == ["و+", "ل+", "مركبة", "+ه"]
    # Unlisted stem: abandon the whole split.
    assert atb_segment("ولكتابه", inv) == ["ولكتابه"]


# Clitics that overlap (ه, ها, هما), span several letters, are not Arabic,
# or are regular-expression syntax; stems and words from a few letters, ta
# and ta marbuta among them, so that clitics, stems and lexicons collide.
PROCLITIC_POOL = ["و", "ف", "ب", "ك", "ل", "س", "بال", "لل", "x", ".", "\\"]
ENCLITIC_POOL = ["ه", "ها", "هما", "هم", "ك", "كما", "ي", "نا", "تة", "x", ".*", "\\"]
WORD_LETTERS = "وفبكلسهامنيتة"


@st.composite
def inventories_and_tokens(draw):
    stems = draw(st.lists(st.text(st.sampled_from(WORD_LETTERS), min_size=1, max_size=6),
                          min_size=1, max_size=4))
    stems.append(stems[0] + "ت")
    lexicon = draw(st.sampled_from([None, "stems", "restored"]))
    if lexicon is not None:
        lexicon = frozenset(stems + [s[:-1] + "ة" for s in stems
                                     if s.endswith("ت") and lexicon == "restored"])
    proclitics = draw(st.lists(st.sampled_from(PROCLITIC_POOL), max_size=7))
    enclitics = draw(st.lists(st.sampled_from(ENCLITIC_POOL), max_size=8))
    inv = CliticInventory(proclitics=tuple(p + "+" for p in proclitics),
                          enclitics=tuple(enclitics), min_stem_len=draw(st.integers(1, 5)),
                          stem_lexicon=lexicon)
    # Mostly the inventory's own clitics around a stem, so that words split.
    clitic_word = st.builds(
        lambda *parts: "".join(parts),
        *(st.sampled_from([""] + proclitics + PROCLITIC_POOL[:2]) for _ in range(2)),
        st.sampled_from(stems),
        st.sampled_from([""] + enclitics + ENCLITIC_POOL[:3]))
    any_word = st.text(st.sampled_from(WORD_LETTERS + "+\\xa1"), max_size=10)
    return inv, draw(st.lists(clitic_word | clitic_word | any_word, max_size=8))


@settings(max_examples=300, deadline=None)
@given(inventories_and_tokens())
@example((CliticInventory(proclitics=("x+",)), ["xكتاب"]))  # a non-Arabic word never splits
# A slot takes its first clitic in inventory order, not its longest.
@example((CliticInventory(proclitics=("ب+", "بال+")), ["بالبيت"]))
@example((CliticInventory(proclitics=("بال+", "ب+")), ["بالبيت"]))
# The longest enclitic that leaves min_stem_len letters.
@example((CliticInventory(enclitics=("ه", "ها", "هما"), min_stem_len=2), ["كتبهما", "كهما", "هما"]))
def test_compiled_segmenter_equals_the_slot_loop(case):
    inv, tokens = case
    for token in tokens:
        assert atb_segment(token, inv) == loop_atb_segment(token, inv), (token, inv)


@settings(max_examples=300, deadline=None)
@given(inventories_and_tokens())
def test_segment_words_equals_atb_segment_per_word(case):
    inv, tokens = case
    want = [loop_atb_segment(token, inv) for token in tokens]
    assert list(segment_words(tokens, inv)) == want
    assert [atb_segment(token, inv) for token in tokens] == want


def test_inventory_validation_and_slots():
    inv = DEFAULT_INVENTORY
    assert set(inv.conjunction_slot) == {"و", "ف"}
    assert "ب" in inv.particle_slot and "و" not in inv.particle_slot
    with pytest.raises(ValueError):
        CliticInventory(proclitics=("و",))
    with pytest.raises(ValueError):
        CliticInventory(enclitics=("+ه",))
    with pytest.raises(ValueError):
        CliticInventory(min_stem_len=0)


def test_inventory_from_file(tmp_path):
    path = tmp_path / "clitics.txt"
    path.write_text("# conjunctions\nو+\nف+\n+ه\n+ها\n", encoding="utf-8")
    inv = CliticInventory.from_file(str(path), min_stem_len=2)
    assert inv.proclitics == ("و+", "ف+")
    assert inv.enclitics == ("ه", "ها")
    assert inv.min_stem_len == 2
    path.write_text("bare\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected"):
        CliticInventory.from_file(str(path))


def test_detokenize_rules_join():
    assert detokenize(["و+", "ل+", "مركبة", "+ه"]) == ["ولمركبته"]
    assert detokenize(["ل+", "الكتاب"]) == ["للكتاب"]
    assert detokenize(["قال", "الكتاب"]) == ["قال", "الكتاب"]
    assert detokenize(["C\\+X"]) == ["C+X"]


# The run grammar: a run is proclitics, at most one stem, then enclitics;
# "+x+" counts as a proclitic before a stem and as an enclitic after one.
@pytest.mark.parametrize("tokens, words, warnings", [
    (["+x+"], ["+x"], 1),
    (["+"], ["+"], 0),
    (["x\\+"], ["x+"], 0),
    (["\\+"], ["+"], 0),
    (["قال", "و+"], ["قال", "و"], 1),
    (["+ه", "+ها"], ["هها"], 1),
    (["و+", "+ه"], ["وه"], 1),
    (["كتاب", "+ه", "+ها"], ["كتابهها"], 0),
    (["قال", "كتاب"], ["قال", "كتاب"], 0),
    (["x", "+y+"], ["xy+"], 0),
    (["+y+", "x"], ["+yx"], 0),
    (["و+", "+x+", "ل+", "الكتاب", "+ه"], ["و+xللكتابه"], 0),
    (["+ه", "x", "+\\+"], ["ه", "x\\+"], 1),
    ([], [], 0),
], ids=["both-markers", "lone-plus", "escaped-suffix", "escaped-plus", "dangling-proclitic",
        "enclitics-no-stem", "proclitic-then-enclitic", "two-enclitics", "two-stems",
        "both-after-stem", "both-before-stem", "both-between-proclitics",
        "enclitic-then-escaped-enclitic", "empty"])
def test_detokenize_run_grammar(caplog, tokens, words, warnings):
    with caplog.at_level(logging.WARNING, logger="tarjama.segment"):
        assert detokenize(tokens) == words
    assert sum(bool(re.search("marker run .* has no stem", r.getMessage()))
               for r in caplog.records) == warnings


def test_detokenize_table_lookup_wins_over_rules():
    table = DetokTable()
    table.add("و+ قلم", "wqlm-override")  # table is authoritative, rules are not
    assert detokenize(["و+", "قلم"], table) == ["wqlm-override"]
    assert detokenize(["و+", "قلم"]) == ["وقلم"]


def test_detok_table_most_frequent_then_lexicographic():
    table = DetokTable()
    table.add("k", "b", 2)
    table.add("k", "a", 1)
    assert table.lookup("k") == ("b", 2)
    table.add("k", "a", 1)
    assert table.lookup("k") == ("a", 2)
    assert table.lookup("missing") is None


def test_detok_table_add_replaces_a_remembered_lookup():
    table = DetokTable()
    assert table.lookup("j") is None
    table.add("k", "b", 2)
    assert table.lookup("k") == ("b", 2)
    assert table.lookup("k") == ("b", 2)  # remembered
    table.add("k", "a", 3)
    assert table.lookup("k") == ("a", 3)
    table.add("j", "z")  # a key once missing, and another key's add
    assert table.lookup("j") == ("z", 1)
    assert table.lookup("k") == ("a", 3)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(["k", "j", "و+ قلم"]),
                          st.sampled_from(["a", "b", "ab", "وقلم"]),
                          st.integers(1, 3))))
def test_detok_table_lookup_is_the_top_summed_count(tmp_path, adds):
    table = DetokTable()
    summed = {}
    for key, surface, count in adds:
        table.add(key, surface, count)
        summed.setdefault(key, Counter())[surface] += count
    for key in ("k", "j", "و+ قلم", "missing"):
        surfaces = summed.get(key, {})
        want = min(surfaces.items(), key=lambda sn: (-sn[1], sn[0]), default=None)
        assert table.lookup(key) == want
    assert len(table) == len(summed)
    path = tmp_path / "table.tsv"
    table.save(path)
    again = DetokTable.load(str(path))
    assert again.counts == table.counts
    assert all(again.lookup(key) == table.lookup(key) for key in summed)


# Keys that are prefixes of one another, and characters that sort below a
# tab, a tab among them, or are not printable.
_TABLE_TEXT = st.text(st.sampled_from(["a", "b", "ب", " ", "+", "\x00", "\x01", "\x08",
                                       "\t", "\x7f", "\u200f"]), max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_TABLE_TEXT, _TABLE_TEXT, st.integers(1, 12))))
@example([("a", "b", 1), ("a\x01", "b", 1), ("a", "b\x08", 1), ("ab", "a", 1)])
@example([("a", "b", 9), ("a", "b\t1", 1)])  # a tab in a surface
def test_detok_table_save_equals_the_pair_sorted_writer(tmp_path_factory, rows):
    table = DetokTable()
    for key, surface, count in rows:
        table.add(key, surface, count)
    path = tmp_path_factory.mktemp("table") / "table.tsv"
    table.save(path)
    want = "".join(f"{key}\t{surface}\t{count}\n"
                   for (key, surface), count in sorted(table.counts.items()))
    assert path.read_bytes() == want.encode("utf-8")


def test_detok_table_recheck_logs_one_warning_for_every_failing_row(tmp_path, caplog):
    # At stem length 2 each of these but قلمي splits otherwise than at 3.
    words = ["بها", "لها", "كتبهم", "قلمي", "بيته"]
    inv = CliticInventory(min_stem_len=2)
    _, table = segment_corpus([words], inv)
    path = tmp_path / "table.tsv"
    table.save(path)
    failing = sorted((key, surface) for key, surface in table.counts
                     if " ".join(atb_segment(surface)) != key)
    assert len(failing) == 4
    with caplog.at_level(logging.WARNING, logger="tarjama.segment"):
        DetokTable.load(str(path), inv)
        assert caplog.records == []
        DetokTable.load(str(path), DEFAULT_INVENTORY)
    key, surface = failing[0]  # the table file is sorted by key
    assert [r.getMessage() for r in caplog.records] == [
        "detok table %s: 4 of 5 surfaces no longer segment to their key; the first is %r "
        "under %r" % (path, surface, key)]


def test_detok_table_save_load(tmp_path):
    table = DetokTable()
    table.add("و+ قلم", "وقلم", 3)
    table.add("قال", "قال")
    path = tmp_path / "table.tsv"
    table.save(path)
    again = DetokTable.load(str(path), inv=DEFAULT_INVENTORY)
    assert again.lookup("و+ قلم") == ("وقلم", 3)
    assert len(again) == 2


@pytest.mark.parametrize("line", ["k\tsurface\tz", "k\tsurface", "k\ts\t1\t2",
                                  "k\tbad\t-7", "j\tzero\t0"],
                         ids=["count", "two-fields", "four-fields", "negative-count",
                              "zero-count"])
def test_detok_table_load_names_file_and_line_of_malformed_line(tmp_path, line):
    path = tmp_path / "table.tsv"
    path.write_text("k\tgood\t2\n\n" + line + "\n", encoding="utf-8")
    want = "%s: malformed table line 3: %r" % (path, line)
    with pytest.raises(ValueError, match=re.escape(want)):
        DetokTable.load(str(path))


@pytest.mark.parametrize("loader", [DetokTable.load, CliticInventory.from_file],
                         ids=["DetokTable", "CliticInventory"])
def test_loaders_name_file_with_undecodable_bytes(tmp_path, loader):
    path = tmp_path / "bad.txt"
    path.write_bytes("و+\n".encode("utf-8") + b"\xff\xfe\n")
    with pytest.raises(CorpusError, match=re.escape(str(path)) + ": invalid UTF-8 on line 2"):
        loader(str(path))


def test_segment_corpus_round_trips_by_lookup():
    corpus = [
        ["ولمركبته", "عجلات", "."],
        ["قرأ", "والكتاب", "Reuters"],
    ]
    segmented, table = segment_corpus(corpus)
    for sent, segs in zip(corpus, segmented):
        assert detokenize(segs, table) == sent


def test_segment_corpus_equals_per_token_segmenting_and_adding():
    rng = np.random.default_rng(4)
    words = ["ولمركبته", "والكتاب", "قال", "بيتها", "Reuters", "a+b", "", ".", "وقلم"]
    corpus = [[words[i] for i in rng.integers(0, len(words), size=int(rng.integers(0, 9)))]
              for _ in range(60)]
    want_table = DetokTable()
    want = []
    for sent in corpus:
        out = []
        for token in sent:
            segs = atb_segment(token)
            out.extend(segs)
            want_table.add(" ".join(segs), token)
        want.append(out)
    segmented, table = segment_corpus(iter(corpus))
    assert segmented == want
    assert table.counts == want_table.counts
    assert list(table.counts) == list(want_table.counts)
    assert table.best == want_table.best
    for key in want_table.best:
        assert table.lookup(key) == want_table.lookup(key)


def synth_surface(pros, stem, enc):
    """Forward morphology: attach clitics the way the joining rules undo."""
    if enc and stem.endswith("ة"):
        stem = stem[:-1] + "ت"
    if pros and pros[-1] == "ل" and stem.startswith("ال"):
        stem = stem[1:]
    return "".join(pros) + stem + (enc or "")


def test_rule_round_trip_on_synthetic_clitic_words():
    rng = np.random.default_rng(9)
    inv = DEFAULT_INVENTORY
    conj = ("",) + inv.conjunction_slot
    part = ("",) + inv.particle_slot
    encl = ("",) + tuple(inv.enclitics)
    for _ in range(400):
        stem_len = int(rng.integers(inv.min_stem_len, 7))
        stem = "".join(
            ARABIC_LETTERS[i]
            for i in rng.integers(0, len(ARABIC_LETTERS), size=stem_len)
        )
        pros = [p for p in (conj[rng.integers(len(conj))],
                            part[rng.integers(len(part))]) if p]
        enc = encl[rng.integers(len(encl))]
        surface = synth_surface(pros, stem, enc)
        assert detokenize(atb_segment(surface, inv)) == [surface]
