import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tarjama.corpus import CorpusError
from tarjama.normalize import (
    NormRules,
    TruecaseModel,
    default_arabic_rules,
    lowercase,
    normalize_arabic,
    truecase_apply,
    truecase_train,
)


def test_alif_variants_collapse():
    assert normalize_arabic("آ") == "ا"
    assert normalize_arabic("أحمد إلى آخر") == "احمد الي اخر"


def test_alif_maqsura_to_ya():
    assert normalize_arabic("مستشفى") == "مستشفي"


def test_diacritics_and_tatweel_stripped():
    assert normalize_arabic("كِتَاب") == "كتاب"
    assert normalize_arabic("كتـــاب") == "كتاب"


def test_parentheses_become_bracket_tokens():
    assert normalize_arabic("( نعم )") == "-LRB- نعم -RRB-"


def test_bracket_spellings_configurable():
    # A replacement containing "(" would itself be rewritten on a second
    # pass, so the closure check rejects it outright.
    with pytest.raises(ValueError):
        default_arabic_rules(lrb="(((", rrb=")))")
    rules = default_arabic_rules(lrb="[LRB]", rrb="[RRB]")
    assert normalize_arabic("(x)", rules) == "[LRB]x[RRB]"


def test_hamza_carriers_untouched():
    assert normalize_arabic("مؤمن سؤال مئة") == "مؤمن سؤال مئة"


def test_idempotent_on_random_arabic_text():
    rng = np.random.default_rng(42)
    block = [chr(c) for c in range(0x0600, 0x0700)] + [" "]
    for _ in range(500):
        n = int(rng.integers(1, 40))
        text = "".join(block[i] for i in rng.integers(0, len(block), size=n))
        once = normalize_arabic(text)
        assert normalize_arabic(once) == once


# "a" is both rewritten and stripped; "b" rewrites to nothing.
@pytest.mark.parametrize("rules", [default_arabic_rules(),
                                   NormRules({"a": "xy", "b": "", "(": "-LRB-"}, {"a", "z"})],
                         ids=["default", "overlapping"])
@given(text=st.text(st.sampled_from([chr(c) for c in range(0x0600, 0x0700)]
                                    + list("abxyz() \t"))))
def test_normalize_equals_the_per_character_rule(rules, text):
    want = "".join(rules.char_map.get(ch, ch) for ch in text if ch not in rules.strip_set)
    assert normalize_arabic(text, rules) == want


def test_rules_reject_non_idempotent_mappings():
    with pytest.raises(ValueError, match="idempotent"):
        NormRules(char_map={"a": "b", "b": "c"})
    with pytest.raises(ValueError, match="idempotent"):
        NormRules(char_map={"a": "b"}, strip_set={"b"})
    # A key of two characters could never match one character of text.
    with pytest.raises(ValueError, match="length 1"):
        NormRules(char_map={"ab": "c"})


def test_rules_save_load_round_trip(tmp_path):
    rules = default_arabic_rules()
    path = tmp_path / "rules.tsv"
    rules.save(path)
    again = NormRules.load(str(path))
    assert again.char_map == rules.char_map
    assert again.strip_set == rules.strip_set


@pytest.mark.parametrize("loader", [NormRules.load, TruecaseModel.load],
                         ids=["NormRules", "TruecaseModel"])
def test_loaders_name_file_with_undecodable_bytes(tmp_path, loader):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"\xff\xfe\n")
    with pytest.raises(CorpusError, match=re.escape(str(path)) + ": invalid UTF-8 on line 1"):
        loader(str(path))


def test_lowercase():
    assert lowercase("The CAT") == "the cat"


def test_truecase_medial_evidence_wins():
    corpus = [
        ["The", "bank", "closed"],
        ["We", "visited", "the", "bank"],
        ["Bank", "records", "show", "nothing"],
    ]
    model = truecase_train(corpus)
    # Sentence-initial "The" and "Bank" are forced capitals; medial
    # occurrences decide.
    assert model.surface("the") == "the"
    assert model.surface("bank") == "bank"


def test_truecase_initial_fallback_for_never_medial_words():
    corpus = [["NASA", "launched"], ["NASA", "landed"]]
    model = truecase_train(corpus)
    assert model.surface("nasa") == "NASA"


def test_truecase_ties_prefer_lowercase_then_lexicographic():
    corpus = [["x", "iPhone", "x", "IPHONE"]]
    model = truecase_train(corpus)
    assert model.surface("iphone") == "IPHONE"  # tie, smaller string
    corpus = [["x", "Word", "x", "word"]]
    model = truecase_train(corpus)
    assert model.surface("word") == "word"  # tie, lowercase preferred


def test_truecase_apply_looks_up_every_token():
    corpus = [["He", "met", "Smith", "in", "London"],
              ["She", "met", "Smith", "too"]]
    model = truecase_train(corpus)
    out = truecase_apply(["smith", "met", "london", "unknownword"], model)
    assert out == ["Smith", "met", "London", "unknownword"]


def test_truecase_model_save_load(tmp_path):
    model = truecase_train([["a", "McDonald", "b", "McDonald"]])
    path = tmp_path / "tc.tsv"
    model.save(path)
    again = TruecaseModel.load(str(path))
    assert again.case_freq == model.case_freq
