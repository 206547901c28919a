import dataclasses
import json
import os

import pytest

from tarjama.corpus import CorpusError
from tarjama.normalize import default_arabic_rules, normalize_arabic, truecase_apply
from tarjama.pipeline import (
    PipelineArtifacts,
    PipelineConfig,
    PipelineError,
    StageError,
    _tokenize,
    apply_preprocess,
    prepare_references,
    run_experiment,
    run_postprocess,
    run_preprocess,
)
from tarjama.segment import DEFAULT_INVENTORY, atb_segment, simple_tokenize

AR_LINES = [
    "والكتاب على الطاولة .",
    "كتب الولد درسه في المدرسة .",
    "ذهب الى البيت الكبير .",
    "وقال نعم ( بسرعة ) .",
    "وجد مركبته امام البيت .",
    "الولد كتب والبنت قرات .",
]

EN_LINES = [
    "And the book is on the table .",
    "The boy wrote his lesson at school .",
    "He went to the big house .",
    "And he said yes ( quickly ) .",
    "He found his vehicle in front of the house .",
    "The boy wrote and the girl read .",
]


def full_ar2en_config(**kwargs):
    base = dict(direction="ar2en", arabic_tok=True, arabic_norm=True,
                arabic_atb=True, english_tok=True, english_true=True,
                bpe_size=200)
    base.update(kwargs)
    return PipelineConfig(**base)


# ----------------------------------------------------------- configuration

def test_validate_accepts_defaults_and_full_grid():
    PipelineConfig()
    full_ar2en_config()


def test_validate_rejects_bad_combinations():
    with pytest.raises(PipelineError, match="direction"):
        PipelineConfig(direction="fr2en")
    with pytest.raises(PipelineError, match="arabic_atb"):
        PipelineConfig(arabic_atb=True, arabic_tok=True)
    with pytest.raises(PipelineError, match="arabic_norm"):
        PipelineConfig(arabic_norm=True)
    with pytest.raises(PipelineError, match="mutually exclusive"):
        PipelineConfig(english_lower=True, english_true=True)
    with pytest.raises(PipelineError, match="bpe_size"):
        PipelineConfig(bpe_size=-1)


@pytest.mark.parametrize("name, low", [
    ("bpe_size", 0), ("max_train_len", 1), ("epochs", 0), ("batch_size", 1),
    ("patience", 1), ("beam_width", 1), ("max_decode_len", 1),
])
def test_validate_checks_each_integer_bound(name, low):
    PipelineConfig(**{name: low})
    with pytest.raises(PipelineError, match="^%s must be at least %d$" % (name, low)):
        PipelineConfig(**{name: low - 1})


@pytest.mark.parametrize("name, value", [
    ("embed_dim", 0), ("attn_hidden", -1), ("dropout_rate", float("nan")),
    ("l2_coeff", float("nan")), ("l2_coeff", float("inf")), ("l2_coeff", -1e-9),
])
def test_validate_applies_the_model_config_rules(name, value):
    with pytest.raises(ValueError, match=name):
        PipelineConfig(**{name: value})


def test_config_fields_cannot_be_assigned():
    config = PipelineConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.beam_width = 0


def test_from_mapping_coerces_types():
    config = PipelineConfig.from_mapping({
        "direction": "en2ar",
        "arabic_tok": "yes",
        "english_lower": "OFF",
        "bpe_size": "500",
        "l2_coeff": "1e-3",
        "out_dir": "runs/x",
    })
    assert config.direction == "en2ar"
    assert config.arabic_tok is True
    assert config.english_lower is False
    assert config.bpe_size == 500
    assert config.l2_coeff == 1e-3
    assert config.out_dir == "runs/x"


def test_from_mapping_rejects_unknown_and_malformed():
    with pytest.raises(PipelineError, match="unknown option"):
        PipelineConfig.from_mapping({"bpe": "500"})
    with pytest.raises(PipelineError, match="bad value"):
        PipelineConfig.from_mapping({"bpe_size": "many"})
    with pytest.raises(PipelineError, match="bad value"):
        PipelineConfig.from_mapping({"arabic_tok": "maybe"})


def test_from_file_parses_comments_and_blanks(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# experiment\n\ndirection = en2ar\n  epochs=  7\n", encoding="utf-8"
    )
    config = PipelineConfig.from_file(str(path))
    assert config.direction == "en2ar"
    assert config.epochs == 7
    bad = tmp_path / "bad.cfg"
    bad.write_text("epochs\n", encoding="utf-8")
    with pytest.raises(PipelineError, match="line 1"):
        PipelineConfig.from_file(str(bad))


def test_as_dict_survives_a_mapping_round_trip():
    config = full_ar2en_config(epochs=3, dropout_rate=0.2)
    again = PipelineConfig.from_mapping(config.as_dict())
    assert again == config


def test_arabic_side_follows_direction():
    assert PipelineConfig(direction="ar2en").arabic_side() == "src"
    assert PipelineConfig(direction="en2ar").arabic_side() == "tgt"


# ------------------------------------------------------------ preprocessing

def test_preprocess_learns_artifacts_and_apply_matches():
    config = full_ar2en_config()
    pairs, arts = run_preprocess(config, AR_LINES, EN_LINES)
    assert len(pairs) == len(AR_LINES)
    assert arts.detok_table is not None
    assert arts.truecase is not None
    assert arts.bpe_src is not None and arts.bpe_tgt is not None
    # Replaying the learned artifacts over the same corpus is identical.
    again = apply_preprocess(config, AR_LINES, EN_LINES, arts)
    assert again == pairs


def test_preprocess_without_steps_just_splits():
    config = PipelineConfig()
    pairs, arts = run_preprocess(config, AR_LINES, EN_LINES)
    assert pairs[0][0] == AR_LINES[0].split()
    assert pairs[0][1] == EN_LINES[0].split()
    assert arts.detok_table is None
    assert arts.truecase is None
    assert arts.bpe_src is None


@pytest.mark.parametrize("src, tgt, side", [
    (["abcdef"], ["ab"], "source"), (["ab"], ["abcdef"], "target"),
])
def test_preprocess_names_the_side_bpe_size_is_too_small_for(src, tgt, side):
    config = PipelineConfig(bpe_size=3)
    with pytest.raises(PipelineError, match="^bpe_size is too small for the %s side: "
                                            "target_vocab_size 3 is below" % side):
        run_preprocess(config, src, tgt)


def test_preprocess_normalizes_before_segmenting():
    config = PipelineConfig(direction="ar2en", arabic_tok=True,
                            arabic_norm=True, arabic_atb=True)
    pairs, _ = run_preprocess(config, ["ذهب إلى المدرسة"], ["he went to school"])
    src = pairs[0][0]
    # The alif variant collapses, then the bracketless text tokenizes.
    assert "الي" in " ".join(src)
    for token in src:
        assert "إ" not in token


def test_apply_preprocess_segments_unseen_words_like_per_token_atb_segment():
    config = full_ar2en_config(bpe_size=0)
    _, arts = run_preprocess(config, AR_LINES, EN_LINES)
    heldout = ["وبمدرستهم الجديدة وبمدرستهم .", "", "فكتبوها لكم ( غدا ) والكتاب ."]
    got = apply_preprocess(config, heldout, ["x"] * len(heldout), arts)
    rules = default_arabic_rules()
    words = [simple_tokenize(normalize_arabic(line, rules)) for line in heldout]
    want = [[seg for tok in sent for seg in atb_segment(tok, DEFAULT_INVENTORY)]
            for sent in words]
    assert [src for src, _ in got] == want
    trained = {tok for line in AR_LINES for tok in simple_tokenize(normalize_arabic(line, rules))}
    assert any(tok not in trained for sent in words for tok in sent)
    assert any(seg.endswith("+") for sent in want for seg in sent)


def test_postprocess_inverts_arabic_target_pipeline():
    config = PipelineConfig(direction="en2ar", arabic_tok=True,
                            arabic_norm=True, arabic_atb=True)
    pairs, arts = run_preprocess(config, EN_LINES, AR_LINES)
    decoded = [tgt for _, tgt in pairs]
    restored = run_postprocess(config, decoded, arts)
    rules = default_arabic_rules()
    want = [
        " ".join(simple_tokenize(normalize_arabic(line, rules)))
        for line in AR_LINES
    ]
    assert restored == want


def test_postprocess_inverts_english_target_pipeline():
    config = full_ar2en_config()
    pairs, arts = run_preprocess(config, AR_LINES, EN_LINES)
    decoded = [tgt for _, tgt in pairs]
    restored = run_postprocess(config, decoded, arts)
    want = [
        " ".join(truecase_apply(simple_tokenize(line), arts.truecase))
        for line in EN_LINES
    ]
    assert restored == want


def test_postprocess_missing_artifact_is_an_error():
    config = PipelineConfig(direction="en2ar", arabic_tok=True,
                            arabic_norm=True, arabic_atb=True)
    with pytest.raises(PipelineError, match="detokenization"):
        run_postprocess(config, [["و+", "كتاب"]], PipelineArtifacts())


def test_artifacts_save_and_load_round_trip(tmp_path):
    config = full_ar2en_config()
    pairs, arts = run_preprocess(config, AR_LINES, EN_LINES)
    written = arts.save(str(tmp_path))
    assert sorted(os.path.basename(p) for p in written) == [
        "bpe.src", "bpe.tgt", "detok.tsv", "truecase.tsv"
    ]
    loaded = PipelineArtifacts.load(str(tmp_path), config)
    assert loaded.bpe_src.merges == arts.bpe_src.merges
    assert loaded.bpe_tgt.merges == arts.bpe_tgt.merges
    sample = ["the", "boy", "house"]
    assert truecase_apply(sample, loaded.truecase) == \
        truecase_apply(sample, arts.truecase)
    assert apply_preprocess(config, AR_LINES, EN_LINES, loaded) == pairs


# ---------------------------------------------------------------- scoring

def test_prepare_references_applies_lossy_steps_only():
    config = PipelineConfig(direction="ar2en", english_tok=True,
                            english_lower=True)
    refs = prepare_references(config, ["The Boy said ( yes )"])
    # Bracket renaming is an Arabic normalization rule; English references
    # keep their punctuation.
    assert refs == [["the", "boy", "said", "(", "yes", ")"]]
    config = PipelineConfig(direction="ar2en", english_tok=True,
                            english_true=True)
    # Truecasing is restored by postprocessing, so references keep case.
    refs = prepare_references(config, ["The Boy said yes"])
    assert refs == [["The", "Boy", "said", "yes"]]


def test_prepare_references_normalizes_arabic_targets():
    config = PipelineConfig(direction="en2ar", arabic_tok=True,
                            arabic_norm=True, arabic_atb=True)
    refs = prepare_references(config, ["ذهب إلى المدرسة"])
    assert refs == [["ذهب", "الي", "المدرسة"]]


@pytest.mark.parametrize("config, hypothesis, tokens", [
    (PipelineConfig(direction="ar2en", english_tok=True), "the U.S. team won .",
     ["the", "U.S.", "team", "won", "."]),
    (PipelineConfig(direction="ar2en"), "a b  c", ["a", "b", "c"]),
    # A hypothesis is made of target tokens that were already normalized or
    # lowercased, so the reference steps only split it.
    (PipelineConfig(direction="en2ar", arabic_tok=True, arabic_norm=True),
     "ذهب الي المدرسة -LRB- نعم -RRB- .", ["ذهب", "الي", "المدرسة", "-LRB-", "نعم", "-RRB-", "."]),
    (PipelineConfig(direction="ar2en", english_tok=True, english_lower=True),
     "the u.s. team won ( yes ) .", ["the", "u.s.", "team", "won", "(", "yes", ")", "."]),
], ids=["ar2en-tok", "ar2en-split", "en2ar-norm", "ar2en-lower"])
def test_hypotheses_tokenize_into_reference_space(config, hypothesis, tokens):
    assert _tokenize(config, "tgt", [hypothesis]) == [tokens]


# ------------------------------------------------------------- experiments

def write_corpora(tmp_path):
    paths = {}
    sets = {
        "train": (AR_LINES * 5, EN_LINES * 5),
        "dev": (AR_LINES[:2], EN_LINES[:2]),
        "test": (AR_LINES[2:4], EN_LINES[2:4]),
    }
    for name, (ar, en) in sets.items():
        ar_path = tmp_path / ("%s.ar" % name)
        en_path = tmp_path / ("%s.en" % name)
        ar_path.write_text("".join(l + "\n" for l in ar), encoding="utf-8")
        en_path.write_text("".join(l + "\n" for l in en), encoding="utf-8")
        paths["%s_src" % name] = str(ar_path)
        paths["%s_tgt" % name] = str(en_path)
    return paths


def experiment_config(tmp_path, out_name="run"):
    paths = write_corpora(tmp_path)
    return PipelineConfig(
        direction="ar2en", arabic_tok=True, arabic_norm=True, arabic_atb=True,
        english_tok=True, english_lower=True, bpe_size=0,
        out_dir=str(tmp_path / out_name), embed_dim=12, enc_hidden=10,
        enc_layers=1, dec_hidden=12, attn_hidden=8, l2_coeff=0.0,
        epochs=2, batch_size=8, patience=5, beam_width=3, max_decode_len=12,
        seed=9, **paths
    )


def test_experiment_requires_corpus_paths():
    with pytest.raises(PipelineError, match="train_src"):
        run_experiment(PipelineConfig())


def test_experiment_wraps_failures_with_stage(tmp_path):
    config = dataclasses.replace(experiment_config(tmp_path),
                                 train_src=str(tmp_path / "missing.ar"))
    with pytest.raises(StageError, match="stage load failed") as info:
        run_experiment(config)
    assert info.value.stage == "load"
    assert isinstance(info.value.cause, OSError)


def test_experiment_rejects_misaligned_corpora(tmp_path):
    config = experiment_config(tmp_path)
    with open(config.train_tgt, "a", encoding="utf-8") as fh:
        fh.write("one extra line\n")
    with pytest.raises(StageError) as info:
        run_experiment(config)
    assert info.value.stage == "load"
    assert isinstance(info.value.cause, CorpusError)


def test_experiment_writes_everything_and_repeats_exactly(tmp_path):
    config = experiment_config(tmp_path)
    report = run_experiment(config)
    assert 0.0 <= report.bleu <= 1.0
    out = config.out_dir
    names = ["detok.tsv", "vocab.src.tsv", "vocab.tgt.tsv", "model.ckpt",
             "hypotheses.txt", "report.json", "manifest.json"]
    for name in names:
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["seed"] == config.seed
    assert sorted(manifest["checksums"]) == sorted(n for n in names
                                                   if n != "manifest.json")
    with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
        stored = json.load(fh)
    assert stored["bleu"] == pytest.approx(report.bleu)

    before = {
        name: open(os.path.join(out, name), "rb").read() for name in names
    }
    again = run_experiment(config)
    assert again.bleu == report.bleu
    for name in names:
        with open(os.path.join(out, name), "rb") as fh:
            assert fh.read() == before[name], name
