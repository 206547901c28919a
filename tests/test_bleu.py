import gc
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import counter_bleu, naive_bleu
from tarjama.bleu import BleuReport, bleu, bleu_delta
from tarjama.cli import main

bleu_module = importlib.import_module("tarjama.bleu")  # the package exports bleu()

LEXICON = ["the", "cat", "sat", "on", "a", "mat", "dog", "ran", "far", "away"]


def random_sentences(rng, count, min_len=3, max_len=15):
    out = []
    for _ in range(count):
        n = int(rng.integers(min_len, max_len))
        out.append([LEXICON[i] for i in rng.integers(0, len(LEXICON), size=n)])
    return out


def test_identity_scores_one():
    hyps = [["the", "cat", "sat", "on", "the", "mat"], ["a", "dog", "ran", "far"]]
    report = bleu(hyps, [[h] for h in hyps])
    assert report.bleu == 1.0
    assert report.precisions == (1.0, 1.0, 1.0, 1.0)
    assert report.brevity_penalty == 1.0


def test_clipping_kills_degenerate_repetition():
    report = bleu([["the", "the", "the", "the"]], [[["the", "cat"]]])
    assert report.precisions[0] == 0.25
    assert report.precisions[1] == 0.0
    assert report.bleu == 0.0


def test_clip_is_max_over_references():
    report = bleu(
        [["the", "the"]],
        [[["the", "cat"], ["the", "big", "the"]]],
    )
    # Second reference holds "the" twice, so both hypothesis tokens count.
    assert report.precisions[0] == 1.0


def test_effective_length_ties_choose_shorter():
    # Hypothesis length 3 sits exactly between references of 2 and 4.
    report = bleu([["a", "b", "c"]], [[["a", "b"], ["a", "b", "c", "d"]]])
    assert report.ref_len == 2
    assert report.brevity_penalty == 1.0


def test_brevity_penalty_for_short_hypotheses():
    report = bleu([["the", "cat"]], [[["the", "cat", "sat", "on"]]])
    assert math.isclose(report.brevity_penalty, math.exp(1 - 4 / 2), rel_tol=1e-12)


def test_empty_hypothesis_corpus_rejected():
    with pytest.raises(ValueError):
        bleu([], [])
    with pytest.raises(ValueError, match="reference"):
        bleu([["a"]], [[]])
    with pytest.raises(ValueError, match="1 hypotheses but 2"):
        bleu([["a"]], [[["a"]], [["b"]]])


def test_all_empty_hypotheses_score_zero():
    report = bleu([[]], [[["a", "b"]]])
    assert report.bleu == 0.0
    assert report.hyp_len == 0
    assert report.brevity_penalty == 0.0


def test_fold_case():
    report = bleu([["The", "Cat"]], [[["the", "cat"]]], fold_case=True)
    assert report.precisions[0] == 1.0
    assert bleu([["The", "Cat"]], [[["the", "cat"]]]).precisions[0] == 0.0


def test_matches_oracle_on_random_corpora():
    rng = np.random.default_rng(11)
    for _ in range(5):
        hyps = random_sentences(rng, 20)
        refs = [
            [r for r in random_sentences(rng, int(rng.integers(1, 4)))] + [h[:]]
            for h in hyps
        ]
        report = bleu(hyps, refs)
        score, precisions, bp, hyp_len, ref_len = naive_bleu(hyps, refs)
        assert abs(report.bleu - score) <= 1e-12
        for a, b in zip(report.precisions, precisions):
            assert abs(a - b) <= 1e-12
        assert abs(report.brevity_penalty - bp) <= 1e-12
        assert (report.hyp_len, report.ref_len) == (hyp_len, ref_len)


def test_extra_reference_never_hurts_at_equal_lengths():
    rng = np.random.default_rng(12)
    hyps = random_sentences(rng, 10, min_len=6, max_len=7)
    base_refs = [random_sentences(rng, 2, min_len=6, max_len=7) for _ in hyps]
    extra_refs = [
        refs + random_sentences(rng, 1, min_len=6, max_len=7)
        for refs in base_refs
    ]
    assert bleu(hyps, extra_refs).bleu >= bleu(hyps, base_refs).bleu


def test_delta_convention_matches_published_style():
    assert bleu_delta(0.3152, 0.3598) == 4.46
    assert bleu_delta(0.2864, 0.3362) == 4.98
    assert bleu_delta(0.3598, 0.3152) == -4.46
    report = BleuReport(0.3152, (0.7, 0.4, 0.3, 0.2), 1.0, 100, 100)
    assert bleu_delta(report, 0.3598) == 4.46


def test_delta_rounds_half_away_from_zero():
    assert bleu_delta(0.0, 0.04455) == 4.46
    assert bleu_delta(0.04455, 0.0) == -4.46


def test_summary_format():
    report = BleuReport(0.3598, (0.712, 0.44, 0.301, 0.213), 0.987, 50, 51)
    assert report.summary() == "BLEU = 35.98, P = 71.2/44.0/30.1/21.3, BP = 0.987"


def test_short_corpus_with_no_higher_ngrams_scores_zero():
    # No smoothing: a corpus without any 4-gram has p4 = 0, so the score
    # is 0 even for an exact match.
    assert bleu([["a", "b"]], [[["a", "b"]]]).bleu == 0.0


def test_to_json_round_trips():
    import json

    report = bleu([["a", "b", "c", "d"]], [[["a", "b", "c", "d"]]])
    data = json.loads(report.to_json())
    assert data["bleu"] == 1.0
    assert data["precisions"] == [1.0, 1.0, 1.0, 1.0]
    assert data["hyp_len"] == 4 and data["ref_len"] == 4

# Few types in two cases, so n-grams repeat within and across sentences.
_sentences = st.lists(st.sampled_from(["a", "A", "b", "B", "c", "the", "The"]), max_size=7)


@settings(max_examples=300, deadline=None)
@given(corpus=st.lists(st.tuples(_sentences, st.lists(_sentences, min_size=1, max_size=3)),
                       min_size=1, max_size=6),
       fold_case=st.booleans())
def test_equals_counter_oracle_in_every_field(corpus, fold_case):
    hyps = [hyp for hyp, _ in corpus]
    refs = [refs for _, refs in corpus]
    report = bleu(hyps, refs, fold_case=fold_case)
    want = counter_bleu(hyps, refs, fold_case=fold_case)
    assert report == want
    assert report.to_json() == want.to_json()
    assert [type(p) for p in report.precisions] == [float] * 4


@pytest.mark.parametrize("block", [1, 3])
def test_equals_counter_oracle_with_block_edges_everywhere(monkeypatch, block):
    monkeypatch.setattr(bleu_module, "BLOCK", block)
    test_equals_counter_oracle_in_every_field()


def _corpus(seed, count):
    rng = np.random.default_rng(seed)
    hyps = random_sentences(rng, count, min_len=1)
    return hyps, [random_sentences(rng, int(rng.integers(1, 4)), min_len=1) + [h[::-1]]
                  for h in hyps]


def test_generators_give_the_report_of_lists():
    # 700 pairs: two full blocks and a part, with up to four references.
    hyps, refs = _corpus(21, 700)
    for fold_case in (False, True):
        want = bleu(hyps, refs, fold_case=fold_case)
        assert want == counter_bleu(hyps, refs, fold_case=fold_case)
        got = bleu((h for h in hyps), ((r for r in rs) for rs in refs), fold_case=fold_case)
        assert got == want


def test_generators_are_checked_over_the_whole_corpus():
    hyps, refs = _corpus(22, 700)
    # Both totals are counted to the end, in either direction.
    with pytest.raises(ValueError, match="^got 600 hypotheses but 700 reference sets$"):
        bleu(iter(hyps[:600]), iter(refs))
    with pytest.raises(ValueError, match="^got 700 hypotheses but 300 reference sets$"):
        bleu(iter(hyps), iter(refs[:300]))
    # A missing reference set in a later block is named only when the
    # counts agree, as the mismatch outranks it.
    refs[500] = []
    with pytest.raises(ValueError, match="^got 699 hypotheses but 700 reference sets$"):
        bleu(iter(hyps[:699]), iter(refs))
    with pytest.raises(ValueError, match="^every hypothesis needs at least one reference$"):
        bleu(iter(hyps), iter(refs))
    with pytest.raises(ValueError, match="^hypothesis corpus is empty$"):
        bleu(iter([]), iter(refs))


def test_cli_holds_one_block_beyond_the_lines(tmp_path):
    # 20,000 sentences and two references.  The lines alone take 4.9 MB;
    # counted as one block, they peaked at 65 MB.
    rng = np.random.default_rng(23)
    paths = [tmp_path / name for name in ("hyp.txt", "ref1.txt", "ref2.txt")]
    for path in paths:
        path.write_text("".join(" ".join(sent) + "\n"
                                for sent in random_sentences(rng, 20_000, max_len=8)),
                        encoding="utf-8")
    out = tmp_path / "bleu.json"
    gc.collect()
    tracemalloc.start()
    try:
        assert main(["bleu", str(paths[0]), "--ref", str(paths[1]), "--ref", str(paths[2]),
                     "--json", "-o", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8_000_000, peak
