"""Corpus-level multi-reference BLEU-4.

Modified n-gram precision with per-sentence clipping at the maximum
reference count, closest-reference effective length (ties toward the
shorter reference), brevity penalty min(1, exp(1 - ref/hyp)), and no
smoothing: any zero precision zeroes the score.
"""

import json
import math
from dataclasses import asdict, dataclass
from decimal import Decimal, ROUND_HALF_UP
from itertools import chain, islice

import numpy as np

from .ngram import _Numbering, ngram_rows

MAX_ORDER = 4
BLOCK = 256  # sentence pairs counted at once


@dataclass
class BleuReport:
    bleu: float
    precisions: tuple  # p_1..p_4
    brevity_penalty: float
    hyp_len: int
    ref_len: int

    def to_json(self):
        return json.dumps(asdict(self))

    def summary(self):
        return "BLEU = %.2f, P = %s, BP = %.3f" % (
            self.bleu * 100,
            "/".join("%.1f" % (p * 100) for p in self.precisions),
            self.brevity_penalty,
        )


def _closest_ref_len(hyp_len, ref_lens):
    # Closest reference length; ties go to the shorter reference.
    return min(ref_lens, key=lambda r: (abs(r - hyp_len), r))


def _block_stats(hypotheses, references, fold_case):
    """[hyp_len, ref_len, matches_1..4, totals_1..4] of one block: equal
    lists of hypotheses and nonempty lists of their references."""
    n = len(hypotheses)
    hyp_len = sum(map(len, hypotheses))
    ref_len = sum(_closest_ref_len(len(hyp), [len(r) for r in refs])
                  for hyp, refs in zip(hypotheses, references))

    # Every sentence, with its group: i for hypothesis i, k * n + i for its
    # k-th reference.
    sentences = hypotheses + [ref for refs in references for ref in refs]
    groups = list(range(n)) + [k * n + i for i, refs in enumerate(references)
                               for k in range(1, len(refs) + 1)]
    lengths = np.array(list(map(len, sentences)), np.int64)
    group = np.repeat(np.array(groups, np.int64), lengths)

    types = _Numbering()
    ids = np.fromiter(map(types.__getitem__, chain.from_iterable(sentences)), np.int64)
    if fold_case:  # fold each type once, then map every id through it
        folded = _Numbering()
        ids = np.fromiter(map(folded.__getitem__, map(str.lower, types)), np.int64)[ids]
        types = folded
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(ids))

    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    for m, pos, grams, _, rows in ngram_rows(ids, room, len(types), MAX_ORDER):
        stride = n * len(grams)  # one reference's keys past the hypotheses'
        keys, counts = np.unique(group[pos] * len(grams) + rows[pos],
                                 return_counts=True)
        hyp = np.searchsorted(keys, stride)  # the hypotheses' keys sort first
        max_ref = np.zeros(hyp, np.int64)
        for k in range(1, max(map(len, references)) + 1):
            want = keys[:hyp] + k * stride
            at = np.searchsorted(keys, want).clip(max=len(keys) - 1)
            max_ref = np.maximum(max_ref, np.where(keys[at] == want, counts[at], 0))
        matches[m - 1] = int(np.minimum(counts[:hyp], max_ref).sum())
        totals[m - 1] = int(counts[:hyp].sum())
    return [hyp_len, ref_len] + matches + totals


def bleu(hypotheses, references, fold_case=False):
    """Corpus BLEU-4 over hypotheses and per-sentence reference sets.

    references[i] is the list of reference token sequences for
    hypotheses[i].  Either may be any iterable, a generator included:
    sentence pairs are taken BLOCK at a time, so memory is bounded by a
    block, not by the corpus.  With fold_case, tokens are lowercased
    before counting.

    All counting is on integers, and every statistic (lengths, matches,
    totals) is a sum over sentences, so blocks add up to exactly the
    corpus's counts.  Within a block of n pairs, ngram_rows numbers the
    n-grams of every sentence together; with R distinct n-grams of an
    order in the block, row r in hypothesis i has key i * R + r and in its
    k-th reference key (k * n + i) * R + r.  One np.unique per order counts
    every key, and a hypothesis key's count in reference k lies k * n * R
    further on.

    A failed check is raised only when both inputs are used up, so the
    hypothesis and reference totals it names are the whole corpus's.
    """
    hypotheses, references = iter(hypotheses), iter(references)
    n_hyp = n_ref = 0
    missing_ref = False
    stats = [0] * (2 + 2 * MAX_ORDER)
    while True:
        hyps = list(islice(hypotheses, BLOCK))
        refs = list(islice(references, BLOCK))
        if not hyps and not refs:
            break
        n_hyp += len(hyps)
        n_ref += len(refs)
        if n_hyp != n_ref or missing_ref:  # a check fails: only count on
            continue
        refs = [list(r) for r in refs]
        if not all(refs):
            missing_ref = True
            continue
        stats = [a + b for a, b in zip(stats, _block_stats(hyps, refs, fold_case))]
    if not n_hyp:
        raise ValueError("hypothesis corpus is empty")
    if n_hyp != n_ref:
        raise ValueError("got %d hypotheses but %d reference sets" % (n_hyp, n_ref))
    if missing_ref:
        raise ValueError("every hypothesis needs at least one reference")

    hyp_len, ref_len = stats[:2]
    matches, totals = stats[2:2 + MAX_ORDER], stats[2 + MAX_ORDER:]
    precisions = tuple(
        (matches[n] / totals[n]) if totals[n] else 0.0 for n in range(MAX_ORDER)
    )
    if hyp_len == 0:
        return BleuReport(0.0, precisions, 0.0, 0, ref_len)
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / MAX_ORDER)
    return BleuReport(score, precisions, bp, hyp_len, ref_len)


def bleu_delta(report_a, report_b):
    """Signed difference in BLEU points: (b - a)·100, 2 decimals.

    Accepts BleuReport objects or bare scores in [0,1].  Rounding is
    half-away-from-zero so published-style deltas are stable.
    """
    a = report_a.bleu if isinstance(report_a, BleuReport) else float(report_a)
    b = report_b.bleu if isinstance(report_b, BleuReport) else float(report_b)
    diff = Decimal(repr((b - a) * 100)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP)
    return float(diff)
