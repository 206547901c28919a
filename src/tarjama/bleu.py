"""Corpus-level multi-reference BLEU-4.

Modified n-gram precision with per-sentence clipping at the maximum
reference count, closest-reference effective length (ties toward the
shorter reference), brevity penalty min(1, exp(1 - ref/hyp)), and no
smoothing: any zero precision zeroes the score.
"""

import json
import math
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP

MAX_ORDER = 4


@dataclass
class BleuReport:
    bleu: float
    precisions: tuple  # p_1..p_4
    brevity_penalty: float
    hyp_len: int
    ref_len: int

    def to_json(self):
        return json.dumps(
            {
                "bleu": self.bleu,
                "precisions": list(self.precisions),
                "brevity_penalty": self.brevity_penalty,
                "hyp_len": self.hyp_len,
                "ref_len": self.ref_len,
            }
        )

    def summary(self):
        return "BLEU = %.2f, P = %s, BP = %.3f" % (
            self.bleu * 100,
            "/".join("%.1f" % (p * 100) for p in self.precisions),
            self.brevity_penalty,
        )


def _ngrams(tokens):
    """Counts of every n-gram of orders 1..MAX_ORDER, in one Counter."""
    counts = Counter()
    for n in range(1, MAX_ORDER + 1):
        counts.update(zip(*(tokens[k:] for k in range(n))))
    return counts


def _closest_ref_len(hyp_len, ref_lens):
    # Closest reference length; ties go to the shorter reference.
    return min(ref_lens, key=lambda r: (abs(r - hyp_len), r))


def bleu(hypotheses, references, fold_case=False):
    """Corpus BLEU-4 over hypotheses and per-sentence reference sets.

    references[i] is the list of reference token sequences for
    hypotheses[i].  With fold_case, tokens are lowercased before counting.
    """
    hypotheses = list(hypotheses)
    references = list(references)
    if not hypotheses:
        raise ValueError("hypothesis corpus is empty")
    if len(hypotheses) != len(references):
        raise ValueError(
            "got %d hypotheses but %d reference sets"
            % (len(hypotheses), len(references))
        )

    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, refs in zip(hypotheses, references):
        refs = list(refs)
        if not refs:
            raise ValueError("every hypothesis needs at least one reference")
        if fold_case:
            hyp = [t.lower() for t in hyp]
            refs = [[t.lower() for t in ref] for ref in refs]
        hyp_len += len(hyp)
        ref_len += _closest_ref_len(len(hyp), [len(r) for r in refs])
        max_ref = _ngrams(refs[0])
        for ref in refs[1:]:
            max_ref |= _ngrams(ref)
        for gram, count in _ngrams(hyp).items():
            matches[len(gram) - 1] += min(count, max_ref[gram])
        for n in range(1, min(len(hyp), MAX_ORDER) + 1):
            totals[n - 1] += len(hyp) - n + 1

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
