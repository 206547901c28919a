"""Greedy and beam-search decoding."""

import numpy as np

from ..corpus import BOS_ID, EOS_ID
# The searches step the decoder through _advance, on ids they produced
# themselves.  decode_step is not called here; it stays importable from
# this module, where bench/tracing.py wraps it.
from .model import _advance, decode_step, decoder_init, encode


def greedy_decode(model, src_ids, max_len=50):
    """Argmax decoding; ties resolve to the smallest id."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    enc = encode(model, src_ids)
    z = decoder_init(model, enc).z[None, :]
    out = []
    prev = BOS_ID
    for _ in range(max_len):
        z, logp, _ = _advance(model.params, enc, z, np.array([prev]))
        prev = int(np.argmax(logp))
        if prev == EOS_ID:
            break
        out.append(prev)
    return out


def _top(totals, width):
    """Ascending indices of the width largest totals, ties at the cut
    going to the smaller indices."""
    if width >= len(totals):
        return np.arange(len(totals))
    cut = len(totals) - width
    least = np.partition(totals, cut)[cut]
    top = (totals >= least).nonzero()[0]
    if len(top) > width:
        above = totals[top] > least
        top = top[above | (np.cumsum(~above) <= width - np.count_nonzero(above))]
    return top


def beam_decode(model, src_ids, beam_width=12, max_len=50):
    """Beam search returning the best length-normalized hypothesis.

    Each step expands every live hypothesis over the whole vocabulary
    and keeps the top beam_width extensions by accumulated
    log-probability, ties going to lexicographically smaller ids.
    Extensions emitting the sentence-end id retire to a finished pool;
    the search stops once beam_width hypotheses have finished or max_len
    steps have run.  The winner maximizes log-probability divided by
    emitted token count, ties going to the shorter output and then to
    lexicographically smaller ids.

    The live hypotheses are the rows of one decoder state, advanced by
    one decoder step per search step, and of an id matrix kept in
    lexicographic order.  Extension w of row i then has the flat index
    i * V + w, which orders candidates as their ids do: the survivors are
    the beam_width largest totals, ties at the cut going to the smaller
    flat indices, taken in flat order, which keeps the rows sorted.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be at least 1")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    enc = encode(model, src_ids)
    # Row i of z is ready to consume hyps[i, -1]; hyps hold the leading
    # BOS, scores the summed log-probabilities.
    z = decoder_init(model, enc).z[None, :]
    hyps = np.full((1, 1), BOS_ID)
    scores = np.zeros(1)
    params, vocab = model.params, model.config.tgt_vocab_size
    finished = []
    for _ in range(max_len):
        z, logp, _ = _advance(params, enc, z, hyps[:, -1])
        logp += scores[:, None]
        totals = logp.ravel()
        best = _top(totals, beam_width)
        rows, ids = np.divmod(best, vocab)
        ended = ids == EOS_ID
        if ended.any():
            finished += [(tuple(hyps[row].tolist()) + (EOS_ID,), totals[i])
                         for row, i in zip(rows[ended], best[ended])]
            if len(finished) >= beam_width or ended.all():
                break
            best, rows, ids = best[~ended], rows[~ended], ids[~ended]
        hyps = np.concatenate((hyps[rows], ids[:, None]), axis=1)
        scores = totals[best]
        z = z[rows]
    if finished:
        pool = [(ids[1:-1], score, len(ids) - 1) for ids, score in finished]
    else:
        pool = [(tuple(ids[1:]), score, len(ids) - 1)
                for ids, score in zip(hyps.tolist(), scores)]
    best = min(pool, key=lambda c: (-c[1] / c[2], len(c[0]), c[0]))
    return list(best[0])
