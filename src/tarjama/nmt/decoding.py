"""Greedy and beam-search decoding."""

import numpy as np

from ..corpus import BOS_ID, EOS_ID
from .model import DecoderState, encode, decoder_init, decode_step


def greedy_decode(model, src_ids, max_len=50):
    """Argmax decoding; ties resolve to the smallest id."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    enc = encode(model, src_ids)
    state = decoder_init(model, enc)
    out = []
    prev = BOS_ID
    for _ in range(max_len):
        state, logp = decode_step(model, state, prev, enc)
        prev = int(np.argmax(logp))
        if prev == EOS_ID:
            break
        out.append(prev)
    return out


def _shortlist(totals, width):
    """Indices of the width largest totals plus every total tied with
    the smallest of them."""
    if width >= len(totals):
        return range(len(totals))
    cut = len(totals) - width
    return np.flatnonzero(totals >= np.partition(totals, cut)[cut])


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
    one decode_step call per step.
    """
    if beam_width < 1:
        raise ValueError("beam_width must be at least 1")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    enc = encode(model, src_ids)
    start = decoder_init(model, enc)
    # Row i of state is ready to consume hyps[i][-1]; hyps hold the
    # leading BOS, scores the summed log-probabilities.
    state = DecoderState(start.z[None, :], start.alpha[None, :])
    hyps = [(BOS_ID,)]
    scores = np.zeros(1)
    vocab = model.config.tgt_vocab_size
    finished = []
    for _ in range(max_len):
        state, logp = decode_step(model, state, np.array([h[-1] for h in hyps]), enc)
        totals = (scores[:, None] + logp).ravel()
        best = sorted(_shortlist(totals, beam_width),
                      key=lambda i: (-totals[i], hyps[i // vocab] + (i % vocab,)))
        rows, live = [], []
        for i in best[:beam_width]:
            row, w = divmod(int(i), vocab)
            ids = hyps[row] + (w,)
            if w == EOS_ID:
                finished.append((ids, totals[i]))
            else:
                rows.append(row)
                live.append((ids, totals[i]))
        if len(finished) >= beam_width or not live:
            break
        hyps = [ids for ids, _ in live]
        scores = np.array([score for _, score in live])
        state = DecoderState(state.z[rows], state.alpha[rows])
    if finished:
        pool = [(ids[1:-1], score, len(ids) - 1) for ids, score in finished]
    else:
        pool = [(ids[1:], score, len(ids) - 1) for ids, score in live]
    best = min(pool, key=lambda c: (-c[1] / c[2], len(c[0]), c[0]))
    return list(best[0])
