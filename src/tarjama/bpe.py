"""Byte-pair-encoding subwords over an already-tokenized corpus.

Learning iteratively merges the most frequent adjacent symbol pair across
word types (frequency-weighted, every adjacency counted); application
merges each word's pairs in rank order, with the same result as replaying
the merge list, and marks non-final subwords with the ``@@`` continuation
suffix, which undo_bpe concatenates away.
"""

import heapq
import logging
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import repeat

from .corpus import FormatError, read_table, write_table

log = logging.getLogger(__name__)

CONTINUATION = "@@"
_HEADER = "#bpe v1 vocab="


@dataclass
class BpeModel:
    merges: list = field(default_factory=list)  # list of (left, right)
    target_vocab_size: int = 0

    def __post_init__(self):
        if len(set(self.merges)) != len(self.merges):
            raise ValueError("merge list contains duplicate pairs")
        self._ranks = {pair: rank for rank, pair in enumerate(self.merges)}
        self._pieces = {}  # word -> apply_bpe's output for it

    def save(self, path):
        write_table(path, self.merges, sep=" ", header=f"{_HEADER}{self.target_vocab_size}")

    @classmethod
    def load(cls, path):
        target, (left, right) = read_table(path, "bpe", str, str, sep=" ", header=_vocab_size,
                                             keys=2)
        try:
            return cls(list(zip(left, right)), target)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None


def _vocab_size(header):
    if not header.startswith(_HEADER):
        raise ValueError
    return int(header[len(_HEADER):])


def merge_word(symbols, pair):
    """Replace adjacent occurrences of pair, non-overlapping left-to-right."""
    left, right = pair
    out = []
    i = 0
    n = len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == left and symbols[i + 1] == right:
            out.append(left + right)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def _pair_counts(vocab):
    """Frequency-weighted counts of every adjacent symbol pair, and which
    words contain each pair."""
    counts = Counter()
    where = defaultdict(set)
    for word, (symbols, freq) in vocab.items():
        for a, b in zip(symbols, symbols[1:]):
            counts[(a, b)] += freq
            where[(a, b)].add(word)
    return counts, where


def learn_bpe(word_freqs, target_vocab_size):
    """Learn a merge list from word frequencies.

    Stops once the working symbol vocabulary reaches target_vocab_size or no
    pair occurs at least twice.  Pair statistics are updated incrementally,
    touching only the words that contained the merged pair; results are
    identical to recounting from scratch each round.
    """
    if target_vocab_size < 1:
        raise ValueError("target_vocab_size must be positive")
    vocab = {}
    # symbol -> number of words holding it; its length is the symbol
    # vocabulary, kept current by touching only the words a merge changes.
    holders = Counter()
    for word, freq in word_freqs.items():
        if freq < 1:
            raise ValueError(f"word {word!r} has count {freq}; counts must be >= 1")
        vocab[word] = (tuple(word), freq)
        holders.update(set(word))

    initial = len(holders)
    if target_vocab_size < initial:
        raise ValueError(
            "target_vocab_size %d is below the initial character vocabulary; "
            "minimum is %d" % (target_vocab_size, initial)
        )

    merges = []
    counts, where = _pair_counts(vocab)
    # (-count, pair) entries, ties going to the smallest pair.  A merge pushes
    # every count it changes; an entry whose count no longer holds is stale.
    heap = [(-count, pair) for pair, count in counts.items()]
    heapq.heapify(heap)
    while len(holders) < target_vocab_size and heap:
        neg, pair = heapq.heappop(heap)
        if counts.get(pair) != -neg:
            continue
        if -neg < 2:
            break
        merges.append(pair)
        delta = Counter()
        # Only the pair's symbols can leave a word, only the merged one join.
        changing = {*pair, "".join(pair)}
        for word in where.pop(pair):  # no word holds the pair afterwards
            symbols, freq = vocab[word]
            new = merge_word(symbols, pair)
            vocab[word] = (new, freq)
            for p in zip(symbols, symbols[1:]):
                delta[p] -= freq
                where[p].discard(word)
            for p in zip(new, new[1:]):
                delta[p] += freq
                where[p].add(word)
            for s in changing:
                holders[s] += (s in new) - (s in symbols)
                if not holders[s]:  # pair symbols only fall, the merged one only rises
                    del holders[s]
        for p, change in delta.items():
            if change:
                counts[p] += change
                if counts[p] > 0:
                    heapq.heappush(heap, (-counts[p], p))
                else:
                    del counts[p]
    return BpeModel(merges, target_vocab_size)


def segment_word(word, model):
    """Subword symbols for one word: split to characters, then merge pairs
    in rank order.

    Each step merges the present pair of lowest rank above the last merge
    applied, which is replaying the merge list with the merges that find
    nothing to join skipped.  The lowest present rank alone would differ:
    a merge can create a pair of lower rank than itself, which replay has
    already passed.
    """
    ranks = model._ranks
    symbols = tuple(word)
    last = -1
    while len(symbols) > 1:
        rank = min((r for r in map(ranks.get, zip(symbols, symbols[1:]), repeat(-1))
                    if r > last), default=None)
        if rank is None:
            break
        symbols = merge_word(symbols, model.merges[rank])
        last = rank
    return symbols


def apply_bpe(sentence, model):
    """Split every token into subwords, marking non-final pieces with @@.

    Each word is segmented once per model; an empty token yields nothing.
    """
    out = []
    for word in sentence:
        pieces = model._pieces.get(word)
        if pieces is None:
            symbols = segment_word(word, model)
            pieces = [sym + CONTINUATION for sym in symbols[:-1]] + list(symbols[-1:])
            model._pieces[word] = pieces
        out.extend(pieces)
    return out


def undo_bpe(sentence):
    """Concatenate continuation-marked tokens back into whole words."""
    out = []
    buffer = ""
    for tok in sentence:
        if tok.endswith(CONTINUATION):
            buffer += tok[: -len(CONTINUATION)]
        else:
            out.append(buffer + tok)
            buffer = ""
    if buffer:
        log.warning("undo_bpe: dangling continuation marker at sentence end")
        out.append(buffer)
    return out
