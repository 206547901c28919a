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
from itertools import chain, repeat

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


def learn_bpe(word_freqs, target_vocab_size):
    """Learn a merge list from word frequencies.

    Stops once the working symbol vocabulary reaches target_vocab_size or no
    pair occurs at least twice.  A merge recounts only the pairs next to the
    sites it merges, in the words that may hold its pair; results are
    identical to recounting from scratch each round.
    """
    if target_vocab_size < 1:
        raise ValueError("target_vocab_size must be positive")
    if min(word_freqs.values(), default=1) < 1:
        word, freq = next((w, f) for w, f in word_freqs.items() if f < 1)
        raise ValueError(f"word {word!r} has count {freq}; counts must be >= 1")
    # symbol -> its number of occurrences over the word types; its length is
    # the symbol vocabulary.  Each merged site turns one occurrence of each
    # of the pair's symbols into one of the merged symbol.
    occurrences = Counter(chain.from_iterable(word_freqs))
    if target_vocab_size < len(occurrences):
        raise ValueError("target_vocab_size %d is below the initial character vocabulary; "
                         "minimum is %d" % (target_vocab_size, len(occurrences)))

    words = list(map(tuple, word_freqs))  # word index -> its symbols
    freqs = list(word_freqs.values())
    # pair -> indices of the words it was counted in, a word once per count;
    # a word that has since lost the pair stays listed, and merges nothing.
    where = defaultdict(list)
    for i, word in enumerate(word_freqs):
        for pair in zip(word, word[1:]):
            where[pair].append(i)
    # Frequency-weighted counts of every adjacent symbol pair.
    counts = {pair: sum(map(freqs.__getitem__, held)) for pair, held in where.items()}

    merges = []
    # (-count, pair) entries, ties going to the smallest pair.  A merge pushes
    # every count it changes; an entry whose count no longer holds is stale.
    heap = [(-count, pair) for pair, count in counts.items()]
    heapq.heapify(heap)
    while len(occurrences) < target_vocab_size and heap:
        neg, pair = heapq.heappop(heap)
        if counts.get(pair) != -neg:
            continue
        if -neg < 2:
            break
        merges.append(pair)
        joined = "".join(pair)
        delta = {}
        sites = 0
        for i in set(where.pop(pair)):  # no word holds the pair afterwards
            old = words[i]
            words[i] = new = merge_word(old, pair)
            merged = len(old) - len(new)
            if not merged:
                continue
            sites += merged
            # Only pairs from the symbol before the first joined one to the
            # one after the last can change; the rest is as it was.
            lo = max(new.index(joined) - 1, 0)
            end = len(new) + 1 - new[::-1].index(joined)
            for p in zip(old[lo:end + merged], old[lo + 1:end + merged]):
                delta[p] = delta.get(p, 0) - freqs[i]
            for p in zip(new[lo:end], new[lo + 1:end]):
                delta[p] = delta.get(p, 0) + freqs[i]
                where[p].append(i)
        occurrences[joined] += sites
        for s in pair:  # a symbol paired with itself loses two per site
            occurrences[s] -= sites
            if not occurrences[s]:
                del occurrences[s]
        for p, change in delta.items():
            if change:
                counts[p] = counts.get(p, 0) + change
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
    """Concatenate continuation-marked tokens, which hold no space (as from
    str.split), back into whole words with one replace over their join.  A
    marker-only token adds nothing; pieces unjoined at the end are kept as
    one word, with a warning."""
    text = " ".join([*sentence, ""]).replace(CONTINUATION + " ", "")
    if text.endswith(" "):  # the last token was unmarked
        return text[:-1].split(" ")
    if text:
        log.warning("undo_bpe: dangling continuation marker at sentence end")
        return text.split(" ")
    return []
