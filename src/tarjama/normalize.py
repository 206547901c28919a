"""Orthographic normalization for Arabic and casing transforms for English.

The Arabic rules collapse alif variants, fold alif maqsura to ya, strip
diacritics and tatweel, and replace parentheses with bracket tokens so they
survive downstream tools.  Hamza carriers on waw/ya are deliberately left
alone.  Truecasing is the most-frequent-casing heuristic.
"""

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain

from .corpus import FormatError, read_table, write_table

ALIF = "ا"
ALIF_MADDA = "آ"
ALIF_HAMZA_ABOVE = "أ"
ALIF_HAMZA_BELOW = "إ"
ALIF_MAQSURA = "ى"
YA = "ي"
TATWEEL = "ـ"
SUPERSCRIPT_ALIF = "ٰ"

# Fathatan through sukun.
DIACRITICS = tuple(chr(c) for c in range(0x064B, 0x0653))


@dataclass
class NormRules:
    """Character-level rewrite table: char_map rewrites, strip_set deletes."""

    char_map: dict = field(default_factory=dict)
    strip_set: set = field(default_factory=set)

    def __post_init__(self):
        self.validate()
        # Stripping wins over a rewrite of the same character.
        self._table = str.maketrans(self.char_map | dict.fromkeys(self.strip_set))

    def validate(self):
        # Closure: a rewrite output must never contain a character that is
        # itself rewritten or stripped, otherwise a second pass would differ.
        for src, repl in self.char_map.items():
            for ch in repl:
                if ch in self.char_map or ch in self.strip_set:
                    raise ValueError(
                        "rule %r -> %r is not idempotent: output char %r is "
                        "itself mapped" % (src, repl, ch)
                    )

    def save(self, path):
        rows = sorted(self.char_map.items()) + [(src, "") for src in sorted(self.strip_set)]
        write_table(path, (("%04X" % ord(src), repl) for src, repl in rows))

    @classmethod
    def load(cls, path):
        char_map, strip_set = {}, set()
        for src, repl in zip(*read_table(path, "rule", lambda h: chr(int(h, 16)), str)):
            if repl:
                char_map[src] = repl
            else:
                strip_set.add(src)
        try:
            return cls(char_map, strip_set)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from None


def default_arabic_rules(lrb="-LRB-", rrb="-RRB-"):
    char_map = {
        ALIF_MADDA: ALIF,
        ALIF_HAMZA_ABOVE: ALIF,
        ALIF_HAMZA_BELOW: ALIF,
        ALIF_MAQSURA: YA,
        "(": lrb,
        ")": rrb,
    }
    strip_set = set(DIACRITICS) | {SUPERSCRIPT_ALIF, TATWEEL}
    return NormRules(char_map, strip_set)


DEFAULT_RULES = default_arabic_rules()


def normalize_arabic(text, rules=DEFAULT_RULES):
    """Apply a NormRules table to text.  Total and idempotent."""
    return text.translate(rules._table)


def lowercase(text):
    return text.lower()


@dataclass
class TruecaseModel:
    """Map lowercased word -> (most frequent surface casing, count)."""

    case_freq: dict = field(default_factory=dict)

    def surface(self, token):
        entry = self.case_freq.get(token.lower())
        return entry[0] if entry else None

    def save(self, path):
        write_table(path, ((lower, *self.case_freq[lower]) for lower in sorted(self.case_freq)))

    @classmethod
    def load(cls, path):
        lower, surface, count = read_table(path, "truecase", str, str, int)
        return cls(dict(zip(lower, zip(surface, count))))


def _best_casing(tally):
    # Highest count wins; ties prefer the lowercase spelling, then the
    # lexicographically smallest, so training is deterministic.
    def key(surface):
        return (-tally[surface], surface != surface.lower(), surface)

    return min(tally, key=key)


def truecase_train(corpus):
    """Learn each word's dominant casing from a tokenized corpus.

    Sentence-medial occurrences are the evidence; sentence-initial tokens sit
    in a forced-capitalization position, so their casing only counts for
    words never seen medially.
    """
    medial = defaultdict(Counter)
    initial = defaultdict(Counter)
    for sent in corpus:
        for pos, tok in enumerate(sent):
            (initial if pos == 0 else medial)[tok.lower()][tok] += 1
    case_freq = {}
    for lower, tally in chain(medial.items(), initial.items()):
        if lower not in case_freq:
            best = _best_casing(tally)
            case_freq[lower] = (best, tally[best])
    return TruecaseModel(case_freq)


def truecase_apply(sentence, model):
    """Replace each token by its modeled casing; unknown tokens pass through.

    Every token is looked up by its lowercase projection; in particular the
    sentence-initial token sheds its forced capital before lookup.
    """
    out = []
    for tok in sentence:
        surface = model.surface(tok)
        out.append(surface if surface is not None else tok)
    return out
