"""Punctuation tokenization, ATB-style clitic segmentation of Arabic, and
detokenization via a corpus lookup table with rule back-off.

The segmenter is a deterministic rule/lexicon approximation of the treebank
scheme: one conjunction slot, one particle slot, one pronominal enclitic
slot, definite article never split, ta marbuta restored when an enclitic
comes off.  Proclitics carry a trailing ``+`` marker, enclitics a leading
one, and segmentation is undone either by table lookup (most frequent
surface wins) or by three concatenation rules.  The table holds one count
per (segmented form, surface) pair and each form's current best surface;
detokenizing gives each token a one-letter kind and finds the marker-linked
runs with one regular expression over the string of kinds.
"""

import logging
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress

from .corpus import FormatError, read_lines, read_table, write_lines

log = logging.getLogger(__name__)

PUNCT = ".,!?;:«»\"'()[]%…،؛؟"

# Longest useful match first: acronyms (letter-period pairs), digit runs with
# internal . , : separators, then anything that is neither space nor listed
# punctuation, then single punctuation characters.
_LETTER = r"[^\W\d_]"
_TOKEN_RE = re.compile(
    "(?:%s\\.){2,}" % _LETTER
    + r"|\d+(?:[.,:]\d+)*"
    + "|[^\\s%s]+" % re.escape(PUNCT)
    + "|[%s]" % re.escape(PUNCT)
)

# Standard Arabic letter range (hamza through ya); a token qualifies for
# clitic stripping only if every character is in it.
_ARABIC_LETTERS = "".join(chr(c) for c in range(0x0621, 0x064B))

TA = "ت"
TA_MARBUTA = "ة"
_CONJUNCTIONS = ("و", "ف")  # waw, fa
_DEFINITE_ARTICLE = "ال"  # alif lam


def simple_tokenize(text):
    """Split text into tokens, separating listed punctuation.

    Digit runs keep internal ``.``/``,``/``:`` (3.14, 1,000, 12:30) and
    letter-period acronyms (U.S.) stay whole; every other punctuation
    character from the inventory becomes its own token.  No non-whitespace
    character is ever dropped.
    """
    return _TOKEN_RE.findall(text)


@dataclass(frozen=True)
class CliticInventory:
    """Clitic lists with attachment markers plus stem constraints.

    proclitics are stored marker-side out ("و+"); enclitics are bare suffix
    strings.  min_stem_len guards against stripping short function words
    down to nothing; stem_lexicon, when given, whitelists valid stems.
    """

    proclitics: tuple = ("و+", "ف+", "ب+", "ك+", "ل+", "س+")
    enclitics: tuple = ("ه", "ها", "هم", "هن", "هما", "ك", "كم", "كن", "كما", "ي", "نا")
    min_stem_len: int = 3
    stem_lexicon: frozenset = None

    def __post_init__(self):
        for p in self.proclitics:
            if len(p) < 2 or not p.endswith("+") or "+" in p[:-1]:
                raise ValueError(f"proclitic {p!r} must be of the form X+")
        for e in self.enclitics:
            if not e or "+" in e:
                raise ValueError(f"enclitic {e!r} must be a bare suffix string")
        if self.min_stem_len < 1:
            raise ValueError("min_stem_len must be positive")

    # Derived once per (frozen) inventory.
    @cached_property
    def conjunction_slot(self):
        return tuple(p[:-1] for p in self.proclitics if p[:-1] in _CONJUNCTIONS)

    @cached_property
    def particle_slot(self):
        return tuple(p[:-1] for p in self.proclitics if p[:-1] not in _CONJUNCTIONS)

    @cached_property
    def pattern(self):
        """atb_segment's split of an all-Arabic word into conjunction, particle,
        stem and enclitic.  Each proclitic slot takes its first clitic, in
        inventory order, that leaves min_stem_len letters; the lazy stem
        leaves the longest enclitic that fits."""
        letters, n = f"[{_ARABIC_LETTERS}]", self.min_stem_len
        slots = (self.conjunction_slot, self.particle_slot,
                 sorted(self.enclitics, key=lambda e: (-len(e), e)))
        # (?!) never matches: an empty slot takes no clitic.
        conj, particle, enclitic = ("|".join(map(re.escape, slot)) or "(?!)" for slot in slots)
        rest = f"(?={letters}{{{n}}})"
        return re.compile(f"(?:({conj}){rest})?(?:({particle}){rest})?"
                          f"({letters}{{{n},}}?)({enclitic})?")

    @classmethod
    def from_file(cls, path, **kwargs):
        """Read one clitic per line, ``X+`` for proclitics, ``+X`` for enclitics."""
        pro, enc = [], []
        for lineno, line in enumerate(read_lines(path), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if len(line) > 1 and line.endswith("+") and "+" not in line[:-1]:
                pro.append(line)
            elif len(line) > 1 and line.startswith("+") and "+" not in line[1:]:
                enc.append(line[1:])
            else:
                raise FormatError(f"{path}:{lineno}: expected X+ or +X, got {line!r}")
        return cls(proclitics=tuple(pro), enclitics=tuple(enc), **kwargs)


DEFAULT_INVENTORY = CliticInventory()


def _is_arabic_word(token):
    return bool(token) and not token.strip(_ARABIC_LETTERS)


def atb_segment(token, inv=DEFAULT_INVENTORY):
    """segment_words of one word."""
    return next(segment_words([token], inv))


def segment_words(words, inv=DEFAULT_INVENTORY):
    """Split each word into [proclitics...] stem [enclitic] with markers.

    Greedy: at most one conjunction, then at most one particle, then the
    longest matching enclitic, each strip conditional on the remainder
    keeping at least min_stem_len letters; inv.pattern makes the whole
    split in one match.  The definite article is never split (alif is not
    a proclitic, so ال survives any strip).  When an enclitic is removed
    and the stem ends in ta, the ta is restored to ta marbuta
    (unconditionally without a lexicon; with one, only if the restored
    stem is listed).  If a stem_lexicon is supplied and the final stem is
    not in it, the whole segmentation is abandoned.

    Tokens containing anything but Arabic letters are returned unsegmented,
    with literal ``+`` escaped as ``\\+`` so it cannot read as a marker.
    Yields one list per word, as it is asked for.
    """
    fullmatch, lexicon = inv.pattern.fullmatch, inv.stem_lexicon
    for token in words:
        match = _is_arabic_word(token) and fullmatch(token)
        if not match:  # not all Arabic letters, or shorter than min_stem_len
            yield [token.replace("+", "\\+")]
            continue
        conj, particle, stem, enclitic = match.groups()
        if enclitic and stem.endswith(TA):
            restored = stem[:-1] + TA_MARBUTA
            if lexicon is None or restored in lexicon:
                stem = restored
        if stem == token or lexicon is not None and stem not in lexicon:
            yield [token]  # no clitic came off, or the stem is unlisted
            continue
        out = [stem, "+" + enclitic] if enclitic else [stem]
        if particle:  # list + list, unlike insert, leaves no spare slots
            out = [particle + "+"] + out
        if conj:
            out = [conj + "+"] + out
        yield out


class _Kinds(dict):
    """Token -> _kind(token), each found once."""

    def __missing__(self, token):
        kind = self[token] = _kind(token)
        return kind


@dataclass
class DetokTable:
    """Frequency map from segmented form (space-joined, with markers) back
    to observed surface forms, filled by add or from whole columns."""

    counts: dict = field(default_factory=dict, init=False)  # (key, surface) -> count
    best: dict = field(default_factory=dict, init=False)  # key -> lookup(key)
    # token -> its kind, as detokenize reads it
    _kinds: dict = field(default_factory=_Kinds, init=False, repr=False, compare=False)

    def add(self, key, surface, count=1):
        count += self.counts.get((key, surface), 0)
        self.counts[key, surface] = count
        # Counts only grow, so only the surface just counted can take over.
        best = self.best.get(key)
        if best is None or (-count, surface) < (-best[1], best[0]):
            self.best[key] = (surface, count)

    def lookup(self, key):
        """Best (surface, count) for a segmented form, or None.

        Most frequent surface wins; count ties go to the lexicographically
        smaller surface.
        """
        return self.best.get(key)

    def __len__(self):
        return len(self.best)

    def save(self, path):
        """Write one line per (key, surface) pair, in sorted pair order."""
        counts = self.counts
        write_lines(path, [f"{key}\t{surface}\t{counts[key, surface]}"
                           for key, surface in sorted(counts)])

    @classmethod
    def load(cls, path, inv=None):
        """Read a table; with an inventory, re-check that each surface still
        segments to its key.  The rows that do not are kept, since the
        table is authoritative, and logged in one warning."""
        keys, surfaces, counts = read_table(path, "table", str, str, _positive_int, keys=2)
        if inv is not None:
            segmented = map(" ".join, segment_words(surfaces, inv))
            failing = compress(range(len(keys)), map(str.__ne__, keys, segmented))
            first = next(failing, None)
            if first is not None:
                log.warning("detok table %s: %d of %d surfaces no longer segment to their key; "
                            "the first is %r under %r", path, 1 + sum(1 for _ in failing),
                            len(keys), surfaces[first], keys[first])
        return cls._from_rows(keys, surfaces, counts)

    @classmethod
    def _from_rows(cls, keys, surfaces, counts):
        """add's table for distinct (key, surface) rows, without a call per row."""
        table = cls()
        table.counts = dict(zip(zip(keys, surfaces), counts))
        best = table.best
        for (key, surface), count in table.counts.items():
            held = best.get(key)
            if held is None or (-count, surface) < (-held[1], held[0]):
                best[key] = (surface, count)
        return table


def _positive_int(text):
    count = int(text)
    if count <= 0:
        raise ValueError
    return count


def segment_corpus(corpus, inv=DEFAULT_INVENTORY):
    """Segment every token of every sentence; build the detok table.

    Every word contributes a table entry, identity segmentations included,
    so that seen data always round-trips by lookup.  Each distinct token is
    segmented once and enters the table once, with its count.  The corpus is
    held with one str object per distinct token.
    """
    first = {}
    corpus = [[first.setdefault(token, token) for token in sent] for sent in corpus]
    del first
    counts = Counter(chain.from_iterable(corpus))
    segs = dict(zip(counts, segment_words(counts, inv)))
    table = DetokTable._from_rows(map(" ".join, segs.values()), counts, counts.values())
    return [[seg for token in sent for seg in segs[token]] for sent in corpus], table


def _kind(token):
    """P for a proclitic (x+), E for an enclitic (+x), B for both (+x+),
    S for anything else, an escaped ``\\+`` included."""
    if len(token) < 2:
        return "S"
    return "SEPB"[2 * (token[-1] == "+" and token[-2] != "\\") + (token[0] == "+")]


# A run: proclitics, at most one stem, enclitics; B is a proclitic before
# the stem and an enclitic after it.  A run starts at a token: (?=.) keeps
# out the empty match after the last one.
_RUN_RE = re.compile("(?=.)([PB]*)(S?)([EB]*)")


def _rules_join(proclitics, stem, enclitics):
    """R1 strip markers and concatenate; R2 ta marbuta back to ta before an
    enclitic; R3 lam before a definite article swallows the article's alif."""
    if enclitics and stem.endswith(TA_MARBUTA):
        stem = stem[:-1] + TA
    if proclitics and proclitics[-1] == "ل+" and stem.startswith(_DEFINITE_ARTICLE):
        stem = stem[1:]
    return "".join(p[:-1] for p in proclitics) + stem + "".join(e[1:] for e in enclitics)


def detokenize(tokens, table=None):
    """Rejoin marker-linked runs into surface words.

    Each maximal run proclitics+ ... stem ... +enclitics is resolved by
    table lookup first, then by the back-off rules.  Unmarked tokens pass
    through (with ``\\+`` unescaped).  Malformed runs (no stem, or a
    dangling proclitic at sentence end) are closed as-is via R1 with a
    warning.
    """
    kinds = "".join(map(_kind if table is None else table._kinds.__getitem__, tokens))
    out = []
    for run in _RUN_RE.finditer(kinds):
        start, end = run.span()
        if run.group() == "S":
            out.append(tokens[start].replace("\\+", "+"))
            continue
        group = tokens[start:end]
        if table is not None:
            hit = table.lookup(" ".join(group))
            if hit is not None:
                out.append(hit[0])
                continue
        pros, stem, encs = (tokens[slice(*run.span(g))] for g in (1, 2, 3))
        if not stem:
            log.warning("detokenize: marker run %r has no stem", group)
        out.append(_rules_join(pros, "".join(stem), encs))
    return out
