"""Fixed-seed synthetic Arabic-English parallel text.

The Arabic side builds words from stems drawn from the Arabic letter
range, with the default clitic inventory's proclitics and enclitics
attached.  Each sentence exists in two spellings: ``clean`` is already in
normalized form, and ``noisy`` carries diacritics and alif / alif-maqsura
variants that ``normalize`` must remove, so normalize(noisy) == clean.
The English side is aligned word by word, with a function word standing
in for each clitic.  Everything derives from one ``random.Random(seed)``.
"""

import random
from itertools import accumulate
from dataclasses import dataclass

from tarjama.segment import DEFAULT_INVENTORY

ALIF = "ا"
ALIF_VARIANTS = ("آ", "أ", "إ")  # madda, hamza above, hamza below
YA = "ي"
ALIF_MAQSURA = "ى"
DIACRITICS = tuple(chr(c) for c in range(0x064B, 0x0653))

# Letters 0x0621..0x064A minus the alif variants (normalize rewrites
# them), ta marbuta (segmentation restores it before an enclitic, so a
# stem containing it could make two surfaces share one segmented form),
# tatweel (normalize strips it) and alif maqsura (normalize rewrites it).
_EXCLUDED = set(ALIF_VARIANTS) | {"ة", "ـ", ALIF_MAQSURA}
STEM_LETTERS = tuple(
    ch for ch in map(chr, range(0x0621, 0x064B)) if ch not in _EXCLUDED
) + (ALIF,) * 3  # extra alifs so alif variants are common

# English stand-ins for each clitic, by its bare form.
_PROCLITIC_WORDS = {"و": "and", "ف": "so", "ب": "with", "ك": "like", "ل": "for", "س": "will"}
_ENCLITIC_WORDS = {
    "ه": "his", "ها": "her", "هم": "their", "هن": "their-f", "هما": "their-two",
    "ك": "your", "كم": "your-pl", "كن": "your-f", "كما": "your-two",
    "ي": "my", "نا": "our",
}
_CONJUNCTIONS = tuple(p[:-1] for p in DEFAULT_INVENTORY.proclitics if p[:-1] in "وف")
_PARTICLES = tuple(p[:-1] for p in DEFAULT_INVENTORY.proclitics if p[:-1] not in "وف")
_ENCLITICS = DEFAULT_INVENTORY.enclitics


@dataclass
class Pair:
    clean: str  # Arabic in normalized form, space-separated words
    noisy: str  # the same Arabic with diacritics and spelling variants
    english: str  # aligned English, space-separated words


@dataclass
class Lexicon:
    stems: list  # Arabic stems, most frequent first
    glosses: list  # aligned English word for each stem
    cum_weights: list  # cumulative Zipf weights for drawing a stem

    def top(self, n):
        """The n most frequent stems, drawn with the same relative weights."""
        return Lexicon(self.stems[:n], self.glosses[:n], self.cum_weights[:n])


def make_lexicon(rng, n_stems):
    # Lengths follow the frequency rank, not the seed, so that every seed
    # gives the same amount of text to process.
    stems, glosses, seen = [], [], set()
    while len(stems) < n_stems:
        rank = len(stems)
        stem = "".join(rng.choice(STEM_LETTERS) for _ in range(3 + rank % 5))
        if stem in seen:
            continue
        seen.add(stem)
        stems.append(stem)
        glosses.append("".join(rng.choice("bcdfghklmnprstvwz") + rng.choice("aeiou")
                               for _ in range(2 + rank % 3)))
    cum_weights = list(accumulate(1.0 / (rank + 1) for rank in range(n_stems)))
    return Lexicon(stems, glosses, cum_weights)


def _word(rng, lex, enclitic, particle, conjunction):
    k = rng.choices(range(len(lex.stems)), cum_weights=lex.cum_weights)[0]
    arabic, english = lex.stems[k], [lex.glosses[k]]
    if enclitic:
        enc = rng.choice(_ENCLITICS)
        arabic += enc
        english.insert(0, _ENCLITIC_WORDS[enc])
    if particle:
        part = rng.choice(_PARTICLES)
        arabic = part + arabic
        english.insert(0, _PROCLITIC_WORDS[part])
    if conjunction:
        conj = rng.choice(_CONJUNCTIONS)
        arabic = conj + arabic
        english.insert(0, _PROCLITIC_WORDS[conj])
    return arabic, english


def _shuffled_flags(rng, n, share):
    flags = [i < round(share * n) for i in range(n)]
    rng.shuffle(flags)
    return flags


def _noisy(rng, word):
    out = []
    for i, ch in enumerate(word):
        if ch == ALIF and rng.random() < 0.4:
            ch = rng.choice(ALIF_VARIANTS)
        elif ch == YA and i == len(word) - 1 and rng.random() < 0.4:
            ch = ALIF_MAQSURA
        out.append(ch)
        if rng.random() < 0.1:
            out.append(rng.choice(DIACRITICS))
    return "".join(out)


def make_pairs(rng, lex, n, min_words, max_words, clitic_share=0.2):
    """n sentence pairs whose Arabic lengths are spread evenly over
    min_words..max_words, in seeded order.  Each clitic slot is filled on
    exactly clitic_share of the words."""
    lengths = [min_words + i % (max_words - min_words + 1) for i in range(n)]
    rng.shuffle(lengths)
    words = sum(lengths)
    slots = list(zip(*(_shuffled_flags(rng, words, clitic_share) for _ in range(3))))
    pairs = []
    for length in lengths:
        clean, noisy, english = [], [], []
        for _ in range(length):
            arabic, gloss = _word(rng, lex, *slots.pop())
            clean.append(arabic)
            noisy.append(_noisy(rng, arabic))
            english.extend(gloss)
        pairs.append(Pair(" ".join(clean), " ".join(noisy), " ".join(english)))
    return pairs


def perturb(rng, sentence):
    """A second reference: drop one word and swap one adjacent pair."""
    words = sentence.split()
    if len(words) > 2:
        del words[rng.randrange(len(words))]
        i = rng.randrange(len(words) - 1)
        words[i], words[i + 1] = words[i + 1], words[i]
    return " ".join(words)


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in lines))


def rng_for(seed, label):
    """Independent stream per input set, so resizing one leaves the others."""
    return random.Random("%d/%s" % (seed, label))
