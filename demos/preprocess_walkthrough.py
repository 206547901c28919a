"""Walk one Arabic sentence and one English sentence through every
preprocessing stage, then invert the whole thing.

Run from the repository root after installing the package:

    python3 demos/preprocess_walkthrough.py
"""

from tarjama.bpe import apply_bpe, learn_bpe, undo_bpe
from tarjama.normalize import default_arabic_rules, normalize_arabic, \
    truecase_apply, truecase_train
from tarjama.segment import DEFAULT_INVENTORY, atb_segment, detokenize, \
    segment_corpus, simple_tokenize

arabic = "ذَهَبَ إلى المدرسة وقال ( نعم ) لمُعلّمه"
english = "The Teacher said YES when We arrived"

print("raw Arabic:  ", arabic)
print("raw English: ", english)

# Stage 1: orthographic normalization. Diacritics vanish, alif variants
# collapse, and bare parentheses get unambiguous spellings.
rules = default_arabic_rules()
normalized = normalize_arabic(arabic, rules)
print("\nnormalized:  ", normalized)
assert normalize_arabic(normalized, rules) == normalized  # idempotent

# Stage 2: punctuation-aware tokenization, same routine for both sides.
ar_tokens = simple_tokenize(normalized)
en_tokens = simple_tokenize(english)
print("Arabic tokens:", ar_tokens)
print("English tokens:", en_tokens)

# Stage 3 (Arabic): split attached conjunctions, particles, and pronouns.
# segment_corpus also records every surface form it split, so the exact
# original can be recovered later even where the joining rules are
# ambiguous.
segmented, table = segment_corpus([ar_tokens], DEFAULT_INVENTORY)
print("\nsegmented:   ", segmented[0])
for word in ("وقال", "لمعلمه", "والكتاب", "ولمركبته"):
    print("  %-12s -> %s" % (word, atb_segment(word, DEFAULT_INVENTORY)))

# Stage 3 (English): statistical truecasing. Train on a few lines where
# casing is informative, then normalize the sentence's casing.
corpus = [
    "the teacher said yes".split(),
    "We saw the Teacher".split(),
    "We arrived at noon".split(),
    "NASA launched at noon".split(),
]
truecase = truecase_train(corpus)
truecased = truecase_apply([t.lower() for t in en_tokens], truecase)
print("\ntruecased:   ", truecased)

# Stage 4: byte-pair encoding. Learn merges from word frequencies, then
# split rare words into subword pieces marked with a continuation @@.
freqs = {}
for sent in corpus:
    for tok in sent:
        freqs[tok] = freqs.get(tok, 0) + 1
freqs.update({"teach": 3, "reaching": 2, "teaching": 5})
bpe = learn_bpe(freqs, len({c for w in freqs for c in w}) + 12)
print("\nfirst merges:", bpe.merges[:6])
pieces = apply_bpe(["teaching", "reacher", "noon"], bpe)
print("pieces:      ", pieces)

# Inversion: undo BPE, then rejoin the clitics. Byte-for-byte identical
# to what went in.
assert undo_bpe(pieces) == ["teaching", "reacher", "noon"]
restored = detokenize(segmented[0], table)
print("\nrestored:    ", " ".join(restored))
assert restored == ar_tokens
print("round trip OK")
