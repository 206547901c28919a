"""Interpolated Kneser-Ney n-gram language model with ARPA serialization.

One fixed discount for every order; lower orders use continuation counts
(the number of distinct non-BOS tokens extending an n-gram to the left);
contexts nothing extends to the left (in practice those beginning with
BOS) fall back to raw counts.  The lowest interpolated level is the plain
continuation ratio.  Everything is log10.  Events that end up with zero
probability (an unseen UNK, words only ever seen sentence-initially) are
floored at log10 p = -99, the conventional ARPA sentinel, so scores stay
finite and out-of-vocabulary text remains orderable.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

from .corpus import BOS, EOS, UNK, PAD, RESERVED, Vocab, build_vocab, read_text

FLOOR = -99.0


class ArpaError(Exception):
    """Raised for malformed ARPA files."""


@dataclass
class NgramModel:
    order: int
    probs: dict = field(default_factory=dict)     # ngram tuple -> log10 p
    backoffs: dict = field(default_factory=dict)  # context tuple -> log10 bow
    vocab: Vocab = None

    def events(self):
        """Every predictable token: corpus vocabulary plus UNK and EOS."""
        words = [w for w in self.vocab.token_to_id if w not in RESERVED]
        return sorted(words) + [UNK, EOS]

    def known(self, token):
        return (token,) in self.probs and token not in (BOS, PAD)

    def conditional(self, context, word):
        """log10 p(word | context) via the backoff chain."""
        context = tuple(context)
        if self.order == 1:
            context = ()
        elif len(context) > self.order - 1:
            context = context[-(self.order - 1):]
        acc = 0.0
        while True:
            entry = self.probs.get(context + (word,))
            if entry is not None:
                return acc + entry
            if not context:
                return acc + FLOOR
            acc += self.backoffs.get(context, 0.0)
            context = context[1:]


def lm_train(corpus, order, discount=0.75):
    """Estimate an NgramModel from a tokenized corpus."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0.0 < discount < 1.0:
        raise ValueError("discount must lie in (0, 1)")
    corpus = [list(sent) for sent in corpus]
    if not corpus:
        raise ValueError("training corpus is empty")

    distinct = {tok for sent in corpus for tok in sent}
    vocab = build_vocab(corpus, max_size=len(distinct) + 5)
    events = sorted(distinct - set(RESERVED)) + [UNK, EOS]

    # Raw counts per order over BOS/EOS-wrapped sentences.
    raw = {m: Counter() for m in range(1, order + 1)}
    for sent in corpus:
        wrapped = (BOS,) + tuple(sent) + (EOS,)
        for m in range(1, order + 1):
            raw[m].update(zip(*(wrapped[k:] for k in range(m))))

    probs, backoffs = {}, {}

    def store(gram, p):
        probs[gram] = math.log10(p) if p > 0.0 else FLOOR

    if order == 1:
        total = sum(c for g, c in raw[1].items() if g != (BOS,))
        for w in events:
            store((w,), raw[1].get((w,), 0) / total)
        probs[(BOS,)] = FLOOR
        return NgramModel(order, probs, backoffs, vocab)

    # Continuation counts: distinct non-BOS left extensions of each m-gram.
    cont = {m: Counter(g[1:] for g in raw[m + 1] if g[0] != BOS) for m in range(1, order)}

    # Each order's context -> (counts, context_total, gamma), resolved
    # once, with gamma = discount * distinct_extensions / total: the highest
    # order reads raw counts; lower orders read continuation counts, or raw
    # counts for contexts nothing extends to the left.  Every context listed
    # has a positive total; one missing has 0.
    stats = {}
    for m in range(2, order + 1):
        stats[m] = {}
        for counts in [raw[m]] if m == order else [raw[m], cont[m]]:
            tot, distinct_ext = {}, Counter(g[:-1] for g in counts)
            for gram, c in counts.items():
                ctx = gram[:-1]
                tot[ctx] = tot.get(ctx, 0) + c
            stats[m].update((ctx, (counts, total, discount * distinct_ext[ctx] / total))
                            for ctx, total in tot.items())

    cont_unigram_total = sum(cont[1].values())
    if cont_unigram_total > 0:
        p_unigram = {w: cont[1].get((w,), 0) / cont_unigram_total for w in events}
    else:
        total = sum(c for g, c in raw[1].items() if g != (BOS,))
        p_unigram = {w: raw[1].get((w,), 0) / total for w in events}

    # Which n-grams get stored: the highest order stores everything seen;
    # middle orders store continuation-seen grams, BOS-headed raw grams
    # (their special case), and prefixes of longer stored grams so every
    # backoff weight has a line to live on; unigrams cover all events.
    stored = {order: set(raw[order])}
    for m in range(order - 1, 0, -1):
        if m == 1:
            grams = {(w,) for w in events} | {(BOS,)}
        else:
            grams = {g for g, c in cont[m].items() if c > 0}
            grams |= {g for g in raw[m] if g[0] == BOS}
        grams |= {g[:-1] for g in stored[m + 1]}
        stored[m] = grams

    # Interpolated probabilities bottom-up.  Each order's table holds the
    # grams it stores plus the grams a higher order interpolates with, so
    # p(w | context) = num / total + gamma * p(w | context[1:]) reads the
    # lower value from the table below; a context with total 0 passes the
    # lower value through.  Zero probabilities are kept until storage, and
    # a context's backoff is the log10 of its gamma.
    needed = {order: stored[order]}
    for m in range(order - 1, 0, -1):
        needed[m] = stored[m] | {g[1:] for g in needed[m + 1]}
    table = {g: p_unigram.get(g[0], 0.0) for g in needed[1]}
    for m in range(1, order + 1):
        if m > 1:
            lower, table, by_context = table, {}, stats[m]
            for gram in needed[m]:
                entry = by_context.get(gram[:-1])
                if entry is None:
                    table[gram] = lower[gram[1:]]
                else:
                    counts, total, gamma = entry
                    num = max(counts.get(gram, 0) - discount, 0.0)
                    table[gram] = num / total + gamma * lower[gram[1:]]
            for context in {g[:-1] for g in stored[m]}:
                entry = by_context.get(context)
                if entry is not None:
                    backoffs[context] = math.log10(entry[2])
        for gram in stored[m]:
            if gram == (BOS,):
                probs[gram] = FLOOR
            else:
                store(gram, table[gram])

    return NgramModel(order, probs, backoffs, vocab)


def lm_score_sentence(model, sentence):
    """Total log10 probability of a sentence (EOS included, OOV -> UNK)."""
    mapped = [tok if model.known(tok) else UNK for tok in sentence]
    history = [BOS]
    score = 0.0
    for tok in mapped + [EOS]:
        score += model.conditional(history, tok)
        history.append(tok)
    return score


def lm_score_set(model, sentences):
    """Mean per-sentence total log10 probability."""
    sentences = list(sentences)
    if not sentences:
        raise ValueError("evaluation set is empty")
    return sum(lm_score_sentence(model, s) for s in sentences) / len(sentences)


def _fmt(x):
    return "%.7g" % x


def lm_write_arpa(model, path):
    """Serialize to ARPA: counts header, per-order sections, \\end\\."""
    by_order = {m: [] for m in range(1, model.order + 1)}
    for gram in model.probs:
        by_order[len(gram)].append(gram)
    for grams in by_order.values():
        grams.sort()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\\data\\\n")
        for m in range(1, model.order + 1):
            fh.write("ngram %d=%d\n" % (m, len(by_order[m])))
        for m in range(1, model.order + 1):
            fh.write("\n\\%d-grams:\n" % m)
            for gram in by_order[m]:
                line = "%s\t%s" % (_fmt(model.probs[gram]), " ".join(gram))
                if gram in model.backoffs:
                    line += "\t%s" % _fmt(model.backoffs[gram])
                fh.write(line + "\n")
        fh.write("\n\\end\\\n")


def lm_read_arpa(path):
    """Parse an ARPA file back into an NgramModel."""
    # CRLF and lone CR end lines too, as in a text-mode open.
    lines = read_text(path).replace("\r\n", "\n").replace("\r", "\n").split("\n")

    def fail(lineno, msg):
        raise ArpaError("%s:%d: %s" % (path, lineno, msg))

    counts = {}
    probs, backoffs = {}, {}
    i = 0
    n = len(lines)
    while i < n and lines[i].strip() != "\\data\\":
        if lines[i].strip():
            fail(i + 1, "expected \\data\\ header, got %r" % lines[i])
        i += 1
    if i == n:
        fail(n, "missing \\data\\ header")
    i += 1
    while i < n and lines[i].strip():
        line = lines[i].strip()
        if not line.startswith("ngram "):
            fail(i + 1, "expected 'ngram N=count', got %r" % line)
        try:
            m, c = line[len("ngram "):].split("=")
            counts[int(m)] = int(c)
        except ValueError:
            fail(i + 1, "malformed count line %r" % line)
        i += 1
    if not counts:
        fail(i, "no ngram counts declared")
    order = max(counts)

    seen = {m: 0 for m in counts}
    ended = False
    while i < n:
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if line == "\\end\\":
            ended = True
            i += 1
            break
        if not (line.startswith("\\") and line.endswith("-grams:")):
            fail(i + 1, "expected section header, got %r" % line)
        m = int(line[1:-len("-grams:")])
        if m not in counts:
            fail(i + 1, "section order %d not declared in \\data\\" % m)
        i += 1
        while i < n and lines[i].strip() and not lines[i].startswith("\\"):
            parts = lines[i].split("\t")
            if len(parts) not in (2, 3):
                fail(i + 1, "malformed ngram line %r" % lines[i])
            gram = tuple(parts[1].split(" "))
            if len(gram) != m:
                fail(i + 1, "ngram %r has wrong order for section %d" % (parts[1], m))
            try:
                probs[gram] = float(parts[0])
                if len(parts) == 3:
                    backoffs[gram] = float(parts[2])
            except ValueError:
                fail(i + 1, "non-numeric field in %r" % lines[i])
            seen[m] += 1
            i += 1
    if not ended:
        fail(n, "missing \\end\\ marker")
    for m, declared in counts.items():
        if seen[m] != declared:
            fail(n, "\\data\\ declares %d %d-grams but %d listed" % (declared, m, seen[m]))

    words = sorted(g[0] for g in probs if len(g) == 1 and g[0] not in RESERVED)
    mapping = {tok: i for i, tok in enumerate(RESERVED)}
    for w in words:
        mapping[w] = len(mapping)
    return NgramModel(order, probs, backoffs, Vocab(mapping))
