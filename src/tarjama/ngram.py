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
from dataclasses import dataclass, field

import numpy as np

from .corpus import BOS, EOS, UNK, PAD, RESERVED, FormatError, Vocab, build_vocab, read_text

FLOOR = -99.0


class ArpaError(FormatError):
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


def ngram_rows(ids, room, size, order):
    """Number the n-grams of a token stream, one order after another.

    ids are token ids below size, sentence after sentence; room[i] counts
    the tokens left in position i's sentence, itself included.  Yields
    (m, pos, keys, counts, rows) for m = 1..order: the positions starting
    an m-gram, the sorted distinct keys (prefix row * size + last token;
    every id below size for m = 1), their counts, and each position's
    index into keys, -1 where fewer than m tokens are left.  Rows sort
    like the m-gram tuples whenever ids sort like the tokens.
    """
    rows = ids
    yield 1, np.arange(len(ids)), np.arange(size), np.bincount(ids, minlength=size), rows
    for m in range(2, order + 1):
        pos = np.flatnonzero(room >= m)
        keys, inverse, counts = np.unique(rows[pos] * size + ids[pos + m - 1],
                                          return_inverse=True, return_counts=True)
        rows = np.full(len(ids), -1, np.int64)
        rows[pos] = inverse
        yield m, pos, keys, counts, rows


def lm_train(corpus, order, discount=0.75):
    """Estimate an NgramModel from a tokenized corpus.

    Tokens get ids in sorted string order, and each order's n-grams form a
    table of unique rows in sorted tuple order (see ngram_rows), and every
    per-context statistic is a bincount.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0.0 < discount < 1.0:
        raise ValueError("discount must lie in (0, 1)")
    corpus = [list(sent) for sent in corpus]
    if not corpus:
        raise ValueError("training corpus is empty")

    distinct = {tok for sent in corpus for tok in sent}
    vocab = build_vocab(corpus, max_size=len(distinct) + 5)
    tokens = sorted(distinct | {BOS, EOS, UNK})
    size = len(tokens)
    index = {tok: i for i, tok in enumerate(tokens)}
    bos = index[BOS]
    ids = np.array([i for sent in corpus
                    for i in (bos, *(index[tok] for tok in sent), index[EOS])], np.int64)
    lengths = np.array([len(sent) + 2 for sent in corpus])
    # Tokens left in each position's BOS/EOS-wrapped sentence, itself included.
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(ids))

    # Per order m: the rows' prefix ids (into order m-1), last tokens,
    # suffix ids (the (m-1)-gram one position later), first tokens and raw
    # counts.  The unigram table holds every token, seen or not.
    prefix, last, suffix, head, raw, at = {}, {}, {}, {}, {}, {}
    for m, pos, keys, raw[m], at[m] in ngram_rows(ids, room, size, order):
        if m == 1:
            head[1] = keys
            continue
        prefix[m], last[m] = np.divmod(keys, size)
        suffix[m] = np.empty(len(keys), np.int64)
        suffix[m][at[m][pos]] = at[m - 1][pos + 1]
        head[m] = head[m - 1][prefix[m]]

    # Continuation counts: distinct non-BOS left extensions of each m-gram.
    cont = {m - 1: np.bincount(suffix[m][head[m] != bos], minlength=len(raw[m - 1]))
            for m in range(2, order + 1)}

    # The lowest level is the continuation ratio over every token (or the
    # raw relative frequency without BOS, for unigram models and corpora
    # of empty sentences); only events get probability.
    is_event = np.array([tok not in RESERVED for tok in tokens])
    is_event[[index[UNK], index[EOS]]] = True
    counts = cont[1] if order > 1 and cont[1].sum() > 0 else np.where(
        head[1] == bos, 0, raw[1])
    p = {1: np.where(is_event, counts / counts.sum(), 0.0)}

    # Each order's p(w | ctx) = max(c - D, 0) / total + gamma * p(w | ctx[1:])
    # with gamma = D * distinct / total.  The highest order reads raw counts;
    # a lower-order context reads continuation counts when any are positive,
    # raw counts otherwise.  Every row's context has a positive total.
    gamma = {}
    for m in range(2, order + 1):
        c = raw[m]
        if m < order:
            cont_total = np.bincount(prefix[m], weights=cont[m], minlength=len(raw[m - 1]))
            c = np.where(cont_total[prefix[m]] > 0, cont[m], c)
        total = np.bincount(prefix[m], weights=c, minlength=len(raw[m - 1]))
        distinct_ext = np.bincount(prefix[m][c > 0], minlength=len(raw[m - 1]))
        with np.errstate(divide="ignore", invalid="ignore"):
            gamma[m] = discount * distinct_ext / total
        p[m] = (np.maximum(c - discount, 0.0) / total[prefix[m]]
                + gamma[m][prefix[m]] * p[m - 1][suffix[m]])

    # Which n-grams get stored: the highest order stores everything seen;
    # middle orders store continuation-seen grams, BOS-headed grams (their
    # special case), and prefixes of longer stored grams so every backoff
    # weight has a line to live on; unigrams cover all events and BOS.
    stored = {1: is_event | (head[1] == bos)}
    if order > 1:
        stored[order] = np.ones(len(raw[order]), bool)
    for m in range(order - 1, 0, -1):
        if m > 1:
            stored[m] = (cont[m] > 0) | (head[m] == bos)
        stored[m][prefix[m + 1][stored[m + 1]]] = True

    # Fill the dicts order by order in sorted gram order; a context's
    # backoff is the log10 of its gamma.  The prefix of a stored gram is
    # stored, so each gram extends a tuple built one order down.
    probs, backoffs = {}, {}
    for m in range(1, order + 1):
        rows = np.flatnonzero(stored[m])
        if m == 1:
            grams = [(tokens[r],) for r in rows.tolist()]
        else:
            rank = np.cumsum(stored[m - 1]) - 1
            grams = [lower[k] + (tokens[w],) for k, w in
                     zip(rank[prefix[m][rows]].tolist(), last[m][rows].tolist())]
            contexts = np.unique(prefix[m][rows])
            backoffs.update(zip([lower[k] for k in rank[contexts].tolist()],
                                map(math.log10, gamma[m][contexts].tolist())))
        probs.update(zip(grams, [math.log10(x) if x > 0.0 else FLOOR
                                 for x in p[m][rows].tolist()]))
        lower = grams

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


def lm_write_arpa(model, path):
    """Serialize to ARPA: counts header, per-order sections, \\end\\."""
    by_order = {m: [] for m in range(1, model.order + 1)}
    for gram in model.probs:
        by_order[len(gram)].append(gram)
    probs, backoffs = model.probs, model.backoffs
    parts = ["\\data\\\n"]
    parts += ["ngram %d=%d\n" % (m, len(grams)) for m, grams in by_order.items()]
    for m, grams in by_order.items():
        grams.sort()
        parts.append("\n\\%d-grams:\n" % m)
        parts.append("".join(
            "%.7g\t%s\t%.7g\n" % (probs[g], " ".join(g), backoffs[g]) if g in backoffs
            else "%.7g\t%s\n" % (probs[g], " ".join(g)) for g in grams))
    parts.append("\n\\end\\\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(parts))


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
        try:
            m = int(line[1:-len("-grams:")])
        except ValueError:
            fail(i + 1, "expected section header, got %r" % line)
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
