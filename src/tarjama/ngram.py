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
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .corpus import BOS, EOS, UNK, PAD, RESERVED, FormatError, read_text_blocks, write_lines

FLOOR = -99.0
# Rows whose values lm_write_arpa converts at once, lines per read of
# lm_read_arpa: what either holds beyond the model.
_CHUNK = 8192


class ArpaError(FormatError):
    """Raised for malformed ARPA files."""


@dataclass(eq=False)
class NgramModel:
    """An n-gram model held as one column triple per order.

    For each order m, grams[m - 1] lists the m-grams as ARPA text (words
    joined by single spaces), and logp[m - 1] and bow[m - 1] are float64
    arrays of their log10 probabilities and log10 backoff weights, NaN
    where a gram has none.  index[m - 1] maps gram text to row; it is
    built on the first query when not given.
    """

    order: int
    grams: list
    logp: list
    bow: list
    index: list = None

    @property
    def probs(self):
        """Read-only view: ngram tuple -> log10 p."""
        return GramView(self, self.logp)

    @property
    def backoffs(self):
        """Read-only view: context tuple -> log10 bow."""
        return GramView(self, self.bow)

    def rows(self):
        """Per order, a dict from gram text to row."""
        if self.index is None:
            self.index = [dict(zip(grams, range(len(grams)))) for grams in self.grams]
        return self.index

    def events(self):
        """Every predictable token: the unigrams that are not reserved
        tokens, sorted, then UNK and EOS."""
        return sorted(w for w in self.grams[0] if w not in RESERVED) + [UNK, EOS]

    def known(self, token):
        return token in self.rows()[0] and token not in (BOS, PAD)

    def conditional(self, context, word):
        """log10 p(word | context) via the backoff chain."""
        context = tuple(context)
        context = context[max(len(context) - self.order + 1, 0):]
        index = self.rows()
        acc = 0.0
        while True:
            m = len(context)
            row = index[m].get(" ".join(context + (word,)))
            if row is not None:
                return acc + self.logp[m].item(row)
            if not context:
                return acc + FLOOR
            row = index[m - 1].get(" ".join(context))
            bow = 0.0 if row is None else self.bow[m - 1].item(row)
            acc += 0.0 if math.isnan(bow) else bow
            context = context[1:]


class GramView(Mapping):
    """Read-only mapping from gram tuple to a model's value in one set of
    per-order columns; NaN cells (a gram without a backoff) are absent."""

    def __init__(self, model, columns):
        self._model = model
        self._columns = columns

    def __getitem__(self, gram):
        if isinstance(gram, tuple) and 1 <= len(gram) <= self._model.order:
            row = self._model.rows()[len(gram) - 1].get(" ".join(gram))
            if row is not None:
                value = self._columns[len(gram) - 1].item(row)
                if not math.isnan(value):
                    return value
        raise KeyError(gram)

    def __iter__(self):
        for grams, values in zip(self._model.grams, self._columns):
            for row in np.flatnonzero(~np.isnan(values)).tolist():
                yield tuple(grams[row].split(" "))

    def __len__(self):
        return sum(len(values) - int(np.isnan(values).sum()) for values in self._columns)


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
    # A gram's text joins its tokens with spaces, and ARPA lines split on
    # whitespace, so a token holding any would not come back as itself.
    bad = [tok for tok in distinct if "".join(tok.split()) != tok]
    if bad:
        raise ValueError("token %r holds whitespace" % min(bad))
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
    # counts.  The unigram table holds every token, seen or not.  Each
    # table is dropped once nothing below reads it.
    prefix, last, suffix, head, raw = {}, {}, {}, {}, {}
    for m, pos, keys, raw[m], at in ngram_rows(ids, room, size, order):
        if m == 1:
            head[1] = keys
        else:
            prefix[m], last[m] = np.divmod(keys, size)
            suffix[m] = np.empty(len(keys), np.int64)
            suffix[m][at[pos]] = below[pos + 1]
            head[m] = head[m - 1][prefix[m]]
        below = at
    del ids, room, pos, keys, at, below

    # Continuation counts: distinct non-BOS left extensions of each m-gram.
    cont = {m - 1: np.bincount(suffix[m][head[m] != bos], minlength=len(head[m - 1]))
            for m in range(2, order + 1)}

    # The lowest level is the continuation ratio over every token (or the
    # raw relative frequency without BOS, for unigram models and corpora
    # of empty sentences); only events get probability.
    is_event = np.array([tok not in RESERVED for tok in tokens])
    is_event[[index[UNK], index[EOS]]] = True
    counts = cont[1] if order > 1 and cont[1].sum() > 0 else np.where(
        head[1] == bos, 0, raw[1])
    p = {1: np.where(is_event, counts / counts.sum(), 0.0)}

    gamma = {}
    for m in range(2, order + 1):
        p[m], gamma[m] = _interpolate(raw[m], cont.get(m), prefix[m], len(head[m - 1]),
                                      p[m - 1][suffix[m]], discount)
    del raw, suffix, counts

    # Which n-grams get stored: the highest order stores everything seen;
    # middle orders store continuation-seen grams, BOS-headed grams (their
    # special case), and prefixes of longer stored grams so every backoff
    # weight has a line to live on; unigrams cover all events and BOS.
    stored = {1: is_event | (head[1] == bos)}
    if order > 1:
        stored[order] = np.ones(len(head[order]), bool)
    for m in range(order - 1, 0, -1):
        if m > 1:
            stored[m] = (cont[m] > 0) | (head[m] == bos)
        stored[m][prefix[m + 1][stored[m + 1]]] = True
    del cont, head

    # Emit each order's stored rows as columns, in row order, which is
    # sorted gram order.  The prefix of a stored gram is stored, so each
    # gram's text extends the text of a row one order down; a context's
    # backoff is the log10 of its gamma.
    grams, logp, bow = [], [], []
    spaced = [" " + tok for tok in tokens]
    for m in range(1, order + 1):
        rows = np.flatnonzero(stored[m])
        if m == 1:
            text = [tokens[r] for r in rows.tolist()]
        else:
            rank = np.cumsum(stored.pop(m - 1)) - 1
            lower = grams[-1]
            context = prefix.pop(m)[rows]
            text = [lower[k] + spaced[w] for k, w in
                    zip(rank[context].tolist(), last.pop(m)[rows].tolist())]
            contexts = np.unique(context)
            bow[-1][rank[contexts]] = list(map(math.log10, gamma.pop(m)[contexts].tolist()))
        grams.append(text)
        logp.append(np.fromiter((math.log10(x) if x > 0.0 else FLOOR
                                 for x in p.pop(m)[rows].tolist()), float, len(rows)))
        bow.append(np.full(len(text), np.nan))

    return NgramModel(order, grams, logp, bow)


def _interpolate(raw, cont, prefix, contexts, lower, discount):
    """One order's p(w | ctx) = max(c - D, 0) / total + gamma * lower, and
    each context's gamma = D * distinct / total.

    The rows' contexts are prefix, of `contexts` in all, and lower holds
    p(w | ctx[1:]).  c is raw, or cont where the context has a positive
    continuation count (cont is None at the highest order).  Every row's
    context has a positive total.
    """
    c = raw
    if cont is not None:
        c = np.where(np.bincount(prefix, weights=cont, minlength=contexts)[prefix] > 0,
                     cont, raw)
    total = np.bincount(prefix, weights=c, minlength=contexts)
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = discount * np.bincount(prefix[c > 0], minlength=contexts) / total
    return np.maximum(c - discount, 0.0) / total[prefix] + gamma[prefix] * lower, gamma


def lm_score_sentence(model, sentence):
    """Total log10 probability of a sentence (EOS included, OOV -> UNK)."""
    mapped = [tok if model.known(tok) else UNK for tok in sentence]
    history = [BOS]
    score = 0.0
    for tok in mapped + [EOS]:
        # The last order - 1 tokens (none for order 1), not a copy of all.
        score += model.conditional(history[max(len(history) - model.order + 1, 0):], tok)
        history.append(tok)
    return score


def lm_score_set(model, sentences):
    """Mean per-sentence total log10 probability."""
    sentences = list(sentences)
    if not sentences:
        raise ValueError("evaluation set is empty")
    return sum(lm_score_sentence(model, s) for s in sentences) / len(sentences)


def lm_write_arpa(model, path):
    """Serialize to ARPA, to a file or to stdout when path is None or "-":
    counts header, per-order sections, \\end\\.

    Rows go out in the model's order (sorted gram order for a trained
    model, file order for a read one), their values converted _CHUNK rows
    at a time.
    """
    def lines():
        yield "\\data\\"
        for m, grams in enumerate(model.grams, 1):
            yield "ngram %d=%d" % (m, len(grams))
        for m, (grams, logp, bow) in enumerate(zip(model.grams, model.logp, model.bow), 1):
            yield from ("", "\\%d-grams:" % m)
            for at in range(0, len(grams), _CHUNK):
                rows = slice(at, at + _CHUNK)
                yield from (
                    "%.7g\t%s" % (p, g) if math.isnan(b) else "%.7g\t%s\t%.7g" % (p, g, b)
                    for g, p, b in zip(grams[rows], logp[rows].tolist(), bow[rows].tolist()))
        yield from ("", "\\end\\")

    write_lines(path, lines())


def _line_error(line, m):
    """The defect of an n-gram line in section m, or None."""
    parts = line.split("\t")
    if len(parts) not in (2, 3):
        return "malformed ngram line %r" % line
    if parts[1].count(" ") != m - 1:
        return "ngram %r has wrong order for section %d" % (parts[1], m)
    try:
        if not any(map(math.isnan, map(float, parts[::2]))):
            return None
    except ValueError:
        pass
    return "non-numeric field in %r" % line


def _section_columns(body, m):
    """The gram list and the logp and bow arrays of the lines of section m,
    or None when some line has a defect that _line_error names."""
    if not body:
        return [], np.empty(0), np.empty(0)
    tabs = list(map(str.count, body, repeat("\t")))
    if not 1 <= min(tabs) <= max(tabs) <= 2:
        return None
    # One split over the whole body; line k's fields start at start[k].
    fields = "\t".join(body).split("\t")
    width = np.array(tabs) + 1
    start = np.cumsum(width) - width
    grams = list(map(fields.__getitem__, (start + 1).tolist()))
    if set(map(str.count, grams, repeat(" "))) != {m - 1}:
        return None
    has_bow = np.flatnonzero(width == 3)
    try:
        logp = np.fromiter(map(float, map(fields.__getitem__, start.tolist())), float, len(body))
        bow = np.full(len(body), np.nan)
        bow[has_bow] = list(map(float, map(fields.__getitem__, (start[has_bow] + 2).tolist())))
    except ValueError:
        return None
    if np.isnan(logp).any() or np.isnan(bow[has_bow]).any():
        return None
    return grams, logp, bow


def _arpa_chunks(path):
    """The lines of a UTF-8 file in lists of at least _CHUNK (the last two
    may hold fewer), as read_text(path) split at every line end would list
    them: CRLF and lone CR end lines too, as in a text-mode open."""
    tail = ""
    for text in read_text_blocks(path, _CHUNK):
        lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
        # Only the file's last block can end in an unterminated line.
        tail = lines.pop()
        yield lines
    yield [tail]


def lm_read_arpa(path):
    """Parse an ARPA file back into an NgramModel, rows in file order.

    The grammar is the one SRILM and KenLM write: blank lines, \\data\\,
    one count line for each order 1..N in turn, then for m = 1..N the
    header \\m-grams: and exactly as many n-gram lines as declared, then
    \\end\\; blank lines may come before each header.  A section's lines
    are read _CHUNK at a time and converted column by column.  The first
    defective line is reported by number.  An n-gram listed twice is a
    defect too, reported once the rest of its section converts.  Invalid
    UTF-8 anywhere in the file outranks every defect.
    """
    chunks = _arpa_chunks(path)
    lines = chain.from_iterable(chunks)
    n = 0  # lines read

    def fail(lineno, msg):
        for _ in chunks:  # invalid UTF-8 further on outranks the defect
            pass
        raise ArpaError("%s:%d: %s" % (path, lineno, msg))

    def expect(want, what):
        """Skip blank lines to one that reads `want`."""
        nonlocal n
        for line in lines:
            n += 1
            if line.strip():
                if line.strip() != want:
                    fail(n, "expected %s, got %r" % (what, line))
                return
        fail(n, "missing " + what)

    expect("\\data\\", "\\data\\ header")
    start = n
    counts = []
    for line in lines:
        n += 1
        line = line.strip()
        if not line:
            break
        if not line.startswith("ngram "):
            fail(n, "expected 'ngram N=count', got %r" % line)
        try:
            m, c = map(int, line[len("ngram "):].split("="))
        except ValueError:
            m = c = -1
        if m != len(counts) + 1 or c < 0:
            fail(n, "malformed count line %r" % line)
        counts.append(c)
    if not counts:
        fail(start, "no ngram counts declared")

    grams, logp, bow, index = [], [], [], []
    for m, count in enumerate(counts, 1):
        expect("\\%d-grams:" % m, "section header \\%d-grams:" % m)
        listed, runs = [], []
        short = "\\data\\ declares %d %d-grams but %%d listed" % (count, m)
        section = islice(lines, count)
        while body := list(islice(section, _CHUNK)):
            columns = _section_columns(body, m)
            if columns is None:
                # A blank line or one starting with a backslash (both always
                # defective) ends the section early.
                end = next(j for j, line in enumerate(body) if _line_error(line, m))
                if body[end].strip() and not body[end].startswith("\\"):
                    fail(n + end + 1, _line_error(body[end], m))
                fail(n + end + 1, short % (len(listed) + end))
            listed += columns[0]
            runs.append(columns[1:])
            n += len(body)
        if len(listed) < count:
            fail(n, short % len(listed))
        rows = dict(zip(listed, range(count)))
        if len(rows) < count:
            first = dict(zip(reversed(listed), reversed(range(count))))
            j = next(j for j, gram in enumerate(listed) if first[gram] < j)
            fail(n - count + j + 1, "ngram %r is listed twice" % listed[j])
        grams.append(listed)
        index.append(rows)
        logp.append(np.concatenate([np.empty(0)] + [run[0] for run in runs]))
        bow.append(np.concatenate([np.empty(0)] + [run[1] for run in runs]))
    expect("\\end\\", "\\end\\ marker")
    for _ in chunks:  # what follows \end\ must still be UTF-8
        pass
    return NgramModel(len(counts), grams, logp, bow, index)
