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

from .corpus import BOS, EOS, UNK, PAD, RESERVED, FormatError, read_text_blocks, write_text

FLOOR = -99.0
# Rows whose lines lm_write_arpa builds at once, lines per read of
# lm_read_arpa, sentences lm_score_set scores at once: what each holds
# beyond the model.
_CHUNK = 1024
# Token ids, big-endian, so the bytes of an id row sort like the row.
_ID = np.dtype(">u4")


class ArpaError(FormatError):
    """Raised for malformed ARPA files."""


class _Numbering(dict):
    """Token -> id, each new token numbered next.  map(number.__getitem__,
    words) runs Python code only for new words; setdefault, for each."""

    def __missing__(self, token):
        self[token] = len(self)
        return len(self) - 1


@dataclass(eq=False)
class NgramModel:
    """An n-gram model held as token-id columns.

    tokens is the token table that ids index.  For each order m, ids[m - 1]
    is an (n, m) array of _ID ids, one row per m-gram, and logp[m - 1] and
    bow[m - 1] are float64 arrays of their log10 probabilities and log10
    backoffs, NaN where a gram has none.  Rows are in sorted gram order for
    a trained model and in file order for a read one; sorter[m - 1] is the
    permutation that sorts order m's rows, None when they are sorted.
    """

    order: int
    tokens: list
    ids: list
    logp: list
    bow: list
    sorter: list = None

    def __post_init__(self):
        self.sorter = self.sorter or [None] * self.order
        self.token_id = dict(zip(self.tokens, range(len(self.tokens))))
        # Each id row read as one void key of 4m bytes, searched with sorter.
        self._keys = [np.ascontiguousarray(ids, _ID).view("V%d" % (4 * m)).ravel()
                      for m, ids in enumerate(self.ids, 1)]
        # By id, False in a last slot (id -1) for a token the model lacks.
        self._known = np.zeros(len(self.tokens) + 1, bool)
        self._known[self.ids[0][:, 0]] = True
        self._known[[self.token_id.get(tok, -1) for tok in (BOS, PAD)]] = False

    @property
    def probs(self):
        """Read-only view: ngram tuple -> log10 p."""
        return GramView(self, self.logp)

    @property
    def backoffs(self):
        """Read-only view: context tuple -> log10 bow."""
        return GramView(self, self.bow)

    def events(self):
        """Every predictable token: the unigrams that are not reserved
        tokens, sorted, then UNK and EOS."""
        unigrams = map(self.tokens.__getitem__, self.ids[0][:, 0].tolist())
        return sorted(w for w in unigrams if w not in RESERVED) + [UNK, EOS]

    def known(self, token):
        return bool(self._known[self.token_id.get(token, -1)])

    def conditional(self, context, word):
        """log10 p(word | context) via the backoff chain."""
        context = tuple(context)
        context = context[max(len(context) - self.order + 1, 0):]
        ids = np.array([self.token_id.get(tok, len(self.tokens)) for tok in context + (word,)])
        return _backoff(self, ids, np.arange(len(ids)))[-1].item()

    def _find(self, m, grams):
        """The row in order m of each gram (a row of m ids), or -1."""
        keys, sorter = self._keys[m - 1], self.sorter[m - 1]
        query = np.ascontiguousarray(grams, _ID).view(keys.dtype).ravel()
        at = np.searchsorted(keys, query, sorter=sorter)
        hit = at < len(keys)
        if sorter is not None:
            at[hit] = sorter[at[hit]]
        hit[hit] = keys[at[hit]] == query[hit]
        return np.where(hit, at, -1)


class GramView(Mapping):
    """Read-only mapping from gram tuple to a model's value in one set of
    per-order columns; NaN cells (a gram without a backoff) are absent."""

    def __init__(self, model, columns):
        self._model = model
        self._columns = columns

    def __getitem__(self, gram):
        model = self._model
        if isinstance(gram, tuple) and 1 <= len(gram) <= model.order:
            ids = [model.token_id.get(tok, len(model.tokens)) for tok in gram]
            row = model._find(len(gram), [ids]).item()
            if row >= 0:
                value = self._columns[len(gram) - 1].item(row)
                if not math.isnan(value):
                    return value
        raise KeyError(gram)

    def __iter__(self):
        for ids, values in zip(self._model.ids, self._columns):
            for row in ids[~np.isnan(values)].tolist():
                yield tuple(map(self._model.tokens.__getitem__, row))

    def __len__(self):
        return sum(len(values) - int(np.isnan(values).sum()) for values in self._columns)


def ngram_rows(ids, room, size, order):
    """Number the n-grams of a token stream, one order after another.

    ids are token ids below size, sentence after sentence; room[i] counts
    the tokens left in position i's sentence, itself included.  Yields
    (m, pos, keys, counts, rows) for m = 1..order: the positions starting
    an m-gram, the sorted distinct keys (prefix row * size + last token;
    every id below size for m = 1), their counts, and each position's
    index into keys (int32 from m = 2), -1 where fewer than m tokens are
    left.  Rows sort like the m-gram tuples whenever ids sort like the
    tokens.
    """
    rows = ids
    yield 1, np.arange(len(ids)), np.arange(size), np.bincount(ids, minlength=size), rows
    for m in range(2, order + 1):
        pos = np.flatnonzero(room >= m)
        keys = np.multiply(rows[pos], size, dtype=np.int64)
        keys += ids[pos + m - 1]
        keys, inverse, counts = np.unique(keys, return_inverse=True, return_counts=True)
        rows = np.full(len(ids), -1, np.int32)
        rows[pos] = inverse
        del inverse
        yield m, pos, keys, counts, rows
        del pos, keys, counts  # not held through the next order's count


def _each(f, values, dtype=float):
    """f(v) for each float v, as an array of dtype, _CHUNK values at a
    time, f called once for each distinct value of a chunk (bit pattern,
    so -0.0 and 0.0 are two).  A model's values repeat: most backoffs are
    NaN, and a third of the log10 probabilities in a chunk recur in it."""
    out = np.empty(len(values), dtype)
    for at in range(0, len(values), _CHUNK):
        bits, inverse = np.unique(values[at:at + _CHUNK].view(np.int64), return_inverse=True)
        out[at:at + _CHUNK] = np.array(list(map(f, bits.view(float).tolist())), dtype)[inverse]
    return out


def lm_train(corpus, order, discount=0.75):
    """Estimate an NgramModel from a tokenized corpus, an iterable of token
    sequences that is read once.

    Tokens get ids in sorted string order, and each order's n-grams form a
    table of unique rows in sorted tuple order (see ngram_rows), and every
    per-context statistic is a bincount.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0.0 < discount < 1.0:
        raise ValueError("discount must lie in (0, 1)")
    # Ids in order of first appearance, then ranked in sorted order.
    number = _Numbering({BOS: 0, EOS: 1, UNK: 2})
    stream, lengths = [], []
    for sent in corpus:
        start = len(stream)
        stream += [0, *map(number.__getitem__, sent), 1]
        lengths.append(len(stream) - start)
    if not lengths:
        raise ValueError("training corpus is empty")

    # A gram's text joins its tokens with spaces, and ARPA lines split on
    # whitespace, so a token holding any would not come back as itself.
    bad = [tok for tok in number if "".join(tok.split()) != tok]
    if bad:
        raise ValueError("token %r holds whitespace" % min(bad))
    tokens = sorted(number)
    rank = np.empty(len(tokens), np.int64)
    rank[[number[tok] for tok in tokens]] = range(len(tokens))
    size, (bos, eos, unk) = len(tokens), rank[:3].tolist()  # numbered first
    ids = rank[stream]
    del stream, number, rank
    # Tokens left in each position's BOS/EOS-wrapped sentence, itself included.
    room = (np.repeat(np.cumsum(lengths), lengths) - np.arange(len(ids))).astype(np.int32)

    # Per order m: the rows' prefix ids (into order m-1), last tokens,
    # suffix ids (the (m-1)-gram one position later), whether they start
    # with BOS, and raw counts, all held as int32 or bool.  The unigram
    # table holds every token, seen or not.  Each table is dropped once
    # nothing below reads it.
    prefix, last, suffix, head, raw = {}, {}, {}, {}, {}
    for m, pos, keys, counts, at in ngram_rows(ids, room, size, order):
        raw[m] = counts.astype(np.int32)
        if m == 1:
            head[1] = keys == bos
        else:
            prefix[m], last[m] = (part.astype(np.int32) for part in np.divmod(keys, size))
            suffix[m] = np.empty(len(keys), np.int32)
            suffix[m][at[pos]] = below[pos + 1]
            head[m] = head[m - 1][prefix[m]]
        below = at
        del pos, keys, counts
    del ids, room, at, below

    # Continuation counts: distinct non-BOS left extensions of each m-gram.
    cont = {m - 1: np.bincount(suffix[m][~head[m]], minlength=len(head[m - 1]))
            for m in range(2, order + 1)}

    # The lowest level is the continuation ratio over every token (or the
    # raw relative frequency without BOS, for unigram models and corpora
    # of empty sentences); only events get probability.
    is_event = np.array([tok not in RESERVED for tok in tokens])
    is_event[[unk, eos]] = True
    counts = cont[1] if order > 1 and cont[1].sum() > 0 else np.where(head[1], 0, raw[1])
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
    stored = {1: is_event | head[1]}
    if order > 1:
        stored[order] = np.ones(len(head[order]), bool)
    for m in range(order - 1, 0, -1):
        if m > 1:
            stored[m] = (cont[m] > 0) | head[m]
        stored[m][prefix[m + 1][stored[m + 1]]] = True
    del cont, head

    # Emit each order's stored rows, in row order, which is sorted gram
    # order.  The prefix of a stored gram is stored, so each gram's ids are
    # a row one order down plus its last token; a context's backoff is the
    # log10 of its gamma.
    ids, logp, bow = [], [], []
    for m in range(1, order + 1):
        rows = np.flatnonzero(stored[m])
        gram = np.empty((len(rows), m), _ID)
        if m == 1:
            gram[:, 0] = rows
        else:
            rank = np.cumsum(stored.pop(m - 1), dtype=np.int32) - 1
            context = prefix.pop(m)[rows]
            contexts = np.unique(context)
            bow[-1][rank[contexts]] = _each(math.log10, gamma.pop(m)[contexts])
            context = rank[context]  # the row of each gram's context one order down
            for j in range(m - 1):  # a column at a time: no copy of the rows
                gram[:, j] = ids[-1][context, j]
            gram[:, -1] = last.pop(m)[rows]
            del rank, context
        ids.append(gram)
        logp.append(_each(lambda x: math.log10(x) if x > 0.0 else FLOOR, p.pop(m)[rows]))
        bow.append(np.full(len(rows), np.nan))

    return NgramModel(order, tokens, ids, logp, bow)


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


def _backoff(model, ids, hist):
    """log10 p(ids[k] | the min(hist[k], order - 1) ids before it) at every
    position k: the log10 backoffs of the contexts tried, longest first,
    added in turn (0 for one without), then the log10 p of the first stored
    gram, or the floor.  Each order is searched once, for the gram ending
    at each position; position k's context is the gram ending at k - 1."""
    found = [None] + [np.full(len(ids), -1) for _ in range(model.order)]
    for m in range(1, model.order + 1):
        at = np.flatnonzero(hist >= m - 1)
        found[m][at] = model._find(m, ids[at[:, None] + np.arange(1 - m, 1)])
    value, acc = np.empty(len(ids)), np.zeros(len(ids))
    tries = np.minimum(hist, model.order - 1)  # the context length to try next
    for m in range(model.order - 1, -1, -1):
        k = np.flatnonzero(tries == m)
        rows = found[m + 1][k]
        value[k[rows >= 0]] = acc[k[rows >= 0]] + model.logp[m][rows[rows >= 0]]
        k = k[rows < 0]
        rows = found[m][k - 1] if m else np.full(len(k), -1)
        bow = np.zeros(len(k))
        bow[rows >= 0] = model.bow[m - 1][rows[rows >= 0]]
        acc[k] += np.where(np.isnan(bow), 0.0, bow)
        tries[k] = m - 1
    value[tries < 0] = acc[tries < 0] + FLOOR
    return value


def _scores(model, sentences):
    """Each sentence's total log10 probability (EOS included, OOV -> UNK),
    _CHUNK sentences at a time, its positions' values added left to right."""
    get, missing = model.token_id.get, len(model.tokens)
    sentences = iter(sentences)
    while block := list(map(list, islice(sentences, _CHUNK))):
        words = np.fromiter((get(tok, missing) for sent in block for tok in sent), np.int64)
        # BOS, the sentence and EOS, sentence after sentence.
        size = np.fromiter(map(len, block), np.int64, len(block)) + 2
        start = np.cumsum(size) - size
        ids = np.full(size.sum(), get(EOS, missing))
        ids[start] = get(BOS, missing)
        inner = np.ones(len(ids), bool)
        inner[start] = inner[start + size - 1] = False
        ids[inner] = np.where(model._known[words], words, get(UNK, missing))
        value = _backoff(model, ids, np.arange(len(ids)) - np.repeat(start, size)).tolist()
        for at, end in zip(start.tolist(), (start + size).tolist()):
            score = 0.0
            for v in value[at + 1:end]:
                score += v
            yield score


def lm_score_sentence(model, sentence):
    """Total log10 probability of a sentence (EOS included, OOV -> UNK)."""
    return next(_scores(model, [sentence]))


def lm_score_set(model, sentences):
    """Mean per-sentence total log10 probability."""
    sentences = list(sentences)
    if not sentences:
        raise ValueError("evaluation set is empty")
    return sum(_scores(model, sentences)) / len(sentences)


def lm_write_arpa(model, path):
    """Serialize to ARPA, to a file or to stdout when path is None or "-":
    counts header, per-order sections, \\end\\.

    Rows go out in the model's order (sorted gram order for a trained
    model, file order for a read one), _CHUNK at a time.  A chunk is an
    object array of str cells, a row per line: log10 p and a tab, the
    gram's first token, each further token after a space, the backoff
    after a tab (or nothing), a newline; one join makes the chunk's text.
    """
    tokens = np.array(model.tokens, object)
    spaced = np.array([" " + tok for tok in model.tokens], object)

    def blocks():
        yield "\\data\\\n" + "".join("ngram %d=%d\n" % (m, len(logp))
                                      for m, logp in enumerate(model.logp, 1))
        for m, (ids, logp, bow) in enumerate(zip(model.ids, model.logp, model.bow), 1):
            yield "\n\\%d-grams:\n" % m
            for at in range(0, len(logp), _CHUNK):
                rows = slice(at, at + _CHUNK)
                cells = np.empty((len(logp[rows]), m + 3), object)
                cells[:, 0] = _each("%.7g\t".__mod__, logp[rows], object)
                cells[:, 1] = tokens[ids[rows, 0]]
                for j in range(1, m):
                    cells[:, j + 1] = spaced[ids[rows, j]]
                cells[:, -2] = _each(lambda b: "" if math.isnan(b) else "\t%.7g" % b,
                                     bow[rows], object)
                cells[:, -1] = "\n"
                yield "".join(cells.ravel().tolist())
        yield "\n\\end\\\n"

    write_text(path, blocks())


def _section_columns(body, m, number):
    """The id rows (tokens numbered by number), logp and bow of the lines
    of section m.  A defective line raises ValueError, whose message names
    the line when body is that one line: a field count other than 2 or 3
    first, then a gram of the wrong order, then a field that is not a
    number or is NaN."""
    tabs = list(map(str.count, body, repeat("\t")))
    if not 1 <= min(tabs) <= max(tabs) <= 2:
        raise ValueError("malformed ngram line %r" % body[0])
    # One split over the whole body; line k's fields start at start[k].
    fields = "\t".join(body).split("\t")
    width = np.array(tabs) + 1
    start = np.cumsum(width) - width
    grams = list(map(fields.__getitem__, (start + 1).tolist()))
    if set(map(str.count, grams, repeat(" "))) != {m - 1}:
        raise ValueError("ngram %r has wrong order for section %d" % (grams[0], m))
    has_bow = np.flatnonzero(width == 3)
    try:
        logp = np.fromiter(map(float, map(fields.__getitem__, start.tolist())), float, len(body))
        bow = np.full(len(body), np.nan)
        bow[has_bow] = list(map(float, map(fields.__getitem__, (start[has_bow] + 2).tolist())))
        if np.isnan(logp).any() or np.isnan(bow[has_bow]).any():
            raise ValueError
    except ValueError:
        raise ValueError("non-numeric field in %r" % body[0]) from None
    words = " ".join(grams).split(" ")
    return np.fromiter(map(number.__getitem__, words), _ID, len(words)).reshape(-1, m), logp, bow


def _sorter(ids, m):
    """The stable permutation that sorts the id rows of section m, None
    when they are in order, and the first row to repeat an earlier one, or
    -1: equal rows are adjacent in sorted order, in row order."""
    keys = ids.view("V%d" % (4 * m)).ravel()
    rows = np.argsort(keys, kind="stable")
    in_order = not (rows[1:] < rows[:-1]).any()
    if not in_order:
        keys = keys[rows]
    twice = rows[1:][keys[1:] == keys[:-1]]
    return None if in_order else rows, twice.min() if len(twice) else -1


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
    are read _CHUNK at a time and converted column by column, each gram
    straight to token ids.  The first defective line is reported by
    number.  An n-gram listed twice is a defect too, reported once the
    rest of its section converts.  Invalid UTF-8 anywhere in the file
    outranks every defect.
    """
    chunks = _arpa_chunks(path)
    lines = chain.from_iterable(chunks)
    n = 0  # lines read

    def fail(lineno, msg):
        for _ in chunks:  # invalid UTF-8 further on outranks the defect
            pass
        raise ArpaError("%s:%d: %s" % (path, lineno, msg)) from None

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

    number, columns = _Numbering(), ([], [], [], [])  # token ids; ids, logp, bow, sorter
    for m, count in enumerate(counts, 1):
        expect("\\%d-grams:" % m, "section header \\%d-grams:" % m)
        got, runs = 0, ([], [], [])
        short = "\\data\\ declares %d %d-grams but %%d listed" % (count, m)
        section = islice(lines, count)
        while body := list(islice(section, _CHUNK)):
            try:
                chunk = _section_columns(body, m, number)
            except ValueError:
                # Some line is bad: convert them one at a time to find the
                # first.  A blank line or one starting with a backslash (both
                # always defective) ends the section early.
                for end, line in enumerate(body):
                    try:
                        _section_columns([line], m, number)
                    except ValueError as exc:
                        if line.strip() and not line.startswith("\\"):
                            fail(n + end + 1, str(exc))
                        fail(n + end + 1, short % (got + end))
            for run, column in zip(runs, chunk):
                run.append(column)
            got += len(body)
            n += len(body)
        if got < count:
            fail(n, short % got)
        for column, run, empty in zip(columns, runs, (np.empty((0, m), _ID), np.empty(0),
                                                      np.empty(0))):
            column.append(np.concatenate([empty, *run], dtype=empty.dtype))
            run.clear()  # each run is let go once it is joined
        sorter, row = _sorter(columns[0][-1], m)
        columns[3].append(sorter)
        if row >= 0:
            names = list(number)
            fail(n - count + row + 1, "ngram %r is listed twice"
                 % " ".join(map(names.__getitem__, columns[0][-1][row].tolist())))
    expect("\\end\\", "\\end\\ marker")
    for _ in chunks:  # what follows \end\ must still be UTF-8
        pass
    return NgramModel(len(counts), list(number), *columns)
