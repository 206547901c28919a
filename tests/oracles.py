"""Independent reimplementations used as test oracles.

Everything here recomputes a result from first principles in the most
direct way available: the subword learner recounts pair statistics from
scratch every round, the clitic segmenter and the subword joiner loop
over slots and tokens, the language model probabilities come straight from
the recursive definition over raw occurrence scans, BLEU is the textbook
formula, and the network forward passes are plain numpy with no tape.
Slow is fine; shared code with the package is not, with three exceptions:
the reference gradients come from the package's autodiff tape, which
the model itself does not use, the dict-based ARPA reader uses the
package's text reader and error type, and the Counter-based BLEU fills
the package's BleuReport.
"""

import math
from collections import Counter

import numpy as np

from tarjama.bleu import BleuReport
from tarjama.corpus import BOS_ID, EOS_ID, RESERVED, read_text
from tarjama.ngram import FLOOR, ArpaError
from tarjama.nmt import autodiff as ad

BOS = "<s>"
EOS = "</s>"
UNK = "<unk>"


# ---------------------------------------------------------------- subwords

def _merge_once(symbols, pair):
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            out.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def naive_bpe_learn(word_freqs, target_vocab_size):
    """Merge list learned by full recounting each iteration."""
    vocab = {word: (tuple(word), freq) for word, freq in word_freqs.items()}
    merges = []
    while True:
        symbols = {s for syms, _ in vocab.values() for s in syms}
        if len(symbols) >= target_vocab_size:
            break
        counts = {}
        for syms, freq in vocab.values():
            for i in range(len(syms) - 1):
                pair = (syms[i], syms[i + 1])
                counts[pair] = counts.get(pair, 0) + freq
        if not counts:
            break
        best = min(counts, key=lambda p: (-counts[p], p))
        if counts[best] < 2:
            break
        merges.append(best)
        vocab = {w: (_merge_once(syms, best), f) for w, (syms, f) in vocab.items()}
    return merges


def replay_segment_word(word, merges):
    """Subwords of one word by applying every merge of the list in order."""
    symbols = tuple(word)
    for pair in merges:
        symbols = _merge_once(symbols, pair)
    return symbols


def loop_undo_bpe(sentence):
    """Continuation-marked pieces rejoined token by token, and whether
    pieces were left unjoined at the end: the package's former loop, which
    the one-replace version must equal, its warning included."""
    out = []
    buffer = ""
    for tok in sentence:
        if tok.endswith("@@"):
            buffer += tok[:-2]
        else:
            out.append(buffer + tok)
            buffer = ""
    if buffer:
        out.append(buffer)
    return out, bool(buffer)


# ---------------------------------------------------------------- clitics

def loop_atb_segment(token, inv):
    """ATB split of one word by trying each slot's clitics in turn: the
    package's former loop, which the one-pattern version must equal.  Only
    the inventory's fields are read."""
    if not token or any(not "\u0621" <= ch <= "\u064a" for ch in token):
        return [token.replace("+", "\\+")]
    conjunctions = [p[:-1] for p in inv.proclitics if p[:-1] in ("و", "ف")]
    particles = [p[:-1] for p in inv.proclitics if p[:-1] not in ("و", "ف")]
    enclitics = sorted(inv.enclitics, key=lambda e: (-len(e), e))
    rest = token
    proclitics = []
    for slot in (conjunctions, particles):
        for clitic in slot:
            if rest.startswith(clitic) and len(rest) - len(clitic) >= inv.min_stem_len:
                proclitics.append(clitic + "+")
                rest = rest[len(clitic):]
                break
    enclitic = None
    for cand in enclitics:
        if rest.endswith(cand) and len(rest) - len(cand) >= inv.min_stem_len:
            enclitic = cand
            rest = rest[: -len(cand)]
            break
    stem = rest
    if enclitic is not None and stem.endswith("ت"):
        restored = stem[:-1] + "ة"
        if inv.stem_lexicon is None or restored in inv.stem_lexicon:
            stem = restored
    if inv.stem_lexicon is not None and stem not in inv.stem_lexicon:
        return [token]
    if not proclitics and enclitic is None:
        return [token]
    out = proclitics + [stem]
    if enclitic is not None:
        out.append("+" + enclitic)
    return out


# -------------------------------------------------------------------- BLEU

def naive_bleu(hypotheses, references):
    """Corpus BLEU-4 computed directly from the definition."""
    matches = [0, 0, 0, 0]
    totals = [0, 0, 0, 0]
    hyp_len = 0
    ref_len = 0
    for hyp, refs in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += min((len(r) for r in refs),
                       key=lambda L: (abs(L - len(hyp)), L))
        for n in range(1, 5):
            grams = [tuple(hyp[i:i + n]) for i in range(len(hyp) - n + 1)]
            for gram in set(grams):
                have = grams.count(gram)
                allowed = 0
                for ref in refs:
                    seen = sum(
                        1 for i in range(len(ref) - n + 1)
                        if tuple(ref[i:i + n]) == gram
                    )
                    allowed = max(allowed, seen)
                matches[n - 1] += min(have, allowed)
            totals[n - 1] += len(grams)
    precisions = [
        matches[n] / totals[n] if totals[n] else 0.0 for n in range(4)
    ]
    if hyp_len == 0:
        return 0.0, precisions, 0.0, 0, ref_len
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / 4.0)
    return score, precisions, bp, hyp_len, ref_len


def counter_bleu(hypotheses, references, fold_case=False):
    """Corpus BLEU-4 as a BleuReport, counting every n-gram of every
    sentence in a Counter: the package's former implementation, which the
    integer-table one must equal field for field."""
    def ngrams(tokens):
        counts = Counter()
        for n in range(1, 5):
            counts.update(zip(*(tokens[k:] for k in range(n))))
        return counts

    matches = [0] * 4
    totals = [0] * 4
    hyp_len = 0
    ref_len = 0
    for hyp, refs in zip(hypotheses, references):
        refs = list(refs)
        if fold_case:
            hyp = [t.lower() for t in hyp]
            refs = [[t.lower() for t in ref] for ref in refs]
        hyp_len += len(hyp)
        ref_len += min((len(r) for r in refs), key=lambda L: (abs(L - len(hyp)), L))
        max_ref = ngrams(refs[0])
        for ref in refs[1:]:
            max_ref |= ngrams(ref)
        for gram, count in ngrams(hyp).items():
            matches[len(gram) - 1] += min(count, max_ref[gram])
        for n in range(1, min(len(hyp), 4) + 1):
            totals[n - 1] += len(hyp) - n + 1
    precisions = tuple(
        (matches[n] / totals[n]) if totals[n] else 0.0 for n in range(4)
    )
    if hyp_len == 0:
        return BleuReport(0.0, precisions, 0.0, 0, ref_len)
    bp = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    if any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = bp * math.exp(sum(math.log(p) for p in precisions) / 4)
    return BleuReport(score, precisions, bp, hyp_len, ref_len)


# ------------------------------------------------------------ language model

def _naive_kn(corpus, order, discount):
    """p(w | ctx) and the interpolation weight of ctx by raw occurrence scans.

    Highest order uses raw counts; lower orders use the number of distinct
    non-initial left extensions, falling back to raw counts for contexts
    nothing extends to the left; the lowest level is the undiscounted
    continuation ratio; an order-1 model is plain relative frequency with
    the end marker counted as an event.
    """
    sents = [(BOS,) + tuple(s) + (EOS,) for s in corpus]
    events = sorted(
        {t for s in corpus for t in s} - {BOS, EOS, UNK, "<pad>"}
    ) + [UNK, EOS]

    def ngrams(m):
        out = []
        for s in sents:
            out.extend(s[i:i + m] for i in range(len(s) - m + 1))
        return out

    def raw(gram):
        return sum(1 for g in ngrams(len(gram)) if g == gram)

    def cont(gram):
        m = len(gram)
        heads = {
            g[0] for g in ngrams(m + 1) if g[1:] == gram and g[0] != BOS
        }
        return len(heads)

    def route(ctx):
        """The counter read after ctx, and its count for every event."""
        count = raw if len(ctx) == order - 1 else cont
        if count is cont and sum(cont(ctx + (e,)) for e in events) == 0:
            count = raw
        return count, [count(ctx + (e,)) for e in events]

    def gamma(ctx):
        """discount * distinct extensions / total, or None at total 0."""
        _, per_event = route(ctx)
        if sum(per_event) == 0:
            return None
        return discount * sum(1 for c in per_event if c > 0) / sum(per_event)

    def prob(ctx, w):
        if order == 1:
            total = sum(raw((e,)) for e in events)
            return raw((w,)) / total
        if not ctx:
            totals = [cont((e,)) for e in events]
            if sum(totals) == 0:
                totals = [raw((e,)) for e in events]
                return raw((w,)) / sum(totals)
            return cont((w,)) / sum(totals)
        count, per_event = route(ctx)
        total = sum(per_event)
        if total == 0:
            return prob(ctx[1:], w)
        distinct = sum(1 for c in per_event if c > 0)
        top = max(count(ctx + (w,)) - discount, 0.0)
        weight = discount * distinct / total
        return top / total + weight * prob(ctx[1:], w)

    return prob, gamma


def naive_kn_prob(corpus, order, discount, context, word):
    """Interpolated Kneser-Ney p(word | context); see _naive_kn."""
    context = tuple(context)[-(order - 1):] if context and order > 1 else ()
    return _naive_kn(corpus, order, discount)[0](context, word)


def naive_kn_backoff(corpus, order, discount, context):
    """The interpolation weight gamma of a context (None if nothing follows
    it), which an ARPA file stores as the context's log10 backoff."""
    return _naive_kn(corpus, order, discount)[1](tuple(context))


def naive_kn_sentence(corpus, order, discount, sentence):
    """Total log10 sentence probability for in-vocabulary sentences.

    Every step must carry positive probability; zero-probability events are
    a serialization convention (backoff weights plus a -99 sentinel), not
    probability arithmetic, and are pinned by their own tests.
    """
    history = [BOS]
    score = 0.0
    for tok in list(sentence) + [EOS]:
        p = naive_kn_prob(corpus, order, discount, tuple(history), tok)
        assert p > 0.0, "oracle only covers positive-probability steps"
        score += math.log10(p)
        history.append(tok)
    return score


def dict_kn_train(corpus, order, discount=0.75):
    """lm_train over Counters and sets of string tuples.

    The package estimates the same model with numpy passes over
    integer-coded n-gram tables; this keeps the dict formulation that it
    replaced, whose stored values equal the package's bit for bit.
    Returns the dicts (ngram tuple -> log10 p, context tuple -> log10 bow).
    """
    corpus = [list(sent) for sent in corpus]
    distinct = {tok for sent in corpus for tok in sent}
    events = sorted(distinct - set(RESERVED)) + [UNK, EOS]

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
        return probs, backoffs

    # Continuation counts: distinct non-BOS left extensions of each m-gram.
    cont = {m: Counter(g[1:] for g in raw[m + 1] if g[0] != BOS) for m in range(1, order)}

    # context -> (counts, total, gamma): continuation counts where they
    # exist below the highest order, raw counts otherwise.
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

    stored = {order: set(raw[order])}
    for m in range(order - 1, 0, -1):
        if m == 1:
            grams = {(w,) for w in events} | {(BOS,)}
        else:
            grams = {g for g, c in cont[m].items() if c > 0}
            grams |= {g for g in raw[m] if g[0] == BOS}
        grams |= {g[:-1] for g in stored[m + 1]}
        stored[m] = grams

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

    return probs, backoffs


def dict_write_arpa(order, probs, backoffs, path):
    """lm_write_arpa over dicts keyed by gram tuple: each order's grams
    sorted, one line each."""
    by_order = {m: [] for m in range(1, order + 1)}
    for gram in probs:
        by_order[len(gram)].append(gram)
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


def dict_read_arpa(path):
    """lm_read_arpa one line at a time into dicts keyed by gram tuple.

    Returns (order, probs, backoffs).  The file must hold \\data\\, count
    lines for orders 1..N in turn, the sections \\1-grams: .. \\N-grams:
    with exactly their declared number of lines, and \\end\\.
    """
    lines = read_text(path).replace("\r\n", "\n").replace("\r", "\n").split("\n")
    n = len(lines)
    i = 0

    def fail(lineno, msg):
        raise ArpaError("%s:%d: %s" % (path, lineno, msg))

    def expect(want, what):
        nonlocal i
        while i < n and not lines[i].strip():
            i += 1
        if i == n:
            fail(n, "missing " + what)
        if lines[i].strip() != want:
            fail(i + 1, "expected %s, got %r" % (what, lines[i]))
        i += 1

    expect("\\data\\", "\\data\\ header")
    counts = []
    if i == n or not lines[i].strip():
        fail(i, "no ngram counts declared")
    while i < n and lines[i].strip():
        line = lines[i].strip()
        if not line.startswith("ngram "):
            fail(i + 1, "expected 'ngram N=count', got %r" % line)
        try:
            m, c = line[len("ngram "):].split("=")
            m, c = int(m), int(c)
        except ValueError:
            fail(i + 1, "malformed count line %r" % line)
        if m != len(counts) + 1 or c < 0:
            fail(i + 1, "malformed count line %r" % line)
        counts.append(c)
        i += 1

    probs, backoffs = {}, {}
    for m, count in enumerate(counts, 1):
        expect("\\%d-grams:" % m, "section header \\%d-grams:" % m)
        twice = None
        for listed in range(count):
            if i == n or not lines[i].strip() or lines[i].startswith("\\"):
                fail(min(i + 1, n),
                     "\\data\\ declares %d %d-grams but %d listed" % (count, m, listed))
            parts = lines[i].split("\t")
            if len(parts) not in (2, 3):
                fail(i + 1, "malformed ngram line %r" % lines[i])
            gram = tuple(parts[1].split(" "))
            if len(gram) != m:
                fail(i + 1, "ngram %r has wrong order for section %d" % (parts[1], m))
            try:
                values = [float(field) for field in parts[::2]]
            except ValueError:
                values = [math.nan]
            if any(math.isnan(value) for value in values):
                fail(i + 1, "non-numeric field in %r" % lines[i])
            if gram in probs and twice is None:
                twice = i + 1, "ngram %r is listed twice" % parts[1]
            probs[gram] = values[0]
            if len(values) == 2:
                backoffs[gram] = values[1]
            i += 1
        if twice:
            fail(*twice)
    expect("\\end\\", "\\end\\ marker")
    return len(counts), probs, backoffs


def dict_conditional(order, probs, backoffs, context, word):
    """log10 p(word | context) by the backoff chain over dicts keyed by
    gram tuple: the backoffs of the contexts tried, longest first, added
    in turn, then the log10 p of the longest stored gram, or the floor."""
    context = tuple(context)[max(len(context) - order + 1, 0):]
    acc = 0.0
    while context + (word,) not in probs:
        if not context:
            return acc + FLOOR
        acc += backoffs.get(context, 0.0)
        context = context[1:]
    return acc + probs[context + (word,)]


def dict_sentence_score(order, probs, backoffs, sentence):
    """Total log10 probability of a sentence and its end over dicts: a
    token without a unigram (or BOS or PAD) is scored as UNK."""
    words = [w if (w,) in probs and w not in (BOS, "<pad>") else UNK for w in sentence]
    history, score = [BOS], 0.0
    for word in words + [EOS]:
        score += dict_conditional(order, probs, backoffs, history, word)
        history.append(word)
    return score


# ------------------------------------------------------------------ network

def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def gru_forward(params, prefix, x, h):
    u = _sigmoid(params[prefix + "_Wz"] @ x + params[prefix + "_Uz"] @ h
                 + params[prefix + "_bz"])
    r = _sigmoid(params[prefix + "_Wr"] @ x + params[prefix + "_Ur"] @ h
                 + params[prefix + "_br"])
    cand = np.tanh(params[prefix + "_Wh"] @ x
                   + params[prefix + "_Uh"] @ (r * h)
                   + params[prefix + "_bh"])
    return u * h + (1.0 - u) * cand


def encode_forward(params, config, src_ids):
    """Stacked bidirectional encoding; row t is [forward_t, backward_t] of
    the top layer."""
    inputs = [params["src_emb"][i] for i in src_ids]
    for layer in range(1, config.enc_layers + 1):
        fw, bw = "enc_l%d_fw" % layer, "enc_l%d_bw" % layer
        h = np.zeros(config.enc_hidden)
        forward = []
        for x in inputs:
            h = gru_forward(params, fw, x, h)
            forward.append(h)
        h = np.zeros(config.enc_hidden)
        backward = []
        for x in reversed(inputs):
            h = gru_forward(params, bw, x, h)
            backward.append(h)
        backward.reverse()
        inputs = [np.concatenate(p) for p in zip(forward, backward)]
    return np.stack(inputs)


def init_forward(params, annotations):
    return np.tanh(params["init_W"] @ annotations.mean(axis=0)
                   + params["init_b"])


def attend_forward(params, z, y_emb, annotations):
    base = params["att_Wz"] @ z + params["att_Wy"] @ y_emb + params["att_b"]
    scores = np.tanh(annotations @ params["att_Wh"].T + base) @ params["att_v"]
    shifted = np.exp(scores - scores.max())
    alpha = shifted / shifted.sum()
    return alpha @ annotations, alpha


def decode_forward(params, z, y_prev, annotations):
    y_emb = params["tgt_emb"][y_prev]
    context, alpha = attend_forward(params, z, y_emb, annotations)
    z_new = gru_forward(params, "dec", np.concatenate([y_emb, context]), z)
    logits = params["out_W"] @ z_new + params["out_b"]
    shift = logits - logits.max()
    logp = shift - np.log(np.exp(shift).sum())
    return z_new, alpha, logp


def nll_forward(params, config, src_ids, wrapped_tgt, l2_coeff=0.0):
    """Teacher-forced negative log-likelihood, plus the squared-norm
    penalty when l2_coeff is nonzero."""
    annotations = encode_forward(params, config, src_ids)
    z = init_forward(params, annotations)
    loss = 0.0
    for t in range(1, len(wrapped_tgt)):
        z, _, logp = decode_forward(params, z, wrapped_tgt[t - 1], annotations)
        loss -= logp[wrapped_tgt[t]]
    if l2_coeff > 0.0:
        loss += l2_coeff * sum(
            float((arr * arr).sum()) for arr in params.values()
        )
    return loss


def dict_adadelta_step(params, grads, sq_grad, sq_delta, rho=0.95, epsilon=1e-6):
    """One Adadelta update applied tensor by tensor, in place, over
    name -> array dicts of parameters, gradients and both averages."""
    for name, theta in params.items():
        g = grads[name]
        eg2 = sq_grad[name]
        ed2 = sq_delta[name]
        eg2 *= rho
        eg2 += (1.0 - rho) * g * g
        delta = -np.sqrt((ed2 + epsilon) / (eg2 + epsilon)) * g
        ed2 *= rho
        ed2 += (1.0 - rho) * delta * delta
        theta += delta


# ------------------------------------------------------------ tape model
#
# The per-sentence model built on the autodiff tape: one vector-matrix
# product per operation, gradients by the tape's reverse sweep.  It is
# the reference for the batched numpy passes and their hand-written
# backpropagation, and the source of the reference beam search below.

def _wrap(params):
    return {name: ad.Var(arr) for name, arr in params.items()}


def _gru_step(p, prefix, x, h):
    u = ad.sigmoid(p[prefix + "_Wz"] @ x + p[prefix + "_Uz"] @ h + p[prefix + "_bz"])
    r = ad.sigmoid(p[prefix + "_Wr"] @ x + p[prefix + "_Ur"] @ h + p[prefix + "_br"])
    cand = ad.tanh(p[prefix + "_Wh"] @ x + p[prefix + "_Uh"] @ (r * h) + p[prefix + "_bh"])
    return u * h + ad.one_minus(u) * cand


def _encode_graph(p, config, src_ids):
    inputs = [ad.row(p["src_emb"], i) for i in src_ids]
    n = len(inputs)
    zero = ad.Var(np.zeros(config.enc_hidden))
    for layer in range(1, config.enc_layers + 1):
        fw_prefix = "enc_l%d_fw" % layer
        bw_prefix = "enc_l%d_bw" % layer
        state = zero
        forward = []
        for t in range(n):
            state = _gru_step(p, fw_prefix, inputs[t], state)
            forward.append(state)
        state = zero
        backward = [None] * n
        for t in reversed(range(n)):
            state = _gru_step(p, bw_prefix, inputs[t], state)
            backward[t] = state
        inputs = [ad.concat(forward[t], backward[t]) for t in range(n)]
    return ad.stack_rows(inputs)


def _init_graph(p, annotations):
    return ad.tanh(p["init_W"] @ ad.mean_rows(annotations) + p["init_b"])


def _attend_graph(p, z, y_emb, annotations, mask):
    base = p["att_Wz"] @ z + p["att_Wy"] @ y_emb + p["att_b"]
    hidden = ad.tanh(annotations @ ad.transpose(p["att_Wh"]) + base)
    scores = hidden @ p["att_v"]
    alpha = ad.masked_softmax(scores, mask)
    context = alpha @ annotations
    return context, alpha


def _decode_graph(p, z, y_prev, annotations, mask, drop_mask=None):
    y_emb = ad.row(p["tgt_emb"], y_prev)
    context, alpha = _attend_graph(p, z, y_emb, annotations, mask)
    z_new = _gru_step(p, "dec", ad.concat(y_emb, context), z)
    out_in = z_new
    if drop_mask is not None:
        out_in = out_in * ad.Var(drop_mask)
    logits = p["out_W"] @ out_in + p["out_b"]
    return z_new, alpha, ad.log_softmax(logits)


def _nll_graph(p, config, src_ids, tgt_ids, drop_masks=None):
    annotations = _encode_graph(p, config, src_ids)
    mask = np.ones(len(src_ids))
    z = _init_graph(p, annotations)
    loss = None
    for t in range(1, len(tgt_ids)):
        drop = drop_masks[t - 1] if drop_masks is not None else None
        z, _, logp = _decode_graph(p, z, tgt_ids[t - 1], annotations, mask, drop)
        term = -ad.pick(logp, tgt_ids[t])
        loss = term if loss is None else loss + term
    return loss


def _dropout_masks(config, steps, rng):
    keep = 1.0 - config.dropout_rate
    # Inverted scaling: expected activation is unchanged.
    return [
        (rng.random(config.dec_hidden) >= config.dropout_rate) / keep
        for _ in range(steps)
    ]


def tape_batch_loss(model, srcs, tgts, rng=None):
    """Per-example losses of wrapped targets and the per-example sum of
    their tape gradients.  With rng and a nonzero dropout rate, masks
    are drawn example by example in batch order."""
    config = model.config
    p = _wrap(model.params)
    grads = {name: np.zeros_like(arr) for name, arr in model.params.items()}
    losses = []
    for src, tgt in zip(srcs, tgts):
        masks = None
        if rng is not None and config.dropout_rate > 0.0:
            masks = _dropout_masks(config, len(tgt) - 1, rng)
        loss = _nll_graph(p, config, tuple(src), tuple(tgt), masks)
        losses.append(float(loss.value))
        loss.backward()
        for name, var in p.items():
            if var.grad is not None:
                grads[name] += var.grad
                var.grad = None
    return losses, grads


def tuple_beam_decode(step, start, beam_width, max_len):
    """Beam search over Python tuples, fully sorting beam x V candidates
    at every step; step(state, prev_id) -> (state, log-probabilities)
    advances one hypothesis."""
    # A hypothesis is (ids including the leading BOS, summed log-prob,
    # state ready to consume ids[-1]).
    live = [((BOS_ID,), 0.0, start)]
    finished = []
    for _ in range(max_len):
        candidates = []
        for ids, score, state in live:
            new_state, logp = step(state, ids[-1])
            for w, lp in enumerate(logp):
                candidates.append((ids + (w,), score + lp, new_state))
        candidates.sort(key=lambda c: (-c[1], c[0]))
        live = []
        for ids, score, state in candidates[:beam_width]:
            if ids[-1] == EOS_ID:
                finished.append((ids, score))
            else:
                live.append((ids, score, state))
        if len(finished) >= beam_width or not live:
            break
    if finished:
        pool = [(ids[1:-1], score, len(ids) - 1) for ids, score in finished]
    else:
        pool = [(ids[1:], score, len(ids) - 1) for ids, score, _ in live]
    best = min(pool, key=lambda c: (-c[1] / c[2], len(c[0]), c[0]))
    return list(best[0])


def tape_beam_decode(model, src_ids, beam_width, max_len):
    """tuple_beam_decode with each hypothesis decoded on its own on the
    tape."""
    p = _wrap(model.params)
    annotations = _encode_graph(p, model.config, src_ids)
    mask = np.ones(len(src_ids))

    def step(state, prev):
        new_state, _, logp = _decode_graph(p, state, prev, annotations, mask)
        return new_state, logp.value

    return tuple_beam_decode(step, _init_graph(p, annotations), beam_width, max_len)
