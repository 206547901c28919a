"""Parallel corpus ingestion: line reading and writing, deduplication,
vocabulary indexing, and the TSV vocabulary format shared by the trainer."""

import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice

PAD = "<pad>"
UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"
RESERVED = (PAD, UNK, BOS, EOS)

PAD_ID, UNK_ID, BOS_ID, EOS_ID = 0, 1, 2, 3
# The smallest vocabulary size build_vocab takes: the reserved ids and a token.
MIN_VOCAB_SIZE = len(RESERVED) + 1


class CorpusError(Exception):
    """Raised for malformed or misaligned corpus files."""


class FormatError(CorpusError, ValueError):
    """A model or table file that does not parse, naming the file and line."""


def read_text(path):
    """Decode a UTF-8 file, or stdin when path is None or "-", whole.

    Invalid UTF-8 raises CorpusError naming the file and the line.
    """
    if path in (None, "-"):
        path, data = "stdin", sys.stdin.buffer.read()
    else:
        with open(path, "rb") as fh:
            data = fh.read()
    return _decode(data, path, 1)


def read_text_blocks(path, lines):
    """Decode a UTF-8 file, or stdin when path is None or "-", in blocks of
    `lines` LF-ended lines each; only the last block may end without an LF.

    The blocks join to read_text(path).  A multi-byte character never holds
    an LF, so invalid UTF-8 raises read_text's CorpusError, after the blocks
    before it.
    """
    stdin = path in (None, "-")
    with nullcontext(sys.stdin.buffer) if stdin else open(path, "rb") as fh:
        first = 1
        while data := b"".join(islice(fh, lines)):
            yield _decode(data, "stdin" if stdin else path, first)
            first += lines


def _decode(data, path, first):
    """data as UTF-8 text, its first line being line `first` of path."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1
        line = first + data.count(b"\n", 0, start)
        raise CorpusError(f"{path}: invalid UTF-8 on line {line} at byte "
                          f"{exc.start - start + 1}: {exc.reason}") from exc


def read_lines(path):
    """Read a UTF-8 text file, or stdin when path is None or "-", into a
    list of lines.

    A single trailing LF does not create a phantom empty line, and a CR
    ending a line is dropped; interior empty lines are kept to preserve
    alignment.
    """
    lines = read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def read_table(path, kind, *types, sep="\t", header=None):
    """Columns of a line table, one per type: every non-empty line splits on
    sep into one field per type, converted by that type.  With header, a
    function, line 1 is no row and the result is (header(line 1), columns).
    A wrong field count, or a ValueError or OverflowError from a converter,
    raises FormatError naming the file, the line number and the line.
    """
    lines = read_lines(path) or [""]
    start = 1 if header is None else 2  # line number of the first row
    if header is not None:
        try:
            value = header(lines[0])
        except (ValueError, OverflowError):
            raise FormatError(f"{path}: malformed {kind} header line 1: {lines[0]!r}") from None
    body = lines[start - 1:]
    try:
        columns = _columns([line.split(sep) for line in body if line], types)
    except (ValueError, OverflowError):
        # Some line is bad: convert them one at a time to find the first.
        for lineno, line in enumerate(body, start):
            try:
                if line:
                    _columns([line.split(sep)], types)
            except (ValueError, OverflowError):
                raise FormatError(f"{path}: malformed {kind} line {lineno}: {line!r}") from None
    return columns if header is None else (value, columns)


def _columns(rows, types):
    """Transpose split rows into columns, converting every non-str one."""
    if set(map(len, rows)) - {len(types)}:
        raise ValueError
    columns = list(zip(*rows)) or [()] * len(types)
    return [col if t is str else list(map(t, col)) for t, col in zip(types, columns)]


def write_lines(path, lines):
    """Write lines as UTF-8 with LF endings to a file, or to stdout when
    path is None or "-"."""
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    if path in (None, "-"):
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    else:
        with open(path, "wb") as fh:
            fh.write(data)


def load_parallel(src_path, tgt_path):
    """Load two line-aligned files into a list of (source tokens, target
    tokens) pairs.

    Tokens are whatever is separated by whitespace; empty lines become empty
    token lists rather than errors so that alignment survives.
    """
    src_lines = read_lines(src_path)
    tgt_lines = read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise CorpusError(
            "line count mismatch: %s has %d lines, %s has %d"
            % (src_path, len(src_lines), tgt_path, len(tgt_lines))
        )
    return [(s.split(), t.split()) for s, t in zip(src_lines, tgt_lines)]


def find_duplicates(train, eval_set):
    """Indices of eval sentences whose exact token sequence occurs in train.

    Comparison is on token sequences after whatever preprocessing both sets
    already share.  Returned indices are ascending.
    """
    seen = {tuple(seq) for seq in train}
    return [i for i, seq in enumerate(eval_set) if tuple(seq) in seen]


@dataclass
class Vocab:
    token_to_id: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.token_to_id:
            self.token_to_id = {tok: i for i, tok in enumerate(RESERVED)}
        self.id_to_token = {i: t for t, i in self.token_to_id.items()}
        if len(self.id_to_token) != len(self.token_to_id):
            raise ValueError("token_to_id is not a bijection")
        for i, tok in enumerate(RESERVED):
            if self.token_to_id.get(tok) != i:
                raise ValueError(f"reserved token {tok!r} must have id {i}")

    def __len__(self):
        return len(self.token_to_id)

    def __contains__(self, token):
        return token in self.token_to_id

    def id(self, token):
        return self.token_to_id.get(token, UNK_ID)

    def token(self, idx):
        return self.id_to_token[idx]

    def encode(self, tokens, add_bos=False, add_eos=False):
        ids = [self.id(t) for t in tokens]
        if add_bos:
            ids.insert(0, BOS_ID)
        if add_eos:
            ids.append(EOS_ID)
        return ids

    def decode(self, ids, strip_reserved=True):
        toks = [self.id_to_token[i] for i in ids]
        if strip_reserved:
            toks = [t for t in toks if t not in RESERVED]
        return toks

    def save(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for idx in sorted(self.id_to_token):
                fh.write(f"{self.id_to_token[idx]}\t{idx}\n")

    @classmethod
    def load(cls, path):
        tokens, ids = read_table(path, "vocab", str, int)
        mapping = dict(zip(tokens, ids))
        if len(mapping) < len(tokens):
            # tokens holds one entry per non-empty line, in line order.
            linenos = [n for n, line in enumerate(read_lines(path), 1) if line]
            seen = set()
            for lineno, token in zip(linenos, tokens):
                if token in seen:
                    raise FormatError(f"{path}:{lineno}: token {token!r} is listed twice")
                seen.add(token)
        try:
            return cls(mapping)
        except ValueError as exc:  # well-formed lines that make no vocabulary
            raise FormatError(f"{path}: {exc}") from None


def build_vocab(sentences, max_size):
    """Index the max_size-4 most frequent tokens after the 4 reserved ones.

    Frequency ties go to the lexicographically smaller token so id
    assignment is deterministic.  Tokens spelled like a reserved token are
    skipped; they already map to their reserved id.
    """
    if max_size < MIN_VOCAB_SIZE:
        raise ValueError("max_size must be at least %d to fit the reserved tokens"
                         % MIN_VOCAB_SIZE)
    counts = Counter()
    for sent in sentences:
        counts.update(sent)
    for tok in RESERVED:
        counts.pop(tok, None)
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    mapping = {tok: i for i, tok in enumerate(RESERVED)}
    for tok, _ in ranked[: max_size - 4]:
        mapping[tok] = len(mapping)
    return Vocab(mapping)
