"""Parallel corpus ingestion: line reading and writing, line tables,
deduplication, and vocabulary indexing and its TSV format."""

import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import chain, islice, repeat

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


def read_table(path, kind, *types, sep="\t", header=None, keys=1):
    """Columns of a line table, one per type: every non-empty line splits on
    sep, one character, into one field per type, converted by that type.
    With header, a function, line 1 is no row and the result is
    (header(line 1), columns).  A wrong field count, or a ValueError or
    OverflowError from a converter, raises FormatError naming the file, the
    line number and the line.  So does a row whose first `keys` converted
    fields repeat an earlier row's.
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
        columns = _columns(body, sep, types)
    except (ValueError, OverflowError):
        # Some line is bad: convert them one at a time to find the first.
        for lineno, line in enumerate(body, start):
            try:
                if line:
                    _columns([line], sep, types)
            except (ValueError, OverflowError):
                raise FormatError(f"{path}: malformed {kind} line {lineno}: {line!r}") from None
    rows = columns[0] if keys == 1 else list(zip(*columns[:keys]))
    if len(set(rows)) < len(rows):
        seen = set()
        for lineno, row in zip((n for n, line in enumerate(body, start) if line), rows):
            if row in seen:
                raise FormatError(f"{path}:{lineno}: {kind} key {row!r} is listed twice")
            seen.add(row)
    return columns if header is None else (value, columns)


def _columns(lines, sep, types):
    """The columns of the non-empty lines split on sep, one per type, each
    non-str one converted by its type; ValueError unless each line has as
    many fields as there are types.  The lines are joined by sep and split
    once, and each column is a slice of the fields with a stride."""
    width = len(types)
    lines = list(filter(None, lines))
    if set(map(str.count, lines, repeat(sep))) - {width - 1}:
        raise ValueError
    fields = sep.join(lines).split(sep) if lines else []
    columns = [tuple(fields[j::width]) for j in range(width)]
    return [col if t is str else list(map(t, col)) for t, col in zip(types, columns)]


def write_lines(path, lines):
    """Write lines as UTF-8 with LF endings to a file, or to stdout when
    path is None or "-".  Lines go out 1,024 at a time, so lines from a
    generator are never all held at once."""
    lines = iter(lines)

    def blocks():
        while block := list(islice(lines, 1024)):
            yield "\n".join(block) + "\n"

    write_text(path, blocks())


def write_text(path, blocks):
    """Write str blocks as UTF-8 to a file, or to stdout when path is None
    or "-", each encoded and written as it comes."""
    with nullcontext(sys.stdout.buffer) if path in (None, "-") else open(path, "wb") as fh:
        for block in blocks:
            fh.write(block.encode("utf-8"))
        fh.flush()


def write_table(path, rows, sep="\t", header=None):
    """Write a line table read_table reads back: each row's fields, as str,
    joined by sep on one line, after the header line when one is given."""
    lines = (sep.join(map(str, row)) for row in rows)
    write_lines(path, lines if header is None else chain([header], lines))


def check_aligned(src_path, src_lines, tgt_path, tgt_lines):
    """Raise CorpusError naming both files unless they hold as many lines."""
    if len(src_lines) != len(tgt_lines):
        raise CorpusError("line count mismatch: %s has %d lines, %s has %d"
                          % (src_path, len(src_lines), tgt_path, len(tgt_lines)))


def load_parallel(src_path, tgt_path):
    """Load two line-aligned files into a list of (source tokens, target
    tokens) pairs.

    Tokens are whatever is separated by whitespace; empty lines become empty
    token lists rather than errors so that alignment survives.
    """
    src_lines = read_lines(src_path)
    tgt_lines = read_lines(tgt_path)
    check_aligned(src_path, src_lines, tgt_path, tgt_lines)
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

    def encode(self, tokens):
        return [self.id(t) for t in tokens]

    def decode(self, ids):
        """The tokens of ids, leaving out the reserved ones."""
        toks = [self.id_to_token[i] for i in ids]
        return [t for t in toks if t not in RESERVED]

    def save(self, path):
        write_table(path, ((self.id_to_token[idx], idx) for idx in sorted(self.id_to_token)))

    @classmethod
    def load(cls, path):
        tokens, ids = read_table(path, "vocab", str, int)
        try:
            return cls(dict(zip(tokens, ids)))
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
