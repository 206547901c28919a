"""Arabic-English machine translation toolkit, desk scale.

Everything here runs on plain numpy and the standard library: orthographic
normalization and truecasing, ATB-style clitic segmentation with rule-based
detokenization, byte-pair-encoding subwords, an interpolated Kneser-Ney
n-gram language model with ARPA serialization, an attention-based
encoder-decoder trained with Adadelta, beam-search decoding, and
multi-reference corpus BLEU.  The `tarjama` command-line tool wires the
pieces into a reproducible preprocessing + training + evaluation pipeline.
"""

__version__ = "0.1.0"

from .corpus import (
    PAD, UNK, BOS, EOS, RESERVED,
    Vocab, build_vocab, load_parallel, find_duplicates,
)
from .normalize import (
    NormRules, default_arabic_rules, normalize_arabic, lowercase,
    TruecaseModel, truecase_train, truecase_apply,
)
from .segment import (
    CliticInventory, simple_tokenize, atb_segment, segment_corpus,
    DetokTable, detokenize,
)
from .bpe import BpeModel, learn_bpe, apply_bpe, undo_bpe
from .ngram import NgramModel, lm_train, lm_score_sentence, lm_score_set
from .bleu import BleuReport, bleu, bleu_delta
from .nmt import NmtConfig, NmtModel, AdadeltaState, adadelta_step, train_nmt, beam_decode
