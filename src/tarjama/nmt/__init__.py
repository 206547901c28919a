"""Attention encoder-decoder translation model, desk scale."""

from .model import (
    NmtConfig,
    NmtModel,
    EncoderStates,
    DecoderState,
    param_shapes,
    init_model,
    encode,
    decoder_init,
    decode_step,
    save_model,
    load_model,
)
from .optimizer import AdadeltaState, adadelta_step
from .training import TrainLog, train_nmt
from .decoding import greedy_decode, beam_decode

__all__ = [
    "NmtConfig",
    "NmtModel",
    "EncoderStates",
    "DecoderState",
    "param_shapes",
    "init_model",
    "encode",
    "decoder_init",
    "decode_step",
    "save_model",
    "load_model",
    "AdadeltaState",
    "adadelta_step",
    "TrainLog",
    "train_nmt",
    "greedy_decode",
    "beam_decode",
]
