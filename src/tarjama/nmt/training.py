"""Minibatch training with Adadelta and early stopping on dev loss."""

import logging
from dataclasses import dataclass, field

import numpy as np

from ..corpus import BOS_ID, EOS_ID
from .model import _check_ids, batch_backward, batch_forward, l2_penalty
from .optimizer import AdadeltaState, adadelta_step

log = logging.getLogger(__name__)

# Pairs per forward pass when scoring a corpus: the default training
# batch size.  The saved activations grow with batch size times
# sequence lengths.
_EVAL_BATCH = 16


@dataclass
class TrainLog:
    train_nll: list = field(default_factory=list)  # per epoch, mean per sentence
    dev_nll: list = field(default_factory=list)
    best_epoch: int = 0  # 1-based; 0 means never evaluated
    stopped_early: bool = False


def _batch(pairs):
    """The sources and the marker-wrapped targets of pairs, as batch_forward
    takes them."""
    return ([src for src, _ in pairs],
            [(BOS_ID,) + tuple(tgt) + (EOS_ID,) for _, tgt in pairs])


def _corpus_nll(model, pairs):
    total = 0.0
    for start in range(0, len(pairs), _EVAL_BATCH):
        losses = batch_forward(model, *_batch(pairs[start:start + _EVAL_BATCH]))[0]
        for loss in losses:
            total += float(loss)
    return total / len(pairs)


def train_nmt(model, train_pairs, dev_pairs, epochs, batch_size=16, patience=3):
    """Train a copy of `model`; return (best-dev model, TrainLog).

    Pairs hold bare content id sequences; sentence markers are added
    here.  Batch gradients are summed over examples, with the L2 term
    contributed once per batch.  Training stops after `patience`
    consecutive epochs without a strict dev improvement, or at `epochs`.
    A non-finite training or dev loss, or a non-finite squared gradient in
    Adadelta's running average, raises RuntimeError.  The RNG
    driving shuffling and dropout is seeded from the config, so a rerun
    reproduces the trajectory exactly.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    if patience < 1:
        raise ValueError("patience must be at least 1")
    if epochs < 0:
        raise ValueError("epochs must be nonnegative")
    if epochs == 0:
        return model.copy(), TrainLog()
    if not train_pairs:
        raise ValueError("training corpus is empty")
    if not dev_pairs:
        raise ValueError("dev corpus is empty")
    config = model.config
    for label, pairs in (("train", train_pairs), ("dev", dev_pairs)):
        for k, (src, tgt) in enumerate(pairs):
            where = "%s pair %d: " % (label, k)
            _check_ids(src, config.src_vocab_size, "source", where)
            _check_ids(tgt, config.tgt_vocab_size, "target", where)

    current = model.copy()
    theta = current.params.flat
    rng = np.random.default_rng(config.seed)
    state = AdadeltaState(theta)
    record = TrainLog()
    best_nll = None
    best_theta = None
    bad_epochs = 0
    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(train_pairs))
        epoch_nll = 0.0
        for start in range(0, len(order), batch_size):
            batch = _batch([train_pairs[i] for i in order[start:start + batch_size]])
            losses, saved = batch_forward(current, *batch, rng)
            if not np.isfinite(losses).all():
                raise RuntimeError("training diverged: non-finite loss")
            for loss in losses:
                epoch_nll += float(loss)
            grads = batch_backward(saved)
            del saved  # free the activations before the next batch's
            with np.errstate(over="ignore", invalid="ignore"):  # caught below
                l2_penalty(current, grads)
                adadelta_step(theta, grads.flat, state)
            if not np.isfinite(state.sq_grad).all():
                raise RuntimeError("training diverged: non-finite squared gradient")
        record.train_nll.append(epoch_nll / len(train_pairs))
        dev = _corpus_nll(current, dev_pairs)
        if not np.isfinite(dev):
            raise RuntimeError("training diverged: dev nll is %r at epoch %d" % (dev, epoch))
        record.dev_nll.append(dev)
        log.info("epoch %d: train nll %.4f, dev nll %.4f",
                 epoch, record.train_nll[-1], dev)
        if best_nll is None or dev < best_nll:
            best_nll = dev
            best_theta = theta.copy()
            record.best_epoch = epoch
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= patience:
                record.stopped_early = True
                break
    theta[...] = best_theta
    return current, record
