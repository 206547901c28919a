"""Attention encoder-decoder: parameters, forward and backward passes,
checkpoints.

Encoder is a stack of bidirectional GRU layers; each source position's
annotation concatenates the top layer's forward and backward states.
The decoder is a single GRU whose input concatenates the previous
target embedding with an attention-weighted context vector, followed by
an affine projection and log-softmax over the target vocabulary.

The passes are plain numpy over padded minibatches, with gradients from
hand-written backpropagation through time.  The autodiff tape in
autodiff.py is not used here; the tests build the same model on it as
the reference for these gradients.
"""

import json
import math
import numbers
import os
import struct
from dataclasses import dataclass, field, fields, asdict
from itertools import zip_longest

import numpy as np

from ..corpus import PAD_ID, RESERVED, FormatError

_MAGIC = "nmt-checkpoint"


@dataclass
class NmtConfig:
    src_vocab_size: int
    tgt_vocab_size: int
    embed_dim: int = 32
    enc_hidden: int = 64
    enc_layers: int = 2
    dec_hidden: int = 64
    attn_hidden: int = 32
    dropout_rate: float = 0.5
    l2_coeff: float = 1e-4
    seed: int = 1

    def __post_init__(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), f.type
            if isinstance(value, bool) or not isinstance(
                    value, numbers.Real if kind is float else numbers.Integral):
                raise ValueError("config %s is %r, not %s" % (f.name, value, kind.__name__))
        for name in (
            "embed_dim",
            "enc_hidden",
            "enc_layers",
            "dec_hidden",
            "attn_hidden",
        ):
            if getattr(self, name) < 1:
                raise ValueError("%s must be at least 1" % name)
        # The reserved ids come first, so every vocabulary has that many rows.
        if min(self.src_vocab_size, self.tgt_vocab_size) < len(RESERVED):
            raise ValueError("vocab sizes must be at least 4")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if not 0.0 <= self.l2_coeff < math.inf:  # NaN fails too
            raise ValueError("l2_coeff must be finite and nonnegative")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError("seed must be nonnegative")


def param_shapes(config):
    """Name -> shape for every parameter tensor, in a fixed order."""
    e = config.embed_dim
    h = config.enc_hidden
    d = config.dec_hidden
    a = config.attn_hidden
    ann = 2 * h
    shapes = {
        "src_emb": (config.src_vocab_size, e),
        "tgt_emb": (config.tgt_vocab_size, e),
    }
    for layer in range(1, config.enc_layers + 1):
        in_dim = e if layer == 1 else ann
        for direction in ("fw", "bw"):
            prefix = "enc_l%d_%s" % (layer, direction)
            for gate in ("z", "r", "h"):
                shapes["%s_W%s" % (prefix, gate)] = (h, in_dim)
                shapes["%s_U%s" % (prefix, gate)] = (h, h)
                shapes["%s_b%s" % (prefix, gate)] = (h,)
    shapes["init_W"] = (d, ann)
    shapes["init_b"] = (d,)
    shapes["att_Wz"] = (a, d)
    shapes["att_Wy"] = (a, e)
    shapes["att_Wh"] = (a, ann)
    shapes["att_b"] = (a,)
    shapes["att_v"] = (a,)
    dec_in = e + ann
    for gate in ("z", "r", "h"):
        shapes["dec_W%s" % gate] = (d, dec_in)
        shapes["dec_U%s" % gate] = (d, d)
        shapes["dec_b%s" % gate] = (d,)
    shapes["out_W"] = (config.tgt_vocab_size, d)
    shapes["out_b"] = (config.tgt_vocab_size,)
    return shapes


def _param_count(config):
    """The number of values in param_shapes(config), in closed form, so
    that it costs nothing however large the config claims to be."""
    e, h, d, a = config.embed_dim, config.enc_hidden, config.dec_hidden, config.attn_hidden
    def gru(n, in_dim):
        return 3 * n * (in_dim + n + 1)
    encoder = 2 * (gru(h, e) + (config.enc_layers - 1) * gru(h, 2 * h))
    return ((config.src_vocab_size + config.tgt_vocab_size) * e + encoder
            + d * (2 * h + 1) + a * (d + e + 2 * h + 2) + gru(d, e + 2 * h)
            + config.tgt_vocab_size * (d + 1))


class FlatParams(dict):
    """Parameter tensors by name, all views of one float64 vector `flat` (zeros,
    or a copy of `values`).  With gates stacked z, r, h, `gru[prefix]` holds the
    views (W, b, U for z and r, U for h) of a GRU; for "enc_l<k>" with a (fw, bw) axis."""

    def __init__(self, config, values=None):
        self.config, shapes = config, param_shapes(config)
        total = _param_count(config)
        self.flat = np.zeros(total) if values is None else np.array(values, dtype=float)
        self.gru, views, offset = {}, {}, 0
        grus = [("enc_l%d" % k, ("_fw", "_bw")) for k in range(1, config.enc_layers + 1)]
        for prefix, dirs in grus + [("dec", ("",))]:
            n, in_dim = shapes[prefix + dirs[0] + "_Wz"]
            self.gru[prefix] = stacked = []
            for shape, gates in (((3 * n, in_dim), ("_Wz", "_Wr", "_Wh")),
                                 ((3 * n,), ("_bz", "_br", "_bh")),
                                 ((2 * n, n), ("_Uz", "_Ur")), ((n, n), ("_Uh",))):
                size = len(dirs) * math.prod(shape)
                block = self.flat[offset:offset + size].reshape((len(dirs),) + shape)
                offset += size
                stacked.append(block if len(dirs) == 2 else block[0])
                for i, j in np.ndindex(len(dirs), len(gates)):
                    views[prefix + dirs[i] + gates[j]] = block[i, j * n:(j + 1) * n]
        for name, shape in shapes.items():
            if name not in views:
                views[name] = self.flat[offset:offset + math.prod(shape)].reshape(shape)
                offset += math.prod(shape)
        super().__init__((name, views[name]) for name in shapes)

    def __reduce__(self):  # copies rebuild their views on a vector of their own
        return FlatParams, (self.config, self.flat)


@dataclass
class NmtModel:
    """A config and its parameters, which are copied into a FlatParams."""

    config: NmtConfig
    params: dict = field(repr=False)

    def __post_init__(self):
        expected = param_shapes(self.config)
        if set(self.params) != set(expected):
            missing = sorted(set(expected) - set(self.params))
            extra = sorted(set(self.params) - set(expected))
            raise ValueError(
                "parameter set mismatch: missing %s, unexpected %s"
                % (missing, extra)
            )
        flat = FlatParams(self.config)
        for name, shape in expected.items():
            arr = self.params[name]
            if arr.shape != shape:
                raise ValueError(
                    "parameter %s has shape %s, expected %s"
                    % (name, arr.shape, shape)
                )
            if not np.isfinite(arr).all():
                raise ValueError("parameter %s contains non-finite values" % name)
            flat[name][...] = arr
        self.params = flat

    def copy(self):
        return NmtModel(self.config, self.params)


def init_model(config):
    """Seeded uniform(-0.08, 0.08) weights, zero biases."""
    rng = np.random.default_rng(config.seed)
    params = FlatParams(config)
    for name, shape in param_shapes(config).items():
        if len(shape) > 1:
            params[name][...] = rng.uniform(-0.08, 0.08, shape)
    return NmtModel(config, params)


@dataclass
class EncoderStates:
    """What the decoder reads of one source (S positions), or of a batch of
    them with a leading (B,) axis, and the decoder step's weights of the
    model that encoded it: built by _encoder_states alone.

    The weights are stacked by rows into contiguous arrays and transposed
    once per encode or batch, so that each step input x takes one product
    `x @ w`.  Stacking leaves every product bit for bit as the separate
    weights give."""

    annotations: np.ndarray  # (..., S, 2*enc_hidden)
    mask: np.ndarray  # (..., S), 1.0 at real positions
    keys: np.ndarray  # (..., S, attn_hidden): annotations @ att_Wh.T
    mask_bias: np.ndarray  # (..., S): 0.0 at real positions, -inf at padding;
    # None when no position is padding
    emb_w: np.ndarray  # (embed, attn + 3*dec): [att_Wy; dec_W[:, :embed]].T
    emb_b: np.ndarray  # (attn + 3*dec,): [att_b; dec_b]
    state_w: np.ndarray  # (dec, attn + 2*dec): [att_Wz; dec_Uz; dec_Ur].T
    context_w: np.ndarray  # (2*enc_hidden, 3*dec): dec_W[:, embed:].T
    cand_w: np.ndarray  # (dec, dec): dec_Uh.T
    att_v: np.ndarray  # (attn,)


def _encoder_states(params, annotations, mask):
    mask_bias = None if mask.all() else np.where(mask > 0, 0.0, -np.inf)
    W, b, U, Uh = params.gru["dec"]
    e = params["tgt_emb"].shape[1]
    return EncoderStates(annotations, mask, annotations @ params["att_Wh"].T, mask_bias,
                         np.concatenate([params["att_Wy"], W[:, :e]]).T,
                         np.concatenate([params["att_b"], b]),
                         np.concatenate([params["att_Wz"], U]).T,
                         W[:, e:].copy().T, Uh.T, params["att_v"])


@dataclass
class DecoderState:
    # Either one state, or one row per hypothesis with a leading axis.
    z: np.ndarray  # (dec_hidden,) or (k, dec_hidden)
    alpha: np.ndarray  # attention weights from the step that produced z, or None


# ------------------------------------------------------------ numpy core
#
# Every pass runs on padded batches: sequences are time-major (T, B) id
# matrices with {0,1} length masks.  Functions taking rows accept any
# leading axes, so the same code serves a training batch, a beam of
# hypotheses and a single state.

# The largest argument whose exp is finite.
_EXP_MAX = float(np.log(np.finfo(np.float64).max))


def _sigmoid_inplace(x):
    """1 / (1 + exp(-x)) in place.  Below x = -_EXP_MAX, where exp(-x)
    would overflow, it is the value at -_EXP_MAX, about 5.6e-309."""
    np.negative(x, out=x)
    np.minimum(x, _EXP_MAX, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def _log_softmax_inplace(x):
    """Log-softmax over the last axis, in place."""
    x -= np.maximum.reduce(x, axis=-1, keepdims=True)
    x -= np.log(np.add.reduce(np.exp(x), axis=-1, keepdims=True))
    return x


def _matmul(x, w):
    """x @ w; for 2-D x through ndarray.dot, the same gemm for less call
    overhead (dot takes no BLAS path for more axes, so those keep @)."""
    return x.dot(w) if x.ndim == 2 else x @ w


def _gru_step(xp, h, hU, UhT):
    """One GRU step from the input projection xp (biases included), the
    recurrent term hU = h @ [Uz; Ur].T and the transposed Uh.

    h' = u*h + (1-u)*c, so all-zero parameters keep a zero state.
    Returns h' and what backprop needs: gates [u, r], candidate c, r*h.
    """
    n = h.shape[-1]
    gates = _sigmoid_inplace(xp[..., :2 * n] + hU)
    rh = gates[..., n:] * h
    c = _matmul(rh, UhT)
    c += xp[..., 2 * n:]
    np.tanh(c, out=c)
    u = gates[..., :n]
    return u * h + (1.0 - u) * c, gates, c, rh


def _gru_step_grad(dh_new, h, gates, c, rh, U, Uh):
    """Backprop one GRU step: the gradient for the previous state and
    for the stacked pre-activations [z, r, h]."""
    n = h.shape[-1]
    u, r = gates[..., :n], gates[..., n:]
    dc = dh_new * (1.0 - u) * (1.0 - c * c)
    drh = dc @ Uh
    dgates = np.concatenate([dh_new * (h - c), drh * h], axis=-1)
    dgates *= gates * (1.0 - gates)
    dh = dh_new * u + drh * r + dgates @ U
    return dh, np.concatenate([dgates, dc], axis=-1)


def _gru_param_grads(grads, dpre, x, h_prev, rh):
    """Fill one GRU's stacked gradient views (W, b, U, Uh); rows on axis -2."""
    W, b, U, Uh = grads
    n = Uh.shape[-1]
    dpre_t = dpre.swapaxes(-1, -2)
    np.matmul(dpre_t, x, out=W)
    np.matmul(dpre_t[..., :2 * n, :], h_prev, out=U)
    np.matmul(dpre_t[..., 2 * n:, :], rh, out=Uh)
    np.sum(dpre, axis=-2, out=b)


def _encoder_layer(gru, x, m, keep=True):
    """Both directions of one encoder layer over x (S, B, in) in one loop: step
    k advances the forward GRU at position k and the backward one at S-1-k,
    masks m (S, 2, B, 1) in that order; a padded step carries the state.
    Returns the states and, with keep, what backprop needs (else None)."""
    W, b, U, Uh = gru
    UT, UhT = U.swapaxes(1, 2), Uh.swapaxes(1, 2)
    xp = np.stack([x, x[::-1]], axis=1) @ W.swapaxes(1, 2) + b[:, None, :]
    live = None if m.all() else m > 0
    h, acts = [np.zeros((2, x.shape[1], Uh.shape[-1]))], []
    for k in range(len(x)):
        h_new, *step = _gru_step(xp[k], h[k], h[k] @ UT, UhT)
        h.append(h_new if live is None else np.where(live[k], h_new, h[k]))
        if keep:
            acts.append(step)
    h = np.stack(h)  # h[k] enters step k, h[k + 1] leaves it
    return h[1:], (h[:-1], *(np.stack(a) for a in zip(*acts))) if keep else None


def _encoder_layer_grad(gru, x, m, saved, dout, grads):
    """Backprop _encoder_layer from the gradient of its annotations
    dout (S, B, 2n) into the stacked views grads; returns that of x."""
    W, _, U, Uh = gru
    h_prev, gates, c, rh = saved
    n = Uh.shape[-1]
    dout = np.stack([dout[..., :n], dout[::-1, :, n:]], axis=1)
    dpre = np.empty(gates.shape[:-1] + (3 * n,))
    dh = np.zeros_like(dout[0])
    for k in reversed(range(len(x))):
        dh = dh + dout[k]
        d_prev, dpre[k] = _gru_step_grad(
            m[k] * dh, h_prev[k], gates[k], c[k], rh[k], U, Uh)
        dh = d_prev + (1.0 - m[k]) * dh
    def time_major(a):  # (2, S*B, n): weight gradients sum in time order
        return np.stack([a[:, 0], a[::-1, 1]]).reshape(2, -1, a.shape[-1])
    _gru_param_grads(grads, time_major(dpre), x.reshape(-1, x.shape[-1]),
                     time_major(h_prev), time_major(rh))
    dx = dpre @ W
    return dx[:, 0] + dx[::-1, 1]


def _encode(params, config, src, mask, keep=True):
    """Annotations (S, B, 2*enc_hidden) of time-major source ids, and
    each layer's inputs, masks and (with keep) saved activations for backprop."""
    x = params["src_emb"][src]
    m = np.stack([mask, mask[::-1]], axis=1)[..., None]
    layers = []
    for layer in range(1, config.enc_layers + 1):
        out, saved = _encoder_layer(params.gru["enc_l%d" % layer], x, m, keep)
        layers.append((x, m, saved))
        x = np.concatenate([out[:, 0], out[::-1, 1]], axis=2)
    return x, layers


def _init_state(params, annotations, mask):
    """Decoder start state from the mean annotation over real positions;
    also the uniform weights over those positions and the mean."""
    weights = mask / mask.sum(axis=-1, keepdims=True)
    mean = (weights[..., None] * annotations).sum(axis=-2)
    z = np.tanh(mean @ params["init_W"].T + params["init_b"])
    return z, weights, mean


def _target_inputs(params, enc, y):
    """Embeddings of target ids and their stacked projection y_in onto
    the attention query and the decoder gates (biases included)."""
    emb = params["tgt_emb"][y]
    y_in = _matmul(emb, enc.emb_w)
    y_in += enc.emb_b
    return emb, y_in


def _attention_hidden(keys, query):
    """Attention MLP activations (..., S, attn_hidden) for queries."""
    hidden = keys + query[..., None, :]
    return np.tanh(hidden, out=hidden)


def _attend(enc, query):
    """Context vectors and attention weights for queries; softmax over
    the positions where enc.mask_bias is 0, or over all with no mask_bias."""
    alpha = _attention_hidden(enc.keys, query) @ enc.att_v
    if enc.mask_bias is not None:
        alpha += enc.mask_bias
    alpha -= np.maximum.reduce(alpha, axis=-1, keepdims=True)
    np.exp(alpha, out=alpha)
    alpha /= np.add.reduce(alpha, axis=-1, keepdims=True)
    return (alpha[..., None, :] @ enc.annotations)[..., 0, :], alpha


def _decoder_step(enc, z, y_in):
    """Attention over the EncoderStates enc, then the decoder GRU, for one
    target position given the projected target embeddings y_in."""
    a = enc.keys.shape[-1]
    zp = z.dot(enc.state_w)
    query = zp[..., :a] + y_in[..., :a]
    context, alpha = _attend(enc, query)
    xp = context.dot(enc.context_w)
    xp += y_in[..., a:]
    z_new, gates, c, rh = _gru_step(xp, z, zp[..., a:], enc.cand_w)
    return z_new, (query, context, alpha, gates, c, rh)


def _output(params, z):
    logits = _matmul(z, params["out_W"].T)
    logits += params["out_b"]
    return _log_softmax_inplace(logits)


def _pad(seqs):
    """Time-major (T, B) id matrix padded with PAD_ID, and its mask."""
    ids = np.full((max(len(s) for s in seqs), len(seqs)), PAD_ID, dtype=np.intp)
    mask = np.zeros(ids.shape)
    for b, seq in enumerate(seqs):
        ids[:len(seq), b] = seq
        mask[:len(seq), b] = 1.0
    return ids, mask


def batch_forward(model, srcs, tgts, rng=None):
    """Teacher-forced NLL of each (source, target) pair as one padded
    batch.  Targets come wrapped in sentence markers.

    With rng and a nonzero dropout rate, one inverted-dropout mask per
    target step is drawn for the decoder output, example by example in
    batch order.  Returns (losses (B,), saved); batch_backward(saved)
    gives the gradient of the summed losses.
    """
    params, config = model.params, model.config
    src, src_mask = _pad(srcs)
    tgt, tgt_mask = _pad([t[:-1] for t in tgts])
    y_out, _ = _pad([t[1:] for t in tgts])
    annotations, layers = _encode(params, config, src, src_mask)
    enc = _encoder_states(params, np.ascontiguousarray(annotations.transpose(1, 0, 2)),
                          src_mask.T)
    z, weights, mean = _init_state(params, enc.annotations, enc.mask)
    emb, y_in = _target_inputs(params, enc, tgt)

    zs, acts = [z], []
    for t in range(len(tgt)):
        z, step = _decoder_step(enc, z, y_in[t])
        zs.append(z)
        acts.append(step)
    zs = np.stack(zs)  # zs[t] enters step t, zs[t + 1] leaves it
    query, context, alpha, gates, c, rh = (np.stack(a) for a in zip(*acts))

    drop = None
    if rng is not None and config.dropout_rate > 0.0:
        keep = 1.0 - config.dropout_rate
        drop = np.zeros_like(zs[1:])
        for b, tgt_ids in enumerate(tgts):
            n = len(tgt_ids) - 1
            drop[:n, b] = (rng.random((n, config.dec_hidden)) >= config.dropout_rate) / keep
    out_in = zs[1:] if drop is None else zs[1:] * drop
    logp = _output(params, out_in)
    picked = np.take_along_axis(logp, y_out[:, :, None], axis=2)[:, :, 0]
    losses = -(picked * tgt_mask).sum(axis=0)
    saved = dict(
        model=model, src=src, layers=layers, enc=enc, weights=weights,
        mean=mean, tgt=tgt, tgt_mask=tgt_mask, y_out=y_out, emb=emb,
        query=query, zs=zs, context=context, alpha=alpha,
        gates=gates, c=c, rh=rh, drop=drop, out_in=out_in, logp=logp,
    )
    return losses, saved


def batch_backward(saved):
    """Gradient of the summed batch losses for every parameter, by
    backpropagation through time over what batch_forward saved, as a
    FlatParams."""
    s = saved
    params, config = s["model"].params, s["model"].config
    grads = FlatParams(config)
    steps, rows = s["tgt"].shape
    vocab, d, e = config.tgt_vocab_size, config.dec_hidden, config.embed_dim

    # Output projection and log-softmax, every step at once.
    dlogits = np.exp(s["logp"]) * s["tgt_mask"][:, :, None]
    t_idx, b_idx = np.indices(s["y_out"].shape)
    dlogits[t_idx, b_idx, s["y_out"]] -= s["tgt_mask"]
    flat = dlogits.reshape(-1, vocab)
    np.matmul(flat.T, s["out_in"].reshape(-1, d), out=grads["out_W"])
    np.sum(flat, axis=0, out=grads["out_b"])
    dzs = dlogits @ params["out_W"]  # for zs[1:]
    if s["drop"] is not None:
        dzs *= s["drop"]

    # Decoder GRU and attention, back through time.  The attention
    # activations, (B, S, attn_hidden) per step, are recomputed here
    # rather than kept for every step.
    W, _, U, Uh = params.gru["dec"]
    annotations, keys, alpha = s["enc"].annotations, s["enc"].keys, s["alpha"]
    dpre = np.empty((steps, rows, 3 * d))
    dcontext = np.empty_like(s["context"])
    dquery = np.empty((steps, rows, config.attn_hidden))
    dkeys = np.zeros_like(keys)
    dz = np.zeros((rows, d))
    for t in reversed(range(steps)):
        dz, dpre[t] = _gru_step_grad(dz + dzs[t], s["zs"][t], s["gates"][t],
                                     s["c"][t], s["rh"][t], U, Uh)
        dcontext[t] = dpre[t] @ W[:, e:]
        dalpha = (annotations @ dcontext[t][:, :, None])[:, :, 0]
        dscores = alpha[t] * (dalpha - (dalpha * alpha[t]).sum(axis=1, keepdims=True))
        hidden = _attention_hidden(keys, s["query"][t])
        datt = (1.0 - hidden * hidden) * dscores[:, :, None]
        grads["att_v"] += (dscores[:, None, :] @ hidden).sum(axis=0)[0]
        dkeys += datt
        dquery[t] = datt.sum(axis=1) * params["att_v"]
        dz += dquery[t] @ params["att_Wz"]

    dec_in = np.concatenate([s["emb"], s["context"]], axis=2)
    _gru_param_grads(grads.gru["dec"], dpre.reshape(-1, 3 * d),
                     dec_in.reshape(steps * rows, -1),
                     s["zs"][:-1].reshape(-1, d), s["rh"].reshape(-1, d))
    flat_q = dquery.reshape(-1, config.attn_hidden)
    np.matmul(flat_q.T, s["zs"][:-1].reshape(-1, d), out=grads["att_Wz"])
    np.matmul(flat_q.T, s["emb"].reshape(-1, e), out=grads["att_Wy"])
    np.sum(flat_q, axis=0, out=grads["att_b"])
    dkeys *= params["att_v"]
    ann_dim = annotations.shape[2]
    np.matmul(dkeys.reshape(-1, config.attn_hidden).T,
              annotations.reshape(-1, ann_dim), out=grads["att_Wh"])
    dann = dkeys @ params["att_Wh"] + np.einsum("tbs,tbk->bsk", alpha, dcontext)
    demb = dpre @ W[:, :e] + dquery @ params["att_Wy"]
    np.add.at(grads["tgt_emb"], s["tgt"], demb)

    # Initial state from the mean annotation.
    dinit = dz * (1.0 - s["zs"][0] * s["zs"][0])
    np.matmul(dinit.T, s["mean"], out=grads["init_W"])
    np.sum(dinit, axis=0, out=grads["init_b"])
    dann += s["weights"][:, :, None] * (dinit @ params["init_W"])[:, None, :]

    # Encoder layers, top down.
    dx = dann.transpose(1, 0, 2)
    for layer in reversed(range(1, config.enc_layers + 1)):
        prefix = "enc_l%d" % layer
        dx = _encoder_layer_grad(params.gru[prefix], *s["layers"][layer - 1], dx,
                                 grads.gru[prefix])
    np.add.at(grads["src_emb"], s["src"], dx)
    return grads


def l2_penalty(model, grads):
    """Add the gradient of l2_coeff * sum of squared parameters to the
    FlatParams grads in place, and return the penalty."""
    coeff = model.config.l2_coeff
    if coeff == 0.0:
        return 0.0
    theta = model.params.flat
    grads.flat += 2.0 * coeff * theta
    return coeff * float(theta @ theta)


# ------------------------------------------------------------ public API

def _check_ids(ids, vocab_size, side, where=""):
    """ids as an intp array once each is in [0, vocab_size); else a ValueError
    naming `where` (such as "train pair 3: "), the side and the first id out
    of range.  A source must hold at least one id."""
    ids = np.asarray(ids)
    if side == "source" and ids.size == 0:
        raise ValueError("%ssource sequence is empty" % where)
    bad = ids[(ids < 0) | (ids >= vocab_size)]
    if bad.size:
        raise ValueError("%s%s id %d out of range [0, %d)" % (where, side, bad[0], vocab_size))
    return ids.astype(np.intp, copy=False)


def encode(model, src_ids):
    """Annotation matrix for a source id sequence, which holds no padding:
    the decoder start state and attention see every position."""
    src = _check_ids(src_ids, model.config.src_vocab_size, "source")
    mask = np.ones(len(src))
    annotations, _ = _encode(model.params, model.config, src[:, None], mask[:, None],
                             keep=False)
    return _encoder_states(model.params, annotations[:, 0, :], mask)


def decoder_init(model, enc):
    """Initial decoder state: tanh projection of the mean annotation."""
    z, weights, _ = _init_state(model.params, enc.annotations, enc.mask)
    return DecoderState(z, weights)


def _advance(params, enc, z, y):
    """The decoder rows z (k, dec_hidden) advanced by the target ids y (k,)
    they consume: the new rows, their log-probabilities (k, V) and their
    attention weights.  The searches call it on the ids they produced;
    decode_step checks its input first."""
    _, y_in = _target_inputs(params, enc, y)
    z, acts = _decoder_step(enc, z, y_in)
    return z, _output(params, z), acts[2]


def decode_step(model, state, y_prev, enc):
    """Advance the decoder by one target position.

    Returns the new state and the full log-probability vector over the
    target vocabulary.  The input is checked, then the step is the one the
    searches take.  With a leading row axis (state.z of shape
    (k, dec_hidden) and y_prev an int array of k ids) every row advances
    at once against the same source, and log-probabilities are (k, V).
    """
    y = np.asarray(y_prev)
    single = y.ndim == 0
    y = _check_ids(y.reshape(-1), model.config.tgt_vocab_size, "target")
    z = state.z.reshape(-1, state.z.shape[-1])
    if z.shape[0] != len(y):
        raise ValueError("state has %d rows but %d target ids" % (z.shape[0], len(y)))
    z_new, logp, alpha = _advance(model.params, enc, z, y)
    if single:
        return DecoderState(z_new[0], alpha[0]), logp[0]
    return DecoderState(z_new, alpha), logp


def _layout(config):
    """The tensor table of a checkpoint for config: every parameter in
    param_shapes order, packed from offset 0."""
    table, offset = [], 0
    for name, shape in param_shapes(config).items():
        table.append({"name": name, "offset": offset, "shape": list(shape)})
        offset += 8 * math.prod(shape)
    return table


def save_model(model, path, vocab_files=None):
    """Single-file checkpoint: length-prefixed JSON header, then raw
    little-endian float64 tensor data laid out as _layout says."""
    table = _layout(model.config)
    header = {
        "format": _MAGIC,
        "config": asdict(model.config),
        "vocab_files": vocab_files,
        "tensors": table,
    }
    payload = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(struct.pack("<Q", len(payload)))
        handle.write(payload)
        for entry in table:
            handle.write(np.ascontiguousarray(model.params[entry["name"]], dtype="<f8"))


def read_header(path):
    with open(path, "rb") as handle:
        prefix = handle.read(8)
        if len(prefix) < 8:
            raise FormatError("%s: truncated checkpoint" % path)
        (length,) = struct.unpack("<Q", prefix)
        size = os.fstat(handle.fileno()).st_size
        if length > size:
            raise FormatError("%s: checkpoint header length %d exceeds file size %d"
                              % (path, length, size))
        payload = handle.read(length)
    if len(payload) < length:
        raise FormatError("%s: truncated checkpoint header" % path)
    try:
        header = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise FormatError("%s: checkpoint header is not valid JSON" % path) from None
    if not isinstance(header, dict) or header.get("format") != _MAGIC:
        raise FormatError("%s: not a model checkpoint" % path)
    return header


def _header_config(path, header):
    raw = header.get("config")
    if not isinstance(raw, dict):
        raise FormatError("%s: checkpoint header has no config table" % path)
    try:
        return NmtConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise FormatError("%s: bad checkpoint config: %s" % (path, exc)) from None


def load_model(path):
    """Read a checkpoint whose tensor table is the one save_model writes
    for its config; any other table, or data of another size, is a
    FormatError naming the file."""
    header = read_header(path)
    config = _header_config(path, header)
    with open(path, "rb") as handle:
        (length,) = struct.unpack("<Q", handle.read(8))
        handle.seek(8 + length)
        data = handle.read()
    # The size comes first: a config claiming a huge model is rejected
    # before its tensor table is built.
    size = 8 * _param_count(config)
    if len(data) != size:
        raise FormatError("%s: tensor data is %d bytes, the config requires %d"
                          % (path, len(data), size))
    table = _layout(config)
    tensors = header.get("tensors")
    if tensors != table:
        if not isinstance(tensors, list):
            raise FormatError("%s: checkpoint header has no tensor list" % path)
        k, got, want = next((k, got, want) for k, (got, want)
                            in enumerate(zip_longest(tensors, table)) if got != want)
        raise FormatError("%s: tensor entry %d is %s, the config requires %s"
                          % (path, k, json.dumps(got), json.dumps(want)))
    values = np.frombuffer(data, dtype="<f8")
    params = {entry["name"]: values[entry["offset"] // 8:][:math.prod(entry["shape"])]
              .reshape(entry["shape"]) for entry in table}
    try:
        return NmtModel(config, params)
    except ValueError as exc:
        raise FormatError("%s: %s" % (path, exc)) from None
