import copy
import json
import math
import pickle
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from tarjama import nmt
from tarjama.corpus import BOS_ID, EOS_ID, FormatError
from tarjama.nmt import decoding as nmt_decoding
from tarjama.nmt import model as nmt_model
from tarjama.nmt import training as nmt_training
from tarjama.nmt.model import (_encoder_layer, _encoder_layer_grad, batch_backward,
                               batch_forward, l2_penalty, read_header)


def tiny_config(**kwargs):
    base = dict(src_vocab_size=7, tgt_vocab_size=6, embed_dim=4, enc_hidden=3,
                enc_layers=2, dec_hidden=5, attn_hidden=3, dropout_rate=0.0,
                l2_coeff=0.0, seed=13)
    base.update(kwargs)
    return nmt.NmtConfig(**base)


def randomized_model(config, scale=0.5, seed=99):
    """Weights well away from zero so every path carries signal."""
    model = nmt.init_model(config)
    rng = np.random.default_rng(seed)
    for arr in model.params.values():
        arr[...] = rng.uniform(-scale, scale, arr.shape)
    return model


def force_score(model, enc, content):
    """Accumulated log-probability of emitting content then EOS."""
    state = nmt.decoder_init(model, enc)
    total = 0.0
    prev = BOS_ID
    for tok in list(content) + [EOS_ID]:
        state, logp = nmt.decode_step(model, state, prev, enc)
        total += logp[tok]
        prev = tok
    return total, len(content) + 1


def exhaustive_argmax(model, src, max_len):
    """Enumerate every complete output and rank like the decoder does."""
    enc = nmt.encode(model, src)
    vocab = [i for i in range(model.config.tgt_vocab_size) if i != EOS_ID]
    best = None
    stack = [()]
    while stack:
        content = stack.pop()
        total, steps = force_score(model, enc, content)
        key = (-total / steps, len(content), content)
        if best is None or key < best[0]:
            best = (key, content)
        if len(content) < max_len - 1:
            stack.extend(content + (w,) for w in reversed(vocab))
    return list(best[1]), -best[0][0]


# ----------------------------------------------------------- configuration

def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(src_vocab_size=3)
    with pytest.raises(ValueError):
        tiny_config(embed_dim=0)
    with pytest.raises(ValueError):
        tiny_config(dropout_rate=1.0)
    with pytest.raises(ValueError):
        tiny_config(l2_coeff=-0.1)
    with pytest.raises(ValueError, match="seed"):
        tiny_config(seed=-1)


def test_param_shapes_cover_both_directions_and_layers():
    config = tiny_config()
    shapes = nmt.param_shapes(config)
    assert shapes["src_emb"] == (7, 4)
    assert shapes["tgt_emb"] == (6, 4)
    assert shapes["enc_l1_fw_Wz"] == (3, 4)
    # Layer 2 consumes the concatenated layer-1 states.
    assert shapes["enc_l2_bw_Wh"] == (3, 6)
    assert shapes["dec_Wz"] == (5, 4 + 6)
    assert shapes["out_W"] == (6, 5)
    assert shapes["att_v"] == (3,)


def test_init_model_is_seeded_with_zero_biases():
    config = tiny_config()
    a = nmt.init_model(config)
    b = nmt.init_model(config)
    for name, arr in a.params.items():
        assert np.array_equal(arr, b.params[name])
        if name.endswith(("_bz", "_br", "_bh")) or name in ("init_b", "att_b", "out_b"):
            assert np.all(arr == 0.0)
        else:
            assert np.all(np.abs(arr) <= 0.08)


def test_model_rejects_bad_parameter_sets():
    config = tiny_config()
    params = nmt.init_model(config).params
    broken = dict(params)
    del broken["out_b"]
    with pytest.raises(ValueError):
        nmt.NmtModel(config, broken)
    broken = {k: v.copy() for k, v in params.items()}
    broken["out_b"] = np.zeros(3)
    with pytest.raises(ValueError):
        nmt.NmtModel(config, broken)
    broken = {k: v.copy() for k, v in params.items()}
    broken["out_b"][0] = np.nan
    with pytest.raises(ValueError):
        nmt.NmtModel(config, broken)


# ---------------------------------------------------------------- forward

def test_zero_parameters_fix_state_at_zero():
    config = tiny_config()
    model = nmt.NmtModel(
        config, {k: np.zeros(s) for k, s in nmt.param_shapes(config).items()}
    )
    enc = nmt.encode(model, [4, 5, 6])
    assert np.all(enc.annotations == 0.0)
    state = nmt.decoder_init(model, enc)
    assert np.all(state.z == 0.0)


def test_encode_matches_plain_numpy():
    config = tiny_config()
    model = randomized_model(config)
    src = [4, 5, 6, 4, 1]
    enc = nmt.encode(model, src)
    want = oracles.encode_forward(model.params, config, src)
    assert enc.annotations.shape == (5, 2 * config.enc_hidden)
    assert np.allclose(enc.annotations, want, atol=1e-12)


def test_decoder_init_and_attention_match_plain_numpy():
    config = tiny_config()
    model = randomized_model(config)
    enc = nmt.encode(model, [4, 6, 5])
    state = nmt.decoder_init(model, enc)
    assert np.allclose(
        state.z, oracles.init_forward(model.params, enc.annotations), atol=1e-12
    )
    assert np.allclose(state.alpha, np.full(3, 1.0 / 3.0))
    y_emb = model.params["tgt_emb"][4]
    context, alpha = nmt.attend(model, state, y_emb, enc)
    want_ctx, want_alpha = oracles.attend_forward(
        model.params, state.z, y_emb, enc.annotations
    )
    assert np.allclose(context, want_ctx, atol=1e-12)
    assert np.allclose(alpha, want_alpha, atol=1e-12)
    assert math.isclose(alpha.sum(), 1.0, rel_tol=1e-12)


def test_decode_step_matches_plain_numpy():
    config = tiny_config()
    model = randomized_model(config)
    enc = nmt.encode(model, [4, 6, 5])
    state = nmt.decoder_init(model, enc)
    z = state.z
    prev = BOS_ID
    for tok in (4, 5, 3):
        state, logp = nmt.decode_step(model, state, prev, enc)
        z, _, want_logp = oracles.decode_forward(
            model.params, z, prev, enc.annotations
        )
        assert np.allclose(state.z, z, atol=1e-12)
        assert np.allclose(logp, want_logp, atol=1e-12)
        assert math.isclose(np.exp(logp).sum(), 1.0, rel_tol=1e-9)
        prev = tok


def test_encode_rejects_bad_ids_and_masks():
    model = randomized_model(tiny_config())
    with pytest.raises(ValueError):
        nmt.encode(model, [])
    with pytest.raises(ValueError):
        nmt.encode(model, [99])
    with pytest.raises(ValueError):
        nmt.encode(model, [4, 5], mask=[1.0])
    with pytest.raises(ValueError):
        nmt.encode(model, [4, 5], mask=[0.0, 0.0])


# ------------------------------------------------------------------- loss

def test_sequence_loss_matches_plain_numpy():
    config = tiny_config(l2_coeff=1e-3)
    model = randomized_model(config)
    src = [4, 5, 6]
    tgt = [BOS_ID, 4, 5, 4, EOS_ID]
    loss, grads = nmt.sequence_loss(model, src, tgt)
    want = oracles.nll_forward(model.params, config, src, tgt, config.l2_coeff)
    assert math.isclose(loss, want, rel_tol=1e-10)
    assert set(grads) == set(model.params)
    for name, g in grads.items():
        assert g.shape == model.params[name].shape


def test_sequence_loss_requires_wrapped_target():
    model = randomized_model(tiny_config())
    with pytest.raises(ValueError):
        nmt.sequence_loss(model, [4], [4, 5])
    with pytest.raises(ValueError):
        nmt.sequence_loss(model, [4], [BOS_ID, 4])
    with pytest.raises(ValueError):
        nmt.sequence_loss(model, [4], [4, EOS_ID])


def test_sequence_loss_is_deterministic_without_dropout():
    model = randomized_model(tiny_config(l2_coeff=1e-4))
    a_loss, a_grads = nmt.sequence_loss(model, [4, 5], [BOS_ID, 4, EOS_ID])
    b_loss, b_grads = nmt.sequence_loss(model, [4, 5], [BOS_ID, 4, EOS_ID])
    assert a_loss == b_loss
    for name in a_grads:
        assert np.array_equal(a_grads[name], b_grads[name])


def test_dropout_needs_rng_and_reproduces_by_seed():
    model = randomized_model(tiny_config(dropout_rate=0.5))
    tgt = [BOS_ID, 4, 5, EOS_ID]
    with pytest.raises(ValueError, match="rng"):
        nmt.sequence_loss(model, [4, 5], tgt, dropout=True)
    a = nmt.sequence_loss(model, [4, 5], tgt, dropout=True,
                          rng=np.random.default_rng(3))
    b = nmt.sequence_loss(model, [4, 5], tgt, dropout=True,
                          rng=np.random.default_rng(3))
    c = nmt.sequence_loss(model, [4, 5], tgt, dropout=True,
                          rng=np.random.default_rng(4))
    assert a[0] == b[0]
    assert a[0] != c[0]
    # Rate zero makes the flag a no-op.
    plain = randomized_model(tiny_config(dropout_rate=0.0))
    off = nmt.sequence_loss(plain, [4, 5], tgt)
    on = nmt.sequence_loss(plain, [4, 5], tgt, dropout=True,
                           rng=np.random.default_rng(5))
    assert off[0] == on[0]


def test_gradients_match_finite_differences_spot_check():
    config = tiny_config(enc_layers=1, l2_coeff=1e-3)
    model = randomized_model(config, scale=0.7, seed=2)
    src = [4, 5, 6]
    tgt = [BOS_ID, 4, 5, EOS_ID]
    _, grads = nmt.sequence_loss(model, src, tgt)
    h = 1e-5
    rng = np.random.default_rng(0)
    for name in ("src_emb", "enc_l1_bw_Uh", "att_v", "dec_br", "out_W"):
        arr = model.params[name]
        flat_index = int(rng.integers(arr.size))
        idx = np.unravel_index(flat_index, arr.shape)
        old = arr[idx]
        arr[idx] = old + h
        up, _ = nmt.sequence_loss(model, src, tgt)
        arr[idx] = old - h
        down, _ = nmt.sequence_loss(model, src, tgt)
        arr[idx] = old
        fd = (up - down) / (2 * h)
        an = grads[name][idx]
        assert abs(fd - an) / max(abs(fd), abs(an), 1e-8) <= 1e-4, name


def random_batch(rng, config, size):
    """Padded-batch material: sources of 1-6 ids, wrapped targets of
    0-5 content ids, always including a length-1 source and an empty
    target."""
    srcs, tgts = [], []
    for k in range(size):
        n_src = 1 if k == 0 else int(rng.integers(1, 7))
        n_tgt = 0 if k == 1 else int(rng.integers(0, 6))
        srcs.append([int(x) for x in rng.integers(0, config.src_vocab_size, n_src)])
        content = rng.integers(0, config.tgt_vocab_size, n_tgt)
        tgts.append((BOS_ID,) + tuple(int(x) for x in content) + (EOS_ID,))
    order = rng.permutation(size)
    return [srcs[i] for i in order], [tgts[i] for i in order]


@pytest.mark.parametrize("enc_layers", [1, 2])
@pytest.mark.parametrize("dropout_rate", [0.0, 0.4])
def test_batch_gradient_matches_tape_per_example_sum(enc_layers, dropout_rate):
    config = tiny_config(enc_layers=enc_layers, dropout_rate=dropout_rate)
    rng = np.random.default_rng(enc_layers * 10 + int(dropout_rate * 10))
    for trial in range(3):
        model = randomized_model(config, scale=0.6, seed=trial)
        srcs, tgts = random_batch(rng, config, size=int(rng.integers(2, 6)))
        losses, saved = batch_forward(model, srcs, tgts,
                                      rng=np.random.default_rng(trial))
        grads = batch_backward(saved)
        want_losses, want_grads = oracles.tape_batch_loss(
            model, srcs, tgts, rng=np.random.default_rng(trial))
        assert np.max(np.abs(losses - want_losses)) <= 1e-10
        assert set(grads) == set(model.params)
        for name, g in grads.items():
            assert g.shape == model.params[name].shape
            assert np.max(np.abs(g - want_grads[name])) <= 1e-10, name


def test_batch_losses_are_padding_invariant():
    rng = np.random.default_rng(12)
    for layers in (1, 2):
        config = tiny_config(enc_layers=layers)
        model = randomized_model(config, scale=0.8, seed=layers)
        srcs, tgts = random_batch(rng, config, size=6)
        losses, _ = batch_forward(model, srcs, tgts)
        for k, (src, tgt) in enumerate(zip(srcs, tgts)):
            alone, _ = batch_forward(model, [src], [tgt])
            assert abs(losses[k] - alone[0]) <= 1e-12


def test_decode_step_rows_match_single_steps():
    config = tiny_config()
    model = randomized_model(config)
    enc = nmt.encode(model, [4, 6, 5, 1])
    start = nmt.decoder_init(model, enc)
    rows = nmt.DecoderState(np.stack([start.z] * 3), np.stack([start.alpha] * 3))
    rows, _ = nmt.decode_step(model, rows, np.array([BOS_ID] * 3), enc)
    prev = np.array([4, 0, 5])
    new_rows, logp = nmt.decode_step(model, rows, prev, enc)
    assert logp.shape == (3, config.tgt_vocab_size)
    for k in range(3):
        one = nmt.DecoderState(rows.z[k], rows.alpha[k])
        state, want = nmt.decode_step(model, one, int(prev[k]), enc)
        assert np.allclose(new_rows.z[k], state.z, atol=1e-14)
        assert np.allclose(new_rows.alpha[k], state.alpha, atol=1e-14)
        assert np.allclose(logp[k], want, atol=1e-14)
    with pytest.raises(ValueError):
        nmt.decode_step(model, rows, np.array([4, 99, 5]), enc)
    with pytest.raises(ValueError):
        nmt.decode_step(model, rows, np.array([4, 5]), enc)


def test_gru_layer_gradient_crosses_masked_steps():
    # Masks with holes: state and gradient both pass through a 0 step.
    # The objective weighs the forward half, the backward half, then both
    # halves of the annotations.
    config = tiny_config()
    gru = randomized_model(config).params.gru["enc_l1"]
    rng = np.random.default_rng(8)
    x = rng.normal(size=(5, 2, config.embed_dim))
    mask = np.array([[1, 1], [0, 1], [1, 0], [0, 1], [1, 1]], float)
    m = np.stack([mask, mask[::-1]], axis=1)[..., None]  # encoder step order
    h = config.enc_hidden

    def objective(inputs, weights):
        out, _ = _encoder_layer(gru, inputs, m)
        annotations = np.concatenate([out[:, 0], out[::-1, 1]], axis=2)
        return float((weights * annotations).sum())

    for half in (slice(0, h), slice(h, 2 * h), slice(0, 2 * h)):
        weights = np.zeros((5, 2, 2 * h))
        weights[..., half] = rng.normal(size=(5, 2, half.stop - half.start))
        _, saved = _encoder_layer(gru, x, m)
        grads = tuple(np.zeros_like(w) for w in gru)
        dx = _encoder_layer_grad(gru, x, m, saved, weights, grads)
        for idx in np.ndindex(x.shape):
            bumped = x.copy()
            bumped[idx] += 1e-6
            lowered = x.copy()
            lowered[idx] -= 1e-6
            fd = (objective(bumped, weights) - objective(lowered, weights)) / 2e-6
            assert abs(fd - dx[idx]) <= 1e-7


def test_encode_mask_carries_state_over_padding():
    # A padded tail changes nothing the decoder can see.
    config = tiny_config()
    model = randomized_model(config)
    short = nmt.encode(model, [4, 6, 5])
    padded = nmt.encode(model, [4, 6, 5, 0, 0], mask=[1, 1, 1, 0, 0])
    assert np.allclose(padded.annotations[:3], short.annotations, atol=1e-14)
    a, b = nmt.decoder_init(model, short), nmt.decoder_init(model, padded)
    assert np.allclose(a.z, b.z, atol=1e-14)
    _, logp_a = nmt.decode_step(model, a, BOS_ID, short)
    _, logp_b = nmt.decode_step(model, b, BOS_ID, padded)
    assert np.allclose(logp_a, logp_b, atol=1e-14)
    with pytest.raises(ValueError):
        nmt.encode(model, [4, 5], mask=[1.0, 0.5])


def test_decode_step_on_padded_source_matches_unpadded():
    # Padding inside and after the source: every row of every step sees
    # only the real positions, through the additive attention mask.
    config = tiny_config()
    model = randomized_model(config)
    live = np.array([1, 0, 1, 1, 0, 1, 0, 0], bool)
    plain = nmt.encode(model, [4, 6, 5, 1])
    padded = nmt.encode(model, [4, 0, 6, 5, 2, 1, 0, 3], mask=live.astype(float))
    a, b = (nmt.DecoderState(np.stack([nmt.decoder_init(model, enc).z] * 3), None)
            for enc in (plain, padded))
    for prev in ([BOS_ID] * 3, [4, 5, 1], [0, 5, 5]):
        a, logp_a = nmt.decode_step(model, a, np.array(prev), plain)
        b, logp_b = nmt.decode_step(model, b, np.array(prev), padded)
        assert np.max(np.abs(a.z - b.z)) <= 1e-12
        assert np.max(np.abs(a.alpha - b.alpha[..., live])) <= 1e-12
        assert not b.alpha[..., ~live].any()
        assert np.max(np.abs(logp_a - logp_b)) <= 1e-12


# -------------------------------------------------------------- optimizer

def test_adadelta_first_step_frozen_value():
    theta = np.zeros(3)
    state = nmt.AdadeltaState(theta)
    nmt.adadelta_step(theta, np.ones(3), state)
    want = -math.sqrt(1e-6 / (0.05 + 1e-6))
    assert np.allclose(theta, want, rtol=1e-12)
    assert math.isclose(want, -4.4721e-3, rel_tol=1e-4)


def test_adadelta_accumulator_update_order():
    # Gradient average moves before the step is sized; step average after.
    theta = np.array([0.0])
    state = nmt.AdadeltaState(theta)
    rho, eps = 0.95, 1e-6
    eg2 = ed2 = 0.0
    w = 0.0
    for g in (1.0, 1.0, -2.0):
        eg2 = rho * eg2 + (1 - rho) * g * g
        delta = -math.sqrt((ed2 + eps) / (eg2 + eps)) * g
        ed2 = rho * ed2 + (1 - rho) * delta * delta
        w += delta
        nmt.adadelta_step(theta, np.array([g]), state, rho, eps)
        assert math.isclose(theta[0], w, rel_tol=1e-12)
    assert math.isclose(state.sq_grad[0], eg2, rel_tol=1e-12)
    assert math.isclose(state.sq_delta[0], ed2, rel_tol=1e-12)


def test_adadelta_updates_in_place():
    theta = np.zeros(2)
    state = nmt.AdadeltaState(theta)
    out, _ = nmt.adadelta_step(theta, np.ones(2), state)
    assert out is theta


def flat_span(model, name):
    """Slice of the model's flat vector that holds tensor `name`."""
    arr = model.params[name]
    start = (arr.__array_interface__["data"][0]
             - model.params.flat.__array_interface__["data"][0]) // 8
    return slice(start, start + arr.size)


def test_flat_adadelta_matches_per_tensor_loop():
    # Whole-vector steps on real gradients, L2 included, are bit for bit
    # the update applied one tensor at a time.
    config = tiny_config(l2_coeff=1e-3, dropout_rate=0.3)
    model = randomized_model(config)
    ref = {k: v.copy() for k, v in model.params.items()}
    sq_grad = {k: np.zeros_like(v) for k, v in ref.items()}
    sq_delta = {k: np.zeros_like(v) for k, v in ref.items()}
    state = nmt.AdadeltaState(model.params.flat)
    rng = np.random.default_rng(6)
    for _ in range(5):
        srcs, tgts = random_batch(rng, config, size=3)
        grads = batch_backward(batch_forward(model, srcs, tgts, rng)[1])
        l2_penalty(model, grads)
        oracles.dict_adadelta_step(ref, grads, sq_grad, sq_delta, 0.9, 1e-5)
        nmt.adadelta_step(model.params.flat, grads.flat, state, 0.9, 1e-5)
        for name, arr in model.params.items():
            assert arr.tobytes() == ref[name].tobytes(), name
            assert state.sq_grad[flat_span(model, name)].tobytes() == sq_grad[name].tobytes()
            assert state.sq_delta[flat_span(model, name)].tobytes() == sq_delta[name].tobytes()


def test_params_are_views_of_one_vector(tmp_path):
    config = tiny_config()
    model = randomized_model(config)
    path = tmp_path / "model.ckpt"
    nmt.save_model(model, str(path))
    plain = {k: v.copy() for k, v in model.params.items()}
    same = [model.copy(), nmt.NmtModel(config, plain), nmt.load_model(str(path))]
    for built in [nmt.init_model(config), model] + same:
        params = built.params
        assert list(params) == list(nmt.param_shapes(config))
        covered = np.zeros(params.flat.size, dtype=int)
        for name, arr in params.items():
            assert arr.base is params.flat, name
            covered[flat_span(built, name)] += 1
        assert np.all(covered == 1)
        # Each GRU's stacked weights are views holding the named tensors.
        for layer in (1, 2):
            W, b, U, Uh = params.gru["enc_l%d" % layer]
            assert all(a.base is params.flat for a in (W, b, U, Uh))
            for i, direction in enumerate(("fw", "bw")):
                prefix = "enc_l%d_%s" % (layer, direction)
                assert np.array_equal(
                    W[i], np.concatenate([params[prefix + "_W" + g] for g in "zrh"]))
                assert np.array_equal(
                    b[i], np.concatenate([params[prefix + "_b" + g] for g in "zrh"]))
                assert np.array_equal(
                    U[i], np.concatenate([params[prefix + "_Uz"], params[prefix + "_Ur"]]))
                assert np.array_equal(Uh[i], params[prefix + "_Uh"])
        W, b, U, Uh = params.gru["dec"]
        assert all(a.base is params.flat for a in (W, b, U, Uh))
        assert np.array_equal(W, np.concatenate([params["dec_W" + g] for g in "zrh"]))
    for built in same:
        assert built.params.flat is not model.params.flat
        for name, arr in built.params.items():
            assert np.array_equal(arr, model.params[name])
    # Copies made by copy.deepcopy and pickle are views of their own vector.
    for other in (copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        other.params.flat[:] = 1.0
        assert all(np.all(arr == 1.0) for arr in other.params.values())
        assert all(np.all(arr == 1.0) for arr in other.params.gru["dec"])
        assert not np.all(model.params.flat == 1.0)
    # A write through a named view shows in the stacked view, and in no
    # other model.
    clone = model.copy()
    clone.params["dec_Wr"][0, 0] = 7.0
    assert clone.params.gru["dec"][0][config.dec_hidden, 0] == 7.0
    assert model.params["dec_Wr"][0, 0] != 7.0


# --------------------------------------------------------------- training

def copy_pairs(rng, count, vocab, max_len=6):
    pairs = []
    for _ in range(count):
        n = int(rng.integers(1, max_len + 1))
        seq = tuple(int(x) for x in rng.integers(4, vocab, size=n))
        pairs.append((seq, seq))
    return pairs


def test_train_loss_decreases_on_copy_task():
    rng = np.random.default_rng(21)
    pairs = copy_pairs(rng, 200, vocab=20)
    config = nmt.NmtConfig(src_vocab_size=20, tgt_vocab_size=20, embed_dim=16,
                           enc_hidden=16, enc_layers=1, dec_hidden=16,
                           attn_hidden=8, dropout_rate=0.0, l2_coeff=0.0, seed=3)
    model = nmt.init_model(config)
    _, record = nmt.train_nmt(model, pairs, pairs[:20], epochs=5, batch_size=8,
                              patience=10)
    increases = sum(
        1 for a, b in zip(record.train_nll, record.train_nll[1:]) if b >= a
    )
    assert len(record.train_nll) == 5
    assert increases <= 1


def test_train_returns_best_epoch_snapshot(monkeypatch):
    scripted = [5.0, 4.0, 4.1, 4.2, 4.3, 3.0]
    snapshots = []

    def fake_dev(model, pairs):
        snapshots.append({k: v.copy() for k, v in model.params.items()})
        return scripted[len(snapshots) - 1]

    monkeypatch.setattr(nmt_training, "_corpus_nll", fake_dev)
    rng = np.random.default_rng(1)
    pairs = copy_pairs(rng, 8, vocab=6)
    model = randomized_model(tiny_config())
    best, record = nmt.train_nmt(model, pairs, pairs, epochs=10, batch_size=4,
                                 patience=3)
    # Epochs 3-5 never beat epoch 2, so training stops without reaching the
    # scripted 3.0 and hands back the epoch-2 parameters.
    assert record.dev_nll == [5.0, 4.0, 4.1, 4.2, 4.3]
    assert record.best_epoch == 2
    assert record.stopped_early
    for name, arr in best.params.items():
        assert np.array_equal(arr, snapshots[1][name])


def test_train_respects_strict_improvement(monkeypatch):
    scripted = [5.0, 5.0, 5.0]
    calls = []

    def fake_dev(model, pairs):
        calls.append(None)
        return scripted[len(calls) - 1]

    monkeypatch.setattr(nmt_training, "_corpus_nll", fake_dev)
    rng = np.random.default_rng(2)
    pairs = copy_pairs(rng, 4, vocab=6)
    best, record = nmt.train_nmt(randomized_model(tiny_config()), pairs, pairs,
                                 epochs=10, batch_size=2, patience=2)
    # Ties are not improvements; epoch 1 remains best.
    assert record.best_epoch == 1
    assert record.stopped_early
    assert len(record.dev_nll) == 3


def test_train_is_deterministic():
    rng = np.random.default_rng(4)
    pairs = copy_pairs(rng, 10, vocab=6)
    config = tiny_config(dropout_rate=0.3, l2_coeff=1e-4)
    a, log_a = nmt.train_nmt(nmt.init_model(config), pairs, pairs[:3], epochs=2)
    b, log_b = nmt.train_nmt(nmt.init_model(config), pairs, pairs[:3], epochs=2)
    assert log_a.dev_nll == log_b.dev_nll
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])


def test_train_leaves_input_model_untouched():
    rng = np.random.default_rng(5)
    pairs = copy_pairs(rng, 6, vocab=6)
    model = randomized_model(tiny_config())
    before = {k: v.copy() for k, v in model.params.items()}
    nmt.train_nmt(model, pairs, pairs, epochs=1)
    for name, arr in model.params.items():
        assert np.array_equal(arr, before[name])


def test_train_validation_errors():
    model = randomized_model(tiny_config())
    pairs = [((4,), (4,))]
    with pytest.raises(ValueError):
        nmt.train_nmt(model, [], pairs, epochs=1)
    with pytest.raises(ValueError):
        nmt.train_nmt(model, pairs, [], epochs=1)
    with pytest.raises(ValueError):
        nmt.train_nmt(model, [((), (4,))], pairs, epochs=1)
    with pytest.raises(ValueError):
        nmt.train_nmt(model, [((99,), (4,))], pairs, epochs=1)
    with pytest.raises(ValueError):
        nmt.train_nmt(model, pairs, pairs, epochs=-1)
    best, record = nmt.train_nmt(model, pairs, pairs, epochs=0)
    assert record.dev_nll == [] and not record.stopped_early
    assert np.array_equal(best.params["out_W"], model.params["out_W"])


def test_train_raises_on_divergence():
    config = tiny_config(enc_layers=1)
    model = nmt.init_model(config)
    # Mixed-sign huge weights overflow inside one matmul: inf - inf = nan.
    model.params["src_emb"][...] = 1e200
    model.params["enc_l1_fw_Wh"][:, 0] = 1e200
    model.params["enc_l1_fw_Wh"][:, 1] = -1e200
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(RuntimeError, match="diverged"):
            nmt.train_nmt(model, [((4, 5), (4,))], [((4,), (4,))], epochs=1)


def test_train_raises_on_nan_dev_loss(monkeypatch):
    monkeypatch.setattr(nmt_training, "_corpus_nll", lambda model, pairs: math.nan)
    pairs = copy_pairs(np.random.default_rng(6), 4, vocab=6)
    with pytest.raises(RuntimeError, match="training diverged"):
        nmt.train_nmt(randomized_model(tiny_config()), pairs, pairs, epochs=3)


# --------------------------------------------------------------- decoding

def test_beam_width_one_equals_greedy():
    rng = np.random.default_rng(31)
    for seed in range(10):
        config = tiny_config(seed=seed, enc_layers=1)
        model = randomized_model(config, scale=0.8, seed=seed)
        src = [int(x) for x in rng.integers(4, 7, size=int(rng.integers(1, 5)))]
        assert nmt.beam_decode(model, src, beam_width=1, max_len=6) == \
            nmt.greedy_decode(model, src, max_len=6)


def test_beam_equals_exhaustive_search_on_tiny_model():
    for seed in (0, 1, 2):
        config = nmt.NmtConfig(src_vocab_size=4, tgt_vocab_size=4, embed_dim=3,
                               enc_hidden=2, enc_layers=1, dec_hidden=3,
                               attn_hidden=2, dropout_rate=0.0, l2_coeff=0.0,
                               seed=seed)
        model = randomized_model(config, scale=0.9, seed=seed)
        src = [0, 1, 2]
        want, _ = exhaustive_argmax(model, src, max_len=3)
        got = nmt.beam_decode(model, src, beam_width=4 ** 3, max_len=3)
        assert got == want


def test_beam_never_beats_exhaustive_bound():
    # Widening the beam may lower the returned score (pruning is by total
    # log-probability but selection is normalized), so the guarantee worth
    # holding is an exhaustive upper bound at every width.  A narrow beam
    # can return an unfinished hypothesis of max_len tokens, so the bound
    # enumerates complete outputs up to that length.
    rng = np.random.default_rng(33)
    for seed in range(8):
        config = tiny_config(src_vocab_size=5, tgt_vocab_size=5, seed=seed,
                             enc_layers=1)
        model = randomized_model(config, scale=0.9, seed=seed)
        src = [int(x) for x in rng.integers(0, 5, size=3)]
        want, bound = exhaustive_argmax(model, src, max_len=4)
        _, loose_bound = exhaustive_argmax(model, src, max_len=5)
        enc = nmt.encode(model, src)
        for width in (1, 2, 4, 5 ** 4):
            out = nmt.beam_decode(model, src, beam_width=width, max_len=4)
            total, steps = force_score(model, enc, out)
            assert total / steps <= loose_bound + 1e-12
        # A width covering every candidate recovers the optimum exactly.
        out = nmt.beam_decode(model, src, beam_width=5 ** 4, max_len=4)
        assert out == want
        total, steps = force_score(model, enc, out)
        assert math.isclose(total / steps, bound, rel_tol=1e-12)


def test_beam_matches_tuple_sorting_oracle():
    rng = np.random.default_rng(41)
    vocab = 6
    models = [randomized_model(tiny_config(seed=s, enc_layers=1 + s % 2),
                               scale=0.9, seed=s) for s in range(3)]
    # With a zero output matrix the log-probabilities ignore the state:
    # all equal when the bias is zero, and otherwise equal in sum for
    # reorderings of the same ids.  Either way, exact ties leave the
    # choice to the (-score, ids) order.
    for bias_scale in (0.0, 1.0):
        flat = randomized_model(tiny_config(seed=7), seed=7)
        flat.params["out_W"][...] = 0.0
        flat.params["out_b"][...] = rng.uniform(-bias_scale, bias_scale, vocab)
        models.append(flat)
    for model in models:
        src = [int(x) for x in rng.integers(0, 7, size=int(rng.integers(1, 5)))]
        for width in range(1, 2 * vocab + 1):
            max_len = int(rng.integers(1, 6))
            want = oracles.tape_beam_decode(model, src, width, max_len)
            assert nmt.beam_decode(model, src, beam_width=width,
                                   max_len=max_len) == want, (width, max_len)


@settings(max_examples=80, deadline=None)
@given(vocab=st.integers(4, 7), seed=st.integers(0, 2 ** 16), data=st.data())
def test_beam_matches_tuple_oracle_on_single_row_steps(vocab, seed, data):
    # The oracle sorts every candidate by (-total, ids) and advances each
    # hypothesis with its own one-row decode_step.  A zero output matrix
    # makes every state give the same log-probabilities, so totals tie
    # exactly and the id order alone decides.
    width = data.draw(st.integers(1, 2 * vocab), label="width")
    max_len = data.draw(st.integers(1, 5), label="max_len")
    src = data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=4), label="src")
    model = randomized_model(tiny_config(tgt_vocab_size=vocab, enc_layers=1 + seed % 2),
                             scale=0.9, seed=seed)
    bias = data.draw(st.sampled_from([None, 0.0, 1.0]), label="tie model bias scale")
    if bias is not None:
        model.params["out_W"][...] = 0.0
        model.params["out_b"][...] = np.random.default_rng(seed).uniform(-bias, bias, vocab)
    enc = nmt.encode(model, src)
    want = oracles.tuple_beam_decode(lambda state, prev: nmt.decode_step(model, state, prev, enc),
                                     nmt.decoder_init(model, enc), width, max_len)
    assert nmt.beam_decode(model, src, beam_width=width, max_len=max_len) == want


def test_beam_tie_order_matches_oracle(monkeypatch):
    # Scripted integer log-probabilities that depend on the whole
    # history: totals tie exactly and often, across rows whose order
    # differs from their ids' order.
    def scripted(code, vocab):
        return -((code[..., None] * 31 + np.arange(vocab) * 7) % 4).astype(float)

    def rows_step(params, enc, z, prev):
        vocab = params.config.tgt_vocab_size
        code = z[:, 0] * vocab + prev + 1
        return code[:, None], scripted(code, vocab), None

    monkeypatch.setattr(nmt_decoding, "encode", lambda model, src: None)
    monkeypatch.setattr(nmt_decoding, "decoder_init",
                        lambda model, enc: nmt.DecoderState(np.zeros(1), np.ones(1)))
    monkeypatch.setattr(nmt_decoding, "_advance", rows_step)
    for vocab in (4, 5, 6):
        model = randomized_model(tiny_config(tgt_vocab_size=vocab))

        def oracle_step(code, prev):
            code = code * vocab + prev + 1
            return code, scripted(np.asarray(code), vocab)

        for width in range(1, 2 * vocab + 1):
            for max_len in range(1, 6):
                want = oracles.tuple_beam_decode(oracle_step, 0.0, width, max_len)
                assert nmt.beam_decode(model, [4], beam_width=width,
                                       max_len=max_len) == want, (vocab, width, max_len)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), layers=st.integers(1, 2), data=st.data())
def test_search_steps_equal_public_decode_steps(seed, layers, data):
    # The searches step the decoder without decode_step's checks; run each
    # search once that way and once through decode_step, on a padded or
    # unpadded source, and compare every state and log-probability row.
    src = data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=6), label="src")
    mask = data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=len(src),
                              max_size=len(src)).filter(any), label="mask")
    width = data.draw(st.integers(1, 8), label="width")
    max_len = data.draw(st.integers(1, 5), label="max_len")
    model = randomized_model(tiny_config(enc_layers=layers), scale=0.9, seed=seed)

    def public(params, enc, z, y):
        state, logp = nmt.decode_step(model, nmt.DecoderState(z, None), y, enc)
        return state.z, logp, state.alpha

    def search(step, decode, **options):
        rows = []

        def recorded(params, enc, z, y):
            z, logp, alpha = step(params, enc, z, y)
            rows.append((z.copy(), logp.copy()))  # the search adds to logp
            return z, logp, alpha

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(nmt_decoding, "encode",
                          lambda model, src: nmt.encode(model, src, mask))
            patch.setattr(nmt_decoding, "_advance", recorded)
            return decode(model, src, max_len=max_len, **options), rows

    for decode, options in ((nmt.beam_decode, {"beam_width": width}),
                            (nmt.greedy_decode, {})):
        out, rows = search(nmt_model._advance, decode, **options)
        want_out, want_rows = search(public, decode, **options)
        assert out == want_out
        assert len(rows) == len(want_rows)
        for (z, logp), (want_z, want_logp) in zip(rows, want_rows):
            assert np.array_equal(z, want_z)
            assert np.array_equal(logp, want_logp)


def test_eos_peaked_model_yields_empty_output():
    config = tiny_config()
    model = nmt.NmtModel(
        config, {k: np.zeros(s) for k, s in nmt.param_shapes(config).items()}
    )
    model.params["out_b"][EOS_ID] = 5.0
    assert nmt.greedy_decode(model, [4, 5]) == []
    assert nmt.beam_decode(model, [4, 5], beam_width=3) == []


def test_decode_parameter_validation():
    model = randomized_model(tiny_config())
    with pytest.raises(ValueError):
        nmt.beam_decode(model, [4], beam_width=0)
    with pytest.raises(ValueError):
        nmt.beam_decode(model, [4], max_len=0)
    with pytest.raises(ValueError):
        nmt.greedy_decode(model, [4], max_len=0)


# ------------------------------------------------------------- checkpoints

def test_checkpoint_round_trip_is_exact(tmp_path):
    model = randomized_model(tiny_config(l2_coeff=1e-4, dropout_rate=0.2))
    path = tmp_path / "model.ckpt"
    nmt.save_model(model, str(path), vocab_files={"src": "a.tsv", "tgt": "b.tsv"})
    again = nmt.load_model(str(path))
    assert again.config == model.config
    for name, arr in model.params.items():
        assert np.array_equal(again.params[name], arr)
    header = read_header(str(path))
    assert header["vocab_files"] == {"src": "a.tsv", "tgt": "b.tsv"}
    # Same bytes when the loaded model is saved the same way.
    second = tmp_path / "again.ckpt"
    nmt.save_model(again, str(second), vocab_files={"src": "a.tsv", "tgt": "b.tsv"})
    assert path.read_bytes() == second.read_bytes()
    loss_a = nmt.sequence_loss(model, [4], [BOS_ID, 4, EOS_ID])[0]
    loss_b = nmt.sequence_loss(again, [4], [BOS_ID, 4, EOS_ID])[0]
    assert loss_a == loss_b


def test_checkpoint_rejects_corruption(tmp_path):
    model = randomized_model(tiny_config())
    path = tmp_path / "model.ckpt"
    nmt.save_model(model, str(path))
    data = path.read_bytes()
    (tmp_path / "short.ckpt").write_bytes(data[:4])
    with pytest.raises(FormatError, match="truncated"):
        read_header(str(tmp_path / "short.ckpt"))
    (tmp_path / "npz.ckpt").write_bytes(b"\x08\x00\x00\x00\x00\x00\x00\x00notjson!")
    with pytest.raises(FormatError, match="not valid JSON"):
        read_header(str(tmp_path / "npz.ckpt"))
    (tmp_path / "cut.ckpt").write_bytes(data[:-16])
    with pytest.raises(FormatError, match="tensor data is 5888 bytes, the config requires 5904"):
        nmt.load_model(str(tmp_path / "cut.ckpt"))
    nan = data[:-8] + struct.pack("<d", math.nan)
    (tmp_path / "nan.ckpt").write_bytes(nan)
    with pytest.raises(FormatError, match="parameter out_b contains non-finite values"):
        nmt.load_model(str(tmp_path / "nan.ckpt"))


def _rewrite_header(path, edit):
    """Apply edit to a checkpoint's JSON header in place."""
    data = path.read_bytes()
    (length,) = struct.unpack("<Q", data[:8])
    header = json.loads(data[8:8 + length])
    edit(header)
    payload = json.dumps(header).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(payload)) + payload + data[8 + length:])


def test_checkpoint_rejects_inconsistent_tensor_tables(tmp_path):
    # load_model reads only the table save_model writes for the config,
    # so every other table fails at its first differing entry.
    model = randomized_model(tiny_config())
    path = tmp_path / "model.ckpt"
    nmt.save_model(model, str(path))
    original = path.read_bytes()

    def duplicate(header):
        header["tensors"].append(dict(header["tensors"][-1]))

    def negative(header):
        header["tensors"][0]["offset"] = -8

    def overlap(header):
        header["tensors"][1]["offset"] = header["tensors"][0]["offset"] + 8

    def swap(header):  # self-consistent, but not the config's order
        first, second = header["tensors"][:2]
        first["offset"], second["offset"] = 8 * 6 * 4, 0
        header["tensors"][:2] = [second, first]

    def missing(header):
        header["tensors"].pop()

    out_b = '{"name": "out_b", "offset": 5856, "shape": [6]}'
    for edit, message in (
            (duplicate, "tensor entry 56 is %s, the config requires null" % out_b),
            (negative, 'tensor entry 0 is {"name": "src_emb", "offset": -8'),
            (overlap, 'tensor entry 1 is {"name": "tgt_emb", "offset": 8,'),
            (swap, 'tensor entry 0 is {"name": "tgt_emb", "offset": 0, "shape": [6, 4]}, '
                   'the config requires {"name": "src_emb", "offset": 0, "shape": [7, 4]}'),
            (missing, "tensor entry 55 is null, the config requires %s" % out_b)):
        path.write_bytes(original)
        _rewrite_header(path, edit)
        with pytest.raises(FormatError) as info:
            nmt.load_model(str(path))
        assert str(info.value).startswith("%s: %s" % (path, message))
    path.write_bytes(original + b"\0" * 8)
    with pytest.raises(FormatError) as info:
        nmt.load_model(str(path))
    assert str(info.value) == "%s: tensor data is 5912 bytes, the config requires 5904" % path
