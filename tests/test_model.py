"""Transformer tests: rotary-embedding identities, an independent numpy
attention oracle, bitwise causality, and end-to-end gradient checks."""

import math

import numpy as np
import pytest

from tinytraj import autodiff as ad
from tinytraj import geo
from tinytraj import model as tm

RNG = np.random.default_rng(1234)


def random_features(s, rng=None):
    rng = rng or RNG
    f = rng.uniform(-1.5, 1.5, size=(s, geo.FEATURE_DIM))
    f[:, 2:6] = rng.uniform(0, 1, size=(s, 4))
    f[:, 6] = rng.uniform(0.1, 3.0, size=s)
    f[0, 6] = 0.0
    return f


def small_config(**kw):
    base = dict(d_model=16, n_heads=2, n_blocks=2, max_seq=32)
    base.update(kw)
    return tm.ModelConfig(**base)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_defaults_and_derived():
    cfg = tm.ModelConfig()
    assert (cfg.d_model, cfg.n_heads, cfg.n_blocks) == (64, 4, 2)
    assert cfg.ff_dim == 256 and cfg.head_dim == 16
    assert cfg.max_seq == 256 and cfg.out_dim == 3
    assert cfg.attention_mode == "causal"


def test_config_validation():
    with pytest.raises(ValueError):
        tm.ModelConfig(d_model=15)
    with pytest.raises(ValueError):
        tm.ModelConfig(d_model=16, n_heads=3)
    with pytest.raises(ValueError):
        tm.ModelConfig(attention_mode="full")
    # head_dim must be even when rotary embeddings are on
    with pytest.raises(ValueError):
        tm.ModelConfig(d_model=6, n_heads=2, rope_enabled=True)  # head_dim 3
    tm.ModelConfig(d_model=12, n_heads=6, rope_enabled=True)  # head_dim 2: fine


@pytest.mark.parametrize(
    "kw",
    [{}, {"d_ff": 5, "n_blocks": 3}, {"use_time2vec": True, "time2vec_k": 7, "patch_len": 3},
     {"d_model": 2, "n_heads": 1, "use_dt_feature": False}],
)
def test_parameter_count_is_the_parameters_values(kw):
    cfg = tm.ModelConfig(**kw)
    values = sum(math.prod(shape) for shape in tm.parameter_shapes(cfg).values())
    assert tm._parameter_count(cfg) == values


@pytest.mark.parametrize(
    "kw", [{"n_blocks": 2**50}, {"d_ff": 2**40}, {"use_time2vec": True, "time2vec_k": 2**50}]
)
def test_config_past_the_parameter_limit_is_refused_before_any_loop(kw):
    # a count, not a loop over 2**50 blocks: refused at once
    with pytest.raises(ValueError, match="MAX_PARAMETERS"):
        tm.ModelConfig(**kw)
    n_blocks = tm.MAX_PARAMETERS // tm._parameter_count(tm.ModelConfig(n_blocks=1))
    tm.ModelConfig(n_blocks=n_blocks - 1)  # just inside


def test_config_round_trips_through_dict():
    cfg = small_config(rope_enabled=True, use_time2vec=True)
    assert tm.ModelConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# causal mask
# ---------------------------------------------------------------------------


def test_causal_mask_structure():
    m = tm.causal_mask(4)
    for i in range(4):
        for j in range(4):
            if j <= i:
                assert m[i, j] == 0.0
            else:
                assert m[i, j] == -np.inf


# ---------------------------------------------------------------------------
# rotary embedding
# ---------------------------------------------------------------------------


def test_rope_preserves_norms():
    for _ in range(100):
        s, hd = int(RNG.integers(1, 20)), int(RNG.choice([2, 4, 8, 16]))
        x = RNG.normal(0, 2, (s, hd))
        pos = RNG.integers(0, 500, s)
        out = tm.apply_rope(ad.Tensor(x), pos).data
        np.testing.assert_allclose(
            np.linalg.norm(out, axis=1), np.linalg.norm(x, axis=1), rtol=0, atol=1e-12
        )


def test_rope_dot_products_depend_on_relative_position():
    # <rope(q, m), rope(k, n)> == <rope(q, m+s), rope(k, n+s)>
    for _ in range(100):
        hd = int(RNG.choice([4, 8, 16]))
        q = RNG.normal(0, 1, (1, hd))
        k = RNG.normal(0, 1, (1, hd))
        m, n, shift = (int(v) for v in RNG.integers(0, 200, 3))
        d1 = (
            tm.apply_rope(ad.Tensor(q), [m]).data @ tm.apply_rope(ad.Tensor(k), [n]).data.T
        ).item()
        d2 = (
            tm.apply_rope(ad.Tensor(q), [m + shift]).data
            @ tm.apply_rope(ad.Tensor(k), [n + shift]).data.T
        ).item()
        assert abs(d1 - d2) < 1e-9


def test_rope_position_zero_is_identity():
    x = RNG.normal(0, 1, (3, 8))
    out = tm.apply_rope(ad.Tensor(x), np.zeros(3, dtype=int)).data
    np.testing.assert_allclose(out, x, rtol=0, atol=0)


def test_rope_rejects_odd_head_dim():
    with pytest.raises(ValueError):
        tm.apply_rope(ad.Tensor(np.zeros((2, 3))), [0, 1])


def test_rope_gradient():
    from gradcheck import central_diff_grad, assert_grads_close

    x0 = RNG.normal(0, 1, (4, 8))
    pos = np.arange(4)
    w = RNG.normal(0, 1, (4, 8))

    def run(x):
        tape = ad.Tape()
        xt = tape.watch(ad.Tensor(x.copy(), requires_grad=True))
        return ad.tensor_sum(ad.mul(tm.apply_rope(xt, pos), ad.Tensor(w))), xt

    loss, xt = run(x0)
    ad.backward(loss)
    assert_grads_close(xt.grad, central_diff_grad(lambda x: float(run(x)[0].data), x0.copy()))


# ---------------------------------------------------------------------------
# attention vs an independent numpy oracle
# ---------------------------------------------------------------------------


def naive_softmax(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def naive_mha(x, bp, cfg, mask, positions):
    """Straightforward per-head reimplementation with plain numpy."""
    q = x @ bp.wq.data + bp.bq.data
    k = x @ bp.wk.data + bp.bk.data
    v = x @ bp.wv.data + bp.bv.data
    hd = cfg.head_dim
    outs = []
    for h in range(cfg.n_heads):
        sl = slice(h * hd, (h + 1) * hd)
        qh, kh, vh = q[:, sl], k[:, sl], v[:, sl]
        if cfg.rope_enabled:
            qh = naive_rope(qh, positions)
            kh = naive_rope(kh, positions)
        scores = qh @ kh.T / math.sqrt(hd)
        if mask is not None:
            scores = scores + mask
        outs.append(naive_softmax(scores) @ vh)
    return np.concatenate(outs, axis=1) @ bp.wo.data + bp.bo.data


def naive_rope(x, positions):
    s, hd = x.shape
    theta = 10000.0 ** (-np.arange(0, hd, 2) / hd)
    ang = np.asarray(positions)[:, None] * theta
    out = np.empty_like(x)
    out[:, 0::2] = x[:, 0::2] * np.cos(ang) - x[:, 1::2] * np.sin(ang)
    out[:, 1::2] = x[:, 0::2] * np.sin(ang) + x[:, 1::2] * np.cos(ang)
    return out


@pytest.mark.parametrize("rope", [False, True])
@pytest.mark.parametrize("mode", ["causal", "bidirectional"])
def test_multi_head_attention_matches_naive_loop(rope, mode):
    rng = np.random.default_rng(55)
    for trial in range(5):
        s = int(rng.integers(2, 9))  # S <= 8
        cfg = tm.ModelConfig(
            d_model=16, n_heads=int(rng.choice([1, 2, 4])), n_blocks=1,
            max_seq=16, rope_enabled=rope, attention_mode=mode,
        )
        params = tm.init_params(cfg, rng)
        bp = params.blocks[0]
        # give the zero-init biases some signal
        for t in (bp.bq, bp.bk, bp.bv, bp.bo):
            t.data[:] = rng.normal(0, 0.5, t.shape)
        x = rng.normal(0, 1, (s, cfg.d_model))
        mask = tm.causal_mask(s) if mode == "causal" else None
        positions = np.arange(s)
        ours = tm.multi_head_attention(ad.Tensor(x), bp, cfg, mask, positions).data
        theirs = naive_mha(x, bp, cfg, mask, positions)
        np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-12)


def test_attention_rows_are_convex_mixes():
    # with a causal mask, row 0 attends only to itself
    rng = np.random.default_rng(8)
    s, hd = 5, 4
    q, k, v = (ad.Tensor(rng.normal(0, 1, (s, hd))) for _ in range(3))
    out = tm.attention(q, k, v, tm.causal_mask(s)).data
    np.testing.assert_allclose(out[0], v.data[0], rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# blocks and full model
# ---------------------------------------------------------------------------


def test_zero_weight_block_is_identity():
    cfg = small_config()
    rng = np.random.default_rng(10)
    params = tm.init_params(cfg, rng)
    bp = params.blocks[0]
    for name in ("wq", "wk", "wv", "wo", "w_ff1", "w_ff2"):
        getattr(bp, name).data[:] = 0.0
    x = rng.normal(0, 1, (6, cfg.d_model))
    out = tm.transformer_block(ad.Tensor(x), bp, cfg, tm.causal_mask(6), np.arange(6))
    np.testing.assert_array_equal(out.data, x)  # bit-identical pass-through


def test_fresh_model_with_zero_head_predicts_zero():
    cfg = small_config()
    params = tm.init_params(cfg, np.random.default_rng(11))
    out = tm.forward_features(random_features(7), params, cfg)
    np.testing.assert_array_equal(out.data, np.zeros((7, 3)))


def test_model_forward_shape_and_batch():
    cfg = small_config()
    params = tm.init_params(cfg, np.random.default_rng(12))
    params.w_out.data[:] = RNG.normal(0, 0.1, params.w_out.shape)
    batch = np.stack([random_features(9) for _ in range(4)])
    out = tm.model_forward(batch, params, cfg)
    assert out.shape == (4, 9, 3)


def test_model_forward_patching_reduces_positions():
    cfg = small_config(patch_len=3)
    params = tm.init_params(cfg, np.random.default_rng(13))
    out = tm.model_forward(np.stack([random_features(8)]), params, cfg)
    assert out.shape == (1, 3, 3)  # ceil(8/3)


def test_model_rejects_overlong_sequence():
    cfg = small_config(max_seq=8)
    params = tm.init_params(cfg, np.random.default_rng(14))
    with pytest.raises(ValueError):
        tm.forward_features(random_features(9), params, cfg)


def _randomized_params(cfg, seed):
    """init_params, then give all heads/biases nonzero values."""
    rng = np.random.default_rng(seed)
    params = tm.init_params(cfg, rng)
    for name, t in tm.named_parameters(params).items():
        if name.startswith(("head.", "ln", "blocks")) and ("bias" in name or name.endswith((".b", "b_ff1", "b_ff2", "bq", "bk", "bv", "bo"))):
            t.data[:] = rng.normal(0, 0.05, t.shape)
    params.w_out.data[:] = rng.normal(0, 0.1, params.w_out.shape)
    params.b_out.data[:] = rng.normal(0, 0.1, params.b_out.shape)
    return params


@pytest.mark.parametrize("rope", [False, True])
def test_causal_outputs_ignore_future_perturbations(rope):
    cfg = small_config(rope_enabled=rope)
    params = _randomized_params(cfg, seed=100 + rope)
    rng = np.random.default_rng(15)
    x = random_features(10, rng)
    base = tm.forward_features(x, params, cfg).data
    for _ in range(5):
        i = int(rng.integers(1, 10))  # perturb position i, check rows < i
        perturbed = x.copy()
        perturbed[i:] += rng.normal(0, 3, perturbed[i:].shape)
        out = tm.forward_features(perturbed, params, cfg).data
        np.testing.assert_array_equal(out[:i], base[:i])


def test_causal_outputs_stable_under_truncation():
    cfg = small_config()
    params = _randomized_params(cfg, seed=200)
    x = random_features(12)
    full = tm.forward_features(x, params, cfg).data
    for s in (2, 5, 9):
        trunc = tm.forward_features(x[:s], params, cfg).data
        np.testing.assert_array_equal(trunc, full[:s])


def test_bidirectional_outputs_do_react_to_future():
    cfg = small_config(attention_mode="bidirectional")
    params = _randomized_params(cfg, seed=300)
    x = random_features(8)
    base = tm.forward_features(x, params, cfg).data
    perturbed = x.copy()
    perturbed[7] += 2.5
    out = tm.forward_features(perturbed, params, cfg).data
    assert np.abs(out[:7] - base[:7]).max() > 0  # earlier rows shift


def test_full_model_gradients_match_finite_differences():
    from gradcheck import central_diff_grad, max_rel_error

    cfg = tm.ModelConfig(d_model=8, n_heads=2, n_blocks=2, max_seq=8, use_time2vec=True, time2vec_k=2)
    x = random_features(5, np.random.default_rng(16))
    targets = np.random.default_rng(17).normal(0, 1, (5, 3))

    def loss_value(params):
        pred = tm.forward_features(x, params, cfg)
        diff = ad.sub(pred, ad.Tensor(targets))
        return ad.mean(ad.mul(diff, diff))

    params = _randomized_params(cfg, seed=400)
    named = tm.named_parameters(params)
    tape = ad.Tape()
    tm.bind_params(params, tape)
    ad.backward(loss_value(params))

    rng = np.random.default_rng(18)
    names = rng.choice(sorted(named), size=5, replace=False)
    for name in names:
        t = named[name]
        base = t.data.copy()

        def f(v, t=t, base=base):
            t.data[:] = v
            out = float(loss_value(params).data)
            t.data[:] = base
            return out

        numeric = central_diff_grad(f, base.copy())
        err = max_rel_error(t.grad, numeric)
        assert err < 1e-3, f"{name}: rel err {err:.2e}"


# ---------------------------------------------------------------------------
# parameter shapes, and a tree over stored arrays
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [{}, {"use_time2vec": True, "time2vec_k": 3}, {"patch_len": 2, "d_ff": 24},
     {"use_dt_feature": False, "n_blocks": 3}],
)
def test_parameter_shapes_match_init_params(kw):
    cfg = small_config(**kw)
    params = tm.init_params(cfg, np.random.default_rng(19))
    named = tm.named_parameters(params)
    assert tm.parameter_shapes(cfg) == {n: t.shape for n, t in named.items()}
    assert list(tm.parameter_shapes(cfg)) == list(named)
    rebuilt = tm.named_parameters(
        tm.params_from_arrays(cfg, {n: t.data for n, t in named.items()})
    )
    assert list(rebuilt) == list(named)
    for name, t in named.items():
        np.testing.assert_array_equal(rebuilt[name].data, t.data)
        assert rebuilt[name].data is not t.data and rebuilt[name].requires_grad


# ---------------------------------------------------------------------------
# K/V-cached decoding
# ---------------------------------------------------------------------------

DECODE_CONFIGS = {
    "plain": {},
    "rope": {"rope_enabled": True},
    "time2vec": {"use_time2vec": True, "time2vec_k": 3},
    "no_pe": {"use_positional_encoding": False},
    "no_dt": {"use_dt_feature": False, "rope_enabled": True, "use_time2vec": True},
}


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("name", sorted(DECODE_CONFIGS))
def test_cached_decode_equals_full_forward_bit_for_bit(name):
    cfg = small_config(max_seq=16, **DECODE_CONFIGS[name])
    params = _randomized_params(cfg, seed=500)
    rng = np.random.default_rng(501)
    prefix_lens = np.array([1, 6, 3, 9])
    steps = 5
    seqs = [random_features(n + steps, rng) for n in prefix_lens]
    padded = np.zeros((len(seqs), prefix_lens.max(), geo.FEATURE_DIM))
    for b, n in enumerate(prefix_lens):
        padded[b, :n] = seqs[b][:n]
    cache = tm.KVCache(cfg, len(seqs), prefix_lens.max() + steps)
    prefill = tm.forward_features(padded, params, cfg, lengths=prefix_lens, cache=cache).data
    for b, n in enumerate(prefix_lens):
        full = tm.forward_features(seqs[b][:n], params, cfg).data
        np.testing.assert_array_equal(_bits(prefill[b, :n]), _bits(full))
    np.testing.assert_array_equal(cache.lengths, prefix_lens)
    for k in range(steps):
        rows = np.stack([seq[n + k] for seq, n in zip(seqs, prefix_lens)])[:, None]
        step = tm.forward_features(rows, params, cfg, cache=cache).data
        assert step.shape == (len(seqs), 1, 3)
        for b, n in enumerate(prefix_lens):
            last = tm.forward_features(seqs[b][: n + k + 1], params, cfg).data[-1]
            np.testing.assert_array_equal(_bits(step[b, 0]), _bits(last))
    np.testing.assert_array_equal(cache.lengths, prefix_lens + steps)


def test_cache_is_forward_only_and_checks_its_bounds():
    cfg = small_config(max_seq=8)
    params = _randomized_params(cfg, seed=502)
    with pytest.raises(ValueError, match="capacity"):
        tm.KVCache(cfg, 2, 9)
    cache = tm.KVCache(cfg, 1, 4)
    x = random_features(4)
    tape = ad.Tape()
    tm.bind_params(params, tape)
    tm.forward_features(x[:3], params, cfg, cache=cache)
    tape.close()
    assert all(isinstance(k, np.ndarray) for k in cache.keys + cache.values)
    tm.forward_features(x[3:], params, cfg, cache=cache)
    with pytest.raises(ValueError, match="cache"):
        tm.forward_features(x[3:], params, cfg, cache=cache)  # position 4 of 4
    with pytest.raises(ValueError, match="rows"):
        tm.forward_features(x[None, :1].repeat(2, axis=0), params, cfg, cache=tm.KVCache(cfg, 1, 4))
    for kw in ({"attention_mode": "bidirectional"}, {"patch_len": 2}):
        other = small_config(max_seq=8, **kw)
        with pytest.raises(ValueError, match="causal"):
            tm.forward_features(
                x, tm.init_params(other, np.random.default_rng(3)), other,
                cache=tm.KVCache(other, 1, 4),
            )


# ---------------------------------------------------------------------------
# constant matmul operands
# ---------------------------------------------------------------------------


def _train_step_grads(cfg, params, x, targets, monkeypatch, skip):
    if not skip:  # treat every operand as needing its gradient
        monkeypatch.setattr(ad, "_is_constant", lambda t: False)
    shapes = []
    real_mm = ad._mm

    def recording_mm(a, b):
        shapes.append((a.shape, b.shape))
        return real_mm(a, b)

    monkeypatch.setattr(ad, "_mm", recording_mm)
    tape = ad.Tape()
    tm.bind_params(params, tape)
    pred = tm.forward_features(x, params, cfg, lengths=[5, 3])
    diff = ad.sub(pred, ad.Tensor(targets))
    loss = ad.mean(ad.mul(diff, diff))
    del shapes[:]  # keep the backward pass's products only
    ad.backward(loss)
    monkeypatch.undo()
    return {n: t.grad.copy() for n, t in tm.named_parameters(params).items()}, shapes


@pytest.mark.parametrize("time2vec", [False, True])
def test_constant_matmul_operands_get_no_vjp_product(monkeypatch, time2vec):
    cfg = small_config(use_time2vec=time2vec, time2vec_k=3)
    params = _randomized_params(cfg, seed=503)
    rng = np.random.default_rng(504)
    x = np.stack([random_features(5, rng), random_features(5, rng)])
    x[1, 3:] = 0.0
    targets = rng.normal(0, 1, (2, 5, 3))
    skipped, shapes = _train_step_grads(cfg, params, x, targets, monkeypatch, skip=True)
    full, full_shapes = _train_step_grads(cfg, params, x, targets, monkeypatch, skip=False)
    assert list(skipped) == list(full)
    for name in full:
        np.testing.assert_array_equal(_bits(skipped[name]), _bits(full[name]))
    # the input gradient of Time2Vec's taus, [B*S, k] @ [k, 1]; without
    # Time2Vec, that of the feature projection, [B*S, d] @ [d, 7] (with it,
    # the projection input carries the Time2Vec channels and needs one)
    if time2vec:
        constant = ((10, 3), (3, 1))
    else:
        constant = ((10, cfg.d_model), (cfg.d_model, geo.FEATURE_DIM))
    assert full_shapes.count(constant) == 1
    assert constant not in shapes
    assert len(shapes) == len(full_shapes) - 1
