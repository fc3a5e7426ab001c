"""Embedding tests: frozen sinusoid values, Time2Vec channel semantics,
patch round-trips, and pipeline wiring."""

import math

import numpy as np
import pytest

from tinytraj import autodiff as ad
from tinytraj import embedding as emb
from tinytraj import geo
from tinytraj import model as tm

RNG = np.random.default_rng(42)


def model_layers(rng, d_model=8, **kw):
    """The projection and Time2Vec layers ``init_params`` draws for a
    one-block model of ``d_model`` with the embedding flags ``kw``."""
    params = tm.init_params(tm.ModelConfig(d_model=d_model, n_heads=1, n_blocks=1, **kw), rng)
    return params.proj, params.time2vec


def random_features(s):
    f = RNG.uniform(-1.5, 1.5, size=(s, geo.FEATURE_DIM))
    f[:, 2:6] = RNG.uniform(0, 1, size=(s, 4))
    f[:, 6] = RNG.uniform(0.1, 3.0, size=s)
    f[0, 6] = 0.0
    return f


# ---------------------------------------------------------------------------
# sinusoidal table
# ---------------------------------------------------------------------------


def test_sinusoid_position_zero_alternates_zero_one():
    table = emb.sinusoidal_table(max_seq=16, d_model=8)
    np.testing.assert_array_equal(table[0], [0, 1, 0, 1, 0, 1, 0, 1])


def test_sinusoid_position_one_first_dim_is_sin_one():
    table = emb.sinusoidal_table(max_seq=16, d_model=8)
    assert abs(table[1, 0] - math.sin(1.0)) < 1e-15
    assert abs(table[1, 0] - 0.8414709848078965) < 1e-12


def test_sinusoid_formula_spot_checks():
    d = 10
    table = emb.sinusoidal_table(max_seq=40, d_model=d)
    for pos in (1, 7, 33):
        for i in range(d // 2):
            angle = pos / (10000.0 ** (2 * i / d))
            assert abs(table[pos, 2 * i] - math.sin(angle)) < 1e-12
            assert abs(table[pos, 2 * i + 1] - math.cos(angle)) < 1e-12


def test_positional_encoding_range_check():
    with pytest.raises(ValueError):
        emb.positional_encoding(16, 8, max_seq=16)
    with pytest.raises(ValueError):
        emb.positional_encoding(-1, 8, max_seq=16)
    row = emb.positional_encoding(3, 8, max_seq=16)
    np.testing.assert_array_equal(row, emb.sinusoidal_table(16, 8)[3])


def test_sinusoid_table_is_built_once_and_read_only():
    table = emb.sinusoidal_table(32, 16)
    assert emb.sinusoidal_table(32, 16) is table
    fresh = emb.sinusoidal_table.__wrapped__(32, 16)
    assert fresh is not table
    np.testing.assert_array_equal(table.view(np.int64), fresh.view(np.int64))
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        emb.positional_encoding(3, 16, max_seq=32)[0] = 1.0


def test_distinct_positions_get_distinct_rows():
    table = emb.sinusoidal_table(max_seq=256, d_model=64)
    # no two of the first 256 rows coincide
    diffs = np.abs(table[None, :, :] - table[:, None, :]).max(axis=2)
    diffs[np.diag_indices(256)] = 1.0
    assert diffs.min() > 1e-6


# ---------------------------------------------------------------------------
# time2vec
# ---------------------------------------------------------------------------


def test_time2vec_channel_semantics():
    rng = np.random.default_rng(1)
    _, layer = model_layers(rng, use_time2vec=True, time2vec_k=4)
    tau = 1.75
    out = emb.time2vec(tau, layer).data
    om, ph = layer.omega.data, layer.phi.data
    assert abs(out[0] - (om[0] * tau + ph[0])) < 1e-12  # linear channel
    for i in range(1, 4):
        assert abs(out[i] - math.sin(om[i] * tau + ph[i])) < 1e-12


def test_time2vec_requires_k_at_least_two():
    with pytest.raises(ValueError, match="time2vec_k"):
        tm.ModelConfig(use_time2vec=True, time2vec_k=1)


def test_time2vec_is_differentiable_in_omega_phi():
    from gradcheck import central_diff_grad, assert_grads_close

    rng = np.random.default_rng(2)
    taus = rng.uniform(0, 3, size=5)
    om0 = rng.normal(0, 1, 3)
    ph0 = rng.normal(0, 1, 3)
    weights = rng.normal(0, 1, (5, 3))

    def run(om, ph):
        tape = ad.Tape()
        layer = emb.Time2VecLayer(
            omega=tape.watch(ad.Tensor(om.copy(), requires_grad=True)),
            phi=tape.watch(ad.Tensor(ph.copy(), requires_grad=True)),
        )
        loss = ad.tensor_sum(ad.mul(emb.time2vec_sequence(taus, layer), ad.Tensor(weights)))
        return loss, layer

    loss, layer = run(om0, ph0)
    ad.backward(loss)
    num_om = central_diff_grad(lambda om: float(run(om, ph0)[0].data), om0.copy())
    num_ph = central_diff_grad(lambda ph: float(run(om0, ph)[0].data), ph0.copy())
    assert_grads_close(layer.omega.grad, num_om, label="time2vec omega")
    assert_grads_close(layer.phi.grad, num_ph, label="time2vec phi")


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------


def test_patchify_shapes_and_zero_pad():
    x = random_features(7)
    patched, valid = emb.patchify(x, 3)
    assert valid == 7
    assert patched.shape == (3, 3 * geo.FEATURE_DIM)
    # last patch holds rows 6, pad, pad
    tail = patched.data[2].reshape(3, geo.FEATURE_DIM)
    np.testing.assert_array_equal(tail[0], x[6])
    np.testing.assert_array_equal(tail[1:], np.zeros((2, geo.FEATURE_DIM)))


def test_patchify_round_trip_exact():
    rng = np.random.default_rng(9)
    for _ in range(100):
        s = int(rng.integers(2, 40))
        p = int(rng.integers(1, 9))
        x = rng.normal(0, 2, size=(s, geo.FEATURE_DIM))
        patched, valid = emb.patchify(x, p)
        back = emb.unpatchify(patched.data, p, valid, geo.FEATURE_DIM)
        np.testing.assert_array_equal(back, x)


def test_patch_config_validates():
    with pytest.raises(ValueError, match="patch_len"):
        emb.patchify(np.zeros((4, geo.FEATURE_DIM)), 0)


# ---------------------------------------------------------------------------
# projection + full pipeline
# ---------------------------------------------------------------------------


def test_project_applies_affine_map():
    rng = np.random.default_rng(3)
    layer, _ = model_layers(rng, d_model=16)
    x = random_features(5)
    out = emb.project(x, layer)
    np.testing.assert_allclose(out.data, x @ layer.w.data + layer.b.data, rtol=0, atol=1e-12)


def test_projection_init_statistics():
    rng = np.random.default_rng(4)
    layer, _ = model_layers(rng, d_model=200, patch_len=29)  # 29 x 7 = 203 inputs
    assert layer.w.shape == (203, 200)
    assert abs(layer.w.data.std() - 0.02) < 0.002
    assert abs(layer.w.data.mean()) < 0.002
    np.testing.assert_array_equal(layer.b.data, np.zeros(200))


def test_embed_sequence_zero_weights_no_pe_gives_zeros():
    rng = np.random.default_rng(5)
    layer, _ = model_layers(rng)
    layer.w.data[:] = 0.0
    out = emb.embed_sequence(random_features(6), layer, pe_table=None)
    np.testing.assert_array_equal(out.data, np.zeros((6, 8)))


def test_embed_sequence_pe_separates_identical_inputs():
    rng = np.random.default_rng(6)
    layer, _ = model_layers(rng)
    x = np.tile(random_features(1), (4, 1))  # identical rows
    table = emb.sinusoidal_table(16, 8)
    out = emb.embed_sequence(x, layer, pe_table=table)
    assert np.abs(out.data[0] - out.data[1]).max() > 1e-3
    # and PE is additive: subtracting the table rows recovers equal rows
    base = out.data - table[:4]
    np.testing.assert_allclose(base[0], base[3], rtol=0, atol=1e-12)


def test_embed_sequence_respects_max_table_length():
    rng = np.random.default_rng(7)
    layer, _ = model_layers(rng)
    with pytest.raises(ValueError):
        emb.embed_sequence(random_features(5), layer, pe_table=emb.sinusoidal_table(4, 8))


def test_embed_sequence_time2vec_concat_before_projection():
    rng = np.random.default_rng(8)
    k = 3
    f_in = emb.embedded_width(True, k, 1)
    assert f_in == geo.FEATURE_DIM + k
    layer, t2v = model_layers(rng, use_time2vec=True, time2vec_k=k)
    assert layer.w.shape == (f_in, 8)
    x = random_features(5)
    out = emb.embed_sequence(x, layer, pe_table=None, time2vec_layer=t2v)
    # reference: concatenate channels manually, then project
    tape = None
    chans = emb.time2vec_sequence(x[:, geo.DT_FEATURE_INDEX], t2v).data
    ref = np.concatenate([x, chans], axis=1) @ layer.w.data + layer.b.data
    np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)


def test_embed_sequence_can_drop_dt_column():
    rng = np.random.default_rng(9)
    f_in = emb.embedded_width(False, None, 1)
    assert f_in == geo.FEATURE_DIM - 1
    layer, _ = model_layers(rng, use_dt_feature=False)
    assert layer.w.shape == (f_in, 8)
    x = random_features(5)
    out = emb.embed_sequence(x, layer, pe_table=None, use_dt_feature=False)
    ref = x[:, : geo.DT_FEATURE_INDEX] @ layer.w.data + layer.b.data
    np.testing.assert_allclose(out.data, ref, rtol=0, atol=1e-12)


def test_embed_sequence_patchify_reduces_positions():
    rng = np.random.default_rng(10)
    p = 4
    layer, _ = model_layers(rng, patch_len=p)
    assert layer.w.shape == (emb.embedded_width(True, None, p), 8)
    out = emb.embed_sequence(random_features(10), layer, pe_table=None, patch_len=p)
    assert out.shape == (3, 8)  # ceil(10/4)
