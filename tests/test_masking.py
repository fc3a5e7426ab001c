"""Masking tests: sampling statistics, bit-exact pass-through, gradient
routing into the learnable mask embeddings, and loss-mask construction."""

import numpy as np
import pytest

from tinytraj import autodiff as ad
from tinytraj import geo, masking
from tinytraj import model as tm

RNG = np.random.default_rng(77)


def features(s):
    f = RNG.uniform(-1.5, 1.5, size=(s, geo.FEATURE_DIM))
    return f


def mask_embedding(seed):
    """The mask embedding ``init_params`` draws for a small model."""
    cfg = tm.ModelConfig(d_model=8, n_heads=1, n_blocks=1)
    return tm.init_params(cfg, np.random.default_rng(seed)).mask_emb


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def mask(s, spatial=(), temporal=()):
    hidden = np.zeros((s, 2), dtype=bool)
    hidden[list(spatial), 0] = True
    hidden[list(temporal), 1] = True
    return masking.MaskSpec(hidden)


def test_dimension_mask_fraction_within_3_sigma():
    s, ratio = 10_000, 0.15
    spec = masking.sample_dimension_mask(s, ratio, np.random.default_rng(0))
    n = len(spec.positions)
    sigma = np.sqrt(s * ratio * (1 - ratio))
    assert abs(n - s * ratio) < 3 * sigma
    # each masked position hides exactly one slot group, both groups occur
    hit = spec.hidden[list(spec.positions)]
    assert (hit.sum(axis=1) == 1).all()
    assert hit[:, 0].any() and hit[:, 1].any()


def test_dimension_mask_spatial_temporal_split_is_even():
    spec = masking.sample_dimension_mask(20_000, 0.3, np.random.default_rng(1))
    frac = spec.hidden[:, 0].sum() / len(spec.positions)
    assert abs(frac - 0.5) < 0.03


def test_segment_mask_contiguous_and_sized():
    for seed in range(1000):
        s = int(RNG.integers(4, 60))
        spec = masking.sample_segment_mask(s, 0.15, np.random.default_rng(seed))
        pos = spec.positions
        expected = max(1, round(0.15 * s))
        assert len(pos) == expected
        assert list(pos) == list(range(pos[0], pos[0] + expected))  # contiguous
        assert pos[0] >= 0 and pos[-1] < s
        assert spec.hidden[list(pos)].all()  # both slot groups


def test_segment_mask_start_covers_full_range():
    s, ratio = 20, 0.15  # run of 3, starts 0..17
    starts = {
        masking.sample_segment_mask(s, ratio, np.random.default_rng(seed)).positions[0]
        for seed in range(2000)
    }
    assert starts == set(range(0, 18))


def test_segment_mask_requires_min_length():
    with pytest.raises(ValueError):
        masking.sample_segment_mask(3, 0.15, np.random.default_rng(0))


@pytest.mark.parametrize("ratio", [0.0, 1.0, 1.5, -0.1])
@pytest.mark.parametrize("sampler", [masking.sample_dimension_mask, masking.sample_segment_mask])
def test_samplers_reject_ratios_outside_the_open_unit_interval(sampler, ratio):
    with pytest.raises(ValueError, match="mask_ratio"):
        sampler(10, ratio, np.random.default_rng(0))


def test_mask_spec_validation():
    # a read-only boolean copy of shape [..., S, 2]
    hidden = np.zeros((4, 2), dtype=bool)
    spec = masking.MaskSpec(hidden)
    hidden[1, 0] = True
    assert spec.positions == ()
    with pytest.raises(ValueError):
        spec.hidden[1, 0] = True
    for bad in (np.zeros(4, dtype=bool), np.zeros((4, 3), dtype=bool)):
        with pytest.raises(ValueError):
            masking.MaskSpec(bad)


def test_batched_positions_count_every_hidden_row_position_pair():
    hidden = np.zeros((2, 5, 2), dtype=bool)
    hidden[0, 1, 0] = hidden[0, 1, 1] = hidden[1, 3, 1] = hidden[1, 4, 0] = True
    assert masking.MaskSpec(hidden).positions == ((0, 1), (1, 3), (1, 4))


def test_successor_mask_hides_every_position_with_a_successor():
    spec = masking.successor_mask([3, 5], 5)
    assert spec.positions == ((0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (1, 3))
    assert (spec.hidden.all(axis=-1) == spec.hidden.any(axis=-1)).all()


# ---------------------------------------------------------------------------
# apply_mask
# ---------------------------------------------------------------------------


def test_apply_mask_overwrites_only_masked_slots():
    x = features(10)
    emb = mask_embedding(2)
    spec = mask(10, spatial=[2], temporal=[5])
    out = masking.apply_mask(x, spec, emb).data
    # masked slots carry the embedding values
    np.testing.assert_array_equal(out[2, geo.SPATIAL_SLOTS], emb.m_spatial.data)
    np.testing.assert_array_equal(out[5, geo.TEMPORAL_SLOTS], emb.m_temporal.data)
    # spatial mask leaves temporal slots of the same position untouched
    np.testing.assert_array_equal(out[2, geo.TEMPORAL_SLOTS], x[2, geo.TEMPORAL_SLOTS])
    np.testing.assert_array_equal(out[5, geo.SPATIAL_SLOTS], x[5, geo.SPATIAL_SLOTS])
    # every unmasked position is bit-identical
    untouched = [i for i in range(10) if i not in (2, 5)]
    np.testing.assert_array_equal(out[untouched], x[untouched])
    # original retained by the caller: apply_mask never writes into x
    assert out is not x


def test_apply_mask_segment_covers_both_groups():
    x = features(12)
    emb = mask_embedding(3)
    spec = masking.sample_segment_mask(12, 0.25, np.random.default_rng(4))
    out = masking.apply_mask(x, spec, emb).data
    for p in spec.positions:
        np.testing.assert_array_equal(out[p, geo.SPATIAL_SLOTS], emb.m_spatial.data)
        np.testing.assert_array_equal(out[p, geo.TEMPORAL_SLOTS], emb.m_temporal.data)


def test_apply_mask_rejects_out_of_range_positions():
    emb = mask_embedding(5)
    with pytest.raises(ValueError):
        masking.apply_mask(features(5), mask(12, spatial=[11]), emb)
    with pytest.raises(ValueError):  # a batch mask needs one row per sequence
        masking.apply_mask(np.stack([features(5)] * 3), masking.successor_mask([5, 5], 5), emb)


def test_apply_mask_gradients_flow_to_embeddings():
    from gradcheck import central_diff_grad, assert_grads_close

    x = features(8)
    spec = mask(8, spatial=[1, 6], temporal=[3, 6])
    rng = np.random.default_rng(6)
    ms0 = rng.normal(0, 0.5, 2)
    mt0 = rng.normal(0, 0.5, 5)
    w = rng.normal(0, 1, x.shape)

    def run(ms, mt):
        tape = ad.Tape()
        emb = masking.MaskEmbedding(
            m_spatial=tape.watch(ad.Tensor(ms.copy(), requires_grad=True)),
            m_temporal=tape.watch(ad.Tensor(mt.copy(), requires_grad=True)),
        )
        out = masking.apply_mask(x, spec, emb)
        return ad.tensor_sum(ad.mul(out, ad.Tensor(w))), emb

    loss, emb = run(ms0, mt0)
    ad.backward(loss)
    assert_grads_close(
        emb.m_spatial.grad,
        central_diff_grad(lambda v: float(run(v, mt0)[0].data), ms0.copy()),
        label="m_spatial",
    )
    assert_grads_close(
        emb.m_temporal.grad,
        central_diff_grad(lambda v: float(run(ms0, v)[0].data), mt0.copy()),
        label="m_temporal",
    )


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def test_batched_apply_mask_equals_per_row_masks_and_stack_bitwise():
    # rows: spatial only, temporal only, both, nothing hidden, a short mask
    s = 9
    specs = [
        mask(s, spatial=[0, 4, 8]),
        mask(s, temporal=[1, 2, 7]),
        mask(s, spatial=[3, 5], temporal=[5, 6]),
        mask(s),
        mask(4, spatial=[2], temporal=[0, 3]),
    ]
    rng = np.random.default_rng(8)
    x = rng.normal(0.0, 1.0, (len(specs), s, geo.FEATURE_DIM))
    w = rng.normal(0.0, 1.0, x.shape)
    ms0, mt0 = rng.normal(0, 0.5, 2), rng.normal(0, 0.5, 5)

    def run(corrupt):
        tape = ad.Tape()
        emb = masking.MaskEmbedding(
            m_spatial=tape.watch(ad.Tensor(ms0.copy(), requires_grad=True)),
            m_temporal=tape.watch(ad.Tensor(mt0.copy(), requires_grad=True)),
        )
        out = corrupt(emb)
        n_nodes = len(tape)
        ad.backward(ad.tensor_sum(ad.mul(out, ad.Tensor(w))))
        return out.data, emb.m_spatial.grad, emb.m_temporal.grad, n_nodes

    def per_row(emb):
        return ad.stack([masking.apply_mask(x[b], spec, emb) for b, spec in enumerate(specs)])

    hidden = np.zeros((len(specs), s, 2), dtype=bool)
    for b, spec in enumerate(specs):
        hidden[b, : len(spec.hidden)] = spec.hidden
    batched = run(lambda emb: masking.apply_mask(x, masking.MaskSpec(hidden), emb))
    expected = run(per_row)
    assert batched[3] == 1  # one mask node for the whole batch
    for got, want in zip(batched[:3], expected[:3]):
        np.testing.assert_array_equal(bits(got), bits(want))


def test_a_group_hidden_nowhere_gets_no_gradient():
    tape = ad.Tape()
    emb = masking.MaskEmbedding(
        m_spatial=tape.watch(ad.Tensor(np.ones(2), requires_grad=True)),
        m_temporal=tape.watch(ad.Tensor(np.ones(5), requires_grad=True)),
    )
    hidden = np.zeros((2, 6, 2), dtype=bool)
    hidden[1, 2, 0] = True
    out = masking.apply_mask(features(12).reshape(2, 6, -1), masking.MaskSpec(hidden), emb)
    ad.backward(ad.tensor_sum(out))
    np.testing.assert_array_equal(emb.m_spatial.grad, [1.0, 1.0])
    assert bits(emb.m_temporal.grad).tolist() == [0] * 5  # +0.0, as if never reached


# ---------------------------------------------------------------------------
# loss masks
# ---------------------------------------------------------------------------


def test_next_step_loss_mask_weights_successors():
    w = masking.build_loss_mask(None, "next_step", 6)
    np.testing.assert_array_equal(w[:5], np.ones((5, 3)))
    np.testing.assert_array_equal(w[5], np.zeros(3))


def test_infill_loss_mask_routes_channels():
    spec = mask(5, spatial=[1, 4], temporal=[3, 4])
    w = masking.build_loss_mask(spec, "infill", 6)
    np.testing.assert_array_equal(w[1], [1, 1, 0])
    np.testing.assert_array_equal(w[3], [0, 0, 1])
    np.testing.assert_array_equal(w[4], [1, 1, 1])
    np.testing.assert_array_equal(w[[0, 2, 5]], np.zeros((3, 3)))
    assert set(np.unique(w)) <= {0.0, 1.0}
    np.testing.assert_array_equal(w[:5], spec.weights)


def test_infill_loss_mask_requires_spec_and_valid_mode():
    with pytest.raises(ValueError):
        masking.build_loss_mask(None, "infill", 4)
    with pytest.raises(ValueError):
        masking.build_loss_mask(None, "other", 4)
    with pytest.raises(ValueError):
        masking.build_loss_mask(mask(5, spatial=[4]), "infill", 4)
