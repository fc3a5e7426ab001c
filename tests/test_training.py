"""Training tests: loss semantics and masking neutrality, Adam closed-form
behavior, clipping, the deterministic epoch loop, the pretext autoencoder
probe, and checkpoint round-trips with resume equivalence."""

import hashlib
import json
import math
import struct

import numpy as np
import pytest

from tinytraj import autodiff as ad
from tinytraj import data, geo, model as tm, training as tr
from tinytraj.autodiff import Tensor
from tinytraj.data import BatchLoader, SyntheticConfig, generate_synthetic
from tinytraj.training import (
    AdamState,
    CheckpointVersionError,
    ConfigMismatchError,
    CorruptCheckpointError,
    NoSupervisionWarning,
    NumericsError,
    TrainConfig,
    adam_step,
    autoencoder_rmse,
    clip_gradients,
    init_adam_state,
    load_checkpoint,
    loss,
    make_checkpoint,
    pretext_autoencoder_check,
    restore_params,
    save_checkpoint,
    train,
    write_history_csv,
)

TINY = tm.ModelConfig(d_model=8, n_heads=2, n_blocks=1, max_seq=16)


def straight_line_loader(n_traj=12, points=8, batch_size=4, seed=0):
    cfg = SyntheticConfig(
        n_traj=n_traj,
        points_per_traj=points,
        n_waypoints=2,
        noise_sigma=0.0,
        seed=seed,
    )
    trajs = list(generate_synthetic(cfg))
    params = geo.compute_center(trajs)
    return BatchLoader(trajs, batch_size, points, params), params


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_train_config_validation():
    TrainConfig(lr=0.0)  # zero learning rate is a documented neutral mode
    for bad in (
        dict(lr=-1e-3),
        dict(beta1=1.0),
        dict(beta2=0.0),
        dict(eps=0.0),
        dict(clip_norm=0.0),
        dict(epochs=0),
        dict(batch_size=0),
        dict(objective="rollout"),
        dict(mask_ratio=1.0),
        dict(mask_ratio=1.5),
        dict(mask_kinds=()),
        dict(mask_kinds=("patch",)),
        dict(mask_kinds=("other",)),
        dict(loss="mae"),
        dict(huber_delta=0.0),
    ):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    assert TrainConfig.from_dict(TrainConfig(lr=1e-3).to_dict()) == TrainConfig(lr=1e-3)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_loss_zero_when_pred_equals_targets():
    x = np.arange(12.0).reshape(4, 3)
    value = loss(Tensor(x), x, np.ones_like(x))
    assert float(value.data) == 0.0


def test_loss_single_entry_mse():
    pred = Tensor(np.array([[3.0, 0.0, 0.0]]))
    targets = np.array([[1.0, 9.0, 9.0]])
    weights = np.array([[1.0, 0.0, 0.0]])
    assert float(loss(pred, targets, weights).data) == 4.0  # (3-1)^2


def test_loss_huber_knee():
    pred = Tensor(np.array([[2.0]]))
    value = loss(pred, np.zeros((1, 1)), np.ones((1, 1)), kind="huber", huber_delta=1.0)
    assert float(value.data) == pytest.approx(1.5, abs=1e-15)


def test_loss_is_weighted_mean_over_supervised_entries():
    pred = Tensor(np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]))
    targets = np.zeros((2, 3))
    weights = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    expected = (1.0 + 9.0 + 25.0) / 3.0
    assert float(loss(pred, targets, weights).data) == pytest.approx(expected, rel=1e-15)


def test_loss_all_zero_weights_warns_and_returns_zero():
    with pytest.warns(NoSupervisionWarning):
        value = loss(Tensor(np.ones((2, 3))), np.zeros((2, 3)), np.zeros((2, 3)))
    assert float(value.data) == 0.0


def test_loss_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        loss(Tensor(np.ones((2, 3))), np.ones((3, 2)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        loss(Tensor(np.ones((2, 3))), np.ones((2, 3)), np.ones((2, 2)))


@pytest.mark.parametrize("kind", ["mse", "huber"])
def test_unsupervised_targets_leave_gradients_bit_identical(kind):
    """Perturbing a target under weight 0 must not move any gradient bit."""
    rng = np.random.default_rng(3)
    params = tm.init_params(TINY, rng)
    params.w_out.data[:] = rng.normal(0, 0.1, params.w_out.shape)
    feats = rng.normal(0, 1, (5, geo.FEATURE_DIM))
    targets = rng.normal(0, 1, (5, 3))
    weights = np.ones((5, 3))
    weights[1, :] = 0.0
    weights[3, 2] = 0.0

    def grads_for(t):
        tape = ad.Tape()
        tm.bind_params(params, tape)
        pred = tm.forward_features(feats, params, TINY)
        ad.backward(loss(pred, t, weights, kind=kind))
        return {n: p.grad.copy() for n, p in tm.named_parameters(params).items()}

    base = grads_for(targets)
    perturbed = targets.copy()
    perturbed[1, :] += rng.normal(0, 10, 3)
    perturbed[3, 2] -= 42.0
    after = grads_for(perturbed)
    for name in base:
        np.testing.assert_array_equal(base[name], after[name])


# ---------------------------------------------------------------------------
# clipping and Adam
# ---------------------------------------------------------------------------


def test_clip_below_threshold_is_identity():
    grads = {"a": np.array([0.3, 0.4])}  # norm 0.5
    assert clip_gradients(grads, 1.0) is grads


def test_clip_rescales_to_norm():
    grads = {"a": np.array([2.0, 0.0]), "b": np.array([0.0, 0.0])}
    clipped = clip_gradients(grads, 1.0)
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in clipped.values()))
    assert abs(norm - 1.0) <= 1e-12


def test_clip_preserves_direction():
    rng = np.random.default_rng(4)
    grads = {k: rng.normal(0, 5, (3, 2)) for k in "abc"}
    clipped = clip_gradients(grads, 0.25)
    flat = np.concatenate([grads[k].ravel() for k in "abc"])
    flat_c = np.concatenate([clipped[k].ravel() for k in "abc"])
    cos = flat @ flat_c / (np.linalg.norm(flat) * np.linalg.norm(flat_c))
    assert abs(cos - 1.0) < 1e-12


def test_grad_norm_adds_squares_in_order_from_zero():
    # squared norms 1e16, 1, 1: sum() on Python 3.12 and later gives 1e16 + 2
    grads = {"a": np.array([1e8]), "b": np.array([1.0]), "c": np.array([1.0])}
    assert tr.global_grad_norm(grads) == 1e8


def test_clip_validates_norm():
    with pytest.raises(ValueError):
        clip_gradients({}, 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1e200 squared overflows
@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
def test_clip_rejects_non_finite_norm_naming_the_parameter(bad):
    grads = {"a": np.array([1.0, 2.0]), "b": np.array([1.0, bad]), "c": np.array([np.nan])}
    with pytest.raises(NumericsError, match="non-finite gradient norm.*'b'"):
        clip_gradients(grads, 1.0)


def test_adam_zero_gradient_fresh_state_keeps_params():
    t = Tensor(np.array([1.0, -2.0]))
    named = {"p": t}
    state = init_adam_state(named)
    before = t.data.copy()
    adam_step(named, {"p": np.zeros(2)}, state, TrainConfig(lr=0.1))
    np.testing.assert_array_equal(t.data, before)
    assert state.step == 1
    np.testing.assert_array_equal(state.m["p"], np.zeros(2))


def test_adam_moments_decay_without_gradient():
    t = Tensor(np.array([1.0]))
    named = {"p": t}
    state = init_adam_state(named)
    state.m["p"][:] = 1.0
    state.v["p"][:] = 1.0
    cfg = TrainConfig(lr=0.1)
    adam_step(named, {"p": np.zeros(1)}, state, cfg)
    assert state.m["p"][0] == pytest.approx(cfg.beta1, rel=1e-15)
    assert state.v["p"][0] == pytest.approx(cfg.beta2, rel=1e-15)


def test_adam_first_step_size():
    t = Tensor(np.zeros((3, 4)))
    named = {"p": t}
    state = init_adam_state(named)
    adam_step(named, {"p": np.ones((3, 4))}, state, TrainConfig(lr=0.001))
    np.testing.assert_allclose(t.data, -0.001, rtol=0, atol=1e-6)


def test_adam_constant_gradient_moves_monotonically():
    t = Tensor(np.array([0.0]))
    named = {"p": t}
    state = init_adam_state(named)
    cfg = TrainConfig(lr=0.01)
    values = [t.data[0]]
    for _ in range(4):
        adam_step(named, {"p": np.ones(1)}, state, cfg)
        values.append(t.data[0])
    diffs = np.diff(values)
    assert (diffs < 0).all()


# ---------------------------------------------------------------------------
# patch targets
# ---------------------------------------------------------------------------


def _per_patch_loop(targets, length, patch_len):
    # the oracle: patch j covers points [j*P, (j+1)*P) and its target is their
    # summed steps, supervised only when the first point of patch j+1 exists
    s = targets.shape[0]
    n_patches = -(-s // patch_len)
    out = np.zeros((n_patches, targets.shape[1]), dtype=np.float64)
    weights = np.zeros(n_patches, dtype=np.float64)
    for j in range(n_patches):
        lo = j * patch_len
        hi = min(lo + patch_len, s)
        if hi < length:
            out[j] = targets[lo:hi].sum(axis=0)
            weights[j] = 1.0
    return out, weights


def _one_row_patch_targets(targets, length, patch_len, monkeypatch):
    # the targets and per-patch weights _batch_loss hands the loss for one row
    seen = []

    def spy(pred, targets, weights, **kwargs):
        seen.append((targets, weights[:, 0]))
        return loss(pred, targets, weights, **kwargs)

    monkeypatch.setattr(tr, "loss", spy)
    s = targets.shape[0]
    batch = data.Batch(
        features=np.zeros((1, s, geo.FEATURE_DIM)),
        targets=targets[None],
        pad_mask=(np.arange(s) < length)[None],
        ids=("t",),
        lengths=(length,),
    )
    model_cfg = tm.ModelConfig(d_model=8, n_heads=2, n_blocks=1, max_seq=16, patch_len=patch_len)
    params = tm.init_params(model_cfg, np.random.default_rng(0))
    tr._batch_loss(batch, params, model_cfg, TrainConfig(), "next_step", None)
    (out, w), = seen
    return out, w


def test_aggregate_patch_targets_sums_and_weights(monkeypatch):
    targets = np.arange(15.0).reshape(5, 3)
    targets[4] = 0.0  # last point has no successor
    out, w = _one_row_patch_targets(targets, length=5, patch_len=2, monkeypatch=monkeypatch)
    assert out.shape == (3, 3) and w.tolist() == [1.0, 1.0, 0.0]
    np.testing.assert_array_equal(out[0], targets[0] + targets[1])
    np.testing.assert_array_equal(out[1], targets[2] + targets[3])
    np.testing.assert_array_equal(out[2], 0.0)


def test_aggregate_patch_targets_short_tail_unsupervised(monkeypatch):
    targets = np.ones((6, 3))
    targets[4:] = 0.0  # padded slots carry zero targets
    out, w = _one_row_patch_targets(targets, length=4, patch_len=3, monkeypatch=monkeypatch)
    # patch 1 starts at point 3 (valid), but its anchor-successor point 6
    # does not exist in a length-4 trajectory
    assert w.tolist() == [1.0, 0.0]
    np.testing.assert_array_equal(out[0], 3.0)
    np.testing.assert_array_equal(out[1], 0.0)


def test_aggregate_patch_targets_identity_at_patch_one(monkeypatch):
    targets = np.arange(12.0).reshape(4, 3)
    targets[3] = 0.0  # last point has no successor
    out, w = _one_row_patch_targets(targets, length=4, patch_len=1, monkeypatch=monkeypatch)
    assert w.tolist() == [1.0, 1.0, 1.0, 0.0]
    np.testing.assert_array_equal(out[:3], targets[:3])
    np.testing.assert_array_equal(out[3], 0.0)  # unsupervised rows zero-fill


# an s_max of 7 is no multiple of 2 to 6: the last patch runs past batch.seq_len
@pytest.mark.parametrize("s_max", [7, 16])
def test_patch_targets_and_weights_match_the_per_patch_loop(s_max, monkeypatch):
    cfg = SyntheticConfig(n_traj=11, points_per_traj=18, n_waypoints=3, noise_sigma=1e-4, seed=4)
    lengths = [2, 3, 4, 5, 6, 7, 9, 11, 13, 16, 18]  # ragged, some cut at s_max
    trajs = [t.head(n) for t, n in zip(generate_synthetic(cfg), lengths)]
    loader = BatchLoader(trajs, 4, s_max, geo.compute_center(trajs))
    seen = []

    def spy(pred, targets, weights, **kwargs):
        seen.append((pred.shape, targets, weights))
        return loss(pred, targets, weights, **kwargs)

    monkeypatch.setattr(tr, "loss", spy)
    for patch_len in range(1, 10):
        model_cfg = tm.ModelConfig(d_model=8, n_heads=2, n_blocks=1, max_seq=16, patch_len=patch_len)
        params = tm.init_params(model_cfg, np.random.default_rng(0))
        for batch in loader:
            seen.clear()
            tr._batch_loss(batch, params, model_cfg, TrainConfig(), "next_step", None)
            parts = [
                _per_patch_loop(batch.targets[row, :length], length, patch_len)
                for row, length in enumerate(batch.lengths)
            ]
            expected = np.concatenate([t for t, _ in parts])
            weights = np.concatenate([np.repeat(w[:, None], 3, axis=1) for _, w in parts])
            if not weights.any():  # every row fits in one patch: nothing to supervise
                assert seen == []
                continue
            (pred_shape, got, got_weights), = seen
            assert pred_shape == (len(expected), 3)
            np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))
            np.testing.assert_array_equal(got_weights, weights)
            # a row of L points supervises all its ceil(L / P) patches but the last
            assert got_weights[:, 0].sum() == sum(-(-n // patch_len) - 1 for n in batch.lengths)
            if patch_len == 1:  # patching by one point is the identity on the steps
                steps = batch.targets[batch.pad_mask]
                np.testing.assert_array_equal(got.view(np.int64), steps.view(np.int64))


# ---------------------------------------------------------------------------
# the training loop
# ---------------------------------------------------------------------------


def test_zero_learning_rate_freezes_parameters():
    loader, norm = straight_line_loader()
    params = tm.init_params(TINY, np.random.default_rng(5))
    before = {n: t.data.copy() for n, t in tm.named_parameters(params).items()}
    train(params, TINY, TrainConfig(lr=0.0, epochs=2, seed=1), loader)
    for name, t in tm.named_parameters(params).items():
        np.testing.assert_array_equal(t.data, before[name])


def test_training_reduces_next_step_loss():
    loader, norm = straight_line_loader()
    params = tm.init_params(TINY, np.random.default_rng(6))
    result = train(params, TINY, TrainConfig(lr=3e-3, epochs=10, seed=2), loader)
    assert len(result.step_losses) == 30
    assert result.step_losses[-1] < 0.5 * result.step_losses[0]
    assert result.history[0]["split"] == "train"
    assert result.history[-1]["loss"] < result.history[0]["loss"]


def test_infill_training_updates_mask_embeddings():
    loader, norm = straight_line_loader(points=12)
    params = tm.init_params(TINY, np.random.default_rng(7))
    m_before = params.mask_emb.m_spatial.data.copy()
    t_before = params.mask_emb.m_temporal.data.copy()
    cfg = TrainConfig(lr=1e-3, epochs=2, objective="infill", mask_ratio=0.4, seed=3)
    result = train(params, TINY, cfg, loader)
    assert result.step_losses  # some batches carried supervised entries
    moved = not np.array_equal(params.mask_emb.m_spatial.data, m_before) or not (
        np.array_equal(params.mask_emb.m_temporal.data, t_before)
    )
    assert moved


def test_infill_training_never_masks_the_final_position(monkeypatch):
    # the final position's target is a zero placeholder (no successor step)
    drawn, lengths = [], []
    real_loss, real_mask = tr._batch_loss, tr.masking.apply_mask

    def batch_loss(batch, *args):
        lengths.append(batch.lengths)
        return real_loss(batch, *args)

    def apply_mask(features, spec, emb):  # one [B, S, 2] mask per infill batch
        drawn.extend(zip(spec.hidden, lengths[-1]))
        return real_mask(features, spec, emb)

    monkeypatch.setattr(tr, "_batch_loss", batch_loss)
    monkeypatch.setattr(tr.masking, "apply_mask", apply_mask)
    loader, norm = straight_line_loader(n_traj=40, points=6, batch_size=8)
    params = tm.init_params(TINY, np.random.default_rng(9))
    cfg = TrainConfig(lr=1e-3, epochs=3, objective="infill", mask_ratio=0.5, seed=5)
    train(params, TINY, cfg, loader)
    assert len(drawn) == 3 * 40
    assert sum(int(hidden.any(axis=1).sum()) for hidden, _ in drawn) > 0
    assert all(not hidden[n - 1 :].any() for hidden, n in drawn)


def test_alternating_objective_runs_both_modes():
    loader, norm = straight_line_loader(points=12)
    params = tm.init_params(TINY, np.random.default_rng(8))
    cfg = TrainConfig(lr=1e-3, epochs=2, objective="alternating", mask_ratio=0.4, seed=4)
    result = train(params, TINY, cfg, loader)
    assert len(result.step_losses) >= 4
    assert result.history[-1]["objective"] == "alternating"


def test_validation_losses_recorded():
    loader, norm = straight_line_loader(seed=1)
    val_loader, _ = straight_line_loader(n_traj=4, seed=2)
    params = tm.init_params(TINY, np.random.default_rng(9))
    result = train(
        params, TINY, TrainConfig(lr=1e-3, epochs=2, seed=5), loader,
        val_loader=val_loader,
    )
    splits = [row["split"] for row in result.history]
    assert splits == ["train", "val", "train", "val"]


def test_empty_loader_rejected():
    params = tm.init_params(TINY, np.random.default_rng(10))
    with pytest.raises(ValueError, match="no batches"):
        train(params, TINY, TrainConfig(epochs=1), [])


def test_infill_with_patches_rejected():
    cfg_m = tm.ModelConfig(d_model=8, n_heads=2, n_blocks=1, max_seq=16, patch_len=2)
    params = tm.init_params(cfg_m, np.random.default_rng(11))
    with pytest.raises(ValueError, match="patch_len"):
        train(params, cfg_m, TrainConfig(objective="infill"), [])


def test_non_finite_loss_aborts_naming_the_batch():
    loader, norm = straight_line_loader()
    params = tm.init_params(TINY, np.random.default_rng(12))
    params.b_out.data[:] = np.nan
    with pytest.raises(NumericsError, match=r"epoch 0, batch 0"):
        train(params, TINY, TrainConfig(lr=1e-3, epochs=1, seed=6), loader)


def poison_gradient(monkeypatch, params):
    """Make every backward pass leave a NaN in blocks.0.wq's gradient."""
    real = ad.backward

    def backward(loss, tape=None):
        out = real(loss, tape)
        params.blocks[0].wq.grad[0, 0] = np.nan
        return out

    monkeypatch.setattr(ad, "backward", backward)


def test_non_finite_gradient_aborts_before_any_update(monkeypatch):
    loader, norm = straight_line_loader()
    params = tm.init_params(TINY, np.random.default_rng(12))
    before = {n: t.data.copy() for n, t in tm.named_parameters(params).items()}
    poison_gradient(monkeypatch, params)
    with pytest.raises(NumericsError, match=r"gradient.*'blocks\.0\.wq'.*epoch 0, batch 0"):
        train(params, TINY, TrainConfig(lr=1e-3, epochs=1, seed=6), loader)
    for name, t in tm.named_parameters(params).items():
        np.testing.assert_array_equal(t.data, before[name])


def test_same_seed_gives_identical_checkpoint_hash(tmp_path):
    def run(path):
        loader, norm = straight_line_loader()
        params = tm.init_params(TINY, np.random.default_rng(13))
        result = train(
            params, TINY, TrainConfig(lr=1e-3, epochs=2, seed=7), loader,
            norm_params=norm,
        )
        save_checkpoint(result.checkpoint, path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    assert run(tmp_path / "a.ckpt") == run(tmp_path / "b.ckpt")


def test_patch_model_trains():
    cfg_m = tm.ModelConfig(d_model=8, n_heads=2, n_blocks=1, max_seq=8, patch_len=2)
    loader, norm = straight_line_loader(points=8)
    params = tm.init_params(cfg_m, np.random.default_rng(14))
    result = train(params, cfg_m, TrainConfig(lr=3e-3, epochs=6, seed=8), loader)
    assert result.step_losses[-1] < result.step_losses[0]


# ---------------------------------------------------------------------------
# pretext autoencoder
# ---------------------------------------------------------------------------


def test_pretext_constant_features_reconstruct():
    points = np.tile(np.array([0.3, -0.2, 0.5, 0.1, 0.9, 0.4, 0.7]), (40, 1))
    rmse = autoencoder_rmse(points, d_latent=16, steps=500, seed=1)
    assert 0.0 <= rmse < 1e-3


def test_pretext_shuffled_pairing_is_no_better():
    rng = np.random.default_rng(15)
    points = rng.normal(0, 1, (60, geo.FEATURE_DIM))
    matched = autoencoder_rmse(points, 16, steps=200, seed=2)
    shuffled = autoencoder_rmse(
        points, 16, steps=200, seed=2, targets=points[rng.permutation(60)]
    )
    assert shuffled >= matched


def test_pretext_check_reports_both_runs():
    cfg = SyntheticConfig(n_traj=6, points_per_traj=10, noise_sigma=0.0, seed=16)
    trajs = list(generate_synthetic(cfg))
    norm = geo.compute_center(trajs)
    seqs = [geo.featurize(t, norm).features for t in trajs]
    report = pretext_autoencoder_check(seqs, d_latent=24, steps=300, seed=3)
    assert report.raw_rmse >= 0.0 and report.pe_rmse >= 0.0
    assert report.raw_rmse < 0.5 and report.pe_rmse < 0.5


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def trained_checkpoint(tmp_path, epochs=2):
    loader, norm = straight_line_loader()
    params = tm.init_params(TINY, np.random.default_rng(17))
    result = train(
        params, TINY, TrainConfig(lr=1e-3, epochs=epochs, seed=9), loader,
        norm_params=norm,
    )
    return result.checkpoint


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    save_checkpoint(ckpt, p1)
    loaded = load_checkpoint(p1)
    save_checkpoint(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_checkpoint_write_leaves_the_previous_file(tmp_path, monkeypatch):
    ckpt = trained_checkpoint(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    before = path.read_bytes()

    class FailingFile:
        # the writes are magic, version, header length, header, then one per
        # array: the sixth is the second array's
        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, data):
            self.writes += 1
            if self.writes == 6:
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    monkeypatch.setattr(tr, "open", lambda *a, **k: FailingFile(open(*a, **k)), raising=False)
    with pytest.raises(OSError, match="No space left"):
        save_checkpoint(make_checkpoint(restore_params(ckpt), TINY), path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_checkpoint_round_trips_values_exactly(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    path = tmp_path / "c.ckpt"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path, expect_config=TINY)
    for name, arr in ckpt.arrays.items():
        np.testing.assert_array_equal(loaded.arrays[name], arr)
    assert loaded.adam.step == ckpt.adam.step
    for name in ckpt.adam.m:
        np.testing.assert_array_equal(loaded.adam.m[name], ckpt.adam.m[name])
        np.testing.assert_array_equal(loaded.adam.v[name], ckpt.adam.v[name])
    assert loaded.norm_params.approx_equal(ckpt.norm_params, tol=0.0)
    assert loaded.history == ckpt.history
    params = restore_params(loaded)
    for name, t in tm.named_parameters(params).items():
        np.testing.assert_array_equal(t.data, ckpt.arrays[name])


def test_checkpoint_rejects_garbage_and_truncation(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"definitely not a checkpoint")
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(path)

    ckpt = trained_checkpoint(tmp_path)
    good = tmp_path / "good.ckpt"
    save_checkpoint(ckpt, good)
    blob = good.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[: len(blob) - 64])
    with pytest.raises(CorruptCheckpointError, match="truncated"):
        load_checkpoint(cut)
    padded = tmp_path / "pad.ckpt"
    padded.write_bytes(blob + b"\x00" * 8)
    with pytest.raises(CorruptCheckpointError, match="trailing"):
        load_checkpoint(padded)


def _frame_header(blob: bytes, new: bytes) -> bytes:
    """Re-frame a checkpoint around the header bytes ``new``, payload kept."""
    start = len(tr.CHECKPOINT_MAGIC) + 4
    (n,) = struct.unpack_from("<Q", blob, start)
    return blob[:start] + struct.pack("<Q", len(new)) + new + blob[start + 8 + n :]


def _rewrite_header(blob: bytes, edit) -> bytes:
    """Re-frame a checkpoint around ``edit(header)``'s JSON, payload kept."""
    start = len(tr.CHECKPOINT_MAGIC) + 4
    (n,) = struct.unpack_from("<Q", blob, start)
    header = json.loads(blob[start + 8 : start + 8 + n])
    return _frame_header(blob, json.dumps(edit(header)).encode())


def _drop_arrays(header):
    del header["arrays"]
    return header


def _unknown_config_key(header):
    header["model_config"]["n_layers"] = 3
    return header


def _nan_payload(blob: bytes) -> bytes:
    out = bytearray(blob)
    out[-8:] = struct.pack("<d", float("nan"))
    return bytes(out)


def _set(path, value):
    """A header edit that sets the field at ``path`` (keys and list indices)."""

    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return header

    return edit


def _float_shape(header):
    entry = header["arrays"][0]
    entry["shape"] = [float(d) for d in entry["shape"]]
    return header


def _edit_entry(name, change):
    """A header edit that applies ``change`` to the manifest entry of ``name``."""

    def edit(header):
        (entry,) = [e for e in header["arrays"] if e["name"] == name]
        change(entry)
        return header

    return edit


# each yields a checkpoint that must load as CorruptCheckpointError
CORRUPTIONS = {
    "missing_arrays": lambda blob: _rewrite_header(blob, _drop_arrays),
    "non_object_header": lambda blob: _rewrite_header(blob, lambda h: [h]),
    # deeper than the JSON parser recurses: RecursionError, not a traceback
    "deeply_nested_header": lambda blob: _frame_header(blob, b"[" * 200_000 + b"]" * 200_000),
    "unknown_model_config_key": lambda blob: _rewrite_header(blob, _unknown_config_key),
    "nan_payload": _nan_payload,
    "infinite_normalization": lambda blob: _rewrite_header(
        blob, _set(("normalization", "scale_lat"), float("inf"))
    ),
    "float_model_config_value": lambda blob: _rewrite_header(
        blob, _set(("model_config", "n_blocks"), 1.0)
    ),
    # np.prod wraps to 0 elements in int64
    "overflowing_shape": lambda blob: _rewrite_header(
        blob, _set(("arrays", 0, "shape"), [2**32, 2**32])
    ),
    "infinite_adam_step": lambda blob: _rewrite_header(blob, _set(("adam_step",), float("inf"))),
    "float_shape": lambda blob: _rewrite_header(blob, _float_shape),
    "bad_next_epoch": lambda blob: _rewrite_header(blob, _set(("rng_state", "next_epoch"), "x")),
    "string_history": lambda blob: _rewrite_header(blob, _set(("history",), "abc")),
    "history_of_numbers": lambda blob: _rewrite_header(blob, _set(("history",), [1, 2])),
    "history_row_missing_columns": lambda blob: _rewrite_header(
        blob, _set(("history",), [{"epoch": 0}])
    ),
    # a history row whose value is of the wrong kind (row 0 is a train row)
    "history_value_string_loss": lambda blob: _rewrite_header(blob, _set(("history", 0, "loss"), "x")),
    "history_value_bool_loss": lambda blob: _rewrite_header(blob, _set(("history", 0, "loss"), True)),
    "history_value_negative_epoch": lambda blob: _rewrite_header(
        blob, _set(("history", 0, "epoch"), -1)
    ),
    "history_value_float_epoch": lambda blob: _rewrite_header(blob, _set(("history", 0, "epoch"), 0.0)),
    "history_value_bool_epoch": lambda blob: _rewrite_header(blob, _set(("history", 0, "epoch"), False)),
    "history_value_unknown_split": lambda blob: _rewrite_header(
        blob, _set(("history", 0, "split"), "test")
    ),
    "history_value_numeric_objective": lambda blob: _rewrite_header(
        blob, _set(("history", 0, "objective"), 1)
    ),
    # the moment's bytes stay in the payload, filed under a name no group reads
    "adam_moment_missing": lambda blob: _rewrite_header(
        blob, _edit_entry("adam_m/blocks.0.b_ff1", lambda e: e.update(name="stray/b_ff1"))
    ),
    "adam_moment_misshaped": lambda blob: _rewrite_header(
        blob, _edit_entry("adam_v/blocks.0.b_ff1", lambda e: e.update(shape=[1, *e["shape"]]))
    ),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_checkpoint_rejects_malformed_header_and_payload(tmp_path, corruption):
    good = tmp_path / "good.ckpt"
    save_checkpoint(trained_checkpoint(tmp_path, epochs=1), good)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(CORRUPTIONS[corruption](good.read_bytes()))
    with pytest.raises(CorruptCheckpointError):
        load_checkpoint(bad)


def test_checkpoint_version_check(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    path = tmp_path / "v.ckpt"
    save_checkpoint(ckpt, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99  # bump the little-endian version field
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointVersionError):
        load_checkpoint(path)


def test_checkpoint_config_mismatch(tmp_path):
    ckpt = trained_checkpoint(tmp_path)
    path = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, path)
    other = tm.ModelConfig(d_model=16, n_heads=2, n_blocks=1, max_seq=16)
    with pytest.raises(ConfigMismatchError):
        load_checkpoint(path, expect_config=other)


def test_resume_reproduces_unbroken_run(tmp_path):
    def fresh():
        loader, norm = straight_line_loader()
        return loader, norm, tm.init_params(TINY, np.random.default_rng(18))

    loader, norm, params_a = fresh()
    full_cfg = TrainConfig(lr=1e-3, epochs=4, seed=10)
    unbroken = train(params_a, TINY, full_cfg, loader, norm_params=norm)

    loader, norm, params_b = fresh()
    half = train(
        params_b, TINY, TrainConfig(lr=1e-3, epochs=2, seed=10), loader,
        norm_params=norm,
    )
    path = tmp_path / "half.ckpt"
    save_checkpoint(half.checkpoint, path)
    loaded = load_checkpoint(path, expect_config=TINY)
    params_c = restore_params(loaded)
    resumed = train(
        params_c,
        TINY,
        full_cfg,
        loader,
        norm_params=norm,
        adam_state=loaded.adam,
        start_epoch=loaded.rng_state["next_epoch"],
        history=loaded.history,
    )
    tail = unbroken.step_losses[len(half.step_losses):]
    assert len(resumed.step_losses) >= 5
    np.testing.assert_allclose(resumed.step_losses, tail, rtol=0, atol=1e-12)
    assert resumed.step_losses == tail  # in fact bit-identical
    assert resumed.history == unbroken.history


def test_history_csv_round_trip(tmp_path):
    history = [
        {"epoch": 0, "split": "train", "objective": "next_step", "loss": 0.5},
        {"epoch": 0, "split": "val", "objective": "next_step", "loss": 0.75},
    ]
    path = tmp_path / "h.csv"
    write_history_csv(history, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,split,objective,loss"
    assert lines[1] == "0,train,next_step,0.5"
    assert len(lines) == 3
