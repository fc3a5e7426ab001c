"""Masked infill: hide slices of a track, train the model to reconstruct them.

A bidirectional model sees a trajectory with some positions replaced by
learnable "hidden" markers and is supervised only on what was hidden —
spatial masks supervise the position deltas, temporal masks the interval.
"""

import numpy as np

from tinytraj import (
    BatchLoader,
    ModelConfig,
    SyntheticConfig,
    TrainConfig,
    compute_center,
    evaluate,
    featurize,
    generate_synthetic,
    init_params,
    train,
)
from tinytraj.masking import apply_mask, build_loss_mask, sample_dimension_mask
from tinytraj.training import restore_params

print("=== 1. what a mask does ===")
cfg = SyntheticConfig(n_traj=16, points_per_traj=10, seed=21)
trajs = list(generate_synthetic(cfg))
norm = compute_center(trajs)
feats = featurize(trajs[0], norm).features
spec = sample_dimension_mask(len(feats), mask_ratio=0.3, rng=np.random.default_rng(5))
print(f"masked positions: {spec.positions}")
print("hidden[pos] = [spatial, temporal]:")
for pos in spec.positions:
    print(f"  position {pos}: {spec.hidden[pos].tolist()}")
weights = build_loss_mask(spec, "infill", len(feats))
print(f"supervised entries: {int(weights.sum())} of {weights.size}")

print("\n=== 2. corrupted input vs original ===")
model_cfg = ModelConfig(
    d_model=16, n_heads=2, n_blocks=1, max_seq=10, attention_mode="bidirectional"
)
params = init_params(model_cfg, np.random.default_rng(1))
corrupted = apply_mask(feats, spec, params.mask_emb)
changed = np.where((corrupted.data != feats).any(axis=1))[0]
print("rows overwritten by the mask embedding:", changed.tolist())
assert changed.tolist() == list(spec.positions)

print("\n=== 3. a short infill training run ===")
train_cfg = TrainConfig(
    lr=5e-3, epochs=8, batch_size=8, objective="infill", mask_ratio=0.3, seed=2
)
loader = BatchLoader(trajs, train_cfg.batch_size, 10, norm)
result = train(params, model_cfg, train_cfg, loader, norm_params=norm)
first, last = result.step_losses[0], result.step_losses[-1]
print(f"infill loss {first:.6f} -> {last:.6f}")

print("\n=== 4. infill evaluation ===")
trained = restore_params(result.checkpoint)
report = evaluate(trained, model_cfg, trajs, norm, "infill", mask_ratio=0.3, seed=9)
print(f"ADE {report.ade_m:.1f} m over {report.n_points} masked positions "
      f"in {report.n_traj} trajectories; time MAE {report.time_mae_s:.1f} s")
