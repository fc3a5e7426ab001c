"""Optimization and persistence.

Weighted MSE/Huber losses over supervision masks, Adam with global-norm
gradient clipping, a deterministic epoch loop covering next-step and
masked-infill objectives, a pretext autoencoder check on the feature
encoding, and a versioned binary checkpoint format whose save -> load ->
save round trip is byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import autodiff as ad
from . import embedding as emb
from . import masking
from .autodiff import Tensor
from .data import Batch, _replacing
from .geo import FEATURE_DIM, JsonConfig, NormalizationParams
from .masking import MaskSpec
from .model import (
    MAX_PARAMETERS,
    ModelConfig,
    ModelParams,
    bind_params,
    forward_features,
    named_parameters,
    parameter_shapes,
    params_from_arrays,
)

__all__ = [
    "AdamState",
    "Checkpoint",
    "CheckpointVersionError",
    "ConfigMismatchError",
    "CorruptCheckpointError",
    "HISTORY_COLUMNS",
    "NoSupervisionWarning",
    "NumericsError",
    "PretextReport",
    "TrainConfig",
    "TrainResult",
    "adam_step",
    "autoencoder_rmse",
    "clip_gradients",
    "global_grad_norm",
    "init_adam_state",
    "load_checkpoint",
    "loss",
    "make_checkpoint",
    "pretext_autoencoder_check",
    "restore_params",
    "save_checkpoint",
    "train",
    "write_history_csv",
]

OBJECTIVES = ("next_step", "infill", "alternating")
LOSS_KINDS = ("mse", "huber")

CHECKPOINT_MAGIC = b"TTCK"
CHECKPOINT_VERSION = 1


class NumericsError(RuntimeError):
    """Training produced a non-finite loss or gradient norm."""


class CorruptCheckpointError(RuntimeError):
    """The checkpoint file is unreadable, truncated, or inconsistent."""


class CheckpointVersionError(RuntimeError):
    """The checkpoint was written by an incompatible format version."""


class ConfigMismatchError(RuntimeError):
    """The checkpoint's model configuration differs from the expected one."""


class NoSupervisionWarning(UserWarning):
    """A loss was requested over all-zero supervision weights."""


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainConfig(JsonConfig):
    """Optimizer and schedule settings.

    ``objective`` selects next-step prediction, masked infill, or a 1:1
    alternation of the two; ``mask_kinds`` cycles per infill batch. A zero
    learning rate is allowed and leaves parameters untouched (useful for
    pipeline checks).
    """

    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    clip_norm: float = 1.0
    epochs: int = 1
    batch_size: int = 8
    objective: str = "next_step"
    mask_ratio: float = masking.DEFAULT_MASK_RATIO
    mask_kinds: tuple[str, ...] = ("dimension", "segment")
    loss: str = "mse"
    huber_delta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not (0.0 < b < 1.0):
                raise ValueError(f"{name} must lie in (0, 1), got {b}")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        if self.clip_norm <= 0:
            raise ValueError(f"clip_norm must be > 0, got {self.clip_norm}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.objective not in OBJECTIVES:
            raise ValueError(
                f"objective must be one of {OBJECTIVES}, got {self.objective!r}"
            )
        if not (0.0 < self.mask_ratio < 1.0):
            raise ValueError(f"mask_ratio must lie in (0, 1), got {self.mask_ratio}")
        if not self.mask_kinds or any(
            k not in ("dimension", "segment") for k in self.mask_kinds
        ):
            raise ValueError(f"unknown mask kinds: {self.mask_kinds}")
        if self.loss not in LOSS_KINDS:
            raise ValueError(f"loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        if self.huber_delta <= 0:
            raise ValueError(f"huber_delta must be > 0, got {self.huber_delta}")


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def loss(
    pred: Tensor,
    targets: np.ndarray,
    weights: np.ndarray,
    *,
    kind: str = "mse",
    huber_delta: float = 1.0,
) -> Tensor:
    """Weighted mean of per-element squared or Huber error.

    ``weights`` are 0/1 supervision indicators; zero-weight entries
    contribute nothing to the value or the gradient. An all-zero weight
    array returns a constant 0 scalar and emits :class:`NoSupervisionWarning`.
    """
    targets = np.asarray(targets, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if pred.shape != targets.shape or pred.shape != weights.shape:
        raise ValueError(
            f"loss shapes disagree: pred {pred.shape}, targets {targets.shape}, "
            f"weights {weights.shape}"
        )
    total = float(weights.sum())
    if total == 0.0:
        warnings.warn(
            "loss over zero supervised entries; returning 0",
            NoSupervisionWarning,
            stacklevel=2,
        )
        return Tensor(0.0)
    diff = ad.sub(pred, Tensor(targets))
    if kind == "mse":
        elem = ad.mul(diff, diff)
    elif kind == "huber":
        elem = ad.huber(diff, huber_delta)
    else:
        raise ValueError(f"loss kind must be one of {LOSS_KINDS}, got {kind!r}")
    weighted = ad.mul(elem, Tensor(weights))
    return ad.scale(ad.tensor_sum(weighted), 1.0 / total)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


@dataclass
class AdamState:
    """First/second moment accumulators mirroring the parameter tree."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    def copy(self) -> "AdamState":
        return AdamState(
            m={k: a.copy() for k, a in self.m.items()},
            v={k: a.copy() for k, a in self.v.items()},
            step=self.step,
        )


def init_adam_state(named: dict[str, Tensor]) -> AdamState:
    return AdamState(
        m={k: np.zeros(t.shape, dtype=np.float64) for k, t in named.items()},
        v={k: np.zeros(t.shape, dtype=np.float64) for k, t in named.items()},
    )


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    # the squared norms add in order from 0.0: sum() is compensated from
    # Python 3.12 on, so it would round differently on different interpreters
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return math.sqrt(total)


def clip_gradients(
    grads: dict[str, np.ndarray], clip_norm: float
) -> dict[str, np.ndarray]:
    """Scale all gradients by ``clip_norm / norm`` when the global L2 norm
    exceeds ``clip_norm``; otherwise return them unchanged (direction is
    always preserved).

    A non-finite norm raises :class:`NumericsError` naming the first
    parameter whose gradient is non-finite (or whose squares overflow),
    rather than scaling every parameter by NaN.
    """
    if clip_norm <= 0:
        raise ValueError(f"clip_norm must be > 0, got {clip_norm}")
    norm = global_grad_norm(grads)
    if not math.isfinite(norm):
        first = next(
            (k for k, g in grads.items() if not math.isfinite(float(np.sum(g * g)))),
            None,
        )
        culprit = f"parameter {first!r}" if first else "the sum over parameters"
        raise NumericsError(f"non-finite gradient norm {norm!r} (first: {culprit})")
    if norm <= clip_norm:
        return grads
    factor = clip_norm / norm
    return {k: g * factor for k, g in grads.items()}


def adam_step(
    named: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    cfg: TrainConfig,
) -> AdamState:
    """One bias-corrected Adam update, in place on the parameter tensors."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for name, tensor in named.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros(tensor.shape, dtype=np.float64)
        m = state.m[name]
        v = state.v[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        if cfg.lr == 0.0:  # moments still advance; parameters stay bit-frozen
            continue
        update = cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        tensor.data -= update
    return state


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    checkpoint: "Checkpoint"
    history: list[dict]
    step_losses: list[float]


def _infill_mask(lengths: Sequence[int], s: int, cfg: TrainConfig, rng) -> MaskSpec:
    """One [B, s, 2] mask, each row drawn in row order with its own kind.

    The final position has no successor step (its target row is a zero
    placeholder), so it is never masked, as in evaluation.  Segment masks
    need room for a run; shorter rows fall back to per-position masking.
    """
    hidden = np.zeros((len(lengths), s, 2), dtype=bool)
    for row, length in enumerate(lengths):
        kind = cfg.mask_kinds[rng.integers(0, len(cfg.mask_kinds))]
        segment = kind == "segment" and length - 1 >= 4
        sample = masking.sample_segment_mask if segment else masking.sample_dimension_mask
        hidden[row, : length - 1] = sample(length - 1, cfg.mask_ratio, rng).hidden
    return MaskSpec(hidden)


def _batch_loss(
    batch: Batch,
    params: ModelParams,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    objective: str,
    rng: np.random.Generator | None,
) -> Tensor | None:
    """Forward one batch under ``objective`` in a single batched pass and
    return its loss, or None when no entry is supervised (e.g. an infill draw
    that masked nothing).

    A model position is a patch of P = ``patch_len`` points (P = 1 unpatched)
    and its target is its points' steps summed: the step to the next patch's
    first point.  Both objectives supervise what one [B, S', 2] mask hides
    over the patch positions: an infill draw (P = 1), corrupted into the
    input, or the successor mask, which hides each patch whose next patch
    exists, over the clean input.  The loss sees the ``ceil(length / P)``
    real positions of every row in (row, position) order.
    """
    s = max(batch.lengths)  # columns past every row's end are padding only
    p = model_cfg.patch_len
    patches = -(-np.asarray(batch.lengths) // p)
    n = int(patches.max())
    steps = np.pad(batch.targets[:, :s], ((0, 0), (0, n * p - s), (0, 0)))  # whole patches
    successor = masking.successor_mask(patches, n)
    # a patch with no successor has no target: the last of each row, and padding
    targets = np.where(successor.hidden[..., :1], steps.reshape(-1, n, p, 3).sum(axis=2), 0.0)
    spec = _infill_mask(batch.lengths, n, cfg, rng) if objective == "infill" else successor
    real = np.arange(n) < patches[:, None]
    all_targets, all_weights = targets[real], spec.weights[real]
    if not all_weights.any():
        return None
    features = batch.features[:, :s]
    x = masking.apply_mask(features, spec, params.mask_emb) if objective == "infill" else features
    pred = forward_features(x, params, model_cfg, lengths=batch.lengths)
    pred = ad.gather_rows(ad.reshape(pred, (-1, pred.shape[-1])), np.flatnonzero(real))
    return loss(pred, all_targets, all_weights, kind=cfg.loss, huber_delta=cfg.huber_delta)


def _resolve_objective(cfg_objective: str, batch_idx: int) -> str:
    if cfg_objective == "alternating":
        return "next_step" if batch_idx % 2 == 0 else "infill"
    return cfg_objective


def _epoch_pass(
    split: str, loader: Iterable[Batch], epoch: int, params: ModelParams,
    model_cfg: ModelConfig, cfg: TrainConfig, history: list[dict], state: AdamState | None = None,
) -> list[float]:
    """One epoch's pass of ``split`` ("train" or "val") over ``loader``;
    returns its batch losses in order and appends their mean to ``history``.

    Every batch takes the same steps: its objective, a generator keyed
    (seed, phase, epoch, batch) with phase 0 for training and 1 for
    validation, its loss, and a finiteness check.  Only the training pass
    runs backward, clipping and an Adam step on ``state``, one batch at a
    time.  A loader that yields no batch raises ``ValueError``, in either
    split.  A non-finite loss or gradient norm raises :class:`NumericsError`
    naming the epoch and the batch before the step moves any parameter, and
    a mean that overflows raises it naming the epoch and split.
    """
    training = split == "train"
    named = named_parameters(params) if training else {}
    losses: list[float] = []
    n_batches = 0
    for batch_idx, batch in enumerate(loader):
        n_batches += 1
        objective = _resolve_objective(cfg.objective, batch_idx)
        rng = np.random.default_rng([cfg.seed, 0 if training else 1, epoch, batch_idx])
        if training:
            tape = ad.Tape()
            bind_params(params, tape)
        value = _batch_loss(batch, params, model_cfg, cfg, objective, rng)
        if value is None:
            if training:
                tape.close()
            continue
        loss_val = float(value.data)
        try:
            if not math.isfinite(loss_val):
                raise NumericsError(f"non-finite loss {loss_val!r}")
            if training:
                ad.backward(value)
                grads = {name: t.grad for name, t in named.items()}
                adam_step(named, clip_gradients(grads, cfg.clip_norm), state, cfg)
        except NumericsError as exc:
            batch_name = "batch" if training else "validation batch"
            raise NumericsError(f"{exc} at epoch {epoch}, {batch_name} {batch_idx}") from exc
        losses.append(loss_val)
    if n_batches == 0:
        raise ValueError(f"{'training' if training else 'validation'} loader produced no batches")
    if losses:
        mean = float(np.mean(losses))
        if not math.isfinite(mean):  # finite losses whose sum overflows
            raise NumericsError(f"non-finite mean {split} loss {mean!r} at epoch {epoch}")
        history.append({"epoch": epoch, "split": split, "objective": cfg.objective, "loss": mean})
    return losses


def train(
    params: ModelParams,
    model_cfg: ModelConfig,
    cfg: TrainConfig,
    loader: Iterable[Batch],
    *,
    val_loader: Iterable[Batch] | None = None,
    norm_params: NormalizationParams | None = None,
    adam_state: AdamState | None = None,
    start_epoch: int = 0,
    history: list[dict] | None = None,
) -> TrainResult:
    """Run the epoch loop and return the final checkpoint plus metrics.

    Deterministic for a fixed seed on one platform: mask draws come from
    counter-based generators keyed by (seed, phase, epoch, batch), so a run
    resumed from a checkpoint at an epoch boundary reproduces the unbroken
    run exactly. A non-finite training loss, gradient norm or validation
    loss aborts with :class:`NumericsError` naming the epoch and the
    training or validation batch (and the first parameter whose gradient is
    non-finite) before the failing step moves any parameter; so does an
    epoch's mean loss that overflows, naming the epoch and split.  A
    ``loader`` or ``val_loader`` that yields no batch in an epoch raises
    ``ValueError``: a validation split that never runs is not skipped.

    The epochs run inside ``_kernel.reusing_memory``: where the compiled
    kernel runs the ops, numpy allocates with the kernel's allocator, which
    keeps each freed block of 4 KB or more for the next block of its size
    instead of giving it back to the system, and frees what it kept when the
    loop ends or raises.  Arrays made in the loop (the loader's batches
    too) stay valid after it, and no bit depends on it.
    """
    from . import _kernel  # on first use, as autodiff does: it imports the build tools

    if cfg.objective in ("infill", "alternating") and model_cfg.patch_len != 1:
        raise ValueError("infill objectives require patch_len == 1")
    state = adam_state if adam_state is not None else init_adam_state(named_parameters(params))
    history = list(history) if history else []
    step_losses: list[float] = []
    with _kernel.reusing_memory():
        for epoch in range(start_epoch, cfg.epochs):
            step_losses += _epoch_pass("train", loader, epoch, params, model_cfg, cfg, history, state)
            if val_loader is not None:
                _epoch_pass("val", val_loader, epoch, params, model_cfg, cfg, history)

    ckpt = make_checkpoint(
        params,
        model_cfg,
        norm_params=norm_params,
        adam=state,
        rng_state={"seed": cfg.seed, "next_epoch": cfg.epochs},
        history=history,
        train_config=cfg.to_dict(),
    )
    return TrainResult(checkpoint=ckpt, history=history, step_losses=step_losses)


def write_history_csv(history: Sequence[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(HISTORY_COLUMNS))
        writer.writeheader()
        for row in history:
            writer.writerow({k: row[k] for k in HISTORY_COLUMNS})


# ---------------------------------------------------------------------------
# pretext autoencoder check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PretextReport:
    """Held-out reconstruction RMSE of the feature encoding, with and
    without the additive position table mixed in."""

    raw_rmse: float
    pe_rmse: float


PRETEXT_LR = 1e-2  # the probe's Adam learning rate
PRETEXT_HOLDOUT = 0.2  # the share of points held out for the reported RMSE


def autoencoder_rmse(
    points: np.ndarray,
    d_latent: int,
    *,
    steps: int = 1000,
    seed: int = 0,
    targets: np.ndarray | None = None,
) -> float:
    """Train project -> gelu -> reconstruct for ``steps`` full-batch Adam
    updates at ``PRETEXT_LR``; return RMSE on the held-out ``PRETEXT_HOLDOUT``
    share of the points.

    ``targets`` defaults to the inputs (an autoencoder); passing a
    different array turns it into a regression sanity probe.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] < 5:
        raise ValueError(f"need at least 5 points of shape [N, F], got {points.shape}")
    if d_latent < 1:
        raise ValueError(f"d_latent must be >= 1, got {d_latent}")
    targets = points if targets is None else np.asarray(targets, dtype=np.float64)
    if targets.shape != points.shape:
        raise ValueError("targets must match the points array shape")

    n, f = points.shape
    rng = np.random.default_rng([seed, 0])
    order = rng.permutation(n)
    n_hold = max(1, int(round(PRETEXT_HOLDOUT * n)))
    hold, fit = order[:n_hold], order[n_hold:]

    w1 = Tensor(rng.normal(0.0, 0.02, (f, d_latent)), requires_grad=True)
    b1 = Tensor(np.zeros(d_latent), requires_grad=True)
    w2 = Tensor(rng.normal(0.0, 0.02, (d_latent, f)), requires_grad=True)
    b2 = Tensor(np.zeros(f), requires_grad=True)
    named = {"w1": w1, "b1": b1, "w2": w2, "b2": b2}
    cfg = TrainConfig(lr=PRETEXT_LR, clip_norm=1e9)
    state = init_adam_state(named)

    x_fit = Tensor(points[fit])
    y_fit = points[fit] if targets is points else targets[fit]
    ones = np.ones_like(y_fit)

    def reconstruct(x: Tensor) -> Tensor:
        return ad.linear(ad.gelu(ad.linear(x, w1, b1)), w2, b2)

    for _ in range(steps):
        tape = ad.Tape()
        for t in named.values():
            tape.watch(t)
        value = loss(reconstruct(x_fit), y_fit, ones)
        ad.backward(value)
        adam_step(named, {k: t.grad for k, t in named.items()}, state, cfg)

    recon = reconstruct(Tensor(points[hold])).data
    y_hold = points[hold] if targets is points else targets[hold]
    return float(np.sqrt(np.mean((recon - y_hold) ** 2)))


def pretext_autoencoder_check(
    sequences: Sequence[np.ndarray],
    d_latent: int = 64,
    *,
    steps: int = 1000,
    seed: int = 0,
) -> PretextReport:
    """Verify the feature encoding is invertible by a small autoencoder.

    Runs the probe twice — once on the raw per-point features and once
    after adding the sinusoidal position table (first F columns of an
    even-width table) — and reports both held-out RMSEs. Low values in both
    runs mean positions remain recoverable after the additive encoding.
    """
    seqs = [np.asarray(s, dtype=np.float64) for s in sequences]
    if not seqs or any(s.ndim != 2 or s.shape[1] != FEATURE_DIM for s in seqs):
        raise ValueError(f"need [S, {FEATURE_DIM}] feature sequences")
    raw = np.concatenate(seqs, axis=0)
    width = FEATURE_DIM + (FEATURE_DIM % 2)
    max_s = max(s.shape[0] for s in seqs)
    table = emb.sinusoidal_table(max_s, width)[:, :FEATURE_DIM]
    with_pe = np.concatenate(
        [s + table[: s.shape[0]] for s in seqs], axis=0
    )
    raw_rmse = autoencoder_rmse(raw, d_latent, steps=steps, seed=seed)
    pe_rmse = autoencoder_rmse(with_pe, d_latent, steps=steps, seed=seed)
    return PretextReport(raw_rmse=raw_rmse, pe_rmse=pe_rmse)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    """Everything needed to resume or serve a model.

    ``arrays`` holds the named parameter tensors; ``rng_state`` records the
    counters that drive the (counter-keyed) training randomness, so resuming
    at an epoch boundary continues the exact stream.
    """

    model_config: ModelConfig
    arrays: dict[str, np.ndarray]
    norm_params: NormalizationParams | None = None
    adam: AdamState | None = None
    rng_state: dict = field(default_factory=dict)
    history: list = field(default_factory=list)
    train_config: dict | None = None


def make_checkpoint(
    params: ModelParams,
    model_cfg: ModelConfig,
    *,
    norm_params: NormalizationParams | None = None,
    adam: AdamState | None = None,
    rng_state: dict | None = None,
    history: list | None = None,
    train_config: dict | None = None,
) -> Checkpoint:
    arrays = {name: t.data.copy() for name, t in named_parameters(params).items()}
    return Checkpoint(
        model_config=model_cfg,
        arrays=arrays,
        norm_params=norm_params,
        adam=adam.copy() if adam is not None else None,
        rng_state=dict(rng_state or {}),
        history=list(history or []),
        train_config=dict(train_config) if train_config else None,
    )


def restore_params(ckpt: Checkpoint) -> ModelParams:
    """Rebuild a parameter tree carrying the checkpoint's exact values.

    The stored arrays must have the names and shapes the model configuration
    implies, as ``load_checkpoint`` requires of a file's manifest.
    """
    expected = parameter_shapes(ckpt.model_config)
    stored = {name: arr.shape for name, arr in ckpt.arrays.items()}
    if stored != expected:
        wrong = sorted(set(stored.items()) ^ set(expected.items()))
        raise CorruptCheckpointError(f"checkpoint arrays do not match the configuration: {wrong}")
    return params_from_arrays(ckpt.model_config, ckpt.arrays)


@dataclass(frozen=True)
class _ArrayEntry(JsonConfig):
    name: str
    shape: tuple[int, ...]


@dataclass(frozen=True)
class _RngState(JsonConfig):
    seed: int = 0
    next_epoch: int = 0

    def __post_init__(self):
        if self.next_epoch < 0:
            raise ValueError(f"next_epoch must be >= 0, got {self.next_epoch}")


@dataclass(frozen=True)
class _HistoryRow(JsonConfig):
    epoch: int
    split: str
    objective: str
    loss: float

    def __post_init__(self):
        if self.epoch < 0 or self.split not in ("train", "val") or self.objective not in OBJECTIVES:
            raise ValueError(f"history row {self} holds a value out of range")


HISTORY_COLUMNS = tuple(f.name for f in fields(_HistoryRow))  # the history CSV's too


@dataclass(frozen=True)
class _Header(JsonConfig):
    """The JSON header of a checkpoint, as ``save_checkpoint`` writes it."""

    version: int
    model_config: ModelConfig
    normalization: NormalizationParams | None
    adam_step: int | None
    rng_state: _RngState
    history: tuple[_HistoryRow, ...]
    train_config: TrainConfig | None
    arrays: tuple[_ArrayEntry, ...]

    def __post_init__(self):
        if self.version != CHECKPOINT_VERSION:
            raise ValueError(f"header version {self.version}, frame {CHECKPOINT_VERSION}")
        if self.adam_step is not None and self.adam_step < 0:
            raise ValueError(f"adam_step must be >= 0, got {self.adam_step}")
        # the one size the manifest does not fix: the positional table it implies
        # is bounded as the parameters are
        cfg = self.model_config
        if cfg.max_seq * cfg.d_model > MAX_PARAMETERS:
            raise ValueError(
                f"max_seq {cfg.max_seq} x d_model {cfg.d_model} is more than {MAX_PARAMETERS:,}"
            )
        groups = ("params",) if self.adam_step is None else ("params", "adam_m", "adam_v")
        # a block has 16 arrays: claiming more blocks than arrays fails before naming them
        shapes = () if self.model_config.n_blocks > len(self.arrays) else sorted(
            parameter_shapes(self.model_config).items()
        )
        if self.arrays != tuple(_ArrayEntry(f"{g}/{n}", s) for g in groups for n, s in shapes):
            raise ValueError("the array manifest is not the one the model configuration implies")


def _array_entries(ckpt: Checkpoint) -> list[tuple[str, np.ndarray]]:
    entries = [(f"params/{n}", a) for n, a in sorted(ckpt.arrays.items())]
    if ckpt.adam is not None:
        entries += [(f"adam_m/{n}", a) for n, a in sorted(ckpt.adam.m.items())]
        entries += [(f"adam_v/{n}", a) for n, a in sorted(ckpt.adam.v.items())]
    return entries


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write the versioned binary container.

    Layout: magic, format version, header length, JSON header (configs,
    history, array manifest), then each array's raw little-endian float64
    bytes in manifest order. Identical checkpoints serialize to identical
    bytes.

    The write is atomic: the bytes go to a temporary file beside ``path``,
    which is flushed to disk and then renamed over ``path``.  A write that
    fails or is interrupted leaves any previous file at ``path`` as it was
    and removes the temporary file.
    """
    entries = _array_entries(ckpt)
    header = {
        "version": CHECKPOINT_VERSION,
        "model_config": ckpt.model_config.to_dict(),
        "normalization": ckpt.norm_params.to_dict() if ckpt.norm_params else None,
        "adam_step": ckpt.adam.step if ckpt.adam is not None else None,
        "rng_state": ckpt.rng_state,
        "history": ckpt.history,
        "train_config": ckpt.train_config,
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in entries],
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    with _replacing(path) as tmp, open(tmp, "xb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(header_bytes)
        for _, arr in entries:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        fh.flush()
        os.fsync(fh.fileno())


def load_checkpoint(
    path: str | Path, expect_config: ModelConfig | None = None
) -> Checkpoint:
    """Read a checkpoint; fails loudly on corruption, version skew, or a
    model configuration different from ``expect_config``.

    The header is one typed ``JsonConfig`` document, ``_Header``, and
    :class:`CorruptCheckpointError` is raised for one that is not UTF-8 JSON,
    lacks a key or has an unknown one, has a mistyped or invalid value (a
    ``version`` other than the frame's, a ``history`` row that is not a count
    ``epoch``, a ``split`` of ``"train"`` or ``"val"``, an ``objective`` of
    ``OBJECTIVES`` and a finite ``loss``) or an array manifest other than
    the parameters its model configuration implies, sorted by name, then
    the Adam moments exactly when ``adam_step`` is set; as well as for a
    truncated, overlong or non-finite payload.
    """
    raw = Path(path).read_bytes()
    prefix = len(CHECKPOINT_MAGIC) + 4 + 8
    if len(raw) < prefix or raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CorruptCheckpointError(f"{path}: not a checkpoint file")
    (version,) = struct.unpack_from("<I", raw, len(CHECKPOINT_MAGIC))
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"{path}: format version {version}, expected {CHECKPOINT_VERSION}"
        )
    (header_len,) = struct.unpack_from("<Q", raw, len(CHECKPOINT_MAGIC) + 4)
    body_start = prefix + header_len
    if len(raw) < body_start:
        raise CorruptCheckpointError(f"{path}: truncated header")
    try:  # not UTF-8 and not JSON are ValueErrors too; nested past the parser, RecursionError
        doc = json.loads(raw[prefix:body_start].decode("utf-8"))
        header = _Header.from_dict(doc)
    except (ValueError, RecursionError) as exc:
        raise CorruptCheckpointError(f"{path}: malformed header ({exc})") from exc

    offset = body_start
    arrays: dict[str, np.ndarray] = {}
    for name, shape in ((a.name, a.shape) for a in header.arrays):
        # each dimension is at least 1 (ModelConfig's rules), so an array too large
        # for numpy is far larger than the file.  Python integers: no int64 wrap
        nbytes = math.prod(shape) * 8
        if offset + nbytes > len(raw):
            raise CorruptCheckpointError(f"{path}: truncated payload at array {name!r}")
        arr = np.frombuffer(raw, dtype="<f8", count=nbytes // 8, offset=offset)
        if not np.isfinite(arr).all():
            raise CorruptCheckpointError(f"{path}: non-finite values in array {name!r}")
        arrays[name] = arr.reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(raw):
        raise CorruptCheckpointError(f"{path}: {len(raw) - offset} trailing bytes")

    if expect_config is not None and header.model_config != expect_config:
        raise ConfigMismatchError(
            f"{path}: checkpoint was written for a different model configuration"
        )

    def group(tag: str) -> dict[str, np.ndarray]:
        return {n[len(tag) + 1 :]: a for n, a in arrays.items() if n.startswith(tag + "/")}

    step = header.adam_step
    adam = None if step is None else AdamState(m=group("adam_m"), v=group("adam_v"), step=step)
    return Checkpoint(  # the header's own rng_state, history and train_config: saved as read
        model_config=header.model_config,
        arrays=group("params"),
        norm_params=header.normalization,
        adam=adam,
        rng_state=doc["rng_state"],
        history=doc["history"],
        train_config=doc["train_config"],
    )
