"""Masked-infill corruption and loss weighting.

A mask is one read-only boolean array ``hidden`` of shape [..., S, 2]:
``hidden[..., p, 0]`` hides the spatial slots (x, y) of position p and
``hidden[..., p, 1]`` its temporal slots (dow, hod, moh, soh, dt); a leading
axis, if any, indexes the sequences of a batch.  Two samplers draw masks:
*dimension* masks hide the spatial or the temporal group independently per
sampled position; *segment* masks hide one contiguous run of positions in
both groups.  Next-step training is the mask that hides every position with
a ground-truth successor.  Hidden slots are overwritten with learnable
embedding values so the model can tell "hidden" from "zero", and the loss
supervises exactly what the mask hides: the dlat/dlon channels where the
spatial slots are hidden, the dt channel where the temporal slots are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from . import geo

__all__ = [
    "DEFAULT_MASK_RATIO",
    "MaskEmbedding",
    "MaskSpec",
    "apply_mask",
    "build_loss_mask",
    "init_mask_embedding",
    "sample_dimension_mask",
    "sample_segment_mask",
    "successor_mask",
]

DEFAULT_MASK_RATIO = 0.15

_N_SPATIAL = geo.SPATIAL_SLOTS.stop - geo.SPATIAL_SLOTS.start  # 2
_N_TEMPORAL = geo.TEMPORAL_SLOTS.stop - geo.TEMPORAL_SLOTS.start  # 5


@dataclass(frozen=True, eq=False)
class MaskSpec:
    """Which feature groups are hidden at each position: ``hidden`` is a
    read-only boolean copy of shape [..., S, 2] (column 0 spatial, column 1
    temporal)."""

    hidden: np.ndarray

    def __post_init__(self):
        hidden = np.array(self.hidden, dtype=bool)
        if hidden.ndim < 2 or hidden.shape[-1] != 2:
            raise ValueError(f"mask must have shape [..., S, 2], got {hidden.shape}")
        hidden.flags.writeable = False
        object.__setattr__(self, "hidden", hidden)

    @property
    def positions(self) -> tuple:
        """Hidden positions in order: ints for one sequence, (row, position)
        pairs for a batch."""
        hit = self.hidden.any(axis=-1)
        if hit.ndim == 1:
            return tuple(np.flatnonzero(hit).tolist())
        return tuple(map(tuple, np.argwhere(hit).tolist()))

    @property
    def weights(self) -> np.ndarray:
        """[..., S, 3] supervision weights in {0, 1}: dlat and dlon where the
        spatial slots are hidden, dt where the temporal slots are."""
        return self.hidden[..., [0, 0, 1]].astype(np.float64)


@dataclass
class MaskEmbedding:
    """Learnable fill-in values for hidden slots (one vector per slot group)."""

    m_spatial: Tensor  # [2] replaces x, y
    m_temporal: Tensor  # [5] replaces dow, hod, moh, soh, dt


def init_mask_embedding(rng: np.random.Generator) -> MaskEmbedding:
    return MaskEmbedding(
        m_spatial=Tensor(rng.normal(0.0, 0.02, size=_N_SPATIAL), requires_grad=True),
        m_temporal=Tensor(rng.normal(0.0, 0.02, size=_N_TEMPORAL), requires_grad=True),
    )


def sample_dimension_mask(
    seq_len: int, mask_ratio: float, rng: np.random.Generator
) -> MaskSpec:
    """Bernoulli(mask_ratio) per position; each hit hides spatial OR temporal
    slots with equal probability."""
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")
    if not 0.0 < mask_ratio < 1.0:
        raise ValueError(f"mask_ratio {mask_ratio} outside (0, 1)")
    hidden = np.zeros((seq_len, 2), dtype=bool)
    for pos in range(seq_len):
        if rng.random() < mask_ratio:
            hidden[pos, 0 if rng.random() < 0.5 else 1] = True
    return MaskSpec(hidden)


def sample_segment_mask(seq_len: int, mask_ratio: float, rng: np.random.Generator) -> MaskSpec:
    """One contiguous run of round(ratio * S) positions (at least 1), start
    uniform over valid offsets; hides both slot groups."""
    if seq_len < 4:
        raise ValueError("segment masking needs seq_len >= 4")
    if not 0.0 < mask_ratio < 1.0:
        raise ValueError(f"mask_ratio {mask_ratio} outside (0, 1)")
    run = max(1, round(mask_ratio * seq_len))
    start = int(rng.integers(0, seq_len - run + 1))
    hidden = np.zeros((seq_len, 2), dtype=bool)
    hidden[start : start + run] = True
    return MaskSpec(hidden)


def successor_mask(lengths: Sequence[int], seq_len: int) -> MaskSpec:
    """The next-step mask of a [B, seq_len] batch: both groups of every
    position that has a successor inside its row's length."""
    hit = np.arange(seq_len) < np.asarray(lengths)[:, None] - 1
    return MaskSpec(np.repeat(hit[..., None], 2, axis=-1))


def _group_grad(g: np.ndarray, hit: np.ndarray) -> np.ndarray | None:
    # Each sequence's sum over its hidden positions, folded last sequence first
    # as a reverse tape would fold one fill per sequence (``Ops.seq_sums``).
    # Unhidden entries add 0.0, which moves no bit of a sum that starts at
    # +0.0 (it is never -0.0); a group hidden nowhere passes no gradient at all.
    if not hit.any():
        return None
    terms = np.where(hit, g, 0.0)
    return ad._kernels().seq_sums(terms.reshape((-1,) + terms.shape[-2:]))


def apply_mask(features: np.ndarray | Tensor, spec: MaskSpec, emb: MaskEmbedding) -> Tensor:
    """Overwrite the hidden slots of one [S, 7] sequence, or of a [B, S, 7]
    batch, with the learnable mask values; one differentiable op.

    ``spec.hidden`` has the features' leading shape and at most S positions
    (missing ones are not hidden).  Unhidden entries pass through
    bit-identically and hidden slots pass no gradient back to the features.
    The caller keeps the original array as the reconstruction target; the
    returned tensor is the corrupted model input.
    """
    x = features if isinstance(features, Tensor) else Tensor(features)
    if x.ndim not in (2, 3) or x.shape[-1] != geo.FEATURE_DIM:
        raise ValueError(f"expected [S, 7] or [B, S, 7] features, got {x.shape}")
    hidden = spec.hidden
    s = x.shape[-2]
    if hidden.shape[:-2] != x.shape[:-2] or hidden.shape[-2] > s:
        raise ValueError(f"mask of shape {hidden.shape} does not fit features {x.shape}")
    pad = [(0, 0)] * (hidden.ndim - 2) + [(0, s - hidden.shape[-2]), (0, 0)]
    hidden = np.pad(hidden, pad)
    spatial, temporal = hidden[..., 0:1], hidden[..., 1:2]
    sp, tp = geo.SPATIAL_SLOTS, geo.TEMPORAL_SLOTS
    out = x.data.copy()
    out[..., sp] = np.where(spatial, emb.m_spatial.data, out[..., sp])
    out[..., tp] = np.where(temporal, emb.m_temporal.data, out[..., tp])

    def vjp(g: np.ndarray):
        dx = None
        if x.tape is not None:
            dx = g.copy()
            dx[..., sp] = np.where(spatial, 0.0, g[..., sp])
            dx[..., tp] = np.where(temporal, 0.0, g[..., tp])
        return dx, _group_grad(g[..., sp], spatial), _group_grad(g[..., tp], temporal)

    return ad.record_op((x, emb.m_spatial, emb.m_temporal), out, vjp)


def build_loss_mask(spec: MaskSpec | None, mode: str, seq_len: int) -> np.ndarray:
    """[seq_len, 3] supervision weights of one sequence: every position with a
    successor for next_step; ``spec.weights``, zero past its end, for infill."""
    if mode == "next_step":
        return successor_mask([seq_len], seq_len).weights[0]
    if mode != "infill" or spec is None or spec.hidden.ndim != 2:
        raise ValueError(f"mode {mode!r}: expected next_step, or infill with a [S, 2] mask")
    w = np.zeros((seq_len, 3), dtype=np.float64)
    w[: len(spec.hidden)] = spec.weights  # a mask longer than seq_len fails here
    return w
