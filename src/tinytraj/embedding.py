"""Input embeddings: learnable projection, sinusoidal positions, Time2Vec
channels, and fixed-stride patching.

The full pipeline (``embed_sequence``) runs: optional Time2Vec concat (to the
per-point features, before any projection) -> optional patchify -> learnable
linear projection to d_model -> additive sinusoidal position encoding.  It
takes one ``[S, 7]`` sequence or a ``[B, S, 7]`` batch.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from . import geo

__all__ = [
    "ProjectionLayer",
    "Time2VecLayer",
    "embed_sequence",
    "init_projection",
    "init_time2vec",
    "patchify",
    "positional_encoding",
    "project",
    "sinusoidal_table",
    "time2vec",
    "time2vec_sequence",
    "unpatchify",
]

INIT_STD = 0.02  # weight init scale for all learnable projections


@dataclass
class ProjectionLayer:
    """Linear map from raw feature width to model width: x @ w + b."""

    w: Tensor  # [f_in, d_model]
    b: Tensor  # [d_model]


@dataclass
class Time2VecLayer:
    """Learnable time encoding: one linear channel plus k-1 sine channels."""

    omega: Tensor  # [k] frequencies
    phi: Tensor  # [k] phases

    @property
    def k(self) -> int:
        return self.omega.shape[0]


def init_projection(f_in: int, d_model: int, rng: np.random.Generator) -> ProjectionLayer:
    w = Tensor(rng.normal(0.0, INIT_STD, size=(f_in, d_model)), requires_grad=True)
    b = Tensor(np.zeros(d_model), requires_grad=True)
    return ProjectionLayer(w=w, b=b)


def init_time2vec(k: int, rng: np.random.Generator) -> Time2VecLayer:
    if k < 2:
        raise ValueError("time2vec needs k >= 2 (one linear + at least one sine channel)")
    omega = Tensor(rng.normal(0.0, 1.0, size=k), requires_grad=True)
    phi = Tensor(rng.normal(0.0, 1.0, size=k), requires_grad=True)
    return Time2VecLayer(omega=omega, phi=phi)


def project(x: Tensor | np.ndarray, layer: ProjectionLayer) -> Tensor:
    """Apply the learnable projection to a [S, f_in] sequence or a
    [B, S, f_in] batch."""
    xt = x if isinstance(x, Tensor) else Tensor(x)
    return ad.linear(xt, layer.w, layer.b)


@functools.lru_cache(maxsize=8)
def sinusoidal_table(max_seq: int, d_model: int) -> np.ndarray:
    """Fixed position-encoding table: sin on even dims, cos on odd dims.

    table[pos, 2i]   = sin(pos / 10000^(2i/d_model))
    table[pos, 2i+1] = cos(pos / 10000^(2i/d_model))

    Built once per ``(max_seq, d_model)`` and shared by every caller, so the
    array is read-only.
    """
    if max_seq < 1 or d_model < 2 or d_model % 2:
        raise ValueError("need max_seq >= 1 and even d_model >= 2")
    positions = np.arange(max_seq, dtype=np.float64)[:, None]
    i2 = np.arange(0, d_model, 2, dtype=np.float64)
    inv_freq = np.power(10000.0, -i2 / d_model)
    angles = positions * inv_freq
    table = np.zeros((max_seq, d_model), dtype=np.float64)
    table[:, 0::2] = np.sin(angles)
    table[:, 1::2] = np.cos(angles)
    table.flags.writeable = False
    return table


def positional_encoding(pos: int, d_model: int, max_seq: int) -> np.ndarray:
    """One row of the sinusoidal table, with range checking."""
    if not 0 <= pos < max_seq:
        raise ValueError(f"position {pos} outside [0, {max_seq})")
    return sinusoidal_table(max_seq, d_model)[pos]


def time2vec(tau: float, layer: Time2VecLayer) -> Tensor:
    """Encode one scalar time value; returns a length-k tensor."""
    return ad.reshape(time2vec_sequence(np.array([float(tau)]), layer), (layer.k,))


def time2vec_sequence(taus: np.ndarray, layer: Time2VecLayer) -> Tensor:
    """Encode a [S] vector of time values to [S, k] (a [B, S] batch to
    [B, S, k]).

    Channel 0 stays linear (omega*tau + phi); channels 1..k-1 pass through a
    sine.  Differentiable in omega and phi.
    """
    taus = np.asarray(taus, dtype=np.float64)[..., None]  # [..., S, 1]
    k = layer.k
    # outer product via matmul keeps the op differentiable in omega
    angles = ad.linear(Tensor(taus), ad.reshape(layer.omega, (1, k)), layer.phi)
    last = angles.ndim - 1
    linear = ad.slice_axis(angles, last, 0, 1)
    periodic = ad.sin(ad.slice_axis(angles, last, 1, k - 1))
    return ad.concat([linear, periodic], axis=last)


def patchify(x: Tensor | np.ndarray, patch_len: int) -> tuple[Tensor, int]:
    """Group consecutive rows into flat patch vectors.

    [S, F] -> [ceil(S/P), P*F] (a [B, S, F] batch -> [B, ceil(S/P), P*F]);
    the last patch is zero-padded.  Returns the patched tensor and the
    original valid length S (for exact inversion).
    """
    xt = x if isinstance(x, Tensor) else Tensor(x)
    if xt.ndim not in (2, 3):
        raise ValueError(f"patchify expects [S, F] or [B, S, F], got shape {xt.shape}")
    if patch_len < 1:
        raise ValueError(f"patch_len must be >= 1, got {patch_len}")
    *lead, s, f = xt.shape
    n_patches = -(-s // patch_len)  # ceil
    pad = n_patches * patch_len - s
    if pad:
        xt = ad.concat([xt, Tensor(np.zeros((*lead, pad, f)))], axis=xt.ndim - 2)
    return ad.reshape(xt, (*lead, n_patches, patch_len * f)), s


def unpatchify(patched: np.ndarray, patch_len: int, valid_len: int, f: int) -> np.ndarray:
    """Invert ``patchify`` on the valid region; exact (pure reshaping)."""
    patched = np.asarray(patched, dtype=np.float64)
    n_patches = patched.shape[0]
    full = patched.reshape(n_patches * patch_len, f)
    return full[:valid_len]


def embed_sequence(
    features: Tensor | np.ndarray,
    proj: ProjectionLayer,
    *,
    pe_table: np.ndarray | None = None,
    time2vec_layer: Time2VecLayer | None = None,
    patch_len: int = 1,
    use_dt_feature: bool = True,
    lengths=None,
    positions: np.ndarray | None = None,
) -> Tensor:
    """Full input pipeline: [S, 7] point features -> [S', d_model] embeddings,
    or a [B, S, 7] batch -> [B, S', d_model] in one pass.

    Order: extract Time2Vec channels from the dt column and concatenate them
    to the per-point features, optionally drop the raw dt column, patchify,
    project, then add the position rows of ``pe_table`` (None disables PE).
    ``lengths`` gives each batch row's number of real points; the Time2Vec
    channels of the zero padding after them are zeroed, so a patch that
    straddles a row's end sees the same zeros as a single-sequence pass.
    ``positions`` ([B, S'] integers) gives each row its own position
    indices, as in incremental decoding; None means 0 .. S'-1 for every row.
    """
    x = features if isinstance(features, Tensor) else Tensor(features)
    if x.ndim not in (2, 3) or x.shape[-1] != geo.FEATURE_DIM:
        raise ValueError(
            f"expected [S, {geo.FEATURE_DIM}] or [B, S, {geo.FEATURE_DIM}] features, "
            f"got shape {x.shape}"
        )
    single = x.ndim == 2
    if single:
        x = ad.reshape(x, (1,) + x.shape)

    blocks = [x if use_dt_feature else ad.slice_axis(x, 2, 0, geo.DT_FEATURE_INDEX)]
    if time2vec_layer is not None:
        taus = x.data[..., geo.DT_FEATURE_INDEX]  # dt already scaled by the 60 s divisor
        t2v = time2vec_sequence(taus, time2vec_layer)
        if lengths is not None:
            real = np.arange(x.shape[1]) < np.asarray(lengths)[:, None]
            t2v = ad.mul(t2v, Tensor(np.broadcast_to(real[..., None], t2v.shape)))
        blocks.append(t2v)
    x = blocks[0] if len(blocks) == 1 else ad.concat(blocks, axis=2)

    if patch_len > 1:
        x, _ = patchify(x, patch_len)

    out = project(x, proj)

    if pe_table is not None:
        if positions is None:
            positions = np.arange(out.shape[1])
        if positions.max() >= pe_table.shape[0]:
            raise ValueError(
                f"position {positions.max()} outside a table of {pe_table.shape[0]} positions"
            )
        out = ad.add(out, Tensor(np.broadcast_to(pe_table[positions], out.shape)))
    return ad.reshape(out, out.shape[1:]) if single else out


def embedded_width(use_dt_feature: bool, time2vec_k: int | None, patch_len: int) -> int:
    """Width of the projection input implied by the embedding flags."""
    f = geo.FEATURE_DIM - (0 if use_dt_feature else 1)
    if time2vec_k:
        f += time2vec_k
    return f * patch_len
