"""Two-block pre-norm decoder transformer over trajectory features.

One pass over a [B, S, 7] batch: embed -> n_blocks x (x + MHA(LN(x));
h + FF(LN(h))) -> final LN -> linear head emitting one (dlat, dlon, dt)
prediction per position, in normalized units.  Attention runs every head of
every sequence at once as [B, H, S, hd]; one [S, 7] sequence is the B = 1
case.  Ragged batches are zero-padded at the end of each row: causal
attention never reaches the padding, and bidirectional attention masks
padded keys with -inf, so every real position equals its single-sequence
result bit for bit.  Attention is causal by default; a bidirectional mode
serves masked infill.  Rotary position embeddings on q/k are optional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from . import embedding as emb
from . import geo, masking

__all__ = [
    "BlockParams",
    "ModelConfig",
    "ModelParams",
    "apply_rope",
    "attention",
    "bind_params",
    "causal_mask",
    "forward_features",
    "init_params",
    "model_forward",
    "multi_head_attention",
    "named_parameters",
    "transformer_block",
]

ROPE_BASE = 10000.0
OUT_DIM = 3  # (dlat, dlon, dt) in normalized units


@dataclass(frozen=True)
class ModelConfig:
    """Architecture and feature flags; defaults give the desk-scale model."""

    d_model: int = 64
    n_heads: int = 4
    n_blocks: int = 2
    d_ff: int | None = None  # defaults to 4 * d_model
    max_seq: int = 256
    rope_enabled: bool = False
    attention_mode: str = "causal"  # "causal" | "bidirectional"
    use_positional_encoding: bool = True
    use_time2vec: bool = False
    time2vec_k: int = 8
    patch_len: int = 1
    use_dt_feature: bool = True

    def __post_init__(self):
        if self.d_model < 2 or self.d_model % 2:
            raise ValueError(f"d_model must be even and >= 2, got {self.d_model}")
        if self.n_heads < 1 or self.d_model % self.n_heads:
            raise ValueError(f"n_heads {self.n_heads} must divide d_model {self.d_model}")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if self.max_seq < 1:
            raise ValueError("max_seq must be >= 1")
        if self.attention_mode not in ("causal", "bidirectional"):
            raise ValueError(f"unknown attention_mode {self.attention_mode!r}")
        if self.rope_enabled and self.head_dim % 2:
            raise ValueError(f"rotary embedding needs an even head_dim, got {self.head_dim}")
        if self.patch_len < 1:
            raise ValueError("patch_len must be >= 1")
        if self.use_time2vec and self.time2vec_k < 2:
            raise ValueError("time2vec_k must be >= 2")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads

    @property
    def ff_dim(self) -> int:
        return self.d_ff if self.d_ff is not None else 4 * self.d_model

    @property
    def in_features(self) -> int:
        return emb.embedded_width(
            self.use_dt_feature, self.time2vec_k if self.use_time2vec else None, self.patch_len
        )

    @property
    def out_dim(self) -> int:
        return OUT_DIM

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass
class BlockParams:
    """One transformer block: attention projections, FF weights, two LayerNorms."""

    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Tensor
    bk: Tensor
    bv: Tensor
    bo: Tensor
    w_ff1: Tensor
    b_ff1: Tensor
    w_ff2: Tensor
    b_ff2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


@dataclass
class ModelParams:
    """Every learnable tensor in the model, in a stable named order."""

    proj: emb.ProjectionLayer
    blocks: list[BlockParams]
    ln_f_gain: Tensor
    ln_f_bias: Tensor
    w_out: Tensor  # [d_model, 3]
    b_out: Tensor  # [3]
    time2vec: emb.Time2VecLayer | None = None
    mask_emb: masking.MaskEmbedding | None = None


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Normal(0, 0.02) projections, zero biases, ones/zeros LayerNorms, and a
    zero output head (an untrained model predicts 'stay put')."""

    def w(*shape):
        return Tensor(rng.normal(0.0, emb.INIT_STD, size=shape), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape), requires_grad=True)

    d, dff = cfg.d_model, cfg.ff_dim
    proj = emb.init_projection(cfg.in_features, d, rng)
    blocks = [
        BlockParams(
            wq=w(d, d), wk=w(d, d), wv=w(d, d), wo=w(d, d),
            bq=zeros(d), bk=zeros(d), bv=zeros(d), bo=zeros(d),
            w_ff1=w(d, dff), b_ff1=zeros(dff), w_ff2=w(dff, d), b_ff2=zeros(d),
            ln1_gain=ones(d), ln1_bias=zeros(d), ln2_gain=ones(d), ln2_bias=zeros(d),
        )
        for _ in range(cfg.n_blocks)
    ]
    return ModelParams(
        proj=proj,
        blocks=blocks,
        ln_f_gain=ones(d),
        ln_f_bias=zeros(d),
        w_out=zeros(d, OUT_DIM),
        b_out=zeros(OUT_DIM),
        time2vec=emb.init_time2vec(cfg.time2vec_k, rng) if cfg.use_time2vec else None,
        mask_emb=masking.init_mask_embedding(rng),
    )


def named_parameters(params: ModelParams) -> dict[str, Tensor]:
    """Stable name -> tensor map (drives the optimizer and checkpoints)."""
    out: dict[str, Tensor] = {"proj.w": params.proj.w, "proj.b": params.proj.b}
    if params.time2vec is not None:
        out["time2vec.omega"] = params.time2vec.omega
        out["time2vec.phi"] = params.time2vec.phi
    if params.mask_emb is not None:
        out["mask.spatial"] = params.mask_emb.m_spatial
        out["mask.temporal"] = params.mask_emb.m_temporal
    for i, b in enumerate(params.blocks):
        for name in (
            "wq", "wk", "wv", "wo", "bq", "bk", "bv", "bo",
            "w_ff1", "b_ff1", "w_ff2", "b_ff2",
            "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias",
        ):
            out[f"blocks.{i}.{name}"] = getattr(b, name)
    out["ln_f.gain"] = params.ln_f_gain
    out["ln_f.bias"] = params.ln_f_bias
    out["head.w"] = params.w_out
    out["head.b"] = params.b_out
    return out


def bind_params(params: ModelParams, tape: ad.Tape) -> None:
    """Watch every parameter on a fresh tape before a training forward pass."""
    for t in named_parameters(params).values():
        tape.watch(t)


def causal_mask(seq_len: int) -> np.ndarray:
    """Additive attention mask: 0 where j <= i, -inf where j > i."""
    m = np.zeros((seq_len, seq_len), dtype=np.float64)
    m[np.triu_indices(seq_len, k=1)] = -np.inf
    return m


def _rope_cos_sin(head_dim: int, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if head_dim % 2:
        raise ValueError(f"rotary embedding needs an even head_dim, got {head_dim}")
    i2 = np.arange(0, head_dim, 2, dtype=np.float64)
    theta = np.power(ROPE_BASE, -i2 / head_dim)  # [head_dim/2]
    ang = np.asarray(positions, dtype=np.float64)[:, None] * theta  # [S, head_dim/2]
    return np.cos(ang), np.sin(ang)


def apply_rope(x: Tensor, positions: np.ndarray) -> Tensor:
    """Rotate consecutive channel pairs (2i, 2i+1) by pos * 10000^(-2i/d).

    ``x`` is [..., S, head_dim]; every leading index shares ``positions``.
    A pure rotation: norms are preserved and q/k dot products depend on
    relative position only.  Differentiable (the backward pass rotates the
    gradient by the opposite angle).
    """
    if x.ndim < 2:
        raise ad.ShapeMismatchError(f"apply_rope expects [..., S, head_dim], got {x.shape}")
    s, hd = x.shape[-2:]
    positions = np.asarray(positions)
    if positions.shape != (s,):
        raise ad.ShapeMismatchError(f"positions shape {positions.shape} != ({s},)")
    cos, sin_ = _rope_cos_sin(hd, positions)
    xe, xo = x.data[..., 0::2], x.data[..., 1::2]
    out = np.empty_like(x.data)
    out[..., 0::2] = xe * cos - xo * sin_
    out[..., 1::2] = xe * sin_ + xo * cos

    def vjp(g: np.ndarray):
        ge, go = g[..., 0::2], g[..., 1::2]
        dx = np.empty(g.shape)
        dx[..., 0::2] = ge * cos + go * sin_  # inverse rotation
        dx[..., 1::2] = -ge * sin_ + go * cos
        return (dx,)

    return ad.record_op((x,), out, vjp)


def _key_padding_mask(lengths, seq_len: int) -> np.ndarray | None:
    """Additive [B, 1, 1, S] mask: -inf on each row's padded keys (positions
    >= its length), None when no row is padded."""
    valid = np.asarray(lengths)[:, None, None, None]
    if (valid >= seq_len).all():
        return None
    return np.where(np.arange(seq_len) >= valid, -np.inf, 0.0)


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """softmax(q k^T / sqrt(head_dim) + mask) v over the last two axes: one
    head [S, hd], or every head of a batch [B, H, S, hd] at once.

    ``mask`` is an additive array broadcastable to the [..., S, S] scores.
    """
    hd = q.shape[-1]
    scores = ad.scale(ad.matmul(q, ad.transpose(k)), 1.0 / math.sqrt(hd))
    if mask is not None:  # a constant: the gradient passes through unchanged
        scores = ad.record_op((scores,), scores.data + mask, lambda g: (g,))
    return ad.matmul(ad.softmax_rows(scores), v)


def _split_heads(t: Tensor, n_heads: int) -> Tensor:
    b, s, d = t.shape  # -> [B, H, S, hd]
    return ad.transpose(ad.reshape(t, (b, s, n_heads, d // n_heads)), (0, 2, 1, 3))


def multi_head_attention(
    x: Tensor,
    bp: BlockParams,
    cfg: ModelConfig,
    mask: np.ndarray | None,
    positions: np.ndarray,
) -> Tensor:
    """Project to q/k/v, attend in every head at once, merge, project out.

    ``x`` is one [S, d_model] sequence or a [B, S, d_model] batch; ``mask``
    is an additive array broadcastable to [B, H, S, S] (None: no mask).
    """
    single = x.ndim == 2
    if single:
        x = ad.reshape(x, (1,) + x.shape)
    q = ad.add_bias(ad.matmul(x, bp.wq), bp.bq)  # [B, S, d_model]
    k = ad.add_bias(ad.matmul(x, bp.wk), bp.bk)
    v = ad.add_bias(ad.matmul(x, bp.wv), bp.bv)
    qh, kh, vh = (_split_heads(t, cfg.n_heads) for t in (q, k, v))
    if cfg.rope_enabled:
        qh = apply_rope(qh, positions)
        kh = apply_rope(kh, positions)
    heads = attention(qh, kh, vh, mask)  # [B, H, S, hd]
    merged = ad.reshape(ad.transpose(heads, (0, 2, 1, 3)), x.shape)
    out = ad.add_bias(ad.matmul(merged, bp.wo), bp.bo)
    return ad.reshape(out, out.shape[1:]) if single else out


def transformer_block(
    x: Tensor,
    bp: BlockParams,
    cfg: ModelConfig,
    mask: np.ndarray | None,
    positions: np.ndarray,
) -> Tensor:
    """Pre-norm residual block: x + MHA(LN(x)), then h + FF(LN(h))."""
    h = ad.add(x, multi_head_attention(ad.layer_norm(x, bp.ln1_gain, bp.ln1_bias), bp, cfg, mask, positions))
    ff_in = ad.layer_norm(h, bp.ln2_gain, bp.ln2_bias)
    ff = ad.add_bias(ad.matmul(ad.gelu(ad.add_bias(ad.matmul(ff_in, bp.w_ff1), bp.b_ff1)), bp.w_ff2), bp.b_ff2)
    return ad.add(h, ff)


def forward_features(
    features: np.ndarray | Tensor,
    params: ModelParams,
    cfg: ModelConfig,
    lengths=None,
) -> Tensor:
    """The model end to end: [S, 7] features -> [S', 3] predictions, or a
    [B, S, 7] batch -> [B, S', 3] in one pass.

    ``lengths`` holds each batch row's number of real points (the rest of
    the row is zero padding); None means every row is full.
    """
    x = features if isinstance(features, Tensor) else Tensor(features)
    single = x.ndim == 2
    if single:
        x = ad.reshape(x, (1,) + x.shape)
    b, s_in = x.shape[:2]
    s_out = -(-s_in // cfg.patch_len)  # positions after patching
    if s_out > cfg.max_seq:
        raise ValueError(
            f"sequence of {s_in} points ({s_out} positions) exceeds max_seq {cfg.max_seq}"
        )
    if lengths is not None and len(lengths) != b:
        raise ValueError(f"{len(lengths)} lengths for a batch of {b} rows")
    pe = emb.sinusoidal_table(cfg.max_seq, cfg.d_model) if cfg.use_positional_encoding else None
    x = emb.embed_sequence(
        x,
        params.proj,
        pe_table=pe,
        time2vec_layer=params.time2vec,
        patch_len=cfg.patch_len,
        use_dt_feature=cfg.use_dt_feature,
        lengths=lengths,
    )
    positions = np.arange(s_out)
    if cfg.attention_mode == "causal":
        mask = causal_mask(s_out)  # padding sits after every real position
    elif lengths is None:
        mask = None
    else:
        mask = _key_padding_mask(-(-np.asarray(lengths) // cfg.patch_len), s_out)
    for bp in params.blocks:
        x = transformer_block(x, bp, cfg, mask, positions)
    x = ad.layer_norm(x, params.ln_f_gain, params.ln_f_bias)
    out = ad.add_bias(ad.matmul(x, params.w_out), params.b_out)
    return ad.reshape(out, out.shape[1:]) if single else out


def model_forward(batch_features, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Batch forward in one pass: a Batch, a [B, S, 7] array, or a list of
    equal-length [S, 7] sequences (ndarray or Tensor) -> [B, S', 3].

    A Batch's padded keys are masked, so real positions never depend on
    batch composition.
    """
    if hasattr(batch_features, "features"):  # a data_pipeline Batch
        return forward_features(
            batch_features.features, params, cfg, lengths=batch_features.lengths
        )
    if isinstance(batch_features, np.ndarray):
        if batch_features.ndim != 3:
            raise ValueError(f"expected [B, S, F] features, got shape {batch_features.shape}")
        return forward_features(batch_features, params, cfg)
    seqs = [f if isinstance(f, Tensor) else Tensor(f) for f in batch_features]
    return forward_features(ad.stack(seqs, axis=0), params, cfg)
