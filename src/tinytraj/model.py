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

Incremental decoding runs the same blocks with a :class:`KVCache`: a
prefill pass over a padded batch of prefixes stores every block's keys and
values, and each later pass embeds one new row per sequence at that row's
own position, appends its keys and values, and attends over the cache with
the keys past each row's length masked to -inf.  The kernels are row-local
and sum in a fixed order, so a decoded row equals the last row of a full
forward pass over the whole sequence bit for bit, whatever the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from . import embedding as emb
from . import geo, masking

__all__ = [
    "BlockParams",
    "KVCache",
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
    "parameter_shapes",
    "params_from_arrays",
    "transformer_block",
]

ROPE_BASE = 10000.0
OUT_DIM = 3  # (dlat, dlon, dt) in normalized units
# the most parameters a ModelConfig may have: 512 MiB per float64 copy, of
# which training holds four (values, gradients, two Adam moments)
MAX_PARAMETERS = 2**26


@dataclass(frozen=True)
class ModelConfig(geo.JsonConfig):
    """Architecture and feature flags; defaults give the desk-scale model.
    A configuration of more than ``MAX_PARAMETERS`` parameters is refused
    before any is allocated."""

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
        if self.d_ff is not None and self.d_ff < 1:
            raise ValueError(f"d_ff must be >= 1, got {self.d_ff}")
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
        count = _parameter_count(self)
        if count > MAX_PARAMETERS:
            raise ValueError(f"{count:,} parameters, more than MAX_PARAMETERS {MAX_PARAMETERS:,}")

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


# initial fills: a normal draw of the given std, or a constant
_WEIGHT = ("normal", emb.INIT_STD)
_TIME2VEC = ("normal", 1.0)
_ZEROS = ("full", 0.0)
_ONES = ("full", 1.0)

BLOCK_FIELDS = tuple(f.name for f in fields(BlockParams))


def _parameter_count(cfg: ModelConfig) -> int:
    """The number of values in :func:`parameter_shapes`, by arithmetic:
    no loop over the blocks, however many there are (Python integers)."""
    d, dff = cfg.d_model, cfg.ff_dim
    block = 4 * d * d + 2 * d * dff + dff + 9 * d  # four projections, the FF, two norms
    sp, tp = geo.SPATIAL_SLOTS, geo.TEMPORAL_SLOTS
    # the projection, the final norm, the head and the mask embedding
    rest = (cfg.in_features + 3) * d + (d + 1) * OUT_DIM + (sp.stop - sp.start) + (tp.stop - tp.start)
    return cfg.n_blocks * block + rest + (2 * cfg.time2vec_k if cfg.use_time2vec else 0)


def _build(cfg: ModelConfig, leaf) -> ModelParams:
    """The parameter tree of ``cfg``, holding ``leaf(name, shape, fill)`` for
    each parameter.  The leaves are made in the order :func:`init_params`
    draws them: projection, blocks, final norm and head, Time2Vec, mask
    embedding (keyword arguments evaluate left to right)."""
    d, dff, k = cfg.d_model, cfg.ff_dim, (cfg.time2vec_k,)
    block = {  # name: (shape, fill), in BlockParams' order
        "wq": ((d, d), _WEIGHT), "wk": ((d, d), _WEIGHT),
        "wv": ((d, d), _WEIGHT), "wo": ((d, d), _WEIGHT),
        "bq": ((d,), _ZEROS), "bk": ((d,), _ZEROS), "bv": ((d,), _ZEROS), "bo": ((d,), _ZEROS),
        "w_ff1": ((d, dff), _WEIGHT), "b_ff1": ((dff,), _ZEROS),
        "w_ff2": ((dff, d), _WEIGHT), "b_ff2": ((d,), _ZEROS),
        "ln1_gain": ((d,), _ONES), "ln1_bias": ((d,), _ZEROS),
        "ln2_gain": ((d,), _ONES), "ln2_bias": ((d,), _ZEROS),
    }
    sp, tp = geo.SPATIAL_SLOTS, geo.TEMPORAL_SLOTS
    return ModelParams(
        proj=emb.ProjectionLayer(
            w=leaf("proj.w", (cfg.in_features, d), _WEIGHT), b=leaf("proj.b", (d,), _ZEROS)
        ),
        blocks=[
            BlockParams(**{n: leaf(f"blocks.{i}.{n}", *spec) for n, spec in block.items()})
            for i in range(cfg.n_blocks)
        ],
        ln_f_gain=leaf("ln_f.gain", (d,), _ONES),
        ln_f_bias=leaf("ln_f.bias", (d,), _ZEROS),
        w_out=leaf("head.w", (d, OUT_DIM), _ZEROS),
        b_out=leaf("head.b", (OUT_DIM,), _ZEROS),
        time2vec=emb.Time2VecLayer(
            omega=leaf("time2vec.omega", k, _TIME2VEC), phi=leaf("time2vec.phi", k, _TIME2VEC)
        ) if cfg.use_time2vec else None,
        mask_emb=masking.MaskEmbedding(
            m_spatial=leaf("mask.spatial", (sp.stop - sp.start,), _WEIGHT),
            m_temporal=leaf("mask.temporal", (tp.stop - tp.start,), _WEIGHT),
        ),
    )


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> ModelParams:
    """Normal(0, 0.02) projections and mask values, Normal(0, 1) Time2Vec
    frequencies and phases, zero biases, ones/zeros LayerNorms, and a zero
    output head (an untrained model predicts 'stay put')."""

    def draw(name, shape, fill):
        kind, value = fill
        data = rng.normal(0.0, value, size=shape) if kind == "normal" else np.full(shape, value)
        return Tensor(data, requires_grad=True)

    return _build(cfg, draw)


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
        for name in BLOCK_FIELDS:
            out[f"blocks.{i}.{name}"] = getattr(b, name)
    out["ln_f.gain"] = params.ln_f_gain
    out["ln_f.bias"] = params.ln_f_bias
    out["head.w"] = params.w_out
    out["head.b"] = params.b_out
    return out


def parameter_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The name -> shape map of ``named_parameters(init_params(cfg, rng))``,
    computed without allocating a parameter."""
    return named_parameters(_build(cfg, lambda name, shape, fill: shape))


def params_from_arrays(cfg: ModelConfig, arrays: dict[str, np.ndarray]) -> ModelParams:
    """A parameter tree for ``cfg`` over copies of ``arrays``, whose names
    and shapes must be those of :func:`parameter_shapes`."""

    def copy(name, shape, fill):
        return Tensor(np.array(arrays[name], dtype=np.float64), requires_grad=True)

    return _build(cfg, copy)


def bind_params(params: ModelParams, tape: ad.Tape) -> None:
    """Watch every parameter on a fresh tape before a training forward pass."""
    for t in named_parameters(params).values():
        tape.watch(t)


def _causal_mask(positions: np.ndarray, n_keys: int) -> np.ndarray:
    """Additive mask over keys ``0 .. n_keys - 1``: -inf on the keys after
    each query's position, 0 elsewhere.  ``[1, S, n_keys]`` for positions
    ``[S]``, ``[B, 1, S, n_keys]`` (one for every head) for positions ``[B, S]``."""
    return np.where(np.arange(n_keys) > positions[..., None, :, None], -np.inf, 0.0)


def causal_mask(seq_len: int) -> np.ndarray:
    """Additive attention mask: 0 where j <= i, -inf where j > i."""
    return _causal_mask(np.arange(seq_len), seq_len)[0]


def _rope_cos_sin(head_dim: int, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if head_dim % 2:
        raise ValueError(f"rotary embedding needs an even head_dim, got {head_dim}")
    i2 = np.arange(0, head_dim, 2, dtype=np.float64)
    theta = np.power(ROPE_BASE, -i2 / head_dim)  # [head_dim/2]
    ang = np.asarray(positions, dtype=np.float64)[..., None] * theta  # [..., S, head_dim/2]
    return np.cos(ang), np.sin(ang)


def apply_rope(x: Tensor, positions: np.ndarray) -> Tensor:
    """Rotate consecutive channel pairs (2i, 2i+1) by pos * 10000^(-2i/d).

    ``x`` is [..., S, head_dim].  ``positions`` is [S], shared by every
    leading index, or [B, S] for an ``x`` of [B, ..., S, head_dim]: one row
    of positions per batch row, as in incremental decoding.  A pure
    rotation: norms are preserved and q/k dot products depend on relative
    position only.  Differentiable (the backward pass rotates the gradient
    by the opposite angle).
    """
    if x.ndim < 2:
        raise ad.ShapeMismatchError(f"apply_rope expects [..., S, head_dim], got {x.shape}")
    s, hd = x.shape[-2:]
    positions = np.asarray(positions)
    per_row = positions.ndim == 2 and x.ndim >= 3 and positions.shape == (x.shape[0], s)
    if positions.shape != (s,) and not per_row:
        raise ad.ShapeMismatchError(f"positions shape {positions.shape} != ({s},)")
    cos, sin_ = _rope_cos_sin(hd, positions)
    if per_row:  # [B, S, hd/2] -> [B, 1, ..., S, hd/2]
        lead = (positions.shape[0],) + (1,) * (x.ndim - 3)
        cos, sin_ = cos.reshape(lead + cos.shape[1:]), sin_.reshape(lead + sin_.shape[1:])
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


class KVCache:
    """Every block's keys and values for a batch being decoded.

    Plain forward-only arrays of [B, H, capacity, head_dim] per block, never
    on a tape.  ``lengths[b]`` counts the positions of row ``b`` held so
    far; the next :func:`forward_features` pass with this cache places row
    ``b``'s points from that position on.
    """

    def __init__(self, cfg: ModelConfig, batch: int, capacity: int):
        if not 1 <= capacity <= cfg.max_seq:
            raise ValueError(f"cache capacity {capacity} outside [1, max_seq {cfg.max_seq}]")
        shape = (batch, cfg.n_heads, capacity, cfg.head_dim)
        self.keys = [np.zeros(shape) for _ in range(cfg.n_blocks)]
        self.values = [np.zeros(shape) for _ in range(cfg.n_blocks)]
        self.lengths = np.zeros(batch, dtype=np.int64)

    @property
    def capacity(self) -> int:
        return self.keys[0].shape[2]


def _cache_write(store: np.ndarray, t: Tensor, positions: np.ndarray) -> Tensor:
    """Write a [B, H, S, hd] pass into ``store`` at each row's [B, S]
    positions; return every row's entries up to the furthest position."""
    store[np.arange(store.shape[0])[:, None], :, positions] = t.data.transpose(0, 2, 1, 3)
    return Tensor(store[:, :, : positions.max() + 1])


def attention(q: Tensor, k: Tensor, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """softmax(q k^T / sqrt(head_dim) + mask) v over the last two axes: one
    head [S, hd], or every head of a batch [B, H, S, hd] at once.

    ``mask`` is an additive array broadcastable to the [..., S, S_keys] scores.
    """
    c = 1.0 / math.sqrt(q.shape[-1])
    product = ad.matmul(q, ad.transpose(k))
    # scaled, then masked, in place: the fresh product is read by nothing else
    scores = product.data
    scores *= c
    if mask is not None:  # a constant: the gradient passes through unchanged
        scores += mask
    scores = ad.record_op((product,), scores, lambda g: (g * c,))
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
    kv: tuple[np.ndarray, np.ndarray] | None = None,
) -> Tensor:
    """Project to q/k/v, attend in every head at once, merge, project out.

    ``x`` is one [S, d_model] sequence or a [B, S, d_model] batch; ``mask``
    is an additive array broadcastable to [B, H, S, S_keys] (None: no mask).
    ``kv`` is one block's (keys, values) of a :class:`KVCache`: this pass's
    keys and values are written there at ``positions`` ([B, S]) and the
    queries attend over everything the cache holds.
    """
    single = x.ndim == 2
    if single:
        x = ad.reshape(x, (1,) + x.shape)
    q = ad.linear(x, bp.wq, bp.bq)  # [B, S, d_model]
    k = ad.linear(x, bp.wk, bp.bk)
    v = ad.linear(x, bp.wv, bp.bv)
    qh, kh, vh = (_split_heads(t, cfg.n_heads) for t in (q, k, v))
    if cfg.rope_enabled:
        qh = apply_rope(qh, positions)
        kh = apply_rope(kh, positions)
    if kv is not None:
        kh, vh = _cache_write(kv[0], kh, positions), _cache_write(kv[1], vh, positions)
    heads = attention(qh, kh, vh, mask)  # [B, H, S, hd]
    merged = ad.reshape(ad.transpose(heads, (0, 2, 1, 3)), x.shape)
    out = ad.linear(merged, bp.wo, bp.bo)
    return ad.reshape(out, out.shape[1:]) if single else out


def transformer_block(
    x: Tensor,
    bp: BlockParams,
    cfg: ModelConfig,
    mask: np.ndarray | None,
    positions: np.ndarray,
    kv: tuple[np.ndarray, np.ndarray] | None = None,
) -> Tensor:
    """Pre-norm residual block: x + MHA(LN(x)), then h + FF(LN(h))."""
    attn = multi_head_attention(
        ad.layer_norm(x, bp.ln1_gain, bp.ln1_bias), bp, cfg, mask, positions, kv
    )
    h = ad.add(x, attn)
    ff_in = ad.layer_norm(h, bp.ln2_gain, bp.ln2_bias)
    ff = ad.linear(ad.gelu(ad.linear(ff_in, bp.w_ff1, bp.b_ff1)), bp.w_ff2, bp.b_ff2)
    return ad.add(h, ff)


def forward_features(
    features: np.ndarray | Tensor,
    params: ModelParams,
    cfg: ModelConfig,
    lengths=None,
    cache: KVCache | None = None,
) -> Tensor:
    """The model end to end: [S, 7] features -> [S', 3] predictions, or a
    [B, S, 7] batch -> [B, S', 3] in one pass.

    ``lengths`` holds each batch row's number of real points (the rest of
    the row is zero padding); None means every row is full.

    With a ``cache`` (causal models with ``patch_len`` 1 only) the pass
    continues each row where the cache left off: row ``b``'s points take
    positions ``cache.lengths[b]`` on, their keys and values join the cache,
    they attend over every key the cache holds for their row up to their own
    position, and ``cache.lengths`` grows by the row's real points.  The
    first pass over a padded batch of prefixes is the prefill; each later
    pass of [B, 1, 7] new rows is one decode step.
    """
    x = features if isinstance(features, Tensor) else Tensor(features)
    single = x.ndim == 2
    if single:
        x = ad.reshape(x, (1,) + x.shape)
    b, s_in = x.shape[:2]
    s_out = -(-s_in // cfg.patch_len)  # positions after patching
    if lengths is not None and len(lengths) != b:
        raise ValueError(f"{len(lengths)} lengths for a batch of {b} rows")
    if cache is None:
        if s_out > cfg.max_seq:
            raise ValueError(
                f"sequence of {s_in} points ({s_out} positions) exceeds max_seq {cfg.max_seq}"
            )
        positions = np.arange(s_out)
    else:
        if cfg.attention_mode != "causal" or cfg.patch_len != 1:
            raise ValueError("a K/V cache needs a causal model with patch_len 1")
        if cache.lengths.shape != (b,):
            raise ValueError(f"a cache of {len(cache.lengths)} rows for a batch of {b}")
        positions = cache.lengths[:, None] + np.arange(s_out)  # [B, S]
        if positions.max() >= cache.capacity:
            raise ValueError(
                f"position {positions.max()} exceeds the cache's {cache.capacity} positions"
            )
    pe = emb.sinusoidal_table(cfg.max_seq, cfg.d_model) if cfg.use_positional_encoding else None
    x = emb.embed_sequence(
        x,
        params.proj,
        pe_table=pe,
        time2vec_layer=params.time2vec,
        patch_len=cfg.patch_len,
        use_dt_feature=cfg.use_dt_feature,
        lengths=lengths,
        positions=positions,
    )
    if cfg.attention_mode == "causal":  # padding sits after every real position
        mask = _causal_mask(positions, positions.max() + 1)
    elif lengths is None:
        mask = None
    else:
        mask = _key_padding_mask(-(-np.asarray(lengths) // cfg.patch_len), s_out)
    for i, bp in enumerate(params.blocks):
        kv = None if cache is None else (cache.keys[i], cache.values[i])
        x = transformer_block(x, bp, cfg, mask, positions, kv)
    x = ad.layer_norm(x, params.ln_f_gain, params.ln_f_bias)
    out = ad.linear(x, params.w_out, params.b_out)
    if cache is not None:
        cache.lengths += s_out if lengths is None else np.asarray(lengths, dtype=np.int64)
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
